import pytest

from holeshift import (
    ExplicitSchedule,
    JsrError,
    classify_position,
    count_exact,
    dominant_root,
    exhaustive_maxima,
    finiteness_check,
    gen_progressive,
    jsr_upper_exhaustive,
    jsr_upper_po,
    make_params,
    unpack_word,
)

P32 = make_params(3, 2)


def test_exhaustive_matches_po_shortcut():
    rep = jsr_upper_exhaustive(P32, 5)
    assert rep.depths == [1, 2, 3, 4, 5]
    assert rep.max_norms == [8, 22, 60, 164, 448]
    assert rep.po_norms == rep.max_norms
    assert rep.po_matches
    assert rep.nodes_expanded > 0


def test_po_shortcut_is_po_count():
    po = gen_progressive(P32, (0,))
    for n in range(1, 7):
        assert jsr_upper_po(P32, n) == count_exact(po, n + P32.m - 1)


def test_upper_values_decrease_to_lambda():
    rep = jsr_upper_exhaustive(P32, 6)
    lam = dominant_root("lambda", P32).value
    vals = rep.upper_values
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= lam - 1e-12 for v in vals)
    assert vals[-1] - lam < 0.7  # already within reach of the limit at n=6


def test_exhaustive_matches_on_m3():
    p = make_params(3, 3)
    rep = jsr_upper_exhaustive(p, 3)
    assert rep.po_matches
    po = gen_progressive(p, (0,))
    assert rep.max_norms == [count_exact(po, n + 2) for n in (1, 2, 3)]


def test_argmax_sequences_are_progressive():
    mx, argmax = exhaustive_maxima(P32, 3)
    assert mx == 60
    assert len(argmax) == 81
    for seq in argmax:
        words = [unpack_word(v, P32.m, P32) for v in seq]
        for a, b in zip(words, words[1:]):
            assert b[: P32.m - 1] == a[1:]


def test_argmax_classifies_po():
    _, argmax = exhaustive_maxima(P32, 3)
    words = [unpack_word(v, P32.m, P32) for v in argmax[0]]
    s = ExplicitSchedule(P32, tuple((w,) for w in words))
    for k in range(1, len(words)):
        assert classify_position(s, k).value == "po"


def test_budget_guard():
    with pytest.raises(JsrError, match="budget"):
        jsr_upper_exhaustive(P32, 12, budget=10_000)
    with pytest.raises(JsrError, match="budget"):
        exhaustive_maxima(P32, 12, budget=10_000)


def test_validation():
    with pytest.raises(JsrError):
        jsr_upper_exhaustive(make_params(3, 1), 3)
    with pytest.raises(JsrError):
        jsr_upper_exhaustive(P32, 0)
    with pytest.raises(JsrError):
        finiteness_check(P32, [])


def test_finiteness_fixed_hole_achieves():
    rep = finiteness_check(P32, [(0, 0)])
    lam = dominant_root("lambda", P32).value
    assert rep.period == 1
    assert rep.achieves
    assert abs(rep.rate - lam) < 1e-9
    assert abs(rep.rho - lam) < 1e-9


def test_finiteness_alternating_pair_achieves():
    rep = finiteness_check(P32, [(0, 1), (1, 0)])
    lam = dominant_root("lambda", P32).value
    assert rep.period == 2
    assert rep.achieves
    assert abs(rep.rate - lam) < 1e-9
    assert abs(rep.rho - lam * lam) < 1e-6


def test_finiteness_non_progressive_falls_short():
    # a fixed "01" hole grows at the TD rate, strictly below lambda
    rep = finiteness_check(P32, [(0, 1)])
    eta = dominant_root("eta", P32).value
    assert not rep.achieves
    assert abs(rep.rate - eta) < 1e-6
