import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holeshift import (
    CountingError,
    MultiSchedule,
    NVector,
    adjacency_matrix,
    advance_state,
    count_exact,
    count_from_prefix,
    count_series,
    from_words,
    gen_lpq,
    gen_progressive,
    gen_totally_distinct,
    initial_state,
    make_params,
    nvec_from_series,
    nvec_step,
    product_norm,
)
from oracle import fullscan_count, oracle_series, random_explicit, random_two_hole

P32 = make_params(3, 2)
P33 = make_params(3, 3)


# ---------------------------------------------------------------------------
# frozen exact values


def test_po_series_b3_m2():
    s = gen_progressive(P32, (0,))
    assert [count_exact(s, k) for k in range(1, 8)] == [3, 8, 22, 60, 164, 448, 1224]


def test_td_series_b3_m2():
    s = gen_totally_distinct(P32, (0,))
    assert [count_exact(s, k) for k in range(1, 6)] == [3, 8, 21, 55, 144]


def test_free_stages_below_m():
    s = gen_progressive(P33, (0,))
    assert count_exact(s, 0) == 1
    assert count_exact(s, 1) == 3
    assert count_exact(s, 2) == 9
    assert count_exact(s, 3) == 26  # b^m - 1 at the first constrained stage


def test_two_hole_periodic_value():
    s = MultiSchedule(
        params=P32, children=(from_words(P32, [(0, 0)]), from_words(P32, [(1, 1)]))
    )
    assert count_exact(s, 3) == 17


def test_prefix_count_value():
    s = gen_progressive(P32, (0, 0))
    assert count_from_prefix(s, (0, 1), 4) == 8


def test_prefix_count_consistency():
    # summing over all surviving length-2 prefixes recovers the total
    s = gen_progressive(P32, (0, 1, 2))
    total = count_exact(s, 5)
    parts = 0
    for a in range(3):
        for b in range(3):
            try:
                parts += count_from_prefix(s, (a, b), 5)
            except CountingError:
                pass
    assert parts == total


def test_prefix_rejects_dead_prefix():
    s = gen_progressive(P32, (0, 0))
    with pytest.raises(CountingError, match="not a survivor"):
        count_from_prefix(s, (0, 0), 4)
    with pytest.raises(CountingError):
        count_from_prefix(s, (0,), 4)


def test_m1_counts():
    p = make_params(3, 1)
    s = from_words(p, [(0,)])
    assert [count_exact(s, k) for k in range(5)] == [1, 2, 4, 8, 16]


def test_m1_extinction():
    p = make_params(2, 1)
    s = MultiSchedule(params=p, children=(from_words(p, [(0,)]), from_words(p, [(1,)])))
    assert count_exact(s, 1) == 0
    assert count_exact(s, 4) == 0


# ---------------------------------------------------------------------------
# oracle equivalence


def test_oracle_routes_agree_small():
    # certify the incremental oracle against the literal all-words scan
    for seed in range(4):
        s = random_explicit(P32, seed)
        series = oracle_series(s, 8)
        for k in range(9):
            assert series[k] == fullscan_count(s, k)
    s = random_two_hole(P33, 9)
    series = oracle_series(s, 7)
    for k in range(8):
        assert series[k] == fullscan_count(s, k)


@settings(max_examples=25)
@given(st.integers(3, 4), st.integers(2, 3), st.integers(0, 10**6))
def test_engine_matches_oracle_single_hole(b, m, seed):
    p = make_params(b, m)
    s = random_explicit(p, seed)
    assert count_series(s, 10, mode="exact") == oracle_series(s, 10)


@settings(max_examples=10)
@given(st.integers(3, 4), st.integers(2, 3), st.integers(0, 10**6))
def test_engine_matches_oracle_two_hole(b, m, seed):
    p = make_params(b, m)
    s = random_two_hole(p, seed)
    assert count_series(s, 10, mode="exact") == oracle_series(s, 10)


def test_engine_matches_oracle_generators():
    for s in (
        gen_progressive(P33, ("rng", 3)),
        gen_totally_distinct(P33, ("rng", 3)),
        gen_lpq(P32, 2, 1, ("rng", 5)),
    ):
        assert count_series(s, 11, mode="exact") == oracle_series(s, 11)


# ---------------------------------------------------------------------------
# state vector API


def test_state_stepping_matches_driver():
    s = gen_progressive(P32, (0, 1, 2))
    sv = initial_state(P32)
    assert sv.k == 1 and sv.total() == 3
    for _ in range(6):
        sv = advance_state(sv, s)
    assert sv.k == 7
    assert sv.total() == count_exact(s, 7)


def test_state_params_mismatch():
    sv = initial_state(P32)
    with pytest.raises(CountingError):
        advance_state(sv, gen_progressive(P33, (0,)))


# ---------------------------------------------------------------------------
# adjacency route (independent of the stepping engine)


def test_product_norm_equals_count():
    s = gen_progressive(P32, (0, 1, 2))
    for k in range(2, 9):
        words = [s.hole_at(i)[0] for i in range(k - 1)]
        assert product_norm(P32, words) == count_exact(s, k)


def test_product_norm_m3():
    s = gen_totally_distinct(P33, ("rng", 2))
    words = [s.hole_at(i)[0] for i in range(5)]
    assert product_norm(P33, words) == count_exact(s, 7)


def test_adjacency_matrix_shape_and_edges():
    mat = adjacency_matrix(P32, [(0, 0)])
    dense = mat.to_dense()
    assert len(dense) == 3
    assert dense[0][0] == 0  # the removed edge
    assert sum(sum(row) for row in dense) == 8
    assert mat.entry(0, 0) == 0
    assert mat.entry(1, 0) == 1


def test_adjacency_matrix_m3_compatibility():
    mat = adjacency_matrix(P33, [(0, 1, 2)])
    # state (0,1) -> (1,2) completes word 012, which is forbidden
    assert mat.entry(1, 5) == 0
    # state (2,1) -> (1,2) completes 212, allowed
    assert mat.entry(7, 5) == 1
    # incompatible shift: (0,0) -> (1,0)
    assert mat.entry(0, 3) == 0


def test_adjacency_rejects_m1():
    with pytest.raises(CountingError):
        adjacency_matrix(make_params(3, 1), [(0,)])


# ---------------------------------------------------------------------------
# count block recursion


def test_nvec_steps_match_series():
    po = gen_progressive(P32, (0,))
    nv = NVector(P32, (8, 3))
    assert nvec_step(nv, "po").entries == (22, 8)
    assert nvec_step(nv, "td").entries == (21, 8)
    series = count_series(po, 9, mode="exact")
    nv = nvec_from_series(P32, series, 1)
    for k in range(1, 7):
        nv = nvec_step(nv, "po")
        assert nv.entries == (series[k + 3], series[k + 2])


def test_nvec_td_route():
    td = gen_totally_distinct(P32, (0,))
    series = count_series(td, 9, mode="exact")
    nv = nvec_from_series(P32, series, 1)
    for k in range(1, 7):
        nv = nvec_step(nv, "td")
        assert nv.entries == (series[k + 3], series[k + 2])


def test_nvec_cone_validation():
    with pytest.raises(CountingError):
        NVector(P32, (100, 3))  # above b * shorter
    with pytest.raises(CountingError):
        NVector(P32, (5, 3))  # below (b-1) * shorter
    with pytest.raises(CountingError):
        NVector(P32, (8, 3, 1))


def test_nvec_rejects_neither():
    nv = NVector(P32, (8, 3))
    with pytest.raises(CountingError):
        nvec_step(nv, "neither")


# ---------------------------------------------------------------------------
# log engine


def test_log_engine_tracks_exact():
    cases = [
        gen_progressive(P32, (0, 1, 2)),
        gen_totally_distinct(P32, ("rng", 4)),
        gen_lpq(P32, 2, 3, ("rng", 11)),
        from_words(P32, [(0, 0), (1, 2), (2, 2)]),
        MultiSchedule(
            params=P32, children=(from_words(P32, [(0, 0)]), from_words(P32, [(1, 1)]))
        ),
    ]
    for s in cases:
        exact = count_series(s, 600, mode="exact")
        ls = count_series(s, 600, mode="log")
        err = max(
            abs(ls.logs[k] - math.log(exact[k])) for k in range(1, 601) if exact[k]
        )
        assert err <= ls.drift_bound, f"{s.kind}: {err} > {ls.drift_bound}"
        assert ls.extinction_k is None


def test_log_engine_numpy_path():
    p = make_params(3, 6)  # 243 states, above the numpy threshold
    s = gen_progressive(p, ("rng", 9))
    exact = count_series(s, 300, mode="exact")
    ls = count_series(s, 300, mode="log")
    err = max(abs(ls.logs[k] - math.log(exact[k])) for k in range(1, 301))
    assert err <= ls.drift_bound


def test_log_engine_extinction():
    p = make_params(2, 1)
    s = MultiSchedule(params=p, children=(from_words(p, [(0,)]), from_words(p, [(1,)])))
    ls = count_series(s, 10, mode="log")
    assert ls.extinction_k == 1
    assert ls.logs[0] == 0.0
    assert math.isinf(ls.logs[1]) and ls.logs[1] < 0


def test_log_engine_free_stages():
    s = gen_progressive(P33, (0,))
    ls = count_series(s, 2, mode="log")
    assert ls.logs[2] == pytest.approx(2 * math.log(3))
    assert ls.drift_bound == 0.0


# ---------------------------------------------------------------------------
# lemma bands and guards


@settings(max_examples=30)
@given(st.integers(3, 4), st.integers(2, 3), st.integers(0, 10**6))
def test_single_hole_growth_band(b, m, seed):
    p = make_params(b, m)
    s = random_explicit(p, seed)
    series = count_series(s, 12, mode="exact")
    for k in range(p.m - 1, 12):
        assert (p.b - 1) * series[k] <= series[k + 1] <= p.b * series[k]


def test_count_exact_validation():
    s = gen_progressive(P32, (0,))
    with pytest.raises(CountingError):
        count_exact(s, -1)
    with pytest.raises(CountingError):
        count_series(s, -1, mode="exact")
    with pytest.raises(CountingError):
        count_series(s, -1, mode="log")
    assert count_series(s, 0, mode="exact") == [1]
    assert count_series(s, 0, mode="log").logs.tolist() == [0.0]
    with pytest.raises(CountingError):
        count_series(s, 5, mode="weird")


def test_capacity_guard():
    p = make_params(3, 30)
    s = gen_progressive(p, (0,))
    with pytest.raises(CountingError, match="capacity"):
        count_exact(s, 40)
