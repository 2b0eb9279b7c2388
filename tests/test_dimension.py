import math
from fractions import Fraction

import pytest

from holeshift import (
    DimensionError,
    MultiSchedule,
    PQSchedule,
    build_pq_schedule,
    dominant_root,
    estimate_dims,
    family_checkpoints,
    from_words,
    gen_family,
    gen_lpq,
    gen_mixed,
    gen_progressive,
    gen_totally_distinct,
    make_params,
    moran_bound,
    predict_dims,
    regularity_ratios,
)

P32 = make_params(3, 2)
P33 = make_params(3, 3)

FAMILY_PQ = build_pq_schedule(2, Fraction(1, 4), Fraction(1, 2))


# ---------------------------------------------------------------------------
# predictions


def test_predict_po():
    d = predict_dims(gen_progressive(P32, (0,)))
    assert abs(d.hausdorff - 0.9148382455842046) < 1e-12
    assert d.packing == d.hausdorff
    lam = dominant_root("lambda", P32).value
    assert abs(d.hausdorff - math.log(lam) / math.log(3)) < 1e-12


def test_predict_td():
    d = predict_dims(gen_totally_distinct(P32, (0,)))
    assert abs(d.hausdorff - 0.8760357589718848) < 1e-12
    assert d.packing == d.hausdorff


def test_predict_lpq():
    d = predict_dims(gen_lpq(P32, 1, 1, (0,)))
    assert abs(d.hausdorff - 0.9031541219966811) < 1e-12
    assert d.packing == d.hausdorff


def test_predict_mixed():
    d = predict_dims(gen_mixed(P33, (0,)))
    gam = dominant_root("gamma", P33).value
    assert abs(d.hausdorff - math.log(gam) / math.log(3)) < 1e-12
    assert abs(d.hausdorff - 0.9670326794198775) < 1e-12


def test_predict_family_split():
    d = predict_dims(gen_family(P32, FAMILY_PQ, (0,)))
    lam_hat = math.log(dominant_root("lambda", P32).value) / math.log(3)
    eta_hat = math.log(dominant_root("eta", P32).value) / math.log(3)
    # liminf sees the TD-richest prefixes (weight t), limsup the PO-richest
    # (weight s); s < t puts packing strictly above hausdorff
    assert abs(d.hausdorff - (0.5 * eta_hat + 0.5 * lam_hat)) < 1e-12
    assert abs(d.packing - (0.25 * eta_hat + 0.75 * lam_hat)) < 1e-12
    assert abs(d.hausdorff - 0.8954370022780447) < 1e-12
    assert abs(d.packing - 0.9051376239311246) < 1e-12
    assert d.hausdorff < d.packing


def test_predict_family_needs_targets():
    fixed = PQSchedule(gap_mode="m-gap", m=2, fixed=(2, 3))
    s = gen_family(P32, fixed, (0,))
    with pytest.raises(DimensionError, match="vanishing-cycle"):
        predict_dims(s)


def test_predict_m1_closed_form():
    d = predict_dims(gen_progressive(make_params(3, 1), (0,)))
    assert abs(d.hausdorff - math.log(2) / math.log(3)) < 1e-12
    assert d.packing == d.hausdorff


def test_predict_density_one_kinds():
    for kind in ("density-one-po", "density-one-td"):
        d = predict_dims(kind, P32)
        ref = predict_dims("po" if kind.endswith("po") else "td", P32)
        assert d.hausdorff == ref.hausdorff
        assert "density" in d.basis


def test_predict_bad_kind():
    with pytest.raises(DimensionError):
        predict_dims("no-such-kind", P32)


def test_eta_hat_none_when_td_rate_missing():
    # b=2, m=2 has no TD growth rate; the family endpoint is undefined
    p22 = make_params(2, 2)
    d = predict_dims("po", p22)
    assert d.lower_endpoint is None


# ---------------------------------------------------------------------------
# finite-k estimates


def test_estimate_po_converges():
    s = gen_progressive(P32, (0,))
    rep = estimate_dims(s, 400)
    pred = predict_dims(s).hausdorff
    assert rep.liminf_est is not None and rep.limsup_est is not None
    assert rep.liminf_est <= rep.limsup_est
    assert abs(rep.liminf_est - pred) < 2e-3
    assert abs(rep.limsup_est - pred) < 2e-3
    assert rep.prediction is not None
    assert rep.k_max == 400 and len(rep.series) == 401


def test_estimate_uncertainty_shrinks_with_k():
    s = gen_progressive(P32, (0,))
    u_small = estimate_dims(s, 100).uncertainty["total"]
    u_large = estimate_dims(s, 800).uncertainty["total"]
    assert u_large < u_small


def test_estimate_family_brackets_split():
    s = gen_family(P32, FAMILY_PQ, (0,))
    rep = estimate_dims(s, 1200)
    d = predict_dims(s)
    # at finite k the window extremes straddle the interpolated endpoints
    assert rep.liminf_est < rep.limsup_est
    assert abs(rep.liminf_est - d.hausdorff) < 0.02
    assert abs(rep.limsup_est - d.packing) < 0.02


def test_estimate_validation():
    s = gen_progressive(P32, (0,))
    with pytest.raises(DimensionError):
        estimate_dims(s, 1)
    with pytest.raises(DimensionError):
        estimate_dims(s, 100, window=0.0)
    with pytest.raises(DimensionError):
        estimate_dims(s, 100, window=1.5)


def test_estimate_extinction():
    p21 = make_params(2, 1)
    dead = MultiSchedule(
        p21, (from_words(p21, [(0,)]), from_words(p21, [(1,)]))
    )
    rep = estimate_dims(dead, 20)
    assert rep.extinction_k == 1
    assert rep.liminf_est is None and rep.limsup_est is None


# ---------------------------------------------------------------------------
# regularity scans


def test_regularity_po_bounded():
    s = gen_progressive(P32, (0,))
    reg = regularity_ratios(s, 60)
    lam = dominant_root("lambda", P32).value
    assert reg.beta == pytest.approx(lam)
    assert not reg.unbounded_trend
    assert reg.argmin_k == 2 and reg.argmax_k == 1
    assert abs(reg.min_ratio - 1.0717967697244901) < 1e-12
    assert abs(reg.max_ratio - 3.0 / lam) < 1e-12
    assert 0 < reg.min_ratio <= reg.max_ratio


def test_regularity_auto_beta_td():
    s = gen_totally_distinct(P32, (0,))
    reg = regularity_ratios(s, 60)
    assert reg.beta == pytest.approx(dominant_root("eta", P32).value)
    assert not reg.unbounded_trend


def test_regularity_mismatched_beta_flags_trend():
    s = gen_progressive(P32, (0,))
    eta = dominant_root("eta", P32).value
    reg = regularity_ratios(s, 200, beta=eta)
    assert reg.unbounded_trend
    assert reg.max_ratio > 100 * reg.min_ratio


def test_regularity_validation():
    s = gen_progressive(P32, (0,))
    with pytest.raises(DimensionError):
        regularity_ratios(s, 1)
    with pytest.raises(DimensionError):
        regularity_ratios(s, 50, beta=0.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_regularity_refuses_rates_that_are_not_finite(beta):
    s = gen_progressive(P32, (0,))
    with pytest.raises(DimensionError, match="finite"):
        regularity_ratios(s, 50, beta=beta)


def test_regularity_tiny_rate_overflows_to_inf():
    # log(1e-320) is about -737, so every log ratio is above 700
    reg = regularity_ratios(gen_progressive(P32, (0,)), 50, beta=1e-320)
    assert reg.log_min > 700
    assert reg.min_ratio == reg.max_ratio == math.inf


# ---------------------------------------------------------------------------
# bounds and checkpoints


def test_moran_bound_values():
    assert abs(moran_bound(make_params(3, 10)) - 0.2260241814276538) < 1e-12
    assert abs(moran_bound(make_params(3, 100)) - 0.894044764314719) < 1e-12
    assert moran_bound(make_params(3, 100)) < 1.0


def test_moran_bound_needs_large_m():
    with pytest.raises(DimensionError):
        moran_bound(make_params(3, 9))


def test_family_checkpoints_arithmetic():
    s = gen_family(P32, FAMILY_PQ, (0,))
    cps = family_checkpoints(s, 2000)
    # sup checkpoints sit one fresh PO run past each cycle end; inf
    # checkpoints sit exactly at cycle ends
    assert cps["sup"] == [(0, 1), (1, 9), (2, 29), (3, 85), (4, 249), (5, 737)]
    assert cps["inf"] == [(1, 5), (2, 16), (3, 45), (4, 128), (5, 373), (6, 1104)]
    ell = FAMILY_PQ.ell
    for n, k in cps["inf"]:
        assert k == ell(n)
    for n, k in cps["sup"]:
        assert k == ell(n) + FAMILY_PQ.p(n + 1)


def test_family_checkpoints_requires_family():
    with pytest.raises(DimensionError):
        family_checkpoints(gen_progressive(P32, (0,)), 100)
