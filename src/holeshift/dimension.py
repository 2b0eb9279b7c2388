"""Dimension estimates from count growth, and structural predictions.

The k-th stage exponent r_k = log|Sigma_k| / (k log b) converges to the
Hausdorff dimension of the survivor set along lim inf and to the packing
dimension along lim sup.  Estimates take the min and max of r_k over a
trailing window; predictions evaluate the closed forms the structural
families admit.  Every dimension of every single-hole survivor set lies in
[log eta / log b, log lambda / log b], which the report carries as the
spectrum endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import count_series
from .model import Params
from .schedules import FamilySchedule, HoleSchedule
from .spectra import SpectraError, dominant_root, lambda_pq


class DimensionError(ValueError):
    """Invalid estimation or prediction request."""


@dataclass(frozen=True)
class PredictedDims:
    """Closed-form dimensions for a structural schedule family.

    assouad_endpoint and lower_endpoint are the extreme points of the
    admissible dimension range for the parameters; hausdorff and packing are
    the family's own values.  verified mirrors the parameter regime flag
    (b >= 3, m >= 2); outside it the formulas are extrapolations.
    """

    hausdorff: float
    packing: float
    assouad_endpoint: float
    lower_endpoint: float | None
    basis: str
    verified: bool


@dataclass
class DimReport:
    """Finite-stage dimension estimate.

    liminf_est and limsup_est are min and max of r_k over the trailing
    window; both are None after an extinction.  uncertainty combines the log
    engine's drift bound (scaled at the window start) with the sensitivity
    of each estimate to halving the window.
    """

    params: Params
    kind: str
    k_max: int
    window: float
    liminf_est: float | None
    limsup_est: float | None
    series: np.ndarray
    uncertainty: dict
    extinction_k: int | None = None
    prediction: PredictedDims | None = None


def _window_start(k_max: int, window: float) -> int:
    return max(1, math.ceil((1.0 - window) * k_max))


def _log_counts(s: HoleSchedule, k_max: int) -> tuple[np.ndarray, float, int | None]:
    """ln |Sigma_k| for 0 <= k <= k_max (-inf once the counts die), the
    log engine's drift bound, and the first dead length.

    Uses the log engine for long runs (k_max >= 10^4) or large state spaces
    and exact integer counts otherwise.
    """
    # exact integers stay cheap only for short runs on small state spaces
    if k_max >= 10_000 or s.params.state_count >= 128:
        ls = count_series(s, k_max, mode="log")
        return ls.logs, ls.drift_bound, ls.extinction_k
    logs = np.full(k_max + 1, -math.inf)
    extinction_k = None
    for k, c in enumerate(count_series(s, k_max, mode="exact")):
        if c > 0:
            logs[k] = math.log(c)
        elif extinction_k is None:
            extinction_k = k
    return logs, 0.0, extinction_k


def estimate_dims(s: HoleSchedule, k_max: int, window: float = 0.5) -> DimReport:
    """Window min/max of the stage exponents r_k up to k_max."""
    if not isinstance(k_max, int) or k_max < 2:
        raise DimensionError(f"k_max must be an int >= 2, got {k_max!r}")
    if not 0.0 < window <= 1.0:
        raise DimensionError(f"window must be in (0, 1], got {window}")
    p = s.params
    logb = math.log(p.b)
    logs, drift, extinction_k = _log_counts(s, k_max)
    ks = np.arange(k_max + 1, dtype=float)
    ks[0] = math.nan
    series = logs / (ks * logb)
    series[0] = math.nan

    if extinction_k is not None:
        return DimReport(
            params=p,
            kind=s.kind,
            k_max=k_max,
            window=window,
            liminf_est=None,
            limsup_est=None,
            series=series,
            uncertainty={"drift": drift},
            extinction_k=extinction_k,
        )

    def window_minmax(w: float) -> tuple[float, float]:
        k0 = _window_start(k_max, w)
        tail = series[k0:]
        return float(tail.min()), float(tail.max())

    lo, hi = window_minmax(window)
    lo_half, hi_half = window_minmax(window / 2.0)
    k0 = _window_start(k_max, window)
    drift_term = drift / (k0 * logb)
    uncertainty = {
        "drift": drift_term,
        "window_liminf": abs(lo - lo_half),
        "window_limsup": abs(hi - hi_half),
        "total": drift_term + max(abs(lo - lo_half), abs(hi - hi_half)),
    }
    try:
        prediction = predict_dims(s)
    except (DimensionError, SpectraError):
        prediction = None  # no closed form for this schedule shape
    return DimReport(
        params=p,
        kind=s.kind,
        k_max=k_max,
        window=window,
        liminf_est=lo,
        limsup_est=hi,
        series=series,
        uncertainty=uncertainty,
        prediction=prediction,
    )


# ---------------------------------------------------------------------------
# predictions


def _rate(p: Params, kind: str) -> float:
    return math.log(dominant_root(kind, p).value) / math.log(p.b)


def predict_dims(s_or_kind, p: Params | None = None, **kw) -> PredictedDims:
    """Closed-form dimensions for a recognized structural family.

    Accepts a generated schedule (po, td, lpq, family with growth targets,
    mixed) or a descriptor string; descriptor strings additionally allow
    "density-one-po" and "density-one-td" for schedules known to have the
    pattern on a set of positions of density one.  Arbitrary schedules have
    no prediction and raise.
    """
    if isinstance(s_or_kind, HoleSchedule):
        sched = s_or_kind
        p = sched.params
        kind = sched.kind
    else:
        sched = None
        kind = str(s_or_kind)
        if p is None:
            raise DimensionError("descriptor predictions need explicit params")

    if p.m == 1:
        if kind == "multi":
            raise DimensionError("multi-hole schedules have no closed-form prediction")
        v = math.log(p.b - 1) / math.log(p.b)
        return PredictedDims(
            hausdorff=v,
            packing=v,
            assouad_endpoint=v,
            lower_endpoint=v,
            basis="m=1: every stage keeps b-1 digit choices",
            verified=p.verified,
        )

    lam_hat = _rate(p, "lambda")
    try:
        eta_hat = _rate(p, "eta")
    except SpectraError:
        eta_hat = None  # b=2, m=2 has no TD rate strictly inside (1, 2)

    def base(h: float, pk: float, basis: str) -> PredictedDims:
        return PredictedDims(
            hausdorff=h,
            packing=pk,
            assouad_endpoint=lam_hat,
            lower_endpoint=eta_hat,
            basis=basis,
            verified=p.verified,
        )

    if kind in ("po", "density-one-po"):
        tag = "all positions PO" if kind == "po" else "PO positions have density one"
        return base(lam_hat, lam_hat, f"{tag}: growth at the PO rate")
    if kind in ("td", "density-one-td"):
        if eta_hat is None:
            raise DimensionError("TD rate undefined at b=2, m=2")
        tag = "all positions TD" if kind == "td" else "TD positions have density one"
        return base(eta_hat, eta_hat, f"{tag}: growth at the TD rate")
    if kind == "mixed":
        g_hat = _rate(p, "gamma")
        return base(g_hat, g_hat, "mixed pattern: growth at the gamma rate")
    if kind == "lpq":
        if sched is None:
            pp, qq = kw.get("p"), kw.get("q")
            if pp is None or qq is None:
                raise DimensionError("lpq descriptor predictions need p= and q=")
        else:
            pp, qq = sched.pq.fixed
        norm = lambda_pq(p, pp, qq).normalized
        return base(norm, norm, f"p/q alternation: eigenvalue of A^{pp} B^{qq}")
    if kind == "family":
        if sched is None:
            st = kw.get("s"), kw.get("t")
            if st[0] is None or st[1] is None:
                raise DimensionError("family descriptor predictions need s= and t=")
            s_t = st
        else:
            if sched.pq.targets is None:
                raise DimensionError(
                    "fixed-run families do not meet the vanishing-cycle condition; "
                    "no closed-form prediction"
                )
            s_t = sched.pq.targets[:2]
        if eta_hat is None:
            raise DimensionError("TD rate undefined at b=2, m=2")
        s_frac, t_frac = float(s_t[0]), float(s_t[1])
        h = t_frac * eta_hat + (1.0 - t_frac) * lam_hat
        pk = s_frac * eta_hat + (1.0 - s_frac) * lam_hat
        return base(h, pk, f"run-length targets s={s_t[0]}, t={s_t[1]}")
    raise DimensionError(f"no structural prediction for schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# regularity ratios


@dataclass
class RegularityReport:
    """Extremes of |Sigma_k| / beta^k over 1 <= k <= k_max, in log domain.

    unbounded_trend flags a spread that keeps growing between the half and
    full horizon, the signature of a mismatched rate.
    """

    params: Params
    beta: float
    k_max: int
    log_min: float
    log_max: float
    argmin_k: int
    argmax_k: int
    min_ratio: float
    max_ratio: float
    spread: float
    unbounded_trend: bool


def _auto_rate(s: HoleSchedule) -> float:
    p = s.params
    if s.kind == "po":
        return dominant_root("lambda", p).value
    if s.kind == "td":
        return dominant_root("eta", p).value
    if s.kind == "mixed":
        return dominant_root("gamma", p).value
    if s.kind == "lpq":
        pp, qq = s.pq.fixed
        return lambda_pq(p, pp, qq).root.value ** (1.0 / (pp + qq))
    # unclassified: geometric mean of the extreme rates
    lam = dominant_root("lambda", p).value
    eta = dominant_root("eta", p).value
    return math.sqrt(lam * eta)


def regularity_ratios(s: HoleSchedule, k_max: int, beta="auto") -> RegularityReport:
    """Scan the normalized counts |Sigma_k| / beta^k for boundedness."""
    if not isinstance(k_max, int) or k_max < 2:
        raise DimensionError(f"k_max must be an int >= 2, got {k_max!r}")
    rate = _auto_rate(s) if beta == "auto" else float(beta)
    if not (math.isfinite(rate) and rate > 0):
        raise DimensionError(f"rate must be positive and finite, got {rate}")
    logs, _, extinction_k = _log_counts(s, k_max)
    if extinction_k is not None:
        raise DimensionError(f"counts die out at k={extinction_k}")
    lr = logs[1:] - math.log(rate) * np.arange(1, k_max + 1)
    argmin = int(lr.argmin()) + 1
    argmax = int(lr.argmax()) + 1
    log_min, log_max = float(lr.min()), float(lr.max())
    half = max(1, k_max // 2)
    spread_half = float(lr[:half].max() - lr[:half].min())
    spread_full = log_max - log_min
    # 0.4 in log space is a ~1.5x growth of the ratio band
    trend = spread_full > spread_half + 0.4
    return RegularityReport(
        params=s.params,
        beta=rate,
        k_max=k_max,
        log_min=log_min,
        log_max=log_max,
        argmin_k=argmin,
        argmax_k=argmax,
        min_ratio=0.0 if log_min <= -700 else math.exp(log_min) if log_min < 700 else math.inf,
        max_ratio=math.exp(log_max) if log_max < 700 else math.inf,
        spread=math.exp(spread_full) if spread_full < 700 else math.inf,
        unbounded_trend=bool(trend),
    )


# ---------------------------------------------------------------------------
# two-hole lower bound and family checkpoints


def moran_bound(p: Params) -> float:
    """Lower bound for the dimension with two holes per position, m >= 10:
    1 - (2/(m-2)) (log m / log b + 1)."""
    if p.m < 10:
        raise DimensionError(f"the two-hole bound needs m >= 10, got m={p.m}")
    return 1.0 - (2.0 / (p.m - 2)) * (math.log(p.m) / math.log(p.b) + 1.0)


def family_checkpoints(s: FamilySchedule, k_max: int) -> dict:
    """Cycle boundary positions where the stage exponent attains its local
    extremes: the end of each PO run (sup side) and each cycle end (inf
    side), up to k_max."""
    if not isinstance(s, FamilySchedule):
        raise DimensionError("checkpoints are defined for family schedules")
    sup_side: list[tuple[int, int]] = []
    inf_side: list[tuple[int, int]] = []
    n = 0
    while True:
        k_sup = s.pq.ell(n) + s.pq.p(n + 1)
        k_inf = s.pq.ell(n + 1)
        if k_sup > k_max and k_inf > k_max:
            break
        if k_sup <= k_max:
            sup_side.append((n, k_sup))
        if k_inf <= k_max:
            inf_side.append((n + 1, k_inf))
        n += 1
    return {"sup": sup_side, "inf": inf_side}
