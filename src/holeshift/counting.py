"""Survivor counting engines.

A survivor of length k is a word d_1...d_k none of whose length-m windows
d_{i+1}..d_{i+m} equals a hole at position i.  Counts are maintained per de
Bruijn state (the (m-1)-digit suffix): appending digit a moves state u to
state (u_2..u_{m-1}, a) unless u followed by a is forbidden at the position
being completed.  One step therefore costs O(b^(m-1) + holes) after
aggregating predecessor sums, instead of the O(b^m) edge scan.

Two arithmetic paths exist on purpose: the exact path uses Python integers
and never rounds; the log path renormalizes a float state by its maximum
each step and accumulates the scale, reporting a drift bound of 32 * eps
per step plus 4 * eps times the largest accumulated scale, which generously
covers the handful of roundings a step performs per entry.  product_norm
deliberately multiplies dense 0/1 matrices instead, so identity tests
against the aggregated engine compare two independent arithmetic routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Params, Word, check_word, pack_word
from .schedules import HoleSchedule, PatternClass

EPS = 2.220446049250313e-16
# per-step state rounding allowance; validated against exact series in tests
DRIFT_PER_STEP = 32.0 * EPS
_NUMPY_DIM_THRESHOLD = 128


class CountingError(ValueError):
    """Invalid counting request or non-survivor input."""


# ---------------------------------------------------------------------------
# single steps


_MAX_STATES = 1 << 26


def _check_capacity(p: Params) -> None:
    # state vectors materialize all b^(m-1) suffixes
    if p.state_count > _MAX_STATES:
        raise CountingError(
            f"state space b^(m-1) = {p.b}^{p.m - 1} exceeds the engine "
            f"capacity of {_MAX_STATES} states"
        )


def _normalize_holes(packed: tuple[int, ...]) -> tuple[int, ...]:
    if len(packed) <= 1:
        return packed
    return tuple(sorted(set(packed)))


def _step_exact(counts: list, packed: tuple[int, ...], p: Params, total=sum) -> list:
    """One aggregated step on exact int counts, or on float states with
    total=math.fsum for the m = 2 column sum."""
    b, m = p.b, p.m
    if m == 1:
        return [(b - len(packed)) * counts[0]]
    if m == 2:
        s = total(counts)
        new = [s] * b
        for w in packed:
            new[w % b] -= counts[w // b]
        return new
    sub = b ** (m - 2)
    dim = sub * b
    new = [0] * dim
    i = 0
    for x in range(sub):
        # starting from the first term keeps int and float sums apart
        t = counts[x]
        for c in range(1, b):
            t += counts[c * sub + x]
        for _ in range(b):
            new[i] = t
            i += 1
    for w in packed:
        new[w % dim] -= counts[w // b]
    return new


def _step_log_np(counts: np.ndarray, packed, p: Params) -> np.ndarray:
    """Aggregated step on a wide float state, clamped at 0."""
    b, m = p.b, p.m
    dim = counts.shape[0]
    if m == 2:
        new = np.full(b, counts.sum())
    else:
        new = np.repeat(counts.reshape(b, -1).sum(axis=0), b)
    for w in packed:
        new[w % dim] -= counts[w // b]
    # exact counts are nonnegative; clamp float residue from cancellation
    np.maximum(new, 0.0, out=new)
    return new


# ---------------------------------------------------------------------------
# state vector API


@dataclass
class StateVector:
    """Exact survivor counts of length-k words, indexed by packed suffix."""

    params: Params
    k: int
    counts: list[int]

    def total(self) -> int:
        return sum(self.counts)


def initial_state(p: Params) -> StateVector:
    """All-ones state at k = m-1: every suffix is realized exactly once."""
    _check_capacity(p)
    return StateVector(params=p, k=p.m - 1, counts=[1] * p.state_count)


def advance_state(sv: StateVector, s: HoleSchedule) -> StateVector:
    """Extend survivors by one digit; completes the window at position
    k+1-m."""
    if s.params != sv.params:
        raise CountingError("schedule parameters differ from state parameters")
    if sv.k < sv.params.m - 1:
        raise CountingError(f"state at k={sv.k} is below the engine floor m-1")
    pos = sv.k + 1 - sv.params.m
    packed = _normalize_holes(s.hole_at_packed(pos))
    return StateVector(
        params=sv.params,
        k=sv.k + 1,
        counts=_step_exact(sv.counts, packed, sv.params),
    )


# ---------------------------------------------------------------------------
# counting drivers


def count_exact(s: HoleSchedule, k: int) -> int:
    """|Sigma_k| as an exact integer. For k < m every word survives."""
    p = s.params
    if not isinstance(k, int) or k < 0:
        raise CountingError(f"k must be an int >= 0, got {k!r}")
    if k < p.m:
        return p.b**k
    _check_capacity(p)
    counts = [1] * p.state_count
    for i in range(k - p.m + 1):
        counts = _step_exact(counts, _normalize_holes(s.hole_at_packed(i)), p)
    return sum(counts)


@dataclass
class LogSeries:
    """Float log-counts with an explicit rounding budget.

    logs[k] approximates ln |Sigma_k| for 0 <= k <= k_max; entries at and
    after an extinction are -inf and extinction_k records the first dead
    length.  drift_bound caps the accumulated rounding error of the final
    finite entry.
    """

    params: Params
    k_max: int
    logs: np.ndarray
    drift_bound: float
    extinction_k: int | None = None


def count_series(s: HoleSchedule, k_max: int, mode: str = "exact"):
    """Counts for every length 1..k_max.

    mode "exact" returns a list indexed by k (entry 0 is 1, the empty word)
    using integer arithmetic.  mode "log" returns a LogSeries.
    """
    if mode == "exact":
        return _series_exact(s, k_max)
    if mode == "log":
        return _series_log(s, k_max)
    raise CountingError(f"unknown mode {mode!r}")


def _series_exact(s: HoleSchedule, k_max: int) -> list[int]:
    p = s.params
    if not isinstance(k_max, int) or k_max < 1:
        raise CountingError(f"k_max must be an int >= 1, got {k_max!r}")
    series = [p.b**k for k in range(min(k_max, p.m - 1) + 1)]
    if k_max < p.m:
        return series
    _check_capacity(p)
    counts = [1] * p.state_count
    for i in range(k_max - p.m + 1):
        counts = _step_exact(counts, _normalize_holes(s.hole_at_packed(i)), p)
        series.append(sum(counts))
    return series


def _series_log(s: HoleSchedule, k_max: int) -> LogSeries:
    p = s.params
    if not isinstance(k_max, int) or k_max < 1:
        raise CountingError(f"k_max must be an int >= 1, got {k_max!r}")
    logb = math.log(p.b)
    logs = np.full(k_max + 1, -math.inf)
    top = min(k_max, p.m - 1)
    logs[: top + 1] = np.arange(top + 1) * logb
    if k_max < p.m:
        return LogSeries(params=p, k_max=k_max, logs=logs, drift_bound=0.0)
    _check_capacity(p)
    dim = p.state_count
    use_np = dim >= _NUMPY_DIM_THRESHOLD
    state = np.ones(dim) if use_np else [1.0] * dim
    log_scale = 0.0
    comp = 0.0  # Kahan compensation for the scale accumulator
    scale_peak = 0.0
    steps = 0
    extinction_k = None
    fsum, log = math.fsum, math.log  # local names keep the per-step cost flat
    for i in range(k_max - p.m + 1):
        packed = _normalize_holes(s.hole_at_packed(i))
        if use_np:
            new = _step_log_np(state, packed, p)
            mx = float(new.max())
        else:
            new = _step_exact(state, packed, p, fsum)
            mx = max(new)
        steps += 1
        if mx <= 0.0:
            extinction_k = p.m + i
            break
        # renormalize by the maximum; the scale goes to the accumulator
        if use_np:
            new /= mx
            state = new
            total = float(np.sum(state))
        elif dim > 1:
            inv = 1.0 / mx
            # exact counts are nonnegative; clamp float residue from cancellation
            state = [v * inv if v > 0.0 else 0.0 for v in new]
            total = fsum(state)
        else:
            # m = 1: mx * (1 / mx) can round below 1.0, so reset the state
            state = [1.0]
            total = 1.0
        y = log(mx) - comp
        t = log_scale + y
        comp = (t - log_scale) - y
        log_scale = t
        if abs(log_scale) > scale_peak:
            scale_peak = abs(log_scale)
        logs[p.m + i] = log_scale + log(total)
    return LogSeries(
        params=p,
        k_max=k_max,
        logs=logs,
        drift_bound=DRIFT_PER_STEP * steps + 4.0 * EPS * scale_peak,
        extinction_k=extinction_k,
    )


def count_from_prefix(s: HoleSchedule, prefix: Word, k: int) -> int:
    """Number of length-k survivors extending the given survivor prefix."""
    p = s.params
    prefix = tuple(prefix)
    check_word(prefix, p)
    j = len(prefix)
    if j < p.m:
        raise CountingError(f"prefix length {j} is below the hole length m={p.m}")
    if not isinstance(k, int) or k < j:
        raise CountingError(f"target length k={k!r} must be >= prefix length {j}")
    for i in range(j - p.m + 1):
        window = pack_word(prefix[i : i + p.m], p)
        if window in s.hole_at_packed(i):
            raise CountingError(
                f"prefix is not a survivor: window at position {i} is a hole"
            )
    if p.m == 1:
        counts = [1]
    else:
        _check_capacity(p)
        counts = [0] * p.state_count
        counts[pack_word(prefix[j - p.m + 1 :], p)] = 1
    for i in range(j - p.m + 1, k - p.m + 1):
        counts = _step_exact(counts, _normalize_holes(s.hole_at_packed(i)), p)
    return sum(counts)


# ---------------------------------------------------------------------------
# adjacency matrices and the product norm


@dataclass(frozen=True)
class BitMatrix:
    """De Bruijn adjacency with forbidden edges removed, dimension b^(m-1).

    Entry (u, v) is 1 iff state u can shift into state v and the completed
    word (u followed by the last digit of v) is not forbidden.  Each distinct
    forbidden word removes exactly one edge, stored as the (src, dst) pair.
    """

    params: Params
    removed: frozenset[tuple[int, int]]

    @property
    def dim(self) -> int:
        return self.params.state_count

    def entry(self, u: int, v: int) -> int:
        b, m = self.params.b, self.params.m
        if not (0 <= u < self.dim and 0 <= v < self.dim):
            raise CountingError(f"state out of range: ({u}, {v})")
        if u % (b ** (m - 2)) != v // b:
            return 0
        return 0 if (u, v) in self.removed else 1

    def to_dense(self) -> list[list[int]]:
        if self.dim > 8192:
            raise CountingError(f"dense form of a {self.dim}x{self.dim} matrix refused")
        b, m = self.params.b, self.params.m
        sub = b ** (m - 2)
        dense = [[0] * self.dim for _ in range(self.dim)]
        for u in range(self.dim):
            base = (u % sub) * b
            for a in range(b):
                v = base + a
                if (u, v) not in self.removed:
                    dense[u][v] = 1
        return dense

    def vec_mul(self, vec: list[int]) -> list[int]:
        """Row vector times matrix, via the explicit dense entries."""
        if len(vec) != self.dim:
            raise CountingError(f"vector length {len(vec)} != dim {self.dim}")
        dense = self.to_dense()
        out = [0] * self.dim
        for u, x in enumerate(vec):
            if x:
                row = dense[u]
                for v in range(self.dim):
                    if row[v]:
                        out[v] += x
        return out


def adjacency_matrix(p: Params, words) -> BitMatrix:
    """BitMatrix for one word or an iterable of words (deduplicated).

    m = 1 is rejected: its transition graph has parallel edges and cannot be
    expressed as a 0/1 matrix; use count_exact, which handles m = 1 directly.
    """
    if p.m < 2:
        raise CountingError("adjacency matrices need m >= 2")
    words = list(words)
    if words and isinstance(words[0], int):
        words = [tuple(words)]
    removed = set()
    for w in words:
        w = tuple(w)
        check_word(w, p, p.m)
        removed.add((pack_word(w[:-1], p), pack_word(w[1:], p)))
    if not removed:
        raise CountingError("at least one forbidden word is required")
    return BitMatrix(params=p, removed=frozenset(removed))


def product_norm(p: Params, blocks) -> int:
    """Entrywise sum norm of the adjacency product for the given hole words.

    Equals the exact survivor count at length len(blocks) + m - 1 for any
    schedule beginning with these holes.  Computed with explicit dense
    matrix action, independent of the aggregated stepping engine.
    """
    blocks = [tuple(w) for w in blocks]
    if not blocks:
        raise CountingError("need at least one block")
    vec = [1] * p.state_count
    for w in blocks:
        vec = adjacency_matrix(p, w).vec_mul(vec)
    return sum(vec)


# ---------------------------------------------------------------------------
# count recursion vectors


@dataclass(frozen=True)
class NVector:
    """m consecutive survivor counts (|Sigma_{k+m}|, ..., |Sigma_{k+1}|).

    Valid vectors live in the cone where each count is between (b-1) and b
    times the next shorter one.
    """

    params: Params
    entries: tuple[int, ...]

    def __post_init__(self):
        m, b = self.params.m, self.params.b
        if len(self.entries) != m:
            raise CountingError(f"need {m} entries, got {len(self.entries)}")
        for v in self.entries:
            if not isinstance(v, int) or v <= 0:
                raise CountingError(f"counts must be positive ints, got {v!r}")
        for i in range(m - 1):
            longer, shorter = self.entries[i], self.entries[i + 1]
            if not (b - 1) * shorter <= longer <= b * shorter:
                raise CountingError(
                    f"entries leave the growth cone at index {i}: "
                    f"{longer} vs {shorter}"
                )


def nvec_from_series(p: Params, series: list[int], k: int) -> NVector:
    if k + p.m >= len(series):
        raise CountingError("series too short for the requested block")
    return NVector(params=p, entries=tuple(series[k + p.m - i] for i in range(p.m)))


def nvec_step(nv: NVector, cls: PatternClass) -> NVector:
    """Advance one position: PO and TD positions act by the exact structure
    matrices on the count block."""
    from .spectra import struct_matrix_a, struct_matrix_b

    if isinstance(cls, str):
        cls = PatternClass(cls)
    if cls is PatternClass.PO:
        mat = struct_matrix_a(nv.params)
    elif cls is PatternClass.TD:
        mat = struct_matrix_b(nv.params)
    else:
        raise CountingError("only PO and TD positions have a one-step matrix action")
    m = nv.params.m
    new = tuple(
        sum(nv.entries[i] * mat[i][j] for i in range(m)) for j in range(m)
    )
    return NVector(params=nv.params, entries=new)
