"""Hole schedules: rules assigning forbidden words to positions.

A schedule maps each position k >= 0 to a nonempty set of length-m words that
may not occur in a survivor word at offset k.  Position classes compare the
hole at k with the holes at k-1, ..., k-min(k, m-1):

* progressive overlap (PO): every comparison window agrees,
* totally distinct (TD): every comparison window disagrees,
* neither otherwise.

Generators construct schedules whose positions realize a target pattern from
a deterministic digit stream.  Classification of generated schedules is
always re-derivable through classify_position; generators only promise what
their `scheduled_class` advertises.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

from .model import Params, Word, check_word, pack_word, unpack_word

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class ScheduleError(ValueError):
    """Invalid schedule construction or query."""


class PatternClass(enum.Enum):
    PO = "po"
    TD = "td"
    NEITHER = "neither"


# ---------------------------------------------------------------------------
# digit streams


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; fixed for reproducibility across versions."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class CycleStream:
    """Explicit digit list repeated forever."""

    digits: tuple[int, ...]

    def digit(self, i: int) -> int:
        return self.digits[i % len(self.digits)]


@dataclass(frozen=True)
class RngStream:
    """SplitMix64 digit stream: digit(i) = mix64(seed + (i+1)*gamma) mod b.

    The i-th output is a pure function of (seed, i), so random access is O(1)
    and two instances with equal fields agree everywhere.
    """

    seed: int
    b: int

    def digit(self, i: int) -> int:
        return _mix64((self.seed + (i + 1) * _GAMMA) & _MASK64) % self.b


DigitStream = CycleStream | RngStream


def make_stream(spec, p: Params) -> DigitStream:
    """Build a stream from a digit tuple/list or ("rng", seed)."""
    if isinstance(spec, (CycleStream, RngStream)):
        return spec
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "rng":
        seed = spec[1]
        if not isinstance(seed, int) or seed < 0:
            raise ScheduleError(f"rng seed must be a nonnegative int, got {seed!r}")
        return RngStream(seed=seed & _MASK64, b=p.b)
    digits = tuple(spec)
    if not digits:
        raise ScheduleError("empty seed digit list")
    for d in digits:
        if not isinstance(d, int) or not 0 <= d < p.b:
            raise ScheduleError(f"seed digit {d!r} out of range for b={p.b}")
    return CycleStream(digits=digits)


# ---------------------------------------------------------------------------
# p/q run-length schedules


def strict_ceil(x: Fraction) -> int:
    """Smallest integer strictly larger than x (so strict_ceil(3) == 4)."""
    return floor(x) + 1


class _PQCache:
    __slots__ = ("lock", "p", "q", "sums")

    def __init__(self):
        self.lock = threading.Lock()
        self.p: list[int] = []
        self.q: list[int] = []
        self.sums: list[int] = [0]  # sums[n] = sum_{i<=n} (p_i + q_i)


@dataclass(frozen=True, eq=True)
class PQSchedule:
    """Run lengths p_n (PO) and q_n (TD) per cycle, with gap handling.

    gap_mode "none": cycles of length p+q tile the positions exactly (fixed
    p, q only).  gap_mode "m-gap": each cycle is followed by m unconstrained
    window positions, and ell(n) = sum_{i<=n}(p_i+q_i) + m*n marks cycle ends.
    """

    gap_mode: str
    m: int
    fixed: tuple[int, int] | None = None
    targets: tuple[Fraction, Fraction, int] | None = None  # (s, t, p1)
    _cache: _PQCache = field(
        default_factory=_PQCache, compare=False, repr=False, hash=False
    )

    def __post_init__(self):
        if self.gap_mode not in ("none", "m-gap"):
            raise ScheduleError(f"bad gap_mode {self.gap_mode!r}")
        if (self.fixed is None) == (self.targets is None):
            raise ScheduleError("exactly one of fixed / targets must be set")
        if self.fixed is not None:
            pp, qq = self.fixed
            if pp < 1 or qq < 1:
                raise ScheduleError(f"fixed runs must be >= 1, got {self.fixed}")
        if self.targets is not None and self.gap_mode != "m-gap":
            raise ScheduleError("generated run lengths require gap_mode='m-gap'")
        if self.m < 1:
            raise ScheduleError(f"m must be >= 1, got {self.m}")

    # -- sequence access, 1-indexed ------------------------------------

    def p(self, n: int) -> int:
        if n < 1:
            raise ScheduleError(f"run index must be >= 1, got {n}")
        if self.fixed is not None:
            return self.fixed[0]
        self._extend(n)
        return self._cache.p[n - 1]

    def q(self, n: int) -> int:
        if n < 1:
            raise ScheduleError(f"run index must be >= 1, got {n}")
        if self.fixed is not None:
            return self.fixed[1]
        self._extend(n)
        return self._cache.q[n - 1]

    def run_sum(self, n: int) -> int:
        """sum_{i<=n} (p_i + q_i); run_sum(0) = 0."""
        if n < 0:
            raise ScheduleError(f"run index must be >= 0, got {n}")
        if self.fixed is not None:
            return n * (self.fixed[0] + self.fixed[1])
        self._extend(n)
        return self._cache.sums[n]

    def ell(self, n: int) -> int:
        """Cycle boundary: position of the last slot in cycle n."""
        gap = self.m if self.gap_mode == "m-gap" else 0
        return self.run_sum(n) + gap * n

    def cycle_of(self, k: int) -> int:
        """The n with ell(n) < k <= ell(n+1), for k >= 1."""
        if k < 1:
            raise ScheduleError(f"position must be >= 1, got {k}")
        if self.fixed is not None:
            gap = self.m if self.gap_mode == "m-gap" else 0
            return (k - 1) // (self.fixed[0] + self.fixed[1] + gap)
        hi = max(1, len(self._cache.p))
        while self.ell(hi) < k:
            hi *= 2
        lo = 0  # ell(0) = 0 < k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.ell(mid) < k:
                lo = mid
            else:
                hi = mid
        return lo

    # -- generation from (s, t) targets --------------------------------

    def _extend(self, n: int) -> None:
        if n <= len(self._cache.p):
            return
        s, t, p1 = self.targets
        with self._cache.lock:
            cp, cq, sums = self._cache.p, self._cache.q, self._cache.sums
            while len(cp) < n:
                i = len(cp) + 1
                if s == t:
                    # balanced case: runs grow linearly
                    pi = strict_ceil((1 - t) * Fraction(i))
                    qi = strict_ceil(t * Fraction(i))
                else:
                    if i == 1:
                        pi = p1
                    else:
                        s_prev = Fraction(i - 1) if s == 0 else min(t / s - 1, Fraction(i - 1))
                        pi = strict_ceil(s_prev * sums[-1])
                    t_i = Fraction(i) if t == 1 else min(t / (1 - t), Fraction(i))
                    qi = strict_ceil(t_i * pi)
                cp.append(pi)
                cq.append(qi)
                sums.append(sums[-1] + pi + qi)


def build_pq_schedule(m: int, s, t, p1: int = 1) -> PQSchedule:
    """Run-length schedule whose PO/TD proportions converge to the targets.

    0 <= s <= t <= 1 as exact rationals.  With s == t both run lengths grow
    linearly; with s < t the PO runs grow geometrically against the history
    and p1 seeds the growth.  Ceilings are strict (an integer argument rounds
    up), which keeps every run length positive, including at s = 0 or t = 1.
    """
    s, t = Fraction(s), Fraction(t)
    if not 0 <= s <= t <= 1:
        raise ScheduleError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
    if not isinstance(p1, int) or p1 < 1:
        raise ScheduleError(f"p1 must be a positive int, got {p1!r}")
    return PQSchedule(gap_mode="m-gap", m=m, targets=(s, t, p1))


# ---------------------------------------------------------------------------
# schedules


def _smallest_avoiding(d: int) -> int:
    # smallest digit different from d; b >= 2 guarantees one exists
    return 0 if d != 0 else 1


class HoleSchedule:
    """Common behaviour; subclasses provide params and hole_at_packed."""

    params: Params
    kind: str

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        raise NotImplementedError

    def hole_at(self, k: int) -> tuple[Word, ...]:
        m = self.params.m
        return tuple(unpack_word(v, m, self.params) for v in self.hole_at_packed(k))

    def scheduled_class(self, k: int) -> str | None:
        """What the generator intended at k; None when nothing is promised."""
        return None

    def _check_position(self, k: int) -> None:
        if not isinstance(k, int) or k < 0:
            raise ScheduleError(f"position must be an int >= 0, got {k!r}")

    def _window_packed(self, end: int) -> int:
        """Packed word of the m stream digits ending at index end, zero padded
        on the left for negative indices."""
        b, m = self.params.b, self.params.m
        v = 0
        for i in range(end - m + 1, end + 1):
            v = v * b + (self.stream.digit(i) if i >= 0 else 0)
        return v

    def _avoiding_packed(self, k: int, v: int, first: int) -> tuple[int, ...]:
        """Hole at k built on the packed leading digits v: digits first..m-1
        avoid the last digits of the holes at k-m+first..k-1 (stream digits,
        zero padded below index 0), and the last digit is stream digit k."""
        b = self.params.b
        for i in range(k - self.params.m + first, k):
            v = v * b + _smallest_avoiding(self.stream.digit(i) if i >= 0 else 0)
        return (v * b + self.stream.digit(k),)


@dataclass(frozen=True)
class ProgressiveOverlap(HoleSchedule):
    """Sliding window over the stream: the hole at k is digits k..k+m-1.

    Every position k >= 1 is PO; position 0 is the initial window.
    """

    params: Params
    stream: DigitStream
    kind: str = field(default="po", init=False)

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        self._check_position(k)
        b = self.params.b
        v = 0
        for i in range(k, k + self.params.m):
            v = v * b + self.stream.digit(i)
        return (v,)

    def scheduled_class(self, k: int) -> str | None:
        return "window" if k == 0 else "po"


@dataclass(frozen=True)
class TotallyDistinct(HoleSchedule):
    """Every position k >= 1 is TD.

    The last digit of the hole at k is stream digit k.  Digit j < m avoids
    the last digit of the hole at k-m+j (which is stream digit k-m+j, zero
    padded below index 0), taking the smallest admissible digit.  Position 0
    is the zero-padded window ending at stream digit 0.
    """

    params: Params
    stream: DigitStream
    kind: str = field(default="td", init=False)

    def __post_init__(self):
        if self.params.b < 3:
            raise ScheduleError(
                "totally distinct generation needs b >= 3; with b = 2 the "
                "avoidance choice can be forced into conflict"
            )

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        self._check_position(k)
        if k == 0:
            return (self._window_packed(0),)
        return self._avoiding_packed(k, 0, 1)

    def scheduled_class(self, k: int) -> str | None:
        return "window" if k == 0 else "td"


@dataclass(frozen=True)
class LpqSchedule(HoleSchedule):
    """Fixed alternation without gaps: p PO positions then q TD positions.

    Holes track the stream one step ahead: PO positions copy the window
    digits k+1..k+m (as a hole word this is digits k..k+m-1 of the 0-based
    stream), TD positions replace the leading digit with the smallest digit
    avoiding it and keep the rest of the window.
    """

    params: Params
    pq: PQSchedule
    stream: DigitStream
    kind: str = field(default="lpq", init=False)

    def __post_init__(self):
        if self.params.b < 3:
            raise ScheduleError("p/q alternation generation needs b >= 3")
        if self.pq.gap_mode != "none" or self.pq.fixed is None:
            raise ScheduleError("LpqSchedule needs a fixed PQSchedule with gap_mode='none'")
        if self.pq.m != self.params.m:
            raise ScheduleError("PQSchedule m does not match params")

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        self._check_position(k)
        b, m = self.params.b, self.params.m
        if k == 0 or self._is_po(k):
            v = 0
            for i in range(k, k + m):
                v = v * b + self.stream.digit(i)
            return (v,)
        v = _smallest_avoiding(self.stream.digit(k))
        for i in range(k + 1, k + m):
            v = v * b + self.stream.digit(i)
        return (v,)

    def _is_po(self, k: int) -> bool:
        p, q = self.pq.fixed
        return (k - 1) % (p + q) < p

    def scheduled_class(self, k: int) -> str | None:
        if k == 0:
            return "window"
        return "po" if self._is_po(k) else "td"


@dataclass(frozen=True)
class FamilySchedule(HoleSchedule):
    """Growing alternation with an m-position window gap after each cycle.

    Cycle n covers positions ell(n) < k <= ell(n+1): first p_{n+1} PO
    positions, then q_{n+1} TD positions, then m window positions that reseed
    the overlap structure.  Windows end at the current stream digit; TD
    positions avoid the last digits of the previous m-1 holes, all of which
    equal their stream digits, so the whole rule reads off the stream.
    """

    params: Params
    pq: PQSchedule
    stream: DigitStream
    kind: str = field(default="family", init=False)

    def __post_init__(self):
        if self.params.b < 3:
            raise ScheduleError("family generation needs b >= 3")
        if self.pq.gap_mode != "m-gap":
            raise ScheduleError("FamilySchedule needs gap_mode='m-gap'")
        if self.pq.m != self.params.m:
            raise ScheduleError("PQSchedule m does not match params")

    def scheduled_class(self, k: int) -> str | None:
        self._check_position(k)
        if k == 0:
            return "window"
        n = self.pq.cycle_of(k)
        start = self.pq.ell(n)
        if k <= start + self.pq.p(n + 1):
            return "po"
        if k <= start + self.pq.p(n + 1) + self.pq.q(n + 1):
            return "td"
        return "window"

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        cls = self.scheduled_class(k)
        if cls != "td":
            return (self._window_packed(k),)
        return self._avoiding_packed(k, 0, 1)


@dataclass(frozen=True)
class MixedSchedule(HoleSchedule):
    """First digit copies m steps back, the rest stay distinct (m >= 3).

    For k >= m-1 the hole's first digit equals the last digit of the hole at
    k-m+1, digits 2..m-1 avoid the corresponding earlier last digits, and the
    last digit is stream digit k.  Positions below m-1 are seed windows.
    Every constrained position classifies as neither PO nor TD.
    """

    params: Params
    stream: DigitStream
    kind: str = field(default="mixed", init=False)

    def __post_init__(self):
        if self.params.m < 3:
            raise ScheduleError("mixed pattern needs m >= 3")
        if self.params.b < 3:
            raise ScheduleError("mixed generation needs b >= 3")

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        self._check_position(k)
        m = self.params.m
        if k < m - 1:
            return (self._window_packed(k),)
        return self._avoiding_packed(k, self.stream.digit(k - m + 1), 2)

    def scheduled_class(self, k: int) -> str | None:
        return "window" if k < self.params.m - 1 else "mixed"


@dataclass(frozen=True)
class PeriodicSchedule(HoleSchedule):
    """Finite word list cycled forever, one hole per position."""

    params: Params
    words: tuple[Word, ...]
    kind: str = field(default="periodic", init=False)

    def __post_init__(self):
        if not self.words:
            raise ScheduleError("periodic schedule needs at least one word")
        for w in self.words:
            check_word(w, self.params, self.params.m)
        packed = tuple(pack_word(w, self.params) for w in self.words)
        object.__setattr__(self, "_packed", packed)

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        self._check_position(k)
        return (self._packed[k % len(self._packed)],)


@dataclass(frozen=True)
class ExplicitSchedule(HoleSchedule):
    """Explicit hole sets per position with a periodic tail.

    Positions past the end of the list repeat the suffix starting at
    tail_start.
    """

    params: Params
    hole_sets: tuple[tuple[Word, ...], ...]
    tail_start: int = 0
    kind: str = field(default="explicit", init=False)

    def __post_init__(self):
        if not self.hole_sets:
            raise ScheduleError("explicit schedule needs at least one hole set")
        if not 0 <= self.tail_start < len(self.hole_sets):
            raise ScheduleError(
                f"tail_start {self.tail_start} outside 0..{len(self.hole_sets) - 1}"
            )
        packed_sets = []
        norm_sets = []
        for ws in self.hole_sets:
            if not ws:
                raise ScheduleError("each position needs at least one hole")
            for w in ws:
                check_word(w, self.params, self.params.m)
            uniq = sorted(set(ws))
            norm_sets.append(tuple(uniq))
            packed_sets.append(tuple(pack_word(w, self.params) for w in uniq))
        object.__setattr__(self, "hole_sets", tuple(norm_sets))
        object.__setattr__(self, "_packed_sets", tuple(packed_sets))

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        self._check_position(k)
        n = len(self._packed_sets)
        if k < n:
            return self._packed_sets[k]
        period = n - self.tail_start
        return self._packed_sets[self.tail_start + (k - self.tail_start) % period]


@dataclass(frozen=True)
class MultiSchedule(HoleSchedule):
    """Union of constituent schedules: several holes per position."""

    params: Params
    children: tuple[HoleSchedule, ...]
    kind: str = field(default="multi", init=False)

    def __post_init__(self):
        if len(self.children) < 1:
            raise ScheduleError("multi schedule needs at least one constituent")
        for c in self.children:
            if c.params != self.params:
                raise ScheduleError("constituent parameters differ")

    def hole_at_packed(self, k: int) -> tuple[int, ...]:
        vals: set[int] = set()
        for c in self.children:
            vals.update(c.hole_at_packed(k))
        return tuple(sorted(vals))


# ---------------------------------------------------------------------------
# classification


def _single_hole(s: HoleSchedule, k: int) -> Word:
    ws = s.hole_at(k)
    if len(ws) != 1:
        raise ScheduleError(
            f"position classes need a single hole per position; got {len(ws)} at k={k}"
        )
    return ws[0]


def classify_position(s: HoleSchedule, k: int) -> PatternClass:
    """Compare the hole at k against its m-1 predecessors.

    PO requires prefix/suffix agreement at every offset j in 1..min(k, m-1),
    TD requires disagreement at every offset.  The two cannot coincide for
    m >= 2 because the offset j=1 comparison always exists.
    """
    if not isinstance(k, int) or k < 1:
        raise ScheduleError(f"position classes are defined for k >= 1, got {k!r}")
    m = s.params.m
    if m < 2:
        raise ScheduleError(
            "position classes are undefined for m = 1: there are no overlap "
            "comparisons to make"
        )
    wk = _single_hole(s, k)
    all_eq = True
    all_ne = True
    for j in range(1, min(k, m - 1) + 1):
        wkj = _single_hole(s, k - j)
        if wk[: m - j] == wkj[j:]:
            all_ne = False
        else:
            all_eq = False
        if not all_eq and not all_ne:
            return PatternClass.NEITHER
    if all_eq:
        return PatternClass.PO
    return PatternClass.TD


def pattern_density(s: HoleSchedule, n: int) -> tuple[Fraction, Fraction]:
    """Exact PO and TD densities over positions 1..n."""
    if n < 1:
        raise ScheduleError(f"need n >= 1, got {n}")
    po = td = 0
    for k in range(1, n + 1):
        c = classify_position(s, k)
        if c is PatternClass.PO:
            po += 1
        elif c is PatternClass.TD:
            td += 1
    return Fraction(po, n), Fraction(td, n)


# ---------------------------------------------------------------------------
# convenience constructors


def gen_progressive(p: Params, seed) -> ProgressiveOverlap:
    return ProgressiveOverlap(params=p, stream=make_stream(seed, p))


def gen_totally_distinct(p: Params, seed) -> TotallyDistinct:
    return TotallyDistinct(params=p, stream=make_stream(seed, p))


def gen_lpq(p: Params, pp: int, qq: int, seed) -> LpqSchedule:
    pq = PQSchedule(gap_mode="none", m=p.m, fixed=(pp, qq))
    return LpqSchedule(params=p, pq=pq, stream=make_stream(seed, p))


def gen_family(p: Params, pq: PQSchedule, seed) -> FamilySchedule:
    return FamilySchedule(params=p, pq=pq, stream=make_stream(seed, p))


def gen_mixed(p: Params, seed) -> MixedSchedule:
    return MixedSchedule(params=p, stream=make_stream(seed, p))


def from_words(p: Params, words) -> PeriodicSchedule:
    return PeriodicSchedule(params=p, words=tuple(tuple(w) for w in words))
