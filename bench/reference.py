"""Independent reference routes for checking holeshift outputs.

Nothing here calls into holeshift.  Holes are rebuilt from the schedule rules
with vectorized numpy (SplitMix64 in wrapping uint64 arithmetic), survivor
counts come from a literal edge scan of the de Bruijn graph (every word w
moves state w // b to state w mod b^(m-1) unless w is a hole), and growth
rates are located with numpy and certified by an exact rational sign change.
The package instead aggregates predecessor sums and bisects, so agreement
between the two is evidence, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EPS = 2.220446049250313e-16
_GAMMA = 0x9E3779B97F4A7C15


def format_word(word) -> str:
    return "".join(str(d) if d < 10 else f"[{d}]" for d in word)


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Sched:
    """One schedule as the benchmark generates it.

    seed is a digit tuple (cycled stream) or an int (rng stream).  lpq uses
    p, q; family uses the run-length targets s, t, p1; periodic uses words;
    multi uses children.
    """

    kind: str
    b: int
    m: int
    seed: tuple | int | None = None
    p: int = 0
    q: int = 0
    s: Fraction | None = None
    t: Fraction | None = None
    p1: int = 1
    words: tuple = ()
    children: tuple = ()

    def descriptor(self) -> str:
        if self.kind == "multi":
            return "multi:" + ";".join(f"({c.descriptor()})" for c in self.children)
        if self.kind == "periodic":
            return "periodic:" + "|".join(format_word(w) for w in self.words)
        seed = f"rng:{self.seed}" if isinstance(self.seed, int) else format_word(self.seed)
        if self.kind == "lpq":
            return f"lpq:p={self.p},q={self.q},seed={seed}"
        if self.kind == "family":
            return f"family:s={self.s},t={self.t},p1={self.p1},seed={seed}"
        return f"{self.kind}:seed={seed}"

    @property
    def states(self) -> int:
        return self.b ** (self.m - 1)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_digits(sched: Sched, n: int) -> np.ndarray:
    """Stream digits 0..n-1."""
    if isinstance(sched.seed, int):
        i = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(sched.seed) + i * np.uint64(_GAMMA)
        return (_mix64(z) % np.uint64(sched.b)).astype(np.int64)
    digits = np.array(sched.seed, dtype=np.int64)
    return digits[np.arange(n) % len(digits)]


def _windows(d: np.ndarray, b: int, width: int, count: int) -> np.ndarray:
    """Packed words d[k..k+width-1] for k < count."""
    v = np.zeros(count, dtype=np.int64)
    for j in range(width):
        v = v * b + d[j : j + count]
    return v


def pq_runs(s: Fraction, t: Fraction, p1: int):
    """Run lengths (p_n, q_n) for n = 1, 2, ... from the run-length growth rule."""
    total, i = 0, 0
    while True:
        i += 1
        if s == t:
            pi = math.floor((1 - t) * i) + 1
            qi = math.floor(t * i) + 1
        else:
            if i == 1:
                pi = p1
            else:
                s_prev = Fraction(i - 1) if s == 0 else min(t / s - 1, Fraction(i - 1))
                pi = math.floor(s_prev * total) + 1
            t_i = Fraction(i) if t == 1 else min(t / (1 - t), Fraction(i))
            qi = math.floor(t_i * pi) + 1
        total += pi + qi
        yield pi, qi


def family_classes(sched: Sched, count: int) -> list[str]:
    """Scheduled class ("po", "td" or "window") of positions 0..count-1.

    Cycle n covers the positions after ell(n): p_{n+1} PO, q_{n+1} TD, then
    m window positions.
    """
    out = ["window"] * count
    start = 0
    runs = pq_runs(sched.s, sched.t, sched.p1)
    while start + 1 < count:
        pn, qn = next(runs)
        for k in range(start + 1, min(start + pn + qn, count - 1) + 1):
            out[k] = "po" if k <= start + pn else "td"
        start += pn + qn + sched.m
    return out


def scheduled_classes(sched: Sched, count: int) -> list[str]:
    if sched.kind == "family":
        return family_classes(sched, count)
    if sched.kind == "lpq":
        period = sched.p + sched.q
        return ["window"] + ["po" if (k - 1) % period < sched.p else "td" for k in range(1, count)]
    if sched.kind in ("po", "td"):
        return ["window"] + [sched.kind] * (count - 1)
    raise ValueError(f"no scheduled classes for {sched.kind}")


def holes(sched: Sched, count: int) -> np.ndarray:
    """Packed holes of positions 0..count-1, shape (count, holes per position)."""
    b, m = sched.b, sched.m
    if sched.kind == "multi":
        return np.concatenate([holes(c, count) for c in sched.children], axis=1)
    if sched.kind == "periodic":
        packed = np.array([_pack(w, b) for w in sched.words])
        return packed[np.arange(count) % len(packed)].reshape(count, 1)
    d = stream_digits(sched, count + m)
    ahead = _windows(d, b, m, count)  # digits k..k+m-1
    padded = np.concatenate([np.zeros(m - 1, dtype=np.int64), d])
    ending = _windows(padded, b, m, count)  # digits k-m+1..k, zero padded
    avoid = (padded == 0).astype(np.int64)  # smallest digit differing from each
    # digits j = 1..m-1 avoid stream digit k-m+j, which sits at padded[k+j-1]
    td = _windows(avoid, b, m - 1, count) * b + d[:count]
    top = b ** (m - 1)
    if sched.kind == "po":
        out = ahead
    elif sched.kind == "td":
        out = td
        out[0] = ending[0]
    elif sched.kind == "lpq":
        k = np.arange(count)
        is_po = (k == 0) | ((k - 1) % (sched.p + sched.q) < sched.p)
        out = np.where(is_po, ahead, ahead + (avoid[m - 1 : m - 1 + count] - d[:count]) * top)
    elif sched.kind == "family":
        classes = np.array(family_classes(sched, count))
        out = np.where(classes == "td", td, ending)
    elif sched.kind == "mixed":
        # first digit copies stream digit k-m+1, the middle avoids, the last is d[k]
        out = td + (padded[:count] - avoid[:count]) * top
        out[: m - 1] = ending[: m - 1]
    else:
        raise ValueError(f"unknown schedule kind {sched.kind!r}")
    return out.reshape(count, 1)


def _pack(word, b: int) -> int:
    v = 0
    for x in word:
        v = v * b + x
    return v


def unpack(v: int, b: int, m: int) -> tuple[int, ...]:
    digits = []
    for _ in range(m):
        v, r = divmod(v, b)
        digits.append(r)
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# counting by edge scan


def exact_series(sched: Sched, k_max: int, start: tuple | None = None) -> list[int]:
    """Survivor counts for lengths 0..k_max, exact.

    With a survivor prefix `start`, counts continuations of it instead; the
    entries below len(start) are then meaningless and set to 0.
    """
    b, m = sched.b, sched.m
    dim = b ** (m - 1)
    if start is None:
        series = [b**k for k in range(min(k_max, m - 1) + 1)]
        counts = [1] * dim
        first = 0
    else:
        series = [0] * len(start)
        counts = [0] * dim
        counts[_pack(start[len(start) - m + 1 :], b)] = 1
        first = len(start) - m + 1
    if k_max < m:
        return series[: k_max + 1]
    hs = holes(sched, k_max - m + 1)
    if start is not None:
        for i in range(first):
            if _pack(start[i : i + m], b) in hs[i]:
                raise ValueError("prefix is not a survivor")
        series.append(1)  # the prefix itself, length len(start)
    edges = [(w, w // b, w % dim) for w in range(b * dim)]
    for i in range(first, k_max - m + 1):
        banned = set(hs[i].tolist())
        new = [0] * dim
        for w, src, dst in edges:
            if w not in banned:
                new[dst] += counts[src]
        counts = new
        series.append(sum(counts))
    return series


def log_series(sched: Sched, k_max: int) -> tuple[np.ndarray, float]:
    """ln |Sigma_k| for k = 0..k_max in floats, with an error bound.

    The edge scan only adds nonnegative numbers, so each step costs at most
    (b + 3) roundings of relative size eps per entry; the scale accumulator
    is compensated.
    """
    b, m = sched.b, sched.m
    dim = b ** (m - 1)
    logs = np.arange(k_max + 1) * math.log(b)
    if k_max < m:
        return logs, 0.0
    steps = k_max - m + 1
    hs = holes(sched, steps)
    src = np.arange(b * dim) // b
    state = np.ones(dim)
    scale = comp = 0.0
    incs = np.empty(steps)
    totals = np.empty(steps)
    for i in range(steps):
        flow = state[src]
        flow[hs[i]] = 0.0
        new = flow.reshape(b, dim).sum(axis=0)
        mx = new.max()
        state = new / mx
        y = math.log(mx) - comp
        t = scale + y
        comp = (t - scale) - y
        scale = t
        incs[i] = scale
        totals[i] = state.sum()
    logs[m:] = incs + np.log(totals)
    bound = steps * (b + 3) * EPS + 4 * EPS * abs(scale)
    return logs, bound


# ---------------------------------------------------------------------------
# growth rates


def growth_poly(kind: str, b: int, m: int) -> tuple[int, ...]:
    if kind == "lambda":
        return (1,) + (-(b - 1),) * m
    if kind == "eta":
        return (1, -b) + (0,) * (m - 2) + (1,)
    if kind == "gamma":
        return (1, -b) + (0,) * (m - 3) + (1, -(b - 1))
    raise ValueError(kind)


def _eval(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in poly:
        acc = acc * x + c
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def certify_root(poly, value: float, lo: float, hi: float, rel: float = 1e-13) -> bool:
    """True when the polynomial changes sign, in exact arithmetic, inside
    [value(1-rel), value(1+rel)] and that interval lies inside (lo, hi)."""
    a = Fraction(value) * (1 - Fraction(rel))
    z = Fraction(value) * (1 + Fraction(rel))
    if not Fraction(lo) < a < z < Fraction(hi):
        return False
    return _sign(_eval(poly, a)) * _sign(_eval(poly, z)) < 0


def growth_rate(kind: str, b: int, m: int) -> float:
    """Dominant root in (b-1, b), from numpy eigenvalues and certified."""
    poly = growth_poly(kind, b, m)
    roots = np.roots(np.array(poly, dtype=float))
    real = [z.real for z in roots if abs(z.imag) < 1e-9 and b - 1 < z.real < b]
    value = max(real)
    if not certify_root(poly, value, b - 1, b, rel=1e-11):
        raise ValueError(f"uncertified {kind} root at b={b}, m={m}")
    return value


def struct_matrices(b: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Count-block actions of a PO step (A) and a TD step (B), acting on row
    vectors (S_{k+m}, ..., S_{k+1}) through the recursions
    S_{k+m+1} = (b-1)(S_{k+1} + ... + S_{k+m}) and S_{k+m+1} = b S_{k+m} - S_{k+1}."""
    a = np.zeros((m, m))
    a[:, 0] = b - 1
    bb = np.zeros((m, m))
    bb[0, 0] = b
    bb[m - 1, 0] -= 1
    for j in range(1, m):
        a[j - 1, j] = 1
        bb[j - 1, j] = 1
    return a, bb


def lpq_rate(b: int, m: int, p: int, q: int) -> float:
    """Spectral radius of A^p B^q."""
    a, bb = struct_matrices(b, m)
    prod = np.linalg.matrix_power(a, p) @ np.linalg.matrix_power(bb, q)
    return float(max(abs(np.linalg.eigvals(prod))))


def transfer_matrix(b: int, m: int, word: tuple[int, ...]) -> np.ndarray:
    """Dense de Bruijn adjacency with the edge of `word` removed."""
    dim = b ** (m - 1)
    mat = np.zeros((dim, dim))
    banned = _pack(word, b)
    for w in range(b * dim):
        if w != banned:
            mat[w // b, w % dim] = 1.0
    return mat


def periodic_rate(b: int, m: int, words) -> float:
    """rho(A_{w_1} ... A_{w_n})^(1/n)."""
    prod = np.eye(b ** (m - 1))
    for w in words:
        prod = prod @ transfer_matrix(b, m, w)
    return float(max(abs(np.linalg.eigvals(prod)))) ** (1.0 / len(words))
