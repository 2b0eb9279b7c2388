"""Output checks by independent routes (see reference.py).

check(job, rc, out, err) returns one of
  "ok"             the output is right,
  "int_str_limit"  exit 2 because a correct count has more than 4300 digits
                   and Python refuses to print it (known defect),
  "root_skipped"   roots reports a growth rate as skipped that exists
                   (known defect at large m),
  "other: <why>"   anything else: a wrong output, a crash, a bad exit.

Floats in the output carry 15 significant digits, so every float comparison
allows a relative 1e-15 on top of the error bounds of the two routes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

EPS = ref.EPS
# the package's documented per-step log drift (counting.DRIFT_PER_STEP)
DRIFT_PER_STEP = 32 * EPS
# exact anchors for log outputs: the first ANCHOR_K lengths in exact
# integers, fewer on wide state spaces so that the edge scan stays short
ANCHOR_K = 1500
ANCHOR_EDGES = 400_000
DIGIT_LIMIT = 4300
# a reported drift bound looser than this says nothing about ln |Sigma_k|
MAX_DRIFT = 1e-6


class Mismatch(Exception):
    pass


def _close(got, want: float, tol: float, what: str) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol + 1e-15 * abs(want):
        raise Mismatch(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def _equal(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _rounding(value: float) -> float:
    """Half a unit in the 15th significant digit, doubled."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 14) if value else 0.0


def _certified(poly, value, lo, hi) -> bool:
    return isinstance(value, float) and ref.certify_root(poly, value, lo, hi, rel=_rounding(value) / value)


def _rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


# ---------------------------------------------------------------------------
# log-valued outputs


class LogRef:
    """Reference log counts of one schedule up to k_max, anchored to exact
    counts at the first ANCHOR_K lengths."""

    def __init__(self, sched: ref.Sched, k_max: int):
        self.sched = sched
        self.logs, self.bound = ref.log_series(sched, k_max)
        top = min(k_max, ANCHOR_K, max(4 * sched.m, ANCHOR_EDGES // (sched.b * sched.states)))
        self.exact_logs = np.array([math.log(c) for c in ref.exact_series(sched, top)])
        self.match(np.arange(top + 1), self.logs[: top + 1], self.bound, "reference log")

    def package_drift(self, k: int) -> float:
        """Upper estimate of the package's documented drift bound at k."""
        steps = max(0, k - self.sched.m + 1)
        return DRIFT_PER_STEP * steps + 4 * EPS * (abs(self.logs[k]) + math.log(self.sched.states) + 1)

    def match(self, ks: np.ndarray, got: np.ndarray, drift: float, what: str) -> None:
        """got[i] approximates ln |Sigma_{ks[i]}| within drift."""
        anchored = ks < len(self.exact_logs)
        for want, tol, where in (
            (self.exact_logs[ks[anchored]], drift, anchored),
            (self.logs[ks], drift + self.bound, slice(None)),
        ):
            bad = ~(np.abs(got[where] - want) <= tol + 1e-15 * np.abs(want))
            if bad.any():
                i = int(np.argmax(bad))
                raise Mismatch(f"{what} at k={ks[where][i]}: got {got[where][i]!r}, want {want[i]!r} within {tol:.3g}")


def _check_count_log(spec, out, cache) -> None:
    s, k = spec["sched"], spec["k"]
    lr = cache.log(s, k)
    if spec["mode"] == "logseries":
        rows = _rows(out)
        _equal(rows[0], ["k", "log_count"], "csv header")
        _equal(len(rows), k + 2, "row count")
        ks = np.array([int(r[0]) for r in rows[1:]])
        _equal(ks.tolist(), list(range(k + 1)), "row k")
        lr.match(ks, np.array([float(r[1]) for r in rows[1:]]), lr.package_drift(k), "log_count")
        return
    doc = json.loads(out)["result"]
    _equal(doc["k"], k, "k")
    _equal(doc["extinction_k"], None, "extinction_k")
    if not isinstance(doc["drift_bound"], float) or not 0 <= doc["drift_bound"] <= MAX_DRIFT:
        raise Mismatch(f"drift_bound {doc['drift_bound']!r} outside [0, {MAX_DRIFT}]")
    if not isinstance(doc["log_count"], float):
        raise Mismatch(f"log_count {doc['log_count']!r} is not a number")
    lr.match(np.array([k]), np.array([doc["log_count"]]), doc["drift_bound"], "log_count")


def _window_minmax(series, k_max: int, window: float) -> tuple[float, float]:
    k0 = max(1, math.ceil((1.0 - window) * k_max))
    tail = series[k0:]
    return float(tail.min()), float(tail.max())


def _rate(kind: str, s: ref.Sched) -> float:
    return math.log(ref.growth_rate(kind, s.b, s.m)) / math.log(s.b)


def _prediction(s: ref.Sched) -> tuple[float, float]:
    """Closed-form (hausdorff, packing) of the schedule's structural family."""
    if s.kind in ("po", "td", "mixed"):
        v = _rate({"po": "lambda", "td": "eta", "mixed": "gamma"}[s.kind], s)
        return v, v
    if s.kind == "lpq":
        v = math.log(ref.lpq_rate(s.b, s.m, s.p, s.q)) / ((s.p + s.q) * math.log(s.b))
        return v, v
    lam, eta = _rate("lambda", s), _rate("eta", s)
    return float(s.t) * eta + (1 - float(s.t)) * lam, float(s.s) * eta + (1 - float(s.s)) * lam


def _check_dim(spec, out, cache) -> None:
    s, k_max = spec["sched"], spec["k"]
    doc = json.loads(out)
    _equal(doc["schedule"], s.descriptor(), "schedule")
    res = doc["result"]
    _equal((res["kind"], res["k_max"], res["extinction_k"]), (s.kind, k_max, None), "kind/k_max/extinction")
    lr = cache.log(s, k_max)
    logb = math.log(s.b)
    ks = np.arange(k_max + 1, dtype=float)
    ks[0] = math.nan
    series = lr.logs[: k_max + 1] / (ks * logb)
    window = res["window"]
    k0 = max(1, math.ceil((1.0 - window) * k_max))
    unc = res["uncertainty"]
    tol = unc["drift"] + lr.bound / (k0 * logb) + 1e-14
    lo, hi = _window_minmax(series, k_max, window)
    lo_h, hi_h = _window_minmax(series, k_max, window / 2)
    _close(res["liminf"], lo, tol, "liminf")
    _close(res["limsup"], hi, tol, "limsup")
    _close(unc["window_liminf"], abs(lo - lo_h), 2 * tol, "window_liminf")
    _close(unc["window_limsup"], abs(hi - hi_h), 2 * tol, "window_limsup")
    if "prediction" in res:
        pred = res["prediction"]
        h, pk = _prediction(s)
        _close(pred["hausdorff"], h, 1e-12, "hausdorff")
        _close(pred["packing"], pk, 1e-12, "packing")
        _close(pred["assouad_endpoint"], _rate("lambda", s), 1e-12, "assouad_endpoint")
        _close(pred["lower_endpoint"], _rate("eta", s), 1e-12, "lower_endpoint")
        _equal(pred["verified"], s.b >= 3 and s.m >= 2, "verified")


def _auto_beta(s: ref.Sched) -> float:
    if s.kind in ("po", "td", "mixed"):
        return ref.growth_rate({"po": "lambda", "td": "eta", "mixed": "gamma"}[s.kind], s.b, s.m)
    if s.kind == "lpq":
        return ref.lpq_rate(s.b, s.m, s.p, s.q) ** (1.0 / (s.p + s.q))
    return math.sqrt(ref.growth_rate("lambda", s.b, s.m) * ref.growth_rate("eta", s.b, s.m))


def _check_regularity(spec, out, cache) -> None:
    s, k_max = spec["sched"], spec["k"]
    res = json.loads(out)["result"]
    _equal(res["k_max"], k_max, "k_max")
    beta = _auto_beta(s)
    _close(res["beta"], beta, 1e-12 * beta, "beta")
    lr = cache.log(s, k_max)
    lrs = lr.logs[1 : k_max + 1] - math.log(beta) * np.arange(1, k_max + 1)
    tol = lr.package_drift(k_max) + lr.bound + 8 * EPS * k_max * math.log(beta) + 1e-13
    lo, hi = float(lrs.min()), float(lrs.max())
    _close(res["log_min"], lo, tol, "log_min")
    _close(res["log_max"], hi, tol, "log_max")
    for key, want in (("argmin_k", lo), ("argmax_k", hi)):
        k = res[key]
        if not (isinstance(k, int) and 1 <= k <= k_max):
            raise Mismatch(f"{key} {k!r} out of range")
        _close(float(lrs[k - 1]), want, 2 * tol, f"value at {key}")
    _close(res["min_ratio"], math.exp(lo), 2 * tol * math.exp(lo), "min_ratio")
    _close(res["max_ratio"], math.exp(hi), 2 * tol * math.exp(hi), "max_ratio")
    _close(res["spread"], math.exp(hi - lo), 4 * tol * math.exp(hi - lo), "spread")
    half = max(1, k_max // 2)
    margin = (hi - lo) - float(lrs[:half].max() - lrs[:half].min()) - 0.4
    if abs(margin) > 4 * tol:
        _equal(res["unbounded_trend"], margin > 0, "unbounded_trend")


# ---------------------------------------------------------------------------
# exact outputs


def _check_count_exact(spec, rc, out, err, cache) -> str:
    s, k, mode, fmt = spec["sched"], spec["k"], spec["mode"], spec["fmt"]
    if rc == 2 and "Exceeds the limit" in err and mode == "exact":
        logs, _ = ref.log_series(s, k)
        if logs[k] / math.log(10) < DIGIT_LIMIT - 1:
            raise Mismatch(f"int conversion refused for a count of only ~{logs[k] / math.log(10):.0f} digits")
        return "int_str_limit"
    _equal(rc, 0, "exit code")
    if mode == "series":
        want = cache.exact(s, k)
        if fmt == "json":
            rows = [(e["k"], e["count"]) for e in json.loads(out)["result"]["series"]]
        else:
            table = _rows(out)
            _equal(table[0], ["k", "count"], "csv header")
            rows = [(int(a), c) for a, c in table[1:]]
        _equal(len(rows), k + 1, "series length")
        for i, (kk, c) in enumerate(rows):
            if kk != i or int(c) != want[i]:
                raise Mismatch(f"series entry {i}: got ({kk}, {c[:20]}...)")
        return "ok"
    if mode == "prefix":
        want = ref.exact_series(s, k, start=spec["prefix"])[-1]
    else:
        want = cache.exact(s, k)[k]
    if fmt == "json":
        res = json.loads(out)["result"]
        _equal(res["k"], k, "k")
        got = res["count"]
    else:
        got = out.strip()
    if not got.isdigit() or int(got) != want:
        raise Mismatch(f"count: got {got[:30]}..., want {str(want)[:30]}... ({len(str(want))} digits)")
    return "ok"


def _class(words, k: int, m: int) -> str:
    all_eq = all_ne = True
    for j in range(1, min(k, m - 1) + 1):
        if words[k][: m - j] == words[k - j][j:]:
            all_ne = False
        else:
            all_eq = False
    return "po" if all_eq else "td" if all_ne else "neither"


def _check_classify(spec, out) -> None:
    s, lo, hi = spec["sched"], spec["lo"], spec["hi"]
    hs = ref.holes(s, hi + 1)
    words = [ref.unpack(int(h[0]), s.b, s.m) for h in hs]
    scheduled = ref.scheduled_classes(s, hi + 1)
    want = [[k, _class(words, k, s.m), ref.format_word(words[k]), scheduled[k]] for k in range(lo, hi + 1)]
    if spec["fmt"] == "json":
        got = [[e["k"], e["class"], e["holes"], e["scheduled"]] for e in json.loads(out)["result"]["positions"]]
    else:
        table = _rows(out)
        _equal(table[0], ["k", "class", "holes", "scheduled"], "csv header")
        got = [[int(r[0])] + r[1:] for r in table[1:]]
    _equal(len(got), len(want), "position count")
    for g, w in zip(got, want):
        _equal(g, w, f"position {w[0]}")


def _po_norms(b: int, m: int, n: int) -> list[int]:
    """Exact PO survivor counts at stages d+m-1, d = 1..n: the depth-d maxima."""
    series = ref.exact_series(ref.Sched("po", b, m, (0,)), n + m - 1)
    return [series[d + m - 1] for d in range(1, n + 1)]


def _check_jsr(spec, out) -> None:
    b, m, n, fmt = spec["b"], spec["m"], spec["n"], spec["fmt"]
    want = _po_norms(b, m, n)
    lam = ref.growth_rate("lambda", b, m)
    if fmt == "json":
        res = json.loads(out)["result"]
        _equal(res["po_matches"], True, "po_matches")
        rows = list(zip(res["depths"], res["max_norms"], res["upper_values"], res["po_norms"]))
        lam_out = res["lambda"]
    elif fmt == "csv":
        table = _rows(out)
        _equal(table[0], ["depth", "max_norm", "upper_value", "po_norm"], "csv header")
        rows = [(int(d), mn, float(v), po) for d, mn, v, po in table[1:]]
        lam_out = None
    else:
        lines = out.splitlines()
        _equal(lines[-1], "exhaustive maxima match the PO counts", "verdict line")
        lam_out = float(lines[0].split("=")[1])
        rows = []
        for line in lines[1 : n + 1]:
            f = line.split()
            rows.append((int(f[0][2:]), f[3], float(f[5]), f[7]))
    _equal([int(r[0]) for r in rows], list(range(1, n + 1)), "depths")
    for (d, mn, val, po), w in zip(rows, want):
        _equal((int(mn), int(po)), (w, w), f"max norm and po norm at depth {d}")
        _close(val, w ** (1.0 / d), 1e-9 if fmt == "human" else 1e-13, f"upper value at depth {d}")
    if lam_out is not None:
        _close(lam_out, lam, 1e-11, "lambda")
    if "words" in spec:
        per = res["periodic"]
        _equal(per["words"], [ref.format_word(w) for w in spec["words"]], "periodic words")
        rate = ref.periodic_rate(b, m, spec["words"])
        _close(per["rate"], rate, 1e-9 * rate, "periodic rate")
        _close(per["rho"], rate ** len(spec["words"]), 1e-9 * rate ** len(spec["words"]), "periodic rho")
        if abs(abs(rate - lam) - 1e-9 * lam) > 1e-11 * lam:
            _equal(per["achieves"], abs(rate - lam) <= 1e-9 * lam, "achieves")


def _check_roots(spec, out) -> str:
    b, m = spec["b"], spec["m"]
    res = json.loads(out)["result"]
    kinds = ["lambda", "eta"] + (["gamma"] if m >= 3 else [])
    found = {e["kind"]: e for e in res["roots"]}
    skipped = {e["kind"] for e in res["skipped"]}
    if sorted([*found, *skipped]) != sorted(kinds):
        raise Mismatch(f"kinds reported {sorted(found)} + skipped {sorted(skipped)}, want {kinds}")
    for kind, e in found.items():
        poly = ref.growth_poly(kind, b, m)
        _equal(tuple(e["poly"]), poly, f"{kind} polynomial")
        if not _certified(poly, e["value"], b - 1, b):
            raise Mismatch(f"{kind} = {e['value']!r} has no certified sign change")
        lo, hi = e["bracket"]
        u = _rounding(e["value"])
        if not lo - u <= e["value"] <= hi + u:
            raise Mismatch(f"{kind} = {e['value']!r} outside its bracket {e['bracket']}")
        _equal(len(e["conjugate_moduli"]), m - 1, f"{kind} conjugate count")
        if e["pisot"] and not all(mu < 1 - 1e-6 for mu in e["conjugate_moduli"]):
            raise Mismatch(f"{kind} claims pisot with a conjugate modulus >= 1")
    expected_skip = {"eta"} if (b, m) == (2, 2) else set()
    return "root_skipped" if skipped - expected_skip else "ok"


def _check_build_pq(spec, out) -> None:
    res = json.loads(out)["result"]
    _equal(res["targets"], {"s": str(spec["s"]), "t": str(spec["t"]), "p1": spec["p1"]}, "targets")
    runs = ref.pq_runs(spec["s"], spec["t"], spec["p1"])
    ell = 0
    want = []
    for n in range(1, spec["cycles"] + 1):
        p, q = next(runs)
        ell += p + q + spec["m"]
        want.append({"n": n, "p": p, "q": q, "ell": ell})
    _equal(res["rows"], want, "rows")


# ---------------------------------------------------------------------------


class Cache:
    """Reference results shared by the jobs of one run."""

    def __init__(self):
        self._logs: dict = {}
        self._exact: dict = {}

    def log(self, s: ref.Sched, k_max: int) -> LogRef:
        hit = self._logs.get(s)
        if hit is None or len(hit.logs) <= k_max:
            hit = self._logs[s] = LogRef(s, k_max)
        return hit

    def exact(self, s: ref.Sched, k: int) -> list[int]:
        hit = self._exact.get(s)
        if hit is None or len(hit) <= k:
            hit = self._exact[s] = ref.exact_series(s, k)
        return hit


def check(spec: dict, rc: int, out: str, err: str, cache: Cache | None = None) -> str:
    cache = cache or Cache()
    cmd = spec["cmd"]
    try:
        if cmd == "count" and spec["mode"] in ("exact", "prefix", "series"):
            return _check_count_exact(spec, rc, out, err, cache)
        _equal(rc, 0, "exit code")
        if cmd == "count":
            _check_count_log(spec, out, cache)
        elif cmd == "dim":
            _check_dim(spec, out, cache)
        elif cmd == "regularity":
            _check_regularity(spec, out, cache)
        elif cmd == "classify":
            _check_classify(spec, out)
        elif cmd == "jsr":
            _check_jsr(spec, out)
        elif cmd == "roots":
            return _check_roots(spec, out)
        elif cmd == "build-pq":
            _check_build_pq(spec, out)
        else:
            raise Mismatch(f"no check for {cmd}")
    except Mismatch as e:
        return f"other: {e}"
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"other: unreadable output ({type(e).__name__}: {e}) stderr={err[-200:]!r}"
    return "ok"
