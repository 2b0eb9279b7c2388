"""Per-layer spans around holeshift's entry points, recorded from outside.

While installed, the tracer replaces module attributes where callers bind
them (cli.count_series, dimension.count_series, ...) and each schedule
class's hole_at_packed with timing wrappers, and puts the originals back on
removal.  Calls to the entry points in SPANS become spans: name, layer,
start, end, parent and self time (duration minus child spans).  Per-position calls
(hole_at_packed, PQSchedule.cycle_of) would swamp a span list, so they are
aggregated per job into a call count and a total time, which is still
subtracted from the enclosing span's self time.  Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict

from holeshift import cli, dimension, jsr, schedules, spectra

# counting routes split by state count as the per-layer metrics report them
NARROW_STATES = 64


def _route(mode: str, states: int) -> str:
    if mode == "exact":
        return "exact"
    return "log_narrow" if states < NARROW_STATES else "log_wide"


def _steps(m: int, k: int) -> int:
    return max(0, k - m + 1)


def _note_exact(result, s, k):
    p = s.params
    return {"route": "exact", "states": p.state_count, "steps": _steps(p.m, k)}


def _note_series(result, s, k_max, mode="exact"):
    p = s.params
    return {"route": _route(mode, p.state_count), "states": p.state_count, "steps": _steps(p.m, k_max)}


def _note_prefix(result, s, prefix, k):
    return {"route": "exact", "states": s.params.state_count, "steps": k - len(prefix)}


def _note_jsr(result, *args, **kwargs):
    return {"nodes": result.nodes_expanded}


# (module, attribute, layer, note) for every span the tracer records
SPANS = [
    (cli, "count_exact", "counting", _note_exact),
    (cli, "count_series", "counting", _note_series),
    (cli, "count_from_prefix", "counting", _note_prefix),
    (dimension, "count_series", "counting", _note_series),
    (jsr, "count_exact", "counting", _note_exact),
    (cli, "estimate_dims", "dimension", None),
    (cli, "predict_dims", "dimension", None),
    (cli, "regularity_ratios", "dimension", None),
    (dimension, "predict_dims", "dimension", None),
    (cli, "dominant_root", "spectra", None),
    (dimension, "dominant_root", "spectra", None),
    (jsr, "dominant_root", "spectra", None),
    (spectra, "dominant_root", "spectra", None),
    (dimension, "lambda_pq", "spectra", None),
    (cli, "jsr_upper_exhaustive", "jsr", _note_jsr),
    (cli, "finiteness_check", "jsr", None),
]


def _leaf_targets():
    """(class, method) pairs aggregated per job instead of spanned."""
    out = [
        (cls, "hole_at_packed")
        for cls in vars(schedules).values()
        if isinstance(cls, type) and issubclass(cls, schedules.HoleSchedule) and "hole_at_packed" in vars(cls)
    ]
    return out + [(schedules.PQSchedule, "cycle_of")]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.jobs: list[dict] = []
        self._stack: list[list] = []  # open spans: [child_ns, span_id]
        self._next_id = 0
        self._in_leaf = [False]
        # method -> [outer calls, outer ns, calls nested in another leaf]
        self._leaf = defaultdict(lambda: [0, 0, 0])
        self._patches: list[tuple] = []
        self.wrapped: list[str] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, layer: str, fn, note):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                rec = {
                    "id": span_id,
                    "parent": stack[-1][1] if stack else None,
                    "job": self._job,
                    "name": name,
                    "layer": layer,
                    "start_ns": t0,
                    "end_ns": t1,
                    "self_ns": t1 - t0 - frame[0],
                }
                if note is not None and result is not None:
                    rec.update(note(result, *args, **kwargs))
                spans.append(rec)

        return wrapper

    def _leaf_wrapper(self, key: str, fn):
        stats, in_leaf, stack, clock = self._leaf[key], self._in_leaf, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if in_leaf[0]:  # e.g. cycle_of inside a family hole, or a multi's children
                stats[2] += 1
                return fn(*args, **kwargs)
            in_leaf[0] = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                in_leaf[0] = False
                stats[0] += 1
                stats[1] += dt
                stack[-1][0] += dt

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, note in SPANS:
            if hasattr(owner, attr):
                name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                self._patch(owner, attr, self._span(name, layer, getattr(owner, attr), note))
        for cls, attr in _leaf_targets():
            self._patch(cls, attr, self._leaf_wrapper(attr, vars(cls)[attr]))
        self.wrapped = [f"{owner.__name__}.{attr}" for owner, attr, _ in self._patches]

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- one traced job ---------------------------------------------------

    def run(self, job: int, fn, *args):
        """Call fn(*args), holeshift.cli.main, as the root span of a job."""
        self._job = job
        for stats in self._leaf.values():
            stats[:] = [0, 0, 0]
        self.install()
        try:
            return self._span("cli.main", "cli", fn, None)(*args)
        finally:
            self.remove()
            holes, cyc = self._leaf["hole_at_packed"], self._leaf["cycle_of"]
            self.jobs.append({
                "job": job,
                "holes": holes[0],
                "cycle_of_calls": cyc[0] + cyc[2],
                "schedules_ns": holes[1] + cyc[1],
            })


# ---------------------------------------------------------------------------
# per-layer metrics

# (route, state count) pairs reported one by one, so that the list/numpy
# switch of the log engine can be tuned from the exact-wide trace
PER_STATE = [("exact", n) for n in (2, 3, 9, 27)] + [("log_narrow", n) for n in (3, 9, 27)] + [
    ("log_wide", n) for n in (64, 81, 100, 128, 243, 729)
]
ROUTES = ("exact", "log_narrow", "log_wide")


def per_state_name(route: str, states: int) -> str:
    return f"counting.{route}.s{states}.ns_per_state_step"


def unit(name: str) -> str:
    for suffix, u in (("_ms", "ms"), ("_bytes", "bytes"), ("_frac", "ratio"), ("ns_per_hole", "ns"),
                      ("ns_per_state_step", "ns"), ("ns_per_node", "ns"), ("ms_per_root", "ms")):
        if name.endswith(suffix):
            return u
    return "count"


def layer_metrics(tracer: Tracer, passes: int, out_bytes: int) -> dict[str, float]:
    """Per-layer totals per pass of the job mix, and per-unit costs."""

    def ratio(a, b):
        return a / b if b else 0.0

    self_ns = defaultdict(int)
    count = defaultdict(int)
    route_ns = defaultdict(int)
    route_work = defaultdict(int)
    steps = nodes = 0
    for sp in tracer.spans:
        self_ns[sp["layer"]] += sp["self_ns"]
        count[sp["layer"]] += 1
        if "route" in sp:
            work = sp["steps"] * sp["states"]
            steps += sp["steps"]
            for key in (sp["route"], (sp["route"], sp["states"])):
                route_ns[key] += sp["self_ns"]
                route_work[key] += work
        nodes += sp.get("nodes", 0)
    holes = sum(j["holes"] for j in tracer.jobs)
    sched_ns = sum(j["schedules_ns"] for j in tracer.jobs)
    out = {
        "cli.self_ms": self_ns["cli"] / 1e6 / passes,
        "cli.out_bytes": out_bytes / passes,
        "schedules.holes": holes / passes,
        "schedules.self_ms": sched_ns / 1e6 / passes,
        "schedules.ns_per_hole": ratio(sched_ns, holes),
        "schedules.cycle_of_calls": sum(j["cycle_of_calls"] for j in tracer.jobs) / passes,
        "counting.steps": steps / passes,
        "counting.state_steps": sum(route_work[r] for r in ROUTES) / passes,
        "counting.self_ms": self_ns["counting"] / 1e6 / passes,
    }
    for r in ROUTES:
        out[f"counting.{r}.ns_per_state_step"] = ratio(route_ns[r], route_work[r])
    for r, n in PER_STATE:
        out[per_state_name(r, n)] = ratio(route_ns[(r, n)], route_work[(r, n)])
    out.update({
        "dimension.calls": count["dimension"] / passes,
        "dimension.self_ms": self_ns["dimension"] / 1e6 / passes,
        "spectra.roots": sum(1 for sp in tracer.spans if sp["name"].endswith(".dominant_root")) / passes,
        "spectra.self_ms": self_ns["spectra"] / 1e6 / passes,
        "jsr.nodes": nodes / passes,
        "jsr.self_ms": self_ns["jsr"] / 1e6 / passes,
        "jsr.ns_per_node": ratio(self_ns["jsr"], nodes),
    })
    out["spectra.ms_per_root"] = ratio(out["spectra.self_ms"], out["spectra.roots"])
    return out
