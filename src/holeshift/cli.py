"""Command line interface.

Subcommands: roots, count, classify, dim, regularity, jsr, build-pq.
Schedules are given as compact descriptors, e.g.

    po:seed=012            sliding window over the cycled digits 0,1,2
    td:seed=rng:42         totally distinct holes over a seeded rng stream
    lpq:p=1,q=2,seed=012   fixed alternation, p PO then q TD positions
    family:s=1/4,t=1/2,p1=1,seed=rng:7   growing runs with window gaps
    mixed:seed=0           copy-first / avoid-middle pattern (m >= 3)
    periodic:01|12|20      explicit words cycled forever
    multi:(po:seed=0);(periodic:11)      union of schedules

Digits ten and up use brackets: 0[12]3 is the word (0, 12, 3).  Output is
deterministic: one invocation always prints the same bytes.  JSON output
follows the packaged schema (output_schema.json); counts that can exceed
the float range are decimal strings, floats carry 15 significant digits.
Exit codes: 0 success, 1 usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .counting import count_exact, count_from_prefix, count_series
from .dimension import estimate_dims, predict_dims, regularity_ratios
from .jsr import finiteness_check, jsr_upper_exhaustive
from .model import Params, format_word, make_params, parse_word
from .schedules import (
    CycleStream,
    FamilySchedule,
    HoleSchedule,
    LpqSchedule,
    MixedSchedule,
    MultiSchedule,
    PQSchedule,
    PeriodicSchedule,
    ProgressiveOverlap,
    RngStream,
    ScheduleError,
    TotallyDistinct,
    build_pq_schedule,
    classify_position,
    make_stream,
)
from .spectra import SpectraError, dominant_root

SCHEMA_VERSION = "1"


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# schedule descriptors


def _parse_kv(body: str, kind: str, allowed: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, val = part.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or not key or not val:
            raise ScheduleError(f"expected key=value in {kind} descriptor, got {part!r}")
        if key not in allowed:
            raise ScheduleError(f"unknown option {key!r} for {kind} (allowed: {sorted(allowed)})")
        if key in out:
            raise ScheduleError(f"duplicate option {key!r} in {kind} descriptor")
        out[key] = val
    return out


def _parse_seed(text: str, p: Params):
    if text.startswith("rng:"):
        tail = text[4:]
        if not tail.isdigit():
            raise ScheduleError(f"rng seed must be a nonnegative integer, got {tail!r}")
        return make_stream(("rng", int(tail)), p)
    return make_stream(parse_word(text, p), p)


def _int_option(kv: dict[str, str], key: str, kind: str) -> int:
    val = kv[key]
    try:
        return int(val)
    except ValueError:
        raise ScheduleError(f"{kind} option {key}= must be an integer, got {val!r}") from None


def _targets(s: str, t: str) -> tuple[Fraction, Fraction]:
    try:
        return Fraction(s), Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ScheduleError(f"family targets must be rationals, got s={s!r}, t={t!r}") from None


def parse_schedule(text: str, p: Params) -> HoleSchedule:
    """Parse a schedule descriptor (see the module docstring for the grammar)."""
    text = text.strip()
    if text.startswith("multi:"):
        parts = [q.strip() for q in text[len("multi:") :].split(";")]
        children = []
        for part in parts:
            if part.startswith("(") and part.endswith(")"):
                part = part[1:-1].strip()
            if not part:
                raise ScheduleError("empty constituent in multi descriptor")
            children.append(parse_schedule(part, p))
        return MultiSchedule(params=p, children=tuple(children))
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind == "periodic":
        words = tuple(parse_word(w.strip(), p) for w in body.split("|"))
        return PeriodicSchedule(params=p, words=words)
    if kind in ("po", "td", "mixed"):
        kv = _parse_kv(body, kind, {"seed"})
        stream = _parse_seed(kv.get("seed", "0"), p)
        klass = {"po": ProgressiveOverlap, "td": TotallyDistinct, "mixed": MixedSchedule}[kind]
        return klass(params=p, stream=stream)
    if kind == "lpq":
        kv = _parse_kv(body, kind, {"p", "q", "seed"})
        if "p" not in kv or "q" not in kv:
            raise ScheduleError("lpq descriptor needs p= and q=")
        pq = PQSchedule(
            gap_mode="none",
            m=p.m,
            fixed=(_int_option(kv, "p", kind), _int_option(kv, "q", kind)),
        )
        return LpqSchedule(params=p, pq=pq, stream=_parse_seed(kv.get("seed", "0"), p))
    if kind == "family":
        kv = _parse_kv(body, kind, {"s", "t", "p1", "p", "q", "seed"})
        has_targets = "s" in kv or "t" in kv
        has_fixed = "p" in kv or "q" in kv
        if has_targets == has_fixed:
            raise ScheduleError("family descriptor needs either s=,t= or p=,q=")
        if has_targets:
            if "s" not in kv or "t" not in kv:
                raise ScheduleError("family descriptor needs both s= and t=")
            p1 = _int_option(kv, "p1", kind) if "p1" in kv else 1
            pq = build_pq_schedule(p.m, *_targets(kv["s"], kv["t"]), p1)
        else:
            if "p" not in kv or "q" not in kv:
                raise ScheduleError("family descriptor needs both p= and q=")
            pq = PQSchedule(
                gap_mode="m-gap",
                m=p.m,
                fixed=(_int_option(kv, "p", kind), _int_option(kv, "q", kind)),
            )
        return FamilySchedule(params=p, pq=pq, stream=_parse_seed(kv.get("seed", "0"), p))
    raise ScheduleError(
        f"unknown schedule kind {kind!r} (known: po, td, lpq, family, mixed, periodic, multi)"
    )


def _format_seed(stream) -> str:
    if isinstance(stream, CycleStream):
        return format_word(stream.digits)
    if isinstance(stream, RngStream):
        return f"rng:{stream.seed}"
    raise ScheduleError(f"no descriptor for stream {type(stream).__name__}")


def format_schedule(s: HoleSchedule) -> str:
    """Canonical descriptor; parse_schedule(format_schedule(s)) == s."""
    if isinstance(s, MultiSchedule):
        return "multi:" + ";".join(f"({format_schedule(c)})" for c in s.children)
    if isinstance(s, PeriodicSchedule):
        return "periodic:" + "|".join(format_word(w) for w in s.words)
    if isinstance(s, ProgressiveOverlap):
        return f"po:seed={_format_seed(s.stream)}"
    if isinstance(s, TotallyDistinct):
        return f"td:seed={_format_seed(s.stream)}"
    if isinstance(s, MixedSchedule):
        return f"mixed:seed={_format_seed(s.stream)}"
    if isinstance(s, LpqSchedule):
        pp, qq = s.pq.fixed
        return f"lpq:p={pp},q={qq},seed={_format_seed(s.stream)}"
    if isinstance(s, FamilySchedule):
        if s.pq.targets is not None:
            st, tt, p1 = s.pq.targets
            return f"family:s={st},t={tt},p1={p1},seed={_format_seed(s.stream)}"
        pp, qq = s.pq.fixed
        return f"family:p={pp},q={qq},seed={_format_seed(s.stream)}"
    raise ScheduleError(f"no descriptor for schedule kind {s.kind!r}")


# ---------------------------------------------------------------------------
# output plumbing


def _f(x):
    """Floats rounded to 15 significant digits; non-finite values as strings."""
    if x is None:
        return None
    x = float(x)
    if math.isfinite(x):
        return float(f"{x:.15g}")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "nan"


def _objects(header: list[str], rows) -> list[dict]:
    """JSON row objects for a table: one dict per row, keyed by the header."""
    return [dict(zip(header, row)) for row in rows]


def _emit(
    args,
    command: str,
    result,
    human=(),
    *,
    table: tuple[list[str], list] | None = None,
    params: Params | None = None,
    schedule: str | None = None,
    force_json: bool = False,
) -> int:
    """Print the one form asked for.  result may be a function, called only
    for JSON; human is any iterable of lines; table is (header, rows)."""
    if args.csv:
        if table is None:
            raise _UsageError(f"{command} has no tabular output; drop --csv")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(table[0])
        writer.writerows(table[1])
        return 0
    if args.json or force_json:
        doc: dict = {"schema_version": SCHEMA_VERSION, "command": command}
        if params is not None:
            doc["params"] = {"b": params.b, "m": params.m, "verified": params.verified}
        if schedule is not None:
            doc["schedule"] = schedule
        doc["result"] = result() if callable(result) else result
        print(json.dumps(doc, indent=2))
        return 0
    for line in human:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_roots(args) -> int:
    p = make_params(args.b, args.m)
    if args.kind == "all":
        kinds = ["lambda", "eta"] + (["gamma"] if p.m >= 3 else [])
        optional = True
    else:
        kinds = [args.kind]
        optional = False
    entries, skipped, human = [], [], []
    for kd in kinds:
        try:
            r = dominant_root(kd, p)
        except SpectraError as e:
            if not optional:
                raise
            skipped.append({"kind": kd, "reason": str(e)})
            human.append(f"{kd}: skipped ({e})")
            continue
        entries.append(
            {
                "kind": kd,
                "value": _f(r.value),
                "bracket": [_f(r.bracket[0]), _f(r.bracket[1])],
                "residual": _f(r.residual),
                "conjugate_moduli": [_f(v) for v in r.conjugate_moduli],
                "pisot": r.pisot,
                "poly": [int(c) for c in r.poly],
            }
        )
        moduli = ", ".join(f"{v:.6f}" for v in r.conjugate_moduli)
        human.append(
            f"{kd}(b={p.b}, m={p.m}) = {r.value:.12f}  pisot={'yes' if r.pisot else 'no'}"
            f"  conjugate moduli: {moduli or 'none'}"
        )
    return _emit(args, "roots", {"roots": entries, "skipped": skipped}, human, params=p)


def _cmd_count(args) -> int:
    if args.prefix is not None and (args.series or args.log):
        raise _UsageError("--prefix gives one exact count; drop --series and --log")
    p = make_params(args.b, args.m)
    s = parse_schedule(args.schedule, p)
    table = None
    if args.prefix is not None:
        c = str(count_from_prefix(s, parse_word(args.prefix, p), args.k))
        result, human = {"k": args.k, "prefix": args.prefix, "count": c}, [c]
    elif args.log:
        ls = count_series(s, args.k, mode="log")
        tail = {"drift_bound": _f(ls.drift_bound), "extinction_k": ls.extinction_k}
        if args.series:
            table = (["k", "log_count"], list(enumerate(map(_f, ls.logs.tolist()))))
            result = lambda: {"series_log": _objects(*table), **tail}
        else:
            v = _f(ls.logs[args.k])
            result, human = {"k": args.k, "log_count": v, **tail}, [str(v)]
    elif args.series:
        counts = count_series(s, args.k, mode="exact")
        table = (["k", "count"], [(k, str(c)) for k, c in enumerate(counts)])
        result = lambda: {"series": _objects(*table)}
    else:
        c = str(count_exact(s, args.k))
        result, human = {"k": args.k, "count": c}, [c]
    if table is not None:
        human = (f"{k} {v}" for k, v in table[1])
    return _emit(
        args, "count", result, human, table=table, params=p, schedule=format_schedule(s)
    )


def _cmd_classify(args) -> int:
    p = make_params(args.b, args.m)
    s = parse_schedule(args.schedule, p)
    k_to = args.to if args.to is not None else args.k
    if k_to < args.k:
        raise _UsageError("--to must be >= -k")
    header = ["k", "class", "holes", "scheduled"]
    rows = [
        (k, classify_position(s, k).value, "|".join(map(format_word, s.hole_at(k))),
         s.scheduled_class(k))
        for k in range(args.k, k_to + 1)
    ]
    return _emit(
        args, "classify", lambda: {"positions": _objects(header, rows)},
        (f"k={k}  {cls:7s}  hole {holes}" for k, cls, holes, _ in rows),
        table=(header, rows), params=p, schedule=format_schedule(s),
    )


def _cmd_dim(args) -> int:
    p = make_params(args.b, args.m)
    s = parse_schedule(args.schedule, p)
    rep = estimate_dims(s, args.k_max, args.window)
    result = {
        "kind": rep.kind,
        "k_max": rep.k_max,
        "window": _f(rep.window),
        "liminf": _f(rep.liminf_est),
        "limsup": _f(rep.limsup_est),
        "uncertainty": {key: _f(v) for key, v in rep.uncertainty.items()},
        "extinction_k": rep.extinction_k,
    }
    if args.predict:
        pred = rep.prediction if rep.prediction is not None else predict_dims(s)
        result["prediction"] = {
            "hausdorff": _f(pred.hausdorff),
            "packing": _f(pred.packing),
            "assouad_endpoint": _f(pred.assouad_endpoint),
            "lower_endpoint": _f(pred.lower_endpoint),
            "basis": pred.basis,
            "verified": pred.verified,
        }
    return _emit(args, "dim", result, params=p, schedule=format_schedule(s), force_json=True)


def _cmd_regularity(args) -> int:
    p = make_params(args.b, args.m)
    s = parse_schedule(args.schedule, p)
    beta = "auto" if args.beta == "auto" else float(args.beta)
    rep = regularity_ratios(s, args.k_max, beta)
    result = {
        "beta": _f(rep.beta),
        "k_max": rep.k_max,
        "log_min": _f(rep.log_min),
        "log_max": _f(rep.log_max),
        "argmin_k": rep.argmin_k,
        "argmax_k": rep.argmax_k,
        "min_ratio": _f(rep.min_ratio),
        "max_ratio": _f(rep.max_ratio),
        "spread": _f(rep.spread),
        "unbounded_trend": rep.unbounded_trend,
    }
    human = [
        f"beta = {rep.beta:.12f}",
        f"count/beta^k over k <= {rep.k_max}: min {rep.min_ratio:.6g} at k={rep.argmin_k},"
        f" max {rep.max_ratio:.6g} at k={rep.argmax_k}",
        f"spread = {rep.spread:.6g}  trend: "
        + ("growing (rate mismatch?)" if rep.unbounded_trend else "bounded"),
    ]
    return _emit(args, "regularity", result, human, params=p, schedule=format_schedule(s))


def _cmd_jsr(args) -> int:
    if args.csv and args.check_periodic is not None:
        raise _UsageError("--check-periodic has no tabular output; drop --csv")
    p = make_params(args.b, args.m)
    rep = jsr_upper_exhaustive(p, args.n, budget=args.budget)
    lam = dominant_root("lambda", p).value
    levels = list(zip(rep.depths, rep.max_norms, rep.upper_values, rep.po_norms))
    rows = [(d, str(mn), _f(val), str(po)) for d, mn, val, po in levels]
    result = {
        "depths": rep.depths,
        "max_norms": [str(v) for v in rep.max_norms],
        "upper_values": [_f(v) for v in rep.upper_values],
        "po_norms": [str(v) for v in rep.po_norms],
        "po_matches": rep.po_matches,
        "lambda": _f(lam),
    }
    human = [f"lambda = {lam:.12f}"]
    human += [f"n={d}  max norm {mn}  bound {val:.9f}  po {po}" for d, mn, val, po in levels]
    human.append(
        "exhaustive maxima match the PO counts" if rep.po_matches
        else "exhaustive maxima DIFFER from the PO counts"
    )
    if args.check_periodic is not None:
        words = [parse_word(w.strip(), p) for w in args.check_periodic.split("|")]
        fin = finiteness_check(p, words)
        result["periodic"] = {
            "words": [format_word(w) for w in fin.words],
            "rho": _f(fin.rho),
            "rate": _f(fin.rate),
            "achieves": fin.achieves,
        }
        human.append(
            f"periodic {args.check_periodic}: rho^(1/{fin.period}) = {fin.rate:.12f}"
            + ("  (achieves the PO rate)" if fin.achieves else "")
        )
    return _emit(
        args, "jsr", result, human,
        table=(["depth", "max_norm", "upper_value", "po_norm"], rows), params=p,
    )


def _cmd_build_pq(args) -> int:
    has_targets = args.s is not None or args.t is not None
    has_fixed = args.p is not None or args.q is not None
    if has_targets == has_fixed:
        raise _UsageError("give either --s/--t or --p/--q")
    if has_targets:
        if args.s is None or args.t is None:
            raise _UsageError("--s and --t go together")
        s_frac, t_frac = _targets(args.s, args.t)
        pq = build_pq_schedule(args.m, s_frac, t_frac, args.p1)
        targets = {"s": str(s_frac), "t": str(t_frac), "p1": args.p1}
        fixed = None
    else:
        if args.p is None or args.q is None:
            raise _UsageError("--p and --q go together")
        pq = PQSchedule(gap_mode=args.gap, m=args.m, fixed=(args.p, args.q))
        targets = None
        fixed = [args.p, args.q]
    header = ["n", "p", "q", "ell"]
    rows = [(n, pq.p(n), pq.q(n), pq.ell(n)) for n in range(1, args.cycles + 1)]
    result = {
        "gap_mode": pq.gap_mode,
        "m": args.m,
        "targets": targets,
        "fixed": fixed,
        "rows": _objects(header, rows),
    }
    human = [" ".join(header)] + [f"{n} {pn} {qn} {en}" for n, pn, qn, en in rows]
    return _emit(args, "build-pq", result, human, table=(header, rows))


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub, schedule: bool = True):
    sub.add_argument("-b", type=int, required=True, help="digit base")
    sub.add_argument("-m", type=int, required=True, help="forbidden word length")
    if schedule:
        sub.add_argument("--schedule", required=True, help="schedule descriptor")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output (tabular commands)")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="holeshift", description=__doc__.splitlines()[0])
    sp = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    r = sp.add_parser("roots", help="growth rates and their algebraic data")
    _add_common(r, schedule=False)
    r.add_argument("--kind", choices=["lambda", "eta", "gamma", "all"], default="all")
    r.set_defaults(func=_cmd_roots)

    c = sp.add_parser("count", help="survivor counts")
    _add_common(c)
    c.add_argument("-k", type=int, required=True, help="stage")
    c.add_argument("--prefix", help="count only continuations of this word")
    c.add_argument("--series", action="store_true", help="all stages 0..k")
    c.add_argument("--log", action="store_true", help="log-domain engine")
    c.set_defaults(func=_cmd_count)

    cl = sp.add_parser("classify", help="position classes of a schedule")
    _add_common(cl)
    cl.add_argument("-k", type=int, required=True, help="first position")
    cl.add_argument("--to", type=int, help="last position (default: -k)")
    cl.set_defaults(func=_cmd_classify)

    d = sp.add_parser("dim", help="dimension estimate from count growth")
    _add_common(d)
    d.add_argument("--k-max", type=int, required=True, help="deepest stage")
    d.add_argument("--window", type=float, default=0.5, help="trailing window fraction")
    d.add_argument("--predict", action="store_true", help="attach the closed-form values")
    d.set_defaults(func=_cmd_dim)

    rg = sp.add_parser("regularity", help="bounds of count/rate^k")
    _add_common(rg)
    rg.add_argument("--k-max", type=int, required=True)
    rg.add_argument("--beta", default="auto", help="rate (default: auto by schedule kind)")
    rg.set_defaults(func=_cmd_regularity)

    j = sp.add_parser("jsr", help="joint spectral radius bounds")
    _add_common(j, schedule=False)
    j.add_argument("-n", type=int, default=4, help="product depth")
    j.add_argument("--budget", type=int, default=10**7, help="cap on distinct (vector, word) expansions")
    j.add_argument("--check-periodic", help="words w1|w2|... to test as a periodic product")
    j.set_defaults(func=_cmd_jsr)

    bp = sp.add_parser("build-pq", help="run-length schedule table")
    bp.add_argument("-m", type=int, required=True, help="forbidden word length")
    bp.add_argument("--s", help="packing target (rational)")
    bp.add_argument("--t", help="hausdorff target (rational)")
    bp.add_argument("--p1", type=int, default=1, help="first PO run length")
    bp.add_argument("--p", type=int, help="fixed PO run length")
    bp.add_argument("--q", type=int, help="fixed TD run length")
    bp.add_argument("--gap", choices=["m-gap", "none"], default="m-gap")
    bp.add_argument("--cycles", type=int, default=10, help="rows to print")
    fmt = bp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    bp.set_defaults(func=_cmd_build_pq)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
