"""Self-tests of the benchmark: seeding, checker strictness, trace fidelity.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import execute  # noqa: E402

from holeshift import cli, make_params  # noqa: E402

SMALL = [
    ref.Sched("po", 3, 2, (0, 1, 2)),
    ref.Sched("td", 3, 3, 99),
    ref.Sched("lpq", 3, 4, (2, 1, 0), p=1, q=2),
    ref.Sched("family", 3, 2, 7, s=Fraction(1, 4), t=Fraction(1, 2)),
    ref.Sched("family", 3, 3, (1,), s=Fraction(1, 3), t=Fraction(1, 3), p1=2),
    ref.Sched("mixed", 3, 4, 12345),
    ref.Sched("periodic", 2, 3, words=((0, 1, 1), (1, 1, 0))),
    ref.Sched("multi", 3, 2, children=(ref.Sched("po", 3, 2, 5), ref.Sched("periodic", 3, 2, words=((1, 1),)))),
]


def run(argv):
    rc, out, err, _ = execute(cli.main, argv)
    return rc, out, err


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_argv_and_not_the_mix(workload):
    a, again, other = (workloads.make_jobs(workload, s) for s in (7, 7, 8))
    assert [j.argv for j in a] == [j.argv for j in again]
    assert [(j.name, j.probe) for j in a] == [(j.name, j.probe) for j in other]
    if workload != "jsr-spectra":  # its sizes are fixed; only words vary
        assert sum(x.argv != y.argv for x, y in zip(a, other)) >= len(a) // 2


@pytest.mark.parametrize("sched", SMALL, ids=lambda s: s.descriptor())
def test_reference_holes_match_the_package(sched):
    s = cli.parse_schedule(sched.descriptor(), make_params(sched.b, sched.m))
    want = [sorted(set(s.hole_at_packed(k))) for k in range(400)]
    assert [sorted(set(h.tolist())) for h in ref.holes(sched, 400)] == want


def test_checker_rejects_an_off_by_one_count():
    s = SMALL[1]
    spec = dict(cmd="count", mode="exact", sched=s, k=300, fmt="human")
    rc, out, err = run(["count", "-b", "3", "-m", "3", "--schedule", s.descriptor(), "-k", "300"])
    assert checks.check(spec, rc, out, err) == "ok"
    assert checks.check(spec, rc, f"{int(out) + 1}\n", err).startswith("other")


def test_checker_rejects_a_log_outside_its_drift_bound():
    s = SMALL[3]
    argv = ["count", "-b", "3", "-m", "2", "--schedule", s.descriptor(), "-k", "3000", "--log"]
    spec = dict(cmd="count", mode="log", sched=s, k=3000, fmt="json")
    rc, out, err = run(argv + ["--json"])
    assert checks.check(spec, rc, out, err) == "ok"
    doc = json.loads(out)
    doc["result"]["log_count"] += 3 * doc["result"]["drift_bound"]
    assert checks.check(spec, rc, json.dumps(doc), err).startswith("other")

    spec = dict(spec, mode="logseries", fmt="csv")
    rc, out, err = run(argv + ["--series", "--csv"])
    assert checks.check(spec, rc, out, err) == "ok"
    lines = out.splitlines()
    k, v = lines[2500].split(",")
    lines[2500] = f"{k},{float(v) + 1e-9}"
    assert checks.check(spec, rc, "\n".join(lines) + "\n", err).startswith("other")


def test_checker_rejects_a_dropped_lambda():
    spec = dict(cmd="roots", b=3, m=3, fmt="json")
    rc, out, err = run(["roots", "-b", "3", "-m", "3", "--json"])
    assert checks.check(spec, rc, out, err) == "ok"
    doc = json.loads(out)
    doc["result"]["roots"] = [r for r in doc["result"]["roots"] if r["kind"] != "lambda"]
    assert checks.check(spec, rc, json.dumps(doc), err).startswith("other")


def test_known_defects_are_tallied_not_hidden():
    s = ref.Sched("po", 3, 2, (0, 1, 2))
    rc, out, err = run(["count", "-b", "3", "-m", "2", "--schedule", s.descriptor(), "-k", "9900"])
    spec = dict(cmd="count", mode="exact", sched=s, k=9900, fmt="human")
    assert checks.check(spec, rc, out, err) == "int_str_limit"
    rc, out, err = run(["roots", "-b", "10", "-m", "55", "--json"])
    assert checks.check(dict(cmd="roots", b=10, m=55, fmt="json"), rc, out, err) == "root_skipped"


TRACED = [
    ["count", "-b", "3", "-m", "2", "--schedule", SMALL[7].descriptor(), "-k", "500"],
    ["count", "-b", "3", "-m", "3", "--schedule", SMALL[1].descriptor(), "-k", "400", "--prefix", "0120", "--json"],
    ["count", "-b", "3", "-m", "2", "--schedule", SMALL[3].descriptor(), "-k", "2000", "--series", "--log", "--csv"],
    ["dim", "-b", "3", "-m", "2", "--schedule", SMALL[3].descriptor(), "--k-max", "3000", "--predict"],
    ["regularity", "-b", "3", "-m", "4", "--schedule", SMALL[2].descriptor(), "--k-max", "2000"],
    ["classify", "-b", "3", "-m", "3", "--schedule", SMALL[4].descriptor(), "-k", "1", "--to", "60", "--json"],
    ["jsr", "-b", "3", "-m", "2", "-n", "4", "--check-periodic", "01|12|20", "--json"],
    ["roots", "-b", "3", "-m", "5"],
    ["build-pq", "-m", "2", "--s", "1/4", "--t", "1/2"],
]


def test_traced_and_untraced_outputs_agree():
    tracer = tracing.Tracer()
    for i, argv in enumerate(TRACED):
        plain = run(argv)
        traced = execute(lambda a: tracer.run(i, cli.main, a), argv)[:3]
        assert plain[0] == 0 and traced == plain, argv
    assert cli.count_series.__module__ == "holeshift.counting"  # wrappers removed
    layers = {sp["layer"] for sp in tracer.spans}
    assert layers == {"cli", "counting", "dimension", "spectra", "jsr"}
    assert all(sp["self_ns"] >= 0 for sp in tracer.spans)
    metrics = tracing.layer_metrics(tracer, 1, 0)
    assert metrics["schedules.holes"] > 0 and metrics["schedules.cycle_of_calls"] > 0
    assert metrics["jsr.nodes"] > 0 and metrics["spectra.roots"] > 0
