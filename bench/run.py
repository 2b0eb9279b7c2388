"""holeshift benchmark: seeded CLI job mixes, checked outputs, per-layer trace.

    python3 bench/run.py --workload long-series --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Workloads are defined in workloads.py, with the reason for each.

One client runs jobs one after another through holeshift.cli.main(argv) in
this process (closed loop, no threads), capturing stdout and stderr in
memory.  A run first makes one untimed pass over the job mix and the probes
(jobs that hit a known defect), whose outputs are checked against
independent reference routes (checks.py).  It then
times whole passes until --seconds have elapsed and at least MIN_JOBS jobs
ran, so that ten or more samples lie above the 90th percentile.  A timed
job counts as correct when its exit code and output equal those of the
checked pass.  A failed job ranks as infinitely slow in the percentiles.
ok_jobs_per_s is the throughput of a typical pass: the share of each job's
timed runs that were correct, summed over the mix, divided by the sum of each
job's median time, so that a burst of load from elsewhere on the host moves
it no more than it moves a median.  ok_frac is the share of timed jobs that
were correct.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every job untraced
and then traced (tracing.py), prints the per-layer metrics and the tracing
overhead, and fails the run if the two outputs differ.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it is the run record (commit, machine,
versions, percentile sample counts, per-job status).  Both are also written,
with the spans of a traced run, to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One client and no threads: numpy's BLAS would otherwise start a worker
# thread per core, which on a shared host times the scheduler, not the
# program.  Set before numpy is imported, here and in the import timer.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
MIN_JOBS = 100
MAX_SECONDS = 120.0  # stop adding passes past this, whatever --seconds says
SETUP_RUNS = 5
KNOWN_DEFECTS = ("int_str_limit", "root_skipped")

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import holeshift.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import holeshift.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def execute(main, argv) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one job.  Garbage left by the
    jobs before it is collected first, untimed, so that a job's time does not
    depend on what ran before it."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception:  # a crash fails the job, not the benchmark
            traceback.print_exc()
            rc = -1
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_record(args, jobs, status) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "holeshift").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "jobs": [{"name": j.name, "argv": j.argv, "status": s} for j, s in zip(jobs, status)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "holeshift" / "__init__.py").is_file():
        print(f"no holeshift sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # setup_s is the median of SETUP_RUNS imports here and one after each
    # timed pass, so that it samples the whole run and not one moment of it;
    # the first import, which may write bytecode caches, is not counted
    setup_times = [import_seconds() for _ in range(SETUP_RUNS + 1)][1:]

    import checks
    import tracing
    import workloads
    from holeshift import cli

    every = workloads.make_jobs(args.workload, args.seed)
    jobs = [job for job in every if not job.probe]
    probes = [job for job in every if job.probe]
    first = [execute(cli.main, job.argv) for job in jobs + probes]  # the checked pass, untimed

    tracer = tracing.Tracer() if args.trace else None
    samples: list[tuple[int, bool, float]] = []  # (job, same output as the checked pass, seconds)
    traced: list[tuple[bool, float]] = []
    out_bytes = passes = 0
    start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            rc, out, _, dt = execute(cli.main, job.argv)
            samples.append((i, (rc, out) == first[i][:2], dt))
            if tracer is not None:
                rc_t, out_t, _, dt_t = execute(lambda a: tracer.run(i, cli.main, a), job.argv)
                traced.append(((rc_t, out_t) == first[i][:2], dt_t))
                out_bytes += len(out_t.encode())
        passes += 1
        setup_times.append(import_seconds())
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= args.seconds and (tracer or len(samples) >= MIN_JOBS)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cache = checks.Cache()
    status = [checks.check(job.spec, rc, out, err, cache) for job, (rc, out, err, _) in zip(jobs + probes, first)]
    kinds = [s if s in KNOWN_DEFECTS or s == "ok" else "other" for s in status]
    failed = [kinds[i] != "ok" or not same for i, same, _ in samples]
    mismatched = sum(not same for _, same, _ in samples) + sum(not same for same, _ in traced)
    correct = mismatched == 0 and "other" not in kinds

    record = run_record(args, jobs + probes, status)
    record.update(passes=passes, attempted=len(samples), mismatched_outputs=mismatched)
    job_seconds = sum(dt for *_, dt in samples)
    if tracer is None:
        latencies_ms = [math.inf if bad else dt * 1e3 for (*_, dt), bad in zip(samples, failed)]
        n = len(latencies_ms)
        per_job = [[(bad, dt) for (j, _, dt), bad in zip(samples, failed) if j == i] for i in range(len(jobs))]
        ok_per_pass = sum(sum(not bad for bad, _ in runs) / len(runs) for runs in per_job)
        pass_seconds = sum(statistics.median(dt for _, dt in runs) for runs in per_job)
        record["percentiles"] = {
            "p50": {"samples": n, "above": n - math.ceil(0.5 * n)},
            "p90": {"samples": n, "above": n - math.ceil(0.9 * n)},
        }
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ok_jobs_per_s": (ok_per_pass / pass_seconds, "1/s"),
            "job_p50_ms": (percentile(latencies_ms, 0.5), "ms"),
            "job_p90_ms": (percentile(latencies_ms, 0.9), "ms"),
            "ok_frac": (failed.count(False) / n, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        values = tracing.layer_metrics(tracer, passes, out_bytes)
        values["trace.overhead_frac"] = sum(dt for _, dt in traced) / job_seconds - 1.0
        for kind in (*KNOWN_DEFECTS, "other"):  # distinct jobs and probes, once per run
            values[f"failed.{kind}"] = kinds.count(kind)
        metrics = {k: (v, tracing.unit(k)) for k, v in values.items()}
        record["wrapped"] = tracer.wrapped
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = {"record": record, "result": result}
    if tracer is not None:
        dump.update(spans=tracer.spans, traced_jobs=tracer.jobs)
    (RESULTS / f"{stem}.json").write_text(json.dumps(dump) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
