"""Seeded job mixes for the three workloads.

A workload is a fixed list of named jobs (the mix).  The benchmark seed only
picks the rng: schedule seeds, cycled seed digits, words, prefixes and the
exact sizes, each within 0.25% of the job's base size so that every seed asks
for the same amount of work.  The program sees only the generated argv;
`spec` keeps what the output checks need.

Jobs that hit a known defect are probes: every run executes and checks them
once, untimed, and tallies them by defect, so the defects stay visible while
the timed mix has no failing operation.

Why these workloads:

* long-series: the paper's dimension experiment.  dim --predict, regularity
  and count --log at b=3, m in {2,3,4}, k_max 5e4..2e5 over po, td, lpq,
  family and mixed schedules.  Hole generation and the narrow (< 64 states)
  log kernel do nearly all the work and outputs are under 1 KB.
* exact-wide: exact big-integer counts, prefix counts, classify ranges,
  2 MB exact and log series outputs, and dim at 27..729 states on both
  sides of the package's list/numpy switch at 128 states.  Cycled seeds
  make the hole sequence eventually periodic; rng: seeds do not.
* jsr-spectra: exhaustive JSR search, periodic finiteness checks, growth
  roots from m=2 to m=56 and run-length tables.  The only workload that
  reaches the jsr module and leans on spectra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref
from reference import Sched

WORKLOADS = ("long-series", "exact-wide", "jsr-spectra")
JITTER = 0.0025


@dataclass
class Job:
    name: str  # stable within a workload: the same names for every seed
    argv: list[str]
    spec: dict = field(default_factory=dict)
    probe: bool = False  # hits a known defect: checked and tallied, not timed


class _Gen:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")

    def size(self, base: int) -> int:
        return round(base * (1 + self.rng.uniform(-JITTER, JITTER)))

    def rng_seed(self) -> int:
        return self.rng.randrange(1, 1 << 32)

    def digits(self, b: int, n: int) -> tuple[int, ...]:
        return tuple(self.rng.randrange(b) for _ in range(n))

    def words(self, b: int, m: int, n: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.digits(b, m) for _ in range(n))

    def prefix(self, sched: Sched, length: int) -> tuple[int, ...]:
        """A random survivor of the given length (one hole per position)."""
        b, m = sched.b, sched.m
        hs = ref.holes(sched, length)
        word = list(self.digits(b, m - 1))
        for pos in range(length - m + 1):
            a = self.rng.randrange(b)
            while ref._pack(word[pos:] + [a], b) in hs[pos]:
                a = (a + 1) % b
            word.append(a)
        return tuple(word)


def _argv(command: str, sched: Sched, *rest: str) -> list[str]:
    return [command, "-b", str(sched.b), "-m", str(sched.m), "--schedule", sched.descriptor(), *rest]


def _fmt(fmt: str) -> list[str]:
    return [] if fmt == "human" else [f"--{fmt}"]


def long_series(g: _Gen) -> list[Job]:
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    # (label, schedule, base k_max for dim / regularity / count --log).  The
    # bases put each percentile on a job of its own, clear of its neighbours
    # by about 1.35x in time, so that it reads that job's samples and not
    # whichever of two close jobs a noisy run ranks first.  Measured on 2
    # cores of a shared x86-64 host: seven jobs take 130..170 ms, dim.mixed
    # (the 50th percentile, 8th of 15 jobs) about 210 ms, five jobs
    # 270..300 ms, dim.lpq (the 90th percentile, 14th) about 420 ms and
    # dim.family about 570 ms.
    scheds = [
        ("po.m2", Sched("po", 3, 2, g.digits(3, 3)), (120_000, 120_000, 120_000)),
        ("family.m2", Sched("family", 3, 2, g.rng_seed(), s=quarter, t=half), (200_000, 97_000, 98_000)),
        ("td.m3", Sched("td", 3, 3, g.digits(3, 4)), (60_000, 60_000, 60_000)),
        ("mixed.m3", Sched("mixed", 3, 3, g.rng_seed()), (66_000, 90_000, 48_000)),
        ("lpq.m4", Sched("lpq", 3, 4, g.digits(3, 3), p=1, q=2), (96_000, 65_000, 66_000)),
    ]
    jobs = []
    for label, s, (k_dim, k_reg, k_log) in scheds:
        k = g.size(k_dim)
        jobs.append(Job(f"dim.{label}", _argv("dim", s, "--k-max", str(k), "--predict"),
                        dict(cmd="dim", sched=s, k=k, fmt="json")))
        k = g.size(k_reg)
        jobs.append(Job(f"regularity.{label}", _argv("regularity", s, "--k-max", str(k), "--json"),
                        dict(cmd="regularity", sched=s, k=k, fmt="json")))
        k = g.size(k_log)
        jobs.append(Job(f"count-log.{label}", _argv("count", s, "-k", str(k), "--log", "--json"),
                        dict(cmd="count", mode="log", sched=s, k=k, fmt="json")))
    return jobs


def exact_wide(g: _Gen) -> list[Job]:
    jobs = []

    def count(name, s, k, fmt="human", probe=False):
        jobs.append(Job(name, _argv("count", s, "-k", str(k), *_fmt(fmt)),
                        dict(cmd="count", mode="exact", sched=s, k=k, fmt=fmt), probe))

    # The sizes put one job, count.po.b3m4, alone at the median of the 23
    # timed jobs, so that the 50th percentile reads that job's own samples
    # and not whichever of two neighbours a noisy run ranks first.  On 2
    # cores of a shared x86-64 host it takes about 37 ms, the 11 jobs below
    # it at most 25 ms and the 11 above at least 55 ms.  Likewise dim.po.s64
    # (about 195 ms) stands alone at the 90th percentile, the 21st job,
    # between dim.td.s81 (135 ms) and dim.po.s100 (280 ms).
    # b = 3 counts stay below 4300 decimal digits up to k ~ 9000, and b=2, m=2
    # counts up to k ~ 20000
    count("count.po.b3m2", Sched("po", 3, 2, g.digits(3, 3)), g.size(6000))
    count("count.po.b2m2", Sched("po", 2, 2, g.rng_seed()), g.size(14_000), "json")
    count("count.td.b3m3", Sched("td", 3, 3, g.rng_seed()), g.size(6500))
    count("count.td.b3m4", Sched("td", 3, 4, g.digits(3, 4)), g.size(8500), "json")
    count("count.periodic.b3m3", Sched("periodic", 3, 3, words=g.words(3, 3, 3)), g.size(7000))
    count("count.multi.b3m2", Sched("multi", 3, 2, children=(
        Sched("po", 3, 2, g.digits(3, 2)), Sched("periodic", 3, 2, words=g.words(3, 2, 1)))), g.size(8000))
    count("count.multi.b3m3", Sched("multi", 3, 3, children=(
        Sched("td", 3, 3, g.rng_seed()), Sched("po", 3, 3, g.digits(3, 3)))), g.size(5000), "json")
    count("count.po.b3m3", Sched("po", 3, 3, g.rng_seed()), g.size(4000), "json")
    count("count.po.b3m4", Sched("po", 3, 4, g.rng_seed()), g.size(5700), "json")
    # past 4300 digits Python refuses to print the count: exit 2, a known defect
    count("probe.count.po.b3m2.k9900", Sched("po", 3, 2, (0, 1, 2)), 9900, probe=True)
    count("probe.count.po.b3m2.big", Sched("po", 3, 2, g.digits(3, 3)), g.size(15_000), probe=True)

    for name, s, plen, base, fmt in (
        ("prefix.td.b3m3", Sched("td", 3, 3, g.digits(3, 3)), 10, 8000, "human"),
        ("prefix.po.b3m2", Sched("po", 3, 2, g.rng_seed()), 12, 7000, "json"),
    ):
        k, prefix = g.size(base), g.prefix(s, plen)
        jobs.append(Job(name, _argv("count", s, "-k", str(k), "--prefix", ref.format_word(prefix), *_fmt(fmt)),
                        dict(cmd="count", mode="prefix", sched=s, k=k, prefix=prefix, fmt=fmt)))

    for name, s, first, span, fmt in (
        ("classify.lpq.b3m3", Sched("lpq", 3, 3, g.digits(3, 3), p=1, q=1), 1, 10_000, "csv"),
        ("classify.family.b3m2", Sched("family", 3, 2, g.rng_seed(), s=Fraction(1, 4), t=Fraction(1, 2)),
         200, 5800, "json"),
    ):
        lo = g.size(first)
        hi = lo + g.size(span)
        jobs.append(Job(name, _argv("classify", s, "-k", str(lo), "--to", str(hi), f"--{fmt}"),
                        dict(cmd="classify", sched=s, lo=lo, hi=hi, fmt=fmt)))

    for name, s, base, mode, fmt in (
        ("series.td.b3m2", Sched("td", 3, 2, g.rng_seed()), 2500, "series", "json"),
        ("series.po.b3m3", Sched("po", 3, 3, g.digits(3, 3)), 2000, "series", "csv"),
        # fixed k: this job sets the run's peak memory
        ("series-log.po.b3m2", Sched("po", 3, 2, g.rng_seed()), 100_000, "logseries", "csv"),
    ):
        k = base if mode == "logseries" else g.size(base)
        extra = ["--log"] if mode == "logseries" else []
        jobs.append(Job(name, _argv("count", s, "-k", str(k), "--series", *extra, f"--{fmt}"),
                        dict(cmd="count", mode=mode, sched=s, k=k, fmt=fmt)))

    # one dim per state count: 27 (narrow log), 64, 81, 100 (list kernel),
    # 128, 243, 729 (numpy kernel); below 128 states only k_max >= 1e4
    # selects the log engine
    for name, s, base in (
        ("dim.po.s27", Sched("po", 3, 4, g.rng_seed()), 20_000),
        ("dim.po.s64", Sched("po", 2, 7, g.digits(2, 5)), 19_000),
        ("dim.td.s81", Sched("td", 3, 5, g.rng_seed()), 10_500),
        ("dim.po.s100", Sched("po", 10, 3, g.rng_seed()), 25_000),
        ("dim.periodic.s128", Sched("periodic", 2, 8, words=g.words(2, 8, 4)), 15_000),
        ("dim.lpq.s243", Sched("lpq", 3, 6, g.digits(3, 3), p=2, q=1), 12_000),
        ("dim.po.s729", Sched("po", 3, 7, g.rng_seed()), 10_000),
    ):
        k = g.size(base)
        jobs.append(Job(name, _argv("dim", s, "--k-max", str(k)), dict(cmd="dim", sched=s, k=k, fmt="json")))
    return jobs


def jsr_spectra(g: _Gen) -> list[Job]:
    # Of the 15 timed jobs, roots.b3m24 (about 17 ms on 2 cores of a shared
    # x86-64 host) stands alone at the median, between 11 ms and 25 ms
    # neighbours, and jsr.b4m2 (about 320 ms) alone at the 90th percentile,
    # between 230 ms and 600 ms neighbours.
    jobs = []
    for b, m, n, fmt in ((3, 2, 6, "json"), (2, 3, 6, "json"), (2, 2, 9, "csv"), (4, 2, 5, "json"),
                         (3, 3, 4, "human")):
        jobs.append(Job(f"jsr.b{b}m{m}", ["jsr", "-b", str(b), "-m", str(m), "-n", str(n), *_fmt(fmt)],
                        dict(cmd="jsr", b=b, m=m, n=n, fmt=fmt)))

    def cycle_words(b, m, length):
        # consecutive windows of a cyclic digit string: a PO periodic product
        c = g.digits(b, length)
        return tuple(tuple(c[(i + j) % length] for j in range(m)) for i in range(length))

    for name, b, m, words in (
        ("periodic.po.b3m2", 3, 2, cycle_words(3, 2, 3)),
        ("periodic.po.b2m3", 2, 3, cycle_words(2, 3, 4)),
        ("periodic.any.b3m3", 3, 3, g.words(3, 3, 2)),
    ):
        text = "|".join(ref.format_word(w) for w in words)
        jobs.append(Job(name, ["jsr", "-b", str(b), "-m", str(m), "-n", "3", "--check-periodic", text, "--json"],
                        dict(cmd="jsr", b=b, m=m, n=3, words=words, fmt="json")))

    # from b=10 m=16, b=3 m=33 and b=2 m=53 on, b - root falls below the
    # float spacing at b and roots come back skipped: a known defect
    for b, m in ((2, 2), (3, 8), (10, 6), (5, 18), (3, 24), (2, 40), (10, 55), (3, 40), (2, 56)):
        jobs.append(Job(f"roots.b{b}m{m}", ["roots", "-b", str(b), "-m", str(m), "--kind", "all", "--json"],
                        dict(cmd="roots", b=b, m=m, fmt="json"), probe=m >= 55 or (b, m) == (3, 40)))

    jobs.append(Job("build-pq.m3", ["build-pq", "-m", "3", "--s", "1/4", "--t", "1/2", "--cycles", "12", "--json"],
                    dict(cmd="build-pq", m=3, s=Fraction(1, 4), t=Fraction(1, 2), p1=1, cycles=12, fmt="json")))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    build = {"long-series": long_series, "exact-wide": exact_wide, "jsr-spectra": jsr_spectra}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return build[workload](_Gen(workload, seed))
