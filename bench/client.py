"""The benchmark's closed-loop client and its latency summary.

One client runs the cycle's jobs one after the other through the public
entry `jumpspec.cli.main`, in-process, as `scripts/*.py` do, and verifies
each execution before starting the next.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from time import perf_counter

import verify
from tracing import JOB_SPAN

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# reported in the table and gating `correct`, but not bounded metrics: the
# first is 0 on a correct program, the second is an accuracy figure whose
# spread across seeds says nothing about speed
GATES = [("fail_ratio", "1"), ("err_over_tol_max", "1")]


class Client:
    """Closed-loop single client: runs jobs one after the other and verifies each."""

    def __init__(self, jobs) -> None:
        from jumpspec.cli import main

        self.main = main
        self.jobs = jobs
        self.verifier = verify.Verifier()
        self.walls: list[float] = []
        self.ratios: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run_job(self, i: int, tracer=None) -> float:
        command, cfg, cfg_path, out = self.jobs[i]
        argv = [command, "--config", cfg_path, "--out", out]
        token = tracer.begin_job(i) if tracer else None
        t0 = perf_counter()
        try:
            code = self.main(argv)
        except Exception:  # a crash is a failed job; keep measuring the rest
            traceback.print_exc(file=sys.stderr)
            code = -1
        wall = perf_counter() - t0
        if tracer:
            tracer.close(token, JOB_SPAN)
        ok, ratio, reason = self.verifier.check(i, command, cfg, out, code)
        self.attempted += 1
        if not ok:
            self.failures.append(f"job {i} ({command}): {reason}")
        if not math.isnan(ratio):
            self.ratios.append(ratio)
        return wall

    def run_cycle(self, tracer=None) -> float:
        """One pass over the cycle; returns the summed job wall time."""
        walls = [self.run_job(i, tracer) for i in range(len(self.jobs))]
        if tracer is None:
            self.walls += walls
        return sum(walls)


MIN_CYCLES = 3


def best_times(walls: list[float], cycle: int) -> list[float]:
    """Each config's fastest execution: walls hold whole cycles in execution
    order. Other processes on a shared host only ever add time, in bursts of
    a few seconds, so the best of several executions spread over the run
    measures the program and not its neighbours."""
    return [min(walls[j::cycle]) for j in range(cycle)]


def summarize(walls: list[float], cycle: int) -> dict:
    """Throughput, median and tail of a run from its per-config best times.

    Every config ran the same number of times, so each execution counts
    with its config's best time: the median is over configs, and the tail is
    the highest percentile with at least ten executions beyond it.
    """
    best = best_times(walls, cycle)
    runs = len(walls) // cycle
    pct, tail = tail_percentile([t for t in best for _ in range(runs)])
    return {
        "jobs_per_s": cycle / sum(best),
        "job_p50_s": statistics.median(best),
        "job_tail_s": tail,
        "tail_percentile": pct,
        "executions": len(walls),
        "cycles": runs,
    }


def tail_percentile(walls: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with at least ten
    samples beyond it: the eleventh-largest sample, by nearest rank, but
    never below the median."""
    s = sorted(walls)
    n = len(s)
    k = max(n - 10, math.ceil(n / 2))
    return 100.0 * k / n, s[k - 1]
