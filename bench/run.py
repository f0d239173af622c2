#!/usr/bin/env python3
"""Benchmark of the jumpspec command line, end to end and layer by layer.

    python3 bench/run.py --workload advect --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that has `src/jumpspec`; nothing needs
building or installing. A run generates the workload's seeded job cycle
(see workloads.py and NOTES.md), then, as a single closed-loop client, calls
`jumpspec.cli.main` in-process on one job after the other, each with its own
config file and output directory, repeating whole cycles until `--seconds`
have passed. Every execution is verified (verify.py).

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced passes over the cycle for `--seconds` and
reports the per-layer metrics of the traced passes (tracing.py), plus the
traced over untraced wall time as `trace.overhead_ratio`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
environment and a table of every metric with its unit and sample count.
Work files (configs, outputs, spans, the full result) go to
`bench/.work/<workload>/`, which each run replaces.
"""

from __future__ import annotations

import os
import sys

# Pin the thread pools before numpy loads: BLAS to one thread, the converge
# pool to at most two and never more than the CPUs this process may use, so
# the load comes from this one process and the numbers measure the program
# rather than the scheduler.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ["JUMPSPEC_THREADS"] = str(min(2, NPROC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from client import END_TO_END, GATES, MIN_CYCLES, Client, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"


def _environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "JUMPSPEC_THREADS": os.environ["JUMPSPEC_THREADS"],
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _write_jobs(workload: str, seed: int, dest: Path) -> list[tuple[str, dict, str, str]]:
    """Generate the cycle and write each config; (command, config, config path, out dir)."""
    jobs = []
    for i, (command, cfg) in enumerate(workloads.generate(workload, seed)):
        job_dir = dest / f"{i:02d}-{command}"
        job_dir.mkdir(parents=True)
        cfg_path = job_dir / "config.json"
        cfg_path.write_bytes(workloads.config_bytes(cfg))
        jobs.append((command, cfg, str(cfg_path), str(job_dir / "out")))
    return jobs


def _setup_seconds(args, k: int) -> float:
    """Wall time from process start until the first job could run, measured
    on a fresh interpreter that imports the package and writes the configs."""
    probe = WORK / args.workload / f"setup-{k}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(probe)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code}")
    shutil.rmtree(probe)
    return t1 - t0


def _print_table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def run_untraced(args, client: Client) -> tuple[dict, list]:
    # one set-up probe per cycle spreads them over the run, like the jobs
    setup = [_setup_seconds(args, 0)]
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(client.walls) < MIN_CYCLES * len(client.jobs):
        client.run_cycle()
        setup.append(_setup_seconds(args, len(setup)))
    summary = summarize(client.walls, len(client.jobs))
    n, K = summary["executions"], len(client.jobs)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": summary["jobs_per_s"],
        "job_p50_s": summary["job_p50_s"],
        "job_tail_s": summary["job_tail_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(client.failures) / client.attempted,
        "err_over_tol_max": max(client.ratios, default=float("nan")),
    }
    best = f"best of {summary['cycles']} per config, {K} configs, n={n}"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, one per cycle",
        "jobs_per_s": best,
        "job_p50_s": best,
        "job_tail_s": f"p{summary['tail_percentile']:.1f}, " + best,
        "peak_rss_mb": "ru_maxrss of the client process",
        "fail_ratio": f"{len(client.failures)} of {client.attempted}",
        "err_over_tol_max": f"n={len(client.ratios)}",
    }
    rows = [(k, metrics[k], u, notes[k]) for k, u in END_TO_END + GATES]
    return metrics, rows


def run_traced(args, client: Client) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    passes = 0
    start = perf_counter()
    # first executions also create output files and trigger lazy imports
    client.run_cycle()
    while perf_counter() - start < args.seconds or passes == 0:
        untraced += client.run_cycle()
        undo = tracing.install(tracer)
        try:
            traced += client.run_cycle(tracer)
        finally:
            undo()
        passes += 1
    spans = tracer.spans()
    metrics = tracing.layer_metrics(spans, passes, traced, untraced)
    tracer.write(str(WORK / args.workload / "trace.csv"))
    note = f"per pass, {passes} traced passes, {spans['sid'].size} spans"
    rows = [(k, metrics[k], u, note) for k, u in tracing.PER_LAYER]
    print("span durations by size (mean over calls; cross-check table):")
    for name, key, calls, mean in tracing.size_table(spans, passes):
        print(f"  {name:<32} {key:<24} {calls:>7} calls/pass {1e6 * mean:>12.1f} us")
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w, *rest]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)

    if not (SRC / "jumpspec" / "cli.py").is_file():
        print(f"bench: no jumpspec sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        import jumpspec.cli  # noqa: F401  (the import is part of set-up)

        _write_jobs(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _environment(args.workload, args.seed)
    client = Client(_write_jobs(args.workload, args.seed, work / "jobs"))
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics, rows = (run_traced if args.trace else run_untraced)(args, client)
    print(f"{args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}):")
    _print_table(rows)
    for failure in client.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    units = dict(tracing.PER_LAYER if args.trace else END_TO_END)
    failed = len(client.failures)
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "failures": client.failures, "all_metrics": metrics,
                   "walls": client.walls, "cycle": len(client.jobs), **result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
