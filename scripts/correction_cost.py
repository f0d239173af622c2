"""Time each corrected advect job against its plain twin, end to end.

    python scripts/correction_cost.py

Every evolve job with corrections on that bench/workloads.py generates for
the advect workload, seeds 0-3, runs once through jumpspec.cli.main, which
hands its problem, derivative matrix, dt and output stride to mol.evolve.
The script then times mol.evolve on those arguments in process, best of
REPEATS, as is and with jump0 None (its plain twin: the same D and dt),
at one OpenBLAS thread. Wrappers on mol._step_matrix and mol._forcing_maps
time the segment builds of those runs. It prints each job's two times and
their ratio, its segment count and, on each side, the build time of one
segment (the run's build time over its segments, best of REPEATS); then
the median ratio and the median of each column. It only reads bench/workloads.py; it writes nothing but a
temporary directory.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import dataclasses
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from jumpspec import cli, mol  # noqa: E402

SEEDS = range(4)
REPEATS = 5  # timed runs per side, the best kept


def corrected_runs() -> list[tuple[str, tuple]]:
    """(job name, mol.evolve's arguments) of every corrected advect job,
    the arguments as jumpspec.cli.main passes them."""
    names, calls = [], []
    cli.evolve = lambda *args: calls.append(args) or mol.evolve(*args)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for seed in SEEDS:
                for i, (command, cfg) in enumerate(workloads.generate("advect", seed)):
                    if command != "evolve" or not cfg["corrections"]:
                        continue
                    names.append(f"{seed}-{i:02d}")
                    config = Path(tmp) / f"{names[-1]}.json"
                    config.write_bytes(workloads.config_bytes(cfg))
                    if cli.main(["evolve", "--config", str(config), "--out", str(Path(tmp) / names[-1])]) != 0:
                        raise SystemExit(f"advect job {names[-1]} failed")
    finally:
        cli.evolve = mol.evolve
    return list(zip(names, calls))


def best_times(args: tuple) -> tuple[float, float, int]:
    """Best of REPEATS runs of mol.evolve(*args): the run's time, the build
    time of one of its segments, and its number of segments. A run builds
    each segment's step matrix (mol._step_matrix) as the segment starts and
    the forcing maps of a group of segments (mol._forcing_maps, corrected
    runs only) at once, so a segment's build time is the run's time in both
    over its segment count."""
    real, builds, segments = {}, [], []

    def timed(name):
        def call(*a):
            start = time.perf_counter()
            out = real[name](*a)
            builds.append(time.perf_counter() - start)
            return out

        return call

    best = best_build = float("inf")
    for name in ("_step_matrix", "_forcing_maps"):
        real[name] = getattr(mol, name)
        setattr(mol, name, timed(name))
    try:
        for _ in range(REPEATS):
            builds.clear()
            start = time.perf_counter()
            mol.evolve(*args)
            best = min(best, time.perf_counter() - start)
            segments = len(mol._segments(args[0]))
            best_build = min(best_build, sum(builds) / segments)
    finally:
        for name, function in real.items():
            setattr(mol, name, function)
    return best, best_build, segments


def main() -> int:
    rows = []  # per job: corrected and plain ms, their ratio, segments, corrected and plain us per build
    print(f"{'job':8} {'corrected_ms':>12} {'plain_ms':>9} {'ratio':>6} {'segments':>8} "
          f"{'segment_us':>10} {'plain_segment_us':>16}")
    for name, (problem, *rest) in corrected_runs():
        c, c_build, segments = best_times((problem, *rest))
        q, q_build, _ = best_times((dataclasses.replace(problem, jump0=None), *rest))
        rows.append((1e3 * c, 1e3 * q, c / q, segments, 1e6 * c_build, 1e6 * q_build))
        print("{:8} {:12.2f} {:9.2f} {:6.2f} {:8d} {:10.1f} {:16.1f}".format(name, *rows[-1]))
    c, q, ratio, segments, c_build, q_build = map(statistics.median, zip(*rows))
    print(f"{len(rows)} corrected jobs: median ratio {ratio:.2f}, median corrected {c:.2f} ms, median plain "
          f"{q:.2f} ms, median segments {segments:g}, median segment build {c_build:.1f} us corrected, "
          f"{q_build:.1f} us plain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
