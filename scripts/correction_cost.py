"""Time each corrected advect job against its plain twin, end to end.

    python scripts/correction_cost.py

Every evolve job with corrections on that bench/workloads.py generates for
the advect workload, seeds 0-3, runs once through jumpspec.cli.main, which
hands its problem, derivative matrix, dt and output stride to mol.evolve.
The script then times mol.evolve on those arguments in process, best of
REPEATS, as is and with jump0 None (its plain twin: the same D and dt),
at one OpenBLAS thread. It prints each job's two times and their ratio,
then the median ratio and the median of each side's times. It only reads
bench/workloads.py; it writes nothing but a temporary directory.
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


def best_time(args: tuple) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        mol.evolve(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    corrected, plain = [], []
    print(f"{'job':8} {'corrected_ms':>12} {'plain_ms':>9} {'ratio':>6}")
    for name, (problem, *rest) in corrected_runs():
        twin = dataclasses.replace(problem, jump0=None)
        corrected.append(best_time((problem, *rest)))
        plain.append(best_time((twin, *rest)))
        print(f"{name:8} {1e3 * corrected[-1]:12.2f} {1e3 * plain[-1]:9.2f} {corrected[-1] / plain[-1]:6.2f}")
    ratio = statistics.median(c / q for c, q in zip(corrected, plain))
    print(f"{len(corrected)} corrected jobs: median ratio {ratio:.2f}, median corrected "
          f"{1e3 * statistics.median(corrected):.2f} ms, median plain {1e3 * statistics.median(plain):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
