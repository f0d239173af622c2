"""Hash the outputs of the benchmark's jobs and of the experiment scripts,
to show that a change keeps them byte-identical.

    python scripts/output_hashes.py [TREE ...]

For each TREE, a source checkout of jumpspec (default: this one), a fresh
Python process with TREE/src first on its path and RuntimeWarning raised as
an error runs, in process through jumpspec.cli.main, every job that this
checkout's bench/workloads.py generates for seeds 0-3, and then this
checkout's three scripts/ studies. It prints a SHA-256 per workload, of each
job's command, exit code, stderr and output files; one for the studies,
"studies", of each study's exit code, stdout and output files; and one over
them all. Given two or more trees, it exits 1 when their hashes differ and
names the entries that do. To compare a change with its parent commit:

    git archive --prefix=parent/ HEAD~1 | tar -x -C ..
    python scripts/output_hashes.py . ../parent
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
STUDIES = ("interp_study", "convergence_study", "advect_kink")


def _field(h, data) -> None:
    """Hash one field, length first, so that fields cannot run together."""
    data = data if isinstance(data, bytes) else str(data).encode()
    h.update(b"%d:" % len(data) + data)


def _hash_files(h, root: Path) -> None:
    """Hash the path, relative to root, and the bytes of each file under root."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        _field(h, path.relative_to(root).as_posix())
        _field(h, path.read_bytes())


def _hash_studies() -> str:
    """SHA-256 of each scripts/ study's exit code, stdout and output files,
    run in process, in the current directory."""
    h = hashlib.sha256()
    for study in STUDIES:
        out = Path("studies") / study
        sys.argv = [f"{study}.py", "--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                runpy.run_path(str(ROOT / "scripts" / f"{study}.py"), run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code
        for value in (study, code, stdout.getvalue()):
            _field(h, value)
        _hash_files(h, out)
    return h.hexdigest()


def _hash_jobs(src: Path) -> dict:
    """{workload: SHA-256} of the jobs of seeds 0-3, and {"studies": SHA-256}
    of the scripts/ studies, run with the jumpspec of src."""
    sys.path[:0] = [str(src), str(ROOT / "bench"), str(ROOT / "scripts")]
    import jumpspec
    import workloads
    from jumpspec.cli import main

    if Path(jumpspec.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported {jumpspec.__file__}, not the jumpspec of {src}")
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths, so that no message names the directory
        for workload in workloads.WORKLOADS:
            h = hashlib.sha256()
            for seed in SEEDS:
                for i, (command, cfg) in enumerate(workloads.generate(workload, seed)):
                    job = Path(f"{workload}-{seed}-{i:02d}")
                    job.mkdir()
                    (job / "config.json").write_bytes(workloads.config_bytes(cfg))
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = main([command, "--config", str(job / "config.json"), "--out", str(job / "out")])
                    for value in (command, code, err.getvalue()):
                        _field(h, value)
                    _hash_files(h, job / "out")
            hashes[workload] = h.hexdigest()
        hashes["studies"] = _hash_studies()
        os.chdir(ROOT)
    total = hashlib.sha256()
    for workload, digest in hashes.items():
        _field(total, workload)
        _field(total, digest)
    return {**hashes, "total": total.hexdigest()}


def _run_tree(tree: Path) -> dict:
    """The hashes of one tree, from a child process of its own."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", __file__, "--child", str(tree / "src")],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"hashing {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="*", type=Path, default=[ROOT], help="jumpspec source checkouts")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        print(json.dumps(_hash_jobs(args.child)))
        return 0
    results = [_run_tree(tree) for tree in args.trees]
    for tree, hashes in zip(args.trees, results):
        print(f"== {tree}")
        for name, digest in hashes.items():
            print(f"{name:14} {digest}")
    differ = [name for name in results[0] if name != "total" and len({r[name] for r in results}) > 1]
    if differ:
        print(f"outputs differ in: {', '.join(differ)}")
        return 1
    if len(results) > 1:
        print(f"outputs identical across {len(results)} trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
