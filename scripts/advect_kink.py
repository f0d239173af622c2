#!/usr/bin/env python3
"""Advect a kinked profile u(x, 0) = |x + 1/2| at unit speed to t = 1,
once with jump corrections and once without.

The discontinuity moves through half the grid nodes during the run; the
stepper lands exactly on every node-crossing time and, between two
crossings, applies one step matrix and a forcing row built once for that
segment, from powers of the derivative matrix built once per run and the
corrected derivative at the bracket midpoint. The
corrected run must end within 1e-10 of the exact solution, so a loss of
stepper precision fails the script. result.csv holds the recorded states,
discontinuity path and max-norm errors against the translated exact
solution.
"""

import argparse
import json
import os

from jumpspec.cli import main as jumpspec_main

BASE = {
    "grid": {"family": "chebyshev_gauss_lobatto", "a": -1.0, "b": 1.0, "N": 32},
    "speed": 1.0,
    "t_final": 1.0,
    "dt": 1e-3,
    "output_every": 100,
    "initial": {"kind": "kink", "xi0": -0.5},
}


def run(outdir: str) -> int:
    worst = 0
    for name, corrections in (("corrected", True), ("uncorrected", False)):
        cfg = dict(BASE)
        cfg["corrections"] = corrections
        if corrections:
            cfg["checks"] = [{"kind": "final_linf_leq", "value": 1e-10}]
        exp_dir = os.path.join(outdir, name)
        os.makedirs(exp_dir, exist_ok=True)
        cfg_path = os.path.join(exp_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        code = jumpspec_main(["evolve", "--config", cfg_path, "--out", exp_dir])
        worst = max(worst, code)
        with open(os.path.join(exp_dir, "report.json")) as fh:
            report = json.load(fh)
        print(f"{name}: final max-norm error {report['final_linf']:.3e}")
    return worst


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="out/advect_kink")
    raise SystemExit(run(p.parse_args().out))
