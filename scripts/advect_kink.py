#!/usr/bin/env python3
"""Advect a kinked profile u(x, 0) = |x + 1/2| at unit speed to t = 1,
once with jump corrections and once without.

The discontinuity moves through half the grid nodes during the run; the
stepper lands exactly on every node-crossing time and, between two
crossings, applies one step matrix and each step's own forcing row. Each
segment builds its step matrix and its forcing map once, from powers of
the derivative matrix built once per run and the corrected derivative at
the bracket midpoint; the forcing rows are built from that map one block
of steps at a time. The corrected run must end within 1e-10 of the exact
solution, so a loss of stepper precision fails the script. result.csv
holds the recorded states, discontinuity path and max-norm errors against
the translated exact solution.
"""

import _study

BASE = {
    "grid": {"family": "chebyshev_gauss_lobatto", "a": -1.0, "b": 1.0, "N": 32},
    "speed": 1.0,
    "t_final": 1.0,
    "dt": 1e-3,
    "output_every": 100,
    "initial": {"kind": "kink", "xi0": -0.5},
}

if __name__ == "__main__":
    _study.run(__doc__, "evolve", "out/advect_kink",
               [("corrected", {**BASE, "corrections": True,
                               "checks": [{"kind": "final_linf_leq", "value": 1e-10}]}),
                ("uncorrected", {**BASE, "corrections": False})],
               lambda name, report: f"{name}: final max-norm error {report['final_linf']:.3e}")
