#!/usr/bin/env python3
"""Tabulate plain vs jump-corrected interpolation of the kinked Legendre
reference on 13 nodes, for both node families.

Writes one experiment directory per family under --out, each holding the
generated config plus result.csv / report.json; the CSV columns are dense
probes of the exact function, every interpolant and its pointwise error.
"""

import _study

BASE = {
    "problem": {"type": "legendre", "l": 2, "xi": -0.55},
    "M": [-1, 6, 12],
    "probes": 2000,
}
CHECKS = {
    "chebyshev_gauss_lobatto": {"kind": "ratio_leq", "num": "M6", "den": "lagrange", "value": 0.01},
    "equidistant": {"kind": "ratio_leq", "num": "M6", "den": "M12", "value": 1.0},
}

if __name__ == "__main__":
    _study.run(__doc__, "interp", "out/interp_study",
               [(family, {**BASE, "grid": {"family": family, "a": -0.9, "b": 0.9, "N": 12},
                          "checks": [check]}) for family, check in CHECKS.items()],
               lambda family, report: f"{family}: max errors {report['max_error']}")
