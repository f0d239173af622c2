#!/usr/bin/env python3
"""Max-error convergence of corrected interpolation on the kinked Legendre
reference, for several enforced jump orders.

Produces result.csv rows (N, M, linf_error) plus fitted convergence orders
in report.json. Expected picture: plain interpolation saturates near first
order at the kink, enforcing M jumps buys roughly order M, and overly large
M wastes effort without converging faster than the intermediate choice.
"""

import _study

CONFIG = {
    "problem": {"type": "legendre", "l": 2, "xi": -0.55},
    "family": "chebyshev_gauss_lobatto",
    "a": -0.9,
    "b": 0.9,
    "N_list": list(range(10, 41)),
    "M_list": [-1, 5, 15],
    "probes": 1000,
    "checks": [
        {"kind": "order_geq", "M": 5, "value": 5.0},
        {"kind": "error_at_leq", "M": 15, "N": 40, "value": 1e-10},
    ],
}

if __name__ == "__main__":
    # one experiment, written straight into --out
    _study.run(__doc__, "converge", "out/convergence_study", [("", CONFIG)],
               lambda _, report: "\n".join(
                   f"M={fit['M']:>3}: fitted order {fit['algebraic_order']:6.2f}"
                   f"  exponential regime: {fit['exponential_regime']}" for fit in report["fits"]))
