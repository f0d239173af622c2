"""Seeded job generator for the three benchmark workloads.

A workload is a fixed cycle of CLI jobs. The cycle's shape (which command,
grid family, size, derivative order, probe count and problem type each slot
has) is fixed per workload, so the work per cycle barely depends on the seed;
the seed draws everything else: intervals, discontinuity locations, problem
parameters, speeds and the order of the slots. Every config carries
`checks` against the analytic reference, so the CLI verifies its own output.

Invariants the benchmark tests pin down:
- the same seed gives byte-identical config files;
- no discontinuity (`xi`, `xi0`, or the advected path at `t_final`) lies
  within `NODE_MARGIN` local spacings of a grid node;
- every `evolve` dt sits inside half the RK4 stability limit of its grid.

Tolerances are fixed per slot, about two orders of magnitude above the
largest error the slot showed across seeds, so they catch a broken
correction but not rounding noise.
"""

from __future__ import annotations

import json
import random

import numpy as np

WORKLOADS = ("advect", "operators", "interp-sweep")

NODE_MARGIN = 0.05  # closest allowed approach of xi to a node, in local spacings
DT_SAFETY = 0.5  # evolve's dt stays at or below this share of the RK4 limit
EVOLVE_STEPS = 1200  # RK4 steps per evolve job, before crossing splits


# ---------------------------------------------------------------------------
# grids and stability, computed independently of the package under test


def grid_nodes(family: str, a: float, b: float, N: int) -> np.ndarray:
    """Nodes of the CLI's grid families, from their defining formulas."""
    i = np.arange(N + 1)
    if family == "equidistant":
        return a + (b - a) * i / N
    return 0.5 * (a + b) + 0.5 * (a - b) * np.cos(np.pi * i / N)


def off_nodes(x: float, nodes: np.ndarray, margin: float = NODE_MARGIN) -> bool:
    """True when x lies strictly inside the grid, at least `margin` local
    spacings away from both neighbouring nodes."""
    j = int(np.searchsorted(nodes, x))
    if not 0 < j < nodes.size:
        return False
    h = nodes[j] - nodes[j - 1]
    return min(x - nodes[j - 1], nodes[j] - x) >= margin * h


def first_derivative_matrix(nodes: np.ndarray, m: int) -> np.ndarray:
    """First-derivative matrix with (m+1)-point stencils, the CLI's layout.

    Each row differentiates the Lagrange interpolant of its stencil at the
    row's own node, which is always a stencil node, so the closed
    barycentric form D_ij = (lam_j / lam_i) / (x_i - x_j) applies with the
    negative-sum diagonal (Berrut & Trefethen, SIAM Rev. 46, 2004, section 9).
    """
    N = nodes.size - 1
    D = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        s = min(max(i - (m + 1) // 2, 0), N - m)
        x = nodes[s : s + m + 1]
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        lam = 1.0 / diff.prod(axis=1)
        k = i - s
        row = np.zeros(m + 1)
        others = np.arange(m + 1) != k
        row[others] = (lam[others] / lam[k]) / (x[k] - x[others])
        row[k] = -row[others].sum()
        D[i, s : s + m + 1] = row
    return D


def rk4_amplification(z: np.ndarray) -> np.ndarray:
    return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)


def rk4_dt_limit(D: np.ndarray, speed: float) -> float:
    """Largest dt keeping every eigenvalue of the inflow-reduced operator
    -c D inside the RK4 stability region (the stepper overwrites the inflow
    node after each step, so that row and column drop out)."""
    keep = slice(1, None) if speed > 0 else slice(None, -1)
    lam = np.linalg.eigvals(-speed * D[keep, keep])
    stable = lambda h: np.max(rk4_amplification(h * lam)) <= 1.0 + 1e-12
    # the region ends before |z| = 3 on every ray: scan for the first
    # unstable step, then bisect between it and the last stable one
    hs = np.linspace(0.0, 3.0 / np.max(np.abs(lam)), 301)
    k = next(k for k, h in enumerate(hs) if not stable(h))
    lo, hi = hs[k - 1], hs[k]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return float(lo)


# ---------------------------------------------------------------------------
# problems


def _round(x: float, digits: int = 6) -> float:
    return float(round(x, digits))


def _draw_xi(rng: random.Random, lo: float, hi: float, grids: list[np.ndarray]) -> float:
    while True:
        xi = _round(rng.uniform(lo, hi))
        if all(off_nodes(xi, nodes) for nodes in grids):
            return xi


def _legendre(rng: random.Random, a: float, b: float, grids: list[np.ndarray]) -> dict:
    return {"type": "legendre", "l": rng.randint(1, 4), "xi": _draw_xi(rng, 0.6 * a, 0.6 * b, grids)}


def _synthetic(rng: random.Random, a: float, b: float, grids: list[np.ndarray], degree: int) -> dict:
    coeffs = lambda: [_round(rng.uniform(-1.0, 1.0)) for _ in range(degree + 1)]
    xi = _draw_xi(rng, a + 0.2 * (b - a), b - 0.2 * (b - a), grids)
    return {"type": "synthetic", "left": coeffs(), "right": coeffs(), "xi": xi}


def _problem(rng, kind, a, b, grids, degree=4):
    if kind == "legendre":
        return _legendre(rng, a, b, grids)
    return _synthetic(rng, a, b, grids, degree)


def _legendre_interval(rng: random.Random) -> tuple[float, float]:
    # Legendre references need [a, b] inside (-1, 1)
    return _round(rng.uniform(-0.95, -0.85)), _round(rng.uniform(0.85, 0.95))


def _synthetic_interval(rng: random.Random) -> tuple[float, float]:
    a = _round(rng.uniform(-1.5, -0.5))
    return a, _round(a + rng.uniform(1.5, 2.5))


def _interval(rng, kind):
    return _legendre_interval(rng) if kind == "legendre" else _synthetic_interval(rng)


# ---------------------------------------------------------------------------
# workloads

# (family, N, m or None for pseudospectral, profile, corrections, tolerance)
# The two costliest slots are twins, so the tail lands on the same shape
# whichever of them the number of completed cycles selects.
# Step profiles run only uncorrected: with corrections on, evolve does not
# carry the value jump J_0 across a node, and the final error reaches several
# times the amplitude (see NOTES.md), so a corrected step job cannot pass a
# check against the reference. The uncorrected step's check only guards
# against blow-up: Gibbs ringing alone reaches a sizeable share of the jump.
ADVECT_SLOTS = [
    ("cgl", 24, None, "kink", True, 1e-10),
    ("cgl", 32, None, "kink", True, 1e-10),
    ("cgl", 48, None, "kink", True, 1e-10),
    ("cgl", 48, None, "kink", True, 1e-10),
    ("cgl", 40, 6, "kink", True, 1e-10),
    ("equidistant", 48, 2, "kink", True, 1e-10),
    ("cgl", 32, None, "kink", False, 0.2),
    ("equidistant", 48, 2, "step", False, 2.0),
]


def _advect_job(rng: random.Random, slot) -> dict:
    family, N, m, profile, corrections, tol = slot
    a = _round(rng.uniform(-1.2, -0.8))
    b = _round(a + rng.uniform(1.8, 2.4))
    speed = _round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
    amplitude = _round(rng.uniform(0.5, 2.0))
    L = b - a
    travel = 0.6 * L
    t_final = _round(travel / abs(speed))
    nodes = grid_nodes(family, a, b, N)
    lo, hi = a + 0.1 * L, b - 0.1 * L - travel
    while True:
        start = _round(rng.uniform(lo, hi))
        xi0 = start if speed > 0 else _round(a + b - start)
        if off_nodes(xi0, nodes) and off_nodes(xi0 + speed * t_final, nodes):
            break
    limit = rk4_dt_limit(first_derivative_matrix(nodes, N if m is None else m), speed)
    dt = float(f"{min(DT_SAFETY * limit, t_final / EVOLVE_STEPS):.3g}")
    tolerance = tol * amplitude
    grid = {"family": family, "a": a, "b": b, "N": N}
    cfg = {
        "grid": grid,
        "speed": speed,
        "t_final": t_final,
        "dt": dt,
        "output_every": 40,
        "initial": {"kind": profile, "xi0": xi0, "amplitude": amplitude},
        "corrections": corrections,
        "checks": [{"kind": "final_linf_leq", "value": tolerance}],
    }
    if m is not None:
        cfg["m"] = m
    return cfg


# ("diff", family, N, m or None, n, M, problem kind, tolerance)
# ("quad", family, N, M, problem kind, tolerance)
OPERATOR_SLOTS = [
    ("diff", "cgl", 64, None, 1, 12, "legendre", 1e-6),
    ("diff", "cgl", 64, None, 2, 12, "synthetic", 1e-6),
    ("diff", "cgl", 72, None, 2, 12, "legendre", 1e-4),
    ("diff", "cgl", 80, None, 1, 12, "synthetic", 1e-8),
    ("diff", "equidistant", 200, 8, 1, 6, "legendre", 1e-2),
    ("diff", "equidistant", 300, 6, 2, 6, "synthetic", 1e-7),
    ("diff", "cgl", 160, 8, 1, 6, "legendre", 1e-5),
    ("diff", "equidistant", 400, 4, 1, 4, "synthetic", 1e-9),
    ("quad", "cgl", 16, 8, "legendre", 1e-4),
    ("quad", "cgl", 32, 8, "synthetic", 1e-12),
    ("quad", "cgl", 24, 8, "legendre", 1e-6),
    ("quad", "cgl", 48, 10, "legendre", 1e-11),
    ("quad", "equidistant", 20, 6, "synthetic", 1e-8),
]


def _operator_job(rng: random.Random, slot) -> tuple[str, dict]:
    if slot[0] == "diff":
        _, family, N, m, n, M, kind, tol = slot
    else:
        _, family, N, M, kind, tol = slot
    a, b = _interval(rng, kind)
    nodes = grid_nodes(family, a, b, N)
    grid = {"family": family, "a": a, "b": b, "N": N}
    cfg = {"problem": _problem(rng, kind, a, b, [nodes]), "grid": grid, "M": M}
    cfg["checks"] = [{"kind": "max_error_leq", "label": "corrected", "value": tol}]
    if slot[0] == "diff":
        cfg["n"] = n
        if m is not None:
            cfg["m"] = m
    return slot[0], cfg


# ("interp", family, N, probes, M list, problem kind, tolerance)
# Converge jobs stay the cheapest in the cycle: their two pool threads make
# their times the noisiest of the benchmark, so they should set neither the
# median nor the tail.
# ("converge", family, N_list, M_list, probes, problem kind, checked (N, M), tolerance)
INTERP_SLOTS = [
    ("interp", "cgl", 16, 8000, [-1, 4, 8], "legendre", 1e-2),
    ("interp", "equidistant", 12, 8000, [-1, 4, 6], "synthetic", 1e-11),
    ("interp", "cgl", 32, 10000, [-1, 6, 12], "legendre", 1e-4),
    ("interp", "cgl", 48, 10000, [-1, 8, 12], "legendre", 1e-6),
    ("interp", "cgl", 64, 10000, [-1, 8, 12], "synthetic", 1e-12),
    ("interp", "equidistant", 20, 8000, [-1, 4, 8], "synthetic", 1e-9),
    ("converge", "cgl", list(range(10, 41, 2)), [-1, 5, 10], 1000, "legendre", (40, 10), 1e-5),
    ("converge", "equidistant", list(range(8, 21)), [-1, 3, 6], 1000, "synthetic", (20, 6), 1e-9),
    ("converge", "cgl", list(range(12, 49, 4)), [-1, 4, 8, 12], 1200, "legendre", (48, 12), 1e-7),
]


def _interp_job(rng: random.Random, slot) -> tuple[str, dict]:
    if slot[0] == "interp":
        _, family, N, probes, Ms, kind, tol = slot
        a, b = _interval(rng, kind)
        nodes = grid_nodes(family, a, b, N)
        cfg = {
            "problem": _problem(rng, kind, a, b, [nodes]),
            "grid": {"family": family, "a": a, "b": b, "N": N},
            "M": Ms,
            "probes": probes,
            "checks": [
                {"kind": "max_error_leq", "label": f"M{M}", "value": tol} for M in Ms if M >= 0
            ],
        }
        return "interp", cfg
    _, family, N_list, M_list, probes, kind, (Nc, Mc), tol = slot
    a, b = _interval(rng, kind)
    grids = [grid_nodes(family, a, b, N) for N in N_list]
    cfg = {
        "problem": _problem(rng, kind, a, b, grids),
        "family": family,
        "a": a,
        "b": b,
        "N_list": N_list,
        "M_list": M_list,
        "probes": probes,
        "checks": [{"kind": "error_at_leq", "N": Nc, "M": Mc, "value": tol}],
    }
    return "converge", cfg


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's job cycle for this seed: a list of (command, config)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "advect":
        jobs = [("evolve", _advect_job(rng, slot)) for slot in ADVECT_SLOTS]
    elif workload == "operators":
        jobs = [_operator_job(rng, slot) for slot in OPERATOR_SLOTS]
    elif workload == "interp-sweep":
        jobs = [_interp_job(rng, slot) for slot in INTERP_SLOTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def config_bytes(cfg: dict) -> bytes:
    return (json.dumps(cfg, indent=1, sort_keys=True) + "\n").encode()


def tolerance_checks(cfg: dict) -> list[float]:
    """Tolerances of the config's error checks, in config order."""
    return [float(c["value"]) for c in cfg.get("checks", []) if c["kind"].endswith("_leq")]
