"""Command-line front end: experiment configs in, CSV and JSON artifacts out.

Every subcommand reads a single JSON config and writes result.csv plus
report.json into the output directory. Runs are deterministic: identical
configs produce byte-identical outputs. Configs may carry a "checks" list of
tolerance assertions; the process exits 0 only when the run completes and
all checks pass (1 for failed checks, 2 for config or usage errors, 3 for a
numerical failure such as a state that stops being finite).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .diffmat import apply, derivative_matrix
from .grid import Grid, chebyshev_gauss_lobatto, custom, equidistant
from .jumps import (
    JumpData,
    corrected_derivative,
    corrected_integrate,
    corrected_interpolate,
    correction_matrix,
)
from .lagrange import barycentric_weights, interpolate
from .mol import AdvectionProblem, evolve
from .quadrature import integrate, quad_weights
from .refproblems import LegendreProblem, SyntheticPiecewise

__all__ = ["main", "probe_points", "fit_orders"]

_FAMILY_ALIASES = {
    "equidistant": "equidistant",
    "cgl": "chebyshev_gauss_lobatto",
    "chebyshev_gauss_lobatto": "chebyshev_gauss_lobatto",
    "custom": "custom",
}


def _fmt(v) -> str:
    return f"{v:.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _integer(value, key: str) -> int:
    """A config integer; rejects what int() would truncate or coerce (12.9, "12", true)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _flag(cfg: dict, key: str, default: bool = False) -> bool:
    """A config boolean; rejects what a truth test would coerce ("false", 0)."""
    value = cfg.get(key, default)
    if type(value) is bool:
        return value
    raise ValueError(f"{key} must be true or false, got {value!r}")


def _family(cfg: dict) -> str:
    """Canonical grid family name of a config's "family" entry (default cgl)."""
    family = _FAMILY_ALIASES.get(str(cfg.get("family", "cgl")).lower())
    if family is None:
        raise ValueError(f"unknown grid family {cfg.get('family')!r}")
    return family


def build_grid(cfg: dict) -> Grid:
    family = _family(cfg)
    if family == "custom":
        return custom(cfg["a"], cfg["b"], cfg["nodes"])
    a, b, N = float(cfg["a"]), float(cfg["b"]), _integer(cfg["N"], "N")
    if family == "equidistant":
        return equidistant(a, b, N)
    return chebyshev_gauss_lobatto(a, b, N)


def build_problem(cfg: dict):
    kind = str(cfg.get("type", "")).lower()
    if kind == "legendre":
        return LegendreProblem(_integer(cfg["l"], "l"), float(cfg["xi"]))
    if kind == "synthetic":
        return SyntheticPiecewise(
            np.asarray(cfg["left"], dtype=float),
            np.asarray(cfg["right"], dtype=float),
            float(cfg["xi"]),
        )
    raise ValueError(f"unknown problem type {cfg.get('type')!r}")


def _check_problem_domain(problem, g: Grid) -> None:
    if isinstance(problem, LegendreProblem) and (g.a <= -1.0 or g.b >= 1.0):
        raise ValueError("legendre problems need a grid inside the open interval (-1, 1)")
    if not g.a < problem.xi < g.b:
        raise ValueError("the problem's discontinuity must lie inside the grid interval")


def probe_points(a: float, b: float, xi: float | None, count: int) -> np.ndarray:
    """Deterministic probe set: equispaced points plus the two one-sided
    limits at the discontinuity (the method's accuracy claim includes the
    neighbourhood of xi, so probes are not excluded there)."""
    pts = np.linspace(a, b, count)
    if xi is not None and a < xi < b:
        pts = np.concatenate([pts, [np.nextafter(xi, a), np.nextafter(xi, b)]])
    return np.unique(pts)


def _jump_label(M: int) -> str:
    return "lagrange" if M < 0 else f"M{M}"


def _jump_order(value, key: str = "M") -> int:
    """A config jump order M: -1 for no correction, else the highest jump used."""
    M = _integer(value, key)
    if M < -1:
        raise ValueError(f"{key} must be >= -1, got {M}")
    return M


def _jump_orders(values: list, key: str) -> list[int]:
    """A config list of distinct jump orders."""
    out = [_jump_order(m, key) for m in values]
    if len(set(out)) < len(out):
        raise ValueError(f"{key} must be unique, got {out}")
    return out


def _as_m_list(cfg: dict, N: int) -> list[int]:
    raw = cfg.get("M", N // 2)
    out = _jump_orders(raw if isinstance(raw, list) else [raw], "M")
    for m in out:
        if m > N:
            raise ValueError(f"M={m} exceeds the grid degree N={N}")
    return out


def fit_orders(Ns, errs) -> dict:
    """Fit convergence orders from (N, error) pairs.

    Algebraic order is minus the least-squares slope of log error against
    log N; the exponential rate is minus the slope against N itself. Fitting
    uses the last half of the list once it has four or more points
    (pre-asymptotic points pollute slopes). The exponential_regime flag is
    set when the fit against N is straighter (smaller residual) than against
    log N.
    """
    Ns = np.asarray(Ns, dtype=float)
    errs = np.maximum(np.asarray(errs, dtype=float), 1e-300)
    k = Ns.size // 2 if Ns.size >= 4 else 0
    x_alg = np.log(Ns[k:])
    x_exp = Ns[k:]
    y = np.log(errs[k:])
    (slope_alg, _), res_alg = _linear_fit(x_alg, y)
    (slope_exp, _), res_exp = _linear_fit(x_exp, y)
    return {
        "algebraic_order": -slope_alg,
        "exponential_rate": -slope_exp,
        "exponential_regime": bool(res_exp < res_alg),
        "points_used": int(Ns.size - k),
    }


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[tuple[float, float], float]:
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = float(np.sum((A @ coef - y) ** 2))
    return (float(coef[0]), float(coef[1])), res


def _max_workers() -> int:
    env = os.environ.get("JUMPSPEC_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# checks


def _run_checks(cfg: dict, metrics: dict) -> list[dict]:
    results = []
    for chk in cfg.get("checks", []):
        kind = chk.get("kind")
        if kind == "max_error_leq":
            observed = metrics["max_error"][chk["label"]]
            passed = observed <= chk["value"]
        elif kind == "ratio_leq":
            table = metrics[chk.get("metric", "max_error")]
            observed = table[chk["num"]] / table[chk["den"]]
            passed = observed <= chk["value"]
        elif kind == "smallest":
            table = metrics[chk.get("metric", "max_error")]
            observed = table[chk["label"]]
            passed = observed == min(table.values())
        elif kind == "order_geq":
            observed = metrics["fits"][_jump_label(chk["M"])]["algebraic_order"]
            passed = observed >= chk["value"]
        elif kind == "error_at_leq":
            observed = metrics["errors"][(chk["N"], chk["M"])]
            passed = observed <= chk["value"]
        elif kind == "exponential_regime_is":
            observed = metrics["fits"][_jump_label(chk["M"])]["exponential_regime"]
            passed = observed == bool(chk["value"])
        elif kind == "final_linf_leq":
            observed = metrics["final_linf"]
            passed = observed <= chk["value"]
        else:
            raise ValueError(f"unknown check kind {kind!r}")
        results.append({"check": chk, "observed": observed, "passed": bool(passed)})
    return results


# ---------------------------------------------------------------------------
# subcommands


def _interpolants(problem, g: Grid, Ms: list[int], pts: np.ndarray) -> list[np.ndarray]:
    """Values at pts of the plain (M = -1) or jump-corrected interpolant of
    the problem's nodal data, one array per M."""
    w = barycentric_weights(g)
    f = np.asarray(problem.value(g.nodes), dtype=float)
    return [
        interpolate(w, f, pts) if M < 0 else corrected_interpolate(w, f, problem.jump_data(M), pts)
        for M in Ms
    ]


def run_interp(cfg: dict, outdir: str) -> dict:
    problem = build_problem(cfg["problem"])
    g = build_grid(cfg["grid"])
    _check_problem_domain(problem, g)
    Ms = _as_m_list(cfg, g.N)
    pts = probe_points(g.a, g.b, problem.xi, _integer(cfg.get("probes", 1000), "probes"))
    exact = np.asarray(problem.value(pts), dtype=float)
    near = np.abs(pts - problem.xi) <= 0.1 * (g.b - g.a)

    cols = [pts, exact]
    header = ["x", "f_exact"]
    max_err: dict[str, float] = {}
    max_err_near: dict[str, float] = {}
    for M, vals in zip(Ms, _interpolants(problem, g, Ms, pts)):
        label = _jump_label(M)
        err = np.abs(vals - exact)
        cols += [vals, err]
        header += [f"p_{label}", f"err_{label}"]
        max_err[label] = float(err.max())
        max_err_near[label] = float(err[near].max()) if near.any() else 0.0

    write_csv(os.path.join(outdir, "result.csv"), header, zip(*cols))
    metrics = {"max_error": max_err, "max_error_near_xi": max_err_near}
    return {
        "command": "interp",
        "config": cfg,
        "N": g.N,
        "family": _family(cfg["grid"]),
        "xi": problem.xi,
        "max_error": max_err,
        "max_error_near_xi": max_err_near,
        "checks": _run_checks(cfg, metrics),
    }


def _converge_cell(problem, g: Grid, M_list: list[int], pts: np.ndarray, exact: np.ndarray) -> dict:
    """Max probe error of every M <= N on one grid of a convergence study, keyed by (N, M)."""
    Ms = [M for M in M_list if M <= g.N]
    vals = _interpolants(problem, g, Ms, pts)
    return {(g.N, M): float(np.max(np.abs(v - exact))) for M, v in zip(Ms, vals)}


def run_converge(cfg: dict, outdir: str) -> dict:
    problem = build_problem(cfg["problem"])
    family = _family(cfg)
    if family == "custom":
        raise ValueError("convergence studies need an equidistant or cgl family")
    a, b = float(cfg["a"]), float(cfg["b"])
    N_list = [_integer(n, "N_list") for n in cfg["N_list"]]
    grids = [build_grid({"family": family, "a": a, "b": b, "N": N}) for N in N_list]
    for g in grids:
        _check_problem_domain(problem, g)
    M_list = _jump_orders(cfg["M_list"], "M_list")
    probes = _integer(cfg.get("probes", 1000), "probes")
    pts = probe_points(a, b, problem.xi, probes)
    exact = np.asarray(problem.value(pts), dtype=float)

    errors = {}
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        for cell in pool.map(lambda g: _converge_cell(problem, g, M_list, pts, exact), grids):
            errors.update(cell)

    rows = [(N, M, errors[(N, M)]) for N, M in sorted(errors)]
    fits = {}
    for M in M_list:
        Ns = [N for N in sorted(N_list) if M <= N]
        if len(Ns) >= 2:
            fit = fit_orders(Ns, [errors[(N, M)] for N in Ns])
            fit["M"] = M
            fits[_jump_label(M)] = fit

    write_csv(os.path.join(outdir, "result.csv"), ["N", "M", "linf_error"], rows)
    metrics = {"fits": fits, "errors": errors}
    return {
        "command": "converge",
        "config": cfg,
        "problem": cfg["problem"].get("type", "?"),
        "family": family,
        "probes": probes,
        "rows": [{"N": n, "M": m, "linf_error": e} for n, m, e in rows],
        "fits": sorted(fits.values(), key=lambda d: d["M"]),
        "checks": _run_checks(cfg, metrics),
    }


def run_diff(cfg: dict, outdir: str) -> dict:
    problem = build_problem(cfg["problem"])
    g = build_grid(cfg["grid"])
    _check_problem_domain(problem, g)
    n = _integer(cfg.get("n", 1), "n")
    m = _integer(cfg.get("m", g.N), "m")
    M = _jump_order(cfg.get("M", g.N // 2))
    export_matrix = _flag(cfg, "export_matrix")
    export_corrections = _flag(cfg, "export_corrections")
    D = derivative_matrix(g, n, m)
    f = np.asarray(problem.value(g.nodes), dtype=float)
    exact = np.asarray(problem.derivative(g.nodes, n), dtype=float)
    plain = apply(D, f)
    jd = problem.jump_data(M)
    corrected = corrected_derivative(D, f, jd)

    write_csv(
        os.path.join(outdir, "result.csv"),
        ["x", "f", "deriv_exact", "deriv_plain", "deriv_corrected", "err_plain", "err_corrected"],
        zip(g.nodes, f, exact, plain, corrected, np.abs(plain - exact), np.abs(corrected - exact)),
    )
    if export_matrix:
        write_csv(os.path.join(outdir, "derivative_matrix.csv"),
                  [f"c{j}" for j in range(g.N + 1)], D.entries)
    if export_corrections and M >= 0:
        write_csv(os.path.join(outdir, "correction_matrix.csv"),
                  [f"c{j}" for j in range(g.N + 1)], correction_matrix(jd, g))
    max_err = {
        "plain": float(np.max(np.abs(plain - exact))),
        "corrected": float(np.max(np.abs(corrected - exact))),
    }
    metrics = {"max_error": max_err}
    return {
        "command": "diff",
        "config": cfg,
        "N": g.N,
        "n": n,
        "m": m,
        "M": M,
        "max_error": max_err,
        "checks": _run_checks(cfg, metrics),
    }


def run_quad(cfg: dict, outdir: str) -> dict:
    problem = build_problem(cfg["problem"])
    g = build_grid(cfg["grid"])
    _check_problem_domain(problem, g)
    M = _jump_order(cfg.get("M", g.N // 2))
    export_weights = _flag(cfg, "export_weights")
    rule = quad_weights(g)
    f = np.asarray(problem.value(g.nodes), dtype=float)
    reference = problem.integral(g.a, g.b)
    plain = integrate(rule, f)
    jd = problem.jump_data(M)
    corrected = corrected_integrate(rule, f, jd)

    write_csv(
        os.path.join(outdir, "result.csv"),
        ["integral_plain", "integral_corrected", "reference", "err_plain", "err_corrected"],
        [(plain, corrected, reference, abs(plain - reference), abs(corrected - reference))],
    )
    if export_weights:
        write_csv(os.path.join(outdir, "quad_weights.csv"), ["x", "w"], zip(g.nodes, rule.weights))
    max_err = {
        "plain": abs(plain - reference),
        "corrected": abs(corrected - reference),
    }
    metrics = {"max_error": max_err}
    return {
        "command": "quad",
        "config": cfg,
        "N": g.N,
        "M": M,
        "integral_plain": plain,
        "integral_corrected": corrected,
        "reference": reference,
        "max_error": max_err,
        "checks": _run_checks(cfg, metrics),
    }


def _build_advection(cfg: dict) -> AdvectionProblem:
    g = build_grid(cfg["grid"])
    c = float(cfg["speed"])
    T = float(cfg["t_final"])
    corrections = _flag(cfg, "corrections", True)
    init = cfg["initial"]
    kind = str(init.get("kind", "")).lower()
    if kind == "kink":
        xi0 = float(init["xi0"])
        amp = float(init.get("amplitude", 1.0))
        u0 = lambda x: amp * np.abs(np.asarray(x, dtype=float) - xi0)
        jumps = np.array([0.0, 2.0 * amp])
    elif kind == "step":
        xi0 = float(init["xi0"])
        amp = float(init.get("amplitude", 1.0))
        u0 = lambda x: amp * np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5)
        jumps = np.array([amp])
    elif kind == "gaussian":
        center = float(init["center"])
        width = float(init["width"])
        xi0 = None
        u0 = lambda x: np.exp(-(((np.asarray(x, dtype=float) - center) / width) ** 2))
        jumps = None
    else:
        raise ValueError(f"unknown initial kind {init.get('kind')!r}")
    if xi0 is None or not corrections:
        jump0 = None
    else:
        M = _jump_order(cfg.get("M", len(jumps) - 1))
        jump0 = JumpData(xi0, jumps[: M + 1])
    return AdvectionProblem(g, c, u0, jump0, T)


def run_evolve(cfg: dict, outdir: str) -> dict:
    problem = _build_advection(cfg)
    g = problem.grid
    n = 1
    m = _integer(cfg.get("m", g.N), "m")
    D = derivative_matrix(g, n, m)
    output_every = _integer(cfg.get("output_every", 1), "output_every")
    result = evolve(problem, D, float(cfg["dt"]), output_every)

    header = ["t"] + [f"u{j}" for j in range(g.N + 1)] + ["xi", "linf_error"]
    err = result.error_linf
    rows = (
        (t, *s, xi, e)
        for t, s, xi, e in zip(result.times, result.states, result.xi_path, err)
    )
    write_csv(os.path.join(outdir, "result.csv"), header, rows)
    final_linf = float(err[-1])
    metrics = {"final_linf": final_linf}
    return {
        "command": "evolve",
        "config": cfg,
        "N": g.N,
        "steps_recorded": int(result.times.size),
        "final_linf": final_linf,
        "max_linf": float(err.max()),
        "checks": _run_checks(cfg, metrics),
    }


_RUNNERS = {
    "interp": run_interp,
    "converge": run_converge,
    "diff": run_diff,
    "quad": run_quad,
    "evolve": run_evolve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpspec",
        description="Interpolation, differentiation, quadrature and advection "
        "experiments for sampled functions with known derivative jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("interp", "tabulate plain vs jump-corrected interpolation at dense probes"),
        ("converge", "max-error convergence study over grids of increasing size"),
        ("diff", "tabulate plain vs jump-corrected derivatives at the nodes"),
        ("quad", "plain vs jump-corrected integral against a reference value"),
        ("evolve", "advect a profile with a moving discontinuity"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="output directory for result.csv and report.json")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"jumpspec: cannot read config: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        report = _RUNNERS[args.command](cfg, args.out)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"jumpspec: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"jumpspec: numerical failure: {exc}", file=sys.stderr)
        return 3

    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")

    failed = [c for c in report.get("checks", []) if not c["passed"]]
    for c in failed:
        print(f"jumpspec: check failed: {c['check']} (observed {c['observed']})", file=sys.stderr)
    return 1 if failed else 0
