"""Command-line front end: experiment configs in, CSV and JSON artifacts out.

Every subcommand parses its whole JSON config, checks included, by key
tables before any work; a key outside its object's table is a config error.
Only after the run and its checks is anything written: result.csv, any
exports and report.json. Identical configs produce byte-identical outputs.
The process exits 0 only when the run completes and all checks pass (1 for
failed checks, 2 for config or usage errors, 3 for a numerical failure such
as a state that stops being finite); exits 2 and 3 write nothing.
"""

from __future__ import annotations

import argparse
import json
import operator
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


def write_csv(path: str, header: list[str], rows) -> None:
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _integer(value, key: str) -> int:
    """A config integer; rejects what int() would truncate or coerce (12.9, "12", true)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _real(value, key: str) -> float:
    """A config number; rejects what float() would coerce ("0.5", true)."""
    if type(value) in (int, float):
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def _flag(value, key: str) -> bool:
    """A config boolean; rejects what a truth test would coerce ("false", 0)."""
    if type(value) is bool:
        return value
    raise ValueError(f"{key} must be true or false, got {value!r}")


def _raw(value, key: str):
    return value


def _jump_order(value, key: str) -> int:
    """A config jump order M: -1 for no correction, else the highest jump used."""
    M = _integer(value, key)
    if M < -1:
        raise ValueError(f"{key} must be >= -1, got {M}")
    return M


def _list(item, unique: bool = False):
    """Parser of a JSON list whose entries each go through the parser item."""
    def parse(value, key: str) -> list:
        if type(value) is not list:
            raise ValueError(f"{key} must be a list, got {value!r}")
        out = [item(v, key) for v in value]
        if unique and len(set(out)) < len(out):
            raise ValueError(f"{key} must be unique, got {out}")
        return out
    return parse


def _jump_orders(value, key: str) -> list[int]:
    """interp's M: one jump order or a list of distinct ones."""
    return _list(_jump_order, unique=True)(value if type(value) is list else [value], key)


def _fields(cfg, table: dict, where: str = "", tag: str | None = None, default=None) -> dict:
    """cfg's values, each through its parser in table: {key: (parser,
    default)}, default ... for a required key. A parser takes the value and
    the key's name (where + key) for its messages. A key outside the table
    is a config error. With a tag, table maps each name the tag's value may
    take (case-insensitive; default if absent) to that name's table."""
    if type(cfg) is not dict:
        raise ValueError(f"{where[:-1] or 'the config'} must be a JSON object, got {cfg!r}")
    if tag is not None:
        name = str(cfg.get(tag, default)).lower()
        if name not in table:
            raise ValueError(f"unknown {where}{tag} {cfg.get(tag, default)!r}")
        return {**_fields(cfg, {tag: (_raw, default), **table[name]}, where), tag: name}
    unknown = [key for key in cfg if key not in table]
    if unknown:
        raise ValueError(f"unknown key {where}{unknown[0]}")
    out = {}
    for key, (parse, fallback) in table.items():
        if key in cfg:
            out[key] = parse(cfg[key], where + key)
        elif fallback is ...:
            raise ValueError(f"{where}{key} is required")
        else:
            out[key] = fallback
    return out


_REAL = (_real, ...)
_SPACED = {"a": _REAL, "b": _REAL, "N": (_integer, ...)}
# grid family -> its keys besides "family"
_GRIDS = {
    "cgl": _SPACED,
    "chebyshev_gauss_lobatto": _SPACED,
    "equidistant": _SPACED,
    "custom": {"a": _REAL, "b": _REAL, "nodes": (_list(_real), ...)},
}
_PROBLEMS = {
    "legendre": {"l": (_integer, ...), "xi": _REAL},
    "synthetic": {"left": (_list(_real), ...), "right": (_list(_real), ...), "xi": _REAL},
}
_PROFILE = {"xi0": _REAL, "amplitude": (_real, 1.0)}
_INITIALS = {"kink": _PROFILE, "step": _PROFILE, "gaussian": {"center": _REAL, "width": _REAL}}


def _family(value, key: str) -> str:
    """A grid family's full name; cgl is short for chebyshev_gauss_lobatto."""
    family = str(value).lower()
    if family not in _GRIDS:
        raise ValueError(f"unknown grid {key} {value!r}")
    return "chebyshev_gauss_lobatto" if family == "cgl" else family


def build_grid(cfg: dict) -> Grid:
    f = _fields(cfg, _GRIDS, "grid.", "family", "cgl")
    if f["family"] == "custom":
        return custom(f["a"], f["b"], f["nodes"])
    if f["family"] == "equidistant":
        return equidistant(f["a"], f["b"], f["N"])
    return chebyshev_gauss_lobatto(f["a"], f["b"], f["N"])


def _problem(cfg, key: str):
    f = _fields(cfg, _PROBLEMS, key + ".", "type")
    if f["type"] == "legendre":
        return LegendreProblem(f["l"], f["xi"])
    return SyntheticPiecewise(f["left"], f["right"], f["xi"])


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


_LABEL = (_raw, ...)
_METRIC = (_raw, "max_error")
_ORDER = (_jump_order, ...)
# check kind -> (the report entry it reads, None: the one its "metric" names; the test of
# the observed value against "value", or smallest's against the entry's minimum; its keys)
_CHECKS = {
    "max_error_leq": ("max_error", operator.le, {"label": _LABEL, "value": _REAL}),
    "ratio_leq": (None, operator.le, {"num": _LABEL, "den": _LABEL, "value": _REAL, "metric": _METRIC}),
    "smallest": (None, operator.eq, {"label": _LABEL, "metric": _METRIC}),
    "order_geq": ("fits", operator.ge, {"M": _ORDER, "value": _REAL}),
    "exponential_regime_is": ("fits", operator.eq, {"M": _ORDER, "value": (_flag, ...)}),
    "error_at_leq": ("rows", operator.le, {"N": (_integer, ...), "M": _ORDER, "value": _REAL}),
    "final_linf_leq": ("final_linf", operator.le, {"value": _REAL}),
}


def _check(cfg, where: str, command: str, entries: tuple) -> dict:
    """A parsed check and the report entry it reads, which must be one of
    the command's entries."""
    c = _fields(cfg, {kind: keys for kind, (*_, keys) in _CHECKS.items()}, where, "kind")
    c["entry"] = _CHECKS[c["kind"]][0] or c["metric"]
    if c["entry"] not in entries:
        raise ValueError(f"{where[:-1]} reads {c['entry']!r}, which {command} does not report")
    return c


def _run_checks(checks: list, report: dict) -> list[dict]:
    """Each parsed check with the value it reads from the report and whether it passes."""
    results = []
    for i, (raw, c) in enumerate(checks):
        kind, entry = c["kind"], report[c["entry"]]
        try:  # a label, fit or cell the run did not produce is a config error
            if c["entry"] == "fits":
                fit = {f["M"]: f for f in entry}[c["M"]]
                observed = fit["algebraic_order" if kind == "order_geq" else "exponential_regime"]
            elif c["entry"] == "rows":
                observed = {(r["N"], r["M"]): r["linf_error"] for r in entry}[(c["N"], c["M"])]
            elif kind == "ratio_leq":
                observed = entry[c["num"]] / entry[c["den"]]
            else:
                observed = entry if kind == "final_linf_leq" else entry[c["label"]]
        except KeyError as exc:
            raise ValueError(f"checks[{i}]: report entry {c['entry']!r} has nothing at {exc}") from None
        passed = _CHECKS[kind][1](observed, min(entry.values()) if kind == "smallest" else c["value"])
        results.append({"check": raw, "observed": observed, "passed": bool(passed)})
    return results


# ---------------------------------------------------------------------------
# subcommands: each takes its parsed config and returns its report entries
# and the CSV files to write, {file name: (header, rows)}

_PROBLEM = (_problem, ...)
_GRID = (lambda cfg, key: _fields(cfg, _GRIDS, key + ".", "family", "cgl"), ...)
_M = (_jump_order, None)  # None: the command's default


def _interpolants(problem, g: Grid, Ms: list[int], pts: np.ndarray) -> list[np.ndarray]:
    """Values at pts of the plain (M = -1) or jump-corrected interpolant of
    the problem's nodal data, one array per M."""
    w = barycentric_weights(g)
    f = np.asarray(problem.value(g.nodes), dtype=float)
    return [
        interpolate(w, f, pts) if M < 0 else corrected_interpolate(w, f, problem.jump_data(M), pts)
        for M in Ms
    ]


def run_interp(cfg: dict) -> tuple[dict, dict]:
    """tabulate plain vs jump-corrected interpolation at dense probes"""
    problem, g = cfg["problem"], build_grid(cfg["grid"])
    _check_problem_domain(problem, g)
    Ms = [g.N // 2] if cfg["M"] is None else cfg["M"]
    if any(M > g.N for M in Ms):
        raise ValueError(f"M={max(Ms)} exceeds the grid degree N={g.N}")
    pts = probe_points(g.a, g.b, problem.xi, cfg["probes"])
    exact = np.asarray(problem.value(pts), dtype=float)
    near = np.abs(pts - problem.xi) <= 0.1 * (g.b - g.a)

    cols = [pts, exact]
    header = ["x", "f_exact"]
    max_err: dict[str, float] = {}
    max_err_near: dict[str, float] = {}
    for M, vals in zip(Ms, _interpolants(problem, g, Ms, pts)):
        label = "lagrange" if M < 0 else f"M{M}"
        err = np.abs(vals - exact)
        cols += [vals, err]
        header += [f"p_{label}", f"err_{label}"]
        max_err[label] = float(err.max())
        max_err_near[label] = float(err[near].max()) if near.any() else 0.0

    report = {
        "N": g.N,
        "family": _family(cfg["grid"]["family"], "family"),
        "xi": problem.xi,
        "max_error": max_err,
        "max_error_near_xi": max_err_near,
    }
    return report, {"result.csv": (header, zip(*cols))}


def _converge_cell(problem, g: Grid, M_list: list[int], pts: np.ndarray, exact: np.ndarray) -> dict:
    """Max probe error of every M <= N on one grid of a convergence study, keyed by (N, M)."""
    Ms = [M for M in M_list if M <= g.N]
    vals = _interpolants(problem, g, Ms, pts)
    return {(g.N, M): float(np.max(np.abs(v - exact))) for M, v in zip(Ms, vals)}


def run_converge(cfg: dict) -> tuple[dict, dict]:
    """max-error convergence study over grids of increasing size"""
    problem, family, a, b = cfg["problem"], cfg["family"], cfg["a"], cfg["b"]
    if family == "custom":
        raise ValueError("convergence studies need an equidistant or cgl family")
    grids = [build_grid({"family": family, "a": a, "b": b, "N": N}) for N in cfg["N_list"]]
    for g in grids:
        _check_problem_domain(problem, g)
    pts = probe_points(a, b, problem.xi, cfg["probes"])
    exact = np.asarray(problem.value(pts), dtype=float)

    errors = {}
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        for cell in pool.map(lambda g: _converge_cell(problem, g, cfg["M_list"], pts, exact), grids):
            errors.update(cell)

    rows = [(N, M, errors[(N, M)]) for N, M in sorted(errors)]
    fits = []
    for M in sorted(cfg["M_list"]):
        Ns = [N for N in sorted(cfg["N_list"]) if M <= N]
        if len(Ns) >= 2:
            fits.append({**fit_orders(Ns, [errors[(N, M)] for N in Ns]), "M": M})

    report = {
        "problem": "legendre" if isinstance(problem, LegendreProblem) else "synthetic",
        "family": family,
        "probes": cfg["probes"],
        "rows": [{"N": n, "M": m, "linf_error": e} for n, m, e in rows],
        "fits": fits,
    }
    return report, {"result.csv": (["N", "M", "linf_error"], rows)}


def run_diff(cfg: dict) -> tuple[dict, dict]:
    """tabulate plain vs jump-corrected derivatives at the nodes"""
    problem, g = cfg["problem"], build_grid(cfg["grid"])
    _check_problem_domain(problem, g)
    n = cfg["n"]
    m = g.N if cfg["m"] is None else cfg["m"]
    M = g.N // 2 if cfg["M"] is None else cfg["M"]
    D = derivative_matrix(g, n, m)
    f = np.asarray(problem.value(g.nodes), dtype=float)
    exact = np.asarray(problem.derivative(g.nodes, n), dtype=float)
    plain = apply(D, f)
    jd = problem.jump_data(M)
    corrected = corrected_derivative(D, f, jd)

    header = ["x", "f", "deriv_exact", "deriv_plain", "deriv_corrected", "err_plain", "err_corrected"]
    rows = zip(g.nodes, f, exact, plain, corrected, np.abs(plain - exact), np.abs(corrected - exact))
    files = {"result.csv": (header, rows)}
    columns = [f"c{j}" for j in range(g.N + 1)]
    if cfg["export_matrix"]:
        files["derivative_matrix.csv"] = (columns, D.entries)
    if cfg["export_corrections"] and M >= 0:
        files["correction_matrix.csv"] = (columns, correction_matrix(jd, g))
    max_err = {
        "plain": float(np.max(np.abs(plain - exact))),
        "corrected": float(np.max(np.abs(corrected - exact))),
    }
    return {"N": g.N, "n": n, "m": m, "M": M, "max_error": max_err}, files


def run_quad(cfg: dict) -> tuple[dict, dict]:
    """plain vs jump-corrected integral against a reference value"""
    problem, g = cfg["problem"], build_grid(cfg["grid"])
    _check_problem_domain(problem, g)
    M = g.N // 2 if cfg["M"] is None else cfg["M"]
    rule = quad_weights(g)
    f = np.asarray(problem.value(g.nodes), dtype=float)
    reference = problem.integral(g.a, g.b)
    plain = integrate(rule, f)
    jd = problem.jump_data(M)
    corrected = corrected_integrate(rule, f, jd)

    header = ["integral_plain", "integral_corrected", "reference", "err_plain", "err_corrected"]
    rows = [(plain, corrected, reference, abs(plain - reference), abs(corrected - reference))]
    files = {"result.csv": (header, rows)}
    if cfg["export_weights"]:
        files["quad_weights.csv"] = (["x", "w"], zip(g.nodes, rule.weights))
    report = {
        "N": g.N,
        "M": M,
        "integral_plain": plain,
        "integral_corrected": corrected,
        "reference": reference,
        "max_error": {"plain": abs(plain - reference), "corrected": abs(corrected - reference)},
    }
    return report, files


def run_evolve(cfg: dict) -> tuple[dict, dict]:
    """advect a profile with a moving discontinuity"""
    g, init = build_grid(cfg["grid"]), cfg["initial"]
    if init["kind"] == "gaussian":
        center, width = init["center"], init["width"]
        u0 = lambda x: np.exp(-(((np.asarray(x, dtype=float) - center) / width) ** 2))
        jump0 = None
    else:
        xi0, amp = init["xi0"], init["amplitude"]
        if init["kind"] == "kink":
            u0 = lambda x: amp * np.abs(np.asarray(x, dtype=float) - xi0)
            jumps = np.array([0.0, 2.0 * amp])
        else:
            u0 = lambda x: amp * np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5)
            jumps = np.array([amp])
        M = len(jumps) - 1 if cfg["M"] is None else cfg["M"]
        jump0 = JumpData(xi0, jumps[: M + 1]) if cfg["corrections"] else None
    problem = AdvectionProblem(g, cfg["speed"], u0, jump0, cfg["t_final"])
    D = derivative_matrix(g, 1, g.N if cfg["m"] is None else cfg["m"])
    result = evolve(problem, D, cfg["dt"], cfg["output_every"])

    header = ["t"] + [f"u{j}" for j in range(g.N + 1)] + ["xi", "linf_error"]
    err = result.error_linf
    rows = ((t, *s, xi, e) for t, s, xi, e in zip(result.times, result.states, result.xi_path, err))
    report = {
        "N": g.N,
        "steps_recorded": int(result.times.size),
        "final_linf": float(err[-1]),
        "max_linf": float(err.max()),
    }
    return report, {"result.csv": (header, rows)}


# command -> (runner, the report entries its checks may read, its key table besides "checks")
_COMMANDS = {
    "interp": (run_interp, ("max_error", "max_error_near_xi"), {
        "problem": _PROBLEM, "grid": _GRID, "M": (_jump_orders, None), "probes": (_integer, 1000)}),
    "converge": (run_converge, ("fits", "rows"), {
        "problem": _PROBLEM, "family": (_family, "chebyshev_gauss_lobatto"), "a": _REAL, "b": _REAL,
        "N_list": (_list(_integer, unique=True), ...), "M_list": (_list(_jump_order, unique=True), ...),
        "probes": (_integer, 1000)}),
    "diff": (run_diff, ("max_error",), {
        "problem": _PROBLEM, "grid": _GRID, "n": (_integer, 1), "m": (_integer, None), "M": _M,
        "export_matrix": (_flag, False), "export_corrections": (_flag, False)}),
    "quad": (run_quad, ("max_error",), {
        "problem": _PROBLEM, "grid": _GRID, "M": _M, "export_weights": (_flag, False)}),
    "evolve": (run_evolve, ("final_linf",), {
        "grid": _GRID, "speed": _REAL, "t_final": _REAL, "dt": _REAL, "output_every": (_integer, 1),
        "initial": (lambda cfg, key: _fields(cfg, _INITIALS, key + ".", "kind"), ...),
        "corrections": (_flag, True), "m": (_integer, None), "M": _M}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpspec",
        description="Interpolation, differentiation, quadrature and advection "
        "experiments for sampled functions with known derivative jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="output directory for result.csv and report.json")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"jumpspec: cannot read config: {exc}", file=sys.stderr)
        return 2

    run, entries, table = _COMMANDS[args.command]
    try:
        spec = _fields(cfg, {**table, "checks": (_list(_raw), [])})
        checks = [(c, _check(c, f"checks[{i}].", args.command, entries))
                  for i, c in enumerate(spec["checks"])]
        report, files = run(spec)
        report.update(command=args.command, config=cfg)
        report["checks"] = _run_checks(checks, report)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"jumpspec: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"jumpspec: numerical failure: {exc}", file=sys.stderr)
        return 3

    os.makedirs(args.out, exist_ok=True)
    for name, (header, rows) in files.items():
        write_csv(os.path.join(args.out, name), header, rows)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")

    failed = [c for c in report["checks"] if not c["passed"]]
    for c in failed:
        print(f"jumpspec: check failed: {c['check']} (observed {c['observed']})", file=sys.stderr)
    return 1 if failed else 0
