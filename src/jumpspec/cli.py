"""Command-line front end: experiment configs in, CSV and JSON artifacts out.

Every subcommand parses its whole JSON config, checks included, by key
tables before any work; a key outside its object's table is a config error.
Each command's reports, the labels, fits and cells its run will report,
follow from its parsed config, and every check's entry and the label, fit
or cell it reads there are settled against them before any work too.
Only after the run and its checks is anything written: result.csv, any
exports and report.json. Every CSV value is written as '%.17g' (C's
%.17g) writes it, whichever of write_csv's two paths formats it.
Identical configs produce byte-identical outputs, with two known exceptions.
evolve bytes with m = N from N = 128 on depend on the BLAS thread count,
since the matrix products that build its steps split their sums across
the threads; interp and converge call no BLAS. And every output holds per
host and CPU feature set: numpy dispatches power, arctanh, log, log1p, exp
and log10 to SIMD loops that round differently with its AVX-512 loops on
and off (NPY_DISABLE_CPU_FEATURES), which moves the Legendre problems'
data and references and the gaussian profile.
The process exits 0 only when the run completes and all checks pass (1 for
failed checks, 2 for config or usage errors, 3 for a numerical failure such
as a state that stops being finite, 4 for a program fault, any other
exception, whose traceback goes to stderr); exits 2, 3 and 4 write nothing.
Every config fault is found before the first numerical result, so it exits
2 even where a numerical failure would follow. After the run, two faults
still exit 2: a ratio check whose denominator is 0, and an --out that
cannot be written, where a failure partway through writing can leave the
files written before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .csvformat import format_rows
from .diffmat import derivative_matrix
from .grid import Grid, chebyshev_gauss_lobatto, custom, equidistant
from .jumps import (
    JumpData,
    _require_interior,
    corrected_derivative,
    corrected_integrate,
    corrected_interpolate,
    correction_matrix,
)
from .lagrange import BarycentricWeights, _finite, barycentric_weights
from .mol import AdvectionProblem, evolve
from .quadrature import quad_weights
from .refproblems import LegendreProblem, SyntheticPiecewise

__all__ = ["main", "probe_points", "fit_orders"]


_BLOCK = 4096  # values per formatted block, which bounds the formatter's memory
_KERNEL_MIN = 256  # blocks of fewer values format faster by one '%' than by format_rows


def write_csv(path: str, header: list[str], rows) -> None:
    """A CSV file: the header line, then rows, a 2-D float array with one
    column per header name, each value as '%.17g' writes it. The rows go out
    in blocks of about _BLOCK values, each formatted by format_rows or,
    below _KERNEL_MIN values, by one '%' over the block: the same bytes."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, _BLOCK // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for i in range(0, len(table), step):
            block = table[i : i + step]
            if block.size >= _KERNEL_MIN:
                fh.write(format_rows(block))
            else:
                fh.write((line * len(block) % tuple(block.ravel().tolist())).encode("ascii"))


def _integer(value, key: str) -> int:
    """A config integer; rejects what int() would truncate or coerce (12.9, "12", true)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _real(value, key: str) -> float:
    """A finite config number; rejects what float() would coerce ("0.5",
    true), and NaN, Infinity and integers past the float range."""
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if (type(value) is int and abs(value) > sys.float_info.max) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, key: str) -> float:
    """A finite config number greater than zero."""
    x = _real(value, key)
    if x <= 0.0:
        raise ValueError(f"{key} must be positive, got {value!r}")
    return x


def _flag(value, key: str) -> bool:
    """A config boolean; rejects what a truth test would coerce ("false", 0)."""
    if type(value) is bool:
        return value
    raise ValueError(f"{key} must be true or false, got {value!r}")


def _raw(value, key: str):
    return value


def _string(value, key: str) -> str:
    """A config string; rejects what str() would coerce (a list, a number)."""
    if type(value) is str:
        return value
    raise ValueError(f"{key} must be a string, got {value!r}")


def _at_least(lo: int):
    """Parser of a config integer no smaller than lo."""
    def parse(value, key: str) -> int:
        n = _integer(value, key)
        if n < lo:
            raise ValueError(f"{key} must be at least {lo}, got {n}")
        return n
    return parse


_jump_order = _at_least(-1)  # a jump order M: -1 for no correction, else the highest jump used
_probe_count = _at_least(2)  # a probe set spans the interval, so it needs both ends


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
    """interp's M: one jump order or a nonempty list of distinct ones."""
    Ms = _list(_jump_order, unique=True)(value if type(value) is list else [value], key)
    if not Ms:
        raise ValueError(f"{key} must list at least one jump order")
    return Ms


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
    unknown = [key if key.isprintable() else repr(key) for key in cfg if key not in table]
    if unknown:  # a key's line break would split the one-line message
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
# grid family -> (its keys besides "family", the Grid built from their values); a
# builder looks its function up when called, so a wrapper on the name sees every build
_GRIDS = {
    "chebyshev_gauss_lobatto": (_SPACED, lambda a, b, N: chebyshev_gauss_lobatto(a, b, N)),
    "equidistant": (_SPACED, lambda a, b, N: equidistant(a, b, N)),
    "custom": ({"a": _REAL, "b": _REAL, "nodes": (_list(_real), ...)}, lambda a, b, nodes: custom(a, b, nodes)),
}
_GRIDS["cgl"] = _GRIDS["chebyshev_gauss_lobatto"]
# problem type -> (its keys besides "type", the problem built from their values)
_PROBLEMS = {
    "legendre": ({"l": (_integer, ...), "xi": _REAL}, LegendreProblem),
    "synthetic": ({"left": (_list(_real), ...), "right": (_list(_real), ...), "xi": _REAL}, SyntheticPiecewise),
}
_PROFILE = {"xi0": _REAL, "amplitude": (_real, 1.0)}
# initial profile kind -> (its keys besides "kind", the profile u0 and its (xi0, jumps) at
# t = 0, None when smooth, from their values)
_INITIALS = {
    "kink": (_PROFILE, lambda xi0, amplitude: (
        lambda x: amplitude * np.abs(np.asarray(x, dtype=float) - xi0), (xi0, [0.0, 2.0 * amplitude]))),
    "step": (_PROFILE, lambda xi0, amplitude: (
        lambda x: amplitude * np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5), (xi0, [amplitude]))),
    "gaussian": ({"center": _REAL, "width": (_positive, ...)}, lambda center, width: (
        lambda x: np.exp(-(((np.asarray(x, dtype=float) - center) / width) ** 2)), None)),
}


def _tagged(cfg, key: str, tag: str, table: dict, default=None) -> tuple:
    """A tagged config object's tag value and what its builder makes of its
    other values: table maps each tag value to (its key table, builder)."""
    f = _fields(cfg, {name: keys for name, (keys, _) in table.items()}, key + ".", tag, default)
    name = f.pop(tag)
    return name, table[name][1](**f)


def _family(value, key: str) -> str:
    """A grid family's full name; cgl is short for chebyshev_gauss_lobatto."""
    family = str(value).lower()
    if family not in _GRIDS:
        raise ValueError(f"unknown grid {key} {value!r}")
    return "chebyshev_gauss_lobatto" if family == "cgl" else family


def _grid(cfg, key: str) -> tuple[str, Grid]:
    """A grid config's family, by its full name, and its Grid."""
    family, g = _tagged(cfg, key, "family", _GRIDS, "cgl")
    return _family(family, key + ".family"), g


def build_grid(cfg) -> Grid:
    """The Grid of a grid config."""
    return _grid(cfg, "grid")[1]


def probe_points(a: float, b: float, xi: float | None, count: int) -> np.ndarray:
    """Deterministic probe set: equispaced points plus the two one-sided
    limits at the discontinuity (the method's accuracy claim includes the
    neighbourhood of xi, so probes are not excluded there). A ValueError if
    the span b - a leaves the float range. Near the float max linspace's last
    product may overflow, which is no fault: linspace sets that point to b."""
    pts = _finite(lambda: np.linspace(a, b, count),
                  lambda i: ValueError(f"the probe span of the interval [{a}, {b}] leaves the float range"))
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
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"JUMPSPEC_THREADS must be an integer, got {env!r}") from None
    return min(8, os.cpu_count() or 1)


_LABEL = (_string, ...)
_METRIC = (_raw, "max_error")
_LABELLED = ("max_error", "max_error_near_xi")  # the report entries a label, num or den reads
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


def _check(cfg, where: str, command: str, reports: dict) -> dict:
    """A parsed check, and the report entry it reads, which must be one of
    the command's reports, {entry: the keys the run reports in it}, as must
    the label, fit or cell it reads there."""
    c = _fields(cfg, {kind: keys for kind, (*_, keys) in _CHECKS.items()}, where, "kind")
    c["entry"] = _CHECKS[c["kind"]][0] or c["metric"]
    if c["entry"] not in list(reports):  # a metric may be any JSON value, a list too, which no dict can hash
        raise ValueError(f"{where[:-1]} reads {c['entry']!r}, which {command} does not report")
    if "metric" in c and c["entry"] not in _LABELLED:
        raise ValueError(f"{where}metric must be {' or '.join(_LABELLED)}, got {c['entry']!r}")
    keys = [(c["N"], c["M"])] if c["entry"] == "rows" else [c[k] for k in ("M", "label", "num", "den") if k in c]
    for key in keys:
        if key not in reports[c["entry"]]:
            raise ValueError(f"{where[:-1]}: report entry {c['entry']!r} has nothing at {key!r}")
    return c


def _run_checks(checks: list, report: dict) -> list[dict]:
    """Each parsed check with the value it reads from the report and whether it passes."""
    results = []
    for i, (raw, c) in enumerate(checks):
        kind, entry = c["kind"], report[c["entry"]]
        if c["entry"] == "fits":
            fit = {f["M"]: f for f in entry}[c["M"]]
            observed = fit["algebraic_order" if kind == "order_geq" else "exponential_regime"]
        elif c["entry"] == "rows":
            observed = {(r["N"], r["M"]): r["linf_error"] for r in entry}[(c["N"], c["M"])]
        elif kind == "ratio_leq":
            if entry[c["den"]] == 0.0:
                raise ValueError(f"checks[{i}]: report entry {c['entry']!r} has 0 at "
                                 f"{c['den']!r}, the ratio's denominator")
            observed = entry[c["num"]] / entry[c["den"]]
        else:
            observed = entry if kind == "final_linf_leq" else entry[c["label"]]
        passed = _CHECKS[kind][1](observed, min(entry.values()) if kind == "smallest" else c["value"])
        results.append({"check": raw, "observed": observed, "passed": bool(passed)})
    return results


# ---------------------------------------------------------------------------
# subcommands: each takes its parsed config and returns its report entries
# and the CSV files to write, {file name: (header, rows)}, rows a 2-D float array

_PROBLEM = (lambda cfg, key: _tagged(cfg, key, "type", _PROBLEMS)[1], ...)
_GRID = (_grid, ...)
_M = (lambda value, key: [_jump_order(value, key)], None)  # None: _orders' default


def _orders(cfg: dict) -> list[int]:
    """An interp, diff or quad config's jump orders: its M, else N // 2."""
    return [cfg["grid"][1].N // 2] if cfg["M"] is None else cfg["M"]


def _setup(cfg: dict) -> tuple:
    """An interp, diff or quad config's problem, grid, nodal data and jump
    orders (_orders), which must not exceed N."""
    problem, (_, g), Ms = cfg["problem"], cfg["grid"], _orders(cfg)
    if any(M > g.N for M in Ms):
        raise ValueError(f"M={max(Ms)} exceeds the grid degree N={g.N}")
    return problem, g, np.asarray(problem.value(g.nodes), dtype=float), Ms


def _usable(N: int, Ms: list[int]) -> list[int]:
    """The jump orders of Ms, in order, that a grid of degree N can use: M <= N."""
    return [M for M in Ms if M <= N]


def _jump_table(problem, Ms: list[int], grids: list[Grid]) -> list[dict]:
    """One {M: jump data} table per grid, of the Ms that grid can use
    (_usable), None for the plain M = -1. The problem's discontinuity must
    lie inside every grid's interval, and strictly between the nodes of
    every grid it corrects on. Each M's jump data is built once, and only
    if some grid can use it. Every runner calls this after its exact values
    and before its first numerical result, so a config fault wins over a
    numerical failure."""
    for g in grids:
        if not g.a < problem.xi < g.b:
            raise ValueError("the problem's discontinuity must lie inside the grid interval")
    top = max((g.N for g in grids), default=-1)
    jumps = {M: problem.jump_data(M) if M >= 0 else None for M in _usable(top, Ms)}
    tables = [{M: jumps[M] for M in _usable(g.N, Ms)} for g in grids]
    for g, table in zip(grids, tables):
        for jd in filter(None, table.values()):  # the plain M = -1 corrects nothing
            _require_interior(jd, g)
    return tables


def _label(M: int) -> str:
    """The name of jump order M's columns and report entries."""
    return "lagrange" if M < 0 else f"M{M}"


def _columns(compute, items: dict, overflow: str) -> list:
    """compute(item) for each (label, item) of items, an item being a
    column's jump data (None for plain) or its values; a numerical failure,
    "the <label> <overflow>", names the first column that is not finite."""
    return [_finite(lambda: compute(item), lambda i: RuntimeError(f"the {label} {overflow}"))
            for label, item in items.items()]


def _interpolants(w: BarycentricWeights, f: np.ndarray, jumps: dict, pts: np.ndarray) -> list[np.ndarray]:
    """Values at pts of the plain (None) or jump-corrected interpolant of
    the nodal data f, one array per entry of jumps, from one
    corrected_interpolate call and so one ratio table."""
    with np.errstate(all="ignore"):  # _columns reports a failure
        rows = corrected_interpolate(w, f, list(jumps.values()), pts)
    return _columns(lambda row: row, dict(zip(map(_label, jumps), rows)),
                    f"interpolant on N = {w.grid.N} is not finite; the data overflow its barycentric sums, "
                    "or their denominator cancels to zero")


def run_interp(cfg: dict) -> tuple[dict, dict]:
    """tabulate plain vs jump-corrected interpolation at dense probes"""
    problem, g, f, Ms = _setup(cfg)
    pts = probe_points(g.a, g.b, problem.xi, cfg["probes"])
    exact = np.asarray(problem.value(pts), dtype=float)
    [jumps] = _jump_table(problem, Ms, [g])
    near = np.abs(pts - problem.xi) <= 0.1 * (g.b - g.a)  # after the table, which puts xi inside (a, b)

    cols = [pts, exact]
    header = ["x", "f_exact"]
    max_err: dict[str, float] = {}
    max_err_near: dict[str, float] = {}
    for label, vals in zip(map(_label, Ms), _interpolants(barycentric_weights(g), f, jumps, pts)):
        err = np.abs(vals - exact)
        cols += [vals, err]
        header += [f"p_{label}", f"err_{label}"]
        max_err[label] = float(err.max())
        max_err_near[label] = float(err[near].max()) if near.any() else 0.0

    report = {
        "N": g.N,
        "family": cfg["grid"][0],
        "xi": problem.xi,
        "max_error": max_err,
        "max_error_near_xi": max_err_near,
    }
    return report, {"result.csv": (header, np.column_stack(cols))}


def _converge_cell(w: BarycentricWeights, f: np.ndarray, jumps: dict, pts: np.ndarray, exact: np.ndarray) -> dict:
    """Max probe error on one grid of a convergence study of each jump
    order M in the grid's table jumps, from its weights and nodal data f,
    keyed by M."""
    return {M: float(np.max(np.abs(v - exact))) for M, v in zip(jumps, _interpolants(w, f, jumps, pts))}


def _study(cfg: dict) -> dict:
    """A convergence study's reports: its cells (N, M), one per jump order
    M that each grid can use (_usable), and {M: the Ns of its fit} of each M
    that two grids or more can use; both sorted, as run_converge reports them."""
    cells = [(N, M) for N in sorted(cfg["N_list"]) for M in _usable(N, sorted(cfg["M_list"]))]
    fits = {M: [N for N, m in cells if m == M] for M in sorted(cfg["M_list"])}
    return {"rows": cells, "fits": {M: Ns for M, Ns in fits.items() if len(Ns) >= 2}}


def run_converge(cfg: dict) -> tuple[dict, dict]:
    """max-error convergence study over grids of increasing size"""
    problem, family, a, b = cfg["problem"], cfg["family"], cfg["a"], cfg["b"]
    if family == "custom":
        raise ValueError("convergence studies need an equidistant or cgl family")
    grids = [_GRIDS[family][1](a, b, N) for N in cfg["N_list"]]
    pts = probe_points(a, b, problem.xi, cfg["probes"])
    exact = np.asarray(problem.value(pts), dtype=float)
    tables = _jump_table(problem, cfg["M_list"], grids)
    # each grid's weights and nodal data, whose faults are config errors too, before the pool
    cells = [(barycentric_weights(g), np.asarray(problem.value(g.nodes), dtype=float), table)
             for g, table in zip(grids, tables)]

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        errors = dict(zip(cfg["N_list"], pool.map(lambda c: _converge_cell(*c, pts, exact), cells)))

    study = _study(cfg)  # the cells and fits the checks were settled against
    rows = [(N, M, errors[N][M]) for N, M in study["rows"]]

    report = {
        "problem": problem.name,
        "family": family,
        "probes": cfg["probes"],
        "rows": [{"N": n, "M": m, "linf_error": e} for n, m, e in rows],
        "fits": [{**fit_orders(Ns, [errors[N][M] for N in Ns]), "M": M} for M, Ns in study["fits"].items()],
    }
    return report, {"result.csv": (["N", "M", "linf_error"], np.array(rows, dtype=float))}


def run_diff(cfg: dict) -> tuple[dict, dict]:
    """tabulate plain vs jump-corrected derivatives at the nodes"""
    problem, g, f, [M] = _setup(cfg)
    D = derivative_matrix(g, cfg["n"], cfg["m"])
    exact = np.asarray(problem.derivative(g.nodes, D.n), dtype=float)
    jd = _jump_table(problem, [M], [g])[0][M]
    plain, corrected = _columns(lambda jd: corrected_derivative(D, f, jd), {"plain": None, "corrected": jd},
                                "derivative is not finite; the data overflow the derivative matrix")
    err_plain, err_corrected = np.abs(plain - exact), np.abs(corrected - exact)

    header = ["x", "f", "deriv_exact", "deriv_plain", "deriv_corrected", "err_plain", "err_corrected"]
    rows = np.column_stack([g.nodes, f, exact, plain, corrected, err_plain, err_corrected])
    files = {"result.csv": (header, rows)}
    columns = [f"c{j}" for j in range(g.N + 1)]
    if cfg["export_matrix"]:
        files["derivative_matrix.csv"] = (columns, D.entries)
    if cfg["export_corrections"] and jd is not None:
        files["correction_matrix.csv"] = (columns, correction_matrix(jd, g))
    max_err = {"plain": float(err_plain.max()), "corrected": float(err_corrected.max())}
    return {"N": g.N, "n": D.n, "m": D.m, "M": M, "max_error": max_err}, files


def run_quad(cfg: dict) -> tuple[dict, dict]:
    """plain vs jump-corrected integral against a reference value"""
    problem, g, f, [M] = _setup(cfg)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # _finite reports a failure
        rule = quad_weights(g)
    reference = problem.integral(g.a, g.b)
    jd = _jump_table(problem, [M], [g])[0][M]
    _finite(lambda: rule.weights, lambda i: RuntimeError(
        "the quadrature weights are not finite; the barycentric sums of the grid's Lagrange basis cancel or "
        "overflow at a quadrature point"))
    plain, corrected = _columns(lambda jd: corrected_integrate(rule, f, jd), {"plain": None, "corrected": jd},
                                "integral is not finite; the data or their jump series overflow the quadrature sum")
    err_plain, err_corrected = abs(plain - reference), abs(corrected - reference)

    header = ["integral_plain", "integral_corrected", "reference", "err_plain", "err_corrected"]
    files = {"result.csv": (header, np.array([[plain, corrected, reference, err_plain, err_corrected]]))}
    if cfg["export_weights"]:
        files["quad_weights.csv"] = (["x", "w"], np.column_stack([g.nodes, rule.weights]))
    report = {
        "N": g.N,
        "M": M,
        "integral_plain": plain,
        "integral_corrected": corrected,
        "reference": reference,
        "max_error": {"plain": err_plain, "corrected": err_corrected},
    }
    return report, files


def run_evolve(cfg: dict) -> tuple[dict, dict]:
    """advect a profile with a moving discontinuity"""
    (_, g), (u0, jumps) = cfg["grid"], cfg["initial"]
    jump0 = JumpData(*jumps) if jumps is not None and cfg["corrections"] else None
    problem = AdvectionProblem(g, cfg["speed"], u0, jump0, cfg["t_final"])
    D = derivative_matrix(g, 1, cfg["m"])
    result = evolve(problem, D, cfg["dt"], cfg["output_every"])

    header = ["t"] + [f"u{j}" for j in range(g.N + 1)] + ["xi", "linf_error"]
    err = result.error_linf
    rows = np.column_stack([result.times, result.states, result.xi_path, err])
    report = {
        "N": g.N,
        "steps_recorded": int(result.times.size),
        "final_linf": float(err[-1]),
        "max_linf": float(err.max()),
    }
    return report, {"result.csv": (header, rows)}


# command -> (runner, its reports from its parsed config, {entry a check may read: the keys
# the run reports in it}, its key table besides "checks")
_COMMANDS = {
    "interp": (run_interp, lambda cfg: dict.fromkeys(_LABELLED, [_label(M) for M in _orders(cfg)]), {
        "problem": _PROBLEM, "grid": _GRID, "M": (_jump_orders, None), "probes": (_probe_count, 1000)}),
    "converge": (run_converge, _study, {
        "problem": _PROBLEM, "family": (_family, "chebyshev_gauss_lobatto"), "a": _REAL, "b": _REAL,
        "N_list": (_list(_integer, unique=True), ...), "M_list": (_list(_jump_order, unique=True), ...),
        "probes": (_probe_count, 1000)}),
    "diff": (run_diff, lambda cfg: {"max_error": ("plain", "corrected")}, {
        "problem": _PROBLEM, "grid": _GRID, "n": (_integer, 1), "m": (_integer, None), "M": _M,
        "export_matrix": (_flag, False), "export_corrections": (_flag, False)}),
    "quad": (run_quad, lambda cfg: {"max_error": ("plain", "corrected")}, {
        "problem": _PROBLEM, "grid": _GRID, "M": _M, "export_weights": (_flag, False)}),
    "evolve": (run_evolve, lambda cfg: {"final_linf": ()}, {
        "grid": _GRID, "speed": _REAL, "t_final": _REAL, "dt": _REAL, "output_every": (_integer, 1),
        "initial": (lambda cfg, key: _tagged(cfg, key, "kind", _INITIALS)[1], ...),
        "corrections": (_flag, True), "m": (_integer, None)}),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every main
    call in the process (parsing leaves it unchanged)."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError or UnicodeDecodeError is a ValueError
        print(f"jumpspec: cannot read config: {exc}", file=sys.stderr)
        return 2

    run, reports, table = _COMMANDS[args.command]
    try:
        spec = _fields(cfg, {**table, "checks": (_list(_raw), [])})
        checks = [(c, _check(c, f"checks[{i}].", args.command, reports(spec)))
                  for i, c in enumerate(spec["checks"])]
        report, files = run(spec)
        report.update(command=args.command, config=cfg)
        report["checks"] = _run_checks(checks, report)
    except ValueError as exc:
        print(f"jumpspec: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"jumpspec: numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4

    try:
        os.makedirs(args.out, exist_ok=True)
        for name, (header, rows) in files.items():
            write_csv(os.path.join(args.out, name), header, rows)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    except OSError as exc:
        print(f"jumpspec: cannot write outputs: {exc}", file=sys.stderr)
        return 2

    failed = [c for c in report["checks"] if not c["passed"]]
    for c in failed:
        print(f"jumpspec: check failed: {c['check']} (observed {c['observed']})", file=sys.stderr)
    return 1 if failed else 0
