"""Output verification for benchmark jobs.

A job passes when the CLI exits 0, every check in its report.json passed,
and its outputs agree with the references below. A job's error ratio is the
largest observed value over tolerance among its error checks; the benchmark
reports the worst ratio and counts a ratio above 1 as a failure.

The first execution of each config also reads result.csv back and checks it
against the report and, where the benchmark can evaluate the reference in
closed form itself (synthetic piecewise polynomials, advected kink and step
profiles), against that reference with the config's tolerance. Later
executions of the same config must write byte-identical result.csv and
report.json, as the CLI promises.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from numpy.polynomial import polynomial as npoly

import workloads


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != len(header):
        raise Mismatch(f"result.csv has {rows.shape[1]} columns for {len(header)} names")
    return header, rows


def _piecewise(problem: dict, x: np.ndarray, order: int) -> np.ndarray:
    left = npoly.polyder(problem["left"], order) if order else np.asarray(problem["left"])
    right = npoly.polyder(problem["right"], order) if order else np.asarray(problem["right"])
    th = np.heaviside(x - problem["xi"], 0.5)
    return th * npoly.polyval(x, right) + (1.0 - th) * npoly.polyval(x, left)


def _piecewise_integral(problem: dict, a: float, b: float) -> float:
    xi = problem["xi"]
    anti_l, anti_r = npoly.polyint(problem["left"]), npoly.polyint(problem["right"])
    return float(npoly.polyval(xi, anti_l) - npoly.polyval(a, anti_l)
                 + npoly.polyval(b, anti_r) - npoly.polyval(xi, anti_r))


class Mismatch(Exception):
    """An output disagrees with the report, the reference or an earlier run."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(got, want, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(err <= tol, f"{what}: error {err:.3g} exceeds {tol:.3g}")


def _check_outputs(command: str, cfg: dict, report: dict, header: list[str], rows: np.ndarray) -> None:
    col = {name: rows[:, i] for i, name in enumerate(header)}
    # evolve writes NaN for the discontinuity path when it tracks none
    untracked = command == "evolve" and not cfg.get("corrections", True)
    finite = np.isfinite(np.delete(rows, header.index("xi"), axis=1) if untracked else rows)
    _require(bool(np.all(finite)), "result.csv holds non-finite values")
    tol = max(workloads.tolerance_checks(cfg))
    problem = cfg.get("problem", {})
    synthetic = problem.get("type") == "synthetic"
    if command == "interp":
        _require(rows.shape[0] >= cfg["probes"], "fewer rows than probes")
        for label, value in report["max_error"].items():
            _require(float(col[f"err_{label}"].max()) == value, f"err_{label} disagrees with report")
        if synthetic:
            ref = _piecewise(problem, col["x"], 0)
            _close(col["f_exact"], ref, 1e-12 * max(1.0, np.abs(ref).max()), "f_exact")
            for M in cfg["M"]:
                if M >= 0:
                    _close(col[f"p_M{M}"], ref, tol, f"p_M{M} against the reference")
    elif command == "diff":
        _require(rows.shape[0] == cfg["grid"]["N"] + 1, "one row per node expected")
        _require(float(col["err_corrected"].max()) == report["max_error"]["corrected"],
                 "err_corrected disagrees with report")
        if synthetic:
            ref = _piecewise(problem, col["x"], cfg.get("n", 1))
            _close(col["deriv_corrected"], ref, tol, "corrected derivative against the reference")
    elif command == "quad":
        _require(rows.shape[0] == 1, "one row expected")
        _require(col["err_corrected"][0] == report["max_error"]["corrected"],
                 "err_corrected disagrees with report")
        if synthetic:
            g = cfg["grid"]
            ref = _piecewise_integral(problem, g["a"], g["b"])
            _close(col["integral_corrected"], ref, tol, "corrected integral against the reference")
    elif command == "converge":
        got = [(int(n), int(m), e) for n, m, e in rows]
        want = [(r["N"], r["M"], r["linf_error"]) for r in report["rows"]]
        _require(got == want, "result.csv rows disagree with report rows")
        cells = sum(1 for n in cfg["N_list"] for m in cfg["M_list"] if m <= n)
        _require(len(got) == cells, "one row per (N, M) cell expected")
    elif command == "evolve":
        _require(rows.shape[0] == report["steps_recorded"], "one row per recorded time expected")
        _require(col["linf_error"][-1] == report["final_linf"], "final linf disagrees with report")
        g, init = cfg["grid"], cfg["initial"]
        T = cfg["t_final"]
        _require(col["t"][-1] == T, "last recorded time is not t_final")
        x = workloads.grid_nodes(g["family"], g["a"], g["b"], g["N"])
        shift = x - init["xi0"] - cfg["speed"] * T
        amp = init["amplitude"]
        exact = amp * (np.abs(shift) if init["kind"] == "kink" else np.heaviside(shift, 0.5))
        final = rows[-1, 1 : g["N"] + 2]
        _close(final, exact, tol + 1e-12 * amp, "final state against the advected profile")


def _digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in ("result.csv", "report.json"):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Verifier:
    """Checks job outputs; remembers each config's first digest."""

    def __init__(self) -> None:
        self._digests: dict[int, str] = {}

    def check(self, job: int, command: str, cfg: dict, outdir: str, code: int) -> tuple[bool, float, str]:
        """(passed, error ratio, reason for a failure) of one execution."""
        if code != 0:
            return False, float("nan"), f"exit code {code}"
        try:
            with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            failed = [c for c in report["checks"] if not c["passed"]]
            _require(len(report["checks"]) == len(cfg["checks"]), "report lacks checks")
            _require(not failed, f"failed checks {failed}")
            ratio = max(
                c["observed"] / c["check"]["value"]
                for c in report["checks"]
                if c["check"]["kind"].endswith("_leq")
            )
            digest = _digest(outdir)
            first = self._digests.get(job)
            if first is None:
                header, rows = _read_csv(os.path.join(outdir, "result.csv"))
                _check_outputs(command, cfg, report, header, rows)
                self._digests[job] = digest
            else:
                _require(first == digest, "outputs differ from the first run of the same config")
        except (OSError, ValueError, KeyError, Mismatch) as exc:
            return False, float("nan"), f"{type(exc).__name__}: {exc}"
        return ratio <= 1.0, ratio, "" if ratio <= 1.0 else f"error ratio {ratio:.3g} above 1"
