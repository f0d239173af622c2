import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import jumpspec
from jumpspec.cli import main
from jumpspec.refproblems import LegendreProblem


def run_command(tmp_path, command, cfg, tag="run"):
    cfg_path = tmp_path / f"{tag}.json"
    out_dir = tmp_path / f"{tag}_out"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    report = {}
    report_path = out_dir / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return code, out_dir, report


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return header, np.asarray(rows)


INTERP_CFG = {
    "problem": {"type": "legendre", "l": 2, "xi": -0.55},
    "grid": {"family": "cgl", "a": -0.9, "b": 0.9, "N": 12},
    "M": [-1, 6, 12],
    "probes": 400,
}


def test_interp_outputs_and_check(tmp_path):
    cfg = dict(INTERP_CFG)
    cfg["checks"] = [{"kind": "smallest", "label": "M6", "metric": "max_error_near_xi"},
                     {"kind": "ratio_leq", "num": "M6", "den": "lagrange", "value": 1e-3}]
    code, out, report = run_command(tmp_path, "interp", cfg)
    assert code == 0
    header, rows = read_csv(out / "result.csv")
    assert header == ["x", "f_exact", "p_lagrange", "err_lagrange", "p_M6", "err_M6", "p_M12", "err_M12"]
    assert rows.shape[1] == 8
    assert report["max_error"]["M6"] < report["max_error"]["lagrange"]
    assert all(c["passed"] for c in report["checks"])
    assert report["checks"][1]["observed"] == report["max_error"]["M6"] / report["max_error"]["lagrange"]


def test_interp_equidistant_prefers_intermediate_jump_count(tmp_path):
    cfg = dict(INTERP_CFG)
    cfg["grid"] = {"family": "equidistant", "a": -0.9, "b": 0.9, "N": 12}
    cfg["checks"] = [{"kind": "smallest", "label": "M6", "metric": "max_error_near_xi"}]
    code, out, report = run_command(tmp_path, "interp", cfg)
    assert code == 0
    assert report["max_error"]["M6"] < report["max_error"]["M12"]
    near = report["max_error_near_xi"]
    assert near["M6"] < near["M12"] < near["lagrange"]


def test_default_jump_order_is_half_the_degree(tmp_path):
    cfg = {
        "problem": {"type": "legendre", "l": 2, "xi": -0.55},
        "grid": {"family": "cgl", "a": -0.9, "b": 0.9, "N": 12},
        "probes": 200,
    }
    code, out, report = run_command(tmp_path, "interp", cfg)
    assert code == 0
    assert set(report["max_error"]) == {"M6"}


def test_interp_zero_jump_problem_matches_plain_columns(tmp_path):
    cfg = {
        "problem": {"type": "synthetic", "left": [0.2, 1.0, -0.5], "right": [0.2, 1.0, -0.5], "xi": 0.1},
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 8},
        "M": [-1, 4],
        "probes": 300,
    }
    code, out, report = run_command(tmp_path, "interp", cfg)
    assert code == 0
    header, rows = read_csv(out / "result.csv")
    p_plain = rows[:, header.index("p_lagrange")]
    p_corr = rows[:, header.index("p_M4")]
    np.testing.assert_array_equal(p_plain, p_corr)


def test_runs_are_deterministic(tmp_path):
    code1, out1, _ = run_command(tmp_path, "interp", INTERP_CFG, tag="a")
    code2, out2, _ = run_command(tmp_path, "interp", INTERP_CFG, tag="b")
    assert code1 == code2 == 0
    assert (out1 / "result.csv").read_bytes() == (out2 / "result.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# a benchmark interp job (interp-sweep, seed 2, job 2) whose result.csv
# once differed in one row between 1 and 2 OpenBLAS threads, when its
# barycentric numerators were BLAS products split across the threads
BLAS_SPLIT_CFG = {
    "problem": {"type": "legendre", "l": 1, "xi": 0.276247},
    "grid": {"family": "cgl", "a": -0.881297, "b": 0.86064, "N": 48},
    "M": [-1, 8, 12],
    "probes": 10000,
    "checks": [{"kind": "max_error_leq", "label": "M8", "value": 1e-06},
               {"kind": "max_error_leq", "label": "M12", "value": 1e-06}],
}


def test_interp_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(BLAS_SPLIT_CFG))
    src = os.path.dirname(os.path.dirname(jumpspec.__file__))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "jumpspec", "interp", "--config", str(cfg_path), "--out", str(out)],
                              env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]


def test_converge_reports_orders_and_exponential_flag(tmp_path):
    # pieces differ by a cubic only: jumps vanish beyond order 3, so the
    # corrected interpolant converges like the smooth underlying function
    xs = np.cos(np.linspace(0, np.pi, 41)) * 0.9
    coeffs = np.polynomial.polynomial.polyfit(xs, np.exp(xs), 20)
    shifted = np.polynomial.polynomial.polyadd(coeffs, [0.0, 0.0, 0.0, 1.0])
    cfg = {
        "problem": {
            "type": "synthetic",
            "left": coeffs.tolist(),
            "right": shifted.tolist(),
            "xi": 0.123,
        },
        "family": "cgl",
        "a": -0.9,
        "b": 0.9,
        "N_list": [4, 6, 8, 10, 12],
        "M_list": [-1, 3],
        "probes": 400,
        "checks": [{"kind": "exponential_regime_is", "M": 3, "value": True}],
    }
    code, out, report = run_command(tmp_path, "converge", cfg)
    assert code == 0
    header, rows = read_csv(out / "result.csv")
    assert header == ["N", "M", "linf_error"]
    assert all(m <= n for n, m, _ in rows)
    fits = {f["M"]: f for f in report["fits"]}
    assert fits[3]["exponential_regime"] is True


def test_converge_legendre_orders(tmp_path):
    cfg = {
        "problem": {"type": "legendre", "l": 2, "xi": -0.55},
        "family": "cgl",
        "a": -0.9,
        "b": 0.9,
        "N_list": list(range(10, 41, 2)),
        "M_list": [-1, 5],
        "probes": 600,
        "checks": [{"kind": "order_geq", "M": 5, "value": 5.0},
                   {"kind": "error_at_leq", "N": 40, "M": 5, "value": 1e-8}],
    }
    code, _, report = run_command(tmp_path, "converge", cfg)
    assert code == 0
    assert all(c["passed"] for c in report["checks"])
    assert report["checks"][1]["observed"] == [r for r in report["rows"] if (r["N"], r["M"]) == (40, 5)][0]["linf_error"]
    fits = {f["M"]: f for f in report["fits"]}
    assert fits[5]["algebraic_order"] >= 5.0
    assert fits[-1]["algebraic_order"] <= 1.6  # saturated by the kink


def _count_jump_data(monkeypatch) -> list[int]:
    """Record the order of every LegendreProblem.jump_data call."""
    calls = []
    original = LegendreProblem.jump_data

    def counted(self, order):
        calls.append(order)
        return original(self, order)

    monkeypatch.setattr(LegendreProblem, "jump_data", counted)
    return calls


def test_converge_builds_each_jump_order_once(tmp_path, monkeypatch):
    calls = _count_jump_data(monkeypatch)
    cfg = dict(CONVERGE_CFG, N_list=[8, 10, 12, 14], M_list=[-1, 3, 5, 20])
    code, _, report = run_command(tmp_path, "converge", cfg)
    assert code == 0
    # once per M for all four grids; never for M = -1 or for an M above every N
    assert sorted(calls) == [3, 5]
    assert [(r["N"], r["M"]) for r in report["rows"]] == [(N, M) for N in (8, 10, 12, 14) for M in (-1, 3, 5)]
    assert [f["M"] for f in report["fits"]] == [-1, 3, 5]


def test_each_grid_builds_one_ratio_table(tmp_path, monkeypatch):
    # every jump order's pieces share the grid's one (node, probe) ratio
    # table, in interp and in each converge cell, also where a grid can
    # use no jump order (N = 4 below M = 5)
    from jumpspec import lagrange

    calls = []
    ratio_matrix = lagrange._ratio_matrix
    monkeypatch.setattr(lagrange, "_ratio_matrix", lambda w, pts: calls.append(w.grid.N) or ratio_matrix(w, pts))
    assert run_command(tmp_path, "interp", INTERP_CFG)[0] == 0
    assert calls == [12]
    calls.clear()
    cfg = dict(CONVERGE_CFG, N_list=[4, 8, 10, 12], M_list=[5, 3, -1, 20])
    code, _, report = run_command(tmp_path, "converge", cfg, "converge")
    assert code == 0
    assert sorted(calls) == [4, 8, 10, 12]
    assert [(r["N"], r["M"]) for r in report["rows"]][:3] == [(4, -1), (4, 3), (8, -1)]


def test_converge_without_grids_writes_an_empty_table(tmp_path, monkeypatch):
    calls = _count_jump_data(monkeypatch)
    code, out, report = run_command(tmp_path, "converge", dict(CONVERGE_CFG, N_list=[]))
    assert code == 0
    assert calls == []
    assert report["rows"] == [] and report["fits"] == []
    assert (out / "result.csv").read_text() == "N,M,linf_error\n"


def test_diff_command_and_exports(tmp_path):
    cfg = {
        "problem": {"type": "legendre", "l": 2, "xi": 0.3},
        "grid": {"family": "cgl", "a": -0.8, "b": 0.8, "N": 24},
        "M": 12,
        "export_matrix": True,
        "export_corrections": True,
        "checks": [{"kind": "max_error_leq", "label": "corrected", "value": 1e-6}],
    }
    code, out, report = run_command(tmp_path, "diff", cfg)
    assert code == 0
    assert report["max_error"]["corrected"] <= 1e-6
    assert report["max_error"]["plain"] > 100 * report["max_error"]["corrected"]
    header, rows = read_csv(out / "derivative_matrix.csv")
    assert rows.shape == (25, 25)
    header, rows = read_csv(out / "correction_matrix.csv")
    assert rows.shape == (25, 25)
    assert np.all(np.diag(rows) == 0.0)


def test_quad_command_step_integrand(tmp_path):
    cfg = {
        "problem": {"type": "synthetic", "left": [0.0], "right": [1.0], "xi": 0.1},
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 8},
        "M": 0,
        "export_weights": True,
        "checks": [{"kind": "max_error_leq", "label": "corrected", "value": 1e-13}],
    }
    code, out, report = run_command(tmp_path, "quad", cfg)
    assert code == 0
    assert report["reference"] == pytest.approx(0.9, rel=1e-14)
    assert report["max_error"]["corrected"] <= 1e-13
    assert report["max_error"]["plain"] > 1e-3
    header, rows = read_csv(out / "quad_weights.csv")
    assert header == ["x", "w"] and rows.shape == (9, 2)


def test_evolve_command(tmp_path):
    cfg = {
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 24},
        "speed": 1.0,
        "t_final": 0.25,
        "dt": 1e-3,
        "output_every": 50,
        "initial": {"kind": "kink", "xi0": -0.25},
        "checks": [{"kind": "final_linf_leq", "value": 1e-4}],
    }
    code, out, report = run_command(tmp_path, "evolve", cfg)
    assert code == 0
    header, rows = read_csv(out / "result.csv")
    assert header[:2] == ["t", "u0"] and header[-2:] == ["xi", "linf_error"]
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 0.25
    np.testing.assert_allclose(rows[:, -2], -0.25 + rows[:, 0], atol=1e-15)
    assert report["final_linf"] <= 1e-4


def test_evolve_step_profile_stays_sharp(tmp_path):
    # a step's only jump is J_0, which makes the corrected right-hand side
    # of piecewise-constant data zero, so only rounding is left
    cfg = {
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 24},
        "speed": 1.0,
        "t_final": 0.2,
        "dt": 1e-3,
        "output_every": 50,
        "initial": {"kind": "step", "xi0": -0.25, "amplitude": 2.0},
        "checks": [{"kind": "final_linf_leq", "value": 1e-14}],
    }
    code, _, report = run_command(tmp_path, "evolve", cfg, tag="corrected")
    assert code == 0
    code, _, plain = run_command(tmp_path, "evolve", {**cfg, "corrections": False}, tag="plain")
    assert code == 1
    assert plain["final_linf"] > 0.5


def test_failing_check_exits_one(tmp_path):
    cfg = dict(INTERP_CFG)
    cfg["checks"] = [{"kind": "max_error_leq", "label": "lagrange", "value": 1e-12}]
    code, _, report = run_command(tmp_path, "interp", cfg)
    assert code == 1
    assert not report["checks"][0]["passed"]


def test_missing_config_file_exits_two(tmp_path):
    code = main(["interp", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(b"\xff")
    code = main(["quad", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "jumpspec: cannot read config: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_naming_a_regular_file_exits_two(tmp_path, capsys):
    cfg_path, out = tmp_path / "run.json", tmp_path / "taken"
    cfg_path.write_text(json.dumps({"problem": {"type": "legendre", "l": 2, "xi": 0.3},
                                    "grid": {"family": "cgl", "a": -0.8, "b": 0.8, "N": 12}}))
    out.write_text("kept\n")
    code = main(["quad", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "jumpspec: cannot write outputs: " in capsys.readouterr().err
    assert out.read_text() == "kept\n"


CONVERGE_CFG = {
    "problem": {"type": "legendre", "l": 2, "xi": 0.3},
    "family": "cgl",
    "a": -0.8,
    "b": 0.8,
    "N_list": [8, 10],
    "M_list": [3],
    "probes": 50,
}
DIFF_CFG = {
    "problem": {"type": "legendre", "l": 2, "xi": 0.3},
    "grid": {"family": "cgl", "a": -0.8, "b": 0.8, "N": 12},
}
EVOLVE_CFG = {
    "grid": {"family": "cgl", "a": -1, "b": 1, "N": 12},
    "speed": 1.0,
    "t_final": 0.1,
    "dt": 1e-2,
    "initial": {"kind": "kink", "xi0": -0.25},
}


BASE_CFGS = {
    "interp": INTERP_CFG,
    "converge": CONVERGE_CFG,
    "diff": DIFF_CFG,
    "quad": DIFF_CFG,
    "evolve": EVOLVE_CFG,
}
NON_INTEGRAL = [
    ("interp", "grid.N", 12.9),
    ("interp", "grid.N", "12"),
    ("interp", "M", [2.7]),
    ("interp", "M", 2.7),
    ("interp", "probes", 400.5),
    ("interp", "probes", True),
    ("interp", "problem.l", 2.5),
    ("converge", "N_list", [8, 10.5]),
    ("converge", "M_list", [3.5]),
    ("converge", "probes", 50.5),
    ("diff", "n", 1.5),
    ("diff", "m", 8.5),
    ("diff", "M", 4.2),
    ("quad", "M", 4.2),
    ("evolve", "m", 12.5),
    ("evolve", "output_every", 1.5),
]


def edited(command, field, value):
    """A copy of the command's base config with the dotted field set to value;
    several fields joined by '+' take a tuple of values, one each."""
    cfg = json.loads(json.dumps(BASE_CFGS[command]))
    for path, v in zip(field.split("+"), value if "+" in field else (value,)):
        *parents, key = path.split(".")
        target = cfg
        for name in parents:
            target = target[name]
        target[key] = v
    return cfg


@pytest.mark.parametrize(
    "command,field,value", NON_INTEGRAL, ids=[f"{c}-{f}-{v!r}" for c, f, v in NON_INTEGRAL]
)
def test_non_integral_integer_fields_exit_two(tmp_path, capsys, command, field, value):
    code, out, _ = run_command(tmp_path, command, edited(command, field, value))
    assert code == 2
    assert f"{field.split('.')[-1]} must be an integer" in capsys.readouterr().err
    assert not out.exists()


BAD_JUMP_ORDERS = [
    ("interp", [-1, -2, 6]),
    ("interp", [-1, 6, 6]),
    ("interp", [-1, -2, 6, 6]),
    ("interp", -2),
    ("diff", -5),
    ("quad", -2),
    ("converge", [-2, -1, 3]),
    ("converge", [-1, 3, 3]),
]


@pytest.mark.parametrize(
    "command,value", BAD_JUMP_ORDERS, ids=[f"{c}-{v!r}" for c, v in BAD_JUMP_ORDERS]
)
def test_repeated_or_below_minus_one_jump_orders_exit_two(tmp_path, capsys, command, value):
    key = "M_list" if command == "converge" else "M"
    cfg = dict(BASE_CFGS[command], **{key: value})
    code, out, _ = run_command(tmp_path, command, cfg)
    assert code == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


NON_BOOLEAN = [
    ("evolve", "corrections", "false"),
    ("evolve", "corrections", 0),
    ("diff", "export_matrix", "true"),
    ("diff", "export_corrections", 1),
    ("quad", "export_weights", "yes"),
]


@pytest.mark.parametrize(
    "command,field,value", NON_BOOLEAN, ids=[f"{c}-{f}-{v!r}" for c, f, v in NON_BOOLEAN]
)
def test_non_boolean_flags_exit_two(tmp_path, capsys, command, field, value):
    code, out, _ = run_command(tmp_path, command, dict(BASE_CFGS[command], **{field: value}))
    assert code == 2
    assert f"{field} must be true or false" in capsys.readouterr().err
    assert not out.exists()


OVERFLOWING = {"type": "synthetic", "left": [0.0], "right": [1e308, 1e308], "xi": 0.9}
HUGE_COEFFICIENT = {"type": "synthetic", "left": [0.0], "right": [0.0, 0.0, 1e308], "xi": 0.3}
WIDE_GRID = {"family": "cgl", "a": -1, "b": 1, "N": 4}
OVERFLOWING_KINK = (24, 0.3, 1, 1e-3, {"kind": "kink", "xi0": -0.95, "amplitude": 1.7e308})


def grid_scale_rows() -> list:
    """CONFIG_ERRORS rows of N = 8 grids whose scale leaves the float range:
    their nodes overflow, or their barycentric weights (interp, quad) or
    stencil weights (diff, evolve) do."""
    rows = []
    for family, a, b in (("equidistant", -1e308, 1e308), ("cgl", 0.0, 1e40), ("cgl", 0.0, 1e-200)):
        grid = {"family": family, "a": a, "b": b, "N": 8}
        xi = 0.37 * b + 0.63 * a
        problem = {"type": "synthetic", "left": [0.0, 1.0], "right": [1.0, -1.0], "xi": xi}
        too = "nodes too close or interval too wide"
        weights = f"the grid on [{a}, {b}] with 9 nodes has degenerate barycentric weights; {too}"
        stencils = f"the grid on [{a}, {b}] with 9 nodes has no order-1 derivative matrix at m = 8; {too}"
        if family == "equidistant":
            weights = stencils = f"the nodes of the grid on [{a}, {b}] must be finite"
        rows += [("interp", "problem+grid+M", (problem, grid, [-1, 4]), weights),
                 ("diff", "problem+grid", (problem, grid), stencils),
                 ("quad", "problem+grid", (problem, grid), weights),
                 ("evolve", "grid+speed+t_final+dt+initial",
                  (grid, b - a, 0.1, 1e-3, {"kind": "kink", "xi0": xi}), stencils)]
    return rows


SMALL_PIECES = {"type": "synthetic", "left": [0.0, 1.0], "right": [1.0, -1.0], "xi": 0.3}
FLOAT_MAX_PAIR = {"family": "cgl", "a": -1, "b": sys.float_info.max, "N": 1}
ORDER_ZERO_OVERFLOW = {"type": "synthetic", "left": [-1e308], "right": [1e308]}
EQUIDISTANT_170 = {"family": "equidistant", "a": -1, "b": 1, "N": 170}
NODE_AT_HALF = {"type": "synthetic", "left": [1e308], "right": [1, -1], "xi": 0.5}
WIDE_SPAN = {"family": "custom", "a": -1e308, "b": 1e308, "nodes": [-1, 0, 1]}
HUGE_LEFT_PIECE = {"type": "synthetic", "left": [1e308], "right": [1, -1], "xi": 0.3}
NEAR_TWINS = {"family": "custom", "a": -1, "b": 1, "nodes": [-1, -0.6, -0.2, 0.2, 0.2000000000000001, 0.6, 1]}
FLOAT_MAX_PAIR_WEIGHTS = (f"the grid on [-1.0, {sys.float_info.max}] with 2 nodes has degenerate barycentric "
                          "weights; nodes too close or interval too wide")
CONFIG_ERRORS = [
    ("interp", "probe", 10, "unknown key probe"),
    ("interp", "problem.amplitude", 1.0, "unknown key problem.amplitude"),
    ("interp", "grid.nodes", [-0.9, 0.0, 0.9], "unknown key grid.nodes"),
    ("evolve", "initial.amplitud", 2.0, "unknown key initial.amplitud"),
    ("quad", "checks", [{"kind": "max_error_leq", "label": "corrected", "value": 1.0, "tol": 2.0}],
     "unknown key checks[0].tol"),
    ("interp", "checks", [{"kind": "final_linf_leq", "value": 1.0}],
     "checks[0] reads 'final_linf', which interp does not report"),
    ("evolve", "checks", [{"kind": "max_error_leq", "label": "corrected", "value": 1.0}],
     "checks[0] reads 'max_error', which evolve does not report"),
    ("converge", "checks", [{"kind": "order_leq", "M": 3, "value": 9.0}], "unknown checks[0].kind 'order_leq'"),
    ("diff", "checks", [{"kind": "max_error_leq", "label": "corrected"}], "checks[0].value is required"),
    ("converge", "checks", [{"kind": "error_at_leq", "N": 8, "value": 1.0}], "checks[0].M is required"),
    ("diff", "checks", [{"kind": "smallest", "label": "corrected", "metric": "max_error_near_xi"}],
     "checks[0] reads 'max_error_near_xi', which diff does not report"),
    ("interp", "checks", [{"kind": "ratio_leq", "num": "M6", "den": "M12", "value": 1.0, "metric": "fits"}],
     "checks[0] reads 'fits', which interp does not report"),
    ("converge", "N_list", [8, 8, 10], "N_list must be unique"),
    ("converge", "checks", [{"kind": "exponential_regime_is", "M": 3, "value": "false"}],
     "checks[0].value must be true or false"),
    ("interp", "grid.a", "-0.9", "grid.a must be a number"),
    ("quad", "problem", {"type": "synthetic", "left": 1.0, "right": [0.0], "xi": 0.3},
     "problem.left must be a list"),
    ("quad", "problem", 3, "problem must be a JSON object"),
    ("diff", "problem.type", "legendre_q", "unknown problem.type 'legendre_q'"),
    # a label or fit the run does not produce
    ("interp", "checks", [{"kind": "max_error_leq", "label": "M7", "value": 1.0}],
     "checks[0]: report entry 'max_error' has nothing at 'M7'"),
    ("converge", "checks", [{"kind": "order_geq", "M": 5, "value": 1.0}],
     "checks[0]: report entry 'fits' has nothing at 5"),
    # a constant interpolated on 3 nodes has no plain error to divide by
    ("interp", "problem+grid.N+M+checks",
     ({"type": "synthetic", "left": [1.0], "right": [1.0], "xi": -0.55}, 2, [-1, 0],
      [{"kind": "ratio_leq", "num": "M0", "den": "lagrange", "value": 1.0}]),
     "checks[0]: report entry 'max_error' has 0 at 'lagrange', the ratio's denominator"),
    # JSON's NaN and Infinity, and integers past the float range, are no config numbers
    ("evolve", "dt", float("nan"), "dt must be a finite number"),
    ("evolve", "dt", float("inf"), "dt must be a finite number"),
    ("evolve", "t_final", 10**400, "t_final must be a finite number"),
    ("interp", "grid.a", float("-inf"), "grid.a must be a finite number"),
    ("evolve", "checks", [{"kind": "final_linf_leq", "value": float("nan")}],
     "checks[0].value must be a finite number"),
    ("evolve", "initial", {"kind": "gaussian", "center": 0.0, "width": 0}, "initial.width must be positive"),
    ("evolve", "initial", {"kind": "gaussian", "center": 0.0, "width": -0.3}, "initial.width must be positive"),
    # a probe set spans the interval, so it needs both ends
    ("interp", "probes", 1, "probes must be at least 2, got 1"),
    ("interp", "probes", 0, "probes must be at least 2, got 0"),
    ("interp", "probes", -3, "probes must be at least 2, got -3"),
    ("converge", "probes", 1, "probes must be at least 2, got 1"),
    ("converge", "probes", 0, "probes must be at least 2, got 0"),
    ("converge", "probes", -3, "probes must be at least 2, got -3"),
    # a jump order is at most the grid degree, in every command that takes one
    ("diff", "M", 13, "M=13 exceeds the grid degree N=12"),
    ("quad", "M", 13, "M=13 exceeds the grid degree N=12"),
    # the default M = 200 reaches Legendre jumps past the float range, first at order 161
    ("diff", "grid.N", 400, "the legendre jump of order 161 at xi = 0.3 is not finite"),
    ("quad", "grid.N", 400, "the legendre jump of order 161 at xi = 0.3 is not finite"),
    # interp with no jump order at all would tabulate only the exact values
    ("interp", "M", [], "M must list at least one jump order"),
    # a polynomial piece has at least one coefficient
    ("quad", "problem", {"type": "synthetic", "left": [], "right": [1.0], "xi": 0.3},
     "left piece needs a nonempty 1-D array of finite coefficients"),
    ("interp", "problem", {"type": "synthetic", "left": [0.0, 1.0], "right": [], "xi": 0.3},
     "right piece needs a nonempty 1-D array of finite coefficients"),
    ("diff", "M", -2, "M must be at least -1, got -2"),
    ("converge", "family", "custom", "convergence studies need an equidistant or cgl family"),
    ("converge", "family", "chebyshev", "unknown grid family 'chebyshev'"),
    ("interp", "problem.xi", 0.95, "the problem's discontinuity must lie inside the grid interval"),
    # the second-kind Legendre functions have logarithmic singularities at -1 and 1
    ("diff", "grid.a", -1.0, "second-kind Legendre values require |x| < 1"),
    ("converge", "a", -1.0, "second-kind Legendre values require |x| < 1"),
    ("evolve", "t_final", 0, "t_final must be positive"),
    ("evolve", "t_final", -0.5, "t_final must be positive"),
    # node 4 of this grid is 0.0; the first segment would end 2e-16 later, on it
    ("evolve", "grid.N+speed+t_final+initial.xi0", (8, -0.5, 0.5, 1e-16),
     "discontinuity at 1e-16 starts within rounding of a grid node"),
    # the right piece overflows at the node x = 1
    ("interp", "problem+grid+M", (OVERFLOWING, WIDE_GRID, [-1, 2]),
     "the synthetic derivative of order 0 at x = 1.0 is not finite"),
    ("diff", "problem+grid", (OVERFLOWING, WIDE_GRID), "the synthetic derivative of order 0 at x = 1.0 is not finite"),
    ("quad", "problem+grid", (OVERFLOWING, WIDE_GRID), "the synthetic derivative of order 0 at x = 1.0 is not finite"),
    # the right piece's first derivative coefficient, 2e308, overflows; the
    # left piece's slope stays 0, so diff names the first node right of xi
    ("interp", "problem+grid+M", (HUGE_COEFFICIENT, WIDE_GRID, [-1, 2]),
     "the synthetic jump of order 1 at xi = 0.3 is not finite"),
    ("diff", "problem+grid", (HUGE_COEFFICIENT, WIDE_GRID),
     "the synthetic derivative of order 1 at x = 0.7071067811865476 is not finite"),
    ("quad", "problem+grid", (HUGE_COEFFICIENT, WIDE_GRID), "the synthetic jump of order 1 at xi = 0.3 is not finite"),
    # finite pieces whose integrals differ by more than the float range
    ("quad", "problem+grid", ({"type": "synthetic", "left": [-1e308], "right": [1e308], "xi": 0.9}, WIDE_GRID),
     "the synthetic reference integral over [-1.0, 1.0] is not finite"),
    # diff, too, needs a coefficient in each piece
    ("diff", "problem+grid+M", ({"type": "synthetic", "left": [], "right": [1.0], "xi": 0.3},
                                {"family": "cgl", "a": -0.8, "b": 0.8, "N": 4}, 1),
     "left piece needs a nonempty 1-D array of finite coefficients"),
    # an unknown problem, a jump order above the grid degree, and a Legendre
    # grid that reaches the logarithmic singularities
    ("interp", "problem+grid", ({"type": "nope"}, {}), "unknown problem.type 'nope'"),
    ("interp", "M", [40], "M=40 exceeds the grid degree N=12"),
    ("interp", "grid.a+grid.b", (-1.0, 1.0), "second-kind Legendre values require |x| < 1"),
    # a check's label, num and den are strings
    ("interp", "checks", [{"kind": "max_error_leq", "label": ["M6"], "value": 1.0}],
     "checks[0].label must be a string, got ['M6']"),
    ("interp", "checks", [{"kind": "smallest", "label": {"M": 6}, "metric": "max_error"}],
     "checks[0].label must be a string, got {'M': 6}"),
    ("interp", "checks", [{"kind": "ratio_leq", "num": "M6", "den": [], "value": 1.0}],
     "checks[0].den must be a string, got []"),
    # a metric names a report entry keyed by label
    ("evolve", "checks", [{"kind": "smallest", "label": "corrected", "metric": "final_linf"}],
     "checks[0].metric must be max_error or max_error_near_xi, got 'final_linf'"),
    ("converge", "checks", [{"kind": "ratio_leq", "num": "a", "den": "b", "value": 1.0, "metric": "fits"}],
     "checks[0].metric must be max_error or max_error_near_xi, got 'fits'"),
    # t_final / dt overflows to inf
    ("evolve", "dt", 5e-324, "dt 5e-324 is too small: the step count t_final / dt is not finite"),
    # node 4 of this grid is 0.0: the step ends exactly on it, and the kink
    # crosses it 5e-14 before t_final, too short a last segment to bracket
    ("evolve", "grid.N+initial", (8, {"kind": "step", "xi0": -0.1}),
     "discontinuity ends at 0.0, within rounding of a grid node"),
    ("evolve", "grid.N+t_final+initial.xi0", (8, 0.10000000000005, -0.1),
     "discontinuity ends at 4.9987791683747673e-14, within rounding of a grid node"),
    # a kink of amplitude 1.7e308 overflows at the nodes farther than 1.06 from
    # xi0, the first of them node 13; its corrected twin's slope jump overflows
    ("evolve", "grid.N+speed+t_final+dt+initial+corrections", OVERFLOWING_KINK + (False,),
     "the initial profile is not finite at node 13 (x = 0.1305261922200517)"),
    ("evolve", "grid.N+speed+t_final+dt+initial+corrections", OVERFLOWING_KINK + (True,),
     "derivative jumps must be finite"),
    *grid_scale_rows(),
    # two nodes near the float max: the weights +-1/(float max + 1) are subnormal
    ("interp", "problem+grid+M", (SMALL_PIECES, FLOAT_MAX_PAIR, [-1, 1]), FLOAT_MAX_PAIR_WEIGHTS),
    ("quad", "problem+grid", (SMALL_PIECES, FLOAT_MAX_PAIR), FLOAT_MAX_PAIR_WEIGHTS),
    # config faults come before the first numerical result: D's product and
    # quad's weights would not be finite, nor would converge's N = 3
    # interpolant, but the order-0 jump 2e308 is not finite, or xi is a node
    # (node 85 of 171 is 0.0, node 3 of equidistant N = 4 is 0.5), whatever
    # the order of N_list
    ("diff", "problem+grid+M", ({**ORDER_ZERO_OVERFLOW, "xi": 0.0}, WIDE_GRID, 0),
     "the synthetic jump of order 0 at xi = 0.0 is not finite"),
    ("diff", "problem+grid+M", ({**ORDER_ZERO_OVERFLOW, "xi": 0.3}, WIDE_GRID, 0),
     "the synthetic jump of order 0 at xi = 0.3 is not finite"),
    ("quad", "problem+grid+M", ({**SMALL_PIECES, "xi": 0.0}, EQUIDISTANT_170, 1),
     "discontinuity at 0.0 coincides with a grid node"),
    ("quad", "problem+grid+M", ({**ORDER_ZERO_OVERFLOW, "xi": 0.3}, EQUIDISTANT_170, 0),
     "the synthetic jump of order 0 at xi = 0.3 is not finite"),
    *[("converge", "problem+family+a+b+N_list+M_list", (NODE_AT_HALF, "equidistant", -1, 1, N_list, [1]),
       "discontinuity at 0.5 coincides with a grid node") for N_list in ([3, 4], [4, 3])],
    # near the float range: node order, which a difference of nodes would
    # overflow, and the powers of -c D that evolve's steps are built from
    *[("quad", "problem+grid", (SMALL_PIECES, {"family": "custom", "a": -1e308, "b": 1e308, "nodes": nodes}), message)
      for nodes, message in (([1e308, -1e308, 0, 0.5, 1], "grid nodes must be strictly increasing and distinct"),
                             ([-1e308, 1e308], "the grid on [-1e+308, 1e+308] with 2 nodes has degenerate "
                              "barycentric weights"))],
    ("evolve", "grid+speed+t_final+dt+initial", ({"family": "cgl", "a": -1, "b": 1, "N": 16}, 1e308, 5e-324, 1e-3,
                                                  {"kind": "gaussian", "center": 0.0, "width": 0.3}),
     "speed 1e+308 is too large for the grid of N = 16: the powers of -speed * D leave the float range"),
    # the nodes are small, but the probe span b - a leaves the float range
    ("interp", "problem+grid+M", ({**SMALL_PIECES, "xi": 0.5}, WIDE_SPAN, [-1, 1]),
     "the probe span of the interval [-1e+308, 1e+308] leaves the float range"),
    # a label, fit or cell the run does not produce is settled before the
    # run, whose interpolants would overflow: M7 is not run, M = 7 has one
    # grid and so no fit, and N = 6 cannot use M = 7
    ("interp", "problem+grid+M+checks", (HUGE_LEFT_PIECE, {"family": "cgl", "a": -1, "b": 1, "N": 8}, [-1],
                                         [{"kind": "max_error_leq", "label": "M7", "value": 1.0}]),
     "checks[0]: report entry 'max_error' has nothing at 'M7'"),
    *[("converge", "problem+N_list+M_list+probes+checks", (HUGE_LEFT_PIECE, [6, 8], [-1, 3, 7], 5, [check]), message)
      for check, message in (({"kind": "order_geq", "M": 7, "value": 1.0}, "report entry 'fits' has nothing at 7"),
                             ({"kind": "error_at_leq", "N": 6, "M": 7, "value": 1.0},
                              "report entry 'rows' has nothing at (6, 7)"))],
    # nodes 3 and 4 are one ulp apart: the kink crosses node 4 within rounding
    # of node 3, a segment with no bracket; it once ran to t_final and
    # reported final_linf 0.45
    ("evolve", "grid+m+t_final+dt+initial", (NEAR_TWINS, 2, 0.5, 1e-3, {"kind": "kink", "xi0": 0.05}),
     "discontinuity crosses node 4 (x = 0.2000000000000001) within rounding of a grid node"),
]


@pytest.mark.parametrize(
    "command,field,value,message",
    CONFIG_ERRORS,
    ids=[f"{c}-{f}-{i}" for i, (c, f, _, _) in enumerate(CONFIG_ERRORS)],
)
def test_config_errors_exit_two_and_write_nothing(tmp_path, capsys, command, field, value, message):
    code, out, _ = run_command(tmp_path, command, edited(command, field, value))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


CGL_WEIGHT_LIMIT = {
    "interp": lambda N: {"problem": SMALL_PIECES, "grid": {"family": "cgl", "a": -1, "b": 1, "N": N}, "M": [-1, 2]},
    "quad": lambda N: {"problem": SMALL_PIECES, "grid": {"family": "cgl", "a": -1, "b": 1, "N": N}, "M": 2},
    "converge": lambda N: {"problem": SMALL_PIECES, "family": "cgl", "a": -1, "b": 1, "N_list": [8, N],
                           "M_list": [-1, 2], "probes": 50},
}


@pytest.mark.parametrize("N", [769, 770, 800])
@pytest.mark.parametrize("command", list(CGL_WEIGHT_LIMIT))
def test_cgl_weights_stop_where_the_derivative_matrix_does(tmp_path, capsys, command, N):
    """From N = 770 the row products of the CGL weights on [-1, 1] leave the
    normal float range on the way, as derivative_matrix's do: a config error."""
    code, out, _ = run_command(tmp_path, command, CGL_WEIGHT_LIMIT[command](N))
    if N < 770:
        assert code == 0
        return
    assert code == 2
    assert (f"the grid on [-1.0, 1.0] with {N + 1} nodes has degenerate barycentric weights; nodes too close or "
            "interval too wide") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [0.5, -2])
def test_evolve_reports_M_as_unknown_key(tmp_path, capsys, value):
    """evolve corrects with its profile's own jumps, all of them or none, so
    an M is an unknown key whatever its value, integral or not, valid or not."""
    code, out, _ = run_command(tmp_path, "evolve", edited("evolve", "M", value))
    assert code == 2
    assert "unknown key M" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_fields_run_as_integers(tmp_path):
    cfg = json.loads(json.dumps(INTERP_CFG))
    cfg["grid"]["N"] = 12.0
    cfg["M"] = [-1.0, 6.0, 12]
    code, out, _ = run_command(tmp_path, "interp", cfg, tag="float")
    assert code == 0
    code, ref, _ = run_command(tmp_path, "interp", INTERP_CFG, tag="int")
    assert code == 0
    assert (out / "result.csv").read_bytes() == (ref / "result.csv").read_bytes()


REPEATED = [
    ("converge", CONVERGE_CFG),
    ("diff", {**DIFF_CFG, "export_matrix": True, "export_corrections": True}),
    ("quad", {**DIFF_CFG, "export_weights": True}),
    ("evolve", {**EVOLVE_CFG, "initial": {"kind": "gaussian", "center": 0.0, "width": 0.3}}),
]


@pytest.mark.parametrize("command,cfg", REPEATED, ids=[c for c, _ in REPEATED])
def test_repeated_calls_write_identical_files(tmp_path, command, cfg):
    # the parser and the quadrature rules are built on the first call and
    # reused by the later ones
    outs = []
    for tag in ("a", "b", "c"):
        code, out, _ = run_command(tmp_path, command, cfg, tag=tag)
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "report.json" in outs[0]
    assert outs[0] == outs[1] == outs[2]


def test_usage_error_after_a_run_exits_two(tmp_path):
    code, _, _ = run_command(tmp_path, "quad", DIFF_CFG)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["quad", "--out", str(tmp_path / "usage_out")])
    assert exc.value.code == 2
    assert not (tmp_path / "usage_out").exists()


NON_FINITE = re.compile(
    r"state became non-finite at t = (\S+) \(max \|u\| before failure (\d\.\d{3}e\+3\d\d)\); "
    r"likely an unstable dt"
)


def failed_evolve(tmp_path, capsys, cfg):
    """Run an evolve config that must fail numerically; return the reported
    failure time and max |u| before failure, as printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_command(tmp_path, "evolve", cfg)
    assert code == 3
    match = NON_FINITE.search(capsys.readouterr().err)
    assert match is not None
    assert not out.exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return match.groups()


@pytest.mark.parametrize("output_every", [1, 10, 50])
def test_numerical_failure_exits_three(tmp_path, capsys, output_every):
    # the reported max |u| is that of the state the failing step started
    # from, whatever the recording interval
    cfg = {
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 24},
        "speed": 1.0,
        "t_final": 40.0,
        "dt": 0.1,  # far past the RK4 stability limit of this grid
        "output_every": output_every,
        "initial": {"kind": "gaussian", "center": 0.0, "width": 0.3},
    }
    assert failed_evolve(tmp_path, capsys, cfg) == ("10.8", "2.932e+307")


def test_corrected_numerical_failure_exits_three(tmp_path, capsys):
    # the discontinuity must stay inside the interval, which caps the run at
    # a few dozen unstable steps and a growth of about 1e65, so a large
    # amplitude puts the overflow within reach of the corrected stepper
    cfg = {
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 24},
        "speed": 0.3,
        "t_final": 6.3,
        "dt": 0.1,
        "initial": {"kind": "kink", "xi0": -0.95, "amplitude": 1e250},
    }
    assert 0.0 < float(failed_evolve(tmp_path, capsys, cfg)[0]) < cfg["t_final"]


def test_overflowing_derivative_exits_three(tmp_path, capsys):
    # the data are finite, +-1e308, but D's entries reach several units; the
    # plain M = -1, since their order-0 jump is not finite, a config error
    cfg = {"problem": {"type": "synthetic", "left": [-1e308], "right": [1e308], "xi": 0.9}, "grid": WIDE_GRID,
           "M": -1}
    code, out, _ = run_command(tmp_path, "diff", cfg)
    assert code == 3
    assert "numerical failure: the plain derivative is not finite" in capsys.readouterr().err
    assert not out.exists()


NON_FINITE_RESULTS = [
    # the barycentric sums of 171 equidistant nodes cancel to zero at a Gauss point
    ("quad", {"problem": {"type": "legendre", "l": 2, "xi": 0.3},
              "grid": {"family": "equidistant", "a": -0.8, "b": 0.8, "N": 170}, "M": 3},
     "numerical failure: the quadrature weights are not finite"),
    # the left piece, 1e308, overflows the barycentric sums between the nodes
    ("interp", {"problem": HUGE_LEFT_PIECE, "grid": {"family": "cgl", "a": -0.8, "b": 0.8, "N": 8},
                "M": [3], "probes": 5},
     "numerical failure: the M3 interpolant on N = 8 is not finite"),
    # the same in a convergence study, whose cells run on a thread pool
    ("converge", {"problem": HUGE_LEFT_PIECE, "family": "cgl", "a": -0.8, "b": 0.8, "N_list": [6, 8],
                  "M_list": [-1, 3], "probes": 5},
     "numerical failure: the lagrange interpolant on N = 6 is not finite"),
    # the right piece's 5e306 x^4 is finite at the nodes, but its jump series
    # carried to the far side overflows the corrected piece's matrix product
    ("diff", {"problem": {"type": "synthetic", "left": [0.0], "right": [0, 0, 0, 0, 5e306], "xi": 0.05},
              "grid": {"family": "cgl", "a": -2, "b": 0.1, "N": 24}, "M": 4},
     "numerical failure: the corrected derivative is not finite"),
    # the right piece, 1e300, overflows the plain weighted sum of 61 equidistant
    # nodes, whose weights reach 7.7e12 in magnitude
    ("quad", {"problem": {"type": "synthetic", "left": [0.0], "right": [1e300], "xi": 0.31},
              "grid": {"family": "equidistant", "a": -0.8, "b": 0.8, "N": 60}, "M": 0},
     "numerical failure: the plain integral is not finite"),
    # the right piece's 1e304 x^4 carried to the far side overflows the
    # barycentric sums of the M4 and M3 pieces, not the plain or M2 ones:
    # the first column in M order is named
    ("interp", {"problem": {"type": "synthetic", "left": [0.0], "right": [0, 0, 0, 0, 1e304], "xi": 0.05},
                "grid": {"family": "cgl", "a": -2, "b": 0.1, "N": 24}, "M": [-1, 2, 4, 3], "probes": 50},
     "numerical failure: the M4 interpolant on N = 24 is not finite"),
]
# explicit ids, so that an appended row of a command moves no earlier row's id
NON_FINITE_IDS = ["quad", "interp", "converge", "diff-corrected", "quad-plain", "interp-order"]


@pytest.mark.parametrize("command,cfg,message", NON_FINITE_RESULTS, ids=NON_FINITE_IDS)
def test_non_finite_results_exit_three_without_warnings(tmp_path, capsys, command, cfg, message):
    # finite data and a valid grid, but a result that is not finite: a
    # numerical failure, which writes nothing and leaks no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_command(tmp_path, command, cfg)
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("right", [[1e308], [0.0, sys.float_info.max]], ids=["value", "slope"])
def test_overflowing_quadrature_sum_exits_three(tmp_path, capsys, right):
    # the pieces and the reference integral are finite, but the corrected
    # piece's data (value) or its jump series (slope) overflow the weighted sum
    problem = {"type": "synthetic", "left": [0.0, 1.0], "right": right, "xi": 0.3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_command(tmp_path, "quad", {"problem": problem, "grid": WIDE_GRID})
    assert code == 3
    assert "numerical failure: the corrected integral is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", [9e307, 9.8e307])
def test_overflowing_inflow_value_is_no_unstable_dt(tmp_path, capsys, amplitude):
    """The exact inflow value amplitude * |-1 - 0.9 t| of this uncorrected
    kink passes the float maximum at t = 0.927 for the larger amplitude, at
    a dt about a tenth of the stability limit: a numerical failure that names
    the inflow node and the first step end past it, not the dt."""
    cfg = {"grid": {"family": "cgl", "a": -1, "b": 1, "N": 24}, "speed": 0.9, "t_final": 1, "dt": 1e-3,
           "initial": {"kind": "kink", "xi0": 0, "amplitude": amplitude}, "corrections": False}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, report = run_command(tmp_path, "evolve", cfg)
    err = capsys.readouterr().err
    if amplitude < 9.5e307:
        assert code == 0 and err == "" and math.isfinite(report["final_linf"])
        return
    assert code == 3
    assert ("numerical failure: the exact inflow value initial(x - c t) at node 0 (x = -1.0) "
            "is not finite at t = 0.928") in err
    assert "unstable dt" not in err
    assert not out.exists()


def test_program_fault_exits_four_with_its_traceback(tmp_path, capsys, monkeypatch):
    # an exception that is neither a config error nor a numerical failure is
    # a fault of the program: exit 4, with the traceback, and nothing written
    def fault(grid):
        raise KeyError("injected")

    monkeypatch.setattr("jumpspec.cli.quad_weights", fault)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_command(tmp_path, "quad", DIFF_CFG)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("Traceback") and "KeyError: 'injected'" in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-14, 1e-20])
def test_evolve_on_a_small_interval_is_scale_free(tmp_path, capsys, scale):
    """The kink starts a quarter of the interval from any node at every
    scale; rounding near a node is relative to the grid's scale, so each run
    exits 0 with an error at rounding of the profile."""
    cfg = {"grid": {"family": "cgl", "a": -scale, "b": scale, "N": 12}, "speed": scale, "t_final": 0.5,
           "dt": 1e-3, "initial": {"kind": "kink", "xi0": -0.27 * scale}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, report = run_command(tmp_path, "evolve", cfg)
    assert code == 0, capsys.readouterr().err
    assert report["final_linf"] <= 1e-14 * scale


def test_thread_cap_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("JUMPSPEC_THREADS", "1")
    cfg = {
        "problem": {"type": "legendre", "l": 2, "xi": 0.3},
        "family": "cgl",
        "a": -0.8,
        "b": 0.8,
        "N_list": [8, 10, 12],
        "M_list": [3],
        "probes": 200,
    }
    code, _, report = run_command(tmp_path, "converge", cfg)
    assert code == 0
    assert len(report["rows"]) == 3


def test_non_integer_thread_cap_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JUMPSPEC_THREADS", "abc")
    code, out, _ = run_command(tmp_path, "converge", CONVERGE_CFG)
    assert code == 2
    assert "JUMPSPEC_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


HIGH_ORDER_CFG = {
    "problem": {"type": "synthetic", "left": [0, 1], "right": [1, 1], "xi": 0.1234},
    "grid": {"family": "cgl", "a": -1, "b": 1, "N": 200},
}


def test_jump_orders_past_170_add_nothing(tmp_path):
    """m! is inf in floating point from m = 171 on, so those orders add
    J_m / m! = 0; the pieces are linear, so every jump past order 1 is zero
    and M = 180 gives M = 1's corrected results."""
    code, out, _ = run_command(tmp_path, "interp", {**HIGH_ORDER_CFG, "M": [1, 180], "probes": 200})
    assert code == 0
    header, rows = read_csv(out / "result.csv")
    np.testing.assert_array_equal(rows[:, header.index("p_M180")], rows[:, header.index("p_M1")])
    for command, column in (("diff", "deriv_corrected"), ("quad", "integral_corrected")):
        results = []
        for M in (1, 180):
            code, out, _ = run_command(tmp_path, command, {**HIGH_ORDER_CFG, "M": M}, tag=f"{command}{M}")
            assert code == 0
            header, rows = read_csv(out / "result.csv")
            results.append(rows[:, header.index(column)])
        np.testing.assert_array_equal(*results)


ENTRY_POINT_RUNS = [
    # jump orders past 170 add J_m / m! = 0 with m! = inf, with no warning
    (0, "diff", {**HIGH_ORDER_CFG, "M": 180}),
    (1, "interp", {**INTERP_CFG, "checks": [{"kind": "max_error_leq", "label": "lagrange", "value": 1e-12}]}),
    (2, "diff", {"problem": OVERFLOWING, "grid": WIDE_GRID}),
    (3, "diff", {"problem": {"type": "synthetic", "left": [-1e308], "right": [1e308], "xi": 0.9}, "grid": WIDE_GRID,
                 "M": -1}),
]


@pytest.mark.parametrize("code,command,cfg", ENTRY_POINT_RUNS, ids=[str(c) for c, _, _ in ENTRY_POINT_RUNS])
def test_module_entry_point_exit_status(tmp_path, code, command, cfg):
    """python -m jumpspec exits with main's code, prints no traceback even
    where numpy would warn, and writes nothing on a config error (2) or a
    numerical failure (3)."""
    cfg_path, out = tmp_path / "run.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    # the child imports the jumpspec under test, whether installed or on PYTHONPATH
    src = os.path.dirname(os.path.dirname(jumpspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "jumpspec", command,
         "--config", str(cfg_path), "--out", str(out)],
        cwd=tmp_path, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.exists() == (code < 2)


def test_evolve_tiny_speed_exits_zero_without_warnings(tmp_path):
    # the path moves 5e-325, which rounds to nothing: no node is crossed,
    # so no crossing time divides by the speed
    cfg = {**EVOLVE_CFG, "speed": 5e-324, "checks": [{"kind": "final_linf_leq", "value": 1e-12}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, report = run_command(tmp_path, "evolve", cfg)
    assert code == 0
    assert report["final_linf"] <= 1e-12


# the exit contract, by generation: one small valid config per command, one
# leaf at a time set to each of these values
FUZZ_VALUES = [0, 1, 2, 3, -1, 170, 171, 0.5, -0.0, 5e-324, 1e-300, 1e308, -1e308, sys.float_info.max,
               10**400, -10**400, True, None, "x", "", [], [0], [1e308], [[1]], {}, {"a": 1}]
SYNTHETIC = {"type": "synthetic", "left": [0.0, 1.0], "right": [1.0, -1.0], "xi": 0.3}
LEGENDRE = {"type": "legendre", "l": 2, "xi": 0.3}
FUZZ_BASES = {
    "interp": {"problem": SYNTHETIC, "grid": {"family": "cgl", "a": -1.0, "b": 1.0, "N": 8}, "M": [-1, 2],
               "probes": 20, "checks": [{"kind": "max_error_leq", "label": "M2", "value": 1.0}]},
    "converge": {"problem": LEGENDRE, "family": "cgl", "a": -0.8, "b": 0.8, "N_list": [6, 8], "M_list": [-1, 2],
                 "probes": 20, "checks": [{"kind": "order_geq", "M": 2, "value": 0.0}]},
    "diff": {"problem": LEGENDRE, "grid": {"family": "equidistant", "a": -0.8, "b": 0.8, "N": 8}, "n": 1, "m": 4,
             "M": 2, "export_matrix": True, "export_corrections": True,
             "checks": [{"kind": "ratio_leq", "num": "corrected", "den": "plain", "value": 1.0, "metric": "max_error"}]},
    "quad": {"problem": SYNTHETIC, "grid": {"family": "custom", "a": -1.0, "b": 1.0, "nodes": [-1.0, -0.5, 0.0, 0.5, 1.0]},
             "M": 1, "export_weights": True, "checks": [{"kind": "smallest", "label": "corrected", "metric": "max_error"}]},
    "evolve": {"grid": {"family": "cgl", "a": -1.0, "b": 1.0, "N": 8}, "speed": 1.0, "t_final": 0.1, "dt": 0.01,
               "output_every": 2, "initial": {"kind": "kink", "xi0": -0.25, "amplitude": 1.0}, "corrections": True,
               "m": 8, "checks": [{"kind": "final_linf_leq", "value": 1.0}]},
}
SIZE_KEYS = {"N", "N_list", "probes"}


def leaves(cfg, path=()):
    """Every (path, value) in cfg through dict keys and list indices, containers included."""
    items = cfg.items() if type(cfg) is dict else enumerate(cfg) if type(cfg) is list else ()
    for key, value in items:
        yield path + (key,), value
        yield from leaves(value, path + (key,))


def unbounded(cfg, path, value) -> bool:
    """Whether the edit asks for more than 400 nodes or probes, or for more
    than 1e4 steps, which a run would try to allocate or step through."""
    numbers = [v for v in (value if type(value) is list else [value]) if type(v) in (int, float)]
    if SIZE_KEYS & set(path) and any(v > 400 for v in numbers):
        return True
    t, dt = cfg.get("t_final"), cfg.get("dt")
    return all(type(v) in (int, float) for v in (t, dt)) and 0 < dt and dt * 10**4 < t


def edit_leaves(base, edits) -> dict:
    """A copy of base with each (path, value) of edits set."""
    cfg = json.loads(json.dumps(base))
    for path, value in edits:
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return cfg


def contract_breaks(tmp_path, runs) -> list[str]:
    """The runs, (command, config, description) triples, that break the exit
    contract: each must exit 0-3, raise nothing (a RuntimeWarning included),
    and on a config error (2) or a numerical failure (3) write nothing and
    print one stderr line, "jumpspec: numerical failure: ..." for exit 3 and
    "jumpspec: ..." without that prefix for exit 2."""
    cfg_path, out = tmp_path / "fuzz.json", tmp_path / "out"
    broken = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command, cfg, description in runs:
            cfg_path.write_text(json.dumps(cfg))
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(cfg_path), "--out", str(out)])
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            wrote = out.exists()
            shutil.rmtree(out, ignore_errors=True)
            lines = err.getvalue().splitlines()
            well_formed = len(lines) == 1 and lines[0].startswith("jumpspec: ") \
                and lines[0].startswith("jumpspec: numerical failure: ") == (code == 3)
            if code not in (0, 1, 2, 3) or (code in (2, 3) and (wrote or not well_formed)):
                broken.append(f"{command} {description}: exit {code}, wrote {wrote}, stderr {lines!r}")
    return broken


def bounded_runs(edit_lists):
    """(command, config, description) of each (command, edits) whose edited
    config stays within the size caps."""
    for command, edits in edit_lists:
        cfg = edit_leaves(FUZZ_BASES[command], edits)
        if not any(unbounded(cfg, path, value) for path, value in edits):
            yield command, cfg, ", ".join(f"{'.'.join(map(str, path))} = {value!r}" for path, value in edits)


def test_one_leaf_edits_keep_the_exit_contract(tmp_path):
    edits = [(command, [(path, value)]) for command, base in FUZZ_BASES.items()
             for path, _ in leaves(base) for value in FUZZ_VALUES]
    broken = contract_breaks(tmp_path, bounded_runs(edits))
    assert not broken, "\n".join(broken[:20] + [f"{len(broken)} edits broke the contract"])


# a key that holds a line break, added to each object of each config, is an
# unknown key whose message stays on one line
ODD_KEYS = ["x\ny", "x\u2028y"]


def test_unknown_keys_at_every_level_keep_the_exit_contract(tmp_path):
    edits = [(command, [(path + (key,), 0)]) for command, base in FUZZ_BASES.items()
             for path in [(), *(path for path, value in leaves(base) if type(value) is dict)] for key in ODD_KEYS]
    broken = contract_breaks(tmp_path, bounded_runs(edits))
    assert not broken, "\n".join(broken[:20] + [f"{len(broken)} edits broke the contract"])


# two numeric leaves at a time, each set to one of these values, and configs
# that once broke the contract: speed 1e308 overflows -c D before any step,
# a difference of nodes near the float range overflows, and so does the
# probe span of an interval whose nodes are small
PAIR_VALUES = [0, 5e-324, 1e308, -1e308]
PAIR_EXAMPLES = [
    ("evolve", {"grid": {"family": "cgl", "a": -1, "b": 1, "N": 16}, "speed": 1e308, "t_final": 5e-324,
                "dt": 1e-3, "initial": {"kind": "gaussian", "center": 0.0, "width": 0.3}}),
    ("quad", {**FUZZ_BASES["quad"], "grid": {"family": "custom", "a": -1e308, "b": 1e308,
                                             "nodes": [1e308, -1e308, 0, 0.5, 1]}}),
    ("quad", {**FUZZ_BASES["quad"], "grid": {"family": "custom", "a": -1e308, "b": 1e308,
                                             "nodes": [-1e308, 1e308]}}),
    ("interp", {**FUZZ_BASES["interp"], "problem": {**SYNTHETIC, "xi": 0.5}, "grid": WIDE_SPAN}),
]


def test_two_leaf_edits_keep_the_exit_contract(tmp_path):
    edits = []
    for command, base in FUZZ_BASES.items():
        numeric = [path for path, value in leaves(base) if type(value) in (int, float)]
        edits += [(command, [(p, u), (q, v)]) for p, q in itertools.combinations(numeric, 2)
                  for u in PAIR_VALUES for v in PAIR_VALUES]
    runs = [*bounded_runs(edits), *((command, cfg, "example") for command, cfg in PAIR_EXAMPLES)]
    broken = contract_breaks(tmp_path, runs)
    assert not broken, "\n".join(broken[:20] + [f"{len(broken)} edits broke the contract"])
