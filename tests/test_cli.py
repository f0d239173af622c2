import json
import os
import warnings

import numpy as np
import pytest

from jumpspec.cli import main


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
    cfg["checks"] = [{"kind": "smallest", "label": "M6", "metric": "max_error_near_xi"}]
    code, out, report = run_command(tmp_path, "interp", cfg)
    assert code == 0
    header, rows = read_csv(out / "result.csv")
    assert header == ["x", "f_exact", "p_lagrange", "err_lagrange", "p_M6", "err_M6", "p_M12", "err_M12"]
    assert rows.shape[1] == 8
    assert report["max_error"]["M6"] < report["max_error"]["lagrange"]
    assert all(c["passed"] for c in report["checks"])


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
        "checks": [{"kind": "order_geq", "M": 5, "value": 5.0}],
    }
    code, _, report = run_command(tmp_path, "converge", cfg)
    assert code == 0
    fits = {f["M"]: f for f in report["fits"]}
    assert fits[5]["algebraic_order"] >= 5.0
    assert fits[-1]["algebraic_order"] <= 1.6  # saturated by the kink


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


def test_failing_check_exits_one(tmp_path):
    cfg = dict(INTERP_CFG)
    cfg["checks"] = [{"kind": "max_error_leq", "label": "lagrange", "value": 1e-12}]
    code, _, report = run_command(tmp_path, "interp", cfg)
    assert code == 1
    assert not report["checks"][0]["passed"]


def test_config_errors_exit_two(tmp_path):
    code, _, _ = run_command(tmp_path, "interp", {"problem": {"type": "nope"}, "grid": {}})
    assert code == 2
    cfg = dict(INTERP_CFG)
    cfg["M"] = [40]  # exceeds N
    code, _, _ = run_command(tmp_path, "interp", cfg)
    assert code == 2
    cfg = dict(INTERP_CFG)
    cfg["grid"] = {"family": "cgl", "a": -1.0, "b": 1.0, "N": 12}  # endpoints reach the log singularity
    code, _, _ = run_command(tmp_path, "interp", cfg)
    assert code == 2


def test_missing_config_file_exits_two(tmp_path):
    code = main(["interp", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2


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
    ("evolve", "M", 0.5),
    ("evolve", "output_every", 1.5),
]


def edited(command, field, value):
    """A copy of the command's base config with the dotted field set to value."""
    cfg = json.loads(json.dumps(BASE_CFGS[command]))
    *parents, key = field.split(".")
    target = cfg
    for name in parents:
        target = target[name]
    target[key] = value
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
    ("evolve", -2),
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
    # these resolve only after the run, which still writes nothing
    ("interp", "checks", [{"kind": "max_error_leq", "label": "M7", "value": 1.0}],
     "checks[0]: report entry 'max_error' has nothing at 'M7'"),
    ("converge", "checks", [{"kind": "order_geq", "M": 5, "value": 1.0}],
     "checks[0]: report entry 'fits' has nothing at 5"),
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


def test_integral_float_fields_run_as_integers(tmp_path):
    cfg = json.loads(json.dumps(INTERP_CFG))
    cfg["grid"]["N"] = 12.0
    cfg["M"] = [-1.0, 6.0, 12]
    code, out, _ = run_command(tmp_path, "interp", cfg, tag="float")
    assert code == 0
    code, ref, _ = run_command(tmp_path, "interp", INTERP_CFG, tag="int")
    assert code == 0
    assert (out / "result.csv").read_bytes() == (ref / "result.csv").read_bytes()


def test_numerical_failure_exits_three(tmp_path, capsys):
    cfg = {
        "grid": {"family": "cgl", "a": -1, "b": 1, "N": 24},
        "speed": 1.0,
        "t_final": 40.0,
        "dt": 0.1,  # far past the RK4 stability limit of this grid
        "initial": {"kind": "gaussian", "center": 0.0, "width": 0.3},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_command(tmp_path, "evolve", cfg)
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


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
