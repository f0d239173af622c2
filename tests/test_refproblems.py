import mpmath
import numpy as np
import pytest
from scipy import special

from jumpspec.refproblems import (
    LegendreProblem,
    SyntheticPiecewise,
    legendre_P,
    legendre_Q,
)


def test_first_kind_basics():
    assert legendre_P(0, 0.77) == 1.0
    assert legendre_P(2, 0.3) == pytest.approx(-0.365, abs=1e-15)
    for l in range(6):
        assert legendre_P(l, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_first_kind_matches_recurrence():
    # Bonnet: (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}
    x = np.linspace(-1, 1, 41)
    for l in range(1, 5):
        lhs = (l + 1) * legendre_P(l + 1, x)
        rhs = (2 * l + 1) * x * legendre_P(l, x) - l * legendre_P(l - 1, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_second_kind_basics():
    assert legendre_Q(0, 0.0) == 0.0
    assert legendre_Q(1, 0.0) == -1.0
    assert float(legendre_Q(2, 0.3)) == pytest.approx(-0.562975, abs=5e-7)


def test_second_kind_matches_scipy():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.9, 0.9, 20):
        qn, qd = special.lqn(5, x)
        for l in range(6):
            assert float(legendre_Q(l, x)) == pytest.approx(qn[l], abs=1e-13)
            assert float(legendre_Q(l, x, 1)) == pytest.approx(qd[l], abs=1e-12)


def test_second_kind_domain():
    with pytest.raises(ValueError):
        legendre_Q(2, 1.0)
    with pytest.raises(ValueError):
        legendre_Q(2, -1.2)
    with pytest.raises(ValueError):
        legendre_Q(6, 0.0)


def test_legendre_ode_residual_for_derivative_chain():
    # k-fold differentiated equation:
    # (1-x^2) y^(k+2) - 2x (k+1) y^(k+1) + (l(l+1) - k(k+1)) y^(k) = 0
    rng = np.random.default_rng(12)
    for x in rng.uniform(-0.9, 0.9, 12):
        for l in range(6):
            lam = l * (l + 1)
            for k in range(7):
                for fun in (legendre_Q, legendre_P):
                    y0 = float(fun(l, x, k))
                    y1 = float(fun(l, x, k + 1))
                    y2 = float(fun(l, x, k + 2))
                    res = (1 - x * x) * y2 - 2 * x * (k + 1) * y1 + (lam - k * (k + 1)) * y0
                    scale = max(1.0, abs((1 - x * x) * y2), abs(2 * x * (k + 1) * y1), abs(lam * y0))
                    assert abs(res) <= 1e-9 * scale


def test_glued_solution_branches_and_continuity():
    prob = LegendreProblem(2, 0.3)
    assert float(prob.value(0.5)) == pytest.approx(
        float(legendre_P(2, 0.3)) * float(legendre_Q(2, 0.5)), rel=1e-15
    )
    assert float(prob.value(-0.5)) == pytest.approx(
        float(legendre_P(2, -0.5)) * float(legendre_Q(2, 0.3)), rel=1e-15
    )
    at = float(legendre_P(2, 0.3)) * float(legendre_Q(2, 0.3))
    eps = 1e-9
    assert float(prob.value(0.3 + eps)) == pytest.approx(at, abs=1e-8)
    assert float(prob.value(0.3 - eps)) == pytest.approx(at, abs=1e-8)
    assert float(prob.value(0.3)) == pytest.approx(at, rel=1e-15)


def test_value_jump_vanishes_but_slope_jump_does_not():
    prob = LegendreProblem(2, 0.3)
    jd = prob.jump_data(1)
    assert jd.jumps[0] == 0.0
    assert jd.jumps[1] == pytest.approx(1.0 / (1.0 - 0.09), rel=1e-13)
    h = 1e-6
    slope_right = (float(prob.value(0.3 + 2 * h)) - float(prob.value(0.3 + h))) / h
    slope_left = (float(prob.value(0.3 - h)) - float(prob.value(0.3 - 2 * h))) / h
    assert slope_right - slope_left == pytest.approx(jd.jumps[1], rel=1e-4)


def test_jump_values_match_finite_difference_oracle():
    # mpmath's finite differences, carried at 20 significant digits, of the
    # glued difference P_l(xi) Q_l(x) - P_l(x) Q_l(xi) at x = xi; Q_l comes
    # from mpmath's own Legendre function, independent of the closed forms
    prob = LegendreProblem(2, 0.3)
    jd = prob.jump_data(6)
    assert jd.jumps[0] == 0.0
    with mpmath.workdps(20):
        xi = mpmath.mpf(prob.xi)
        P_xi = mpmath.legendre(prob.l, xi)
        Q_xi = mpmath.legenq(prob.l, 0, xi, type=2)
        glued = lambda x: P_xi * mpmath.legenq(prob.l, 0, x, type=2) - mpmath.legendre(prob.l, x) * Q_xi
        oracle = [float(d) for d in mpmath.diffs(glued, xi, 6)]
    for k in range(1, 7):
        assert oracle[k] == pytest.approx(jd.jumps[k], rel=1e-12, abs=1e-12)


def test_jump_values_for_all_supported_degrees():
    # first-derivative jump is the Wronskian of the two kinds, 1/(1 - xi^2)
    for l in range(6):
        for xi in (-0.6, 0.1, 0.52):
            jd = LegendreProblem(l, xi).jump_data(1)
            assert jd.jumps[0] == 0.0
            assert jd.jumps[1] == pytest.approx(1.0 / (1.0 - xi * xi), rel=1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        LegendreProblem(7, 0.3)
    with pytest.raises(ValueError):
        LegendreProblem(2, 1.0)


def test_reference_integral_self_consistent():
    prob = LegendreProblem(2, 0.3)
    whole = prob.integral(-0.8, 0.8)
    split = prob.integral(-0.8, 0.1) + prob.integral(0.1, 0.8)
    assert whole == pytest.approx(split, rel=1e-13)


# --- synthetic piecewise ------------------------------------------------------


def test_identical_pieces_have_zero_jumps():
    s = SyntheticPiecewise([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.2)
    np.testing.assert_array_equal(s.jump_data().jumps, np.zeros(3))


def test_constant_step_jump():
    s = SyntheticPiecewise([0.0], [1.0], 0.2)
    np.testing.assert_array_equal(s.jump_data().jumps, [1.0])


def test_linear_vs_quadratic_jumps():
    s = SyntheticPiecewise([0.0, 1.0], [0.0, 0.0, 1.0], 0.0)
    np.testing.assert_array_equal(s.jump_data(2).jumps, [0.0, -1.0, 2.0])


def test_piecewise_value_and_integral():
    s = SyntheticPiecewise([1.0], [0.0, 2.0], 0.5)
    assert float(s.value(0.2)) == 1.0
    assert float(s.value(0.8)) == pytest.approx(1.6)
    assert float(s.value(0.5)) == pytest.approx(1.0)  # mean of 1 and 1
    # integral over [0, 1]: 0.5 * 1 + (1 - 0.25)
    assert s.integral(0.0, 1.0) == pytest.approx(0.5 + 0.75, rel=1e-15)
    assert s.integral(0.0, 0.4) == pytest.approx(0.4, rel=1e-15)
    assert s.integral(0.6, 1.0) == pytest.approx(1.0 - 0.36, rel=1e-14)
