import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy import special

from jumpspec import refproblems
from jumpspec.quadrature import _gauss_legendre
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


@pytest.mark.parametrize("xi", [np.inf, np.nan])
def test_synthetic_rejects_a_non_finite_xi(xi):
    with pytest.raises(ValueError, match="xi must be finite"):
        SyntheticPiecewise([0.0, 1.0], [1.0, -1.0], xi)


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


@pytest.mark.parametrize("xi,first,order", [(0.3, 161, 200), (0.0, 172, 200), (0.9, 118, 400)])
def test_jumps_past_the_float_range_raise(xi, first, order):
    # the k-th jump grows like (k - 1)!; past the float range it is a
    # ValueError naming the first such order, with no RuntimeWarning (at
    # order 400, 0.1 ** k underflows to zero before it divides)
    prob = LegendreProblem(2, xi)
    assert np.all(np.isfinite(prob.jump_data(first - 1).jumps))
    with pytest.raises(ValueError, match=f"jump of order {first} at xi = {xi} is not finite"):
        prob.jump_data(order)


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


# The uncached evaluation the Legendre functions were first written with:
# derivative coefficients from npoly.polyder on every call.
def _uncached_derivative(coeffs, x, order):
    if order >= coeffs.size:
        return np.zeros_like(x)
    return npoly.polyval(x, npoly.polyder(coeffs, order) if order > 0 else coeffs)


def _uncached_Q(l, x, order):
    total = np.zeros_like(x)
    for i in range(0, min(order, l) + 1):
        P = _uncached_derivative(refproblems._P[l][0], x, i)
        total = total + math.comb(order, i) * P * refproblems._atanh_derivative(x, order - i)
    return total - _uncached_derivative(refproblems._W[l][0], x, order)


def _assert_read_only_polyder(table):
    coeffs = table[0]
    assert len(table) == coeffs.size
    for order, c in enumerate(table):
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert c.tobytes() == npoly.polyder(coeffs, order).tobytes()


def test_cached_derivative_coefficients_are_read_only_polyder():
    for table in refproblems._P + refproblems._W:
        _assert_read_only_polyder(table)
    s = SyntheticPiecewise([1.0, -2.0, 0.5, 3.0], [0.25, 1.0, -1.0], 0.2)
    for table in s._tables:
        _assert_read_only_polyder(table)
    assert s._tables[2][0].tobytes() == npoly.polysub(s.right, s.left).tobytes()


@pytest.mark.parametrize("l", range(6))
def test_legendre_values_unchanged_by_coefficient_cache(l):
    x = np.concatenate([np.linspace(-0.95, 0.95, 39), [0.0, -0.0]])
    for order in range(16):  # past the degree included
        P = _uncached_derivative(refproblems._P[l][0], x, order)
        assert legendre_P(l, x, order).tobytes() == P.tobytes()
        assert legendre_Q(l, x, order).tobytes() == _uncached_Q(l, x, order).tobytes()
        assert float(legendre_Q(l, 0.3, order)) == float(_uncached_Q(l, np.asarray(0.3), order))
    # the jumps and the split Gauss integral of the glued value, as first written
    prob = LegendreProblem(l, 0.3)
    P0, Q0 = float(legendre_P(l, 0.3)), float(legendre_Q(l, 0.3))
    jumps = [P0 * float(legendre_Q(l, 0.3, k)) - float(legendre_P(l, 0.3, k)) * Q0 for k in range(12)]
    assert prob.jump_data(11).jumps.tobytes() == np.array(jumps).tobytes()
    t, gw = _gauss_legendre(120)
    for lo, hi in [(-0.8, 0.8), (-0.8, 0.1), (0.5, 0.8), (-0.8, 0.3), (0.3, 0.8)]:
        cuts = [lo, 0.3, hi] if lo < 0.3 < hi else [lo, hi]
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += 0.5 * (b - a) * float(gw @ prob.value(0.5 * (a + b) + 0.5 * (b - a) * t))
        assert prob.integral(lo, hi).hex() == total.hex()


@pytest.mark.parametrize("xi", [0.2, 1.5, -0.4])
def test_synthetic_values_unchanged_by_coefficient_cache(xi):
    # the uncached glue, jumps and three-branch integral the synthetic pieces
    # were first written with
    left, right = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.25, 1.0, -1.0])
    s = SyntheticPiecewise(left, right, xi)
    x = np.concatenate([np.linspace(-1.0, 1.0, 41), [xi, 0.0, -0.0]])
    th = np.heaviside(x - xi, 0.5)
    for order in range(6):  # past both degrees included
        glued = th * _uncached_derivative(right, x, order) + (1.0 - th) * _uncached_derivative(left, x, order)
        assert s.derivative(x, order).tobytes() == glued.tobytes()
    assert s.value(x).tobytes() == s.derivative(x, 0).tobytes()
    delta = npoly.polysub(right, left)
    jumps = [float(_uncached_derivative(delta, np.asarray(xi), m)) for m in range(6)]
    assert s.jump_data(5).jumps.tobytes() == np.array(jumps).tobytes()
    for lo, hi in [(-1.0, 1.0), (-1.0, -0.5), (0.6, 1.0), (-1.0, xi), (xi, 1.0)]:
        pieces = ([(left, lo, xi), (right, xi, hi)] if lo < xi < hi
                  else [(left, lo, hi)] if hi <= xi else [(right, lo, hi)])
        total = 0.0
        for coeffs, a, b in pieces:
            anti = npoly.polyint(coeffs)
            total += float(npoly.polyval(b, anti) - npoly.polyval(a, anti))
        assert s.integral(lo, hi).hex() == total.hex()


# --- synthetic piecewise ------------------------------------------------------


def test_identical_pieces_have_zero_jumps():
    s = SyntheticPiecewise([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.2)
    np.testing.assert_array_equal(s.jump_data(2).jumps, np.zeros(3))


def test_constant_step_jump():
    s = SyntheticPiecewise([0.0], [1.0], 0.2)
    np.testing.assert_array_equal(s.jump_data(0).jumps, [1.0])


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


def test_synthetic_jumps_past_the_float_range_raise():
    # J_0 = 1e308 (1 + 0.9) overflows; J_1 = 1e308 does not
    s = SyntheticPiecewise([0.0], [1e308, 1e308], 0.9)
    with pytest.raises(ValueError, match="synthetic jump of order 0 at xi = 0.9 is not finite"):
        s.jump_data(1)
    # here the coefficient difference itself overflows
    with pytest.raises(ValueError, match="synthetic jump of order 0 at xi = 0.1 is not finite"):
        SyntheticPiecewise([-1e308], [1e308], 0.1).jump_data(0)


def test_derivative_tables_past_the_float_range_raise_where_used():
    # the first derivative of 1e308 x^2 has the coefficient 2e308: building
    # the piece gives no warning, and the order-1 jump and slope are reported
    s = SyntheticPiecewise([0.0], [0.0, 0.0, 1e308], 0.3)
    assert np.all(np.isfinite(s.value([-1.0, 0.3, 1.0])))
    with pytest.raises(ValueError, match="synthetic jump of order 1 at xi = 0.3 is not finite"):
        s.jump_data(1)
    with pytest.raises(ValueError, match=r"synthetic derivative of order 1 at x = 0\.5 is not finite"):
        s.derivative([0.5, 1.0], 1)


def test_an_overflowing_piece_leaves_the_other_side_finite():
    # the right piece's slope is inf; the left piece's, 0, is read left of xi
    s = SyntheticPiecewise([0.0], [0.0, 0.0, 1e308], 0.3)
    np.testing.assert_array_equal(s.derivative([-1.0, 0.0], 1), [0.0, 0.0])
    with pytest.raises(ValueError, match=r"synthetic derivative of order 1 at x = 0\.3 is not finite"):
        s.derivative([0.0, 0.3], 1)
    with pytest.raises(ValueError, match=r"synthetic derivative of order 1 at x = 0\.7 is not finite"):
        s.derivative([0.0, 0.7], 1)


def test_reference_integral_past_the_float_range_raises():
    # each piece is finite, but the left part of the integral is -1.9e308
    s = SyntheticPiecewise([-1e308], [1e308], 0.9)
    with pytest.raises(ValueError, match=r"synthetic reference integral over \[-1\.0, 1\.0\] is not finite"):
        s.integral(-1.0, 1.0)
    assert s.integral(0.9, 1.0) == pytest.approx(1e307)


def test_values_past_the_float_range_raise():
    # the right piece is 1e308 (1 + x): finite up to x = 0.7, not at x = 1
    s = SyntheticPiecewise([0.0], [1e308, 1e308], 0.9)
    assert np.all(np.isfinite(s.value([-1.0, 0.0, 0.7])))
    with pytest.raises(ValueError, match=r"synthetic derivative of order 0 at x = 1\.0 is not finite"):
        s.value([0.0, 1.0])
    # the slope 1.6e308 x of the right piece overflows at x = 1.5
    with pytest.raises(ValueError, match=r"synthetic derivative of order 1 at x = 1\.5 is not finite"):
        SyntheticPiecewise([0.0], [0.0, 0.0, 8e307], 0.9).derivative([0.5, 1.0, 1.5], 1)


def test_legendre_derivatives_past_the_float_range_raise_without_warnings():
    # the atanh term's factorial lead is inf from order 172, and (1 - x)^-400
    # divides by an underflowed zero at x = 0.95
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"legendre derivative of order 400 at x = 0\.5 is not finite"):
            LegendreProblem(2, 0.3).derivative([0.5, 0.95], 400)
