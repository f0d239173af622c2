import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from jumpspec import (
    JumpData,
    QuadRule,
    barycentric_weights,
    basis_integrals,
    chebyshev_gauss_lobatto,
    corrected_integrate,
    custom,
    equidistant,
    integrate,
    quad_weights,
)
from jumpspec.quadrature import _gauss_legendre
from jumpspec.refproblems import LegendreProblem


def exact_basis_integral(nodes, j, lo, hi):
    """Symbolic oracle: integrate the j-th basis polynomial's coefficients."""
    roots = np.delete(nodes, j)
    coeffs = npoly.polyfromroots(roots) / np.prod(nodes[j] - roots)
    anti = npoly.polyint(coeffs)
    return npoly.polyval(hi, anti) - npoly.polyval(lo, anti)


def dense_gauss_basis_integral(nodes, j, lo, hi):
    """Oracle for larger grids: product-formula basis under a dense Gauss rule.

    Coefficient extraction loses digits beyond degree 15 or so; direct
    product evaluation plus 200 Gauss points stays accurate at any size here.
    """
    t, gw = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * t
    vals = np.ones_like(x)
    for k, xk in enumerate(nodes):
        if k != j:
            vals *= (x - xk) / (nodes[j] - xk)
    return 0.5 * (hi - lo) * float(gw @ vals)


def test_simpson_weights():
    rule = quad_weights(custom(-1, 1, [-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_trapezoid_weights():
    rule = quad_weights(custom(0, 1, [0.0, 1.0]))
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("N", [3, 8, 13, 21])
def test_cgl_weights_match_oracle_and_sum(N):
    g = chebyshev_gauss_lobatto(-1, 1, N)
    rule = quad_weights(g)
    assert abs(rule.weights.sum() - 2.0) <= 1e-13 * 2.0
    oracle_fn = exact_basis_integral if N <= 13 else dense_gauss_basis_integral
    oracle = [oracle_fn(g.nodes, j, -1.0, 1.0) for j in range(N + 1)]
    np.testing.assert_allclose(rule.weights, oracle, rtol=0, atol=1e-13)


def test_constant_integrates_to_span():
    rule = quad_weights(equidistant(-2, 5, 9))
    assert integrate(rule, np.full(10, 3.0)) == pytest.approx(21.0, rel=1e-14)


def test_odd_function_on_symmetric_grid():
    g = custom(-1, 1, [-1.0, 0.0, 1.0])
    rule = quad_weights(g)
    assert integrate(rule, g.nodes**3) == pytest.approx(0.0, abs=1e-15)


def test_exponential_on_cgl():
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    rule = quad_weights(g)
    expected = np.e - 1.0 / np.e
    assert integrate(rule, np.exp(g.nodes)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("family", ["equidistant", "cgl"])
@pytest.mark.parametrize("N", [2, 5, 12])
def test_monomial_exactness(family, N):
    a, b = -0.75, 1.25
    g = equidistant(a, b, N) if family == "equidistant" else chebyshev_gauss_lobatto(a, b, N)
    rule = quad_weights(g)
    for k in range(N + 1):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert integrate(rule, g.nodes**k) == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_affine_covariance():
    N = 10
    base = quad_weights(chebyshev_gauss_lobatto(-1, 1, N)).weights
    mapped = quad_weights(chebyshev_gauss_lobatto(2, 5, N)).weights
    np.testing.assert_allclose(mapped, 1.5 * base, rtol=1e-13)


def test_partial_basis_integrals_match_oracle():
    g = chebyshev_gauss_lobatto(-1, 1, 9)
    w = barycentric_weights(g)
    lo, hi = -0.37, 0.81
    got = basis_integrals(w, lo, hi)
    oracle = [exact_basis_integral(g.nodes, j, lo, hi) for j in range(g.N + 1)]
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-14)


def test_partial_integrals_add_up_to_full_weights():
    g = equidistant(0, 2, 7)
    w = barycentric_weights(g)
    rule = quad_weights(g)
    split = 0.613
    np.testing.assert_allclose(
        basis_integrals(w, 0, split) + basis_integrals(w, split, 2),
        rule.weights,
        rtol=0,
        atol=1e-14,
    )


def test_length_mismatch():
    rule = quad_weights(equidistant(0, 1, 4))
    with pytest.raises(ValueError):
        integrate(rule, np.zeros(3))


def test_weights_that_do_not_fit_the_grid_are_rejected():
    g = chebyshev_gauss_lobatto(-1, 1, 4)
    for bad in ([1.0], np.ones(6), np.ones((5, 5))):
        with pytest.raises(ValueError, match="do not match the grid's 5 nodes"):
            QuadRule(g, bad)


def test_gauss_rule_is_leggauss_read_only():
    for npts in (1, 8, 120):
        t, gw = _gauss_legendre(npts)
        ref_t, ref_w = np.polynomial.legendre.leggauss(npts)
        assert t.tobytes() == ref_t.tobytes() and gw.tobytes() == ref_w.tobytes()
        assert not t.flags.writeable and not gw.flags.writeable


def test_gauss_rule_built_once_per_point_count(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(npts):
        built.append(npts)
        return leggauss(npts)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    _gauss_legendre.cache_clear()
    g = chebyshev_gauss_lobatto(-0.8, 0.8, 12)
    problem = LegendreProblem(2, 0.3)
    f = problem.value(g.nodes)
    for _ in range(3):
        rule = quad_weights(g)
        corrected_integrate(rule, f, JumpData(0.3, [0.0, 1.0]))
        problem.integral(g.a, g.b)
    assert sorted(built) == [(12 + 2) // 2 + 1, 120]
