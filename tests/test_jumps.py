import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from jumpspec import (
    JumpData,
    apply,
    barycentric_weights,
    basis_integrals,
    basis_matrix,
    chebyshev_gauss_lobatto,
    corrected_derivative,
    corrected_integrate,
    corrected_interpolate,
    correction_matrix,
    custom,
    derivative_matrix,
    equidistant,
    integrate,
    interpolate,
    jump_weights,
    one_sided_derivatives_at_node,
    quad_weights,
)
from jumpspec.jumps import _pieces
from jumpspec.refproblems import LegendreProblem, SyntheticPiecewise


def interpolant_derivative_at(w, data, x0, order):
    """Independent oracle: refit the interpolant's coefficients, then differentiate."""
    g = w.grid
    xs = np.linspace(g.a, g.b, 6 * (g.N + 1))
    p = np.polynomial.Polynomial.fit(xs, interpolate(w, data, xs), g.N)
    return p.deriv(order)(x0) if order else p(x0)


# --- jump weights -----------------------------------------------------------


def test_constant_jump_gives_unit_weights():
    g = equidistant(-1, 1, 5)
    np.testing.assert_array_equal(jump_weights(JumpData(0.1, [1.0]), g), np.ones(6))


def test_weight_series_linear_term():
    g = custom(-1, 1, [-1.0, 0.5, 1.0])
    got = jump_weights(JumpData(0.0, [1.0, 2.0]), g)
    assert got[1] == pytest.approx(2.0, abs=1e-15)


def test_weight_series_quadratic_term():
    g = custom(-1, 1, [-1.0, 0.8, 1.0])
    got = jump_weights(JumpData(0.3, [0.0, 0.0, 6.0]), g)
    assert got[1] == pytest.approx(0.75, abs=1e-15)


def test_empty_jumps_are_rejected():
    """No correction is spelled None, so jump data without a jump is an error."""
    with pytest.raises(ValueError, match="at least one derivative jump"):
        JumpData(0.1, [])
    with pytest.raises(ValueError, match="at least one derivative jump"):
        LegendreProblem(2, 0.3).jump_data(-1)
    with pytest.raises(ValueError, match="at least one derivative jump"):
        SyntheticPiecewise([0.0, 1.0], [1.0, 1.0], 0.1).jump_data(-1)


def test_xi_on_node_rejected():
    g = equidistant(-1, 1, 4)
    with pytest.raises(ValueError, match="coincides with a grid node"):
        jump_weights(JumpData(0.0, [1.0]), g)


def test_xi_outside_interval_rejected():
    g = equidistant(-1, 1, 4)
    with pytest.raises(ValueError):
        jump_weights(JumpData(1.5, [1.0]), g)
    with pytest.raises(ValueError):
        jump_weights(JumpData(-1.0, [1.0]), g)


def test_non_finite_jumps_rejected():
    with pytest.raises(ValueError):
        JumpData(0.1, [np.inf])


@pytest.mark.parametrize("jumps", [[[1.0], [2.0]], [[1.0]], np.ones((2, 3))])
def test_jumps_that_are_not_one_dimensional_are_rejected(jumps):
    # a 2 x 1 table once passed as order 1 and failed later, in jump_weights,
    # with numpy's broadcast error
    message = f"derivative jumps must be a scalar or a 1-D array, got shape {np.shape(jumps)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        JumpData(0.1, jumps)


def test_a_scalar_jump_is_one_jump():
    jd = JumpData(0.1, 2.0)
    assert jd.order == 0
    assert jd.jumps.tolist() == [2.0]


@pytest.mark.parametrize("xi", [np.inf, -np.inf, np.nan])
def test_non_finite_discontinuity_rejected(xi):
    with pytest.raises(ValueError, match="discontinuity location must be finite"):
        JumpData(xi, [1.0])


# --- pieces and the correction matrix ----------------------------------------


def test_zero_jumps_vanish_everywhere():
    g = equidistant(-1, 1, 6)
    jd = JumpData(0.05, [0.0, 0.0, 0.0])
    f = np.linspace(-2.0, 3.0, 7)
    minus, plus = _pieces(f, jump_weights(jd, g), jd, g)
    np.testing.assert_array_equal(minus, f)
    np.testing.assert_array_equal(plus, f)
    np.testing.assert_array_equal(correction_matrix(jd, g), np.zeros((7, 7)))


def test_pieces_side_pattern():
    g = equidistant(-1, 1, 4)  # nodes -1, -0.5, 0, 0.5, 1
    jd = JumpData(0.1, [2.0])
    f = np.array([0.3, -1.2, 2.5, 0.7, -0.4])
    minus, plus = _pieces(f, jump_weights(jd, g), jd, g)
    g_w = jump_weights(jd, g)
    # the right piece lifts the nodes left of the discontinuity by +g, the
    # left piece lowers the nodes right of it by g; every node keeps its own
    # side's datum exactly
    np.testing.assert_array_equal(plus[:3], f[:3] + g_w[:3])
    np.testing.assert_array_equal(plus[3:], f[3:])
    np.testing.assert_array_equal(minus[:3], f[:3])
    np.testing.assert_array_equal(minus[3:], f[3:] - g_w[3:])


def test_correction_matrix_signs_and_diagonal():
    g = equidistant(-1, 1, 5)
    jd = JumpData(0.17, [1.0, -3.0])
    S = correction_matrix(jd, g)
    g_w = jump_weights(jd, g)
    right = g.nodes > jd.xi
    for i in range(6):
        for j in range(6):
            if right[i] and not right[j]:
                assert S[i, j] == g_w[j]
            elif not right[i] and right[j]:
                assert S[i, j] == -g_w[j]
            else:
                assert S[i, j] == 0.0
    assert np.all(np.diag(S) == 0.0)


def test_correction_matrix_consistent_with_terms():
    # row i of the table is the correction that turns the data into the
    # piece of node i's side
    g = chebyshev_gauss_lobatto(-1, 1, 7)
    jd = JumpData(0.21, [0.5, 1.5, -2.0])
    f = np.random.default_rng(4).standard_normal(8)
    S = correction_matrix(jd, g)
    minus, plus = _pieces(f, jump_weights(jd, g), jd, g)
    for i, x in enumerate(g.nodes):
        np.testing.assert_array_equal(f + S[i], plus if x > jd.xi else minus)


def test_prefactor_antisymmetry():
    g = chebyshev_gauss_lobatto(-1, 1, 9)
    jd = JumpData(-0.3, [1.0, 0.7, 0.2])
    S, g_w = correction_matrix(jd, g), jump_weights(jd, g)
    for i in range(10):
        for j in range(10):
            if g_w[i] != 0.0 and g_w[j] != 0.0:
                assert S[i, j] / g_w[j] == pytest.approx(-S[j, i] / g_w[i], abs=1e-14)


# --- corrected interpolation ------------------------------------------------


def test_step_function_reproduced_exactly():
    g = custom(-1, 1, [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
    w = barycentric_weights(g)
    xi = 0.1
    f = np.heaviside(g.nodes - xi, 0.5)
    jd = JumpData(xi, [1.0])
    assert corrected_interpolate(w, f, jd, -0.5) == 0.0
    assert corrected_interpolate(w, f, jd, 0.5) == 1.0


def test_collocation_preserved_exactly():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    w = barycentric_weights(g)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(9)
    jd = JumpData(0.4, [3.0, -1.0, 0.5])
    np.testing.assert_array_equal(corrected_interpolate(w, f, jd, g.nodes), f)


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    order=st.integers(0, 4),
)
def test_collocation_property(N, seed, order):
    rng = np.random.default_rng(seed)
    g = chebyshev_gauss_lobatto(-1, 1, N)
    w = barycentric_weights(g)
    f = rng.uniform(-3, 3, N + 1)
    xi = rng.uniform(-0.95, 0.95)
    while np.any(g.nodes == xi):
        xi = rng.uniform(-0.95, 0.95)
    jd = JumpData(xi, rng.uniform(-2, 2, order + 1))
    np.testing.assert_array_equal(corrected_interpolate(w, f, jd, g.nodes), f)


def test_kinked_legendre_interpolation_improves_near_discontinuity():
    prob = LegendreProblem(2, 0.3)
    g = chebyshev_gauss_lobatto(-0.8, 0.8, 12)
    w = barycentric_weights(g)
    f = prob.value(g.nodes)
    mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    plain = np.abs(interpolate(w, f, mids) - prob.value(mids)).max()
    corrected = np.abs(corrected_interpolate(w, f, prob.jump_data(6), mids) - prob.value(mids)).max()
    assert corrected < 1e-3 * plain


def test_probe_at_discontinuity_averages_branches():
    g = equidistant(-1, 1, 4)
    w = barycentric_weights(g)
    xi = 0.1
    f = np.heaviside(g.nodes - xi, 0.5)
    assert corrected_interpolate(w, f, JumpData(xi, [1.0]), xi) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("grid", [chebyshev_gauss_lobatto(-1, 1, 20), equidistant(-2, 1, 14)],
                         ids=["cgl-20", "equidistant-14"])
def test_a_list_of_corrections_gives_each_correction_alone_bitwise(grid):
    # one interpolate call evaluates the plain data and both pieces of each
    # jump: a probe on either cut averages its pieces, a probe on a node
    # reads the datum, and a scalar probe gives one value per correction
    w = barycentric_weights(grid)
    rng = np.random.default_rng(grid.N)
    f = np.sin(2.0 * grid.nodes) + np.abs(grid.nodes - 0.13)
    jd_a, jd_b = JumpData(0.13, [0.0, 2.0, 0.0]), JumpData(-0.41, rng.uniform(-2, 2, 5))
    probes = np.concatenate([rng.uniform(grid.a, grid.b, 60), grid.nodes[[0, 3, 9, -1]], [0.13, -0.41]])
    corrections = [None, jd_a, jd_b]
    together = corrected_interpolate(w, f, corrections, probes)
    assert together.shape == (3, probes.size)
    alone = [corrected_interpolate(w, f, jd, probes) for jd in corrections]
    np.testing.assert_array_equal(together.view(np.uint64), np.array(alone).view(np.uint64))
    np.testing.assert_array_equal(together[:, 60:64], np.tile(f[[0, 3, 9, -1]], (3, 1)))
    for i in (0, 62, 64, 65):
        scalar = corrected_interpolate(w, f, corrections, probes[i])
        assert scalar.shape == (3,)
        np.testing.assert_array_equal(scalar.view(np.uint64), together[:, i].view(np.uint64))
        assert [corrected_interpolate(w, f, jd, probes[i]) for jd in corrections] == scalar.tolist()
    assert corrected_interpolate(w, f, [], probes).shape == (0, probes.size)


# --- corrected differentiation ----------------------------------------------


def test_kink_derivative_is_sign_function():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    xi = 0.2
    f = np.abs(g.nodes - xi)
    D = derivative_matrix(g, 1)
    got = corrected_derivative(D, f, JumpData(xi, [0.0, 2.0]))
    np.testing.assert_allclose(got, np.sign(g.nodes - xi), rtol=0, atol=1e-11)


def test_composite_rows_away_from_discontinuity_untouched():
    g = equidistant(-1, 1, 16)
    D = derivative_matrix(g, 1, 2)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(17)
    xi = g.nodes[8] + 0.3 * (g.nodes[9] - g.nodes[8])
    got = corrected_derivative(D, f, JumpData(xi, [1.0, 2.0]))
    plain = apply(D, f)
    # only the two stencils straddling xi may change
    touched = [8, 9]
    for i in range(17):
        if i not in touched:
            assert got[i] == plain[i]
    assert np.any(got[touched] != plain[touched])


def test_kinked_legendre_derivative_accuracy():
    prob = LegendreProblem(2, 0.3)
    g = chebyshev_gauss_lobatto(-0.8, 0.8, 24)
    D = derivative_matrix(g, 1)
    f = prob.value(g.nodes)
    got = corrected_derivative(D, f, prob.jump_data(12))
    exact = prob.derivative(g.nodes, 1)
    assert np.abs(got - exact).max() <= 1e-6


# --- one-sided derivatives at an on-node discontinuity -----------------------


def test_one_sided_smooth_limit():
    g = equidistant(0, 4, 4)
    f = np.sin(g.nodes)
    left, right = one_sided_derivatives_at_node(g, f, 2, [0.0, 0.0, 0.0])
    assert left == right
    smooth = (f[3] - f[1]) / 2.0
    assert left == pytest.approx(smooth, rel=1e-14)


def test_one_sided_kink_values():
    g = equidistant(0, 4, 4)
    f = np.abs(g.nodes - g.nodes[2])
    left, right = one_sided_derivatives_at_node(g, f, 2, [0.0, 2.0, 0.0])
    assert (left, right) == (-1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_one_sided_jump_condition(seed):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-2, 2, 7))
    while np.any(np.diff(nodes) < 1e-3):
        nodes = np.sort(rng.uniform(-2, 2, 7))
    g = custom(-2, 2, nodes)
    f = rng.uniform(-5, 5, 7)
    J = rng.uniform(-2, 2, 3)
    k = int(rng.integers(1, 6))
    left, right = one_sided_derivatives_at_node(g, f, k, J)
    # the contract is stated in roundings of the returned values: when
    # |left|, |right| >> |J1| their spacing alone exceeds any absolute bound
    eps = np.finfo(float).eps
    assert right - left == pytest.approx(J[1], rel=0, abs=2 * eps * (abs(left) + abs(right)))


def test_one_sided_boundary_node_rejected():
    g = equidistant(0, 1, 4)
    with pytest.raises(ValueError):
        one_sided_derivatives_at_node(g, np.zeros(5), 0, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        one_sided_derivatives_at_node(g, np.zeros(5), 4, [0.0, 1.0, 0.0])


def test_one_sided_missing_jumps_rejected():
    g = equidistant(0, 1, 4)
    with pytest.raises(ValueError):
        one_sided_derivatives_at_node(g, np.zeros(5), 2, [0.0, 1.0])


# --- corrected integration ----------------------------------------------------


def test_zero_jumps_match_plain_integrate():
    g = chebyshev_gauss_lobatto(-1, 1, 9)
    rule = quad_weights(g)
    f = np.exp(g.nodes)
    jd = JumpData(0.37, [0.0, 0.0])
    assert corrected_integrate(rule, f, jd) == integrate(rule, f)


def test_step_integral_exact():
    g = chebyshev_gauss_lobatto(-1, 1, 3)
    rule = quad_weights(g)
    xi = 0.1
    f = np.heaviside(g.nodes - xi, 0.5)
    got = corrected_integrate(rule, f, JumpData(xi, [1.0]))
    assert got == pytest.approx(0.9, abs=1e-13)


def test_kinked_legendre_integral_accuracy():
    prob = LegendreProblem(2, 0.3)
    g = chebyshev_gauss_lobatto(-0.8, 0.8, 16)
    rule = quad_weights(g)
    f = prob.value(g.nodes)
    got = corrected_integrate(rule, f, prob.jump_data(8))
    assert got == pytest.approx(prob.integral(-0.8, 0.8), abs=1e-8)


# --- jump-condition reproduction ---------------------------------------------


@pytest.mark.parametrize("N,M", [(6, 2), (9, 4), (12, 5)])
def test_reconstructed_pieces_reproduce_jumps(N, M):
    rng = np.random.default_rng(N * 100 + M)
    g = chebyshev_gauss_lobatto(-1, 1, N)
    w = barycentric_weights(g)
    f = rng.uniform(-2, 2, N + 1)
    xi = 0.237
    J = rng.uniform(-3, 3, M + 1)
    jd = JumpData(xi, J)
    minus, plus = _pieces(f, jump_weights(jd, g), jd, g)
    for m in range(N + 1):
        dp = interpolant_derivative_at(w, plus, xi, m)
        dm = interpolant_derivative_at(w, minus, xi, m)
        expected = J[m] if m <= M else 0.0
        scale = max(1.0, abs(dp), abs(dm))
        assert (dp - dm) - expected == pytest.approx(0.0, abs=1e-9 * scale)


# --- piecewise-polynomial exactness -------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_piecewise_polynomial_exactness(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 13))
    M = int(rng.integers(0, N + 1))
    g = chebyshev_gauss_lobatto(-1, 1, N) if seed % 2 else equidistant(-1, 1, N)
    w = barycentric_weights(g)
    left = rng.uniform(-1, 1, N + 1)
    delta = np.zeros(N + 1)
    delta[: M + 1] = rng.uniform(-1, 1, M + 1)
    prob = SyntheticPiecewise(left, npoly.polyadd(left, delta), xi=float(rng.uniform(-0.6, 0.6)))
    while np.any(g.nodes == prob.xi):
        prob = SyntheticPiecewise(left, prob.right, xi=float(rng.uniform(-0.6, 0.6)))
    jd = prob.jump_data(M)
    f = prob.value(g.nodes)

    probes = rng.uniform(-1, 1, 200)
    vals = corrected_interpolate(w, f, jd, probes)
    assert np.abs(vals - prob.value(probes)).max() <= 1e-11

    D = derivative_matrix(g, 1)
    got = corrected_derivative(D, f, jd)
    assert np.abs(got - prob.derivative(g.nodes, 1)).max() <= 1e-11 * max(1.0, np.abs(D.entries).max())

    rule = quad_weights(g)
    assert corrected_integrate(rule, f, jd) == pytest.approx(prob.integral(-1, 1), abs=1e-11)


# --- the one-discontinuity core ------------------------------------------------


def test_correction_matrix_bytes_are_pinned():
    """The correction table of a kink, signed zeros included: -0.0 wherever
    node i and datum j are not a right-of-xi pair, as the sum from -0.0
    leaves them. np.array_equal would take -0.0 for 0.0; the hash does not.
    The bytes are those the earlier several-discontinuity core gave."""
    g = chebyshev_gauss_lobatto(-1, 1, 4)
    S = correction_matrix(JumpData(0.3, [0.0, 2.0]), g)
    assert hashlib.sha256(S.tobytes()).hexdigest() == (
        "ed7289dc95d1dd86b4b1bd2de61cc498cfd7f5df777ea590eea21137260560d3"
    )
    right = g.nodes > 0.3
    np.testing.assert_array_equal(np.signbit(S), ~(right[:, None] & right[None, :]))
    np.testing.assert_array_equal(S[3:, :3], np.broadcast_to(-2.0 * (0.3 - g.nodes[:3]), (2, 3)))
    np.testing.assert_array_equal(S[:3, 3:], np.broadcast_to(-2.0 * (g.nodes[3:] - 0.3), (3, 2)))
    none = correction_matrix(None, g)
    assert none.shape == (5, 5) and np.all(none == 0.0) and np.all(np.signbit(none))


def test_corrected_derivative_validates_xi():
    g = equidistant(-1, 1, 4)
    D = derivative_matrix(g, 1)
    with pytest.raises(ValueError, match="coincides with a grid node"):
        corrected_derivative(D, np.zeros(5), JumpData(0.5, [1.0]))


@pytest.mark.parametrize("jd", [None], ids=["empty-jumpdata"])
@pytest.mark.parametrize("probe", ["scalar", "array"])
@pytest.mark.parametrize("m", ["pseudospectral", "banded"])
@pytest.mark.parametrize("family", ["cgl", "equidistant"])
def test_no_jumps_match_plain_operators_bitwise(family, m, probe, jd):
    """No correction is the one-piece case: every corrected operation
    returns the plain result byte for byte, signed zeros included."""
    g = chebyshev_gauss_lobatto(-1, 1, 10) if family == "cgl" else equidistant(-1, 1, 10)
    w = barycentric_weights(g)
    D = derivative_matrix(g, 1, g.N if m == "pseudospectral" else 4)
    rule = quad_weights(g)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(11)
    f[3] = -0.0
    x = 0.45 if probe == "scalar" else np.concatenate([rng.uniform(-1, 1, 100), g.nodes])

    got, plain = corrected_interpolate(w, f, jd, x), interpolate(w, f, x)
    assert type(got) is type(plain)
    assert np.asarray(got).tobytes() == np.asarray(plain).tobytes()
    assert corrected_derivative(D, f, jd).tobytes() == apply(D, f).tobytes()
    got, plain = corrected_integrate(rule, f, jd), integrate(rule, f)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(plain).tobytes()
    assert np.array_equal(correction_matrix(jd, g), np.zeros((11, 11)))


# --- the piece form against the per-datum correction formula -------------------


def per_datum_reference(w, D, rule, f, jd, probes):
    """Independent oracle: every datum corrected separately for each evaluation point.

    Datum j is shifted by +g_j when the evaluation point lies right of the
    discontinuity and node j left of it, by -g_j in the mirrored case, and
    by half of that at the discontinuity itself. The integral adds each
    datum's correction times its basis integral over the far side.
    """
    g = w.grid
    th = lambda x: np.heaviside(np.asarray(x, dtype=float) - jd.xi, 0.5)
    gw = jump_weights(jd, g)
    th_n, th_p = th(g.nodes), th(probes)
    data = f + th_p[:, None] * ((1.0 - th_n) * gw)[None, :] - (1.0 - th_p)[:, None] * (th_n * gw)[None, :]
    deriv = apply(D, f) + (th_n * (D.entries @ gw) - D.entries @ (th_n * gw))
    upper = basis_integrals(w, jd.xi, g.b)
    lower = basis_integrals(w, g.a, jd.xi)
    total = integrate(rule, f) + float(np.where(g.nodes < jd.xi, gw * upper, -gw * lower).sum())
    B = basis_matrix(w, probes)
    return (B * data).sum(axis=1), deriv, total, gw, B


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["cgl", "equidistant"]),
    banded=st.booleans(),
)
def test_piece_form_matches_per_datum_corrections(N, seed, family, banded):
    rng = np.random.default_rng(seed)
    g = chebyshev_gauss_lobatto(-1, 1, N) if family == "cgl" else equidistant(-1, 1, N)
    w = barycentric_weights(g)
    m = int(rng.integers(1, N)) if banded and N > 1 else N
    D = derivative_matrix(g, 1, m)
    rule = quad_weights(g)
    xi = float(rng.uniform(-0.95, 0.95))
    while np.any(g.nodes == xi):
        xi = float(rng.uniform(-0.95, 0.95))
    jd = JumpData(xi, rng.uniform(-2, 2, int(rng.integers(0, N + 1)) + 1))
    f = rng.uniform(-3, 3, N + 1)
    probes = np.concatenate([rng.uniform(-1, 1, 50), g.nodes, [xi]])

    ref_vals, ref_deriv, ref_total, gw, B = per_datum_reference(w, D, rule, f, jd, probes)
    size = np.abs(f).max() + np.abs(gw).max()
    eps = np.finfo(float).eps

    vals = corrected_interpolate(w, f, jd, probes)
    lebesgue = np.abs(B).sum(axis=1).max()
    assert np.abs(vals - ref_vals).max() <= 64 * eps * size * lebesgue

    deriv = corrected_derivative(D, f, jd)
    norm = np.abs(D.entries).sum(axis=1).max()
    assert np.abs(deriv - ref_deriv).max() <= 64 * eps * size * norm

    total = corrected_integrate(rule, f, jd)
    assert abs(total - ref_total) <= 64 * eps * size * np.abs(rule.weights).sum()
