import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpspec import (
    BarycentricWeights,
    barycentric_weights,
    basis_matrix,
    chebyshev_gauss_lobatto,
    custom,
    equidistant,
    interpolate,
)
from jumpspec.lagrange import _finite


def naive_basis(nodes, j, x):
    """Direct product-formula evaluation, the independent oracle."""
    out = 1.0
    for k, xk in enumerate(nodes):
        if k != j:
            out *= (x - xk) / (nodes[j] - xk)
    return out


def test_weights_three_nodes():
    w = barycentric_weights(custom(-1, 1, [-1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(w.lam, [0.5, -1.0, 0.5])


def test_weights_two_nodes():
    w = barycentric_weights(custom(0, 1, [0.0, 1.0]))
    np.testing.assert_array_equal(w.lam, [-1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 25), family=st.sampled_from(["equidistant", "cgl"]))
def test_weights_never_zero(N, family):
    g = equidistant(-1, 1, N) if family == "equidistant" else chebyshev_gauss_lobatto(-1, 1, N)
    w = barycentric_weights(g)
    assert np.all(w.lam != 0.0)
    assert np.all(np.isfinite(w.lam))


def test_cgl_weights_alternate_in_sign():
    w = barycentric_weights(chebyshev_gauss_lobatto(-1, 1, 12))
    signs = np.sign(w.lam)
    assert np.all(signs[:-1] == -signs[1:])


def test_basis_values_three_nodes():
    w = barycentric_weights(custom(-1, 1, [-1.0, 0.0, 1.0]))
    B = basis_matrix(w, [0.0, 0.5])
    assert B[0, 1] == 1.0
    # pi_1(x) = 1 - x^2 and pi_0(x) = x (x - 1) / 2 on this grid
    assert B[1, 1] == pytest.approx(0.75, abs=1e-15)
    assert B[1, 0] == pytest.approx(-0.125, abs=1e-15)


def test_basis_index_range():
    # one row per point, one column per basis polynomial 0..N, and a scalar
    # point gives a single row
    w = barycentric_weights(custom(-1, 1, [-1.0, 0.0, 1.0]))
    assert basis_matrix(w, [-0.3, 0.2, 0.5, 0.9]).shape == (4, 3)
    assert basis_matrix(w, 0.5).shape == (1, 3)


def test_delta_property_is_exact():
    g = chebyshev_gauss_lobatto(-1, 1, 14)
    w = barycentric_weights(g)
    B = basis_matrix(w, g.nodes)
    np.testing.assert_array_equal(B, np.eye(g.N + 1))


def test_partition_of_unity():
    g = chebyshev_gauss_lobatto(-2, 3, 17)
    w = barycentric_weights(g)
    x = np.random.default_rng(42).uniform(-2, 3, 100)
    sums = basis_matrix(w, x).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


def test_constant_data_interpolates_to_constant():
    g = equidistant(0, 1, 9)
    w = barycentric_weights(g)
    x = np.random.default_rng(0).uniform(0, 1, 50)
    np.testing.assert_allclose(interpolate(w, np.full(10, 3.25), x), 3.25, rtol=0, atol=1e-13)


def test_quadratic_exactness():
    w = barycentric_weights(custom(-1, 1, [-1.0, 0.0, 1.0]))
    assert interpolate(w, np.array([1.0, 0.0, 1.0]), 0.3) == pytest.approx(0.09, abs=1e-15)


def test_weights_that_do_not_fit_the_grid_are_rejected():
    g = chebyshev_gauss_lobatto(-1, 1, 4)
    for bad in ([1.0], barycentric_weights(chebyshev_gauss_lobatto(-1, 1, 5)).lam, np.ones((5, 5))):
        with pytest.raises(ValueError, match="do not match the grid's 5 nodes"):
            BarycentricWeights(g, bad)


def test_monomial_exactness_cgl():
    g = chebyshev_gauss_lobatto(-1, 1, 20)
    w = barycentric_weights(g)
    x = np.random.default_rng(3).uniform(-1, 1, 60)
    for k in range(g.N + 1):
        err = np.abs(interpolate(w, g.nodes**k, x) - x**k)
        assert err.max() <= 1e-10


def test_matches_product_formula_on_runge_function():
    g = chebyshev_gauss_lobatto(-1, 1, 12)
    w = barycentric_weights(g)
    f = 1.0 / (1.0 + 25.0 * g.nodes**2)
    expected = sum(f[j] * naive_basis(g.nodes, j, 0.95) for j in range(g.N + 1))
    assert interpolate(w, f, 0.95) == pytest.approx(expected, abs=1e-12)


def test_nodal_values_reproduced_bitwise():
    g = chebyshev_gauss_lobatto(-1, 1, 11)
    w = barycentric_weights(g)
    f = np.sin(g.nodes)
    np.testing.assert_array_equal(interpolate(w, f, g.nodes), f)


def test_length_mismatch():
    g = equidistant(0, 1, 4)
    w = barycentric_weights(g)
    with pytest.raises(ValueError):
        interpolate(w, np.zeros(4), 0.5)


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(1, 15),
    data=st.lists(st.floats(-5, 5), min_size=16, max_size=16),
    xq=st.floats(-1, 1),
)
def test_scalar_and_array_probes_agree(N, data, xq):
    g = chebyshev_gauss_lobatto(-1, 1, N)
    w = barycentric_weights(g)
    f = np.asarray(data[: N + 1])
    scalar = interpolate(w, f, xq)
    arr = interpolate(w, f, np.array([xq]))
    assert scalar == arr[0]


# The five-pass barycentric formula the evaluation was first written with:
# the full difference matrix, a full hit mask, a masked copy of the
# differences, the ratios and a nonzero search over the mask. Its numerators
# and denominator are summed alike, node by node, each product rounded and
# then added. Kept as the bitwise oracle of the two-pass evaluation.
def five_pass_ratio_matrix(w, pts):
    d = pts[:, None] - w.grid.nodes[None, :]
    hit = np.abs(d) <= np.abs(w.lam)[None, :] * 1e-300
    r = w.lam[None, :] / np.where(hit, 1.0, d)
    return r, hit


def five_pass_barycentric(w, pts, pieces):
    r, hit = five_pass_ratio_matrix(w, pts)
    rows = np.vstack([pieces, np.ones(r.shape[1])])
    sums = np.zeros((len(rows), len(pts)))
    for j in range(r.shape[1]):
        sums = sums + rows[:, j, None] * r[:, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = sums[:-1] / sums[-1]
    prow, pcol = np.nonzero(hit)
    vals[:, prow] = np.asarray(pieces)[:, pcol]
    return vals


def five_pass_basis_matrix(w, pts):
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    r, hit = five_pass_ratio_matrix(w, pts)
    sums = np.zeros(len(pts))
    for j in range(r.shape[1]):
        sums = sums + r[:, j]
    with np.errstate(invalid="ignore"):
        B = r / sums[:, None]
    rows = hit.any(axis=1)
    if rows.any():
        B[rows] = hit[rows].astype(float)
    return B


def _cgl_nodes_and_between():
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    return g, np.concatenate([g.nodes, np.linspace(-1, 1, 101)]), 0.123


def _near_zero_node():
    g = custom(-1, 1, [-1.0, -0.5, 0.0, 0.5, 1.0])
    return g, np.array([5e-324, -5e-324, 0.0, -0.0, 0.25, 1e-300]), 0.3


def _non_finite():
    g = equidistant(-1, 1, 6)
    return g, np.array([np.nan, np.inf, -np.inf, 0.1, np.nan, 1.0]), -0.05


def _unsorted_with_repeats():
    g = chebyshev_gauss_lobatto(-2, 3, 9)
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(-2, 3, 40), g.nodes[[0, 4, 4, 9]], [0.7, 0.7]])
    return g, rng.permutation(pts), 0.7


ORACLE_CASES = {
    "nodes": _cgl_nodes_and_between,
    "near-zero-node": _near_zero_node,
    "non-finite": _non_finite,
    "unsorted-repeats": _unsorted_with_repeats,
}


@pytest.mark.parametrize("nodes", [[0.0, 1e-101, 2e-101], [0.0, 1e-300]], ids=["1e-101", "1e-300"])
def test_weights_reject_gaps_below_the_coincidence_tolerance(nodes):
    # |lam| 1e-300 is about 5e-99 (and 1) here, above the node gaps, so a
    # probe would coincide with several nodes and read the last one's datum:
    # 3.0 on the first grid at the node whose datum is 2.0
    with pytest.raises(ValueError, match="node gap is below"):
        barycentric_weights(custom(0.0, nodes[-1], nodes))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_barycentric_matches_five_pass_formula_bitwise(case, monkeypatch):
    from jumpspec import JumpData, corrected_interpolate, lagrange

    g, pts, xi = ORACLE_CASES[case]()
    w = barycentric_weights(g)
    f = np.cos(3.0 * g.nodes / (g.b - g.a)) + g.nodes
    jd = JumpData(xi, [0.5, -2.0, 1.5])
    probes = np.append(pts, xi)  # a probe on the cut averages two pieces

    def evaluate(basis):
        with np.errstate(divide="raise"):
            return interpolate(w, f, pts), corrected_interpolate(w, f, jd, probes), basis(w, pts)

    new = evaluate(basis_matrix)
    monkeypatch.setattr(lagrange, "_barycentric", five_pass_barycentric)  # corrected_interpolate's path too
    old = evaluate(five_pass_basis_matrix)
    for a, b in zip(new, old):
        np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("grid", [chebyshev_gauss_lobatto(-1, 1, 2), chebyshev_gauss_lobatto(-1, 1, 48),
                                  chebyshev_gauss_lobatto(-2, 3, 128), equidistant(-1, 1, 30),
                                  custom(-1, 1, np.r_[-1, np.sort(np.random.default_rng(9).uniform(-1, 1, 19)), 1])],
                         ids=["cgl-2", "cgl-48", "cgl-128", "equidistant-30", "custom-20"])
@pytest.mark.parametrize("probes", [2, 1001])
def test_basis_matrix_is_the_interpolant_of_the_identity(grid, probes):
    # each basis column is divided by the node-order sum that every
    # interpolated value divides by, so the two agree bit for bit, at the
    # nodes (Kronecker rows) and between them
    w = barycentric_weights(grid)
    on = grid.nodes[1::3][: probes // 2]
    pts = np.concatenate([on, np.random.default_rng(probes).uniform(grid.a, grid.b, probes - on.size)])
    B = basis_matrix(w, pts)
    np.testing.assert_array_equal(_bits(B), _bits(interpolate(w, np.eye(grid.N + 1), pts).T))


@pytest.mark.parametrize("grid", [chebyshev_gauss_lobatto(-1, 1, 2), chebyshev_gauss_lobatto(-1, 1, 48),
                                  equidistant(-1, 1, 30), equidistant(-0.9, 0.7, 64)],
                         ids=["cgl-2", "cgl-48", "equidistant-30", "equidistant-64"])
def test_constant_data_interpolate_to_exactly_one(grid):
    # numerator and denominator are summed alike, so they agree bit for bit;
    # on equidistant N = 64 no denominator cancels to zero either
    pts = np.linspace(grid.a, grid.b, 10001)
    vals = interpolate(barycentric_weights(grid), np.ones(grid.N + 1), pts)
    assert np.count_nonzero(vals != 1.0) == 0


def test_value_bits_do_not_depend_on_the_other_probes():
    g = equidistant(-1, 1, 20)
    w = barycentric_weights(g)
    f = np.cos(3.0 * g.nodes)
    pts = np.concatenate([np.random.default_rng(4).uniform(-1, 1, 40), g.nodes[:3]])
    together = interpolate(w, f, pts)
    alone = [interpolate(w, f, x) for x in pts]
    np.testing.assert_array_equal(_bits(together), _bits(alone))


@pytest.mark.parametrize("K", range(1, 6))
@pytest.mark.parametrize("grid", [chebyshev_gauss_lobatto(-1, 1, 16), equidistant(-0.9, 0.7, 24)],
                         ids=["cgl-16", "equidistant-24"])
def test_value_bits_do_not_depend_on_the_other_rows(grid, K):
    # stacked rows share one ratio table; each row's values are those of
    # the row alone, at probes between nodes, on nodes and as a scalar
    w = barycentric_weights(grid)
    rng = np.random.default_rng(K)
    rows = rng.normal(size=(K, grid.N + 1)) * 10.0 ** rng.integers(-3, 4, size=(K, 1))
    pts = np.concatenate([rng.uniform(grid.a, grid.b, 50), grid.nodes[[0, 5, -1]]])
    together = interpolate(w, rows, pts)
    assert together.shape == (K, pts.size)
    np.testing.assert_array_equal(_bits(together), _bits([interpolate(w, row, pts) for row in rows]))
    np.testing.assert_array_equal(_bits(interpolate(w, rows, pts[7])), _bits(together[:, 7]))
    np.testing.assert_array_equal(_bits(interpolate(w, rows, pts[-2])), _bits(rows[:, 5]))


def test_stacked_rows_must_match_the_grid():
    w = barycentric_weights(equidistant(-1, 1, 4))
    with pytest.raises(ValueError, match="does not match the grid's 5 nodes"):
        interpolate(w, np.ones((2, 4)), 0.3)
    with pytest.raises(ValueError, match="does not match the grid's 5 nodes"):
        interpolate(w, np.ones((1, 2, 5)), 0.3)


def test_denominator_cancelling_to_zero_is_not_finite_without_a_warning():
    # far outside [0, 1], -1/x + 1/(x - 1) rounds to 0 at x = 1e17
    w = barycentric_weights(custom(0, 1, [0.0, 1.0]))
    vals = interpolate(w, [1.0, 2.0], [1e17, 0.5])
    assert vals[0] == np.inf and vals[1] == 1.5
    assert np.isnan(interpolate(w, [1.0, 1.0], 1e17))


class Fault(Exception):
    pass


def test_finite_returns_the_computed_object_untouched():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _finite(lambda: values, Fault) is values
    total = 0.5
    assert _finite(lambda: total, Fault) is total


# a 0-d, 1-d and 2-d computation with numpy's overflow, divide and invalid
# errors, and the flat index of its first non-finite value
GUARDED = [
    (lambda: np.float64(1e308) * 10.0, 0),
    (lambda: np.array([1.0, 1.0, 0.0, 1.0]) / np.array([1.0, 2.0, 0.0, 0.0]), 2),
    (lambda: np.log([[1.0, 2.0, 3.0], [0.0, -1.0, 1e308]]) * np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1e308]]), 3),
]


@pytest.mark.parametrize("compute,first", GUARDED)
def test_finite_raises_the_fault_of_the_first_non_finite_value_without_warnings(compute, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Fault) as info:
            _finite(compute, Fault)
    assert info.value.args == (first,)


@pytest.mark.parametrize("N", [769, 770, 800])
def test_weights_whose_row_products_leave_the_normal_range_are_rejected(N):
    # at N = 800 the row products of the CGL grid on [-1, 1] pass through the
    # subnormal range on the way back to a normal weight: those weights were
    # off by 1e-3 relative to the closed form, and the interpolant of
    # sin(3x) erred by 2.8e-6
    g = chebyshev_gauss_lobatto(-1, 1, N)
    if N >= 770:
        with pytest.raises(ValueError, match="degenerate barycentric weights; nodes too close or interval too wide"):
            barycentric_weights(g)
        return
    w = barycentric_weights(g)
    closed = (-1.0) ** np.arange(N + 1) * np.where(np.isin(np.arange(N + 1), [0, N]), 0.5, 1.0)
    np.testing.assert_allclose(w.lam / w.lam[0], closed / closed[0], rtol=1e-9)
    x = np.linspace(-1, 1, 1001)
    assert np.abs(interpolate(w, np.sin(3 * g.nodes), x) - np.sin(3 * x)).max() < 1e-13
