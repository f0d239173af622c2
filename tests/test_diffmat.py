import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from jumpspec import (
    DerivMatrix,
    apply,
    chebyshev_gauss_lobatto,
    custom,
    derivative_matrix,
    equidistant,
    fd_weights,
    negative_sum_trick,
)


def poly_deriv_matrix(nodes, n):
    """Independent oracle: differentiate each basis polynomial symbolically."""
    N = len(nodes) - 1
    D = np.zeros((N + 1, N + 1))
    for j in range(N + 1):
        roots = np.delete(nodes, j)
        coeffs = npoly.polyfromroots(roots) / np.prod(nodes[j] - roots)
        D[:, j] = npoly.polyval(nodes, npoly.polyder(coeffs, n))
    return D


def scalar_fornberg(nodes, x0, n):
    """Fornberg's recursion for one stencil in Python scalars: the loop whose
    operations, in their order, the batched fd_weights must repeat."""
    x = np.asarray(nodes, dtype=float)
    k = x.size
    c = np.zeros((k, n + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, k):
        mn = min(i, n)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    c[i, m] = c1 * (m * c[i - 1, m - 1] - c5 * c[i - 1, m]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for m in range(mn, 0, -1):
                c[j, m] = (c4 * c[j, m] - m * c[j, m - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, n]


def sorted_row_rebalance(entries):
    """Each diagonal entry replaced by minus the sum of its row's N
    off-diagonal entries, summed smallest magnitude first."""
    D = np.array(entries, dtype=float)
    for i in range(len(D)):
        off = np.delete(D[i], i)
        D[i, i] = -off[np.argsort(np.abs(off), kind="stable")].sum()
    return D


def per_row_matrix(g, n, m):
    """The derivative matrix built one row at a time: the scalar recursion on
    the row's window, then the sorted-row rebalance of the diagonal."""
    N = g.N
    D = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        s = min(max(i - (m + 1) // 2, 0), N - m)
        D[i, s : s + m + 1] = scalar_fornberg(g.nodes[s : s + m + 1], g.nodes[i], n)
    return sorted_row_rebalance(D)


def raw_pseudospectral(g, n):
    """Fornberg's weights over the whole grid at every node, without rebalancing."""
    return DerivMatrix(g, n, g.N, [fd_weights(g.nodes, x, n) for x in g.nodes])


def test_centred_first_derivative_weights():
    np.testing.assert_allclose(fd_weights([-1, 0, 1], 0.0, 1), [-0.5, 0.0, 0.5], atol=1e-15)


def test_centred_second_derivative_weights():
    np.testing.assert_allclose(fd_weights([-1, 0, 1], 0.0, 2), [1.0, -2.0, 1.0], atol=1e-14)


def test_one_sided_first_derivative_weights():
    np.testing.assert_allclose(fd_weights([0, 1, 2], 0.0, 1), [-1.5, 2.0, -0.5], atol=1e-14)


def test_fd_weights_order_too_high():
    with pytest.raises(ValueError):
        fd_weights([0.0, 1.0], 0.0, 2)


def test_fd_weights_rejects_a_negative_order():
    with pytest.raises(ValueError, match="derivative order must be nonnegative"):
        fd_weights([0.0, 1.0, 2.0], 0.0, -1)


def test_fd_weights_rejects_mismatched_evaluation_points():
    with pytest.raises(ValueError):
        fd_weights(np.tile(np.arange(4.0), (3, 1)), np.zeros(2), 1)
    with pytest.raises(ValueError):
        fd_weights([0.0, 1.0, 2.0], [0.0, 1.0], 1)


def test_batched_fd_weights_stack_scalar_calls_bitwise():
    rng = np.random.default_rng(7)
    for k, n in ((2, 1), (5, 2), (9, 4), (13, 3)):
        nodes = np.sort(rng.uniform(-1, 1, (6, k)), axis=1)
        # evaluation points on a stencil node, between nodes and outside
        x0 = np.concatenate([nodes[:2, 1], rng.uniform(-1, 1, 2), [-1.5, 1.5]])
        batched = fd_weights(nodes, x0, n)
        assert batched.shape == (6, k)
        stacked = np.array([fd_weights(nodes[r], x0[r], n) for r in range(6)])
        reference = np.array([scalar_fornberg(nodes[r], x0[r], n) for r in range(6)])
        assert batched.tobytes() == stacked.tobytes() == reference.tobytes()


@pytest.mark.parametrize("N", [48, 80])
@pytest.mark.parametrize("n", [1, 2])
def test_batched_fd_weights_full_grid_stencils_bitwise(N, n):
    # the whole grid as one long stencil, as pseudospectral rows use it, at
    # nodes, between nodes and outside the interval
    g = chebyshev_gauss_lobatto(-1, 1.5, N)
    x0 = np.concatenate([g.nodes[[0, 1, N // 2, N]], 0.5 * (g.nodes[:2] + g.nodes[1:3]), [-1.5, 2.0]])
    batched = fd_weights(np.broadcast_to(g.nodes, (x0.size, N + 1)), x0, n)
    reference = np.array([scalar_fornberg(g.nodes, x, n) for x in x0])
    assert batched.tobytes() == reference.tobytes()


def test_fd_weights_polynomial_exactness_off_node():
    rng = np.random.default_rng(11)
    nodes = np.sort(rng.uniform(-1, 1, 7))
    x0 = 0.153
    for n in range(4):
        w = fd_weights(nodes, x0, n)
        for k in range(7):
            exact = npoly.polyval(x0, npoly.polyder(npoly.polyfromroots(np.zeros(k)), n)) if k else (1.0 if n == 0 else 0.0)
            assert w @ nodes**k == pytest.approx(exact, abs=1e-9)


def test_three_node_first_derivative_matrix():
    D = derivative_matrix(custom(-1, 1, [-1.0, 0.0, 1.0]), 1, 2)
    np.testing.assert_allclose(
        D.entries,
        [[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]],
        atol=1e-14,
    )
    np.testing.assert_allclose(np.diag(D.entries), [-1.5, 0.0, 1.5], atol=1e-15)


def test_order_zero_is_identity():
    g = chebyshev_gauss_lobatto(0, 2, 9)
    for m in (3, 9):
        D = derivative_matrix(g, 0, m)
        np.testing.assert_array_equal(D.entries, np.eye(10))


def test_invalid_order_combinations():
    g = equidistant(0, 1, 5)
    with pytest.raises(ValueError):
        derivative_matrix(g, 3, 2)
    with pytest.raises(ValueError):
        derivative_matrix(g, 1, 6)
    with pytest.raises(ValueError):
        derivative_matrix(g, -1, 2)


def test_interior_rows_match_closed_form():
    # 3-point stencil weights have a closed rational form in the node gaps
    rng = np.random.default_rng(5)
    nodes = np.sort(rng.uniform(0, 2, 9))
    g = custom(0, 2, nodes)
    D = derivative_matrix(g, 1, 2)
    for i in range(1, g.N):
        xm, x0, xp = nodes[i - 1], nodes[i], nodes[i + 1]
        up = (x0 - xm) / ((xp - x0) * (xp - xm))
        mid = (xp + xm - 2 * x0) / ((xp - x0) * (x0 - xm))
        lo = -(xp - x0) / ((xp - xm) * (x0 - xm))
        assert D.entries[i, i + 1] == pytest.approx(up, rel=1e-13)
        assert D.entries[i, i] == pytest.approx(mid, rel=1e-12, abs=1e-12)
        assert D.entries[i, i - 1] == pytest.approx(lo, rel=1e-13)


def test_composite_matrices_are_banded():
    g = chebyshev_gauss_lobatto(-1, 1, 12)
    for n, m in ((1, 2), (1, 4), (2, 5)):
        D = derivative_matrix(g, n, m)
        for i in range(g.N + 1):
            start = min(max(i - (m + 1) // 2, 0), g.N - m)
            outside = np.ones(g.N + 1, dtype=bool)
            outside[start : start + m + 1] = False
            assert np.all(D.entries[i, outside] == 0.0)


def test_negative_sum_trick_row_sums():
    g = chebyshev_gauss_lobatto(-1, 1, 24)
    for n in (1, 2):
        D = derivative_matrix(g, n)
        resid = np.abs(D.entries @ np.ones(g.N + 1))
        assert resid.max() <= 1e-13 * np.abs(D.entries).max()


def test_negative_sum_trick_fixed_point():
    D = raw_pseudospectral(custom(-1, 1, [-1.0, 0.0, 1.0]), 1)
    D2 = negative_sum_trick(D)
    np.testing.assert_allclose(D2.entries, D.entries, atol=1e-15)


def test_off_window_entries_take_the_full_sort():
    # row 10's window is columns 8-12; a -0.0 and a nonzero entry outside
    # it each send the matrix to the sort of every full row
    g = chebyshev_gauss_lobatto(-1, 1, 40)
    for value in (-0.0, 1e-3):
        E = derivative_matrix(g, 1, 4).entries.copy()
        E[10, 30] = value
        D = negative_sum_trick(DerivMatrix(g, 1, 4, E))
        assert D.entries.tobytes() == sorted_row_rebalance(E).tobytes()


def test_entries_are_read_only_and_unaliased():
    g = equidistant(0, 1, 4)
    source = np.eye(5)
    view = source.view()
    view.flags.writeable = False
    built = [DerivMatrix(g, 1, 4, source), DerivMatrix(g, 1, 4, view)]
    source[1, 1] = 9.0
    for D in built:
        assert D.entries[1, 1] == 1.0
    built += [derivative_matrix(g, 1, 2), negative_sum_trick(derivative_matrix(g, 1, 4))]
    for D in built:
        assert not D.entries.flags.writeable
        with pytest.raises(ValueError):
            D.entries[0, 0] = 1.0


def test_negative_sum_trick_rejects_identity():
    g = equidistant(0, 1, 3)
    with pytest.raises(ValueError):
        negative_sum_trick(derivative_matrix(g, 0, 2))


def test_pseudospectral_matches_symbolic_basis_derivatives():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    for n in (1, 2):
        D = raw_pseudospectral(g, n)
        np.testing.assert_allclose(D.entries, poly_deriv_matrix(g.nodes, n), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "family,n,m",
    # global (m = N) matrices only on clustered nodes: the equidistant global
    # operator is the Runge pathology with entries around 1e5, whose rounding
    # alone exceeds any reasonable exactness target
    [(f, n, m) for f in ("equidistant", "cgl") for n, m in ((1, 2), (1, 6), (2, 4), (3, 5))]
    + [("cgl", 1, 20), ("cgl", 2, 20)],
)
def test_monomial_exactness(family, n, m):
    N = 20
    g = equidistant(-1, 1, N) if family == "equidistant" else chebyshev_gauss_lobatto(-1, 1, N)
    D = derivative_matrix(g, n, m)
    for k in range(m + 1):
        c = np.zeros(k + 1)
        c[k] = 1.0
        exact = npoly.polyval(g.nodes, npoly.polyder(c, n))
        got = apply(D, g.nodes**k)
        assert np.abs(got - exact).max() <= 1e-9 * max(1.0, np.abs(exact).max())


def test_apply_parabola_pseudospectral():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    D = derivative_matrix(g, 1)
    assert np.abs(apply(D, g.nodes**2) - 2 * g.nodes).max() <= 1e-11


def test_apply_constant_annihilated():
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    for n in (1, 2):
        D = derivative_matrix(g, n)
        resid = np.abs(apply(D, np.full(g.N + 1, 7.5)))
        assert resid.max() <= 1e-13 * np.abs(D.entries).max() * 7.5


def test_apply_sine_pseudospectral():
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    D = derivative_matrix(g, 1)
    assert np.abs(apply(D, np.sin(g.nodes)) - np.cos(g.nodes)).max() <= 1e-10


def long_band_examples(test):
    """Banded rows longer than 128 entries, where numpy's pairwise sum splits
    a row: N in {160, 300, 400}, m in {2, 4, 6, 8}, n in {1, 2}."""
    for N, family in ((160, "cgl"), (300, "equidistant"), (400, "cgl")):
        for m in (2, 4, 6, 8):
            for n in (1, 2):
                test = example(family=family, N=N, n=n, m_offset=m - n, seed=0)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["cgl", "equidistant", "custom"]),
    N=st.integers(1, 40),
    n=st.integers(1, 4),
    m_offset=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
# more than one 32-row block of the diagonal rebalancing
@example(family="cgl", N=40, n=1, m_offset=40, seed=0)
@example(family="custom", N=33, n=4, m_offset=3, seed=1)
@long_band_examples
def test_derivative_matrix_matches_per_row_build_bitwise(family, N, n, m_offset, seed):
    n = min(n, N)
    m = min(n + m_offset, N)
    if family == "cgl":
        g = chebyshev_gauss_lobatto(-1, 1.5, N)
    elif family == "equidistant":
        g = equidistant(-1, 1.5, N)
    else:
        gaps = np.random.default_rng(seed).uniform(0.1, 1.0, N)
        interior = -1 + 2.5 * np.cumsum(gaps[:-1]) / gaps.sum()
        g = custom(-1, 1.5, np.concatenate([[-1.0], interior, [1.5]]))
    D = derivative_matrix(g, n, m)
    assert D.entries.tobytes() == per_row_matrix(g, n, m).tobytes()


def test_banded_build_allocates_one_dense_array():
    # the rebalance works on the (N+1, m+1) stencil weights, so the build's
    # peak is one (N+1)^2 array plus temporaries of O(N m) and O(32 N)
    g = chebyshev_gauss_lobatto(-1, 1, 400)
    derivative_matrix(g, 1, 4)
    tracemalloc.start()
    try:
        derivative_matrix(g, 1, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 401**2 * 8


def test_pseudospectral_build_at_n256():
    g = chebyshev_gauss_lobatto(-1, 1, 256)
    D = derivative_matrix(g, 1)
    assert np.abs(apply(D, np.sin(3 * g.nodes)) - 3 * np.cos(3 * g.nodes)).max() <= 1e-9


def test_apply_length_mismatch():
    g = equidistant(0, 1, 4)
    D = derivative_matrix(g, 1, 2)
    with pytest.raises(ValueError):
        apply(D, np.zeros(4))
