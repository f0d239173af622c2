"""Derivative matrices: composite finite-difference stencils and their global
pseudospectral limit, all built from a single weight generator."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .lagrange import _check_data

__all__ = ["DerivMatrix", "fd_weights", "derivative_matrix", "negative_sum_trick", "apply"]


def fd_weights(nodes, x0, n: int) -> np.ndarray:
    """Finite-difference weights for the n-th derivative at x0.

    Implements Fornberg's recursion (SIAM Review 40, 1998). The returned
    weights c satisfy sum_j c[j] f(nodes[j]) = f^(n)(x0) exactly for every
    polynomial f of degree < len(nodes); equivalently, c[j] is the n-th
    derivative of the j-th Lagrange basis polynomial of the stencil at x0.
    n = 0 gives interpolation weights.

    Batched: nodes of shape (R, k) with x0 of shape (R,) give the (R, k)
    weights of R stencils in one pass, each row bit for bit what the 1-D
    call returns; a 1-D stencil with a scalar x0 is the R = 1 case. The
    loops run over the stencil point and the derivative order only. An n
    that is not an integer (operator.index) raises TypeError.
    """
    x = np.asarray(nodes, dtype=float)
    z = np.asarray(x0, dtype=float)
    if x.ndim == 0 or z.shape != x.shape[:-1]:
        raise ValueError(f"x0 of shape {z.shape} does not match stencils of shape {x.shape}")
    out_shape = x.shape
    k = x.shape[-1]
    n = operator.index(n)
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n >= k:
        raise ValueError(f"order {n} derivative needs at least {n + 1} stencil points, got {k}")
    # x[j, r] and c[m, j, r]: point j of stencil r, stencil-point-major so
    # that each block c[m, :i] is contiguous; every update below is the
    # scalar recursion's, in its order, per (r, j)
    x = np.ascontiguousarray(x.reshape(-1, k).T)
    z = z.reshape(-1)
    c = np.zeros((n + 1, k, z.size))
    c[0, 0] = 1.0
    scratch = np.empty((k, z.size))
    c1 = np.ones(z.size)
    c4 = x[0] - z
    for i in range(1, k):
        mn = min(i, n)
        c3 = x[i] - x[:i]
        # the product over j < i, left to right as in the scalar c2 *= c3: a
        # multiply reduction along axis 0 takes the rows in turn, elementwise
        # per stencil, so it keeps that order (the bitwise tests pin it)
        c2 = np.multiply.reduce(c3, axis=0)
        c5 = c4
        c4 = x[i] - z
        for m in range(mn, 0, -1):
            c[m, i] = c1 * (m * c[m - 1, i - 1] - c5 * c[m, i - 1]) / c2
        c[0, i] = -c1 * c5 * c[0, i - 1] / c2
        # c[m, :i] = (c4 * c[m, :i] - m * c[m - 1, :i]) / c3, in place
        mc = scratch[:i]
        for m in range(mn, -1, -1):
            block = c[m, :i]
            np.multiply(c4, block, out=block)
            if m:
                np.subtract(block, np.multiply(m, c[m - 1, :i], out=mc), out=block)
            np.divide(block, c3, out=block)
        c1 = c2
    return c[n].T.reshape(out_shape)


@dataclass(frozen=True)
class DerivMatrix:
    """Dense (N+1) x (N+1) map from nodal values to n-th derivative values.

    n is the derivative order and m the difference order: each row is built
    from an (m+1)-point stencil, so m = N gives the global pseudospectral
    matrix while m < N gives a banded composite matrix. Immutable, and so
    safe to share across threads, as long as a caller that passes a
    read-only float array owning its memory as entries writes to it through
    no view it still holds: such an array is kept, not copied.
    """

    grid: Grid
    n: int
    m: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        e = self.entries
        # a read-only float array that owns its memory is kept as is, since a
        # copy would double a build's peak; a writable view taken before it
        # was frozen still aliases it, and the caller must not write through
        # one. Anything else is copied
        if not (type(e) is np.ndarray and e.dtype == float and e.base is None and not e.flags.writeable):
            object.__setattr__(self, "entries", _frozen(np.array(e, dtype=float)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stencils(N: int, m: int) -> np.ndarray:
    """(N+1, m+1) column indices of each row's (m+1)-point window: the window
    holds node i, shifted to stay inside the grid; even-sized windows take
    the extra point on the left."""
    return np.minimum(np.maximum(np.arange(N + 1) - (m + 1) // 2, 0), N - m)[:, None] + np.arange(m + 1)


def derivative_matrix(grid: Grid, n: int, m: int | None = None) -> DerivMatrix:
    """Build the derivative matrix of order n at difference order m.

    Row i holds the stencil weights for f^(n)(x_i): the whole grid when
    m = N (pseudospectral), otherwise the m+1 nodes nearest to i, becoming
    fully one-sided at the boundary rows. n = 0 returns the identity. For
    n >= 1 each diagonal entry is minus the sum of its row's other stencil
    weights (the negative sum trick), computed from the (N+1, m+1) weights
    themselves; the build fills one zero (N+1)^2 array with them. All rows
    come from one batched fd_weights call.
    Raises TypeError when n or m is not an integer (operator.index), and
    ValueError when the build leaves the normal float range, which happens
    on nodes too close or an interval too wide for the stencils.
    """
    N = grid.N
    n, m = operator.index(n), operator.index(N if m is None else m)
    if not (0 <= n <= m <= N):
        raise ValueError(f"need 0 <= n <= m <= N, got n={n}, m={m}, N={N}")
    if n == 0:
        return DerivMatrix(grid, 0, m, _frozen(np.eye(N + 1)))
    cols = _stencils(N, m)
    entries = np.zeros((N + 1, N + 1))
    # stencil products that leave the float range, or its normal range, leave
    # weights that are wrong, finite or not, so any such event rejects the grid
    try:
        with np.errstate(all="raise"):
            weights = fd_weights(grid.nodes[cols], grid.nodes, n)
            np.put_along_axis(entries, cols, weights, axis=1)
            np.fill_diagonal(entries, _balanced_diagonal(weights, cols))
    except FloatingPointError:
        raise ValueError(f"the grid on [{grid.a}, {grid.b}] with {N + 1} nodes has no order-{n} derivative "
                         f"matrix at m = {m}; nodes too close or interval too wide for its stencil weights") from None
    return DerivMatrix(grid, n, m, _frozen(entries))


_ROW_BLOCK = 32


def _balanced_diagonal(weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Minus the sum of each row's off-diagonal weights, smallest magnitude first.

    weights[i] are row i's entries in the columns cols[i], a window that
    holds column i; outside it the row is +0.0. Each row's other window
    weights, stably sorted by magnitude, are summed at the tail of a row of
    N zeros: the stable sort of the full row puts its +0.0 entries first, so
    these are the full row's summands in the same positions, and the sum
    has its bits. Blocks of rows keep the sort temporaries at O(block * N).
    """
    N, k = cols.shape[0] - 1, cols.shape[1]
    diagonal = np.empty(N + 1)
    padded = np.zeros((_ROW_BLOCK, N))
    for lo in range(0, N + 1, _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        off = weights[block][cols[block] != np.arange(N + 1)[block, None]].reshape(-1, k - 1)
        off = np.take_along_axis(off, np.argsort(np.abs(off), axis=1, kind="stable"), axis=1)
        summands = padded[: off.shape[0]]
        summands[:, N + 1 - k :] = off
        diagonal[block] = -summands.sum(axis=1)
    return diagonal


def negative_sum_trick(M: DerivMatrix) -> DerivMatrix:
    """Replace each diagonal entry by minus the sum of its off-diagonal row.

    Differentiation annihilates constants, so exact rows sum to zero; the
    raw stencil weights only do so up to rounding. Rebalancing the diagonal
    restores the property — off-diagonal entries are accumulated smallest
    magnitude first — which keeps derivatives of constant data at the level
    of one rounding of the row (Baltensperger & Trummer, SISC 24, 2003).
    This is the full-row rule, for any matrix: every off-diagonal entry of
    a row is a summand. derivative_matrix applies the same rule to its
    stencil windows as it builds, to the same bits.
    """
    if M.n < 1:
        raise ValueError("the negative sum trick applies to derivative orders n >= 1")
    entries = M.entries.copy()
    N = entries.shape[0] - 1
    np.fill_diagonal(entries, _balanced_diagonal(entries, _stencils(N, N)))
    return DerivMatrix(M.grid, M.n, M.m, _frozen(entries))


def apply(M: DerivMatrix, f) -> np.ndarray:
    """Matrix-vector product approximating f^(n) at all nodes."""
    f = _check_data(f, M.grid)
    return M.entries @ f
