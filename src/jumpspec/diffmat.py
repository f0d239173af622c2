"""Derivative matrices: composite finite-difference stencils and their global
pseudospectral limit, all built from a single weight generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .lagrange import _check_data

__all__ = ["DerivMatrix", "fd_weights", "derivative_matrix", "negative_sum_trick", "apply"]


def fd_weights(nodes, x0: float, n: int) -> np.ndarray:
    """Finite-difference weights for the n-th derivative at x0.

    Implements Fornberg's recursion (SIAM Review 40, 1998). The returned
    weights c satisfy sum_j c[j] f(nodes[j]) = f^(n)(x0) exactly for every
    polynomial f of degree < len(nodes); equivalently, c[j] is the n-th
    derivative of the j-th Lagrange basis polynomial of the stencil at x0.
    n = 0 gives interpolation weights.
    """
    x = np.asarray(nodes, dtype=float)
    k = x.size
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n >= k:
        raise ValueError(f"order {n} derivative needs at least {n + 1} stencil points, got {k}")
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


@dataclass(frozen=True)
class DerivMatrix:
    """Dense (N+1) x (N+1) map from nodal values to n-th derivative values.

    n is the derivative order and m the difference order: each row is built
    from an (m+1)-point stencil, so m = N gives the global pseudospectral
    matrix while m < N gives a banded composite matrix. Immutable; share
    freely across threads.
    """

    grid: Grid
    n: int
    m: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def _stencil_start(i: int, m: int, N: int) -> int:
    # (m+1)-point window holding node i, shifted to stay inside the grid;
    # even-sized windows take the extra point on the left
    return min(max(i - (m + 1) // 2, 0), N - m)


def derivative_matrix(grid: Grid, n: int, m: int | None = None) -> DerivMatrix:
    """Build the derivative matrix of order n at difference order m.

    Row i holds the stencil weights for f^(n)(x_i): the whole grid when
    m = N (pseudospectral), otherwise the m+1 nodes nearest to i, becoming
    fully one-sided at the boundary rows. n = 0 returns the identity. For
    n >= 1 the diagonal is then rebalanced so rows sum to zero (see
    negative_sum_trick).
    """
    N = grid.N
    if m is None:
        m = N
    if not (0 <= n <= m <= N):
        raise ValueError(f"need 0 <= n <= m <= N, got n={n}, m={m}, N={N}")
    if n == 0:
        return DerivMatrix(grid, 0, m, np.eye(N + 1))
    entries = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        s = _stencil_start(i, m, N)
        entries[i, s : s + m + 1] = fd_weights(grid.nodes[s : s + m + 1], grid.nodes[i], n)
    return negative_sum_trick(DerivMatrix(grid, n, m, entries))


def negative_sum_trick(M: DerivMatrix) -> DerivMatrix:
    """Replace each diagonal entry by minus the sum of its off-diagonal row.

    Differentiation annihilates constants, so exact rows sum to zero; the
    raw stencil weights only do so up to rounding. Rebalancing the diagonal
    restores the property — off-diagonal entries are accumulated smallest
    magnitude first — which keeps derivatives of constant data at the level
    of one rounding of the row (Baltensperger & Trummer, SISC 24, 2003).
    """
    if M.n < 1:
        raise ValueError("the negative sum trick applies to derivative orders n >= 1")
    entries = M.entries.copy()
    for i in range(entries.shape[0]):
        off = np.delete(entries[i], i)
        off = off[np.argsort(np.abs(off), kind="stable")]
        entries[i, i] = -off.sum()
    return DerivMatrix(M.grid, M.n, M.m, entries)


def apply(M: DerivMatrix, f) -> np.ndarray:
    """Matrix-vector product approximating f^(n) at all nodes."""
    f = _check_data(f, M.grid)
    return M.entries @ f
