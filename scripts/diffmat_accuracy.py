#!/usr/bin/env python3
"""Sweep the accuracy of the pseudospectral derivative matrices against an
mpmath oracle.

    python scripts/diffmat_accuracy.py

For CGL and equidistant grids on [-1, 1], N from 8 to 256 and n = 1..3, it
builds derivative_matrix(grid, n) and Fornberg's matrix (fd_weights over the
whole grid at every node, its diagonal rebalanced as derivative_matrix
does). Each one's error is measured against the exact matrix on the same
float nodes, computed at 60 digits, relative in the row-sum norm. It prints
one table row per (grid, N, n) and exits 1 when an error exceeds
max(2 x Fornberg's, 1e-13).
"""

import math
import sys

import mpmath
import numpy as np

from jumpspec import DerivMatrix, chebyshev_gauss_lobatto, derivative_matrix, equidistant, fd_weights, negative_sum_trick

FAMILIES = {"cgl": chebyshev_gauss_lobatto, "equidistant": equidistant}
NS = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256)
ORDERS = (1, 2, 3)
FLOOR = 1e-13


def exact_matrices(nodes, n_max: int, dps: int = 60) -> list:
    """The exact derivative matrices of orders 1..n_max of the interpolant on
    the float nodes, computed with mpmath at dps digits, each as a pair of
    float arrays (hi, lo): hi the entries rounded, lo the rest rounded.

    With t_ij = 1 / (x_i - x_j) and e_k(t_i) the elementary symmetric sums
    over j != i, l_j(x_i + s) = (lam_j / lam_i) t_ij s prod_{l != i}
    (1 + s t_il) / (1 + s t_ij), so the s^k coefficient gives the entry
    k! (lam_j / lam_i) t_ij sum_{p < k} e_{k-1-p}(t_i) (-t_ij)^p off the
    diagonal, and k! e_k(t_i) on it.
    """
    with mpmath.workdps(dps):
        x = np.array([mpmath.mpf(float(v)) for v in nodes], dtype=object)
        gaps = x[:, None] - x[None, :]
        np.fill_diagonal(gaps, mpmath.mpf(1))
        t = 1 / gaps
        np.fill_diagonal(t, mpmath.mpf(0))
        lam = 1 / np.prod(gaps, axis=1)
        # e[k][i] = e_k(t_i), one node j at a time
        e = [np.full(x.size, mpmath.mpf(1), dtype=object)] + [np.full(x.size, mpmath.mpf(0), dtype=object)] * n_max
        for j in range(x.size):
            for k in range(n_max, 0, -1):
                e[k] = e[k] + t[:, j] * e[k - 1]
        scaled = lam[None, :] / lam[:, None] * t
        out, c = [], np.full(t.shape, mpmath.mpf(1), dtype=object)
        for k in range(1, n_max + 1):
            if k > 1:
                c = e[k - 1][:, None] - t * c
            D = math.factorial(k) * scaled * c
            np.fill_diagonal(D, math.factorial(k) * e[k])
            hi = D.astype(float)
            out.append((hi, (D - hi).astype(float)))
        return out


def relative_error(D: np.ndarray, exact) -> float:
    """max_i sum_j |D_ij - exact_ij| / max_i sum_j |exact_ij|, for exact as
    exact_matrices gives it."""
    hi, lo = exact
    return np.abs(D - hi - lo).sum(axis=1).max() / np.abs(hi).sum(axis=1).max()


def fornberg_matrix(grid, n: int) -> np.ndarray:
    """The pseudospectral matrix from Fornberg's weights over the whole grid
    at every node, its diagonal rebalanced as derivative_matrix does: the
    reference of the accuracy bound."""
    rows = fd_weights(np.broadcast_to(grid.nodes, (grid.N + 1,) * 2), grid.nodes, n)
    return negative_sum_trick(DerivMatrix(grid, n, grid.N, rows)).entries


def errors(grid, orders=ORDERS) -> list:
    """(n, error, Fornberg's error) for each order n <= N of orders, on one
    grid, against one oracle of the highest such order."""
    ns = [n for n in orders if n <= grid.N]
    exact = exact_matrices(grid.nodes, max(ns))
    return [(n, relative_error(derivative_matrix(grid, n).entries, exact[n - 1]),
             relative_error(fornberg_matrix(grid, n), exact[n - 1])) for n in ns]


def bound(fornberg_error: float) -> float:
    """The largest error accepted where Fornberg's matrix errs by fornberg_error."""
    return max(2 * fornberg_error, FLOOR)


if __name__ == "__main__":
    print(f"{'grid':<12} {'N':>4} {'n':>2} {'barycentric':>12} {'Fornberg':>12} {'ratio':>8}  ok")
    failed = 0
    for family, build in FAMILIES.items():
        for N in NS:
            for n, err, ref in errors(build(-1, 1, N)):
                ok = err <= bound(ref)
                failed += not ok
                ratio = err / ref if ref else math.inf
                print(f"{family:<12} {N:>4} {n:>2} {err:>12.2e} {ref:>12.2e} {ratio:>8.2f}  {'yes' if ok else 'NO'}")
    print(f"{failed} point(s) past max(2 x Fornberg's error, {FLOOR:g})")
    sys.exit(1 if failed else 0)
