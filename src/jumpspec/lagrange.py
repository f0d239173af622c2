"""Lagrange interpolation of nodal data, evaluated in barycentric form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = [
    "BarycentricWeights",
    "barycentric_weights",
    "basis_matrix",
    "interpolate",
]


@dataclass(frozen=True)
class BarycentricWeights:
    """Barycentric weights lam[j] = 1 / prod_{k != j} (x_j - x_k) of a grid,
    each in the normal float range: a subnormal weight has lost its relative
    precision, and so has a weight whose row product left the normal range
    on the way, which barycentric_weights rejects. derivative_matrix builds
    its pseudospectral rows from the same weights, by the same helper
    (_gaps_and_weights), and rejects a grid whose weights or stencil weights
    leave that range.

    A probe within |lam_j| 1e-300 of node j coincides with it (_ratio_matrix);
    every such tolerance must be below half the smallest node gap, so that a
    probe coincides with at most one node, one of the two bracketing it.
    That fails only on intervals narrower than about 1e-100.
    """

    grid: Grid
    lam: np.ndarray

    def __post_init__(self) -> None:
        lam = np.array(self.lam, dtype=float)
        g = self.grid
        if lam.shape != (g.N + 1,):
            raise ValueError(f"barycentric weights of shape {lam.shape} do not match the grid's {g.N + 1} nodes")
        if not np.all((np.abs(lam) >= np.finfo(float).tiny) & (np.abs(lam) <= np.finfo(float).max)):
            raise _degenerate(g, "nodes too close or interval too wide")
        if not 2.0 * (np.abs(lam) * 1e-300).max() < np.diff(g.nodes).min():
            raise _degenerate(g, "a node gap is below 2 |lam| 1e-300")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)


def barycentric_weights(grid: Grid) -> BarycentricWeights:
    """Precompute the barycentric weights of a grid.

    The weights depend only on node positions; with them every subsequent
    evaluation costs O(N) per point and is numerically stable even for high
    degrees (Berrut & Trefethen, SIAM Review 46, 2004).
    """
    # a row product that leaves the normal float range on the way has lost
    # its precision, even where the weight itself comes back into the range
    try:
        with np.errstate(all="raise"):
            lam = _gaps_and_weights(grid.nodes)[1]
    except FloatingPointError:
        raise _degenerate(grid, "nodes too close or interval too wide") from None
    return BarycentricWeights(grid, lam)


def _degenerate(g: Grid, why: str) -> ValueError:
    return ValueError(f"the grid on [{g.a}, {g.b}] with {g.N + 1} nodes has degenerate barycentric weights; {why}")


def _gaps_and_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The node gaps x_i - x_j, with ones on the diagonal, and the weights
    lam_i = 1 / prod_{j != i} (x_i - x_j) taken from them, unchecked: the
    caller's numpy error state decides what a weight past the float range
    does."""
    gaps = x[:, None] - x[None, :]
    np.fill_diagonal(gaps, 1.0)
    return gaps, 1.0 / gaps.prod(axis=1)


def _ratio_matrix(
    w: BarycentricWeights, pts: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """lam_j / (x - x_j) as a (node, probe) table, plus the (node, probe) pairs of node coincidences.

    A probe counts as coinciding with node j when |x - x_j| <= |lam_j| 1e-300,
    that is when the difference underflows the ratio (including exact
    equality); such probes are served the nodal value directly, so the ratios
    never overflow, and the ratio at a pair is lam_j itself. Every tolerance
    is below half the smallest node gap (BarycentricWeights), so only the
    two nodes bracketing a probe can meet it, and at most one of them does;
    just those are tested. Two full passes: the differences, then the ratios
    in place.
    """
    x = w.grid.nodes
    tol = np.abs(w.lam) * 1e-300
    d = pts[None, :] - x[:, None]
    # nodes x_k, x_k+1 bracket the probe (the end pair outside [x_0, x_N])
    cand = np.searchsorted(x[1:-1], pts)[:, None] + np.array([0, 1])
    probes, side = np.nonzero(np.abs(pts[:, None] - x[cand]) <= tol[cand])
    nodes = cand[probes, side]
    d[nodes, probes] = 1.0
    return np.divide(w.lam[:, None], d, out=d), (nodes, probes)


def basis_matrix(w: BarycentricWeights, pts) -> np.ndarray:
    """Evaluate every Lagrange basis polynomial at the given points.

    Returns B with B[p, j] = pi_j(pts[p]). Rows whose point coincides with a
    node are exact Kronecker rows, and every row sums to one identically
    because the true barycentric form normalizes by the same sum.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    r, (cols, rows) = _ratio_matrix(w, pts)
    B = r.T.copy()  # a contiguous row per probe, which numpy sums pairwise
    with np.errstate(invalid="ignore"):
        B /= B.sum(axis=1)[:, None]
    B[rows] = 0.0
    B[rows, cols] = 1.0
    return B


def _check_data(f, grid: Grid) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.N + 1,):
        raise ValueError(f"data length {f.shape} does not match the grid's {grid.N + 1} nodes")
    return f


def _finite(compute, fault):
    """compute(), run with numpy's warnings off, unless a value of it is not
    finite: then the exception fault(i) is raised, i the flat index of the
    first such value. numpy's error state is per thread, so this holds on
    pool threads too."""
    with np.errstate(all="ignore"):
        values = compute()
    finite = np.isfinite(values)
    if not finite.all():
        raise fault(int(np.flatnonzero(~finite)[0]))
    return values


def _barycentric(w: BarycentricWeights, pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Barycentric values at pts of the interpolant of each data row of rows.

    Row k holds the values of the interpolant of rows[k], a (K, N+1) array.
    Every numerator and the denominator come from one einsum contraction of
    the (node, probe) ratio table with the data columns beside a column of
    ones, which numpy sums in node order for any probe count, without BLAS.
    So one ratio table serves every row, constant data give exactly that
    constant, and a value's bits depend neither on the other rows, nor on
    the other probes, nor on the BLAS thread count. Node order also keeps
    the partial sums of the alternating ratios small; a sum split across
    SIMD lanes gathers same-sign terms whose totals cancel only at the end.
    A denominator that cancels to zero gives a non-finite value, without a
    warning; probes coinciding with a node get that row's datum exactly.
    """
    r, (nodes, probes) = _ratio_matrix(w, pts)
    sums = np.einsum("jp,jk->kp", r, np.column_stack([*rows, np.ones(len(r))]))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = sums[:-1] / sums[-1]
    vals[:, probes] = rows[:, nodes]
    return vals


def interpolate(w: BarycentricWeights, f, x):
    """Evaluate the degree-N interpolant of nodal data f at x (scalar or array).

    Uses the true barycentric form, which reproduces nodal values exactly,
    sums the basis to one identically, and is exact for polynomial data of
    degree <= N. f may also stack K data rows, shape (K, N+1): all of them
    are evaluated from one ratio table, and row k of the (K, ...) result is
    bit for bit what f[k] alone gives.
    """
    f = np.asarray(f, dtype=float)
    rows = f if f.ndim == 2 and f.shape[1] == w.grid.N + 1 else _check_data(f, w.grid)[None]
    xs = np.asarray(x, dtype=float)
    vals = _barycentric(w, np.atleast_1d(xs), rows).reshape(f.shape[:-1] + xs.shape)
    return float(vals) if vals.ndim == 0 else vals
