"""Jump-corrected interpolation, differentiation and integration.

On each side of a discontinuity at xi with known derivative jumps J_m, the
sampled function is the restriction of a smooth function. The truncated
jump series

    g_j = sum_m J_m / m! * (x_j - xi)^m

is the gap between the two smooth extensions at node j. Adding it to the
data at the nodes left of xi gives the nodal data of the right extension
(plus); subtracting it at the nodes right of xi gives the left extension
(minus). reconstruct_pieces builds these pieces, one per region between
discontinuities, and every corrected operation is the plain one applied to
them: a probe evaluates the plain interpolant of its region's piece, node i
applies row i of the plain derivative matrix to its own region's piece, and
the integral sums the plain quadrature of each piece over its region. With
no jumps enforced the only piece is the data itself, so the plain results
come back unchanged.

Conventions: a probe exactly at a discontinuity averages the two adjacent
pieces, and a discontinuity must lie strictly between nodes. A
discontinuity sitting exactly on a node is served only by
one_sided_derivatives_at_node, because the stored nodal value is otherwise
ambiguous (left limit, right limit or average).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diffmat import DerivMatrix, fd_weights
from .grid import Grid
from .lagrange import BarycentricWeights, _barycentric, _check_data, barycentric_weights
from .quadrature import QuadRule, basis_integrals, integrate

__all__ = [
    "JumpData",
    "XiOnNodeError",
    "jump_weights",
    "correction_matrix",
    "reconstruct_pieces",
    "corrected_interpolate",
    "corrected_derivative",
    "corrected_integrate",
    "one_sided_derivatives_at_node",
]


class XiOnNodeError(ValueError):
    """The discontinuity coincides exactly with a grid node.

    The general correction path cannot decide which side the stored nodal
    value belongs to; route on-node discontinuities to
    one_sided_derivatives_at_node instead.
    """


@dataclass(frozen=True)
class JumpData:
    """Location of a discontinuity and the derivative jumps across it.

    jumps[m] is the m-th derivative jump (right limit minus left limit) at
    xi. An empty jump array means "no correction": all operations then
    reduce to their plain Lagrange counterparts.
    """

    xi: float
    jumps: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.xi):
            raise ValueError("discontinuity location must be finite")
        jumps = np.atleast_1d(np.array(self.jumps, dtype=float))
        if jumps.size and not np.all(np.isfinite(jumps)):
            raise ValueError("derivative jumps must be finite")
        jumps.flags.writeable = False
        object.__setattr__(self, "jumps", jumps)

    @property
    def order(self) -> int:
        """Highest enforced jump order; -1 when no jumps are enforced."""
        return self.jumps.size - 1


def _require_interior(jump: JumpData, grid: Grid) -> None:
    if not grid.a < jump.xi < grid.b:
        raise ValueError(
            f"discontinuity at {jump.xi} lies outside the open interval ({grid.a}, {grid.b})"
        )
    if (grid.nodes == jump.xi).any():
        raise XiOnNodeError(f"discontinuity at {jump.xi} coincides with a grid node")


def _as_jump_tuple(jump, grid: Grid) -> tuple[JumpData, ...]:
    """Normalize a JumpData or sequence thereof to the entries with jumps, sorted by location.

    Entries without jumps are validated here; the others are validated by
    jump_weights, which every corrected operation calls on them.
    """
    if isinstance(jump, JumpData) and jump.order >= 0:
        return (jump,)
    jumps = (jump,) if isinstance(jump, JumpData) else tuple(jump)
    for jd in jumps:
        if jd.order < 0:
            _require_interior(jd, grid)
    active = tuple(sorted((jd for jd in jumps if jd.order >= 0), key=lambda jd: jd.xi))
    if any(a.xi == b.xi for a, b in zip(active, active[1:])):
        raise ValueError("discontinuity locations must be pairwise distinct")
    return active


@functools.lru_cache(maxsize=None)
def _factorials(count: int) -> np.ndarray:
    """0!, 1!, ..., (count - 1)! as floats; built once per length and shared read-only."""
    out = np.array([math.factorial(m) for m in range(count)], dtype=float)
    out.flags.writeable = False
    return out


def jump_weights(jump: JumpData, grid: Grid) -> np.ndarray:
    """Per-node jump series g_j: the gap between the two smooth extensions.

    Node j receives sum_m jumps[m] / m! * (x_j - xi)^m, evaluated by Horner
    for stability at higher orders. This is the amount by which the right
    extension of the data exceeds the left one at that node, as implied by
    the enforced jumps; with no jumps enforced it is identically zero.
    """
    _require_interior(jump, grid)
    if jump.order < 0:
        return np.zeros(grid.N + 1)
    d = grid.nodes - jump.xi
    coeff = jump.jumps / _factorials(jump.order + 1)
    g = np.full(grid.N + 1, coeff[-1])
    for c in coeff[-2::-1]:
        g = g * d + c
    return g


def _right_of(x, jumps: tuple[JumpData, ...], side: str = "left") -> np.ndarray:
    """right[k, p]: whether point p lies right of the k-th (sorted) cut.

    A point exactly on a cut counts as left of it for side="left" and right
    of it for side="right". This is the only place that decides on which
    side of a discontinuity a node or probe lies. Cuts are sorted, so each
    column is a run of True over a run of False; its count of True is the
    region of the point, numbered 0..K from the left.
    """
    cuts = np.array([jd.xi for jd in jumps], dtype=float)[:, None]
    return x > cuts if side == "left" else x >= cuts


def _pieces(f, jumps: tuple[JumpData, ...], grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Piece data (row r for region r) and the nodes' side table from _right_of.

    Piece r is f plus the correction c_r, which adds the jump series g_k of
    every cut k separating a node from region r: +g_k when the node lies
    left of the cut and the region right of it, -g_k for the mirrored case,
    and a signed zero otherwise, so a node's own region keeps its datum.
    The sum starts from -0.0, the exact additive identity: no cuts give the
    single piece f bit for bit, and f = -0.0 returns the corrections bit for
    bit.
    """
    right = _right_of(grid.nodes, jumps)
    regions = np.arange(len(jumps) + 1)[:, None]
    pieces = np.full((len(jumps) + 1, grid.N + 1), -0.0)
    for k, jd in enumerate(jumps):
        pieces += np.subtract(regions > k, right[k], dtype=float) * jump_weights(jd, grid)
    pieces += f
    return pieces, right


def reconstruct_pieces(f, jump, grid: Grid) -> tuple[np.ndarray, ...]:
    """Nodal data of the smooth extensions of f, one per region between cuts.

    For a single discontinuity this is (minus, plus): interpolating either
    array with the plain machinery gives the degree-N polynomial valid on
    that side, and the derivative difference plus - minus at xi reproduces
    the enforced jumps and vanishes for orders above the enforced set
    through degree N. K discontinuities (a sequence of JumpData with
    pairwise-distinct locations) give K + 1 arrays ordered left to right;
    entries without jumps are ignored. Every corrected operation is the
    plain one applied to these arrays.
    """
    jumps = _as_jump_tuple(jump, grid)
    return tuple(_pieces(_check_data(f, grid), jumps, grid)[0])


def correction_matrix(jump, grid: Grid) -> np.ndarray:
    """Nodal correction table S[i, j], the correction to datum j at node i.

    Row i is the piece correction of node i's region, i.e. the piece of
    zero data there: +g_j when node i is right of the discontinuity and
    node j left of it, -g_j for the mirrored pair, zero otherwise
    (including the whole diagonal, which preserves collocation).
    """
    jumps = _as_jump_tuple(jump, grid)
    corrections, right = _pieces(-0.0, jumps, grid)
    return corrections[right.sum(axis=0)]


def corrected_interpolate(w: BarycentricWeights, f, jump, x):
    """Evaluate the jump-corrected interpolant of data f at x (scalar or array).

    Each probe evaluates the plain interpolant of its region's piece; a
    probe exactly at a discontinuity averages the two adjacent pieces. jump
    may be a single JumpData or a sequence with pairwise-distinct
    locations. The result collocates f at every node exactly and carries
    the enforced derivative jumps across each discontinuity; with empty
    jump data it is exactly lagrange.interpolate.
    """
    jumps = _as_jump_tuple(jump, w.grid)
    pieces = _pieces(_check_data(f, w.grid), jumps, w.grid)[0]
    xs = np.asarray(x, dtype=float)
    pts = np.atleast_1d(xs)
    region = _right_of(pts, jumps, "left").sum(axis=0)
    vals = _barycentric(w, pts, pieces, region)
    on = _right_of(pts, jumps, "right").sum(axis=0) != region
    if on.any():
        vals[on] = 0.5 * (vals[on] + _barycentric(w, pts[on], pieces, region[on] + 1))
    return float(vals[0]) if xs.ndim == 0 else vals


def corrected_derivative(D: DerivMatrix, f, jump) -> np.ndarray:
    """Apply a derivative matrix to jump-corrected data.

    Row i is the plain matrix row applied to the piece of node i's region,
    which equals differentiating the corrected interpolant at every node.
    For banded composite matrices a row whose stencil stays on one side of
    every discontinuity meets only unchanged data and returns the plain
    matrix-vector product bit for bit.
    """
    jumps = _as_jump_tuple(jump, D.grid)
    pieces, right = _pieces(_check_data(f, D.grid), jumps, D.grid)
    out = D.entries @ pieces[0]
    for k, rows in enumerate(right):
        out = np.where(rows, D.entries @ pieces[k + 1], out)
    return out


def corrected_integrate(rule: QuadRule, f, jump) -> float:
    """Integrate jump-corrected data over the rule's interval.

    The corrected interpolant is piece k on region k, so its integral is the
    plain rule applied to the rightmost piece minus, for every cut, the
    basis integrals from a to the cut applied to that cut's jump series
    (adjacent pieces differ by exactly that series).
    """
    w = barycentric_weights(rule.grid)
    jumps = _as_jump_tuple(jump, rule.grid)
    pieces = _pieces(_check_data(f, rule.grid), jumps, rule.grid)[0]
    total = integrate(rule, pieces[-1])
    for jd in jumps:
        total -= float(basis_integrals(w, rule.grid.a, jd.xi) @ jump_weights(jd, rule.grid))
    return total


def one_sided_derivatives_at_node(grid: Grid, f, node_index: int, jumps) -> tuple[float, float]:
    """Left and right first derivatives at a node carrying a discontinuity.

    Serves the case the general path rejects: the discontinuity sits exactly
    on the interior node node_index, with value, slope and curvature jumps
    supplied as jumps = (J0, J1, J2) and the stored nodal value taken as
    given. Built on the centred 3-point stencil. The returned pair satisfies
    right - left = J1 up to a couple of roundings of the returned values,
    |right - left - J1| <= 2 eps (|left| + |right|).
    """
    f = _check_data(f, grid)
    J = np.asarray(jumps, dtype=float)
    if J.shape != (3,) or not np.all(np.isfinite(J)):
        raise ValueError("need the three jumps (J0, J1, J2) at the node")
    k = int(node_index)
    if not 0 < k < grid.N:
        raise ValueError("discontinuity node must be interior (a centred stencil is required)")
    xm, x0, xp = grid.nodes[k - 1 : k + 2]
    hm = x0 - xm
    hp = xp - x0
    span = hm + hp
    smooth = float(fd_weights(grid.nodes[k - 1 : k + 2], x0, 1) @ f[k - 1 : k + 2])
    shared = (
        smooth
        - 0.5 * J[0] * (1.0 / hm + 1.0 / hp - 2.0 / span)
        - 0.5 * J[2] * hp * hm / span
    )
    left = shared - J[1] * hm / span
    right = shared + J[1] * hp / span
    return left, right
