"""Jump-corrected interpolation, differentiation and integration.

On each side of a discontinuity at xi with known derivative jumps J_m, the
sampled function is the restriction of a smooth function. The truncated
jump series

    g_j = sum_m J_m / m! * (x_j - xi)^m

is the gap between the two smooth extensions at node j. Adding it to the
data at the nodes left of xi gives the nodal data of the right extension
(plus); subtracting it at the nodes right of xi gives the left extension
(minus). Every corrected operation is the plain one applied to these two
pieces: a probe evaluates the plain interpolant of its side's piece, node
i applies row i of the plain derivative matrix to its own side's piece,
and the integral is the plain quadrature of plus minus the integral of the
jump series left of xi. No
correction is spelled None: the only piece is then the data itself, so the
plain results come back unchanged.

Conventions: a probe exactly at the discontinuity averages the two
pieces, and the discontinuity must lie strictly between nodes. A
discontinuity sitting exactly on a node is served only by
one_sided_derivatives_at_node, because the stored nodal value is otherwise
ambiguous (left limit, right limit or average).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .diffmat import DerivMatrix, apply, fd_weights
from .grid import Grid
from .lagrange import BarycentricWeights, _check_data, barycentric_weights, interpolate
from .quadrature import QuadRule, basis_integrals, integrate

__all__ = [
    "JumpData",
    "jump_weights",
    "correction_matrix",
    "corrected_interpolate",
    "corrected_derivative",
    "corrected_integrate",
    "one_sided_derivatives_at_node",
]


@dataclass(frozen=True)
class JumpData:
    """Location of a discontinuity and the derivative jumps across it.

    jumps[m] is the m-th derivative jump (right limit minus left limit) at
    xi, for m = 0..order: a 1-D array with at least one entry, or a scalar
    for one jump. No correction is spelled None, which every corrected
    operation takes in place of a JumpData and answers with its plain
    Lagrange counterpart.
    """

    xi: float
    jumps: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi):
            raise ValueError("discontinuity location must be finite")
        jumps = np.array(self.jumps, dtype=float, ndmin=1)
        if jumps.ndim != 1:
            raise ValueError(f"derivative jumps must be a scalar or a 1-D array, got shape {jumps.shape}")
        if not jumps.size:
            raise ValueError("need at least one derivative jump; None means no correction")
        if not np.isfinite(jumps).all():
            raise ValueError("derivative jumps must be finite")
        jumps.flags.writeable = False
        object.__setattr__(self, "jumps", jumps)

    @property
    def order(self) -> int:
        """Highest enforced jump order, at least 0."""
        return self.jumps.size - 1


def _require_interior(jump: JumpData, grid: Grid) -> None:
    if not grid.a < jump.xi < grid.b:
        raise ValueError(
            f"discontinuity at {jump.xi} lies outside the open interval ({grid.a}, {grid.b})"
        )
    if (grid.nodes == jump.xi).any():
        raise ValueError(f"discontinuity at {jump.xi} coincides with a grid node")


@functools.lru_cache(maxsize=None)
def _factorials(count: int) -> np.ndarray:
    """0!, 1!, ..., (count - 1)! as floats, inf from 171! on, past the float
    range; built once per length and shared read-only."""
    out = np.array([math.factorial(m) if m <= 170 else math.inf for m in range(count)], dtype=float)
    out.flags.writeable = False
    return out


def jump_weights(jump: JumpData, grid: Grid) -> np.ndarray:
    """Per-node jump series g_j: the gap between the two smooth extensions.

    Node j receives sum_m jumps[m] / m! * (x_j - xi)^m, evaluated by Horner
    for stability at higher orders. This is the amount by which the right
    extension of the data exceeds the left one at that node, as implied by
    the enforced jumps. Orders past 170 contribute nothing: their m! is
    inf in floating point.
    """
    _require_interior(jump, grid)
    d = grid.nodes - jump.xi
    coeff = jump.jumps / _factorials(jump.order + 1)
    g = np.full(grid.N + 1, coeff[-1])
    for c in coeff[-2::-1]:
        g = g * d + c
    return g


def _right_of(x, jump: JumpData) -> np.ndarray:
    """Whether each point of x lies right of the discontinuity; a point
    exactly on it counts as left. This is the only place that decides on
    which side of the discontinuity a node or probe lies."""
    return x > jump.xi


_SIDES = np.array([[0.0], [1.0]])  # less _right_of, the sign of g in minus and in plus


def _pieces(f, g: np.ndarray, jump: JumpData, grid: Grid) -> np.ndarray:
    """The pieces' nodal data as the two rows (minus, plus) of one array.

    g is the jump series, jump_weights(jump, grid). minus is f less g at
    the nodes right of xi, plus is f plus g at the nodes left of it, and
    each adds a signed zero elsewhere, so a node's own side keeps its
    datum. f is added last, so f = -0.0, the exact additive identity,
    returns the corrections bit for bit. The derivative difference of the
    two pieces' interpolants at xi reproduces the enforced jumps and
    vanishes for orders above them through degree N.
    """
    pieces = (_SIDES - _right_of(grid.nodes, jump)) * g
    pieces += f
    return pieces


def correction_matrix(jump: JumpData | None, grid: Grid) -> np.ndarray:
    """Nodal correction table S[i, j], the correction to datum j at node i.

    Row i is the piece correction of node i's side, i.e. the piece of zero
    data there: +g_j when node i is right of the discontinuity and node j
    left of it, -g_j for the mirrored pair, a signed zero otherwise
    (including the whole diagonal, which preserves collocation). None gives
    all -0.0.
    """
    if jump is None:
        return np.full((grid.N + 1, grid.N + 1), -0.0)
    minus, plus = _pieces(-0.0, jump_weights(jump, grid), jump, grid)
    return np.where(_right_of(grid.nodes, jump)[:, None], plus, minus)


def corrected_interpolate(w: BarycentricWeights, f, jump: JumpData | None | list[JumpData | None], x):
    """Evaluate the jump-corrected interpolant of data f at x (scalar or array).

    Each probe evaluates the plain interpolant of its side's piece; a probe
    exactly at the discontinuity averages the two pieces. The result
    collocates f at every node exactly and carries the enforced derivative
    jumps across the discontinuity; with jump None it is lagrange.interpolate.

    jump may also be a list of corrections, each a JumpData or None: the
    result then holds one row per correction, each bit for bit what that
    correction alone gives, and every piece of every correction is
    evaluated by one interpolate call, from one ratio table.
    """
    f = _check_data(f, w.grid)
    corrections = jump if isinstance(jump, list) else [jump]
    pieces = [p for c in corrections for p in ([f] if c is None else _pieces(f, jump_weights(c, w.grid), c, w.grid))]
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    vals = iter(interpolate(w, np.reshape(pieces, (-1, f.size)), pts))
    rows = []
    for jd in corrections:
        row = next(vals)
        if jd is not None:
            minus, plus = row, next(vals)
            row = np.where(_right_of(pts, jd), plus, minus)
            on = pts == jd.xi
            row[on] = 0.5 * (minus[on] + plus[on])
        rows.append(row)
    out = np.reshape(rows, (len(rows),) + np.shape(x))
    out = out if isinstance(jump, list) else out[0]
    return float(out) if out.ndim == 0 else out


def corrected_derivative(D: DerivMatrix, f, jump: JumpData | None) -> np.ndarray:
    """Apply a derivative matrix to jump-corrected data.

    Row i is the plain matrix row applied to the piece of node i's side,
    which equals differentiating the corrected interpolant at every node.
    For banded composite matrices a row whose stencil stays on one side of
    the discontinuity meets only unchanged data and returns the plain
    matrix-vector product bit for bit. With jump None it is diffmat.apply.
    """
    if jump is None:
        return apply(D, f)
    minus, plus = _pieces(_check_data(f, D.grid), jump_weights(jump, D.grid), jump, D.grid)
    return np.where(_right_of(D.grid.nodes, jump), D.entries @ plus, D.entries @ minus)


def corrected_integrate(rule: QuadRule, f, jump: JumpData | None) -> float:
    """Integrate jump-corrected data over the rule's interval.

    The corrected interpolant is minus left of xi and plus right of it, so
    its integral is the plain rule applied to plus less the basis integrals
    from a to xi applied to the jump series g = plus - minus. With jump
    None it is quadrature.integrate.
    """
    if jump is None:
        return integrate(rule, f)
    f = _check_data(f, rule.grid)
    g = jump_weights(jump, rule.grid)
    plus = _pieces(f, g, jump, rule.grid)[1]
    return integrate(rule, plus) - float(basis_integrals(barycentric_weights(rule.grid), rule.grid.a, jump.xi) @ g)


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
    k = operator.index(node_index)
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
