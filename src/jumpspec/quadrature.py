"""Interpolatory quadrature: integrate the degree-N interpolant exactly."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .lagrange import BarycentricWeights, _check_data, barycentric_weights, basis_matrix

__all__ = ["QuadRule", "quad_weights", "integrate", "basis_integrals"]


@dataclass(frozen=True)
class QuadRule:
    """Weights w_j with sum_j w_j f_j approximating the integral over [a, b]."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.grid.N + 1,):
            raise ValueError(f"weights of shape {weights.shape} do not match the grid's {self.grid.N + 1} nodes")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (numpy's leggauss); built
    once per point count and shared read-only."""
    rule = np.polynomial.legendre.leggauss(npts)
    for a in rule:
        a.flags.writeable = False
    return rule


def basis_integrals(w: BarycentricWeights, lo: float, hi: float) -> np.ndarray:
    """Integrals of every Lagrange basis polynomial over [lo, hi].

    A Gauss-Legendre rule with enough points to be exact for degree N is
    applied to the barycentric-evaluated basis, so no coefficient extraction
    is needed and the result is exact up to rounding for any subinterval.
    """
    N = w.grid.N
    t, gw = _gauss_legendre((N + 2) // 2 + 1)
    mid = 0.5 * (hi + lo)
    halfspan = 0.5 * (hi - lo)
    return halfspan * (gw @ basis_matrix(w, mid + halfspan * t))


def quad_weights(grid: Grid) -> QuadRule:
    """Interpolatory weights w_j = integral of the j-th basis polynomial.

    On 2 or 3 equidistant nodes this reproduces the trapezoidal and Simpson
    weights; on Chebyshev extrema it reproduces Clenshaw-Curtis-type weights.
    """
    w = barycentric_weights(grid)
    return QuadRule(grid, basis_integrals(w, grid.a, grid.b))


def integrate(rule: QuadRule, f) -> float:
    """Weighted sum of nodal values, exact for polynomial data of degree <= N."""
    f = _check_data(f, rule.grid)
    return float(rule.weights @ f)
