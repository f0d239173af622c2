"""Collocation grids: ordered distinct nodes spanning a closed interval."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "equidistant", "chebyshev_gauss_lobatto", "custom"]


@dataclass(frozen=True)
class Grid:
    """Nodes a <= x_0 < x_1 < ... < x_N <= b on the interval [a, b].

    Instances are immutable after construction (the node array is marked
    read-only), so they are safe to share across threads.
    """

    a: float
    b: float
    nodes: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"invalid interval [{self.a}, {self.b}]")
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a grid needs at least two nodes (N >= 1)")
        if not np.all(np.isfinite(nodes)):
            raise ValueError(f"the nodes of the grid on [{self.a}, {self.b}] must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing and distinct")
        if nodes[0] < self.a or nodes[-1] > self.b:
            raise ValueError("grid nodes must lie within [a, b]")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def N(self) -> int:
        """Polynomial degree of the grid: number of nodes minus one."""
        return self.nodes.size - 1


def _check_args(a: float, b: float, N: int) -> None:
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")


def _symmetrize(a: float, b: float, x: np.ndarray) -> None:
    """Pin the endpoints and mirror the lower half onto the upper half.

    Guarantees x[i] + x[N-i] == a + b up to one rounding of a + b, an exact
    midpoint for even N, and endpoint nodes equal to a and b bitwise; the
    exact endpoints matter downstream, where side-of-discontinuity tests
    compare nodes against interval bounds.
    """
    N = x.size - 1
    half = (N + 1) // 2
    x[N - half + 1 :] = (a + b) - x[half - 1 :: -1]
    if N % 2 == 0:
        x[N // 2] = 0.5 * (a + b)
    x[0] = a
    x[N] = b


def equidistant(a: float, b: float, N: int) -> Grid:
    """Uniformly spaced nodes x_i = a + i (b - a) / N."""
    _check_args(a, b, N)
    with np.errstate(all="ignore"):  # Grid rejects the nodes of a span b - a past the float range
        x = a + (b - a) * np.arange(N + 1) / N
        _symmetrize(a, b, x)
    return Grid(a, b, x)


def chebyshev_gauss_lobatto(a: float, b: float, N: int) -> Grid:
    """Chebyshev extrema mapped to [a, b], in ascending order.

    Nodes cluster toward the interval ends, which suppresses the divergence
    of high-degree equidistant interpolation near the boundaries.
    """
    _check_args(a, b, N)
    i = np.arange(N + 1)
    with np.errstate(all="ignore"):  # as in equidistant
        x = 0.5 * (a + b) + 0.5 * (a - b) * np.cos(np.pi * i / N)
        _symmetrize(a, b, x)
    return Grid(a, b, x)


def custom(a: float, b: float, nodes) -> Grid:
    """Wrap caller-supplied nodes, validating the grid invariants."""
    return Grid(float(a), float(b), np.asarray(nodes, dtype=float))
