"""Reference problems with analytically known discontinuity data.

Two families serve as oracles for the correction machinery: a kinked
solution assembled from Legendre functions, continuous but with nonzero
jumps in every derivative at an interior point, and synthetic piecewise
polynomials whose jump vector follows exactly from coefficient differences.
Each is two analytic pieces glued at xi: a problem supplies its pieces
(`_piece`), and one glue, one split of an interval at xi and one jump check
serve both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .jumps import JumpData
from .quadrature import _gauss_legendre

__all__ = [
    "MAX_LEGENDRE_DEGREE",
    "legendre_P",
    "legendre_Q",
    "LegendreProblem",
    "SyntheticPiecewise",
]

MAX_LEGENDRE_DEGREE = 5


def _derivative_table(coeffs) -> tuple[np.ndarray, ...]:
    """Read-only power-basis coefficients, low order first, of a polynomial
    (entry 0) and of its k-th derivative (entry k), up to its degree; each
    entry is bit for bit what npoly.polyder returns."""
    table = [np.array(coeffs, dtype=float)]
    for n in range(table[0].size - 1, 0, -1):
        table.append(np.arange(1, n + 1) * table[-1][1:])
    for c in table:
        c.flags.writeable = False
    return tuple(table)


def _polyval(table, x, order: int):
    """The order-th derivative at x of a tabled polynomial; zero past the degree."""
    if order >= len(table):
        return np.zeros_like(x)
    return npoly.polyval(x, table[order])


# First-kind polynomials P_0..P_5, then the polynomial part of
# Q_l(x) = P_l(x) atanh(x) - W_l(x): W_l = sum_{m=1..l} P_{m-1} P_{l-m} / m
# (empty sum for l = 0).
_P = [_derivative_table(legendre.leg2poly(np.eye(l + 1)[l])) for l in range(MAX_LEGENDRE_DEGREE + 1)]


def _w_coeffs(l: int) -> np.ndarray:
    acc = np.array([0.0])
    for m in range(1, l + 1):
        acc = npoly.polyadd(acc, npoly.polymul(_P[m - 1][0], _P[l - m][0]) / m)
    return acc


_W = [_derivative_table(_w_coeffs(l)) for l in range(MAX_LEGENDRE_DEGREE + 1)]


def _check_degree(l: int) -> None:
    if not 0 <= l <= MAX_LEGENDRE_DEGREE:
        raise ValueError(f"degree {l} unsupported; closed forms cover 0..{MAX_LEGENDRE_DEGREE}")


def legendre_P(l: int, x, order: int = 0):
    """Legendre polynomial of the first kind, degrees 0..5, or its order-th derivative."""
    _check_degree(l)
    return _polyval(_P[l], np.asarray(x, dtype=float), order)


def _atanh_derivative(x, order: int):
    # d^k/dx^k atanh(x) = (k-1)!/2 * ((-1)^(k-1) (1+x)^-k + (1-x)^-k)
    if order == 0:
        return np.arctanh(x)
    sign = 1.0 if order % 2 == 1 else -1.0
    # (order - 1)! is past the float range from order 172 on
    lead = 0.5 * math.factorial(order - 1) if order <= 171 else math.inf
    return lead * (sign / (1.0 + x) ** order + 1.0 / (1.0 - x) ** order)


def legendre_Q(l: int, x, order: int = 0):
    """Legendre function of the second kind on (-1, 1), degrees 0..5, or its
    order-th derivative, any order >= 0.

    Closed form P_l(x) atanh(x) minus a degree l-1 polynomial; the
    logarithmic endpoint singularities restrict evaluation to |x| < 1.
    Derivatives differentiate this form via the Leibniz rule, so high
    orders stay exact up to rounding (no recurrence through the
    differential equation, which keeps consistency checks against that
    equation meaningful).
    """
    _check_degree(l)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("second-kind Legendre values require |x| < 1")
    total = np.zeros_like(x)
    for i in range(0, min(order, l) + 1):
        P = _polyval(_P[l], x, i)
        total = total + math.comb(order, i) * P * _atanh_derivative(x, order - i)
    return total - _polyval(_W[l], x, order)


def _glue(problem, x, order: int):
    """The order-th derivative of a problem's right piece right of xi and of
    its left piece left of it, their mean at xi; a ValueError names the
    first point where it is not finite. Each side reads its own piece only,
    so a piece that overflows leaves the other side's values finite."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        right, left = problem._piece(True, x, order), problem._piece(False, x, order)
        out = np.where(x > problem.xi, right, np.where(x < problem.xi, left, 0.5 * right + 0.5 * left))
    bad = x[~np.isfinite(out)]
    if bad.size:
        raise ValueError(f"the {problem.name} derivative of order {order} at x = {bad[0]} is not finite")
    return out


def _split_integral(problem, lo: float, hi: float, integrate) -> float:
    """Sum of integrate(right, a, b) over the parts [a, b] of [lo, hi] on
    each side of xi; right tells which piece the part lies under. A
    ValueError says when the sum is not finite."""
    xi = problem.xi
    parts = [(False, lo, xi), (True, xi, hi)] if lo < xi < hi else [(hi > xi, lo, hi)]
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(integrate(*part) for part in parts)
    if not math.isfinite(total):
        raise ValueError(f"the {problem.name} reference integral over [{lo}, {hi}] is not finite")
    return total


def _checked_jumps(problem, order: int, jump) -> JumpData:
    """JumpData of the jumps jump(k), k = 0..order; a ValueError names the
    first order whose jump is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        J = np.array([float(jump(k)) for k in range(order + 1)])
    bad = np.flatnonzero(~np.isfinite(J))
    if bad.size:
        raise ValueError(f"the {problem.name} jump of order {bad[0]} at xi = {problem.xi} is not finite; "
                         "use a lower jump order")
    return JumpData(problem.xi, J)


@dataclass(frozen=True)
class LegendreProblem:
    """Kinked reference solution built from Legendre functions.

    Glues P_l(xi) Q_l(x) right of xi to P_l(x) Q_l(xi) left of it: the
    result is continuous at xi with analytically known jumps in every
    derivative (the first being the Wronskian value 1/(1 - xi^2) scaled by
    normalization), which makes it a complete oracle for the correction
    machinery. Evaluate only on closed subintervals of (-1, 1).
    """

    l: int
    xi: float
    name = "legendre"

    def __post_init__(self) -> None:
        _check_degree(self.l)
        if not -1.0 < self.xi < 1.0:
            raise ValueError("source location must satisfy |xi| < 1")

    def _piece(self, right: bool, x, order: int):
        if right:
            return legendre_P(self.l, self.xi) * legendre_Q(self.l, x, order)
        return legendre_P(self.l, x, order) * legendre_Q(self.l, self.xi)

    def value(self, x):
        return self.derivative(x, 0)

    def derivative(self, x, order: int = 1):
        return _glue(self, x, order)

    def jump_data(self, order: int) -> JumpData:
        """Derivative jumps through the given order, from the closed forms.

        Raises ValueError naming the first order whose jump is not finite:
        the k-th jump grows like (k - 1)!, and leaves the float range by k = 172.
        """
        P0, Q0 = legendre_P(self.l, self.xi), legendre_Q(self.l, self.xi)
        return _checked_jumps(self, order, lambda k: P0 * legendre_Q(self.l, self.xi, k)
                              - legendre_P(self.l, self.xi, k) * Q0)

    def integral(self, lo: float, hi: float) -> float:
        """Reference integral over [lo, hi], accurate to near machine
        precision: 120-point Gauss-Legendre on each side of xi."""
        t, gw = _gauss_legendre(120)

        def gauss(right, a, b):
            half = 0.5 * (b - a)
            return half * float(gw @ self._piece(right, 0.5 * (a + b) + half * t, 0))

        return _split_integral(self, lo, hi, gauss)


@dataclass(frozen=True)
class SyntheticPiecewise:
    """Two polynomial pieces glued at xi; exact jumps from the coefficients.

    Coefficient arrays are power-basis, low order first, shared global
    variable (not recentred at xi), and nonempty. The jump vector is the
    derivative difference of the two pieces evaluated at xi.
    """

    left: np.ndarray
    right: np.ndarray
    xi: float
    # derivative tables of the left piece, the right piece (so _piece's right
    # flag indexes its side) and right - left
    _tables: tuple = field(init=False, repr=False, compare=False)
    name = "synthetic"

    def __post_init__(self) -> None:
        for side in ("left", "right"):
            c = np.atleast_1d(np.array(getattr(self, side), dtype=float))
            if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
                raise ValueError(f"{side} piece needs a nonempty 1-D array of finite coefficients")
            c.flags.writeable = False
            object.__setattr__(self, side, c)
        if not np.isfinite(self.xi):
            raise ValueError("xi must be finite")
        # an infinite coefficient difference or derivative coefficient is
        # reported by jump_data or _glue where it is used
        with np.errstate(over="ignore"):
            delta = npoly.polysub(self.right, self.left)
            tables = tuple(_derivative_table(c) for c in (self.left, self.right, delta))
        object.__setattr__(self, "_tables", tables)

    def _piece(self, right: bool, x, order: int):
        return _polyval(self._tables[right], x, order)

    def value(self, x):
        return self.derivative(x, 0)

    def derivative(self, x, order: int = 1):
        return _glue(self, x, order)

    def jump_data(self, order: int) -> JumpData:
        """Jumps J_m = right^(m)(xi) - left^(m)(xi) through the given order,
        from the coefficient difference of the pieces.

        Raises ValueError naming the first order whose jump is not finite.
        """
        return _checked_jumps(self, order, lambda m: _polyval(self._tables[2], self.xi, m))

    def integral(self, lo: float, hi: float) -> float:
        """Exact piecewise integral over [lo, hi], from each piece's antiderivative."""

        def exact(right, a, b):
            anti = npoly.polyint(self._tables[right][0])
            return float(npoly.polyval(b, anti) - npoly.polyval(a, anti))

        return _split_integral(self, lo, hi, exact)
