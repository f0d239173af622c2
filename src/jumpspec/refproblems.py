"""Reference problems with analytically known discontinuity data.

Two families serve as oracles for the correction machinery: a kinked
solution assembled from Legendre functions, continuous but with nonzero
jumps in every derivative at an interior point, and synthetic piecewise
polynomials whose jump vector follows exactly from coefficient differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

# First-kind polynomials P_0..P_5, power-basis coefficients, low order first.
_P_COEFFS = {l: legendre.leg2poly(np.eye(l + 1)[l]) for l in range(MAX_LEGENDRE_DEGREE + 1)}


def _build_w_coeffs() -> dict[int, np.ndarray]:
    # Q_l(x) = P_l(x) atanh(x) - W_l(x) with the polynomial part
    # W_l = sum_{m=1..l} P_{m-1} P_{l-m} / m (empty sum for l = 0).
    W = {0: np.array([0.0])}
    for l in range(1, MAX_LEGENDRE_DEGREE + 1):
        acc = np.array([0.0])
        for m in range(1, l + 1):
            acc = npoly.polyadd(acc, npoly.polymul(_P_COEFFS[m - 1], _P_COEFFS[l - m]) / m)
        W[l] = acc
    return W


_W_COEFFS = _build_w_coeffs()


def _check_degree(l: int) -> None:
    if not 0 <= l <= MAX_LEGENDRE_DEGREE:
        raise ValueError(f"degree {l} unsupported; closed forms cover 0..{MAX_LEGENDRE_DEGREE}")


def _polyval_derivative(coeffs: np.ndarray, x, order: int):
    if order >= coeffs.size:
        return np.zeros_like(np.asarray(x, dtype=float))
    c = npoly.polyder(coeffs, order) if order > 0 else coeffs
    return npoly.polyval(x, c)


_TABLES = {"P": _P_COEFFS, "W": _W_COEFFS}


@functools.lru_cache(maxsize=None)
def _legendre_coeffs(table: str, l: int, order: int) -> np.ndarray:
    """Coefficients of the order-th derivative of P_l (table "P") or W_l
    ("W"), for orders below their length; built once per (table, l, order)
    and shared read-only."""
    coeffs = _TABLES[table][l]
    c = npoly.polyder(coeffs, order) if order > 0 else coeffs.copy()
    c.flags.writeable = False
    return c


def _legendre_derivative(table: str, l: int, x: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivative of P_l or W_l at x; zero past the degree."""
    if order >= _TABLES[table][l].size:
        return np.zeros_like(x)
    return npoly.polyval(x, _legendre_coeffs(table, l, order))


def legendre_P(l: int, x, order: int = 0):
    """Legendre polynomial of the first kind, degrees 0..5, or its order-th derivative."""
    _check_degree(l)
    return _legendre_derivative("P", l, np.asarray(x, dtype=float), order)


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
        P = _legendre_derivative("P", l, x, i)
        total = total + math.comb(order, i) * P * _atanh_derivative(x, order - i)
    return total - _legendre_derivative("W", l, x, order)


def _split_gauss_integral(value, lo: float, hi: float, xi: float, npts: int = 120) -> float:
    """Reference integral of a piecewise-smooth callable, split at xi."""
    t, gw = _gauss_legendre(npts)
    total = 0.0
    cuts = [lo, xi, hi] if lo < xi < hi else [lo, hi]
    for left, right in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        total += half * float(gw @ value(mid + half * t))
    return total


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

    def __post_init__(self) -> None:
        _check_degree(self.l)
        if not -1.0 < self.xi < 1.0:
            raise ValueError("source location must satisfy |xi| < 1")

    def value(self, x):
        return self.derivative(x, 0)

    def derivative(self, x, order: int = 1):
        x = np.asarray(x, dtype=float)
        right = legendre_P(self.l, self.xi) * legendre_Q(self.l, x, order)
        left = legendre_P(self.l, x, order) * legendre_Q(self.l, self.xi)
        th = np.heaviside(x - self.xi, 0.5)
        return th * right + (1.0 - th) * left

    def jump_data(self, order: int) -> JumpData:
        """Derivative jumps through the given order, from the closed forms.

        Raises ValueError naming the first order whose jump is not finite:
        the k-th jump grows like (k - 1)!, and leaves the float range by k = 172.
        """
        P0 = float(legendre_P(self.l, self.xi))
        Q0 = float(legendre_Q(self.l, self.xi))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            J = np.array(
                [
                    P0 * float(legendre_Q(self.l, self.xi, k))
                    - float(legendre_P(self.l, self.xi, k)) * Q0
                    for k in range(order + 1)
                ]
            )
        bad = np.flatnonzero(~np.isfinite(J))
        if bad.size:
            raise ValueError(f"the legendre jump of order {bad[0]} at xi = {self.xi} is not finite; "
                             "use a lower jump order")
        return JumpData(self.xi, J)

    def integral(self, lo: float, hi: float) -> float:
        """Reference integral over [lo, hi], accurate to near machine precision."""
        return _split_gauss_integral(self.value, lo, hi, self.xi)


@dataclass(frozen=True)
class SyntheticPiecewise:
    """Two polynomial pieces glued at xi; exact jumps from the coefficients.

    Coefficient arrays are power-basis, low order first, shared global
    variable (not recentred at xi). The jump vector is the derivative
    difference of the two pieces evaluated at xi.
    """

    left: np.ndarray
    right: np.ndarray
    xi: float

    def __post_init__(self) -> None:
        for name in ("left", "right"):
            c = np.atleast_1d(np.array(getattr(self, name), dtype=float))
            if c.ndim != 1 or not np.all(np.isfinite(c)):
                raise ValueError(f"{name} piece needs a 1-D array of finite coefficients")
            c.flags.writeable = False
            object.__setattr__(self, name, c)
        if not np.isfinite(self.xi):
            raise ValueError("xi must be finite")

    def value(self, x):
        return self.derivative(x, 0)

    def derivative(self, x, order: int = 1):
        x = np.asarray(x, dtype=float)
        right = _polyval_derivative(self.right, x, order)
        left = _polyval_derivative(self.left, x, order)
        th = np.heaviside(x - self.xi, 0.5)
        return th * right + (1.0 - th) * left

    def jump_data(self, order: int | None = None) -> JumpData:
        """Jumps J_m = right^(m)(xi) - left^(m)(xi) through the given order.

        Defaults to the highest degree present, beyond which every jump is
        identically zero.
        """
        if order is None:
            order = max(self.left.size, self.right.size) - 1
        delta = npoly.polysub(self.right, self.left)
        J = np.array([float(_polyval_derivative(delta, self.xi, m)) for m in range(order + 1)])
        return JumpData(self.xi, J)

    def integral(self, lo: float, hi: float) -> float:
        """Exact piecewise integral over [lo, hi]."""
        total = 0.0
        pieces = []
        if lo < self.xi < hi:
            pieces = [(self.left, lo, self.xi), (self.right, self.xi, hi)]
        elif hi <= self.xi:
            pieces = [(self.left, lo, hi)]
        else:
            pieces = [(self.right, lo, hi)]
        for coeffs, left, right in pieces:
            anti = npoly.polyint(coeffs)
            total += float(npoly.polyval(right, anti) - npoly.polyval(left, anti))
        return total
