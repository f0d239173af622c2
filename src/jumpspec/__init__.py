"""Jump-corrected interpolation, differentiation and quadrature.

High-order polynomial collocation loses its accuracy on functions with a
jump discontinuity. When the discontinuity's location and derivative jumps
are known, the jump series turns the nodal data into the smooth extension
on each side of it, and the plain interpolant, derivative matrices and
quadrature weights apply unchanged to those pieces; a moving discontinuity
costs only a reevaluation of the jump series per step.
"""

from .diffmat import DerivMatrix, apply, derivative_matrix, fd_weights, negative_sum_trick
from .grid import Grid, chebyshev_gauss_lobatto, custom, equidistant
from .jumps import (
    JumpData,
    XiOnNodeError,
    corrected_derivative,
    corrected_integrate,
    corrected_interpolate,
    correction_matrix,
    jump_weights,
    one_sided_derivatives_at_node,
    reconstruct_pieces,
)
from .lagrange import BarycentricWeights, barycentric_weights, basis_matrix, interpolate
from .mol import AdvectionProblem, EvolutionResult, evolve, rk4_step
from .quadrature import QuadRule, basis_integrals, integrate, quad_weights
from .refproblems import (
    LegendreProblem,
    SyntheticPiecewise,
    legendre_P,
    legendre_P_derivative,
    legendre_Q,
    legendre_Q_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "equidistant",
    "chebyshev_gauss_lobatto",
    "custom",
    "BarycentricWeights",
    "barycentric_weights",
    "basis_matrix",
    "interpolate",
    "DerivMatrix",
    "fd_weights",
    "derivative_matrix",
    "negative_sum_trick",
    "apply",
    "QuadRule",
    "quad_weights",
    "integrate",
    "basis_integrals",
    "JumpData",
    "XiOnNodeError",
    "jump_weights",
    "correction_matrix",
    "reconstruct_pieces",
    "corrected_interpolate",
    "corrected_derivative",
    "corrected_integrate",
    "one_sided_derivatives_at_node",
    "LegendreProblem",
    "SyntheticPiecewise",
    "legendre_P",
    "legendre_P_derivative",
    "legendre_Q",
    "legendre_Q_derivative",
    "AdvectionProblem",
    "EvolutionResult",
    "rk4_step",
    "evolve",
]
