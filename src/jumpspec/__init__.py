"""Jump-corrected interpolation, differentiation and quadrature.

High-order polynomial collocation loses its accuracy on functions with a
jump discontinuity. When the discontinuity's location and derivative jumps
are known, the jump series turns the nodal data into the smooth extension
on each side of it, and the plain interpolant, derivative matrices and
quadrature weights apply unchanged to those pieces; a moving discontinuity
costs only a reevaluation of the jump series per step.
"""

from . import diffmat, grid, jumps, lagrange, mol, quadrature, refproblems
from .diffmat import *
from .grid import *
from .jumps import *
from .lagrange import *
from .mol import *
from .quadrature import *
from .refproblems import *

__version__ = "0.1.0"

__all__ = [name for module in (grid, lagrange, diffmat, quadrature, jumps, refproblems, mol)
           for name in module.__all__]
