"""Numerical solver and verification suite for conformal metrics of constant
negative scalar curvature and boundary mean curvature on generalized solid
cones, with the existence/non-existence dichotomy at dim = (n-2)/2 probed by
measured blow-up exponents.

The package's public names are exactly what its modules declare in __all__.
"""

from .elliptic import *
from .geometry import *
from .mesh import *
from .solver import *

__version__ = "0.1.0"
