"""Exact multiplicities, Taylor complexes, and Betti tables of monomial ideals.

Each module's `__all__` is the list of what the package exports.
"""

from .core import *
from .decomposition import *
from .errors import *
from .formulas import *
from .invariants import *
from .oracle import *
from .parsing import *
from .taylor import *

__version__ = "0.1.0"
