"""divalg: division-algebra verdicts at the integer skeleton level.

Fusion rings and their based modules are handled through exact integer
tensor arithmetic; finite monads on monoidal categories of finite sets are
handled pointwise through explicit tables.  See the README for the CLI.
"""

__version__ = "0.1.0"

from . import catalog, errors, monads, nimreps, rings
from .catalog import *
from .errors import *
from .monads import *
from .nimreps import *
from .rings import *

__all__ = ["__version__", *catalog.__all__, *errors.__all__, *monads.__all__, *nimreps.__all__, *rings.__all__]
