"""divalg: division-algebra verdicts at the integer skeleton level.

Fusion rings and their based modules are handled through exact integer
tensor arithmetic; finite monads on monoidal categories of finite sets are
handled pointwise through explicit tables.  See the README for the CLI.
"""

__version__ = "0.1.0"

from .catalog import CatalogEntry, builtin_ring, entries
from .errors import (
    BudgetExceededError,
    CatalogError,
    DecomposableModuleError,
    DegenerateMonadError,
    DivalgError,
    StructuralError,
    ZeroObjectError,
)
from .monads import (
    AdjunctionVerdict,
    AlgebraModule,
    CoproductException,
    EmAlgebra,
    FiniteMonad,
    FreeVectorF2,
    MonoidAlgebra,
    StrengthIsoVerdict,
    algebra_from_strength,
    builtin_monad,
    check_adjunction_trivial,
    check_comparison_fully_faithful,
    check_mon_ess_agreement,
    check_strength,
    em_isomorphic,
    enumerate_em_algebras,
    enumerate_modules,
    free_algebra,
    free_module,
    identity_monad,
    is_very_strong,
    maybe_monad,
    module_isomorphic,
    validate_monad,
)
from .nimreps import (
    NimRep,
    act,
    classify_internal_end_nimrep,
    cross_check_internal_end,
    is_simple_module_object,
    module_components,
    regular_nimrep,
    validate_nimrep,
)
from .rings import (
    ClassificationReport,
    FusionRing,
    ValidationReport,
    Violation,
    classify_internal_end,
    dual_object,
    fp_dimension,
    is_left_invertible,
    is_right_invertible,
    is_simple,
    length,
    tensor,
    validate_ring,
)

__all__ = [
    "__version__",
    # rings
    "FusionRing",
    "ValidationReport",
    "Violation",
    "ClassificationReport",
    "validate_ring",
    "tensor",
    "length",
    "is_simple",
    "dual_object",
    "is_left_invertible",
    "is_right_invertible",
    "fp_dimension",
    "classify_internal_end",
    # catalog
    "CatalogEntry",
    "builtin_ring",
    "entries",
    # nimreps
    "NimRep",
    "regular_nimrep",
    "validate_nimrep",
    "act",
    "is_simple_module_object",
    "module_components",
    "classify_internal_end_nimrep",
    "cross_check_internal_end",
    # monads
    "FiniteMonad",
    "CoproductException",
    "FreeVectorF2",
    "maybe_monad",
    "identity_monad",
    "builtin_monad",
    "EmAlgebra",
    "AdjunctionVerdict",
    "StrengthIsoVerdict",
    "MonoidAlgebra",
    "AlgebraModule",
    "validate_monad",
    "enumerate_em_algebras",
    "free_algebra",
    "em_isomorphic",
    "check_adjunction_trivial",
    "check_strength",
    "is_very_strong",
    "algebra_from_strength",
    "enumerate_modules",
    "free_module",
    "module_isomorphic",
    "check_mon_ess_agreement",
    "check_comparison_fully_faithful",
    # errors
    "DivalgError",
    "StructuralError",
    "ZeroObjectError",
    "CatalogError",
    "DecomposableModuleError",
    "DegenerateMonadError",
    "BudgetExceededError",
]
