"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: structural problems (malformed files,
bad shapes, unknown names, zero objects) are distinct from axiom failures
in otherwise well-formed data, which are distinct from blown search budgets.
"""

__all__ = [
    "DivalgError",
    "StructuralError",
    "ZeroObjectError",
    "CatalogError",
    "DecomposableModuleError",
    "DegenerateMonadError",
    "BudgetExceededError",
]


class DivalgError(Exception):
    """Base class for all toolkit errors."""


class StructuralError(DivalgError):
    """Malformed input: bad shapes, non-permutation duals, parse failures.

    Deliberately distinct from axiom violations, which are reported through
    ValidationReport instead of raised.
    """


class ZeroObjectError(DivalgError):
    """A non-zero object or module was required but the zero vector was given."""


class CatalogError(DivalgError):
    """Unknown builtin name or parameter out of the supported range."""


class DecomposableModuleError(DivalgError):
    """The integer module data splits into independent blocks.

    Classifiers that rely on the module category being indecomposable refuse
    such input rather than produce unfounded verdicts.
    """


class DegenerateMonadError(DivalgError):
    """Fewer than two algebra isoclasses exist within the bound.

    Division-algebra verdicts are meaningless for such monads, mirroring the
    exclusion of the zero algebra.
    """


class BudgetExceededError(DivalgError):
    """An enumeration or table construction would exceed the configured budget."""
