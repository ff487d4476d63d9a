"""Nonnegative integer matrix representations of fusion rings (based modules).

A NIM-rep stores one matrix per basis object; ``actions[i][a][b]`` is the
multiplicity of module slot ``a`` inside ``X_i`` acting on slot ``b``, so that
acting is the ordinary matrix-vector product.  The regular NIM-rep of a ring
acts on the ring's own basis through the fusion rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecomposableModuleError, StructuralError
from .rings import (
    ClassificationReport,
    FusionRing,
    ValidationReport,
    Violation,
    _as_int_array,
    _freeze,
    _labels,
    _matmul,
    _record,
    _require_nonzero,
    _row_products,
    _total,
    _vector,
    classify_internal_end,
)

__all__ = [
    "NimRep",
    "regular_nimrep",
    "validate_nimrep",
    "act",
    "is_simple_module_object",
    "module_components",
    "classify_internal_end_nimrep",
    "cross_check_internal_end",
]


@dataclass(frozen=True)
class NimRep:
    """Action matrices of the ring basis on a finite module basis."""

    module_labels: tuple[str, ...]
    actions: np.ndarray

    def __post_init__(self):
        labels = tuple(str(s) for s in self.module_labels)
        if not labels:
            raise StructuralError("module must have positive rank")
        if len(set(labels)) != len(labels):
            raise StructuralError("module labels must be distinct")
        actions = _as_int_array(self.actions, "actions")
        m = len(labels)
        if actions.ndim != 3 or actions.shape[1:] != (m, m):
            raise StructuralError(
                f"actions have shape {actions.shape}, expected (rank, {m}, {m})"
            )
        object.__setattr__(self, "module_labels", labels)
        object.__setattr__(self, "actions", _freeze(actions))

    @property
    def module_rank(self) -> int:
        return len(self.module_labels)

    def vector(self, data) -> np.ndarray:
        """Coerce `data` (module label, index sequence, or vector) to a module vector."""
        return _vector(data, self.module_labels, "module")

    def to_payload(self) -> dict:
        return {
            "module_labels": list(self.module_labels),
            "actions": self.actions.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "NimRep":
        if not isinstance(payload, dict):
            raise StructuralError("NIM-rep data must be a JSON object")
        missing = {"module_labels", "actions"} - set(payload)
        if missing:
            raise StructuralError(f"NIM-rep data missing fields: {sorted(missing)}")
        return cls(module_labels=_labels(payload, "module_labels"), actions=payload["actions"])


def regular_nimrep(ring: FusionRing) -> NimRep:
    """The ring acting on itself; action matrices are the fusion matrices.

    Slices are transposed into the column-acts-on-slot convention so that
    composition reads actions[i] @ actions[j], matching the multiplicativity
    axiom on noncommutative rings as well.  Its based-module laws are ring
    laws: unit_action at (a, b) is validate_ring's unit_left at (b, a), and
    multiplicativity at (i, j, a, b) is associativity at (i, j, b, a) with
    the two sides swapped, so it passes validate_nimrep exactly when the ring
    has no violation of those two.
    """
    return NimRep(module_labels=ring.labels, actions=ring.fusion.transpose(0, 2, 1))


def _check_compatible(ring: FusionRing, nr: NimRep):
    if nr.actions.shape[0] != ring.rank:
        raise StructuralError(
            f"NIM-rep has {nr.actions.shape[0]} action matrices for a rank-{ring.rank} ring"
        )


def validate_nimrep(ring: FusionRing, nr: NimRep, check_dual: bool = False) -> ValidationReport:
    """Check the based-module axioms; dual compatibility only on request.

    Multiplicativity ``A_i A_j = sum_k N_ij^k A_k`` is checked one row ``i``
    at a time: two contractions give the stacked ``(j, a, b)`` arrays of both
    sides, so a rank-r ring on an m-slot module holds O(r·m²) per row.
    Violations are listed in row-major ``(i, j, a, b)`` order.  On the
    regular NIM-rep both laws repeat validate_ring's unit_left and
    associativity checks (see regular_nimrep).  Both sides are exact at any
    multiplicity.
    """
    _check_compatible(ring, nr)
    A = nr.actions
    m = nr.module_rank
    violations: list[Violation] = []

    _record(violations, "unit_action", _matmul(ring.unit, A.transpose(1, 0, 2)), np.eye(m, dtype=np.int64))

    for i, lhs, rhs in _row_products(ring.fusion, A):
        _record(violations, "multiplicativity", lhs, rhs, (i,))

    if check_dual:
        _record(violations, "dual_compatibility", A[list(ring.dual)], A.transpose(0, 2, 1))

    return ValidationReport.from_violations(violations)


def act(ring: FusionRing, nr: NimRep, x, m) -> np.ndarray:
    """Act with the object x on the module vector m."""
    _check_compatible(ring, nr)
    xv = ring.vector(x)
    mv = nr.vector(m)
    return _matmul(xv, _matmul(nr.actions, mv))


def is_simple_module_object(m) -> bool:
    vec = _require_nonzero(_as_int_array(m, "module vector"))
    return _total(vec) == 1


def module_components(nr: NimRep) -> list[list[int]]:
    """Blocks of the module basis under all actions, sorted, by transitive closure.

    Slots are linked by a nonzero entry of any action, either way round; the
    reflexive link matrix is squared until it stops changing (at most
    ceil(log2 m) products), and its distinct rows are the blocks.  A closure
    that links every slot is the single block at once, with no rows to list, as
    for every indecomposable NIM-rep.
    """
    linked = nr.actions.any(axis=0)
    reach = linked | linked.T | np.eye(nr.module_rank, dtype=bool)
    while not reach.all():
        square = reach @ reach
        if np.array_equal(square, reach):
            return [list(block) for block in sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})]
        reach = square
    return [list(range(nr.module_rank))]


def _classify_module_object(nr: NimRep, mv: np.ndarray) -> ClassificationReport:
    """Verdicts for the internal End of a module object, slot-coverage rule.

    A unit module vector e_k has length one, and acting by any object is a sum
    of nonnegative vectors, so e_k is reachable at all if and only if some
    single basis object sends m exactly onto e_k.  Essential surjectivity of
    tensoring against m therefore reduces to covering every slot this way.
    """
    simple = _total(mv) == 1
    covered: dict[int, int] = {}
    for i, image in enumerate(_matmul(nr.actions, mv)):
        if _total(image) == 1:
            covered.setdefault(int(image.argmax()), i)
    missing = [k for k in range(nr.module_rank) if k not in covered]
    essential = not missing
    unreachable = tuple(
        tuple(int(v) for v in np.eye(nr.module_rank, dtype=np.int64)[k]) for k in missing
    )
    witnesses = tuple(sorted((i, k) for k, i in covered.items()))
    return ClassificationReport(
        object_vector=tuple(int(v) for v in mv),
        algebra_form="internal_end_of_module",
        simplistic=simple,
        essential=essential,
        slot_witnesses=witnesses,
        unreachable_targets=unreachable,
    )


def classify_internal_end_nimrep(ring: FusionRing, nr: NimRep, m) -> ClassificationReport:
    """Classify the internal End of the module object m.

    Rejects decomposable NIM-reps: the equivalence between the module
    category and modules over the internal End needs an indecomposable
    module category, and guessing verdicts outside that hypothesis would be
    unfounded.
    """
    _check_compatible(ring, nr)
    mv = _require_nonzero(nr.vector(m))
    components = module_components(nr)
    if len(components) > 1:
        raise DecomposableModuleError(
            f"module basis splits into blocks {components}; classification needs an "
            "indecomposable module"
        )
    return _classify_module_object(nr, mv)


def cross_check_internal_end(ring: FusionRing, x) -> bool:
    """Agreement of the direct classifier and the regular-NIM-rep classifier.

    For the regular module the slot-coverage rule is equivalent to left
    invertibility in any validated ring (reach every slot iff reach the unit),
    so this runs the module core even when a decomposable unit makes the
    regular NIM-rep split into blocks.
    """
    xv = _require_nonzero(ring.vector(x))
    direct = classify_internal_end(ring, xv, side="left")
    module = _classify_module_object(regular_nimrep(ring), xv)
    return (
        direct.simplistic == module.simplistic
        and direct.essential == module.essential
    )
