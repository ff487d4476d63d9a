"""Exact integer arithmetic for (multi)fusion rings and division-algebra classifiers.

A fusion ring is stored as its structure tensor ``fusion[i][j][k]``, the
multiplicity of basis object ``k`` inside ``X_i (x) X_j``, together with the
unit vector and the dual involution.  Objects are identified with their
multiplicity vectors over the basis, so isomorphism is vector equality.
All verdict-bearing arithmetic is exact integer arithmetic: every
contraction goes through ``_matmul``, which runs in float64 while the result
stays below 2^53 and in Python ints past it.  The only inexact operation in
this module is the diagnostic Perron eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import StructuralError, ZeroObjectError

__all__ = [
    "FusionRing",
    "Violation",
    "ValidationReport",
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
]

_FLOAT_EXACT = 2**53


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_int_array(data, shape_name: str) -> np.ndarray:
    # object dtype keeps each entry's own type, so 1.7, True and "1" are rejected, never cast; ravel, since
    # arr.flat refuses arrays of more than 32 dimensions
    arr = np.asarray(data, dtype=None if isinstance(data, np.ndarray) else object)
    if arr.dtype.kind not in "iu" and not all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in arr.ravel()
    ):
        raise StructuralError(f"{shape_name} has an entry that is not an integer")
    try:
        arr = arr.astype(np.int64, copy=False)
    except OverflowError:
        raise StructuralError(f"{shape_name} has an entry outside the int64 range") from None
    if arr.size and arr.min() < 0:
        raise StructuralError(f"{shape_name} has negative entries")
    return arr


def _total(vec: np.ndarray) -> int:
    """The sum of an integer vector, in Python ints."""
    return sum(vec.tolist())


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for nonnegative integer arrays, exactly: int64 below 2^53, Python ints otherwise.

    The product runs in float64 first.  Every operand is a nonnegative
    integer, so every product and partial sum is at most the result entry it
    sums into, and IEEE rounding is monotone: a float64 result is below 2^53
    exactly when the true one is, and then every step was an exact integer
    operation.  Otherwise the product is recomputed in Python ints.
    """
    out = a.astype(np.float64) @ b.astype(np.float64)
    if out.max(initial=0) < _FLOAT_EXACT:
        return out.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def _labels(payload: dict, name: str) -> tuple[str, ...]:
    """The `name` field of a JSON payload, which must be an array of strings."""
    labels = payload[name]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise StructuralError(f"{name} must be a JSON array of strings")
    return tuple(labels)


def _vector(data, labels: tuple[str, ...], what: str) -> np.ndarray:
    """Coerce a label of `labels`, or a vector over them, to an int64 multiplicity vector."""
    if isinstance(data, str):
        if data not in labels:
            raise StructuralError(f"unknown {what} label {data!r}")
        data = [int(label == data) for label in labels]
    vec = _as_int_array(data, f"{what} vector")
    if vec.shape != (len(labels),):
        raise StructuralError(f"{what} vector has shape {vec.shape}, expected ({len(labels)},)")
    return vec


@dataclass(frozen=True)
class FusionRing:
    """Skeleton of a (multi)fusion category over a finite simple-object basis."""

    labels: tuple[str, ...]
    unit: np.ndarray
    dual: tuple[int, ...]
    fusion: np.ndarray

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        rank = len(labels)
        if rank == 0:
            raise StructuralError("ring must have positive rank")
        if len(set(labels)) != rank:
            raise StructuralError("labels must be distinct")
        unit = _as_int_array(self.unit, "unit")
        fusion = _as_int_array(self.fusion, "fusion")
        dual = _as_int_array(self.dual, "dual").tolist()
        if unit.shape != (rank,):
            raise StructuralError(f"unit has shape {unit.shape}, expected ({rank},)")
        if fusion.shape != (rank, rank, rank):
            raise StructuralError(
                f"fusion tensor has shape {fusion.shape}, expected ({rank}, {rank}, {rank})"
            )
        if not isinstance(dual, list) or sorted(dual) != list(range(rank)):
            raise StructuralError("dual is not a permutation of the basis")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unit", _freeze(unit))
        object.__setattr__(self, "dual", tuple(dual))
        object.__setattr__(self, "fusion", _freeze(fusion))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def basis(self, i: int) -> np.ndarray:
        vec = np.zeros(self.rank, dtype=np.int64)
        vec[i] = 1
        return vec

    def vector(self, data) -> np.ndarray:
        """Coerce `data` (label, index sequence, or vector) to a multiplicity vector."""
        return _vector(data, self.labels, "object")

    def describe(self, vec: Iterable[int]) -> str:
        """Human-readable name of a multiplicity vector, e.g. '1 ⊔ tau'."""
        parts = []
        for i, mult in enumerate(vec):
            m = int(mult)
            if m == 1:
                parts.append(self.labels[i])
            elif m > 1:
                parts.append(f"{m}·{self.labels[i]}")
        return " ⊔ ".join(parts) if parts else "0"

    def to_payload(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": [int(v) for v in self.unit],
            "dual": list(self.dual),
            "fusion": self.fusion.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FusionRing":
        if not isinstance(payload, dict):
            raise StructuralError("ring data must be a JSON object")
        missing = {"labels", "unit", "dual", "fusion"} - set(payload)
        if missing:
            raise StructuralError(f"ring data missing fields: {sorted(missing)}")
        return cls(
            labels=_labels(payload, "labels"),
            unit=payload["unit"],
            dual=payload["dual"],
            fusion=payload["fusion"],
        )


@dataclass(frozen=True)
class Violation:
    axiom: str
    index: tuple[int, ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "ValidationReport":
        vs = tuple(violations)
        return cls(passed=not vs, violations=vs)

    def to_payload(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"axiom": v.axiom, "index": list(v.index), "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Division-algebra verdicts for an internal End algebra."""

    object_vector: tuple[int, ...]
    algebra_form: str
    simplistic: bool
    essential: bool
    algebra_vector: Optional[tuple[int, ...]] = None
    inverse_witness: Optional[tuple[int, ...]] = None
    slot_witnesses: tuple[tuple[int, int], ...] = field(default=())
    unreachable_targets: tuple[tuple[int, ...], ...] = field(default=())

    def to_payload(self) -> dict:
        return {
            "object": list(self.object_vector),
            "algebra": None if self.algebra_vector is None else list(self.algebra_vector),
            "algebra_form": self.algebra_form,
            "simplistic": self.simplistic,
            "essential": self.essential,
            "witness": None if self.inverse_witness is None else list(self.inverse_witness),
            "slot_witnesses": [list(p) for p in self.slot_witnesses],
            "unreachable": [list(t) for t in self.unreachable_targets],
        }


def _record(
    violations: list[Violation], axiom: str, lhs: np.ndarray, rhs: np.ndarray, prefix: tuple[int, ...] = ()
):
    """Append a Violation for every entry where lhs and rhs differ, in row-major order."""
    for idx in np.argwhere(lhs != rhs):
        key = tuple(int(v) for v in idx)
        violations.append(Violation(axiom, prefix + key, int(lhs[key]), int(rhs[key])))


def _require_nonzero(vec: np.ndarray) -> np.ndarray:
    if not vec.any():
        raise ZeroObjectError("the zero object is excluded here")
    return vec


def _row_products(fusion: np.ndarray, actions: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per row i, both sides of A_i A_j = sum_k N_ij^k A_k as (j, a, b) arrays: O(r·m²) each."""
    flat = actions.reshape(len(actions), -1)
    for i in range(len(fusion)):
        yield i, _matmul(actions[i], actions), _matmul(fusion[i], flat).reshape(actions.shape)


def validate_ring(ring: FusionRing) -> ValidationReport:
    """Check the five axiom families and itemize every violation.

    Associativity is checked as multiplicativity of the regular NIM-rep, one
    row i at a time in O(r³) memory; a violation at (i, j, k, l) compares
    ((X_i X_j) X_k)_l (lhs) with (X_i (X_j X_k))_l (rhs).  Both sides are
    exact at any multiplicity, so a ring that is associative only modulo 2^64
    gets its violation.
    """
    N = ring.fusion
    unit = ring.unit
    dual = np.asarray(ring.dual)
    r = ring.rank
    eye = np.eye(r, dtype=np.int64)
    violations: list[Violation] = []
    _record(violations, "unit_left", _matmul(unit, N.transpose(1, 0, 2)), eye)
    _record(violations, "unit_right", _matmul(unit, N), eye)
    for i, i_jk, ij_k in _row_products(N, N.transpose(0, 2, 1)):
        _record(violations, "associativity", ij_k.transpose(0, 2, 1), i_jk.transpose(0, 2, 1), (i,))
    _record(violations, "duality_pairing", _matmul(N, unit), eye[dual])
    _record(violations, "duality_involution", dual[dual], np.arange(r))
    support = {i for i in range(r) if unit[i]}
    if {dual[i] for i in support} != support:
        violations.append(Violation("duality_unit_support", (), 0, 1))
    _record(violations, "frobenius_left", N, N[dual, :, :].transpose(0, 2, 1))
    _record(violations, "frobenius_right", N, N[:, dual, :].transpose(2, 1, 0))
    _record(violations, "no_zero_fusion_matrix", N.any(axis=(1, 2)), np.ones(r, dtype=bool))
    return ValidationReport.from_violations(violations)


def tensor(ring: FusionRing, x, y) -> np.ndarray:
    """Bilinear extension of the fusion rules: (x (x) y)_k = sum x_i y_j N_ijk."""
    xv = ring.vector(x)
    yv = ring.vector(y)
    return _matmul(_action_matrix(ring, yv, "left"), xv)


def length(x) -> int:
    return _total(_as_int_array(x, "object vector"))


def is_simple(ring: FusionRing, x) -> bool:
    vec = _require_nonzero(ring.vector(x))
    return length(vec) == 1


def dual_object(ring: FusionRing, x) -> np.ndarray:
    vec = ring.vector(x)
    return vec[list(ring.dual)]


def _action_matrix(ring: FusionRing, x: np.ndarray, side: str) -> np.ndarray:
    # column i = e_i tensored against x on the given side
    fusion = ring.fusion if side == "left" else ring.fusion.transpose(1, 0, 2)
    return _matmul(x, fusion).T


def _solve_inverse(ring: FusionRing, matrix: np.ndarray) -> Optional[np.ndarray]:
    """Nonnegative integer y with matrix @ y = unit, in closed form, or None if there is none.

    `matrix` is the action matrix of x on one side, so y is an inverse of x on
    that side.  Terms are nonnegative, so a column j with y_j > 0 fits: it is
    nonzero and lies under the unit.  In a based ring (Etingof, Gelaki,
    Nikshych and Ostrik, *Tensor Categories*, AMS 2015) a fitting column is
    exactly one unit component 1_a, so x is invertible exactly when every
    component is covered by a fitting column, and a solution takes one fitting
    column per component.  The witness takes the highest-index one, which is the
    first solution by least total and then lexicographically.  Witnesses can be
    non-simple, e.g. a decomposable unit is its own inverse.  A ring that breaks
    this precondition, with a zero unit, a unit entry above 1 or a fitting
    column covering two components, raises StructuralError.
    """
    unit = ring.unit
    if unit.max() != 1:
        raise StructuralError("unit is not a sum of distinct simples, so the ring is not based")
    hits = matrix > 0
    fits = hits.any(axis=0) & (matrix <= unit[:, None]).all(axis=0)
    if (hits[:, fits].sum(axis=0) > 1).any():
        raise StructuralError("a column under the unit covers two unit components, so the ring is not based")
    covers = hits[unit > 0] & fits  # covers[c, j]: fitting column j is the c-th unit component
    if not covers.any(axis=1).all():
        return None
    y = np.zeros(ring.rank, dtype=np.int64)
    y[ring.rank - 1 - covers[:, ::-1].argmax(axis=1)] = 1
    return y


def is_left_invertible(ring: FusionRing, x) -> Optional[np.ndarray]:
    """Witness y with y (x) x = unit, or None if no inverse exists.

    Decided in closed form from the left action matrix of x (see _solve_inverse);
    a ring that is not based raises StructuralError.
    """
    vec = _require_nonzero(ring.vector(x))
    return _solve_inverse(ring, _action_matrix(ring, vec, "left"))


def is_right_invertible(ring: FusionRing, x) -> Optional[np.ndarray]:
    """Witness y with x (x) y = unit, or None if no inverse exists.

    Decided in closed form from the right action matrix of x (see _solve_inverse);
    a ring that is not based raises StructuralError.
    """
    vec = _require_nonzero(ring.vector(x))
    return _solve_inverse(ring, _action_matrix(ring, vec, "right"))


def fp_dimension(ring: FusionRing, x) -> float:
    """Perron eigenvalue of the multiplication matrix of x, from a dense eigensolver.

    Diagnostic output only; verdicts never depend on it.  The spectral radius
    is the Perron root even where the matrix of a multifusion object is
    reducible or nilpotent.
    """
    P = _action_matrix(ring, ring.vector(x), "right")
    return float(max(abs(np.linalg.eigvals(P.astype(np.float64)))))


def classify_internal_end(ring: FusionRing, x, side: str = "left") -> ClassificationReport:
    """Classify the endomorphism algebra of x built from x and its dual.

    side='left' classifies x (x) x*, whose essential verdict is left
    invertibility of x; side='right' classifies *x (x) x and right
    invertibility.  Both simplistic flags reduce to simplicity of x.
    """
    if side not in ("left", "right"):
        raise StructuralError(f"side must be 'left' or 'right', got {side!r}")
    vec = _require_nonzero(ring.vector(x))
    # y -> y (x) x is the left matrix and y -> x (x) y the right one: a side's inverse solves its own
    # matrix, and its algebra is the other side's matrix applied to x*
    left, right = _action_matrix(ring, vec, "left"), _action_matrix(ring, vec, "right")
    own, other, form = (left, right, "XtensorXdual") if side == "left" else (right, left, "dualXtensorX")
    algebra = _matmul(other, vec[list(ring.dual)])
    witness = _solve_inverse(ring, own)
    essential = witness is not None
    unreachable: tuple[tuple[int, ...], ...] = ()
    if not essential:
        # no inverse: the unit object lies outside the image of tensoring with x
        unreachable = (tuple(int(v) for v in ring.unit),)
    return ClassificationReport(
        object_vector=tuple(int(v) for v in vec),
        algebra_form=form,
        simplistic=_total(vec) == 1,
        essential=essential,
        algebra_vector=tuple(int(v) for v in algebra),
        inverse_witness=None if witness is None else tuple(int(v) for v in witness),
        unreachable_targets=unreachable,
    )
