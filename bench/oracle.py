"""Expected verdicts from theory, computed without importing divalg.

Every answer here follows from the mathematics of the inputs, not from the
code under test:

* The exception monad T(X) = X + S on finite sets: an Eilenberg-Moore
  algebra on a k-element carrier is a map S -> Y up to relabeling Y, so the
  isoclasses at carrier k are the set partitions of S into at most k blocks.
  The free algebra on n has carrier n + |S| with S mapped injectively, so
  every algebra is free iff |S| <= 1, and for |S| >= 2 the one-point
  algebra (carrier 1) is the first counterexample.  Modules over the induced
  monoid on T(0) = S are the same data, so module counts equal EM counts and
  a module is free iff S acts injectively.
* The free F2-vector-space monad: algebras are F2-vector spaces, so the
  carriers are the powers of two and every algebra is free on its dimension.
* Fusion rings: a simple of a Deligne product is invertible iff each factor
  is; in a ring with a simple unit no composite object is simplistic or
  essential.  In the n x n matrix-unit ring a permutation object
  sum_a e_{a, s(a)} is invertible but not simple, a proper partial unit is
  not invertible, and for n >= 2 no simple is invertible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# simples of the named catalog factors that have a tensor inverse
INVERTIBLE_LABELS = {"fib": {"1"}, "ising": {"1", "eps"}, "rep_s3": {"1", "sgn"}}


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Set partitions of an n-set into exactly k nonempty blocks."""
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def partitions_at_most(n: int, k: int) -> int:
    """Set partitions of an n-set into at most k blocks."""
    return sum(stirling2(n, j) for j in range(min(n, k) + 1))


def exception_isoclasses(marks: int, bound: int) -> dict[int, int]:
    """Isoclass count per carrier 0..bound for T(X) = X + S with |S| = marks."""
    counts = {k: partitions_at_most(marks, k) for k in range(bound + 1)}
    return {k: c for k, c in counts.items() if c}


def em_verdict(family: str, marks: int, bound: int) -> dict:
    """Expected `monad check` payload fields.

    `witnesses` maps each free carrier to its generator size.
    """
    if family == "freevec2":
        carriers = [1 << d for d in range(bound.bit_length()) if 1 << d <= bound]
        per_carrier = {c: 1 for c in carriers}
        witnesses = {1 << d: d for d in range(len(carriers))}
        trivial, counterexample = True, None
    else:
        per_carrier = exception_isoclasses(marks, bound)
        witnesses = {c: c - marks for c in range(marks, bound + 1)}
        trivial = marks <= 1
        counterexample = None if trivial else 1
    count = sum(per_carrier.values())
    return {
        "isoclass_count": count,
        "applicable": count >= 2,
        "trivial": trivial,
        "counterexample_carrier": counterexample,
        "witnesses": witnesses,
    }


def strength_algebra(marks: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Carrier, multiplication and unit of the monoid T(0) = S under disjoint union.

    The multiplication S + S -> S folds both copies onto S; the unit is the
    empty map.
    """
    return marks, tuple(range(marks)) * 2, ()


def module_is_free(marks: int, carrier: int, action) -> bool:
    """A module Y + S -> Y of the exception monoid is free iff S acts injectively."""
    return len(set(action[carrier:carrier + marks])) == marks


def freevec2_very_strong_witness(max_size: int):
    """First (x, y) in row-major order where |X x T(Y)| != |T(X x Y)|."""
    for x in range(max_size + 1):
        for y in range(max_size + 1):
            domain, codomain = x * (1 << y), 1 << (x * y)
            if domain != codomain:
                return x, y, domain, codomain
    return None


def factor_invertible(factor: str, label: str) -> bool:
    if factor.startswith("vec_cyclic("):
        return True
    return label in INVERTIBLE_LABELS[factor]


def simple_invertible(factors: tuple[str, ...], parts: tuple[str, ...]) -> bool:
    """Invertibility of the simple with factor labels `parts` in a Deligne product."""
    return all(factor_invertible(f, p) for f, p in zip(factors, parts))


def object_verdict(kind: str, **facts) -> tuple[bool, bool]:
    """Expected (simplistic, essential) for an object described by its construction.

    kind is one of
      'simple'    -- a simple of a Deligne product, facts: factors, parts
      'composite' -- length >= 2 in a ring with simple unit
      'matrix'    -- a simple e_ab of the n x n matrix-unit ring, facts: n
      'permutation', 'partial_unit' -- objects of the matrix-unit ring, facts: n
    """
    if kind == "simple":
        return True, simple_invertible(facts["factors"], facts["parts"])
    if kind == "composite":
        return False, False
    if kind == "matrix":
        return True, facts["n"] == 1
    if kind == "permutation":
        return facts["n"] == 1, True
    if kind == "partial_unit":
        return False, False
    raise ValueError(f"unknown object kind {kind!r}")


CATALOG_NAMES = (
    ("fib", "ising", "rep_s3")
    + tuple(f"vec_cyclic({n})" for n in range(1, 13))
    + tuple(f"matrix_multifusion({n})" for n in range(1, 4))
)


def catalog_param(name: str) -> int:
    return int(name[name.index("(") + 1:-1])


def catalog_rank(name: str) -> int:
    if name == "fib":
        return 2
    if name in ("ising", "rep_s3"):
        return 3
    n = catalog_param(name)
    return n * n if name.startswith("matrix_multifusion(") else n


def tensor(fusion: np.ndarray, x, y) -> np.ndarray:
    """(x (x) y)_k = sum_ij x_i y_j N_ijk, in Python integers."""
    rank = fusion.shape[0]
    out = [0] * rank
    for i in range(rank):
        if not x[i]:
            continue
        for j in range(rank):
            if y[j]:
                coeff = int(x[i]) * int(y[j])
                for k in np.flatnonzero(fusion[i, j]):
                    out[k] += coeff * int(fusion[i, j, k])
    return np.array(out, dtype=object)
