"""Builtin fixture rings: worked examples plus negative controls.

Each builtin is its product rule, given to one builder, `_ring`, which sets
N_ij^k = 1 for each k in the rule's product of i and j.  Names accepted by
:func:`builtin_ring`, with their rules:

* ``fib`` -- rank 2: tau (x) tau = 1 + tau
* ``ising`` -- rank 3: eps (x) eps = 1, eps (x) sigma = sigma, sigma (x) sigma = 1 + eps
* ``rep_s3`` -- characters of the symmetric group on three letters, rank 3:
  sgn (x) sgn = 1, sgn (x) V = V, V (x) V = 1 + sgn + V
* ``vec_cyclic(n)`` -- group ring of Z/n, 1 <= n <= 12: g_i (x) g_j = g_(i+j mod n),
  with dual g_(-i)
* ``matrix_multifusion(n)`` -- n x n matrix units, 1 <= n <= 3:
  e_ab (x) e_cd = delta_bc e_ad, with decomposable unit e_11 + ... + e_nn and dual e_ba

In the first three the unit 1 is simple, every simple is self-dual and the
product commutes, so each states only its products of non-unit simples.

The catalog keeps rings, not reports: it builds and validates each builtin
once per process, and a builtin that failed would raise there, so every
builtin :func:`builtin_ring` returns has passed validation.  The command line
reads builtins through :func:`builtin_ring` too.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .rings import FusionRing, validate_ring

__all__ = ["CatalogEntry", "builtin_ring", "entries"]

VEC_CYCLIC_MAX = 12
MATRIX_MULTIFUSION_MAX = 3


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ring: FusionRing
    note: str


def _ring(labels, product, unit, dual) -> FusionRing:
    """The ring on labels with N_ij^k = 1 for each k in product(i, j), else 0; unit lists the simples of 1."""
    rank = len(labels)
    fusion = np.zeros((rank, rank, rank), dtype=np.int64)
    for i, j in itertools.product(range(rank), repeat=2):
        for k in product(i, j):
            fusion[i, j, k] = 1
    return FusionRing(labels=tuple(labels), unit=[int(i in unit) for i in range(rank)], dual=tuple(dual), fusion=fusion)


def _self_dual(labels: str, rules: dict[str, str]) -> FusionRing:
    """The commutative ring on labels with simple unit labels[0] and every simple self-dual.

    rules["a b"] names the simples of a (x) b for non-unit a and b, a listed no later than b.
    """
    labels = labels.split()

    def product(i, j):
        if i == 0 or j == 0:
            return (i + j,)
        return [labels.index(k) for k in rules[f"{labels[min(i, j)]} {labels[max(i, j)]}"].split()]

    return _ring(labels, product, unit=(0,), dual=range(len(labels)))


def _vec_cyclic(n: int) -> FusionRing:
    return _ring([f"g{i}" for i in range(n)], lambda i, j: ((i + j) % n,), unit=(0,), dual=[-i % n for i in range(n)])


def _matrix_multifusion(n: int) -> FusionRing:
    def product(i, j):  # e_ab sits at a * n + b
        (a, b), (c, d) = divmod(i, n), divmod(j, n)
        return (a * n + d,) if b == c else ()

    labels = [f"e{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    dual = [b * n + a for a in range(n) for b in range(n)]
    return _ring(labels, product, unit=[a * n + a for a in range(n)], dual=dual)


# name -> (builder, note), in catalog listing order
_REGISTRY = {
    "fib": (functools.partial(_self_dual, "1 tau", {"tau tau": "1 tau"}), "rank-2 ring with tau (x) tau = 1 + tau"),
    "ising": (
        functools.partial(_self_dual, "1 eps sigma", {"eps eps": "1", "eps sigma": "sigma", "sigma sigma": "1 eps"}),
        "rank-3 self-dual ring with sigma (x) sigma = 1 + eps",
    ),
    "rep_s3": (
        functools.partial(_self_dual, "1 sgn V", {"sgn sgn": "1", "sgn V": "V", "V V": "1 sgn V"}),
        "character ring of the symmetric group on 3 letters",
    ),
    **{
        f"vec_cyclic({n})": (functools.partial(_vec_cyclic, n), f"group ring of Z/{n}")
        for n in range(1, VEC_CYCLIC_MAX + 1)
    },
    **{
        f"matrix_multifusion({n})": (
            functools.partial(_matrix_multifusion, n),
            f"{n}x{n} matrix-unit ring; the unit decomposes into {n} simples",
        )
        for n in range(1, MATRIX_MULTIFUSION_MAX + 1)
    },
}

_PARAM_RE = re.compile(r"^(?P<family>[a-z_0-9]+)\((?P<param>-?\d+)\)$")


@functools.cache
def _validated(name: str) -> FusionRing:
    # builtins are immutable, so each is built and validated once per process, and one that fails raises
    ring = _REGISTRY[name][0]()
    report = validate_ring(ring)
    if not report.passed:
        raise AssertionError(f"builtin ring {name} fails validation: {report.violations[:3]}")
    return ring


def builtin_ring(name: str) -> FusionRing:
    """Return a validated builtin ring by name, e.g. 'fib' or 'vec_cyclic(3)'."""
    base = name.strip()
    match = _PARAM_RE.match(base)
    if match:  # 'vec_cyclic(03)' names the same ring as 'vec_cyclic(3)'
        base = f"{match.group('family')}({int(match.group('param'))})"
    if base not in _REGISTRY:
        raise CatalogError(f"unknown builtin ring {name!r}; `divalg catalog list` names them all")
    return _validated(base)


def entries() -> tuple[CatalogEntry, ...]:
    """Every builtin ring at every supported parameter, all validated."""
    return tuple(
        CatalogEntry(name, _validated(name), note) for name, (_, note) in _REGISTRY.items()
    )
