"""Builtin fixture rings: worked examples plus negative controls.

Names accepted by :func:`builtin_ring`:

* ``fib`` -- rank 2, golden-ratio rule tau (x) tau = 1 + tau
* ``ising`` -- rank 3, sigma (x) sigma = 1 + eps
* ``rep_s3`` -- character ring of the symmetric group on three letters
* ``vec_cyclic(n)`` -- group ring of Z/n, 1 <= n <= 12
* ``matrix_multifusion(n)`` -- n x n matrix-unit ring with decomposable unit,
  1 <= n <= 3
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .rings import FusionRing, ValidationReport, validate_ring

__all__ = ["CatalogEntry", "builtin_ring", "entries"]

VEC_CYCLIC_MAX = 12
MATRIX_MULTIFUSION_MAX = 3


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ring: FusionRing
    note: str


def _fib() -> FusionRing:
    fusion = np.zeros((2, 2, 2), dtype=np.int64)
    fusion[0, 0, 0] = 1
    fusion[0, 1, 1] = 1
    fusion[1, 0, 1] = 1
    fusion[1, 1, 0] = 1
    fusion[1, 1, 1] = 1
    return FusionRing(labels=("1", "tau"), unit=[1, 0], dual=(0, 1), fusion=fusion)


def _ising() -> FusionRing:
    fusion = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        fusion[0, i, i] = 1
        fusion[i, 0, i] = 1
    fusion[1, 1, 0] = 1  # eps (x) eps = 1
    fusion[1, 2, 2] = 1
    fusion[2, 1, 2] = 1
    fusion[2, 2, 0] = 1  # sigma (x) sigma = 1 + eps
    fusion[2, 2, 1] = 1
    return FusionRing(labels=("1", "eps", "sigma"), unit=[1, 0, 0], dual=(0, 1, 2), fusion=fusion)


def _rep_s3() -> FusionRing:
    fusion = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        fusion[0, i, i] = 1
        fusion[i, 0, i] = 1
    fusion[1, 1, 0] = 1  # sgn (x) sgn = 1
    fusion[1, 2, 2] = 1
    fusion[2, 1, 2] = 1
    fusion[2, 2, 0] = 1  # V (x) V = 1 + sgn + V
    fusion[2, 2, 1] = 1
    fusion[2, 2, 2] = 1
    return FusionRing(labels=("1", "sgn", "V"), unit=[1, 0, 0], dual=(0, 1, 2), fusion=fusion)


def _vec_cyclic(n: int) -> FusionRing:
    fusion = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            fusion[i, j, (i + j) % n] = 1
    unit = [0] * n
    unit[0] = 1
    dual = tuple((-i) % n for i in range(n))
    labels = tuple(f"g{i}" for i in range(n))
    return FusionRing(labels=labels, unit=unit, dual=dual, fusion=fusion)


def _matrix_multifusion(n: int) -> FusionRing:
    index = {(a, b): a * n + b for a in range(n) for b in range(n)}
    rank = n * n
    fusion = np.zeros((rank, rank, rank), dtype=np.int64)
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b == c:
                fusion[i, j, index[(a, d)]] = 1
    unit = [0] * rank
    for a in range(n):
        unit[index[(a, a)]] = 1
    dual = tuple(index[(b, a)] for (a, b), _ in sorted(index.items(), key=lambda kv: kv[1]))
    labels = tuple(f"e{a + 1}{b + 1}" for (a, b), _ in sorted(index.items(), key=lambda kv: kv[1]))
    return FusionRing(labels=labels, unit=unit, dual=dual, fusion=fusion)


# name -> (builder, note), in catalog listing order
_REGISTRY = {
    "fib": (_fib, "rank-2 ring with tau (x) tau = 1 + tau"),
    "ising": (_ising, "rank-3 self-dual ring with sigma (x) sigma = 1 + eps"),
    "rep_s3": (_rep_s3, "character ring of the symmetric group on 3 letters"),
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
def _validated(name: str) -> tuple[FusionRing, ValidationReport]:
    # builtins are immutable, so each is built and validated once per process; the report is kept
    # so that `ring validate --builtin` need not validate again
    ring = _REGISTRY[name][0]()
    report = validate_ring(ring)
    if not report.passed:
        raise AssertionError(f"builtin ring {name} fails validation: {report.violations[:3]}")
    return ring, report


def _builtin(name: str) -> tuple[FusionRing, ValidationReport]:
    """A builtin ring by name, with the report of its one validation."""
    base = name.strip()
    match = _PARAM_RE.match(base)
    if match:  # 'vec_cyclic(03)' names the same ring as 'vec_cyclic(3)'
        base = f"{match.group('family')}({int(match.group('param'))})"
    if base not in _REGISTRY:
        raise CatalogError(f"unknown builtin ring {name!r}; `divalg catalog list` names them all")
    return _validated(base)


def builtin_ring(name: str) -> FusionRing:
    """Return a validated builtin ring by name, e.g. 'fib' or 'vec_cyclic(3)'."""
    return _builtin(name)[0]


def entries() -> tuple[CatalogEntry, ...]:
    """Every builtin ring at every supported parameter, all validated."""
    return tuple(
        CatalogEntry(name, _validated(name)[0], note) for name, (_, note) in _REGISTRY.items()
    )
