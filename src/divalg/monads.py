"""Pointwise-computable monads on monoidal categories of finite sets.

Objects are finite ordinals ``0..n-1`` and morphisms are tuples of image
positions, so both ambient monoidal structures are strict: disjoint union
concatenates blocks (right block offset by the left size) and cartesian
product uses row-major indexing.  Every monad is given as a Kleisli triple:
its object map, its unit and one point evaluator `bind_at`, which computes
f*(p) = mu_dst(T(f)(p)) for f: X -> T(dst) without building a table, plus an
optional left strength table.  The tables of T(f) = (eta . f)* and of
mu = id* are derived from `bind`, the table of f*, which a monad may give
itself, as freevec2 does.  The EM law is a function of the carrier Y and
the structure table alone: it builds the mu_Y table it reads, is answered
once per monad object, and at the free algebra (T(n), mu_n) is monad
associativity at n.  It and each relabeling step compare or build composed
whole tables.
Tuples are composed by one C-level gather, `compose`; a monad may give its
tables as int64 arrays instead, as freevec2 does, and the EM law then gathers
both of its sides by numpy fancy indexing and compares them in numpy.  The
ambients' tensor of morphisms, `tensor_mor`, is a C-level map, and a table
after id_X (x) g, the left side of three strength axioms, is gathered by the
ambient's `whisker` without building id_X (x) g.  Every
table that leaves the module is a tuple of Python ints.  The unit laws, the
EM fill, the strength_iii right side, the algebra-morphism search and the
comparison check read single entries of mu, T(f) and their composite f* only
through `bind_at`, at the points they quantify over.  Structure maps, module
actions and algebra morphisms are all listed by one backtracking search, `_backtrack`,
which knows no law: each caller passes the values an entry may take and its
own check.  Every monad has one structure-map fill,
`FiniteMonad.em_structure_candidates`, which checks the EM law at the points
of support 1 and 2 and so needs no theory of the monad's algebras.  The two
routes that check each other state their relabeling move and law once per
carrier: `_em_route` through the monad's evaluators, `_module_route` through
the tables of the algebra T(1), and neither reads the other's.  All
verdicts quantify over carriers up to a stated bound; table sizes, points
evaluated and search leaves are held under the budget each call is given.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    DegenerateMonadError,
    StructuralError,
)
from .rings import ValidationReport, Violation

__all__ = [
    "DisjointUnion",
    "CartesianProduct",
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
]

DEFAULT_BUDGET = 2_000_000

BOUNDED_NOTE = "verdict quantifies over algebras with carrier size <= bound only"


def _guard(size: int, budget: int, what: str):
    if size > budget:
        raise BudgetExceededError(f"{what} needs {size} entries, budget is {budget}")


def _table_size(monad: FiniteMonad, n: int, budget: int) -> int:
    """|T(n)|, or n itself when n is past the budget.

    Every n given here is a size |T(m)|, and for a lawful monad
    |T(T(m))| >= |T(m)| since mu splits eta at T(m), so T(n) is then past the
    budget too; sizing it could take a number of 2^n bits (freevec2).
    """
    return n if n > budget else monad.t_size(n)


def _backtrack(size: int, choices, holds, budget: int, what: str) -> Iterator[tuple[int, ...]]:
    """Every table t of length size with each t[i] in choices(t, i) and holds(t, i) true, depth first.

    Entries are filled in index order; choices(t, i) is a sequence that may
    read t[:i], and holds(t, i) may read t[:i + 1].  Tables come in the
    lexicographic order of the choices.  Every leaf below the root counts
    against the budget: a value that completes the table, one that holds
    rejects, and one that leaves the next entry with no choice.  For a fill
    with no law that is the number of tables.
    """
    if not size:
        yield ()
        return
    t = [0] * size
    last = size - 1
    leaves = 0
    stack = [iter(choices(t, 0))]  # stack[i]: the values left to try at entry i
    while stack:
        i = len(stack) - 1
        for value in stack[i]:
            t[i] = value
            kept = holds(t, i)
            if kept and i < last:
                following = choices(t, i + 1)
                if following:
                    stack.append(iter(following))
                    break
            leaves += 1
            if leaves > budget:
                _guard(leaves, budget, what)
            if kept and i == last:
                yield tuple(t)
        else:
            stack.pop()


def _unit_fills(size: int, unit, carrier: int, budget: int, what: str, holds=None) -> Iterator[tuple[int, ...]]:
    """Every table of size values below carrier with table[unit[x]] = x for each x and holds(t, i), lexicographically."""
    allowed: list = [range(carrier)] * size
    for x, p in enumerate(unit):
        allowed[p] = [x] if x in allowed[p] else []
    return _backtrack(size, lambda t, i: allowed[i], holds or (lambda t, i: True), budget, what)


def _mismatches(axiom: str, key: tuple[int, ...], lhs, rhs) -> list[Violation]:
    """A Violation at key + (p,) for every position p where the tables lhs and rhs differ."""
    if lhs == rhs:
        return []
    return [Violation(axiom, key + (p,), a, b) for p, (a, b) in enumerate(zip(lhs, rhs, strict=True)) if a != b]


def identity_table(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _ints(table) -> tuple[int, ...]:
    """table as a tuple, of Python ints when it is a numpy array: the form in which every table leaves the module."""
    return tuple(table.tolist()) if isinstance(table, np.ndarray) else tuple(table)


def compose(g, f) -> tuple[int, ...]:
    """Table of g after f, gathered in one C-level call, `operator.itemgetter(*f)(g)`.

    itemgetter of fewer than two indices does not return a tuple, so such an
    f is read one index at a time.
    """
    if len(f) < 2:
        return tuple(g[v] for v in f)
    return operator.itemgetter(*f)(g)


class DisjointUnion:
    """(FinSet, disjoint union, empty set) on ordinals via block concatenation."""

    kind = "disjoint_union"
    unit_size = 0

    @staticmethod
    def tensor(a: int, b: int) -> int:
        return a + b

    @staticmethod
    def tensor_mor(f, g, a_dst: int, b_dst: int) -> tuple[int, ...]:
        return tuple(f) + tuple(map(operator.add, itertools.repeat(a_dst), g))

    @staticmethod
    def whisker(table, x: int, g, b_dst: int) -> tuple[int, ...]:
        """The tuple table after id_x (x) g, without building id_x (x) g.

        Its first x entries, then the rest gathered by g.
        """
        return table[:x] + compose(table[x:], g)


class CartesianProduct:
    """(FinSet, cartesian product, singleton) on ordinals via row-major pairs."""

    kind = "cartesian_product"
    unit_size = 1

    @staticmethod
    def tensor(a: int, b: int) -> int:
        return a * b

    @staticmethod
    def tensor_mor(f, g, a_dst: int, b_dst: int) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(map(operator.add, itertools.repeat(v * b_dst), g) for v in f))

    @staticmethod
    def whisker(table, x: int, g, b_dst: int) -> tuple[int, ...]:
        """The tuple table after id_x (x) g, without building id_x (x) g.

        Each of its x rows of b_dst entries, gathered by g.
        """
        return tuple(itertools.chain.from_iterable(compose(table[a * b_dst:(a + 1) * b_dst], g) for a in range(x)))


class FiniteMonad:
    """Base class: a monad on finite ordinals given as a Kleisli triple (T, eta, (-)*).

    A subclass supplies t_size, the eta table, the point evaluator bind_at,
    which computes f*(p) = mu_dst(T(f)(p)) for f: X -> T(dst) without
    building a table, and the theta table when it has a strength.  The
    tables follow from bind_at: bind(f, dst) is the table of f*, which a
    subclass may give faster, T(f) = (eta . f)* and mu = id*.  The laws read
    single entries of mu, T(f) and f* only through bind_at.
    """

    name: str
    ambient = DisjointUnion

    def t_size(self, n: int) -> int:
        raise NotImplementedError

    def eta(self, n: int) -> tuple[int, ...]:
        raise NotImplementedError

    def bind_at(self, f, dst: int, p: int) -> int:
        """f*(p) = mu_dst(T(f)(p)) for f: X -> T(dst) and p in T(X)."""
        raise NotImplementedError

    def bind(self, f, dst: int) -> tuple[int, ...]:
        """The table of f*: T(X) -> T(dst) for f: X -> T(dst)."""
        return tuple(self.bind_at(f, dst, p) for p in range(self.t_size(len(f))))

    def t_mor(self, f, dst: int) -> tuple[int, ...]:
        """The table of T(f): T(X) -> T(dst) for f: X -> dst."""
        return self.bind(compose(self.eta(dst), f), dst)

    def mu(self, n: int) -> tuple[int, ...]:
        """The table of mu_n: T(T(n)) -> T(n)."""
        return self.bind(range(self.t_size(n)), n)

    def theta(self, x: int, y: int) -> tuple[int, ...]:
        raise StructuralError(f"monad {self.name} provides no strength")

    @functools.cached_property
    def _law_shapes(self) -> list[tuple[int, int, bool]]:
        """(k, q, symmetric) for each q in T(k), k = 1, 2, in no image of T(g) for g: k - 1 -> k.

        Those are the points of exact support k, as T is a functor; the unit point of T(1) is left out.
        symmetric: T of the swap of 2 fixes q, so the maps h with one image give one point.
        """
        shapes, swap = [], _ints(self.t_mor((1, 0), 2))
        for k in (1, 2):
            lower = {p for g in itertools.product(range(k), repeat=k - 1) for p in self.t_mor(g, k)}
            shapes += [(k, q, k == 1 or swap[q] == q) for q in range(self.t_size(k))
                       if q not in lower and (k, q) != (1, self.eta(1)[0])]
        return shapes

    @functools.cached_property
    def _em_law_verdicts(self) -> dict[tuple[int, tuple[int, ...]], bool]:
        return {}  # (carrier, structure) -> the verdict of _em_law_holds on this monad object

    def _em_law_sides(self, carrier: int, structure):
        """s . T(s) and s . mu_Y on all of T(T(Y)), for Y = carrier and s = structure; mu_Y is built here.

        Where the monad gives T(s) or mu_Y as an int64 array, both sides are
        int64 arrays gathered by fancy indexing; every entry is a position of
        T(Y), and |T(Y)| <= |T(T(Y))| is within the budget, so they are exact.
        Tables given as tuples are gathered by `compose`.
        """
        t_s, mu_y = self.t_mor(structure, carrier), self.mu(carrier)
        if isinstance(t_s, np.ndarray) or isinstance(mu_y, np.ndarray):
            s = np.asarray(structure, dtype=np.int64)
            return s[np.asarray(t_s, dtype=np.int64)], s[np.asarray(mu_y, dtype=np.int64)]
        return compose(structure, t_s), compose(structure, mu_y)

    def _em_law_holds(self, carrier: int, structure) -> bool:
        """Whether the EM law's two `_em_law_sides` agree, computed once per monad object.

        At s = mu_n on Y = T(n) it is associativity at n, so validate_monad and the EM enumeration share it.
        The sides are dropped, but each verdict is kept under its (carrier, structure) key, which holds the
        whole structure table: at the free algebras that is mu_n, so validate_monad(maybe, N) keeps O(N^2)
        entries on the monad object.
        """
        key = (carrier, _ints(structure))
        if key not in self._em_law_verdicts:
            lhs, rhs = self._em_law_sides(carrier, structure)
            self._em_law_verdicts[key] = np.array_equal(lhs, rhs) if isinstance(lhs, np.ndarray) else lhs == rhs
        return self._em_law_verdicts[key]

    def em_structure_candidates(self, carrier: int, budget: int) -> Iterator[tuple[int, ...]]:
        """Every unit-compatible structure table s with s(T(s)(P)) = s(mu(P)) at the points P of support 1 and 2.

        P = T(h)(q) for h: k -> T(Y) injective and q of exact support k in
        T(k), k = 1, 2 (`_law_shapes`); at the other points of support <= 2
        the unit laws imply the law.  T(s)(P) = T(s . h)(q) reads s at h and
        lands on a position of support <= 2, so those positions are filled
        first, each group in index order, and a point is checked at the step
        that sets the last entry it reads.  freevec2's points are the pairs
        of masks, whose law is addition; maybe, identity and exception have
        none and get every unit-compatible table.  Survivors still get the
        full axiom check by the enumerator.
        """
        what = f"structure-map enumeration at carrier {carrier}"
        tsize, eta, shapes = self.t_size(carrier), self.eta(carrier), self._law_shapes
        if not shapes:
            return _unit_fills(tsize, eta, carrier, budget, what)
        points = sum((math.comb if symmetric else math.perm)(tsize, k) for k, _, symmetric in shapes)
        _guard(points, budget, f"EM law points at carrier {carrier}")
        # the T(g) tables of the maps g: k -> Y, k <= 2, whose images are the positions of support <= 2
        maps = [g for k in range(3) for g in itertools.product(range(carrier), repeat=k)]
        t_maps = {g: _ints(self.t_mor(g, carrier)) for g in maps}
        low = {p for table in t_maps.values() for p in table}
        order = sorted(range(tsize), key=lambda p: p not in low)
        rank = sorted(range(tsize), key=order.__getitem__)  # the step that fills each position
        # lands[k, q][a * carrier + b]: the step of T(g)(q) for g = (a, b)[:k]
        lands = {(k, q): [rank[t_maps[(a, b)[:k]][q]] for a in range(carrier) for b in range(carrier)]
                 for k, q, _ in shapes}
        ready: list[list] = [[] for _ in order]  # ready[i]: the points whose fixed reads are all set at step i
        waiting: list[list] = [[] for _ in order]  # waiting[i]: the points whose T(s)(P) may be set at step i
        for k, q, symmetric in shapes:
            land = lands[k, q]
            targets = sorted(set(land))
            for h in (itertools.combinations if symmetric else itertools.permutations)(range(tsize), k):
                a, b, m = rank[h[0]], rank[h[-1]], rank[self.bind_at(h, carrier, q)]
                last = max(a, b, m)
                ready[last].append((a, b, land, m))
                for i in targets[bisect.bisect_right(targets, last):]:
                    waiting[i].append((a, b, land, m))

        def holds(t: list[int], i: int) -> bool:
            for a, b, land, m in ready[i]:
                r = land[t[a] * carrier + t[b]]
                if r <= i and t[r] != t[m]:
                    return False
            for a, b, land, m in waiting[i]:
                if land[t[a] * carrier + t[b]] == i and t[i] != t[m]:
                    return False
            return True

        # in fill order, the unit puts x at step rank[eta[x]]
        return (compose(t, rank) for t in _unit_fills(tsize, compose(rank, eta), carrier, budget, what, holds))


class CoproductException(FiniteMonad):
    """T(X) = X + S for a fixed set of marks S, on (FinSet, disjoint union).

    Multiplication folds the two copies of S together and the unit is the
    inclusion.  marks=1 is the maybe monad, marks=0 the identity monad.
    """

    ambient = DisjointUnion

    def __init__(self, marks: int, name: Optional[str] = None):
        if marks < 0:
            raise StructuralError("marks must be nonnegative")
        self.marks = marks
        self.name = name if name is not None else f"exception({marks})"

    def t_size(self, n: int) -> int:
        return n + self.marks

    def eta(self, n: int) -> tuple[int, ...]:
        return tuple(range(n))

    def bind(self, f, dst: int) -> tuple[int, ...]:
        # f* is f on X and sends each mark of T(X) to the same mark of T(dst)
        return tuple(f) + tuple(dst + j for j in range(self.marks))

    def bind_at(self, f, dst: int, p: int) -> int:
        return f[p] if p < len(f) else dst + p - len(f)

    def theta(self, x: int, y: int) -> tuple[int, ...]:
        # X + (Y + S) and (X + Y) + S coincide position by position
        return identity_table(x + y + self.marks)


class FreeVectorF2(FiniteMonad):
    """T(X) = all maps X -> {0,1}, on (FinSet, cartesian product).

    Elements of T(X) are bitmasks over X; the unit sends x to the delta mask
    and f*(p) is the XOR of the masks f[x] over the set bits x of p, so the
    multiplication XOR-folds a set of masks.  The canonical strength shifts a
    mask into the block of its first coordinate.  The f* table, and with it
    the mu and T(f) tables, is an int64 array, built by doubling with numpy
    slice XORs.  A mask of T(dst) lies below 2^dst, so f* into dst > 62 is an
    array of exact Python ints instead; mu(n) has 2^(2^n) entries, so it is
    only ever built at small n, where its masks are far below 2^63.
    """

    ambient = CartesianProduct
    name = "freevec2"

    def t_size(self, n: int) -> int:
        return 1 << n

    def eta(self, n: int) -> tuple[int, ...]:
        return tuple(1 << x for x in range(n))

    def bind(self, f, dst: int):
        # doubling: the masks that contain x are those without it, XORed with f[x]
        table = np.zeros(1 << len(f), dtype=np.int64 if dst <= 62 else object)
        for x in range(len(f)):
            table[1 << x:2 << x] = table[:1 << x] ^ f[x]
        return table

    def bind_at(self, f, dst: int, p: int) -> int:
        out = 0
        while p:
            low = p & -p
            out ^= f[low.bit_length() - 1]
            p ^= low
        return out

    def theta(self, x: int, y: int) -> tuple[int, ...]:
        ty = 1 << y
        out = []
        for a in range(x):
            for v in range(ty):
                out.append(v << (a * y))
        return tuple(out)


def maybe_monad() -> CoproductException:
    return CoproductException(1, name="maybe")


def identity_monad() -> CoproductException:
    return CoproductException(0, name="identity")


# name -> constructor of every builtin monad, in the order the command line lists them; exception alone takes marks
BUILTIN_MONADS = {
    "maybe": maybe_monad, "identity": identity_monad, "exception": CoproductException, "freevec2": FreeVectorF2
}


def builtin_monad(name: str, marks: Optional[int] = None) -> FiniteMonad:
    """The builtin monad `name` from `BUILTIN_MONADS`, given its marks when it is the exception monad.

    Marks given to any other name are refused first, then an unknown name,
    then the exception monad without marks, each as a structural error.
    """
    make = BUILTIN_MONADS.get(name)
    if marks is not None and make is not CoproductException:
        raise StructuralError(f"marks apply to the exception monad only, not to {name!r}")
    if make is None:
        raise StructuralError(f"unknown builtin monad {name!r}")
    if make is CoproductException and marks is None:
        raise StructuralError("exception monad needs a number of marks")
    return make() if marks is None else make(marks)


def validate_monad(monad: FiniteMonad, max_size: int, budget: int = DEFAULT_BUDGET) -> ValidationReport:
    """Pointwise monad laws on every carrier up to max_size.

    A law at a given carrier is only evaluated when its tables fit the
    budget; for the free-vector monad the associativity law involves T^3 and
    is therefore checked on small carriers only.  The unit laws read
    mu_n . T(eta_n) = eta_n* and mu_n . eta_{T(n)} = id* . eta_{T(n)} at the
    |T(n)| points of T(n) through bind_at, so a mu(n) table is built only
    where associativity is checked.  Associativity at n is the EM law of the
    free algebra (T(n), mu_n), checked once per monad object, here or by the
    EM enumeration: mu_n is built for its key at each carrier checked, and
    the law builds mu_{T(n)} only when it has not answered that key yet.
    The walk over carriers stops at the first carrier n >= 1 whose T(T(n))
    is past the budget.
    """
    violations: list[Violation] = []
    for n in range(max_size + 1):
        tn = monad.t_size(n)
        ttn = _table_size(monad, tn, budget)
        if ttn > budget:
            if n:
                # T keeps split monos, so |T(T(n))| only grows from n = 1 on: no later carrier fits either
                break
            continue
        unit_left = tuple(map(functools.partial(monad.bind_at, monad.eta(n), n), range(tn)))
        unit_right = tuple(map(functools.partial(monad.bind_at, range(tn), n), monad.eta(tn)))
        ident = identity_table(tn)
        violations += _mismatches("monad_unit_left", (n,), unit_left, ident)
        violations += _mismatches("monad_unit_right", (n,), unit_right, ident)
        if _table_size(monad, ttn, budget) > budget:
            continue
        mu_n = monad.mu(n)
        if not monad._em_law_holds(tn, mu_n):
            violations += _mismatches("monad_associativity", (n,), *map(_ints, monad._em_law_sides(tn, mu_n)))
    return ValidationReport.from_violations(violations)


@dataclass(frozen=True)
class EmAlgebra:
    """An Eilenberg-Moore algebra: carrier size plus structure table T(Y) -> Y."""

    monad_name: str
    carrier: int
    structure: tuple[int, ...]

    def to_payload(self) -> dict:
        return {
            "carrier": self.carrier,
            "structure": list(self.structure),
        }


def _orbit(table, carrier: int, move, budget: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The relabeling orbit of table, each member mapped to a bijection of the carrier that produces it.

    Relabeling a table t: D(Y) -> Y along a bijection perm gives
    perm . t . move(perm)^-1, two table compositions.  The orbit is closed
    breadth-first under the transposition (0 1) and the cycle i -> i+1 mod
    carrier, which generate the symmetric group; each generator's move is
    inverted once per orbit.  Since move is a functor, relabeling a member
    reached by perm along gen gives the member reached by gen . perm, so the
    work is proportional to the orbit, not carrier!.
    """
    start = tuple(table)
    orbit = {start: identity_table(carrier)}
    if carrier < 2:
        return orbit
    swap = (1, 0) + tuple(range(2, carrier))
    cycle = tuple(range(1, carrier)) + (0,)
    generators = []
    for gen in (swap, cycle):
        moved = move(gen)
        generators.append((gen, sorted(range(len(moved)), key=moved.__getitem__)))  # the inverse of moved
    queue = [start]
    for current in queue:
        perm = orbit[current]
        for gen, back in generators:
            image = compose(gen, compose(current, back))
            if image not in orbit:
                orbit[image] = compose(gen, perm)
                _guard(len(orbit), budget, f"relabeling orbit at carrier {carrier}")
                queue.append(image)
    return orbit


def _isoclasses(tables, carrier: int, move, budget: int, accept) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each member of the relabeling orbits met among the accepted tables, mapped to its orbit's least table.

    move(perm) is D(perm).  accept(table) is only asked about tables outside
    the orbits found so far: a relabeling of an accepted table can only add
    its isoclass again.  The orbits are kept, so a later isomorphism test
    against a found isoclass is one lookup.
    """
    members: dict[tuple[int, ...], tuple[int, ...]] = {}
    for table in tables:
        if table not in members and accept(table):
            orbit = _orbit(table, carrier, move, budget)
            members.update(dict.fromkeys(orbit, min(orbit)))
    return members


def _representatives(members: dict[tuple[int, ...], tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The least table of each isoclass in an _isoclasses map, sorted."""
    return sorted(set(members.values()))


def _free_generators(classes: dict[int, dict], free_size, free_table) -> dict[tuple[int, ...], int]:
    """The least table of each isoclass in classes that holds a free object, mapped to the least such n.

    classes maps each carrier to its _isoclasses map; the free object on n has carrier free_size(n) and
    table free_table(n).  An isoclass holds it exactly when that table lies in the isoclass's orbit, which
    the map already holds, so each free table is built once per (carrier, n), for n up to carrier + 1 and
    only at a carrier with an isoclass, and matched by one lookup.  A table of an isoclass names its
    carrier too, as the unit law makes it onto 0..carrier-1.  Both routes ask this with their own free
    objects, so they share the lookup only, as they share `_isoclasses`.
    """
    free: dict[tuple[int, ...], int] = {}
    for carrier, members in classes.items():
        for n in range(carrier + 2) if members else ():
            if free_size(n) == carrier and (canon := members.get(free_table(n))) is not None:
                free.setdefault(canon, n)
    return free


def _em_route(monad: FiniteMonad, carrier: int, budget: int):
    """The EM route on the carrier Y: its relabeling move perm -> T(perm) and its law, as (move, law).

    law(s) guards the T(T(Y)) table against the budget, then holds when s . eta_Y = id_Y and
    s . T(s) = s . mu_Y.  The EM law is answered once per monad object (`_em_law_holds`), so a free
    algebra (T(n), mu_n) whose law validate_monad checked as associativity at n is not checked again,
    and the law builds the mu_Y table it reads only for a structure it has not answered yet.  The route
    reads the monad's evaluators only.
    """
    ttsize = _table_size(monad, monad.t_size(carrier), budget)
    eta = monad.eta(carrier)

    def move(perm) -> tuple[int, ...]:
        return monad.t_mor(perm, carrier)

    def law(structure) -> bool:
        _guard(ttsize, budget, f"algebra axiom tables at carrier {carrier}")
        if any(structure[eta[x]] != x for x in range(carrier)):
            return False
        return monad._em_law_holds(carrier, structure)

    return move, law


def _em_isoclasses(monad: FiniteMonad, carriers: range, budget: int) -> dict[int, dict]:
    """Per carrier in carriers, the _isoclasses map of the Eilenberg-Moore algebras on it.

    Only a candidate of the EM fill pays for the route's law (`_em_route`) and its T(T(Y)) guard.
    """
    classes = {}
    for carrier in carriers:
        move, law = _em_route(monad, carrier, budget)
        classes[carrier] = _isoclasses(monad.em_structure_candidates(carrier, budget), carrier, move, budget, law)
    return classes


def _em_algebras(monad: FiniteMonad, classes: dict[int, dict]) -> list[EmAlgebra]:
    return [
        EmAlgebra(monad.name, carrier, canon)
        for carrier, members in classes.items()
        for canon in _representatives(members)
    ]


def enumerate_em_algebras(
    monad: FiniteMonad, max_carrier: int, budget: int = DEFAULT_BUDGET
) -> list[EmAlgebra]:
    """All structure maps satisfying both algebra axioms, one per isoclass.

    Deduplication is up to carrier relabeling: each isoclass's relabeling orbit
    is built once, from two generators of the symmetric group, so its cost is
    proportional to the orbit's size rather than carrier!.  The representative
    is the orbit's least structure table.  A candidate of the monad's EM fill
    in the orbit of an algebra already found is skipped before its T(T(Y))
    table is built, since it could only add that algebra again.  The EM law
    of a free algebra (T(n), mu_n), monad associativity at n, is checked
    once per monad object, here or by validate_monad.  A T(T(Y)) table a
    candidate needs, or an orbit, larger than the budget raises
    BudgetExceededError.
    """
    return _em_algebras(monad, _em_isoclasses(monad, range(max_carrier + 1), budget))


def free_algebra(monad: FiniteMonad, n: int) -> EmAlgebra:
    """Free algebra on an n-element set: carrier T(n), structure map mu."""
    return EmAlgebra(monad.name, monad.t_size(n), _ints(monad.mu(n)))


def em_isomorphic(
    monad: FiniteMonad, a: EmAlgebra, b: EmAlgebra, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """A carrier bijection commuting with the structure maps, or None if there is none.

    The witness is a bijection found in the relabeling orbit of a, not
    necessarily the lexicographically first one.  An orbit larger than
    budget raises BudgetExceededError.
    """
    if a.carrier != b.carrier:
        return None
    move, _ = _em_route(monad, a.carrier, budget)
    return _orbit(a.structure, a.carrier, move, budget).get(tuple(b.structure))


@dataclass(frozen=True)
class AdjunctionVerdict:
    """Bounded adjunction-triviality verdict for a monad.

    ``applicable`` records whether at least two algebra isoclasses exist
    within the bound; without that the notion degenerates just like division
    algebras degenerate at the zero algebra, and ``trivial_up_to_bound``
    is left undecided.
    """

    monad_name: str
    bound: int
    applicable: bool
    isoclass_count: int
    trivial_up_to_bound: Optional[bool]
    counterexample: Optional[EmAlgebra]
    free_witnesses: tuple[tuple[EmAlgebra, int], ...]
    note: str = BOUNDED_NOTE

    def to_payload(self) -> dict:
        return {
            "monad": self.monad_name,
            "bound": self.bound,
            "applicable": self.applicable,
            "isoclass_count": self.isoclass_count,
            "trivial_up_to_bound": self.trivial_up_to_bound,
            "counterexample": None if self.counterexample is None else self.counterexample.to_payload(),
            "free_witnesses": [
                {"algebra": alg.to_payload(), "generator_size": size}
                for alg, size in self.free_witnesses
            ],
            "note": self.note,
        }


STAR_PROBE_EXTRA = 2


def check_adjunction_trivial(
    monad: FiniteMonad, max_carrier: int, budget: int = DEFAULT_BUDGET
) -> AdjunctionVerdict:
    """Is every algebra with carrier <= max_carrier isomorphic to a free one?

    Since the comparison embedding of free algebras is fully faithful,
    equivalence of the two canonical adjunction categories reduces to every
    algebra being isomorphic to a free algebra.  Applicability needs two
    algebra isoclasses; they are probed slightly beyond the bound so that a
    small bound on a non-degenerate monad does not render the verdict
    inapplicable.  An algebra's orbit, built by the enumeration, holds every
    algebra isomorphic to it, so it matches a free algebra on n generators
    exactly when mu(n) lies in that orbit: one lookup, no second orbit, and
    each mu(n) is built once (`_free_generators`).  The witness of an algebra
    is the least such n; the counterexample is the first algebra with none.
    """
    classes = _em_isoclasses(monad, range(max_carrier + 1), budget)
    algebras = _em_algebras(monad, classes)
    applicable = len(algebras) >= 2
    if not applicable:
        beyond = range(max_carrier + 1, max_carrier + 1 + STAR_PROBE_EXTRA)
        try:
            extra = len(_em_algebras(monad, _em_isoclasses(monad, beyond, budget)))
        except BudgetExceededError:
            extra = 0
        applicable = len(algebras) + extra >= 2
    free = _free_generators(classes, monad.t_size, lambda n: free_algebra(monad, n).structure)
    counterexample = next((alg for alg in algebras if alg.structure not in free), None)
    return AdjunctionVerdict(
        monad_name=monad.name,
        bound=max_carrier,
        applicable=applicable,
        isoclass_count=len(algebras),
        trivial_up_to_bound=counterexample is None if applicable else None,
        counterexample=counterexample,
        free_witnesses=tuple((alg, free[alg.structure]) for alg in algebras if alg.structure in free),
    )


def check_strength(monad: FiniteMonad, max_size: int, budget: int = DEFAULT_BUDGET) -> ValidationReport:
    """Pointwise check of the four left-strength axioms on sizes <= max_size.

    Each law is compared at every point of its domain.  Each theta(a, b)
    table is built at most once per call, and so is each mu(Y) table of the
    strength_iii left side.  The left sides of strength_iv, strength_iii and
    strength_i are theta . (id_X (x) g) for g = eta_Y, mu_Y and theta_{Y,Z}:
    each is gathered as a whole table by the ambient's `whisker`, which
    never builds id_X (x) g.  The strength_iii right side
    mu_{X(x)Y} . T(theta_{X,Y}) . theta_{X,T(Y)} = theta_{X,Y}* . theta_{X,T(Y)}
    is evaluated one point of X (x) T(T(Y)) at a time through bind_at, so
    neither the mu(X (x) Y) nor the T(theta) table is built.  The budget
    holds the number of points of each law and the size of every table that
    is built, before it is built.
    """
    amb = monad.ambient
    violations: list[Violation] = []
    sizes = range(max_size + 1)
    mu = functools.cache(lambda n: _ints(monad.mu(n)))
    theta = functools.cache(monad.theta)

    def guard(key: tuple[int, ...], *table_sizes: int):
        for size in table_sizes:
            if size > budget:
                _guard(size, budget, f"strength tables at sizes ({', '.join(map(str, key))})")

    for x in sizes:
        # theta at the unit object must be the identity on T(x)
        guard((x,), amb.tensor(amb.unit_size, monad.t_size(x)))
        table = theta(amb.unit_size, x)
        violations += _mismatches("strength_ii", (x,), table, identity_table(len(table)))

    for x in sizes:
        for y in sizes:
            ty = monad.t_size(y)
            xy = amb.tensor(x, y)
            guard((x, y), amb.tensor(x, ty), xy)
            theta_xy = theta(x, y)
            violations += _mismatches("strength_iv", (x, y), amb.whisker(theta_xy, x, monad.eta(y), ty), monad.eta(xy))

            # the mu(Y) table, and the points of X (x) T(T(Y)) with the theta table over them
            tty = _table_size(monad, ty, budget)
            guard((x, y), tty, amb.tensor(x, tty))
            lhs = amb.whisker(theta_xy, x, mu(y), ty)
            rhs = tuple(map(functools.partial(monad.bind_at, theta_xy, xy), theta(x, ty)))
            violations += _mismatches("strength_iii", (x, y), lhs, rhs)

    for x in sizes:
        for y in sizes:
            xy = amb.tensor(x, y)
            for z in sizes:
                tz = monad.t_size(z)
                yz = amb.tensor(y, z)
                tyz = monad.t_size(yz)
                guard((x, y, z), amb.tensor(x, tyz), amb.tensor(y, tz), amb.tensor(xy, tz))
                lhs = amb.whisker(theta(x, yz), x, theta(y, z), tyz)
                violations += _mismatches("strength_i", (x, y, z), lhs, theta(xy, z))

    return ValidationReport.from_violations(violations)


@dataclass(frozen=True)
class StrengthIsoVerdict:
    very_strong: bool
    x_size: Optional[int] = None
    y_size: Optional[int] = None
    domain: Optional[int] = None
    codomain: Optional[int] = None
    reason: Optional[str] = None

    def to_payload(self) -> dict:
        return {
            "very_strong": self.very_strong,
            "witness": None
            if self.very_strong
            else {
                "x_size": self.x_size,
                "y_size": self.y_size,
                "domain": self.domain,
                "codomain": self.codomain,
                "reason": self.reason,
            },
        }


def is_very_strong(monad: FiniteMonad, max_size: int) -> StrengthIsoVerdict:
    """True when every strength component on sizes <= max_size is a bijection.

    On failure the witness is a cardinality mismatch between X (x) T(Y) and
    T(X (x) Y), or a same-size component that is not bijective.
    """
    amb = monad.ambient
    for x in range(max_size + 1):
        for y in range(max_size + 1):
            domain = amb.tensor(x, monad.t_size(y))
            codomain = monad.t_size(amb.tensor(x, y))
            if domain != codomain:
                return StrengthIsoVerdict(False, x, y, domain, codomain, "cardinality")
            table = monad.theta(x, y)
            if len(set(table)) != codomain:
                return StrengthIsoVerdict(False, x, y, domain, codomain, "not_bijective")
    return StrengthIsoVerdict(True)


@dataclass(frozen=True)
class MonoidAlgebra:
    """An algebra object in the ambient monoidal category, as explicit tables."""

    name: str
    ambient: type
    carrier: int
    mult: tuple[int, ...]
    unit: tuple[int, ...]

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "ambient": self.ambient.kind,
            "carrier": self.carrier,
            "mult": list(self.mult),
            "unit": list(self.unit),
        }


def algebra_from_strength(monad: FiniteMonad) -> MonoidAlgebra:
    """The algebra structure on T(unit) induced by the strength.

    Multiplication is mu at the unit object after the strength component at
    (T(unit), unit); the unit map is eta at the unit object.  Before it is
    returned, the algebra acting on itself by its product must satisfy the
    right-module law, which is associativity and the right unit law, and
    the product must satisfy the left unit law; a product that fails either
    raises StructuralError.
    """
    amb = monad.ambient
    one = amb.unit_size
    carrier = monad.t_size(one)
    mult = compose(_ints(monad.mu(one)), monad.theta(carrier, one))
    unit = tuple(monad.eta(one))
    algebra = MonoidAlgebra(
        name=f"T(1) of {monad.name}",
        ambient=amb,
        carrier=carrier,
        mult=mult,
        unit=unit,
    )
    *_, law = _module_route(algebra, carrier)
    ident = identity_table(carrier)
    if not law(mult) or compose(mult, amb.tensor_mor(unit, ident, carrier, carrier)) != ident:
        raise StructuralError(f"strength of {monad.name} induces a product that is not associative and unital")
    return algebra


@dataclass(frozen=True)
class AlgebraModule:
    """A right module over a MonoidAlgebra: carrier plus action table."""

    carrier: int
    action: tuple[int, ...]

    def to_payload(self) -> dict:
        return {"carrier": self.carrier, "action": list(self.action)}


def _module_route(algebra: MonoidAlgebra, carrier: int):
    """The module route on the carrier Y: (unit inclusion, free action, move, law), its tables built once.

    The unit inclusion is id_Y (x) unit: Y -> Y (x) A, and the free action id_Y (x) mult is the action of
    the free module when Y is a set of generators.  move(f) is f (x) id_A, the relabeling move at a
    bijection f of Y and the left side's inner map at an action f.  law(action) is the right-module law:
    action . (id_Y (x) unit) = id_Y, and (y.a).b = y.(ab), that is
    action . (action (x) id_A) = action . (id_Y (x) mult).  The route reads the algebra's tables only.
    """
    amb, a = algebra.ambient, algebra.carrier
    ident, ident_a = identity_table(carrier), identity_table(a)
    unit_inc = amb.tensor_mor(ident, algebra.unit, carrier, a)
    free = amb.tensor_mor(ident, algebra.mult, carrier, a)

    def move(f) -> tuple[int, ...]:
        return amb.tensor_mor(f, ident_a, carrier, a)

    def law(action) -> bool:
        return compose(action, unit_inc) == ident and compose(action, move(action)) == compose(action, free)

    return unit_inc, free, move, law


def enumerate_modules(
    algebra: MonoidAlgebra, max_carrier: int, budget: int = DEFAULT_BUDGET
) -> list[AlgebraModule]:
    """All right modules over the algebra, one per isoclass, carriers <= bound.

    This is the module-theoretic counterpart of the Eilenberg-Moore
    enumeration but runs entirely through the algebra's own tables, as
    `_module_route` states them, so the two routes share no verdict logic,
    only the relabeling step that keeps the least action table of each
    isoclass's orbit.  That orbit is built once per isoclass, at a cost
    proportional to its size rather than carrier!.
    """
    classes = _module_isoclasses(algebra, max_carrier, budget)
    return [
        AlgebraModule(carrier, canon) for carrier, members in classes.items() for canon in _representatives(members)
    ]


def _module_isoclasses(algebra: MonoidAlgebra, max_carrier: int, budget: int) -> dict[int, dict]:
    """Per carrier up to max_carrier, the _isoclasses map of the right modules on it.

    The fills of the route's unit inclusion, listed with no law, that pass the route's law (`_module_route`).
    """
    classes = {}
    for carrier in range(max_carrier + 1):
        unit_inc, _, move, law = _module_route(algebra, carrier)
        dom = algebra.ambient.tensor(carrier, algebra.carrier)
        actions = _unit_fills(dom, unit_inc, carrier, budget, f"module enumeration at carrier {carrier}")
        classes[carrier] = _isoclasses(actions, carrier, move, budget, law)
    return classes


def free_module(algebra: MonoidAlgebra, n: int) -> AlgebraModule:
    """Free right module on an n-element set: carrier n (x) A, action id (x) mult."""
    _, action, _, _ = _module_route(algebra, n)
    return AlgebraModule(algebra.ambient.tensor(n, algebra.carrier), action)


def module_isomorphic(
    algebra: MonoidAlgebra, m1: AlgebraModule, m2: AlgebraModule, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """A carrier bijection perm with perm . m1 = m2 . (perm (x) id_A), or None if there is none.

    The witness is a bijection found in the relabeling orbit of m1, not
    necessarily the lexicographically first one.  An orbit larger than
    budget raises BudgetExceededError.
    """
    if m1.carrier != m2.carrier:
        return None
    _, _, move, _ = _module_route(algebra, m1.carrier)
    return _orbit(m1.action, m1.carrier, move, budget).get(tuple(m2.action))


def check_mon_ess_agreement(
    monad: FiniteMonad, max_carrier: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Adjunction-triviality against the independent every-module-is-free check.

    The monadic route enumerates Eilenberg-Moore algebras and matches them to
    free algebras; the essential route builds the algebra T(unit) from the
    strength and enumerates its modules through the algebra tables.  Returns
    True when the two bounded verdicts coincide.  Each route matches against
    its own free objects by lookup in the orbits of its own enumeration
    (`_free_generators`).  The monad must be very strong on sizes up to
    max_carrier, else StructuralError, and must have two algebra isoclasses
    in reach of check_adjunction_trivial, else DegenerateMonadError.
    """
    if not is_very_strong(monad, max_carrier).very_strong:
        raise StructuralError(f"the agreement check needs a very strong monad, and {monad.name} is not one")
    verdict = check_adjunction_trivial(monad, max_carrier, budget)
    if not verdict.applicable:
        raise DegenerateMonadError(
            f"{monad.name}: fewer than two algebra isoclasses within bound {max_carrier}"
        )
    algebra = algebra_from_strength(monad)
    classes = _module_isoclasses(algebra, max_carrier, budget)
    amb = algebra.ambient
    free = _free_generators(classes, lambda n: amb.tensor(n, algebra.carrier), lambda n: free_module(algebra, n).action)
    essential = all(canon in free for members in classes.values() for canon in members.values())
    return bool(verdict.trivial_up_to_bound) == essential


def _em_morphisms(monad: FiniteMonad, x: int, budget: int) -> Callable[[int], Iterator[tuple[int, ...]]]:
    """The search for the algebra morphisms f: T(x) -> T(y) between free algebras, as a function of y.

    It yields every such f in lexicographic order by backtracking over f[0],
    f[1], ...: the law f(mu_x(p)) = mu_y(T(f)(p)) at a point p of T(T(x)) is
    checked once f[mu_x(p)] and every entry of f that T(f)(p) depends on have
    a value; its right side mu_y(T(f)(p)) is f*(p), read through bind_at.  If
    p = T(incl)(q) for the inclusion incl of 0..k-1, then
    T(f)(p) = T(f . incl)(q) as T is a functor, so it depends on f below the
    least such k only.  That schedule, read off the small T(incl) tables, and
    mu_x = id*, read through bind_at, are built once, for every y, after mu_x
    is sized against the budget.  Every leaf of a search, and every point of
    the law it evaluates, counts against the budget, each count on its own.
    """
    tx = monad.t_size(x)
    ttx = _table_size(monad, tx, budget)
    _guard(ttx, budget, f"morphism search tables at size {x}")
    mu_x = tuple(map(functools.partial(monad.bind_at, range(tx), x), range(ttx)))
    first = [tx] * ttx  # first[p]: the least k with p in the image of T(incl_k)
    for k in reversed(range(tx)):
        for p in _ints(monad.t_mor(identity_table(k), tx)):
            first[p] = k
    ready: list[list[int]] = [[] for _ in range(tx)]  # ready[i]: the points whose entries are all set with f[i]
    for p, v in enumerate(mu_x):
        ready[max(first[p] - 1, v)].append(p)

    def search(y: int) -> Iterator[tuple[int, ...]]:
        points = 0

        def holds(f: list[int], i: int) -> bool:
            nonlocal points
            for p in ready[i]:
                points += 1
                if points > budget:
                    _guard(points, budget, f"morphism search law points at sizes ({x}, {y})")
                if f[mu_x[p]] != monad.bind_at(f, y, p):
                    return False
            return True

        values = range(monad.t_size(y))
        return _backtrack(tx, lambda f, i: values, holds, budget, f"morphism search at sizes ({x}, {y})")

    return search


def check_comparison_fully_faithful(
    monad: FiniteMonad, max_size: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Hom-sets into T(Y) versus algebra morphisms between free algebras.

    For every pair of sizes, the Kleisli extensions g* = mu_Y . T(g) of the
    maps g: X -> T(Y), sorted, must equal the list of algebra morphisms from
    the free algebra on X to the free algebra on Y.  The search yields each
    such morphism once and in lexicographic order, so the lists are equal
    exactly when g -> g* is injective and onto the algebra morphisms.  The
    maps X -> T(Y) are held to the budget and transported first; the
    algebra morphisms come from a backtracking search that checks each point
    of the law as soon as it can and counts every point it evaluates and
    every leaf it reaches against the budget.  Both read mu and T(f) only
    through bind_at.  The search always runs to its end, so a lawless monad
    whose search finds a morphism outside the image and then runs past the
    budget raises BudgetExceededError rather than returning False.
    """
    for x in range(max_size + 1):
        morphisms = _em_morphisms(monad, x, budget)
        points = range(monad.t_size(x))
        for y in range(max_size + 1):
            ty = monad.t_size(y)
            _guard(ty ** x, budget, f"morphism enumeration at sizes ({x}, {y})")
            maps = itertools.product(range(ty), repeat=x)
            if sorted(tuple(monad.bind_at(g, y, p) for p in points) for g in maps) != list(morphisms(y)):
                return False
    return True
