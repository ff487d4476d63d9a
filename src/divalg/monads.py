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
the structure table alone: it builds the mu_Y table it reads, compares its
two sides and keeps nothing, and at the free algebra (T(n), mu_n) is monad
associativity at n.  It and each relabeling step compare or build composed
whole tables.
Tuples are composed by one C-level gather, `compose`; a monad may give its
tables as numpy arrays instead, as freevec2 does in the narrowest unsigned
dtype that holds its masks, and the EM law then gathers both of its sides
with `take` from the structure held in the narrowest unsigned dtype that
holds a position of the carrier, and compares them in numpy.  The
ambients' tensor of morphisms, `tensor_mor`, is a C-level map, and a table
after id_X (x) g, the left side of three strength axioms, is gathered by the
ambient's `whisker` without building id_X (x) g.  Every
table that leaves the module is a tuple of Python ints.  The unit laws, the
EM fill, the algebra-morphism search and the comparison check read single
entries of mu, T(f) and their composite f* through `bind_at`, at the points
they quantify over; the strength_iii right side reads f* at every point of a
theta table in one `bind_points` call, which a class may batch.  Structure maps, module
actions and algebra morphisms are all listed by one depth-first fill, `_fill`,
which knows no law: each caller passes the carrier its values lie below, the
unit its entries must extend (none for a morphism) and its own check.  Every
monad has one structure-map fill,
`FiniteMonad.em_structure_candidates`, the one owner of the structure table:
it holds the table's |T(Y)| entries to the budget before it builds anything,
yields only tables that fix every unit point, and checks the EM law at the
points of support 1 and 2, so it needs no theory of the monad's algebras.  A
class that declares `em_law_support`, as both builtin classes do with a proof
in their docstrings, has its EM law decided by those points and the unit
law: its EM route's law does no work, and no T(T(Y)) table is sized or
built.  The whole-table law, and only it, stays for every other monad,
subclasses of the builtin classes included, and for validate_monad's
associativity.  The two
routes that check each other are each one function of the carrier that
states its fill, relabeling move and law once per carrier: `_em_route`
through the monad's evaluators, `_module_route` through the tables of the
algebra T(1), and neither reads the other's.  They share only the classifier
(`_isoclasses`, which classifies either route's fill per carrier, and
`_isomorphic`, which looks one table up in another's orbit), the orbit, the
free-object lookup and `_fill`.  An orbit maps each member to its
breadth-first parent and the generator that relabels the parent into it, so
a witness is the walk back to the start; an isomorphism test first compares
the two tables' sorted preimage sizes, which every relabeling keeps, and
builds no orbit when they differ.  All
verdicts quantify over carriers up to a stated bound; table sizes, points
evaluated, orbit members and search leaves are held under the budget each
call is given, counted where that work is done.
"""

from __future__ import annotations

import array
import bisect
import collections
import contextlib
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


def _count(value, what: str, negative: str = "{what} must be nonnegative, not {value}") -> int:
    """value, a count that names a size, as a Python int; a numpy integer is held as one.

    A bool, a float or any other value that is not an integer raises StructuralError naming what, and a
    value below 0 raises it with the message negative.  Every bounded verdict checks its bound here before
    any work, and so do both free-object builders and CoproductException their counts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StructuralError(f"{what} must be an integer, not {value!r}")
    if value < 0:
        raise StructuralError(negative.format(what=what, value=value))
    return int(value)


def _table_size(monad: FiniteMonad, n: int, budget: int) -> int:
    """|T(n)|, or n itself when n is past the budget.

    Every n given here is a size |T(m)|, and for a lawful monad
    |T(T(m))| >= |T(m)| since mu splits eta at T(m), so T(n) is then past the
    budget too; sizing it could take a number of 2^n bits (freevec2).
    """
    return n if n > budget else monad.t_size(n)


def _fill(size: int, unit, carrier: int, budget: int, what: str, holds=None) -> Iterator[tuple[int, ...]]:
    """Every table t of size values below carrier with t[unit[x]] = x for each x and holds(t, i) true, depth first.

    Entry i takes its values from a list fixed before the search: every value
    below carrier, the one value the unit puts there, or none when two unit
    points collide.  Entries are filled in index order, so tables come in
    lexicographic order, and holds(t, i), when given, may read t[:i + 1].
    Every leaf below the root counts against the budget: a value that
    completes the table, one that holds rejects, and one that leaves the next
    entry with no value.  For a fill with no law that is the number of tables.
    """
    allowed: list = [range(carrier)] * size
    for x, p in enumerate(unit):
        allowed[p] = [x] if x in allowed[p] else []
    if not size:
        yield ()
        return
    t = [0] * size
    last = size - 1
    leaves = 0
    stack = [iter(allowed[0])]  # stack[i]: the values left to try at entry i
    while stack:
        i = len(stack) - 1
        for value in stack[i]:
            t[i] = value
            kept = holds is None or holds(t, i)
            if kept and i < last and allowed[i + 1]:
                stack.append(iter(allowed[i + 1]))
                break
            leaves += 1
            if leaves > budget:
                _guard(leaves, budget, what)
            if kept and i == last:
                yield tuple(t)
        else:
            stack.pop()


def _mismatches(axiom: str, key: tuple[int, ...], lhs, rhs) -> list[Violation]:
    """A Violation at key + (p,) for every position p where the tables lhs and rhs differ.

    rhs may be a numpy array whose dtype holds every entry of lhs: lhs is then held in it unless it is an
    array already, compared in numpy, and itemized as Python ints.
    """
    if isinstance(rhs, np.ndarray):
        if not isinstance(lhs, np.ndarray):
            lhs = np.fromiter(lhs, dtype=rhs.dtype, count=len(lhs))
        if np.array_equal(lhs, rhs):
            return []
        lhs, rhs = _ints(lhs), _ints(rhs)
    elif lhs == rhs:
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


def _gather(f) -> Callable:
    """compose(-, f) as one callable, built once for every table it is applied to."""
    return operator.itemgetter(*f) if len(f) > 1 else functools.partial(compose, f=tuple(f))


def _refuse_images_past(f, size: int, what: str, dst: int):
    """StructuralError naming the first entry of the table f outside 0..size-1, if there is one.

    what is the map built from f into T(dst).  Checked before f indexes a table, where Python would read a
    negative entry from the end.
    """
    if len(f) and not 0 <= min(f) <= max(f) < size:
        x = next(x for x, v in enumerate(f) if not 0 <= v < size)
        raise StructuralError(f"{what} into T({dst}) needs images below {size}, and f[{x}] is {f[x]}")


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
    def whisker(table, x: int, g: Callable, b_dst: int) -> tuple[int, ...]:
        """The tuple table after id_x (x) g, without building id_x (x) g, for g given as its `_gather`.

        Its first x entries, then the rest gathered by g.
        """
        return tuple(table[:x]) + g(table[x:])


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
    def whisker(table, x: int, g: Callable, b_dst: int) -> tuple[int, ...]:
        """The tuple table after id_x (x) g, without building id_x (x) g, for g given as its `_gather`.

        Each of its x rows of b_dst entries, gathered by g.
        """
        rows = (table[a * b_dst:(a + 1) * b_dst] for a in range(x))
        return tuple(itertools.chain.from_iterable(map(g, rows)))


class FiniteMonad:
    """Base class: a monad on finite ordinals given as a Kleisli triple (T, eta, (-)*).

    A subclass supplies t_size, the eta table, the point evaluator bind_at,
    which computes f*(p) = mu_dst(T(f)(p)) for f: X -> T(dst) without
    building a table, and the theta table when it has a strength.  The
    tables follow from bind_at: bind(f, dst) is the table of f*, which a
    subclass may give faster, T(f) = (eta . f)* and mu = id*, and
    bind_points(f, dst, points) is f* at every point of a table, the bind_at
    loop unless a subclass batches it.  The laws read single entries of mu,
    T(f) and f* through bind_at, apart from the strength_iii right side,
    which reads f* at every point of a theta table through bind_points, and
    only where the class that defines the monad's bind_at defines
    bind_points too (`_points_evaluator`): a subclass that overrides bind_at
    alone keeps the loop.

    A class may declare `em_law_support = k`, for k at most 2, when the EM
    law s . T(s) = s . mu_Y at the points of T(T(Y)) of support <= k, with
    the unit law, implies it everywhere; its docstring holds the proof.
    The EM fill fixes every unit point and checks the law at the points of
    support 1 and 2, so the EM route then checks nothing more
    (`_em_law_support`).
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

    def bind_points(self, f, dst: int, points) -> tuple[int, ...]:
        """f* at each entry of the table points, for f: X -> T(dst): the bind_at loop.

        A subclass may batch it, as both builtin classes do, and must then answer, or raise, as this loop does
        at every point.
        """
        return tuple(map(functools.partial(self.bind_at, f, dst), points))

    def t_mor(self, f, dst: int) -> tuple[int, ...]:
        """The table of T(f): T(X) -> T(dst) for f: X -> dst; an image outside 0..dst-1 raises StructuralError."""
        _refuse_images_past(f, dst, "T(f)", dst)
        return self.bind(compose(self.eta(dst), f), dst)

    def mu(self, n: int) -> tuple[int, ...]:
        """The table of mu_n: T(T(n)) -> T(n)."""
        return self.bind(range(self.t_size(n)), n)

    def theta(self, x: int, y: int) -> tuple[int, ...]:
        raise StructuralError(f"monad {self.name} provides no strength")

    @functools.cached_property
    def _law_shapes(self) -> list[tuple[int, int]]:
        """(k, q) for each q in T(k), k = 1, 2, in no image of T(g) for g: k - 1 -> k.

        Those are the points of exact support k, as T is a functor; the unit point of T(1) is left out.  With
        q of T(2), T(swap)(q) is listed too, and T(h)(T(swap)(q)) = T(h . swap)(q) for the swap of 2, so the
        EM fill walks only the increasing maps h: k -> T(Y) at each shape and schedules and charges each
        point once.
        """
        shapes = []
        for k in (1, 2):
            lower = {p for g in itertools.product(range(k), repeat=k - 1) for p in self.t_mor(g, k)}
            shapes += [(k, q) for q in range(self.t_size(k)) if q not in lower and (k, q) != (1, self.eta(1)[0])]
        return shapes

    def _em_law_sides(self, carrier: int, structure):
        """s . T(s) and s . mu_Y on all of T(T(Y)), for Y = carrier and s = structure; mu_Y is built here.

        Where the monad gives T(s) or mu_Y as a numpy array, both sides are
        gathered by `take` from s held in the narrowest unsigned dtype that
        holds carrier - 1: every gathered entry is a value of s, a position
        below the carrier (T(s) reads eta_Y at each value of s, so a value
        past it raises there), so the sides are exact.  Tables given as
        tuples are gathered by `compose`.
        """
        t_s, mu_y = self.t_mor(structure, carrier), self.mu(carrier)
        if isinstance(t_s, np.ndarray) or isinstance(mu_y, np.ndarray):
            s = np.asarray(structure, dtype=np.min_scalar_type(carrier - 1))
            return s.take(t_s), s.take(mu_y)
        return compose(structure, t_s), compose(structure, mu_y)

    def em_structure_candidates(self, carrier: int, budget: int) -> Iterator[tuple[int, ...]]:
        """Every unit-compatible structure table s with s(T(s)(P)) = s(mu(P)) at the points P of support 1 and 2.

        P = T(h)(q) for h: k -> T(Y) increasing and q of exact support k in
        T(k), k = 1, 2 (`_law_shapes`), each scheduled, and charged to the
        budget, once; at the other points of support <= 2 the unit laws
        imply the law.  T(s)(P) = T(s . h)(q) reads s at h and
        lands on a position of support <= 2, so those positions are filled
        first, each group in index order, and a point is checked at the step
        that sets the last entry it reads.  freevec2's points are the pairs
        of masks, whose law is addition; maybe, identity and exception have
        none and get every unit-compatible table.  Survivors get the
        whole-table law from the EM route unless the monad's class declares
        its `em_law_support`, which makes these points decide it.  The |T(Y)|
        entries of the table are held to the budget first, under this fill's
        own message, before the law points are read or any table is built,
        so a carrier with no candidate is charged for its table too.
        """
        what = f"structure-map enumeration at carrier {carrier}"
        tsize = self.t_size(carrier)
        _guard(tsize, budget, what)
        eta, shapes = self.eta(carrier), self._law_shapes
        if not shapes:
            return _fill(tsize, eta, carrier, budget, what)
        points = sum(math.comb(tsize, k) for k, _ in shapes)
        _guard(points, budget, f"EM law points at carrier {carrier}")
        # the T(g) tables of the maps g: k -> Y, k <= 2, whose images are the positions of support <= 2
        maps = [g for k in range(3) for g in itertools.product(range(carrier), repeat=k)]
        t_maps = {g: _ints(self.t_mor(g, carrier)) for g in maps}
        low = {p for table in t_maps.values() for p in table}
        order = sorted(range(tsize), key=lambda p: p not in low)
        rank = sorted(range(tsize), key=order.__getitem__)  # the step that fills each position
        ready: list[list] = [[] for _ in order]  # ready[i]: the points whose fixed reads are all set at step i
        waiting: list[list] = [[] for _ in order]  # waiting[i]: the points whose T(s)(P) may be set at step i
        for k, q in shapes:
            # land[a * carrier + b]: the step of T(g)(q) for g = (a, b)[:k]
            land = [rank[t_maps[(a, b)[:k]][q]] for a in range(carrier) for b in range(carrier)]
            targets = sorted(set(land))
            for h in itertools.combinations(range(tsize), k):
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
        return (compose(t, rank) for t in _fill(tsize, compose(rank, eta), carrier, budget, what, holds))


class CoproductException(FiniteMonad):
    """T(X) = X + S for a fixed set of marks S, on (FinSet, disjoint union).

    Multiplication folds the two copies of S together and the unit is the
    inclusion.  marks=1 is the maybe monad, marks=0 the identity monad.
    marks must be a nonnegative integer, else StructuralError: a bool or a
    float is refused, as in a ring file, and a numpy integer is held, and
    names the monad, as a Python int.

    Its EM law is decided at support 1: T(T(Y)) = T(Y) + S, where a point p
    of T(Y) is eta_{T(Y)}(p), of support 1, and a mark has support 0.  At p,
    T(s)(p) = eta_Y(s(p)) and mu_Y(p) = p, so both sides of the law
    s . T(s) = s . mu_Y are s(p) once s . eta_Y = id_Y; at a mark, T(s) and
    mu_Y give the same mark of T(Y).  So every unit-compatible table is an
    algebra.
    """

    ambient = DisjointUnion
    em_law_support = 1

    def __init__(self, marks: int, name: Optional[str] = None):
        self.marks = _count(marks, "marks", "marks must be nonnegative")
        self.name = name if name is not None else f"exception({self.marks})"

    def t_size(self, n: int) -> int:
        return n + self.marks

    def eta(self, n: int) -> tuple[int, ...]:
        return tuple(range(n))

    def bind(self, f, dst: int) -> tuple[int, ...]:
        # f* is f on X and sends each mark of T(X) to the same mark of T(dst)
        _refuse_images_past(f, self.t_size(dst), "f*", dst)
        return tuple(f) + tuple(range(dst, dst + self.marks))

    def t_mor(self, f, dst: int) -> tuple[int, ...]:
        # eta is the identity, so T(f) = (eta . f)* is f*, on images below dst
        _refuse_images_past(f, dst, "T(f)", dst)
        return tuple(f) + tuple(range(dst, dst + self.marks))

    def bind_at(self, f, dst: int, p: int) -> int:
        return f[p] if p < len(f) else dst + p - len(f)

    def bind_points(self, f, dst: int, points) -> tuple[int, ...]:
        # one gather from f followed by the marks of T(dst), which is the f* table, continued as far as the points
        # reach, since bind_at reads a point p past X as dst + p - len(f) even past S; a negative point, which
        # bind_at reads from the end of f, is left to the loop
        if not len(points) or min(points) < 0:
            return super().bind_points(f, dst, points)
        return compose(tuple(f) + tuple(range(dst, dst + max(points) + 1 - len(f))), points)

    def theta(self, x: int, y: int) -> tuple[int, ...]:
        # X + (Y + S) and (X + Y) + S coincide position by position
        return identity_table(x + y + self.marks)


class FreeVectorF2(FiniteMonad):
    """T(X) = all maps X -> {0,1}, on (FinSet, cartesian product).

    Elements of T(X) are bitmasks over X; the unit sends x to the delta mask
    and f*(p) is the XOR of the masks f[x] over the set bits x of p, so the
    multiplication XOR-folds a set of masks.  The canonical strength shifts a
    mask into the block of its first coordinate.  The f* table, and with it
    the mu and T(f) tables, is built by doubling with numpy slice XORs, and
    f* at a table of points XORs one lookup in such a table per 8-bit chunk
    of the points (`bind_points`) where len(f) <= 64 and there are at least
    64 points; fewer points, or a longer f, which check_strength asks for
    only past a 2^32-entry mu(5) table, take the bind_at loop.  Each
    entry is an XOR of masks of T(dst), all below 2^dst, so the table is held
    in the narrowest unsigned dtype that holds 2^dst - 1 (uint8 up to dst 8),
    and f* into dst > 62 is an array of exact Python ints instead; mu(n) has
    2^(2^n) entries, so it is only ever built at small n, where its masks are
    far below 2^63.  An f whose entry is not a mask of T(dst) is refused with
    StructuralError, never truncated.

    Its EM law is decided at support 2.  Write P in T(T(Y)) as a set
    {p_1, ..., p_m} of masks; the law is s(+{s(p_i)}) = s(+p_i), with + the
    XOR and {y} the delta mask of y.  At m = 0 both sides are s(0), and at
    m = 1 the law is the unit law s({s(p)}) = s(p).  For m >= 3, put
    q = p_1 + ... + p_{m-1} and r = {s(p_1)} + ... + {s(p_{m-1})}; by
    induction s(q) = s(r).  The law at the point {q, p_m} of support 2 gives
    s(q + p_m) = s({s(q)} + {s(p_m)}), and since s(q) = s(r) and
    s({s(p_m)}) = s(p_m), the law at {r, {s(p_m)}} turns that into
    s(r + {s(p_m)}), the left side at P.  Where the two masks of such a pair
    coincide, both sides are s(0).
    """

    ambient = CartesianProduct
    name = "freevec2"
    em_law_support = 2

    def t_size(self, n: int) -> int:
        return 1 << n

    def eta(self, n: int) -> tuple[int, ...]:
        return tuple(1 << x for x in range(n))

    def bind(self, f, dst: int):
        # doubling: the masks that contain x are those without it, XORed with f[x]
        table = np.zeros(1 << len(f), dtype=np.min_scalar_type((1 << dst) - 1) if dst <= 62 else object)
        for x, mask in enumerate(map(operator.index, f)):
            if not 0 <= mask < 1 << dst:
                raise StructuralError(f"f* into T({dst}) needs masks below 2^{dst}, and f[{x}] is {mask}")
            table[1 << x:2 << x] = table[:1 << x] ^ mask
        return table

    def bind_at(self, f, dst: int, p: int) -> int:
        out = 0
        while p:
            low = p & -p
            out ^= f[low.bit_length() - 1]
            p ^= low
        return out

    def bind_points(self, f, dst: int, points):
        """f* at each entry of the table points, batched where len(f) <= 64 and there are 64 points or more.

        f*(p) XORs, over the 8-bit chunks of p, held as a little-endian uint64 whose byte c is its bits 8c to
        8c + 7, the f* table of the chunk's 8 masks read at the chunk's bits.  Each table comes from bind, so
        its entries stay exact past 2^64.  Fewer than 64 points, where numpy's fixed cost per call outweighs
        the bind_at calls it saves, a longer f, a mask of f outside T(dst) or a point outside T(X) is left to
        the bind_at loop, which answers or raises there as bind_at does.
        """
        n = len(f)
        try:  # a negative point, or one past 2^64, lies outside T(X) for n <= 64
            held = np.asarray(points, dtype="<u8")
        except OverflowError:
            return super().bind_points(f, dst, points)
        masks_inside = not n or min(f) >= 0 and operator.index(max(f)) >> dst == 0
        if n > 64 or len(held) < 64 or not masks_inside or int(held.max()) >> n:
            return super().bind_points(f, dst, points)
        out = self.bind((), dst).take(np.zeros(len(held), dtype=np.intp))  # f*(0) = 0, in the dtype of bind's tables
        for low, chunk in zip(range(0, n, 8), held.view(np.uint8).reshape(-1, 8).T):
            out ^= self.bind(f[low:low + 8], dst).take(chunk)
        return out

    def theta(self, x: int, y: int) -> tuple[int, ...]:
        # row a is the masks of T(y) shifted into block a, in one pass: uint64 while x * y <= 64, else Python ints
        if not x:
            return ()
        dtype = np.uint64 if x * y <= 64 else object
        rows = np.arange(1 << y, dtype=dtype) << (np.arange(x, dtype=dtype)[:, None] * y)
        return tuple(rows.ravel().tolist())


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
    free algebra (T(n), mu_n): its two sides, which read mu_n and
    mu_{T(n)}, are evaluated once at each carrier checked, and its
    violations are itemized from that evaluation.
    The walk over carriers stops at the first carrier n >= 1 whose T(T(n))
    is past the budget.  A max_size that is not a nonnegative integer
    raises StructuralError.
    """
    max_size = _count(max_size, "a bound")
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
        violations += _mismatches("monad_associativity", (n,), *monad._em_law_sides(tn, monad.mu(n)))
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


def _orbit(table, carrier: int, move, budget: int) -> dict[tuple[int, ...], Optional[tuple]]:
    """The relabeling orbit of table, each member mapped to its breadth-first (parent, generator), the start to None.

    Relabeling a table t: D(Y) -> Y along a bijection perm gives
    perm . t . move(perm)^-1, two table gathers.  The orbit is closed
    breadth-first under the transposition (0 1) and the cycle i -> i+1 mod
    carrier, which generate the symmetric group; each generator's move is
    inverted, and its position gather built, once per orbit, and the swap is
    not applied to a member the swap produced, which would give back its
    parent.  Since move is a functor, relabeling a member reached by perm
    along gen gives the member reached by gen . perm, so the work is
    proportional to the orbit, not carrier!, and walking a member's parents
    composes the bijection that produces it (`_isomorphic`).
    """
    start = tuple(table)
    orbit: dict[tuple[int, ...], Optional[tuple]] = {start: None}
    if carrier < 2:
        return orbit
    # gather(*f)(g) is compose(g, f); itemgetter of fewer than two indices does not return a tuple
    gather = operator.itemgetter if len(start) > 1 else lambda *f: functools.partial(compose, f=f)
    swap = (1, 0) + tuple(range(2, carrier))
    cycle = tuple(range(1, carrier)) + (0,)
    generators = []
    for gen in (swap, cycle):
        moved = move(gen)
        generators.append((gen, gather(*sorted(range(len(moved)), key=moved.__getitem__))))  # moved^-1
    after_swap = generators[1:]
    queue = [start]
    for current in queue:
        link = orbit[current]
        for gen, back in after_swap if link is not None and link[1] is swap else generators:
            image = gather(*back(current))(gen)
            if image not in orbit:
                orbit[image] = (current, gen)
                if len(orbit) > budget:
                    _guard(len(orbit), budget, f"relabeling orbit at carrier {carrier}")
                queue.append(image)
    return orbit


def _isoclasses(route, carriers: range, budget: int) -> dict[int, dict]:
    """Per carrier, each member of the orbits met among the route's lawful tables, mapped to its orbit's least table.

    route(carrier) is (fill, move, law, ...) on the carrier: fill(budget) lists the candidate tables and
    move(perm) is D(perm).  law(table) is only asked about tables outside the orbits found so far: a
    relabeling of a lawful table can only add its isoclass again.  Only the members of each `_orbit` are
    read, not their parents.  The orbits are kept, so a later isomorphism test against a found isoclass is
    one lookup.  This is the one classification loop of both routes, and it reads neither route's
    definition.
    """
    classes = {}
    for carrier in carriers:
        fill, move, law, *_ = route(carrier)
        members = classes[carrier] = {}
        for table in fill(budget):
            if table not in members and law(table):
                orbit = _orbit(table, carrier, move, budget)
                members.update(dict.fromkeys(orbit, min(orbit)))
    return classes


def _representatives(classes: dict[int, dict]) -> list[tuple[int, tuple[int, ...]]]:
    """(carrier, least table) for each isoclass of an _isoclasses map, by carrier, then by table."""
    return [(carrier, canon) for carrier, members in classes.items() for canon in sorted(set(members.values()))]


def _isomorphic(route, domain, a: tuple, b: tuple, budget: int) -> Optional[tuple[int, ...]]:
    """A bijection of the carrier that relabels the table of a into the table of b, or None if there is none.

    a and b are (carrier, table) pairs.  route(carrier) is (fill, move, law, ...) on the carrier, and its
    fill is never entered.  Each carrier must be nonnegative, checked before domain sizes it, and each
    table must have domain(carrier) entries, all below its carrier, else StructuralError.  Tables on
    different carriers, or whose sorted preimage sizes differ, are answered None before any orbit is
    built: a relabeling moves the preimage of y onto the preimage of perm(y) along the bijection
    move(perm), so it keeps that multiset.  Otherwise the witness is the composite of the
    generators on the path of parents from b back to a in the relabeling orbit of a.
    """
    for carrier, table in (a, b):
        if carrier < 0:
            raise StructuralError(f"a table needs a nonnegative carrier, not {carrier}")
        if len(table) != domain(carrier) or not set(table) <= set(range(carrier)):
            raise StructuralError(f"a table on carrier {carrier} needs {domain(carrier)} entries below {carrier}")
    sizes_a, sizes_b = (sorted(collections.Counter(table).values()) for _, table in (a, b))
    if a[0] != b[0] or sizes_a != sizes_b:
        return None
    orbit, member = _orbit(a[1], a[0], route(a[0])[1], budget), tuple(b[1])
    if member not in orbit:
        return None
    perm = identity_table(a[0])
    while orbit[member] is not None:
        member, gen = orbit[member]
        perm = compose(perm, gen)
    return perm


def _free_generators(classes: dict[int, dict], free_size, free_table) -> dict[tuple[int, ...], int]:
    """The least table of each isoclass in classes that holds a free object, mapped to the least such n.

    classes is an _isoclasses map, each carrier to its orbit members; the free object on n has carrier
    free_size(n) and table free_table(n).  An isoclass holds it exactly when that table lies in the
    isoclass's orbit, which the map already holds, so each free table is built once per (carrier, n), for
    n up to carrier + 1 and only at a carrier with an isoclass, and matched by one lookup.  A table of an
    isoclass names its carrier too, as the unit law makes it onto 0..carrier-1.  Both routes ask this
    with their own free objects, so they share the lookup only, as they share `_isoclasses`.
    """
    free: dict[tuple[int, ...], int] = {}
    for carrier, members in classes.items():
        for n in range(carrier + 2) if members else ():
            if free_size(n) == carrier and (canon := members.get(free_table(n))) is not None:
                free.setdefault(canon, n)
    return free


def _em_law_support(monad: FiniteMonad) -> Optional[int]:
    """The `em_law_support` that the monad's own class declares, or None.

    It is read from the class's own namespace, never inherited: a subclass that overrides an evaluator
    may break the proof, so it keeps the whole-table law unless it declares one itself.  A declaration
    that is not an integer from 0 to 2, the supports of the EM fill's points, a bool or a float among
    them, raises StructuralError.
    """
    support = vars(type(monad)).get("em_law_support")
    if support is not None and (isinstance(support, bool) or not isinstance(support, (int, np.integer))
                                or not 0 <= support <= 2):
        raise StructuralError(f"{type(monad).__name__}.em_law_support is {support}, outside 0 to 2")
    return support


def _em_route(monad: FiniteMonad, carrier: int, budget: int):
    """The EM route on the carrier Y as (fill, move, law): its EM fill, relabeling move perm -> T(perm) and law.

    fill(budget) is the monad's EM fill on Y, `em_structure_candidates`, looked up here and entered only
    when called; it holds the |T(Y)| entries of its structure tables to the budget, and every table it
    yields fixes each unit point, s . eta_Y = id_Y.  Where the monad's class declares its
    `em_law_support`, the fill's points and the unit law decide the EM law, so law(s) holds and does no
    work; no T(T(Y)) table is sized or built.  Otherwise law(s) guards the T(T(Y)) table, then holds when
    s . T(s) = s . mu_Y, a plain comparison of the two whole tables (`_em_law_sides`), which builds the
    mu_Y table it reads.  The route reads the monad's evaluators only.
    """
    def move(perm) -> tuple[int, ...]:
        return monad.t_mor(perm, carrier)

    fill = functools.partial(monad.em_structure_candidates, carrier)
    if _em_law_support(monad) is not None:
        return fill, move, lambda structure: True
    held = _table_size(monad, monad.t_size(carrier), budget)

    def law(structure) -> bool:
        _guard(held, budget, f"algebra axiom tables at carrier {carrier}")
        return not _mismatches("em_law", (carrier,), *monad._em_law_sides(carrier, structure))

    return fill, move, law


def _em_algebras(monad: FiniteMonad, classes: dict[int, dict]) -> list[EmAlgebra]:
    return [EmAlgebra(monad.name, carrier, canon) for carrier, canon in _representatives(classes)]


def enumerate_em_algebras(
    monad: FiniteMonad, max_carrier: int, budget: int = DEFAULT_BUDGET
) -> list[EmAlgebra]:
    """All structure maps satisfying both algebra axioms, one per isoclass.

    Deduplication is up to carrier relabeling: each isoclass's relabeling orbit
    is built once, from two generators of the symmetric group, so its cost is
    proportional to the orbit's size rather than carrier!.  The representative
    is the orbit's least structure table.  A candidate of the monad's EM fill
    in the orbit of an algebra already found is skipped before its law is
    asked, since it could only add that algebra again.  A monad whose class
    declares its `em_law_support` has its EM law decided by the fill's
    points and the unit law; any other has it checked by comparing its two
    sides on the whole T(T(Y)) table, for every candidate that reaches it.
    A structure table T(Y), which the fill holds to the budget before it
    fills the carrier, an undeclared monad's T(T(Y)) table, or an orbit,
    larger than the budget raises BudgetExceededError, and a max_carrier
    that is not a nonnegative integer raises StructuralError.
    """
    max_carrier = _count(max_carrier, "a bound")
    route = functools.partial(_em_route, monad, budget=budget)
    return _em_algebras(monad, _isoclasses(route, range(max_carrier + 1), budget))


def free_algebra(monad: FiniteMonad, n: int, budget: int = DEFAULT_BUDGET) -> EmAlgebra:
    """Free algebra on an n-element set: carrier T(n), structure map mu.

    An n that is not a nonnegative integer raises StructuralError, and a
    mu(n) table of more than budget entries raises BudgetExceededError
    before it is built.
    """
    n = _count(n, "the number of generators of a free algebra",
               "a free algebra needs a nonnegative number of generators, not {value}")
    tn = monad.t_size(n)
    _guard(_table_size(monad, tn, budget), budget, f"free algebra on {n} generators")
    return EmAlgebra(monad.name, tn, _ints(monad.mu(n)))


def em_isomorphic(
    monad: FiniteMonad, a: EmAlgebra, b: EmAlgebra, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """A carrier bijection commuting with the structure maps, or None if there is none.

    Algebras whose structure maps have different sorted preimage sizes are
    answered None before any orbit is built.  Otherwise the witness is the
    bijection on the path of parents from b back to a in the relabeling
    orbit of a, not necessarily the lexicographically first one.  A
    negative carrier, or a structure table that does not map T(Y) into its
    carrier Y, raises StructuralError, and an orbit, when one is built,
    larger than budget raises BudgetExceededError.
    """
    route = functools.partial(_em_route, monad, budget=budget)
    return _isomorphic(route, monad.t_size, (a.carrier, a.structure), (b.carrier, b.structure), budget)


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
    Where the monad's declared `em_law_support` decided an isoclass on a
    carrier whose T(T(Y)) is past the budget, the note gains a sentence that
    says so (`_reduction_note`).  A max_carrier that is not a nonnegative
    integer raises StructuralError.
    """
    max_carrier = _count(max_carrier, "a bound")
    route = functools.partial(_em_route, monad, budget=budget)
    classes = _isoclasses(route, range(max_carrier + 1), budget)
    algebras = _em_algebras(monad, classes)
    applicable = len(algebras) >= 2
    probed: dict[int, dict] = {}
    for carrier in range(max_carrier + 1, max_carrier + 1 + STAR_PROBE_EXTRA) if not applicable else ():
        # one carrier at a time, so the isoclasses of the carriers probed before a budget error are kept
        try:
            probed |= _isoclasses(route, range(carrier, carrier + 1), budget)
        except BudgetExceededError:
            break
    applicable = len(algebras) + len(_representatives(probed)) >= 2
    free = _free_generators(classes, monad.t_size, lambda n: free_algebra(monad, n, budget).structure)
    counterexample = next((alg for alg in algebras if alg.structure not in free), None)
    return AdjunctionVerdict(
        monad_name=monad.name,
        bound=max_carrier,
        applicable=applicable,
        isoclass_count=len(algebras),
        trivial_up_to_bound=counterexample is None if applicable else None,
        counterexample=counterexample,
        free_witnesses=tuple((alg, free[alg.structure]) for alg in algebras if alg.structure in free),
        note=_reduction_note(monad, classes | probed, budget),
    )


def _reduction_note(monad: FiniteMonad, classes: dict[int, dict], budget: int) -> str:
    """BOUNDED_NOTE, plus a sentence naming the carriers with an isoclass of classes whose EM law the
    monad's declared `em_law_support` decided where the whole T(T(Y)) table is past the budget.

    Only there does the verdict rest on the reduction alone: at any other carrier the whole-table law
    could have been checked.  validate_monad checks associativity only where T(T(T(n))) fits the
    budget, so the sentence says that too.
    """
    support = _em_law_support(monad)
    if support is None:
        return BOUNDED_NOTE
    carriers = [str(carrier) for carrier, members in classes.items()
                if members and _table_size(monad, monad.t_size(carrier), budget) > budget]
    if not carriers:
        return BOUNDED_NOTE
    return (f"{BOUNDED_NOTE}. At carrier{'s' * (len(carriers) > 1)} {', '.join(carriers)}, whose T(T(Y)) is past "
            f"the budget, the EM law was decided by the unit law and the law at the points of support <= {support} "
            f"({type(monad).__name__}.em_law_support), and validate_monad checks monad associativity only at sizes "
            "n whose T(T(T(n))) fits the budget")


def _points_evaluator(monad: FiniteMonad) -> Callable:
    """monad.bind_points where the class that defines its bind_at defines bind_points too, else the bind_at loop.

    A subclass that overrides bind_at alone, such as a mutant or a logging monad, would inherit a batched
    evaluator that never reads its bind_at, so it keeps the loop of `FiniteMonad.bind_points`.
    """
    owner = next(cls for cls in type(monad).__mro__ if "bind_at" in vars(cls))
    return monad.bind_points if "bind_points" in vars(owner) else functools.partial(FiniteMonad.bind_points, monad)


def check_strength(monad: FiniteMonad, max_size: int, budget: int = DEFAULT_BUDGET) -> ValidationReport:
    """Pointwise check of the four left-strength axioms on sizes <= max_size.

    Each law is compared at every point of its domain.  Each theta(a, b)
    table is built at most once per call, and so is each mu(Y) table of the
    strength_iii left side.  The left sides of strength_iv, strength_iii and
    strength_i are theta . (id_X (x) g) for g = eta_Y, mu_Y and theta_{Y,Z}:
    each is gathered as a whole table by the ambient's `whisker`, which
    never builds id_X (x) g, through the gather of g, built once for every X.
    The strength_iii right side
    mu_{X(x)Y} . T(theta_{X,Y}) . theta_{X,T(Y)} = theta_{X,Y}* . theta_{X,T(Y)}
    is f* for f = theta_{X,Y} at every point of the theta_{X,T(Y)} table, one
    `bind_points` call (`_points_evaluator`), so neither the mu(X (x) Y) nor
    the T(theta) table is built.  Each table is guarded where it is built:
    a theta, mu(Y) or eta(X (x) Y) table larger than the budget raises
    BudgetExceededError before it is built, naming the sizes of the first
    law that asks for it.  The points of each law are the entries of a
    theta table, so they are held to the budget too.  A max_size that is
    not a nonnegative integer raises StructuralError.
    """
    max_size = _count(max_size, "a bound")
    amb = monad.ambient
    violations: list[Violation] = []
    sizes = range(max_size + 1)
    key: tuple[int, ...] = ()  # the sizes of the law being checked, which `held` names

    def held(size: int, build: Callable, *args):
        """build(*args), a table of size entries, once size is found within the budget."""
        if size > budget:
            _guard(size, budget, f"strength tables at sizes ({', '.join(map(str, key))})")
        return build(*args)

    @functools.cache
    def theta(a: int, b: int):
        # theta(a, B) with B past max_size is read only as strength_iii's points and strength_i's whisker source,
        # which read an array of 8-byte unsigned ints as they read a tuple: past 4 096 entries, some 180 KB as
        # Python ints, it is held in one where its entries fit
        table = held(amb.tensor(a, monad.t_size(b)), monad.theta, a, b)
        if b > max_size and len(table) > 1 << 12:
            with contextlib.suppress(OverflowError):  # a negative entry, or one past 2^64, keeps the tuple
                table = array.array("Q", table)
        return table

    bind_points = _points_evaluator(monad)
    # the gathers of eta_Y, mu_Y and theta_{Y,Z}, each built once and applied for every X
    eta_gather = functools.cache(lambda y: _gather(monad.eta(y)))
    mu_gather = functools.cache(
        lambda y: _gather(_ints(held(_table_size(monad, monad.t_size(y), budget), monad.mu, y))))
    theta_gather = functools.cache(lambda y, z: _gather(theta(y, z)))

    for x in sizes:
        key = (x,)
        # theta at the unit object must be the identity on T(x)
        table = theta(amb.unit_size, x)
        violations += _mismatches("strength_ii", key, table, identity_table(len(table)))

    for x in sizes:
        for y in sizes:
            key, ty, xy = (x, y), monad.t_size(y), amb.tensor(x, y)
            theta_xy = theta(x, y)
            lhs, rhs = amb.whisker(theta_xy, x, eta_gather(y), ty), held(xy, monad.eta, xy)
            if lhs != rhs:
                violations += _mismatches("strength_iv", key, lhs, rhs)

            # the mu(Y) table, then the points of X (x) T(T(Y)) with the theta table over them
            lhs = amb.whisker(theta_xy, x, mu_gather(y), ty)
            # a batched right side is f* of masks of T(X (x) Y) in bind's dtype, which holds every entry of lhs
            violations += _mismatches("strength_iii", key, lhs, bind_points(theta_xy, xy, theta(x, ty)))

    def shape(y: int, z: int) -> tuple[int, int, int]:
        yz = amb.tensor(y, z)
        return z, yz, monad.t_size(yz)

    # per (y, z), found once for every x: z, y (x) z and |T(y (x) z)|
    shapes = [[shape(y, z) for z in sizes] for y in sizes]
    for x in sizes:
        for y in sizes:
            xy = amb.tensor(x, y)
            for z, yz, tyz in shapes[y]:
                key = (x, y, z)
                lhs, rhs = amb.whisker(theta(x, yz), x, theta_gather(y, z), tyz), theta(xy, z)
                if lhs != rhs:
                    violations += _mismatches("strength_i", key, lhs, rhs)

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
    T(X (x) Y), or a same-size component that is not bijective.  A
    max_size that is not a nonnegative integer raises StructuralError.
    """
    max_size = _count(max_size, "a bound")
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
    _, _, law, _ = _module_route(algebra, carrier)
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
    """The module route on the carrier Y as (fill, move, law, free action), its tables built once.

    fill(budget) lists, with no law, the action tables Y (x) A -> Y that extend the unit inclusion
    id_Y (x) unit: Y -> Y (x) A, and is entered only when called.  The free action id_Y (x) mult is the
    action of the free module when Y is a set of generators.  move(f) is f (x) id_A, the relabeling move at a
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

    def fill(budget: int) -> Iterator[tuple[int, ...]]:
        return _fill(amb.tensor(carrier, a), unit_inc, carrier, budget, f"module enumeration at carrier {carrier}")

    def law(action) -> bool:
        return compose(action, unit_inc) == ident and compose(action, move(action)) == compose(action, free)

    return fill, move, law, free


def enumerate_modules(
    algebra: MonoidAlgebra, max_carrier: int, budget: int = DEFAULT_BUDGET
) -> list[AlgebraModule]:
    """All right modules over the algebra, one per isoclass, carriers <= bound.

    This is the module-theoretic counterpart of the Eilenberg-Moore
    enumeration but runs entirely through the algebra's own fill, move and
    law, as `_module_route` states them, so the two routes share no verdict
    logic, only the classifier `_isoclasses` that keeps the least action table
    of each isoclass's orbit.  That orbit is built once per isoclass, at a cost
    proportional to its size rather than carrier!.  A max_carrier that is
    not a nonnegative integer raises StructuralError.
    """
    max_carrier = _count(max_carrier, "a bound")
    classes = _isoclasses(functools.partial(_module_route, algebra), range(max_carrier + 1), budget)
    return [AlgebraModule(carrier, canon) for carrier, canon in _representatives(classes)]


def free_module(algebra: MonoidAlgebra, n: int) -> AlgebraModule:
    """Free right module on an n-element set: carrier n (x) A, action id (x) mult, the free action of its route.

    An n that is not a nonnegative integer raises StructuralError.
    """
    n = _count(n, "the number of generators of a free module",
               "a free module needs a nonnegative number of generators, not {value}")
    return AlgebraModule(algebra.ambient.tensor(n, algebra.carrier), _module_route(algebra, n)[-1])


def module_isomorphic(
    algebra: MonoidAlgebra, m1: AlgebraModule, m2: AlgebraModule, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """A carrier bijection perm with perm . m1 = m2 . (perm (x) id_A), or None if there is none.

    Modules whose actions have different sorted preimage sizes are answered
    None before any orbit is built.  Otherwise the witness is the bijection
    on the path of parents from m2 back to m1 in the relabeling orbit of m1,
    not necessarily the lexicographically first one.  A negative carrier,
    or an action table that does not map Y (x) A into its carrier Y, raises
    StructuralError, and an orbit, when one is built, larger than budget
    raises BudgetExceededError.
    """
    route = functools.partial(_module_route, algebra)
    domain = functools.partial(algebra.ambient.tensor, b=algebra.carrier)
    return _isomorphic(route, domain, (m1.carrier, m1.action), (m2.carrier, m2.action), budget)


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
    in reach of check_adjunction_trivial, else DegenerateMonadError.  A
    max_carrier that is not a nonnegative integer raises StructuralError.
    """
    max_carrier = _count(max_carrier, "a bound")
    if not is_very_strong(monad, max_carrier).very_strong:
        raise StructuralError(f"the agreement check needs a very strong monad, and {monad.name} is not one")
    verdict = check_adjunction_trivial(monad, max_carrier, budget)
    if not verdict.applicable:
        raise DegenerateMonadError(
            f"{monad.name}: fewer than two algebra isoclasses within bound {max_carrier}"
        )
    algebra = algebra_from_strength(monad)
    classes = _isoclasses(functools.partial(_module_route, algebra), range(max_carrier + 1), budget)
    amb = algebra.ambient
    free = _free_generators(classes, lambda n: amb.tensor(n, algebra.carrier), lambda n: free_module(algebra, n).action)
    essential = all(canon in free for members in classes.values() for canon in members.values())
    return bool(verdict.trivial_up_to_bound) == essential


def _em_morphisms(monad: FiniteMonad, x: int, budget: int) -> Callable[[int], Iterator[tuple[int, ...]]]:
    """The search for the algebra morphisms f: T(x) -> T(y) between free algebras, as a function of y.

    It yields every such f in lexicographic order, as a `_fill` of f[0],
    f[1], ... with no unit whose check is the law: f(mu_x(p)) = mu_y(T(f)(p))
    at a point p of T(T(x)) is checked once f[mu_x(p)] and every entry of f
    that T(f)(p) depends on have a value; its right side mu_y(T(f)(p)) is
    f*(p), read through bind_at.  If
    p = T(incl)(q) for the inclusion incl of 0..k-1, then
    T(f)(p) = T(f . incl)(q) as T is a functor, so it depends on f below the
    least such k only.  That schedule, read off the small T(incl) tables, and
    mu_x = id*, read through bind_at, are built once, for every y, after mu_x
    is sized against the budget.  Every leaf of a search, and every point of
    the law it evaluates, counts against the budget, each count on its own.
    For a lawful monad the leaf count never binds first: the point
    p = eta_{T(x)}(i) has mu_x(p) = i and lies in the image of T(incl_{i+1}),
    so every value set at f[i] evaluates at least one point, and it is
    charged before the leaf it may end in.
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

        return _fill(tx, (), monad.t_size(y), budget, f"morphism search at sizes ({x}, {y})", holds)

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
    budget raises BudgetExceededError rather than returning False.  A
    max_size that is not a nonnegative integer raises StructuralError.
    """
    max_size = _count(max_size, "a bound")
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
