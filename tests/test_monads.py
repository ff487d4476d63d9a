import collections
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divalg as d
from divalg import monads as M
from divalg.errors import BudgetExceededError, DegenerateMonadError, StructuralError

from util import (
    XorSlip, addition_law_tables, addition_laws, doubling_mu, doubling_t_mor, is_associative,
    module_axioms_hold, s3_monoid_algebra, written_tensor_mor,
)


# ------------------------------------------------- brute-force test oracles
# EM structure tables T(Y) -> Y and module actions Y + A -> Y are function
# tables D(Y) -> Y; a bijection perm of Y moves them along move(perm), the
# bijection it induces on D(Y).  These oracles try every perm, unpruned.

def em_move(monad, carrier):
    return lambda perm: monad.t_mor(perm, carrier)


def module_move(algebra, carrier):
    # the algebras below all live on (FinSet, disjoint union): perm + id_A
    return lambda perm: tuple(perm) + tuple(range(carrier, carrier + algebra.carrier))


def commutes(perm, a, b, moved):
    """The defining equation of an isomorphism a -> b: perm . a = b . move(perm)."""
    return all(perm[a[p]] == b[moved[p]] for p in range(len(a)))


def composed(g, f):
    """Table of g after f, one entry at a time: the oracle for M.compose."""
    return tuple(g[v] for v in f)


def relabeled(table, perm, moved):
    out = [None] * len(table)
    for p, val in enumerate(table):
        out[moved[p]] = perm[val]
    return tuple(out)


def brute_canonical(table, carrier, move):
    return min(relabeled(table, perm, move(perm)) for perm in itertools.permutations(range(carrier)))


def brute_isomorphic(a, b, carrier, move):
    return any(commutes(perm, a, b, move(perm)) for perm in itertools.permutations(range(carrier)))


def brute_is_module(algebra, carrier, action):
    """Both right-module axioms on (FinSet, disjoint union), position by position."""
    a = algebra.carrier
    if any(action[y] != y for y in range(carrier)):
        return False
    # q indexes (Y + A) + A = Y + (A + A): act twice, or multiply in A and act once
    for q in range(carrier + 2 * a):
        twice = action[action[q]] if q < carrier + a else action[q - a]
        once = action[q] if q < carrier else action[carrier + algebra.mult[q - carrier]]
        if twice != once:
            return False
    return True


def with_relabelings(tables, carrier, move):
    """The tables plus two nontrivial relabelings of each, so isomorphic pairs are not all equal."""
    perms = [tuple(reversed(range(carrier))), tuple(range(1, carrier)) + (0,)] if carrier > 1 else []
    return tables + [relabeled(t, perm, move(perm)) for t in tables for perm in perms]


def assert_isomorphism_matches_brute_force(isomorphic, groups, move):
    """isomorphic(carrier, a, b) finds a witness exactly when the oracle does, and it commutes."""
    for carrier, tables in groups.items():
        carrier_move = move(carrier)
        for a, b in itertools.product(with_relabelings(tables, carrier, carrier_move), repeat=2):
            perm = isomorphic(carrier, a, b)
            assert (perm is not None) == brute_isomorphic(a, b, carrier, carrier_move), (a, b)
            if perm is not None:
                assert commutes(perm, a, b, carrier_move(perm))


@pytest.fixture(scope="module")
def maybe():
    return d.maybe_monad()


@pytest.fixture(scope="module")
def identity():
    return d.identity_monad()


@pytest.fixture(scope="module")
def exc2():
    return d.CoproductException(2)


@pytest.fixture(scope="module")
def freevec():
    return d.FreeVectorF2()


# -------------------------------------------------------------- monad laws

def test_monad_laws(maybe, identity, exc2, freevec):
    assert d.validate_monad(maybe, 7).passed
    assert d.validate_monad(identity, 5).passed
    assert d.validate_monad(exc2, 5).passed
    assert d.validate_monad(freevec, 2).passed


class BadFold(d.CoproductException):
    """mu with its last entry folded to 0 at carrier 0 for two marks."""

    def mu(self, n):
        table = list(super().mu(n))
        if n == 0 and self.marks == 2:
            table[-1] = 0
        return tuple(table)

    def bind_at(self, f, dst, p):
        return self.mu(dst)[self.t_mor(f, self.t_size(dst))[p]]


def test_broken_multiplication_is_reported():
    report = d.validate_monad(BadFold(2), 2)
    assert not report.passed
    assert any(v.axiom.startswith("monad_") for v in report.violations)


class SwapFold(d.CoproductException):
    """mu with the two marks swapped in both copies of S, so both unit laws fail at every carrier."""

    def mu(self, n):
        return tuple(2 * n + 1 - v if p >= n and v >= n else v for p, v in enumerate(super().mu(n)))

    def bind_at(self, f, dst, p):
        return self.mu(dst)[self.t_mor(f, self.t_size(dst))[p]]


# validate_monad(SwapFold(2), 1) as (axiom, index, lhs, rhs), with the two unit
# laws interleaved position by position
SWAP_FOLD_INTERLEAVED = [
    ("monad_unit_left", (0, 0), 1, 0),
    ("monad_unit_right", (0, 0), 1, 0),
    ("monad_unit_left", (0, 1), 0, 1),
    ("monad_unit_right", (0, 1), 0, 1),
    ("monad_associativity", (0, 0), 0, 1),
    ("monad_associativity", (0, 1), 1, 0),
    ("monad_associativity", (0, 4), 1, 0),
    ("monad_associativity", (0, 5), 0, 1),
    ("monad_unit_left", (1, 1), 2, 1),
    ("monad_unit_right", (1, 1), 2, 1),
    ("monad_unit_left", (1, 2), 1, 2),
    ("monad_unit_right", (1, 2), 1, 2),
    ("monad_associativity", (1, 1), 1, 2),
    ("monad_associativity", (1, 2), 2, 1),
    ("monad_associativity", (1, 5), 2, 1),
    ("monad_associativity", (1, 6), 1, 2),
]


def as_tuples(report):
    return [(v.axiom, v.index, v.lhs, v.rhs) for v in report.violations]


def test_monad_violations_come_law_by_law_within_each_carrier():
    law_order = ["monad_unit_left", "monad_unit_right", "monad_associativity"]
    grouped = sorted(SWAP_FOLD_INTERLEAVED, key=lambda v: (v[1][0], law_order.index(v[0])))
    assert grouped != SWAP_FOLD_INTERLEAVED
    assert as_tuples(d.validate_monad(SwapFold(2), 1)) == grouped


class Involution(d.FiniteMonad):
    """The writer monad Z/2 x - on (FinSet, cartesian product); its algebras are sets with an involution.

    Position m * n + x of T(n) is (m, x).  The law points of its EM fill have support 1.
    """

    ambient = M.CartesianProduct
    name = "involution"

    def t_size(self, n):
        return 2 * n

    def eta(self, n):
        return tuple(range(n))

    def bind_at(self, f, dst, p):
        m, x = divmod(p, len(f))
        image, v = divmod(f[x], dst)
        return (m ^ image) * dst + v


class RectangularBand(d.FiniteMonad):
    """T(X) = X x X, the free rectangular band: mu keeps the first entry of the first pair and the last of the last.

    Position a * n + b of T(n) is (a, b).  Its law points have support 2, at (0, 1) and (1, 0) of T(2),
    which the swap of 2 exchanges.
    """

    ambient = M.CartesianProduct
    name = "rectangular_band"

    def t_size(self, n):
        return n * n

    def eta(self, n):
        return tuple(x * n + x for x in range(n))

    def bind_at(self, f, dst, p):
        a, b = divmod(p, len(f))
        return f[a] // dst * dst + f[b] % dst


class ConstBind(d.FiniteMonad):
    """T(X) = X + 1 with every Kleisli extension constant at the added point, so g -> g* is not injective."""

    name = "const_bind"

    def t_size(self, n):
        return n + 1

    def eta(self, n):
        return tuple(range(n))

    def bind_at(self, f, dst, p):
        return dst


class ConstTwo(d.FiniteMonad):
    """T(X) = 2 with every Kleisli extension the identity, so g -> g* is onto the algebra morphisms but not injective."""

    name = "const_two"

    def t_size(self, n):
        return 2

    def eta(self, n):
        return (0,) * n

    def bind_at(self, f, dst, p):
        return p


def test_broken_free_vector_multiplication_is_reported():
    # both checks read the broken entry through XorSlip.bind_at, which flips the same bit as its mu table
    assert not d.validate_monad(XorSlip(), 2).passed
    assert as_tuples(d.check_strength(XorSlip(), 2)) == [
        ("strength_iii", (2, 1, 7), 2, 3),
        ("strength_iii", (2, 2, 5), 3, 2),
        ("strength_iii", (2, 2, 21), 12, 8),
    ]


def monad_id(value):
    return f"{type(value).__name__}:{value.name}" if isinstance(value, d.FiniteMonad) else str(value)


def table_built_monad_laws(monad, max_size):
    """validate_monad as it was before its unit laws read mu through the point evaluator: every law on whole tables."""
    budget = M.DEFAULT_BUDGET
    violations = []
    for n in range(max_size + 1):
        tn = monad.t_size(n)
        ttn = M._table_size(monad, tn, budget)
        if ttn > budget:
            if n:
                break
            continue
        mu_n = monad.mu(n)
        ident = M.identity_table(tn)
        violations += M._mismatches("monad_unit_left", (n,), composed(mu_n, monad.t_mor(monad.eta(n), tn)), ident)
        violations += M._mismatches("monad_unit_right", (n,), composed(mu_n, monad.eta(tn)), ident)
        if M._table_size(monad, ttn, budget) > budget:
            continue
        lhs = composed(mu_n, monad.t_mor(mu_n, tn))
        violations += M._mismatches("monad_associativity", (n,), lhs, composed(mu_n, monad.mu(tn)))
    return violations


@pytest.mark.parametrize("monad,size", [
    (d.maybe_monad(), 7),
    *[(d.CoproductException(marks), 5) for marks in range(4)],
    *[(d.FreeVectorF2(), size) for size in range(5)],
    (SwapFold(2), 3),
    (XorSlip(), 4),
    (BadFold(2), 3),
], ids=monad_id)
def test_monad_laws_match_the_table_built_oracle(monad, size):
    assert list(d.validate_monad(monad, size).violations) == table_built_monad_laws(monad, size)


class CountingMu(d.FreeVectorF2):
    """freevec2 that counts its mu tables by carrier."""

    def __init__(self):
        self.mu_calls = collections.Counter()

    def mu(self, n):
        self.mu_calls[n] += 1
        return super().mu(n)


class CountingMaybeMu(d.CoproductException):
    """maybe that counts its mu tables by carrier."""

    def __init__(self):
        super().__init__(1, name="maybe")
        self.mu_calls = collections.Counter()

    def mu(self, n):
        self.mu_calls[n] += 1
        return super().mu(n)


def test_unit_laws_build_no_mu_table():
    # associativity is checked at carriers 0 to 2 only, where it reads mu(n) as the law's key and, inside the
    # law, mu(T(n)) = mu(2^n); the mu(T(n)) of one carrier is the mu(n) of the next, so mu(1) and mu(2) are
    # each built twice
    monad = CountingMu()
    assert d.validate_monad(monad, 4).passed
    assert monad.mu_calls == {0: 1, 1: 2, 2: 2, 4: 1}
    # maybe checks associativity at carriers 0 to 5, reading mu(n) and mu(n + 1)
    maybe = CountingMaybeMu()
    assert d.validate_monad(maybe, 5).passed
    assert maybe.mu_calls == {0: 1, **dict.fromkeys(range(1, 6), 2), 6: 1}
    # the unit laws on whole tables also built mu(3), and mu(4) a second time
    oracle = CountingMu()
    assert table_built_monad_laws(oracle, 4) == []
    assert oracle.mu_calls[4] == 2 and oracle.mu_calls[3] == 1


class CountingFreeVector(d.FreeVectorF2):
    def __init__(self):
        self.t_size_calls = 0

    def t_size(self, n):
        self.t_size_calls += 1
        return super().t_size(n)


def test_carrier_walk_stops_at_the_first_carrier_past_the_budget():
    # T(T(5)) has 2^32 points, so carriers 5 and up are past the budget whatever the bound
    calls = {}
    for bound in (4, 10, 400_000):
        monad = CountingFreeVector()
        assert as_tuples(d.validate_monad(monad, bound)) == []
        calls[bound] = monad.t_size_calls
    assert calls[10] == calls[400_000] <= 2 * M.DEFAULT_BUDGET.bit_length()
    assert calls[4] < calls[10]


# ------------------------------------------------------ the point evaluator

POINT_MONADS = [
    d.identity_monad(), d.maybe_monad(), d.CoproductException(2), d.CoproductException(3),
    d.FreeVectorF2(), BadFold(2), SwapFold(2), XorSlip(), Involution(), RectangularBand(),
]


@pytest.mark.parametrize("monad", POINT_MONADS, ids=monad_id)
def test_bind_at_is_mu_after_t_mor(monad):
    # f* = mu_dst . T(f) for every f: src -> T(dst), read off the mu and T(f) tables
    for src, dst in itertools.product(range(3), repeat=2):
        mu, t_dst = monad.mu(dst), monad.t_size(dst)
        for f in itertools.product(range(t_dst), repeat=src):
            t_f = monad.t_mor(f, t_dst)
            assert [monad.bind_at(f, dst, p) for p in range(len(t_f))] == [mu[q] for q in t_f], (src, dst, f)


@pytest.mark.parametrize("monad", [m for m in POINT_MONADS if not isinstance(m, SwapFold)], ids=monad_id)
def test_bind_at_is_the_bind_table(monad):
    # into dst 71, through units past 2^63 and the last point of T(71): freevec2's masks stay exact Python ints;
    # BadFold and XorSlip break mu only at carriers 0 and 2, so into 71 their bind_at is the inherited table,
    # while SwapFold swaps the marks of mu at every carrier
    eta = monad.eta(71)
    values = [eta[x] for x in (0, 1, 2, 62, 63, 64, 70)] + [monad.t_size(71) - 1]
    for src in range(4):
        for f in itertools.product(values, repeat=src):
            table = monad.bind(f, 71)
            assert tuple(monad.bind_at(f, 71, p) for p in range(len(table))) == tuple(table)


class LoggedTable:
    """A table of the given values that logs which of its entries are read."""

    def __init__(self, values):
        self.values = tuple(values)
        self.read = set()

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.read.add(range(len(self.values))[i])
        return self.values[i]


@pytest.mark.parametrize("monad", POINT_MONADS, ids=monad_id)
def test_bind_at_reads_the_same_entries_whatever_their_values(monad):
    # no search relies on this, as _em_morphisms schedules each law point by functoriality; it pins that
    # the entries of f a point evaluator reads are fixed by the point alone
    for src in range(4):
        for p in range(monad.t_size(src)):
            reads = []
            for values in ((0,) * src, (70, 0, 63)[:src]):
                f = LoggedTable(values)
                monad.bind_at(f, 71, p)
                reads.append(f.read)
            assert reads[0] == reads[1], (src, p)


def test_readme_writer_monad_needs_only_its_kleisli_triple():
    # the Library section's subclass of FiniteMonad, run as printed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    source = next(block.split("```")[0] for block in readme.split("```python\n") if "(d.FiniteMonad)" in block)
    namespace = {"d": d}
    exec(source, namespace)
    flip = namespace["Flip"]
    assert {name for name in vars(flip) if not name.startswith("__")} == {"ambient", "name", "t_size", "eta", "bind_at"}
    assert d.validate_monad(flip(), 4).passed
    # it is Z/2 x -, so its tables and algebras are those of Involution
    assert [flip().mu(n) for n in range(4)] == [Involution().mu(n) for n in range(4)]
    got, want = ([(a.carrier, a.structure) for a in d.enumerate_em_algebras(m, 4)] for m in (flip(), Involution()))
    assert got == want


# ------------------------------------------------------- table composition

@st.composite
def compositions(draw):
    """A table g and a table f of indices into g, each a tuple or a list; f may be empty or have one entry."""
    g = draw(st.lists(st.integers(-3, 9), max_size=6))
    f = draw(st.lists(st.integers(0, len(g) - 1), max_size=6)) if g else []
    return draw(st.sampled_from([tuple, list]))(g), draw(st.sampled_from([tuple, list]))(f)


@given(compositions())
@example(((), ()))
@example(([7], (0,)))
@example(((4, 5, 6), [2, 0, 2, 1]))
def test_compose_is_the_entrywise_composite(pair):
    g, f = pair
    assert M.compose(g, f) == composed(g, f)
    assert type(M.compose(g, f)) is tuple
    past = type(f)([*f, len(g)])  # one index past the end of g
    for compose in (M.compose, composed):
        with pytest.raises(IndexError):
            compose(g, past)


def as_int64(table):
    return np.array(table, dtype=np.int64)


@st.composite
def tensor_pairs(draw):
    """An ambient and f: X -> a_dst, g: Y -> b_dst, each a tuple, a list or an int64 array; X and Y may be empty."""
    ambient = draw(st.sampled_from([M.DisjointUnion, M.CartesianProduct]))
    a_dst, b_dst = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    f = draw(st.lists(st.integers(0, a_dst - 1), max_size=4)) if a_dst else []
    g = draw(st.lists(st.integers(0, b_dst - 1), max_size=4)) if b_dst else []
    form = st.sampled_from([tuple, list, as_int64])
    return ambient, draw(form)(f), draw(form)(g), a_dst, b_dst


@given(tensor_pairs())
@example((M.CartesianProduct, (), (1, 0, 1), 0, 2))
@example((M.DisjointUnion, (), [2, 0], 0, 3))
@example((M.CartesianProduct, (1, 0), (), 2, 3))
@example((M.DisjointUnion, [0, 2], (), 3, 1))
@example((M.CartesianProduct, [0, 2], as_int64([3, 0, 3]), 3, 4))
@example((M.DisjointUnion, (1,), as_int64([2, 2, 0]), 2, 3))
def test_tensor_and_whisker_are_the_written_out_tensor(case):
    ambient, f, g, a_dst, b_dst = case
    got = ambient.tensor_mor(f, g, a_dst, b_dst)
    assert type(got) is tuple and got == written_tensor_mor(ambient, f, g, a_dst, b_dst)
    # the whisker of a table on X (x) b_dst, X = len(f), is that table after id_X (x) g, read off distinct entries
    x = len(f)
    table = tuple(range(100, 100 + ambient.tensor(x, b_dst)))
    whiskered = ambient.whisker(table, x, g, b_dst)
    assert type(whiskered) is tuple
    assert whiskered == composed(table, written_tensor_mor(ambient, M.identity_table(x), g, x, b_dst))


# ------------------------------------------------------ backtracking kernel

VALUES = range(4)


@st.composite
def searches(draw):
    """A size, per-entry choices that may be empty or depend on earlier entries, and a holds reading t[:i + 1]."""
    size = draw(st.integers(0, 5))
    base = [sorted(draw(st.sets(st.sampled_from(VALUES)))) for _ in range(size)]
    shift, modulus = draw(st.integers(0, 3)), draw(st.integers(2, 5))
    step, rejected = draw(st.integers(0, 3)), draw(st.integers(0, 4))

    def choices(t, i):
        return [v for v in base[i] if (v + shift * sum(t[:i])) % modulus]

    def holds(t, i):
        return (sum(t[: i + 1]) + step * i) % 5 != rejected

    return size, choices, holds


def product_then_filter(size, choices, holds):
    """The tables of the search from every product of values, and the leaves of its tree, counted prefix by prefix."""
    def inside(prefix):
        t = list(prefix)
        return all(t[i] in choices(t, i) for i in range(len(t))) and all(holds(t, i) for i in range(len(t) - 1))

    tables = [p for p in itertools.product(VALUES, repeat=size) if inside(p) and (not size or holds(list(p), size - 1))]
    leaves = sum(
        1
        for n in range(1, size + 1)
        for p in itertools.product(VALUES, repeat=n)
        if inside(p) and (not holds(list(p), n - 1) or n == size or not choices(list(p), n))
    )
    return tables, leaves


@given(searches())
@settings(max_examples=200, deadline=None)
def test_backtrack_matches_product_then_filter(search):
    size, choices, holds = search
    tables, leaves = product_then_filter(size, choices, holds)
    assert list(M._backtrack(size, choices, holds, leaves, "test search")) == tables
    if leaves:
        with pytest.raises(BudgetExceededError, match=f"test search needs {leaves} entries, budget is {leaves - 1}"):
            list(M._backtrack(size, choices, holds, leaves - 1, "test search"))


def product_fill(size, unit, carrier):
    """The unit-template fill before it ran on _backtrack: a template, then every product of its free entries."""
    if carrier == 0:
        return [()] if size == 0 else []
    template = [-1] * size
    for x in range(carrier):
        if template[unit[x]] not in (-1, x):
            return []
        template[unit[x]] = x
    free = [p for p, v in enumerate(template) if v == -1]
    tables = []
    for values in itertools.product(range(carrier), repeat=len(free)):
        table = template.copy()
        for p, v in zip(free, values):
            table[p] = v
        tables.append(tuple(table))
    return tables


@pytest.mark.parametrize("monad", [d.identity_monad(), d.maybe_monad(), d.CoproductException(2)], ids=monad_id)
def test_unit_fills_match_the_product_fill(monad):
    algebra = d.algebra_from_strength(monad)
    for carrier in range(5):
        # the monads here live on (FinSet, disjoint union), so a module action is a table on Y + A
        dom = carrier + algebra.carrier
        unit_inc = M.DisjointUnion.tensor_mor(range(carrier), algebra.unit, carrier, algebra.carrier)
        em_fill = functools.partial(d.FiniteMonad.em_structure_candidates, monad, carrier)
        module_fill = functools.partial(M._unit_fills, dom, unit_inc, carrier, what="module fill")
        for size, unit, fill in [(monad.t_size(carrier), monad.eta(carrier), em_fill), (dom, unit_inc, module_fill)]:
            tables = product_fill(size, unit, carrier)
            assert list(fill(budget=len(tables))) == tables
            # a fill past its first entry charges exactly its number of tables
            if size and tables:
                with pytest.raises(BudgetExceededError, match=f"needs {len(tables)} entries"):
                    list(fill(budget=len(tables) - 1))


def test_a_unit_that_merges_points_leaves_no_fill():
    assert product_fill(3, (0, 0), 2) == []
    assert list(M._unit_fills(3, (0, 0), 2, M.DEFAULT_BUDGET, "fill")) == []


def test_module_fill_frontier():
    # carrier 4 over the two-element algebra of exception(2): four unit-fixed entries and 4^2 free fillings
    algebra = d.algebra_from_strength(d.CoproductException(2))
    assert len(d.enumerate_modules(algebra, 4, budget=16)) == len(d.enumerate_modules(algebra, 4))
    with pytest.raises(BudgetExceededError, match="module enumeration at carrier 4 needs 16 entries, budget is 15"):
        d.enumerate_modules(algebra, 4, budget=15)


# ------------------------------------------------------------- EM algebras

def test_maybe_algebras_are_pointed_sets(maybe):
    algebras = d.enumerate_em_algebras(maybe, 2)
    assert [(a.carrier, a.structure) for a in algebras] == [(1, (0, 0)), (2, (0, 1, 0))]


def test_identity_algebras_are_plain_sets(identity):
    algebras = d.enumerate_em_algebras(identity, 2)
    assert [(a.carrier, a.structure) for a in algebras] == [(0, ()), (1, (0,)), (2, (0, 1))]


def test_two_mark_exception_smallest_algebra(exc2):
    algebras = d.enumerate_em_algebras(exc2, 1)
    assert [(a.carrier, a.structure) for a in algebras] == [(1, (0, 0, 0))]


def test_freevec_algebras_have_power_of_two_carriers(freevec):
    algebras = d.enumerate_em_algebras(freevec, 3)
    assert [(a.carrier, a.structure) for a in algebras] == [(1, (0, 0)), (2, (0, 0, 1, 1))]


def test_freevec_structured_enumeration_matches_at_carrier_four(freevec):
    algebras = d.enumerate_em_algebras(freevec, 4)
    carriers = [a.carrier for a in algebras]
    assert carriers == [1, 2, 4]
    four = algebras[-1]
    assert d.em_isomorphic(freevec, four, d.free_algebra(freevec, 2)) is not None


def em_algebras_among(monad, carrier, candidates):
    """The candidate structure tables that satisfy both algebra axioms, sorted."""
    mu = monad.mu(carrier)
    eta = monad.eta(carrier)
    valid = []
    for structure in candidates:
        if any(structure[eta[x]] != x for x in range(carrier)):
            continue
        t_structure = monad.t_mor(structure, carrier)
        if all(structure[t_structure[p]] == structure[mu[p]] for p in range(len(mu))):
            valid.append(structure)
    return sorted(valid)


def test_freevec_raw_structure_count_at_carrier_four(freevec):
    # labeled count oracle: one Klein law per identity choice, so four in total
    valid = em_algebras_among(freevec, 4, freevec.em_structure_candidates(4, M.DEFAULT_BUDGET))
    assert len(valid) == 4
    assert len(set(valid)) == 4


def unit_axiom_algebras(monad, carrier):
    """The oracle of the pruned fill: every unit-compatible table, then the full axiom check."""
    unit_axiom_only = M._unit_fills(monad.t_size(carrier), monad.eta(carrier), carrier, M.DEFAULT_BUDGET, "unit fill")
    return em_algebras_among(monad, carrier, unit_axiom_only)


@pytest.mark.parametrize("carrier", range(4))
def test_freevec_addition_laws_match_the_unit_axiom_generator(freevec, carrier):
    # the pairs of masks are freevec2's law points, so the pruned fill keeps exactly the algebras;
    # at carrier 4 the unit fill has 4^12 tables, and the addition-law oracle stands in for it
    assert sorted(freevec.em_structure_candidates(carrier, M.DEFAULT_BUDGET)) == unit_axiom_algebras(freevec, carrier)


# (monad, lawful, bound) for every builtin and test monad but freevec2 itself; the unit fills
# of XorSlip and RectangularBand at carrier 4 have 4^12 tables
PRUNED_FILL_MONADS = [
    (d.maybe_monad(), True, 4),
    (d.identity_monad(), True, 4),
    (d.CoproductException(2), True, 4),
    (d.CoproductException(3), True, 4),
    (BadFold(2), False, 4),
    (SwapFold(2), False, 4),
    (XorSlip(), False, 3),
    (Involution(), True, 4),
    (RectangularBand(), True, 3),
]


@pytest.mark.parametrize("monad,lawful,carrier", [
    (monad, lawful, carrier) for monad, lawful, bound in PRUNED_FILL_MONADS for carrier in range(bound + 1)
], ids=monad_id)
def test_pruned_fill_keeps_the_algebras_of_the_unit_axiom_generator(monad, lawful, carrier):
    assert d.validate_monad(monad, 2).passed == lawful
    pruned = list(monad.em_structure_candidates(carrier, M.DEFAULT_BUDGET))
    unit_fill = M._unit_fills(monad.t_size(carrier), monad.eta(carrier), carrier, M.DEFAULT_BUDGET, "unit fill")
    assert set(pruned) <= set(unit_fill)
    # the points checked are points of the law, so no algebra is lost, broken monads included;
    # for these lawful monads the points of support 1 and 2 leave nothing else
    algebras = unit_axiom_algebras(monad, carrier)
    assert em_algebras_among(monad, carrier, pruned) == algebras
    if lawful:
        assert sorted(pruned) == algebras


# The pruned fill's tables at freevec2 carrier 4, one per zero; the product generator that
# preceded the addition-law search (carrier^(C(4,2)+1) raw addition tables) gave them in this order
FREEVEC_CARRIER_FOUR = [
    (0, 0, 1, 1, 2, 2, 3, 3, 3, 3, 2, 2, 1, 1, 0, 0),
    (1, 0, 1, 0, 2, 3, 2, 3, 3, 2, 3, 2, 0, 1, 0, 1),
    (2, 0, 1, 3, 2, 0, 1, 3, 3, 1, 0, 2, 3, 1, 0, 2),
    (3, 0, 1, 2, 2, 1, 0, 3, 3, 0, 1, 2, 2, 1, 0, 3),
]


def test_freevec_candidates_at_carrier_four_match_the_product_generator(freevec):
    assert list(freevec.em_structure_candidates(4, M.DEFAULT_BUDGET)) == FREEVEC_CARRIER_FOUR


def is_f2_sum_table(table, carrier):
    """table is the F2-sum over subsets of an elementary abelian 2-group law on range(carrier)."""
    zero = table[0]

    def add(a, b):
        return zero if a == b else table[(1 << a) | (1 << b)]

    elements = range(carrier)
    group = (
        all(table[1 << x] == x and add(zero, x) == x for x in elements)
        and all(add(a, b) == add(b, a) for a in elements for b in elements)
        and all(add(add(a, b), c) == add(a, add(b, c)) for a in elements for b in elements for c in elements)
    )
    sums = all(
        table[mask] == add(table[mask & (mask - 1)], (mask & -mask).bit_length() - 1)
        for mask in range(1, 1 << carrier)
    )
    return group and sums


@pytest.mark.parametrize("carrier", [5, 6, 7])
def test_freevec_has_no_candidates_at_carriers_five_to_seven(freevec, carrier):
    assert list(freevec.em_structure_candidates(carrier, M.DEFAULT_BUDGET)) == []


def test_freevec_candidates_at_carrier_eight_are_the_vector_space_laws(freevec):
    # labeled F2^3 structures on 8 points: 8! / |GL(3, 2)| = 40320 / 168
    tables = list(freevec.em_structure_candidates(8, M.DEFAULT_BUDGET))
    assert len(tables) == len(set(tables)) == 240
    assert all(is_f2_sum_table(t, 8) for t in tables)


def test_addition_law_search_charges_every_leaf(freevec, monkeypatch):
    # The fill at carrier 3 sets the zero (mask 0), then masks 1 to 6 in index order (1, 2 and 4 by
    # the unit), then 7.  It ends in 17 leaves, all rejected values, as no group of order 3 has
    # exponent 2.  Zero 0: mask 3 rejects 0 and 2, mask 5 rejects 0 and 1, mask 6 all three (7).
    # Zero 1: mask 5 rejects all three below mask 3 = 0, then mask 3 rejects 1 and 2 (5).
    # Zero 2: mask 3 rejects 0 and 1, then mask 5 rejects all three below mask 3 = 2 (5).
    searches = []
    backtrack = M._backtrack
    monkeypatch.setattr(M, "_backtrack", lambda *search: searches.append(search) or backtrack(*search))
    assert list(freevec.em_structure_candidates(3, M.DEFAULT_BUDGET)) == []
    size, choices, holds, _, what = searches[0]
    assert list(backtrack(size, choices, holds, 17, what)) == []
    with pytest.raises(BudgetExceededError, match="structure-map enumeration at carrier 3 needs 17 entries, budget is 16"):
        list(backtrack(size, choices, holds, 16, what))
    # the law points, one per pair of masks of T(3), are held to the budget before the search starts
    with pytest.raises(BudgetExceededError, match="EM law points at carrier 3 needs 28 entries, budget is 27"):
        freevec.em_structure_candidates(3, 27)


def placed_value_addition_laws(carrier, budget):
    """The addition-law search before it ran on _backtrack: an explicit stack, every placed value charged."""
    full = (1 << carrier) - 1
    what = f"addition-law search at carrier {carrier}"
    nodes = 0
    laws = []
    for zero in range(carrier):
        add = [[zero] * carrier for _ in range(carrier)]
        used = [(1 << x) | (1 << zero) for x in range(carrier)]  # values taken in row x, as bits
        used[zero] = full
        for x in range(carrier):
            add[zero][x] = add[x][zero] = x
        pairs = [(a, b) for a, b in itertools.combinations(range(carrier), 2) if zero not in (a, b)]
        # depth-first over pairs: untried[i] holds the values left to try at pairs[i], placed[i] the one placed
        untried = [full & ~(used[a] | used[b]) for a, b in pairs[:1]]
        placed = []
        if not pairs and is_associative(add):
            laws.append((zero, add))
        while untried:
            i = len(untried) - 1
            a, b = pairs[i]
            if len(placed) > i:
                bit = placed.pop()
                used[a] ^= bit
                used[b] ^= bit
            if not untried[i]:
                untried.pop()
                continue
            bit = untried[i] & -untried[i]
            untried[i] ^= bit
            nodes += 1
            M._guard(nodes, budget, what)
            add[a][b] = add[b][a] = bit.bit_length() - 1
            used[a] |= bit
            used[b] |= bit
            placed.append(bit)
            if i + 1 < len(pairs):
                c, d = pairs[i + 1]
                untried.append(full & ~(used[c] | used[d]))
            elif is_associative(add):
                laws.append((zero, [row.copy() for row in add]))
    return laws


@pytest.mark.parametrize("carrier", range(8))
def test_addition_laws_match_the_placed_value_search(carrier):
    assert addition_laws(carrier, M.DEFAULT_BUDGET) == placed_value_addition_laws(carrier, M.DEFAULT_BUDGET)


@pytest.mark.parametrize("carrier", range(9))
def test_pruned_fill_finds_the_addition_laws(freevec, carrier):
    # freevec2's former bespoke search is the oracle; the fill knows no F2 theory
    pruned = list(freevec.em_structure_candidates(carrier, M.DEFAULT_BUDGET))
    assert sorted(pruned) == sorted(addition_law_tables(carrier, M.DEFAULT_BUDGET))


def filter_then_dedupe(monad, bound):
    """The EM enumeration that checks every candidate and then drops relabelings."""
    found = []
    for carrier in range(bound + 1):
        candidates = monad.em_structure_candidates(carrier, M.DEFAULT_BUDGET)
        valid = em_algebras_among(monad, carrier, candidates)
        canon = M._representatives(
            M._isoclasses(valid, carrier, em_move(monad, carrier), M.DEFAULT_BUDGET, lambda table: True)
        )
        found += [(carrier, s) for s in canon]
    return found


@pytest.mark.parametrize("monad,bound", [
    (d.maybe_monad(), 8),
    (d.identity_monad(), 6),
    (d.CoproductException(2), 7),
    (d.CoproductException(3), 6),
    (d.FreeVectorF2(), 4),
    (BadFold(2), 4),
    (SwapFold(2), 4),
], ids=["maybe", "identity", "exception2", "exception3", "freevec2", "bad_fold", "swap_fold"])
def test_orbit_skip_matches_filter_then_dedupe(monad, bound):
    got = [(a.carrier, a.structure) for a in d.enumerate_em_algebras(monad, bound)]
    assert got == filter_then_dedupe(monad, bound)


def test_axiom_table_is_built_once_per_orbit():
    class Counting(d.FreeVectorF2):
        structures = 0

        def t_mor(self, f, dst):
            if dst == 4 and len(f) == 16:
                Counting.structures += 1
            return super().t_mor(f, dst)

    counting = Counting()
    # the four carrier-4 candidates form one relabeling orbit
    got = d.enumerate_em_algebras(counting, 4)
    assert Counting.structures == 1
    assert got == d.enumerate_em_algebras(d.FreeVectorF2(), 4)


class CountingLaw(d.FreeVectorF2):
    """freevec2 that counts its mu(4) tables and the T(s) tables of 16-entry structures s on carrier 4."""

    def __init__(self):
        self.mu_four = self.t_structure = 0

    def mu(self, n):
        self.mu_four += n == 4
        return super().mu(n)

    def t_mor(self, f, dst):
        self.t_structure += dst == 4 and len(f) == 16
        return super().t_mor(f, dst)


def test_free_algebra_law_is_checked_once_per_monad():
    # associativity at 2 is the EM law of the free algebra (T(2), mu_2), the one algebra accepted at carrier 4
    monad = CountingLaw()
    assert d.validate_monad(monad, 4).passed
    assert (monad.mu_four, monad.t_structure) == (1, 1)
    assert d.check_adjunction_trivial(monad, 4).trivial_up_to_bound is True
    assert (monad.mu_four, monad.t_structure) == (1, 1)


def test_em_route_law_checks_the_unit_law_before_the_em_law():
    # the constant structure on maybe's carrier 2 satisfies s . T(s) = s . mu_2 but sends eta(1) to 0, not 1
    monad = d.maybe_monad()
    _, law = M._em_route(monad, 2, M.DEFAULT_BUDGET)
    assert law((0, 0, 0)) is False
    assert monad._em_law_verdicts == {}
    assert monad._em_law_holds(2, (0, 0, 0)) is True
    assert law((0, 1, 0)) is True


# (monad factory, validate_monad bound, EM enumeration bound); a factory, so that every run starts with no verdicts
LAW_MEMO_CASES = [
    (d.identity_monad, 5, 5),
    (d.maybe_monad, 5, 5),
    (functools.partial(d.CoproductException, 2), 4, 4),
    (functools.partial(d.CoproductException, 3), 4, 3),
    (d.FreeVectorF2, 4, 4),
    (functools.partial(SwapFold, 2), 3, 4),
    (XorSlip, 4, 4),
    (functools.partial(BadFold, 2), 3, 4),
    (Involution, 4, 4),
    (RectangularBand, 3, 3),
]


@pytest.mark.parametrize("validate_first", [True, False], ids=["validate_first", "enumerate_first"])
@pytest.mark.parametrize("make,size,bound", LAW_MEMO_CASES, ids=[monad_id(make()) for make, _, _ in LAW_MEMO_CASES])
def test_law_memo_never_changes_a_verdict(make, size, bound, validate_first):
    monad = make()
    steps = {
        "laws": lambda: list(d.validate_monad(monad, size).violations),
        "algebras": lambda: d.enumerate_em_algebras(monad, bound),
        "verdict": lambda: d.check_adjunction_trivial(monad, bound),
    }
    order = ["laws", "algebras", "verdict"] if validate_first else ["algebras", "verdict", "laws"]
    got = {step: steps[step]() for step in order}
    # the second validate_monad reads every associativity verdict from the memo and itemizes the same violations
    assert got["laws"] == steps["laws"]() == table_built_monad_laws(make(), size)
    assert got["algebras"] == d.enumerate_em_algebras(make(), bound)
    assert got["verdict"] == d.check_adjunction_trivial(make(), bound)


def low_bit_t_mor(f):
    """T(f) for freevec2 by the low-bit recurrence: a mask's image is its image without its low bit, plus one."""
    out = [0] * (1 << len(f))
    for mask in range(1, 1 << len(f)):
        low_bit = mask & -mask
        out[mask] = out[mask ^ low_bit] ^ (1 << f[low_bit.bit_length() - 1])
    return tuple(out)


def low_bit_mu(n):
    out = [0] * (1 << (1 << n))
    for mask in range(1, len(out)):
        low_bit = mask & -mask
        out[mask] = out[mask ^ low_bit] ^ (low_bit.bit_length() - 1)
    return tuple(out)


# images straddling 2^63, so T(f) holds entries past int64
WIDE_IMAGES = (0, 1, 2, 62, 63, 64, 70)


@pytest.mark.parametrize("src", range(6))
def test_doubling_t_mor_matches_low_bit_loop(freevec, src):
    for f in itertools.product(WIDE_IMAGES, repeat=src):
        assert tuple(freevec.t_mor(f, 71)) == low_bit_t_mor(f)


def test_doubling_mu_matches_low_bit_loop(freevec):
    # and the doubling on Python ints that the int64 table replaced
    for n in range(5):
        assert tuple(freevec.mu(n)) == low_bit_mu(n) == tuple(doubling_mu(n))


# T(f) into dst > 62 holds Python ints; images dst - 1 at 64 and 128 put 2^63 and 2^127 in the table
NUMPY_DOUBLING_DSTS = (1, 2, 3, 4, 5, 6, 61, 62, 63, 64, 128)


@pytest.mark.parametrize("dst", NUMPY_DOUBLING_DSTS)
def test_t_mor_matches_the_python_int_doubling(freevec, dst):
    # every f: k -> dst for k <= 4, its images in range(dst) up to 6 and in the two ends of it past that
    images = range(dst) if dst <= 6 else (0, 1, dst - 2, dst - 1)
    for k in range(5):
        for f in itertools.product(images, repeat=k):
            table = freevec.t_mor(f, dst)
            assert [int(v) for v in table] == doubling_t_mor(f)
            if dst > 62:
                assert all(type(v) is int for v in table)


def payload_leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in payload_leaves(item)]
    return [value]


def test_payloads_hold_python_ints_only():
    # every table leaves the library as Python ints, including law sides gathered by numpy
    report = d.validate_monad(XorSlip(), 2)
    assert any(v.axiom == "monad_associativity" for v in report.violations)
    freevec = d.FreeVectorF2()
    payloads = [report.to_payload(), d.algebra_from_strength(freevec).to_payload()]
    payloads += [d.free_algebra(freevec, n).to_payload() for n in range(5)]
    modules = d.enumerate_modules(d.algebra_from_strength(d.CoproductException(2)), 3)
    assert modules
    payloads += [module.to_payload() for module in modules]
    for payload in payloads:
        json.dumps(payload)
        assert {type(leaf) for leaf in payload_leaves(payload)} <= {int, bool, str, type(None)}
    # so do the memo keys, the structures of validate_monad's mu_n among them
    assert d.validate_monad(freevec, 4).passed and d.check_adjunction_trivial(freevec, 4).trivial_up_to_bound
    assert {type(v) for key in freevec._em_law_verdicts for v in key[1]} == {int}


def test_enumeration_budget(freevec):
    # carriers 5 to 7 have no candidate, so no axiom table is sized there; carrier 8 has 240, and the
    # first one needs the 2^256-entry T(T(8)) of the whole-table check
    assert [a.carrier for a in d.enumerate_em_algebras(freevec, 7)] == [1, 2, 4]
    with pytest.raises(BudgetExceededError, match=f"algebra axiom tables at carrier 8 needs {2**256} entries"):
        d.enumerate_em_algebras(freevec, 8)


def test_free_algebras(maybe, identity, freevec):
    assert d.free_algebra(maybe, 0) == d.EmAlgebra("maybe", 1, (0, 0))
    assert d.free_algebra(identity, 3).structure == (0, 1, 2)
    assert d.free_algebra(freevec, 1) == d.EmAlgebra("freevec2", 2, (0, 0, 1, 1))


def test_free_algebras_appear_in_enumeration(maybe, identity, exc2, freevec):
    for monad, bound in ((maybe, 4), (identity, 3), (exc2, 4), (freevec, 4)):
        algebras = d.enumerate_em_algebras(monad, bound)
        n = 0
        while monad.t_size(n) <= bound:
            free = d.free_algebra(monad, n)
            assert any(d.em_isomorphic(monad, free, a) is not None for a in algebras), (
                monad.name, n)
            n += 1


@pytest.mark.parametrize("marks,bound", [(1, 3), (2, 2), (0, 2)])
def test_enumeration_matches_unpruned_brute_force(marks, bound):
    """Oracle: filter every map T(Y) -> Y by both axioms, no pruning at all."""
    monad = d.CoproductException(marks)
    expected = []
    for carrier in range(bound + 1):
        tsize = monad.t_size(carrier)
        eta, mu = monad.eta(carrier), monad.mu(carrier)
        seen = set()
        if carrier == 0:
            if tsize == 0:
                seen.add(())
        else:
            for structure in itertools.product(range(carrier), repeat=tsize):
                if any(structure[eta[x]] != x for x in range(carrier)):
                    continue
                t_structure = monad.t_mor(structure, carrier)
                if any(structure[t_structure[p]] != structure[mu[p]]
                       for p in range(len(mu))):
                    continue
                seen.add(brute_canonical(structure, carrier, em_move(monad, carrier)))
        expected.extend((carrier, s) for s in sorted(seen))
    got = [(a.carrier, a.structure) for a in d.enumerate_em_algebras(monad, bound)]
    assert got == expected


def test_representative_does_not_depend_on_candidate_order():
    # the naive generators meet each orbit's least table first; this one does not
    class Reversed(d.CoproductException):
        def em_structure_candidates(self, carrier, budget):
            return reversed(list(super().em_structure_candidates(carrier, budget)))

    got = [(a.carrier, a.structure) for a in d.enumerate_em_algebras(Reversed(2), 4)]
    want = [(a.carrier, a.structure) for a in d.enumerate_em_algebras(d.CoproductException(2), 4)]
    assert got == want


@pytest.mark.parametrize("marks", [0, 1, 2])
def test_module_enumeration_matches_unpruned_brute_force(marks):
    """Oracle: filter every map Y + A -> Y by both module axioms, no pruning at all."""
    algebra = d.algebra_from_strength(d.CoproductException(marks))
    bound = 4
    expected = []
    for carrier in range(bound + 1):
        seen = {
            brute_canonical(action, carrier, module_move(algebra, carrier))
            for action in itertools.product(range(carrier), repeat=carrier + algebra.carrier)
            if brute_is_module(algebra, carrier, action)
        }
        expected.extend((carrier, s) for s in sorted(seen))
    got = [(m.carrier, m.action) for m in d.enumerate_modules(algebra, bound)]
    assert got == expected


# ---------------------------------------------------------- relabeling orbits

# four distinct mark values at carrier 5: only the identity fixes it, so its orbit is all of S_5
RIGID = (0, 1, 2, 3, 4, 0, 1, 2, 3)


def _orbit_cases():
    exc3 = d.CoproductException(3)
    freevec = d.FreeVectorF2()
    algebra = d.algebra_from_strength(d.CoproductException(2))
    cases = [(a.carrier, a.structure, em_move(exc3, a.carrier)) for a in d.enumerate_em_algebras(exc3, 5)]
    cases += [(a.carrier, a.structure, em_move(freevec, a.carrier)) for a in d.enumerate_em_algebras(freevec, 4)]
    cases += [(m.carrier, m.action, module_move(algebra, m.carrier)) for m in d.enumerate_modules(algebra, 5)]
    cases.append((5, RIGID, em_move(d.CoproductException(4), 5)))
    return cases


def test_orbit_is_every_relabeling_with_a_producing_bijection():
    sizes = {}
    for carrier, table, move in _orbit_cases():
        orbit = M._orbit(table, carrier, move, M.DEFAULT_BUDGET)
        perms = itertools.permutations(range(carrier))
        assert set(orbit) == {relabeled(table, perm, move(perm)) for perm in perms}, table
        for member, perm in orbit.items():
            assert sorted(perm) == list(range(carrier))
            assert relabeled(table, perm, move(perm)) == member
        sizes[table] = len(orbit)
    assert sizes[RIGID] == 120


def test_orbit_past_the_budget_raises():
    # five distinct mark values at carrier 6: an orbit of 6! = 720 tables
    monad = d.CoproductException(5)
    a = d.EmAlgebra(monad.name, 6, (0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4))
    b = d.EmAlgebra(monad.name, 6, (0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1))
    assert d.em_isomorphic(monad, a, b) is not None
    with pytest.raises(BudgetExceededError):
        d.em_isomorphic(monad, a, b, budget=100)


def test_a_given_budget_overrides_the_environment(monkeypatch):
    monkeypatch.setenv("DIVALG_BUDGET", "3")
    monad = d.CoproductException(5)
    a = d.EmAlgebra(monad.name, 6, (0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4))
    b = d.EmAlgebra(monad.name, 6, (0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1))
    # the library never reads the variable: a call without budget= holds DEFAULT_BUDGET
    assert d.em_isomorphic(monad, a, b) is not None
    assert d.em_isomorphic(monad, a, b, budget=720) is not None
    with pytest.raises(BudgetExceededError, match="orbit at carrier 6 needs 720 entries, budget is 719"):
        d.em_isomorphic(monad, a, b, budget=719)
    # the free module on three generators over T(1) of exception(2) has an orbit of 5! / 3! = 20 actions
    algebra = d.algebra_from_strength(d.CoproductException(2))
    free = d.free_module(algebra, 3)
    assert d.module_isomorphic(algebra, free, free, budget=20) is not None
    with pytest.raises(BudgetExceededError, match="orbit at carrier 5 needs 20 entries, budget is 19"):
        d.module_isomorphic(algebra, free, free, budget=19)
    # both verdicts pass their budget on to the isomorphism tests
    assert d.check_adjunction_trivial(d.maybe_monad(), 4, budget=100_000).trivial_up_to_bound is True
    assert d.check_mon_ess_agreement(d.CoproductException(2), 4, budget=100_000)


# ------------------------------------------------------------- isomorphism

@pytest.mark.parametrize("name,marks,bound", [
    ("maybe", None, 5), ("exception", 2, 5), ("exception", 3, 5), ("freevec2", None, 4),
])
def test_em_isomorphic_matches_brute_force(name, marks, bound):
    monad = d.builtin_monad(name, marks=marks)
    algebras = d.enumerate_em_algebras(monad, bound)
    algebras += [d.free_algebra(monad, n) for n in range(bound + 1) if monad.t_size(n) <= bound]
    groups = {}
    for alg in algebras:
        groups.setdefault(alg.carrier, []).append(alg.structure)

    def isomorphic(carrier, a, b):
        return d.em_isomorphic(monad, d.EmAlgebra(monad.name, carrier, a), d.EmAlgebra(monad.name, carrier, b))

    assert_isomorphism_matches_brute_force(isomorphic, groups, lambda carrier: em_move(monad, carrier))


@pytest.mark.parametrize("marks", [0, 1, 2])
def test_module_isomorphic_matches_brute_force(marks):
    algebra = d.algebra_from_strength(d.CoproductException(marks))
    bound = 5
    modules = d.enumerate_modules(algebra, bound)
    modules += [d.free_module(algebra, n) for n in range(bound + 1 - marks)]
    groups = {}
    for module in modules:
        groups.setdefault(module.carrier, []).append(module.action)

    def isomorphic(carrier, a, b):
        return d.module_isomorphic(algebra, d.AlgebraModule(carrier, a), d.AlgebraModule(carrier, b))

    assert_isomorphism_matches_brute_force(isomorphic, groups, lambda carrier: module_move(algebra, carrier))


def test_pointed_set_isomorphic_to_free(maybe):
    other_mark = d.EmAlgebra("maybe", 2, (0, 1, 0))
    free = d.free_algebra(maybe, 1)
    perm = d.em_isomorphic(maybe, other_mark, free)
    assert perm is not None


def test_size_mismatch_has_no_isomorphism(exc2):
    singleton = d.EmAlgebra(exc2.name, 1, (0, 0, 0))
    assert d.em_isomorphic(exc2, singleton, d.free_algebra(exc2, 0)) is None


def test_self_isomorphism(maybe):
    for algebra in d.enumerate_em_algebras(maybe, 3):
        assert d.em_isomorphic(maybe, algebra, algebra) is not None


def test_em_isomorphic_is_an_equivalence(maybe, exc2):
    for monad, bound in ((maybe, 4), (exc2, 3)):
        algebras = d.enumerate_em_algebras(monad, bound)
        raw = [d.free_algebra(monad, n) for n in range(bound)] + algebras
        raw = [a for a in raw if a.carrier <= bound]
        for a in raw:
            assert d.em_isomorphic(monad, a, a) is not None
        for a, b in itertools.product(raw, repeat=2):
            ab = d.em_isomorphic(monad, a, b)
            ba = d.em_isomorphic(monad, b, a)
            assert (ab is None) == (ba is None)
            if ab is not None:
                for c in raw:
                    bc = d.em_isomorphic(monad, b, c)
                    if bc is not None:
                        assert d.em_isomorphic(monad, a, c) is not None


# ------------------------------------------------------ adjunction verdicts

@pytest.mark.parametrize("bound", [1, 2, 4, 6, 7, 12])
def test_maybe_is_adjunction_trivial_at_every_bound(maybe, bound):
    verdict = d.check_adjunction_trivial(maybe, bound)
    assert verdict.applicable
    assert verdict.trivial_up_to_bound is True
    # one pointed set per carrier 1..bound, each matched to the free algebra on one element less
    assert verdict.isoclass_count == bound
    assert all(alg.carrier - 1 == gen for alg, gen in verdict.free_witnesses)
    for alg, gen in verdict.free_witnesses:
        free = d.free_algebra(maybe, gen)
        perm = d.em_isomorphic(maybe, alg, free)
        assert sorted(perm) == list(range(alg.carrier))
        assert commutes(perm, alg.structure, free.structure, maybe.t_mor(perm, alg.carrier))


def test_identity_is_adjunction_trivial(identity):
    verdict = d.check_adjunction_trivial(identity, 3)
    assert verdict.trivial_up_to_bound is True
    assert all(alg.carrier == gen for alg, gen in verdict.free_witnesses)


def test_applicability_probe_builds_each_carrier_once(identity, monkeypatch):
    # bound 0 holds one isoclass, the empty algebra, so applicability is probed at carriers 1 and 2 only
    built = []
    original = type(identity).em_structure_candidates

    def counting(self, carrier, budget):
        built.append(carrier)
        return original(self, carrier, budget)

    monkeypatch.setattr(type(identity), "em_structure_candidates", counting)
    verdict = d.check_adjunction_trivial(identity, 0)
    assert verdict.applicable
    assert verdict.trivial_up_to_bound is True
    assert built == [0, 1, 2]


@pytest.mark.parametrize("marks", [2, 3])
def test_multi_mark_exception_is_not_trivial(marks):
    verdict = d.check_adjunction_trivial(d.CoproductException(marks), 3)
    assert verdict.applicable
    assert verdict.trivial_up_to_bound is False
    assert verdict.counterexample is not None
    assert verdict.counterexample.carrier == 1


def test_freevec_is_trivial_up_to_four(freevec):
    verdict = d.check_adjunction_trivial(freevec, 4)
    assert verdict.trivial_up_to_bound is True


def test_degenerate_monad_is_flagged_inapplicable():
    class Terminal(d.FiniteMonad):
        name = "terminal"
        ambient = M.DisjointUnion

        def t_size(self, n):
            return 1

        def eta(self, n):
            return tuple(0 for _ in range(n))

        def bind_at(self, f, dst, p):
            return 0

    verdict = d.check_adjunction_trivial(Terminal(), 3)
    assert not verdict.applicable
    assert verdict.trivial_up_to_bound is None


def test_verdict_note_states_bounded_semantics(maybe):
    verdict = d.check_adjunction_trivial(maybe, 2)
    assert "bound" in verdict.note


# ----------------------------------------------------------------- strength

def test_maybe_strength_axioms(maybe):
    assert d.check_strength(maybe, 3).passed


def test_strength_unit_component_is_identity(maybe, freevec):
    for monad in (maybe, freevec):
        one = monad.ambient.unit_size
        for x in range(4):
            table = monad.theta(one, x)
            assert table == tuple(range(len(table)))


def test_freevec_strength_axioms(freevec):
    assert d.check_strength(freevec, 2).passed


def test_freevec_strength_budget(freevec):
    # strength_iii reads 1 668 points over the sizes up to 3; the mu(6) table at (2, 3) alone has 2^64 entries
    assert d.check_strength(freevec, 3).passed


class MarkSwap(d.CoproductException):
    def theta(self, x, y):
        table = list(super().theta(x, y))
        table[-1], table[-2] = table[-2], table[-1]
        return tuple(table)


def test_broken_strength_is_reported():
    report = d.check_strength(MarkSwap(2), 2)
    assert not report.passed
    assert {v.axiom for v in report.violations} <= {
        "strength_i", "strength_ii", "strength_iii", "strength_iv",
    }


class FirstLastSwap(d.CoproductException):
    """theta with its first and last positions swapped, so all four strength axioms fail."""

    def theta(self, x, y):
        table = list(super().theta(x, y))
        table[0], table[-1] = table[-1], table[0]
        return tuple(table)


def test_strength_violations_are_itemized_in_order():
    assert as_tuples(d.check_strength(FirstLastSwap(1), 1)) == [
        ("strength_ii", (1, 0), 1, 0),
        ("strength_ii", (1, 1), 0, 1),
        ("strength_iv", (0, 1, 0), 1, 0),
        ("strength_iii", (0, 1, 2), 0, 1),
        ("strength_iv", (1, 0, 0), 1, 0),
        ("strength_iii", (1, 0, 2), 0, 1),
        ("strength_iv", (1, 1, 0), 2, 0),
        ("strength_iii", (1, 1, 3), 0, 2),
        ("strength_i", (0, 0, 1, 0), 0, 1),
        ("strength_i", (0, 0, 1, 1), 1, 0),
        ("strength_i", (0, 1, 0, 0), 0, 1),
        ("strength_i", (0, 1, 0, 1), 1, 0),
        ("strength_i", (0, 1, 1, 0), 0, 2),
        ("strength_i", (0, 1, 1, 2), 2, 0),
        ("strength_i", (1, 0, 1, 1), 0, 1),
        ("strength_i", (1, 0, 1, 2), 1, 0),
        ("strength_i", (1, 1, 0, 1), 0, 1),
        ("strength_i", (1, 1, 0, 2), 1, 0),
        ("strength_i", (1, 1, 1, 1), 0, 1),
        ("strength_i", (1, 1, 1, 3), 1, 0),
    ]


def table_built_strength(monad, max_size):
    """check_strength as it was before point evaluators: every composite built as a whole table.

    Each id_X (x) g is the written-out `written_tensor_mor`, so the oracle shares no tensor with the ambients.
    """
    budget = M.DEFAULT_BUDGET
    amb = monad.ambient
    violations = []
    sizes = range(max_size + 1)

    def guard(key, *table_sizes):
        for size in table_sizes:
            M._guard(size, budget, f"strength tables at sizes ({', '.join(map(str, key))})")

    for x in sizes:
        guard((x,), amb.tensor(amb.unit_size, monad.t_size(x)))
        table = monad.theta(amb.unit_size, x)
        violations += M._mismatches("strength_ii", (x,), table, M.identity_table(len(table)))
    for x in sizes:
        for y in sizes:
            ty = monad.t_size(y)
            xy = amb.tensor(x, y)
            guard((x, y), amb.tensor(x, ty), xy)
            lhs = composed(monad.theta(x, y), written_tensor_mor(amb, M.identity_table(x), monad.eta(y), x, ty))
            violations += M._mismatches("strength_iv", (x, y), lhs, monad.eta(xy))
            tty = M._table_size(monad, ty, budget)
            txy = monad.t_size(xy)
            guard((x, y), tty, amb.tensor(x, tty), M._table_size(monad, txy, budget))
            guard((x, y), monad.t_size(amb.tensor(x, ty)))
            lhs = composed(monad.theta(x, y), written_tensor_mor(amb, M.identity_table(x), monad.mu(y), x, ty))
            rhs = composed(monad.mu(xy), composed(monad.t_mor(monad.theta(x, y), txy), monad.theta(x, ty)))
            violations += M._mismatches("strength_iii", (x, y), lhs, rhs)
    for x in sizes:
        for y in sizes:
            for z in sizes:
                tz = monad.t_size(z)
                tyz = monad.t_size(amb.tensor(y, z))
                guard((x, y, z), amb.tensor(x, tyz), amb.tensor(y, tz), amb.tensor(amb.tensor(x, y), tz))
                lhs = composed(
                    monad.theta(x, amb.tensor(y, z)),
                    written_tensor_mor(amb, M.identity_table(x), monad.theta(y, z), x, tyz),
                )
                violations += M._mismatches("strength_i", (x, y, z), lhs, monad.theta(amb.tensor(x, y), z))
    return violations


class LastRowFlip(d.FreeVectorF2):
    """theta(x, y) with bit 0 of its last entry flipped for x >= 2 and y >= 1: a wrong entry in its last row.

    At y = 0 the entry is the one mask of T(0), which has no other value to take.
    """

    def theta(self, x, y):
        table = super().theta(x, y)
        return table[:-1] + (table[-1] ^ 1,) if x >= 2 and y >= 1 else table


@pytest.mark.parametrize("monad,size", [
    *[(d.CoproductException(marks), 6) for marks in range(4)],
    (d.maybe_monad(), 6),
    (d.identity_monad(), 6),
    (d.FreeVectorF2(), 2),
    (MarkSwap(2), 3),
    (FirstLastSwap(1), 2),
    (XorSlip(), 2),
    # the oracle builds mu(X (x) Y), which at (2, 3) has 2^64 entries, so freevec2 stops at size 2
    (LastRowFlip(), 2),
], ids=monad_id)
def test_strength_matches_the_table_built_oracle(monad, size):
    assert list(d.check_strength(monad, size).violations) == table_built_strength(monad, size)


def test_the_cartesian_mutant_fails_every_whiskered_law():
    # the flipped row is gathered row by row into the left sides of strength_iv, strength_iii and strength_i
    assert {v.axiom for v in d.check_strength(LastRowFlip(), 2).violations} == {
        "strength_i", "strength_iii", "strength_iv",
    }


class CountingTheta(d.CoproductException):
    """exception(marks) that counts its theta tables by (x, y)."""

    def __init__(self, marks):
        super().__init__(marks)
        self.theta_calls = collections.Counter()

    def theta(self, x, y):
        self.theta_calls[x, y] += 1
        return super().theta(x, y)


def test_strength_builds_each_theta_table_once():
    # at size 8 the four axioms ask for theta 9 + 2 * 81 + 3 * 729 = 2 358 times, at 225 distinct (x, y)
    monad = CountingTheta(3)
    assert d.check_strength(monad, 8).passed
    assert len(monad.theta_calls) == 225
    assert set(monad.theta_calls.values()) == {1}


def test_missing_strength_raises():
    class Bare(d.FiniteMonad):
        name = "bare"

        def t_size(self, n):
            return n

        def eta(self, n):
            return tuple(range(n))

        def bind_at(self, f, dst, p):
            return f[p]

    with pytest.raises(StructuralError):
        d.check_strength(Bare(), 2)
    with pytest.raises(StructuralError):
        d.is_very_strong(Bare(), 2)
    with pytest.raises(StructuralError):
        d.algebra_from_strength(Bare())


def test_maybe_is_very_strong(maybe, identity, exc2):
    assert d.is_very_strong(maybe, 3).very_strong
    assert d.is_very_strong(identity, 3).very_strong
    assert d.is_very_strong(exc2, 3).very_strong


def test_freevec_is_not_very_strong(freevec):
    verdict = d.is_very_strong(freevec, 3)
    assert not verdict.very_strong
    assert verdict.reason == "cardinality"
    lhs = freevec.ambient.tensor(verdict.x_size, freevec.t_size(verdict.y_size))
    rhs = freevec.t_size(freevec.ambient.tensor(verdict.x_size, verdict.y_size))
    assert lhs == verdict.domain and rhs == verdict.codomain and lhs != rhs


class ConstantStrength(d.CoproductException):
    """The exception monad with every strength component constant at 0: same sizes, never a bijection."""

    def theta(self, x, y):
        return (0,) * self.ambient.tensor(x, self.t_size(y))


@pytest.mark.parametrize("marks,sizes", [(2, (0, 0)), (1, (0, 1))])
def test_same_size_strength_that_is_not_a_bijection_is_named(marks, sizes):
    # one mark gives |T(0)| = 1, where the constant table is a bijection, so the witness comes at (0, 1)
    verdict = d.is_very_strong(ConstantStrength(marks), 2)
    assert verdict.to_payload()["witness"] == {
        "x_size": sizes[0], "y_size": sizes[1], "domain": 2, "codomain": 2, "reason": "not_bijective",
    }


def test_freevec_cardinality_gap_at_three_one(freevec):
    # 3 * 2^1 = 6 maps versus 2^(3*1) = 8 masks
    assert freevec.ambient.tensor(3, freevec.t_size(1)) == 6
    assert freevec.t_size(freevec.ambient.tensor(3, 1)) == 8


# -------------------------------------------------- algebra from strength

def test_maybe_unit_algebra(maybe):
    algebra = d.algebra_from_strength(maybe)
    assert algebra.carrier == 1
    assert algebra.mult == (0, 0)
    assert algebra.unit == ()


def test_identity_unit_algebra(identity):
    algebra = d.algebra_from_strength(identity)
    assert algebra.carrier == 0
    assert algebra.mult == ()


def test_exception_unit_algebra_is_codiagonal(exc2):
    algebra = d.algebra_from_strength(exc2)
    assert algebra.carrier == 2
    assert algebra.mult == (0, 1, 0, 1)


def test_freevec_unit_algebra_is_f2_multiplication(freevec):
    algebra = d.algebra_from_strength(freevec)
    assert algebra.carrier == 2
    assert algebra.mult == (0, 0, 0, 1)
    assert algebra.unit == (1,)


def test_unit_algebra_carries_the_monad_ambient(maybe, freevec):
    for monad in (maybe, freevec):
        algebra = d.algebra_from_strength(monad)
        assert algebra.ambient is monad.ambient
        assert algebra.to_payload()["ambient"] == monad.ambient.kind


# ------------------------------------------------------- modules over T(1)

def test_module_enumeration_two_marks(exc2):
    algebra = d.algebra_from_strength(exc2)
    modules = d.enumerate_modules(algebra, 2)
    assert [(m.carrier, m.action) for m in modules] == [
        (1, (0, 0, 0)),
        (2, (0, 1, 0, 0)),
        (2, (0, 1, 0, 1)),
    ]
    free = d.free_module(algebra, 0)
    matches = [m for m in modules if d.module_isomorphic(algebra, m, free) is not None]
    assert [(m.carrier, m.action) for m in matches] == [(2, (0, 1, 0, 1))]


def test_free_modules_satisfy_module_axioms(exc2):
    algebra = d.algebra_from_strength(exc2)
    for n in range(3):
        free = d.free_module(algebra, n)
        assert module_axioms_hold(algebra, free.carrier, free.action)


@pytest.mark.parametrize("marks,expected", [(0, True), (1, True), (2, True)])
def test_monadic_essential_agreement(marks, expected):
    assert d.check_mon_ess_agreement(d.CoproductException(marks), 4) is expected


def test_agreement_subverdicts_for_two_marks(exc2):
    # both routes must individually say "not every object is free"
    verdict = d.check_adjunction_trivial(exc2, 3)
    assert verdict.trivial_up_to_bound is False
    algebra = d.algebra_from_strength(exc2)
    modules = d.enumerate_modules(algebra, 3)
    free_like = []
    for module in modules:
        gens = [n for n in range(module.carrier + 1)
                if n + algebra.carrier == module.carrier]
        free_like.append(any(
            d.module_isomorphic(algebra, module, d.free_module(algebra, n)) is not None
            for n in gens
        ))
    assert not all(free_like)


def test_agreement_rejects_other_monads(freevec):
    with pytest.raises(StructuralError, match="needs a very strong monad"):
        d.check_mon_ess_agreement(freevec, 2)


class Delegate(d.FiniteMonad):
    """exception(2) under a class of its own: very strong, but no CoproductException."""

    ambient = M.DisjointUnion
    name = "delegate"

    def __init__(self):
        self.inner = d.CoproductException(2)

    def t_size(self, n):
        return self.inner.t_size(n)

    def eta(self, n):
        return self.inner.eta(n)

    def bind_at(self, f, dst, p):
        return self.inner.bind_at(f, dst, p)

    def theta(self, x, y):
        return self.inner.theta(x, y)


@pytest.mark.parametrize("bound", range(1, 5))
def test_agreement_asks_for_a_very_strong_monad(bound):
    monad = Delegate()
    assert not isinstance(monad, d.CoproductException) and d.is_very_strong(monad, bound).very_strong
    assert d.check_mon_ess_agreement(monad, bound) is d.check_mon_ess_agreement(d.CoproductException(2), bound)


def test_agreement_on_a_degenerate_monad_raises(maybe):
    # within bound 0 maybe has no algebra, and the probe of carriers 1 and 2 meets the budget at its first
    # axiom table, so the adjunction verdict is not applicable
    assert not d.check_adjunction_trivial(maybe, 0, budget=2).applicable
    with pytest.raises(DegenerateMonadError, match="fewer than two algebra isoclasses within bound 0"):
        d.check_mon_ess_agreement(maybe, 0, budget=2)


class UnitSlip(d.CoproductException):
    """exception(2) whose strength at (T(0), 0) sends the second mark of one block to its first."""

    def __init__(self, block):
        super().__init__(2)
        self.block = block

    def theta(self, x, y):
        table = list(super().theta(x, y))
        if (x, y) == (self.marks, 0):
            table[2 * self.block + 1] = table[2 * self.block]
        return tuple(table)


@pytest.mark.parametrize("monad,mult,module_law", [
    (MarkSwap(2), (0, 1, 1, 0), False),  # the right factor acts by the swap: not associative, not left unital
    (UnitSlip(0), (0, 0, 0, 1), False),  # the left factor acts by a constant: not right unital
    (UnitSlip(1), (0, 1, 0, 0), True),  # associative and right unital, so only the left unit law fails
], ids=["markswap", "right-unit", "left-unit"])
def test_a_strength_product_that_is_no_monoid_is_refused(monad, mult, module_law):
    assert M.compose(M._ints(monad.mu(0)), monad.theta(2, 0)) == mult
    assert module_axioms_hold(d.MonoidAlgebra("T(1)", M.DisjointUnion, 2, mult, ()), 2, mult) is module_law
    with pytest.raises(StructuralError, match="induces a product that is not associative and unital"):
        d.algebra_from_strength(monad)


# the T(1) algebras of exception(0..3) and freevec2, S3 on (FinSet, x), and the refused products above
LAW_ALGEBRAS = {
    **{f"exception({m})": functools.partial(d.algebra_from_strength, d.CoproductException(m)) for m in range(4)},
    "freevec2": functools.partial(d.algebra_from_strength, d.FreeVectorF2()),
    "S3": s3_monoid_algebra,
    **{f"refused{mult}": functools.partial(d.MonoidAlgebra, "T(1)", M.DisjointUnion, 2, mult, ())
       for mult in ((0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0))},
}


@pytest.mark.parametrize("name", LAW_ALGEBRAS)
@pytest.mark.parametrize("carrier", range(3))
def test_module_route_law_is_the_module_axioms(name, carrier):
    # every action table Y (x) A -> Y, unit-compatible or not: 4 096 of them for S3 at carrier 2
    algebra = LAW_ALGEBRAS[name]()
    *_, law = M._module_route(algebra, carrier)
    for action in itertools.product(range(carrier), repeat=algebra.ambient.tensor(carrier, algebra.carrier)):
        assert law(action) is module_axioms_hold(algebra, carrier, action), action


def test_s3_acts_on_itself_on_the_right_only():
    # y.a := ya is a right module; y.a := ay is not, as S3 is not commutative, so a law that swaps the product
    # of the algebra would pass the left action and fail the right one
    s3 = s3_monoid_algebra()
    *_, law = M._module_route(s3, 6)
    left = tuple(s3.mult[a * 6 + y] for y in range(6) for a in range(6))
    assert left != s3.mult
    assert (module_axioms_hold(s3, 6, s3.mult), module_axioms_hold(s3, 6, left)) == (True, False)
    assert (law(s3.mult), law(left)) == (True, False)


def test_adjunction_check_builds_each_free_algebra_once(monkeypatch):
    # carriers 3 to 6 of exception(3) hold 5 isoclasses each, the ways to merge the 3 marks; the free
    # algebras on them are those on 0 to 3 generators
    built = []
    free_algebra = M.free_algebra
    monkeypatch.setattr(M, "free_algebra", lambda monad, n: built.append(n) or free_algebra(monad, n))
    verdict = d.check_adjunction_trivial(d.CoproductException(3), 6)
    assert collections.Counter(alg.carrier for alg in d.enumerate_em_algebras(d.CoproductException(3), 6)) == {
        1: 1, 2: 4, 3: 5, 4: 5, 5: 5, 6: 5,
    }
    assert sorted(built) == [0, 1, 2, 3]
    assert [n for _, n in verdict.free_witnesses] == [0, 1, 2, 3]


# ------------------------------------------- free objects matched by orbit lookup

def em_isomorphic_matching(monad, bound):
    """Free witnesses and first counterexample from em_isomorphic, which builds an orbit per test: the lookup's oracle."""
    witnesses, counterexample = [], None
    for alg in d.enumerate_em_algebras(monad, bound):
        sizes = [n for n in range(alg.carrier + 2) if monad.t_size(n) == alg.carrier]
        matched = next((n for n in sizes if d.em_isomorphic(monad, alg, d.free_algebra(monad, n)) is not None), None)
        if matched is not None:
            witnesses.append((alg, matched))
        elif counterexample is None:
            counterexample = alg
    return tuple(witnesses), counterexample


@pytest.mark.parametrize("monad,top", [
    (d.maybe_monad(), 8),
    (d.CoproductException(2), 7),
    (d.CoproductException(3), 6),
    (d.FreeVectorF2(), 4),
    (BadFold(2), 4),
    (SwapFold(2), 4),
], ids=monad_id)
def test_orbit_lookup_matches_em_isomorphic(monad, top):
    for bound in range(top + 1):
        verdict = d.check_adjunction_trivial(monad, bound)
        assert (verdict.free_witnesses, verdict.counterexample) == em_isomorphic_matching(monad, bound), bound


def modules_free_by_isomorphism(algebra, bound):
    """Whether every module is free, from module_isomorphic against each free module of its carrier."""
    for module in d.enumerate_modules(algebra, bound):
        sizes = [n for n in range(module.carrier + 2) if algebra.ambient.tensor(n, algebra.carrier) == module.carrier]
        if not any(d.module_isomorphic(algebra, module, d.free_module(algebra, n)) is not None for n in sizes):
            return False
    return True


@pytest.mark.parametrize("marks", range(4))
def test_module_orbit_lookup_matches_module_isomorphic(marks):
    monad = d.CoproductException(marks)
    algebra = d.algebra_from_strength(monad)
    for bound in range(1, 6):
        verdict = d.check_adjunction_trivial(monad, bound)
        if not verdict.applicable:
            continue
        expected = bool(verdict.trivial_up_to_bound) == modules_free_by_isomorphism(algebra, bound)
        assert d.check_mon_ess_agreement(monad, bound) is expected, bound


def counting_orbits(monkeypatch):
    calls = []
    orbit = M._orbit

    def counting(*args):
        calls.append(args[1])
        return orbit(*args)

    monkeypatch.setattr(M, "_orbit", counting)
    return calls


@pytest.mark.parametrize("monad,bound", [
    (d.maybe_monad(), 7),
    (d.CoproductException(2), 5),
    (d.FreeVectorF2(), 4),
], ids=monad_id)
def test_one_orbit_per_isoclass_per_verdict(monkeypatch, monad, bound):
    isoclasses = len(d.enumerate_em_algebras(monad, bound))
    calls = counting_orbits(monkeypatch)
    verdict = d.check_adjunction_trivial(monad, bound)
    assert verdict.applicable
    assert len(calls) == verdict.isoclass_count == isoclasses


def test_one_orbit_per_isoclass_in_the_agreement_check(monkeypatch, exc2):
    algebras = len(d.enumerate_em_algebras(exc2, 4))
    modules = len(d.enumerate_modules(d.algebra_from_strength(exc2), 4))
    calls = counting_orbits(monkeypatch)
    assert d.check_mon_ess_agreement(exc2, 4)
    assert len(calls) == algebras + modules


# ------------------------------------------------------ comparison functor

def test_comparison_fully_faithful_for_builtins(maybe, identity, exc2, freevec):
    for monad in (maybe, identity, exc2, freevec):
        assert d.check_comparison_fully_faithful(monad, 2)


def brute_em_morphisms(monad, x, y):
    """Every map T(x) -> T(y) that commutes with mu, from all |T(y)|^|T(x)| of them, in lexicographic order."""
    tx, ty = monad.t_size(x), monad.t_size(y)
    mu_x, mu_y = monad.mu(x), monad.mu(y)
    return [
        f for f in itertools.product(range(ty), repeat=tx)
        if composed(f, mu_x) == composed(mu_y, monad.t_mor(f, ty))
    ]


def brute_fully_faithful(monad, max_size):
    """check_comparison_fully_faithful as a scan over every map, with every composite a whole table."""
    for x in range(max_size + 1):
        for y in range(max_size + 1):
            ty, mu_y = monad.t_size(y), monad.mu(y)
            ems = set(brute_em_morphisms(monad, x, y))
            transported = {composed(mu_y, monad.t_mor(g, ty)) for g in itertools.product(range(ty), repeat=x)}
            if not transported <= ems or len(transported) != ty ** x or len(ems) != len(transported):
                return False
    return True


@pytest.mark.parametrize("monad,size", [
    (d.maybe_monad(), 3),
    (d.identity_monad(), 3),
    (d.CoproductException(2), 3),
    (d.CoproductException(3), 3),
    (d.FreeVectorF2(), 2),
    (BadFold(2), 2),
    (SwapFold(2), 2),
    (Involution(), 2),
    (RectangularBand(), 2),
    (ConstBind(), 2),
    (ConstTwo(), 2),
], ids=monad_id)
def test_morphism_search_matches_the_brute_force_scan(monad, size):
    for x in range(size + 1):
        for y in range(size + 1):
            assert list(M._em_morphisms(monad, x, M.DEFAULT_BUDGET)(y)) == brute_em_morphisms(monad, x, y), (x, y)
    assert d.check_comparison_fully_faithful(monad, size) is brute_fully_faithful(monad, size)


def test_broken_multiplication_is_not_fully_faithful():
    assert not d.check_comparison_fully_faithful(BadFold(2), 2)
    # at sizes (0, 0) the one transported map (1, 0) is not the one algebra morphism (0, 1)
    assert list(M._em_morphisms(SwapFold(2), 0, M.DEFAULT_BUDGET)(0)) == [(0, 1)]
    assert not d.check_comparison_fully_faithful(SwapFold(2), 0)
    # from sizes (1, 1) on, the two maps 1 -> T(1) extend to the same constant table
    assert [d.check_comparison_fully_faithful(ConstBind(), n) for n in range(3)] == [True, False, False]
    # every g* is the identity of T(y) = 2, the one algebra morphism, so from sizes (1, 0) on g -> g* is onto
    # but sends the 2^x maps x -> T(y) to one table: only the count of the sorted comparison tells
    assert [d.check_comparison_fully_faithful(ConstTwo(), n) for n in range(3)] == [True, False, False]


def test_morphism_search_charges_every_leaf_and_every_point(freevec, monkeypatch):
    # at sizes (2, 2) the search evaluates 253 points of the law, more than at any smaller pair of sizes
    assert d.check_comparison_fully_faithful(freevec, 2, budget=253)
    with pytest.raises(BudgetExceededError, match=r"morphism search law points at sizes \(2, 2\) needs 253 entries"):
        d.check_comparison_fully_faithful(freevec, 2, budget=252)
    # it ends in 67 leaves: the 16 linear maps of F2^2 and 51 values the law rejects; every leaf evaluates a
    # point, so the leaves are held to a budget of their own here, with the points' budget left at the default
    backtrack = M._backtrack

    def search_with_leaf_budget(leaves):
        monkeypatch.setattr(M, "_backtrack", lambda size, choices, holds, budget, what:
                            backtrack(size, choices, holds, leaves, what))
        return list(M._em_morphisms(freevec, 2, M.DEFAULT_BUDGET)(2))

    assert len(search_with_leaf_budget(67)) == 16
    with pytest.raises(BudgetExceededError, match=r"morphism search at sizes \(2, 2\) needs 67 entries"):
        search_with_leaf_budget(66)


def test_morphism_search_points_match_a_counting_bind_at():
    class Counting(d.FreeVectorF2):
        points = 0

        def bind_at(self, f, dst, p):
            Counting.points += 1
            return super().bind_at(f, dst, p)

    search = M._em_morphisms(Counting(), 2, M.DEFAULT_BUDGET)  # builds mu_2 through bind_at first
    Counting.points = 0
    assert len(list(search(2))) == 16
    assert Counting.points == 253


def test_freevec_comparison_at_four_meets_the_budget(freevec):
    # sizes up to 3 are decided within 150 000 points; at (3, 4) the search ranges over the 16^8 maps T(3) -> T(4)
    assert d.check_comparison_fully_faithful(freevec, 3, budget=150_000)
    with pytest.raises(BudgetExceededError, match=r"morphism search law points at sizes \(3, 4\) needs 150001"):
        d.check_comparison_fully_faithful(freevec, 4, budget=150_000)


def test_morphism_search_sizes_its_mu_table_first(freevec):
    # mu(5) would have 2^32 entries
    with pytest.raises(BudgetExceededError, match=f"morphism search tables at size 5 needs {2**32} entries"):
        M._em_morphisms(freevec, 5, M.DEFAULT_BUDGET)


def test_freevec_comparison_at_three(freevec):
    # the search finds the 512 linear maps of F2^3 among 8^8 maps T(3) -> T(3)
    assert sum(1 for _ in M._em_morphisms(freevec, 3, M.DEFAULT_BUDGET)(3)) == 512
    assert d.check_comparison_fully_faithful(freevec, 3)


def test_maybe_hom_counts_match_free_morphism_counts(maybe):
    # |Hom(X, T(Y))| = (|Y|+1)^|X| must equal the brute-forced morphism count
    for x in range(3):
        for y in range(3):
            tx, ty = maybe.t_size(x), maybe.t_size(y)
            mu_x, mu_y = maybe.mu(x), maybe.mu(y)
            count = 0
            for f in itertools.product(range(ty), repeat=tx):
                if composed(f, mu_x) == composed(mu_y, maybe.t_mor(f, ty)):
                    count += 1
            assert count == (y + 1) ** x


# ------------------------------------------------------------ miscellanea

def test_builtin_monad_factory():
    assert d.builtin_monad("maybe").marks == 1
    assert d.builtin_monad("identity").marks == 0
    assert d.builtin_monad("exception", marks=3).marks == 3
    assert isinstance(d.builtin_monad("freevec2"), d.FreeVectorF2)
    with pytest.raises(StructuralError, match="^exception monad needs a number of marks$"):
        d.builtin_monad("exception")
    for name in ("state", "nope"):
        with pytest.raises(StructuralError, match=f"^unknown builtin monad '{name}'$"):
            d.builtin_monad(name)
    # marks are refused before the name is looked up, so an unknown name with marks is refused for its marks
    for name in ("maybe", "identity", "freevec2", "nope"):
        with pytest.raises(StructuralError, match=f"^marks apply to the exception monad only, not to '{name}'$"):
            d.builtin_monad(name, marks=1)
    # each table key names its monad, and only the exception monad's name carries its marks
    names = {name: d.builtin_monad(name, marks=3 if name == "exception" else None).name for name in M.BUILTIN_MONADS}
    assert names == {"maybe": "maybe", "identity": "identity", "exception": "exception(3)", "freevec2": "freevec2"}


def test_negative_marks_rejected():
    with pytest.raises(StructuralError):
        d.CoproductException(-1)
