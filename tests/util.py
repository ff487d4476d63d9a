"""Shared helpers for the test suite."""

import itertools

import numpy as np

import divalg as d
from divalg import monads as M

# a NIM-rep of fib failing all three module laws (unit action, multiplicativity, dual compatibility)
BROKEN_NIMREP = {"module_labels": ["a", "b"], "actions": [[[1, 0], [1, 1]], [[0, 2], [1, 1]]]}


def doubling_t_mor(f) -> list[int]:
    """freevec2's T(f) by doubling on Python ints: the masks that contain x are those without it, bit f[x] flipped."""
    out = [0]
    for v in f:
        bit = 1 << v
        out += [m ^ bit for m in out]
    return out


def doubling_mu(n: int) -> list[int]:
    """freevec2's mu(n) by doubling on Python ints: a set of masks folds to their XOR."""
    out = [0]
    for mask in range(1 << n):
        out += [m ^ mask for m in out]
    return out


class XorSlip(d.FreeVectorF2):
    """mu with one bit of the fold of the masks {00, 10} flipped at carrier 2."""

    def mu(self, n):
        table = list(super().mu(n))
        if n == 2:
            table[0b101] ^= 1
        return tuple(table)

    def bind_at(self, f, dst, p):
        # mu_2 . T(f) reads the flipped entry where T(f) sends p to 0b101; T(f) is not built past dst 2
        return super().bind_at(f, dst, p) ^ (dst == 2 and int(self.t_mor(f, 4)[p]) == 0b101)


def written_tensor_mor(ambient, f, g, a_dst: int, b_dst: int) -> tuple:
    """f (x) g: X (x) Y -> a_dst (x) b_dst, one entry at a time: the oracle for the ambients' tensor_mor and whisker.

    Disjoint union: the entries of f, then those of g offset by a_dst.  Cartesian product: for each x and
    then each y, the row-major position f[x] * b_dst + g[y] of the pair (f[x], g[y]).
    """
    out = []
    if ambient.kind == "disjoint_union":
        for v in f:
            out.append(v)
        for v in g:
            out.append(a_dst + v)
    else:
        for x in range(len(f)):
            base = f[x] * b_dst
            for y in range(len(g)):
                out.append(base + g[y])
    return tuple(out)


def module_axioms_hold(algebra, carrier: int, action) -> bool:
    """The right-module law of an action Y (x) A -> Y, written out table by table: the oracle for the module route.

    action . (id_Y (x) unit) = id_Y, and action . (action (x) id_A) = action . (id_Y (x) mult), each side
    composed one entry at a time from tables built here.
    """
    amb, a = algebra.ambient, algebra.carrier
    ident_y, ident_a = tuple(range(carrier)), tuple(range(a))
    unit_inc = written_tensor_mor(amb, ident_y, algebra.unit, carrier, a)
    if tuple(action[p] for p in unit_inc) != ident_y:
        return False
    lhs = tuple(action[p] for p in written_tensor_mor(amb, action, ident_a, carrier, a))
    rhs = tuple(action[p] for p in written_tensor_mor(amb, ident_y, algebra.mult, carrier, a))
    return lhs == rhs


def s3_monoid_algebra():
    """S3 as a MonoidAlgebra on (FinSet, x): the permutations of 0..2 in lexicographic order, p.q = p after q."""
    perms = list(itertools.permutations(range(3)))
    mult = tuple(perms.index(tuple(p[v] for v in q)) for p in perms for q in perms)
    return d.MonoidAlgebra("S3", d.CartesianProduct, 6, mult, (perms.index((0, 1, 2)),))


def all_vectors(rank: int, max_total: int):
    """Every nonzero multiplicity vector with component sum <= max_total."""
    out = []
    for total in range(1, max_total + 1):
        for combo in itertools.combinations_with_replacement(range(rank), total):
            vec = np.zeros(rank, dtype=np.int64)
            for i in combo:
                vec[i] += 1
            out.append(vec)
    return out


def candidates_by_total(bounds):
    """Every tuple c with 0 <= c_i <= bounds[i], by sum(c) and then lexicographically, one at a time.

    The order of the former inverse search, whose first solution the closed-form witness reproduces.
    """
    room = [0] * (len(bounds) + 1)  # room[i] is the largest sum of the coordinates from i on
    for i in reversed(range(len(bounds))):
        room[i] = room[i + 1] + bounds[i]

    def fill(i, total):
        if i == len(bounds):
            yield ()
            return
        for c in range(max(0, total - room[i + 1]), min(bounds[i], total) + 1):
            for tail in fill(i + 1, total - c):
                yield (c,) + tail

    for total in range(room[0] + 1):
        yield from fill(0, total)


def addition_law_tables(carrier: int, budget: int):
    """freevec2's structure tables from the F2-vector-space laws on the carrier, law by law.

    The former bespoke fill of `FreeVectorF2`: the second algebra axiom forces
    a structure map to be the sum-over-F2 of its singleton values, so a table
    is a zero plus an addition law, and `addition_laws` finds those.
    """
    for zero, add in addition_laws(carrier, budget):
        table = [zero]
        for x in range(carrier):
            table += [add[s][x] for s in table]
        yield tuple(table)


def addition_laws(carrier: int, budget: int) -> list[tuple[int, list[list[int]]]]:
    """Every (zero, add) on range(carrier) with x + x = zero that is an associative law.

    add is a symmetric Latin square with the constant diagonal zero, that is a
    one-factorization of the complete graph K_carrier (W. D. Wallis,
    One-Factorizations, 1997), so there is none at an odd carrier above 1.
    The search table holds the zero at entry 0 and then the sums of the pairs
    a < b off the zero, in order; the zero's row and column are the identity.
    A pair takes the values still free in both of its rows, least first, so
    every row stays a permutation, and a complete square is kept when it is
    associative.  Laws come zero by zero, each zero's in lexicographic order
    of its pairs.
    """
    elements = range(carrier)
    # pairs[zero][i - 1] is the pair whose sum is entry i, and earlier[zero][i - 1] lists the entries
    # before i whose pair shares a row with it
    pairs = [[p for p in itertools.combinations(elements, 2) if zero not in p] for zero in elements]
    earlier = [[[j + 1 for j, q in enumerate(ps[:i]) if set(p) & set(q)] for i, p in enumerate(ps)] for ps in pairs]
    size = 1 + (carrier - 1) * (carrier - 2) // 2
    free: dict[int, list[int]] = {}  # a bit mask of the values taken -> the values left

    def choices(t: list[int], i: int):
        if not i:
            return elements
        zero = t[0]
        a, b = pairs[zero][i - 1]
        taken = 1 << zero | 1 << a | 1 << b
        for j in earlier[zero][i - 1]:
            taken |= 1 << t[j]
        if taken not in free:
            free[taken] = [v for v in elements if not taken >> v & 1]
        return free[taken]

    def square(t) -> list[list[int]]:
        zero = t[0]
        add = [[zero] * carrier for _ in elements]
        for x in elements:
            add[zero][x] = add[x][zero] = x
        for (a, b), v in zip(pairs[zero], t[1:]):
            add[a][b] = add[b][a] = v
        return add

    def holds(t: list[int], i: int) -> bool:
        return i < size - 1 or is_associative(square(t))

    what = f"addition-law search at carrier {carrier}"
    return [(t[0], square(t)) for t in M._backtrack(size, choices, holds, budget, what)]


def is_associative(add: list[list[int]]) -> bool:
    elements = range(len(add))
    return all(add[add[x][y]][z] == add[x][add[y][z]] for x in elements for y in elements for z in elements)


def s3_character_fusion():
    """Fusion tensor of the S3 character ring, computed from the character table.

    Oracle independent of the catalog: multiplicities come from inner products
    of products of characters over the three conjugacy classes.
    """
    class_sizes = np.array([1, 3, 2])
    chars = np.array([
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ])
    order = class_sizes.sum()
    fusion = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            product = chars[i] * chars[j]
            for k in range(3):
                fusion[i, j, k] = round((class_sizes * product * chars[k]).sum() / order)
    return fusion


def relabeled(ring, perm):
    """The ring with new basis position q holding old basis object perm[q]."""
    inverse = np.argsort(perm)
    return d.FusionRing(
        labels=tuple(ring.labels[p] for p in perm),
        unit=ring.unit[perm],
        dual=tuple(int(inverse[ring.dual[p]]) for p in perm),
        fusion=ring.fusion[np.ix_(perm, perm, perm)],
    )


def deligne(*names):
    """Deligne product of catalog rings: basis pairs, with units, duals and fusion rules taken factorwise."""
    ring = d.builtin_ring(names[0])
    for name in names[1:]:
        other = d.builtin_ring(name)
        r, s = ring.rank, other.rank
        ring = d.FusionRing(
            labels=tuple(f"{a}|{b}" for a in ring.labels for b in other.labels),
            unit=np.kron(ring.unit, other.unit),
            dual=tuple(ring.dual[i] * s + other.dual[j] for i in range(r) for j in range(s)),
            fusion=np.einsum("abc,ijk->aibjck", ring.fusion, other.fusion).reshape(r * s, r * s, r * s),
        )
    return ring


def nested(value, depth: int):
    """value inside depth singleton lists."""
    for _ in range(depth):
        value = [value]
    return value


def vec_direct_sum(n: int):
    """Direct sum of n copies of Vec: n orthogonal idempotent simples whose sum is the unit."""
    fusion = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        fusion[i, i, i] = 1
    labels = tuple(f"v{i}" for i in range(n))
    return d.FusionRing(labels=labels, unit=[1] * n, dual=tuple(range(n)), fusion=fusion)


# rank 3, self-dual and commutative: a⊗a = 1 + b, a⊗b = a + 2^32·b, b⊗b = 1 + 2^32·a.  Its
# associativity holds modulo 2^64 but not exactly: at (1, 1, 2, 2) the bracketings give 1 and 1 + 2^64
WRAPPING_RING = {
    "labels": ["1", "a", "b"],
    "unit": [1, 0, 0],
    "dual": [0, 1, 2],
    "fusion": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 1], [0, 1, 2**32]],
        [[0, 0, 1], [0, 1, 2**32], [1, 2**32, 0]],
    ],
}

# a NIM-rep of fib whose action entries are 2^32, so a product of two action matrices reaches 2^64
WIDE_NIMREP = {"module_labels": ["a", "b"], "actions": [[[1, 0], [0, 1]], [[2**32, 0], [0, 2**32]]]}
