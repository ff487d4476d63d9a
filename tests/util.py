"""Shared helpers for the test suite."""

import itertools

import numpy as np

import divalg as d

# a NIM-rep of fib failing all three module laws (unit action, multiplicativity, dual compatibility)
BROKEN_NIMREP = {"module_labels": ["a", "b"], "actions": [[[1, 0], [1, 1]], [[0, 2], [1, 1]]]}


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
