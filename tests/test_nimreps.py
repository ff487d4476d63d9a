import itertools

import numpy as np
import pytest

import divalg as d
from divalg.errors import DecomposableModuleError, StructuralError, ZeroObjectError

from util import BROKEN_NIMREP, WIDE_NIMREP, all_vectors


def _fib_nimrep(m_tau):
    return d.NimRep(module_labels=("a", "b"), actions=[np.eye(2, dtype=int).tolist(), m_tau])


def test_regular_fib_validates(fib):
    report = d.validate_nimrep(fib, d.regular_nimrep(fib), check_dual=True)
    assert report.passed


def test_multiplicativity_violation_is_reported(fib):
    # squaring [[1,1],[1,1]] gives all twos, but 1*M_1 + 1*M_tau has ones off-diagonal
    report = d.validate_nimrep(fib, _fib_nimrep([[1, 1], [1, 1]]))
    assert not report.passed
    bad = {v.index: (v.lhs, v.rhs) for v in report.violations if v.axiom == "multiplicativity"}
    assert bad[(1, 1, 0, 1)] == (2, 1)
    assert bad[(1, 1, 1, 0)] == (2, 1)


def test_relabeled_regular_nimrep_still_validates(fib):
    # the same based module with its two slots swapped
    assert d.validate_nimrep(fib, _fib_nimrep([[1, 1], [1, 0]])).passed


def test_unit_action_violation(fib):
    nr = d.NimRep(module_labels=("a", "b"),
                  actions=[[[1, 1], [0, 1]], [[0, 1], [1, 1]]])
    report = d.validate_nimrep(fib, nr)
    assert any(v.axiom == "unit_action" for v in report.violations)


def test_dual_compatibility_flag(fib):
    assert d.validate_nimrep(fib, _fib_nimrep([[1, 1], [1, 0]]), check_dual=True).passed
    report = d.validate_nimrep(fib, _fib_nimrep([[0, 2], [1, 1]]), check_dual=True)
    assert any(v.axiom == "dual_compatibility" for v in report.violations)


def test_one_dimensional_module_over_z2():
    ring = d.builtin_ring("vec_cyclic(2)")
    nr = d.NimRep(module_labels=("m",), actions=[[[1]], [[1]]])
    assert d.validate_nimrep(ring, nr).passed


def test_dimension_mismatch_is_structural(fib):
    nr = d.NimRep(module_labels=("m",), actions=[[[1]]])
    with pytest.raises(StructuralError):
        d.validate_nimrep(fib, nr)


# ------------------------------------------- per-row check against per-pair

def _per_pair_violations(ring, nr, check_dual):
    """The module laws checked one (i, j) pair and one entry at a time, in Python ints: the oracle of the per-row check."""
    A = nr.actions.astype(object)
    m = nr.module_rank
    out = []

    def record(axiom, lhs, rhs, prefix):
        for a in range(m):
            for b in range(m):
                if lhs[a, b] != rhs[a, b]:
                    out.append(d.Violation(axiom, prefix + (a, b), int(lhs[a, b]), int(rhs[a, b])))

    record("unit_action", np.einsum("i,iab->ab", ring.unit.astype(object), A), np.eye(m, dtype=np.int64), ())
    for i in range(ring.rank):
        for j in range(ring.rank):
            rhs = np.einsum("k,kab->ab", ring.fusion[i, j].astype(object), A)
            record("multiplicativity", A[i] @ A[j], rhs, (i, j))
    if check_dual:
        for i in range(ring.rank):
            record("dual_compatibility", A[ring.dual[i]], A[i].T, (i,))
    return out


def _perturbed_nimreps(ring, rng):
    """Seeded NIM-reps that break the module laws: the regular one with entries
    moved by one, and random actions on modules of rank 1 to 3."""
    regular = d.regular_nimrep(ring)
    for _ in range(3):
        actions = regular.actions.copy()
        for _ in range(int(rng.integers(1, 4))):
            i, a, b = (int(rng.integers(n)) for n in actions.shape)
            actions[i, a, b] += 1 if actions[i, a, b] == 0 else int(rng.choice([-1, 1]))
        yield d.NimRep(module_labels=regular.module_labels, actions=actions)
    for m in (1, 2, 3):
        actions = rng.integers(0, 3, size=(ring.rank, m, m))
        yield d.NimRep(module_labels=tuple(f"s{a}" for a in range(m)), actions=actions)


@pytest.mark.parametrize("check_dual", [False, True])
def test_per_row_check_matches_per_pair_oracle(catalog_entries, check_dual):
    rng = np.random.default_rng(6)
    for entry in catalog_entries:
        ring = entry.ring
        compared = 0
        for nr in (d.regular_nimrep(ring), *_perturbed_nimreps(ring, rng)):
            expected = _per_pair_violations(ring, nr, check_dual)
            report = d.validate_nimrep(ring, nr, check_dual=check_dual)
            assert list(report.violations) == expected, entry.name
            compared += len(expected)
        assert compared > 0, entry.name


@pytest.mark.parametrize("check_dual", [False, True])
def test_per_row_check_matches_per_pair_oracle_on_broken_nimrep(fib, check_dual):
    nr = d.NimRep.from_payload(BROKEN_NIMREP)
    expected = _per_pair_violations(fib, nr, check_dual)
    assert {v.axiom for v in expected} >= {"unit_action", "multiplicativity"}
    assert list(d.validate_nimrep(fib, nr, check_dual=check_dual).violations) == expected


def test_nimrep_products_past_int64_are_reported(fib):
    # A_1 A_1 has entries 2^64, which int64 would wrap to 0
    nr = d.NimRep.from_payload(WIDE_NIMREP)
    report = d.validate_nimrep(fib, nr)
    assert list(report.violations) == [d.Violation("multiplicativity", (1, 1, a, a), 2**64, 2**32 + 1) for a in (0, 1)]
    assert list(report.violations) == _per_pair_violations(fib, nr, False)


def test_nimrep_bound_reads_both_sides_of_multiplicativity():
    # one slot: the left side is at most L_A^2 · 1, the right side L_N · L_A · rank, which is 2^40 · 2^22 · 2
    # = 2^63 for the first NIM-rep (once refused) and 2^62 for the second; both sides are now exact
    rank = 2
    ring = d.FusionRing(labels=("1", "x"), unit=[1, 0], dual=(0, 1), fusion=np.full((rank, rank, rank), 2**40))
    for top in (2**22, 2**21):
        nr = d.NimRep(module_labels=("s",), actions=[[[1]], [[top]]])
        report = d.validate_nimrep(ring, nr)
        assert d.Violation("multiplicativity", (1, 1, 0, 0), top**2, 2**40 * (1 + top)) in report.violations
        assert list(report.violations) == _per_pair_violations(ring, nr, False)


# ------------------------------------------------------------------- acting

def test_act_regular_fib(fib):
    nr = d.regular_nimrep(fib)
    assert d.act(fib, nr, fib.vector("tau"), [1, 0]).tolist() == [0, 1]
    assert d.act(fib, nr, fib.unit, [1, 1]).tolist() == [1, 1]


def test_act_standard_rep_column(rep_s3):
    nr = d.regular_nimrep(rep_s3)
    assert d.act(rep_s3, nr, rep_s3.vector("V"), [0, 0, 1]).tolist() == [1, 1, 1]


def test_module_vector_simplicity():
    assert d.is_simple_module_object([0, 1, 0])
    assert not d.is_simple_module_object([1, 1])
    with pytest.raises(ZeroObjectError):
        d.is_simple_module_object([0, 0])


# ------------------------------------------------------------- components

def test_regular_fusion_ring_is_indecomposable(fib, rep_s3):
    assert d.module_components(d.regular_nimrep(fib)) == [[0, 1]]
    assert d.module_components(d.regular_nimrep(rep_s3)) == [[0, 1, 2]]


def test_matrix_multifusion_regular_splits(mm2):
    assert d.module_components(d.regular_nimrep(mm2)) == [[0, 2], [1, 3]]


def _union_find_components(nr):
    """The block search as a union-find over nonzero action entries, kept as an oracle."""
    parent = list(range(nr.module_rank))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for mat in nr.actions:
        for a, b in np.argwhere(mat):
            parent[find(int(a))] = find(int(b))
    groups = {}
    for a in range(nr.module_rank):
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values())


def test_closure_blocks_match_union_find_on_regular_nimreps(catalog_entries):
    for entry in catalog_entries:
        nr = d.regular_nimrep(entry.ring)
        assert d.module_components(nr) == _union_find_components(nr), entry.name


def test_closure_blocks_match_union_find_on_random_actions():
    # sparse 0/1 actions leave isolated slots and several blocks; density 0 gives all-zero actions
    rng = np.random.default_rng(5)
    for m in range(1, 9):
        for density in (0.0, 0.05, 0.15, 0.3, 0.6):
            for _ in range(6):
                actions = (rng.random((int(rng.integers(1, 4)), m, m)) < density).astype(np.int64)
                nr = d.NimRep(module_labels=tuple(f"s{a}" for a in range(m)), actions=actions)
                assert d.module_components(nr) == _union_find_components(nr), actions.tolist()


# ----------------------------------------------------------- classification

def test_classify_tau_slot(fib):
    nr = d.regular_nimrep(fib)
    report = d.classify_internal_end_nimrep(fib, nr, [0, 1])
    assert report.simplistic
    assert not report.essential
    assert report.unreachable_targets == ((1, 0),)
    assert report.algebra_form == "internal_end_of_module"


def test_classify_transitive_group_action():
    ring = d.builtin_ring("vec_cyclic(3)")
    report = d.classify_internal_end_nimrep(ring, d.regular_nimrep(ring), [0, 1, 0])
    assert report.simplistic and report.essential
    assert len(report.slot_witnesses) == 3


def test_classify_non_simple_module_object(fib):
    report = d.classify_internal_end_nimrep(fib, d.regular_nimrep(fib), [1, 1])
    assert not report.simplistic
    assert not report.essential


def test_classify_rejects_zero_and_decomposable(fib, mm2):
    with pytest.raises(ZeroObjectError):
        d.classify_internal_end_nimrep(fib, d.regular_nimrep(fib), [0, 0])
    with pytest.raises(DecomposableModuleError):
        d.classify_internal_end_nimrep(mm2, d.regular_nimrep(mm2), mm2.basis(0))


def test_unreachable_slots_agree_with_bounded_search(fib, ising, rep_s3):
    """Soundness of the slot-coverage rule against brute-forced reachability.

    Whenever some object of length <= 4 reaches a slot basis vector, the
    classifier must have recorded that slot as covered.
    """
    for ring in (fib, ising, rep_s3):
        nr = d.regular_nimrep(ring)
        for m in all_vectors(ring.rank, 2):
            report = d.classify_internal_end_nimrep(ring, nr, m)
            covered = {k for _, k in report.slot_witnesses}
            for x in all_vectors(ring.rank, 4):
                image = d.act(ring, nr, x, m)
                if image.sum() == 1:
                    assert int(image.argmax()) in covered


def test_classification_invariant_under_relabeling(rep_s3):
    nr = d.regular_nimrep(rep_s3)
    m = np.array([0, 1, 1])
    base = d.classify_internal_end_nimrep(rep_s3, nr, m)
    for perm in itertools.permutations(range(3)):
        p = np.zeros((3, 3), dtype=int)
        for a, b in enumerate(perm):
            p[b, a] = 1
        permuted = d.NimRep(
            module_labels=tuple(f"s{i}" for i in range(3)),
            actions=np.stack([p @ a @ p.T for a in nr.actions]),
        )
        report = d.classify_internal_end_nimrep(rep_s3, permuted, p @ m)
        assert report.simplistic == base.simplistic
        assert report.essential == base.essential


def test_essential_implies_simplistic_over_regular_fixtures(simple_unit_entries):
    for entry in simple_unit_entries:
        if entry.ring.rank > 6:
            continue
        nr = d.regular_nimrep(entry.ring)
        for m in all_vectors(entry.ring.rank, 2):
            report = d.classify_internal_end_nimrep(entry.ring, nr, m)
            if report.essential:
                assert report.simplistic, (entry.name, m)


# -------------------------------------------------------------- cross-check

def test_cross_check_examples(fib, rep_s3):
    assert d.cross_check_internal_end(fib, fib.vector("tau"))
    assert d.cross_check_internal_end(fib, fib.unit)
    assert d.cross_check_internal_end(rep_s3, rep_s3.vector("V"))


def test_cross_check_unit_in_every_ring(catalog_entries):
    for entry in catalog_entries:
        assert d.cross_check_internal_end(entry.ring, entry.ring.unit), entry.name


def test_nimrep_payload_round_trip(fib):
    nr = d.regular_nimrep(fib)
    clone = d.NimRep.from_payload(nr.to_payload())
    assert clone.module_labels == nr.module_labels
    assert np.array_equal(clone.actions, nr.actions)


def test_module_labels_given_as_a_string_are_refused():
    # a string is iterable, and all its characters are strings, but it is no array of labels
    payload = d.regular_nimrep(d.builtin_ring("fib")).to_payload()
    with pytest.raises(StructuralError, match="^module_labels must be a JSON array of strings$"):
        d.NimRep.from_payload({**payload, "module_labels": "ab"})
