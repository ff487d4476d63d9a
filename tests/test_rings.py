import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divalg as d
from divalg import rings as R
from divalg.errors import StructuralError, ZeroObjectError

from util import WRAPPING_RING, candidates_by_total, deligne, nested, relabeled, vec_direct_sum


def _mutated(ring, index, value):
    fusion = ring.fusion.copy()
    fusion[index] = value
    return d.FusionRing(labels=ring.labels, unit=ring.unit, dual=ring.dual, fusion=fusion)


# ---------------------------------------------------------------- validation

def test_fib_validates(fib):
    report = d.validate_ring(fib)
    assert report.passed
    assert report.violations == ()


def test_rank_one_ring_validates():
    ring = d.FusionRing(labels=("1",), unit=[1], dual=(0,), fusion=[[[1]]])
    assert d.validate_ring(ring).passed


def test_broken_associativity_is_reported(rep_s3):
    # dropping sgn from V (x) V makes (V (x) V) (x) sgn differ from V (x) (V (x) sgn)
    broken = _mutated(rep_s3, (2, 2, 1), 0)
    report = d.validate_ring(broken)
    assert not report.passed
    assoc = {v.index for v in report.violations if v.axiom == "associativity"}
    assert (2, 2, 1, 0) in assoc
    assert (2, 2, 1, 1) in assoc


def test_rank2_with_double_tau_coefficient_validates(fib):
    # tau (x) tau = 1 + 2 tau satisfies every axiom; it is simply another ring
    other = _mutated(fib, (1, 1, 1), 2)
    assert d.validate_ring(other).passed


def test_unit_law_violation_is_reported(fib):
    broken = _mutated(fib, (0, 0, 0), 2)
    report = d.validate_ring(broken)
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert "unit_left" in axioms or "unit_right" in axioms


def test_frobenius_violation_is_reported(fib):
    broken = _mutated(fib, (1, 1, 0), 0)
    report = d.validate_ring(broken)
    assert not report.passed
    assert any(v.axiom.startswith("frobenius") or v.axiom == "duality_pairing"
               for v in report.violations)


def test_zero_fusion_matrix_is_reported():
    ring = d.FusionRing(labels=("1", "x"), unit=[1, 0], dual=(0, 1),
                        fusion=[[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    report = d.validate_ring(ring)
    assert any(v.axiom == "no_zero_fusion_matrix" and v.index == (1,)
               for v in report.violations)


def test_passed_iff_no_violations(fib, rep_s3):
    for ring in (fib, rep_s3, _mutated(rep_s3, (2, 2, 1), 0)):
        report = d.validate_ring(ring)
        assert report.passed == (len(report.violations) == 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(labels=("1", "x"), unit=[1, 0], dual=(0, 1), fusion=[[[1]]]),
        dict(labels=("1", "x"), unit=[1], dual=(0, 1), fusion=np.zeros((2, 2, 2), int)),
        dict(labels=("1", "x"), unit=[1, 0], dual=(0, 0), fusion=np.zeros((2, 2, 2), int)),
        dict(labels=("1", "1"), unit=[1, 0], dual=(0, 1), fusion=np.zeros((2, 2, 2), int)),
        dict(labels=("1", "x"), unit=[1, -1], dual=(0, 1), fusion=np.zeros((2, 2, 2), int)),
        # an entry past int64, as a ring file can hold
        dict(labels=("1",), unit=[1], dual=(0,), fusion=[[[2**64]]]),
        # float, bool and string entries are rejected, not cast to 1
        dict(labels=("1", "x"), unit=[1.0, 0], dual=(0, 1), fusion=np.zeros((2, 2, 2), int)),
        dict(labels=("1",), unit=[1], dual=(0,), fusion=[[[True]]]),
        dict(labels=("1",), unit=["1"], dual=(0,), fusion=[[[1]]]),
        dict(labels=("1",), unit=[1], dual=(0,), fusion=np.ones((1, 1, 1))),
        dict(labels=("1", "x"), unit=[1, 0], dual=(0, 1.0), fusion=np.zeros((2, 2, 2), int)),
        dict(labels=("1", "x"), unit=[1, 0], dual="01", fusion=np.zeros((2, 2, 2), int)),
    ],
)
def test_structural_errors_raise(kwargs):
    with pytest.raises(StructuralError):
        d.FusionRing(**kwargs)


# -------------------------------------- per-row associativity against rank⁴

def _rank4_associativity(ring):
    """Both bracketings as full rank⁴ tensors in Python ints, one violation per differing entry: the oracle of the per-row check."""
    N = ring.fusion.astype(object)
    lhs = np.einsum("ijm,mkl->ijkl", N, N)
    rhs = np.einsum("jkm,iml->ijkl", N, N)
    return [
        d.Violation("associativity", tuple(int(v) for v in idx), int(lhs[tuple(idx)]), int(rhs[tuple(idx)]))
        for idx in np.argwhere(lhs != rhs)
    ]


def _perturbed_rings(ring, rng):
    """Twelve seeded copies of the ring with one to three fusion entries moved by one."""
    for _ in range(12):
        fusion = ring.fusion.copy()
        for _ in range(int(rng.integers(1, 4))):
            idx = tuple(int(rng.integers(ring.rank)) for _ in range(3))
            fusion[idx] += 1 if fusion[idx] == 0 else int(rng.choice([-1, 1]))
        yield d.FusionRing(labels=ring.labels, unit=ring.unit, dual=ring.dual, fusion=fusion)


def test_per_row_associativity_matches_rank4_oracle(catalog_entries):
    rng = np.random.default_rng(8)
    names = {entry.name for entry in catalog_entries}
    assert {"rep_s3", "matrix_multifusion(2)", "matrix_multifusion(3)"} <= names
    for entry in catalog_entries:
        compared = 0
        for ring in (entry.ring, *_perturbed_rings(entry.ring, rng)):
            expected = _rank4_associativity(ring)
            report = d.validate_ring(ring)
            assert [v for v in report.violations if v.axiom == "associativity"] == expected, entry.name
            compared += len(expected)
        # a rank-1 ring is associative whatever its one entry
        assert compared > 0 or entry.ring.rank == 1, entry.name


# ------------------------------------------------------- exact contraction

def _exact_matmul(a, b):
    """a @ b by numpy's shape rules, each entry a dot product summed in Python ints."""
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    stack = np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2])
    lefts = np.broadcast_to(a2, stack + a2.shape[-2:]).reshape(-1, *a2.shape[-2:])
    rights = np.broadcast_to(b2, stack + b2.shape[-2:]).reshape(-1, *b2.shape[-2:])
    out = np.empty((len(lefts), a2.shape[-2], b2.shape[-1]), dtype=object)
    for s, (left, right) in enumerate(zip(lefts.tolist(), rights.tolist())):
        for i, row in enumerate(left):
            for j in range(len(right[0])):
                out[s, i, j] = sum(x * col[j] for x, col in zip(row, right))
    out = out.reshape(stack + out.shape[1:])
    if b.ndim == 1:
        out = out[..., 0]
    return out[..., 0, :] if a.ndim == 1 else out


# the operand shapes of the call sites: (left, right) with the inner dimension n shared
MATMUL_SHAPES = [
    lambda s, m, n, p: ((n,), (n, p)),  # unit and object vectors against a flattened table
    lambda s, m, n, p: ((m, n), (n, p)),  # a fusion row against the flattened actions
    lambda s, m, n, p: ((m, n), (n,)),  # multiplication matrix on a vector
    lambda s, m, n, p: ((n,), (s, n, p)),  # a vector against stacked fusion matrices
    lambda s, m, n, p: ((s, m, n), (n,)),  # stacked actions on a module vector
    lambda s, m, n, p: ((m, n), (s, n, p)),  # one action matrix against all of them
]


@st.composite
def matmul_operands(draw):
    shape = draw(st.sampled_from(MATMUL_SHAPES))(*(draw(st.integers(1, 4)) for _ in range(4)))
    # small, around 2^26 so that products of two straddle 2^53, and up to 2^63 - 1
    entry = draw(st.sampled_from([st.integers(0, 3), st.integers(2**26 - 64, 2**26 + 64), st.integers(0, 2**63 - 1)]))
    pick = st.one_of(st.just(0), entry)
    a, b = (np.array(draw(st.lists(pick, min_size=math.prod(s), max_size=math.prod(s))), dtype=np.int64).reshape(s)
            for s in shape)
    return a, b


@given(matmul_operands())
@settings(max_examples=200, deadline=None)
def test_matmul_matches_python_ints(operands):
    a, b = operands
    got = R._matmul(a, b)
    expected = _exact_matmul(a, b)
    assert got.shape == expected.shape
    assert got.tolist() == expected.tolist()
    assert got.dtype == (np.int64 if max(expected.flat, default=0) < 2**53 else object)


@pytest.mark.parametrize("a, b, dtype", [
    ([[2**53 - 1]], [[1]], np.int64),  # the largest result kept from float64
    ([[2**26], [2**26]], [[2**26, 1]], np.int64),  # products of two 2^26 entries reach 2^52
    ([[2**52, 2**52]], [[1], [1]], object),  # a partial sum reaches exactly 2^53
    ([[2**53 + 1]], [[1]], object),  # float64 rounds 2^53 + 1 to 2^53, which is not below 2^53
    ([[0, 2**63 - 1]], [[1], [0]], np.int64),  # a huge operand met only by a zero
])
def test_matmul_takes_python_ints_from_2_to_the_53(a, b, dtype):
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    got = R._matmul(a, b)
    assert got.dtype == dtype
    assert got.tolist() == _exact_matmul(a, b).tolist()


# ------------------------------------------------ axiom checks past int64

def test_associativity_violation_past_int64_is_reported():
    # the violation that int64 would wrap away is now reported
    ring = d.FusionRing.from_payload(WRAPPING_RING)
    N = ring.fusion.tolist()
    # ((X_1 X_1) X_2)_2 and (X_1 (X_1 X_2))_2 in Python ints
    lhs = sum(N[1][1][m] * N[m][2][2] for m in range(3))
    rhs = sum(N[1][2][m] * N[1][m][2] for m in range(3))
    assert (lhs, rhs) == (1, 1 + 2**64)
    assert (lhs - rhs) % 2**64 == 0
    report = d.validate_ring(ring)
    assert report.violations[0] == d.Violation("associativity", (1, 1, 2, 2), lhs, rhs)
    assert list(report.violations) == _rank4_associativity(ring)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_entries_either_side_of_the_int64_square_bound_get_exact_reports(rank):
    # the largest entry L with L^2 · rank <= 2^63 - 1, and L + 1
    largest = math.isqrt((2**63 - 1) // rank)
    for entry in (largest, largest + 1):
        fusion = np.zeros((rank, rank, rank), dtype=np.int64)
        fusion[0, 0, 0] = entry
        ring = d.FusionRing(labels=tuple(f"x{i}" for i in range(rank)), unit=[1] + [0] * (rank - 1),
                            dual=tuple(range(rank)), fusion=fusion)
        report = d.validate_ring(ring)
        assert d.Violation("unit_left", (0, 0), entry, 1) in report.violations
        assert [v for v in report.violations if v.axiom == "associativity"] == _rank4_associativity(ring)


def test_unit_summing_past_int64_gets_exact_violations():
    # a unit summing past 2^63 - 1 now gets its exact violations
    ring = d.FusionRing(labels=("1", "x"), unit=[2**62, 2**62], dual=(0, 1), fusion=np.ones((2, 2, 2), int))
    report = d.validate_ring(ring)
    for axiom in ("unit_left", "unit_right"):
        assert [v for v in report.violations if v.axiom == axiom] == [
            d.Violation(axiom, (j, k), 2**63, int(j == k)) for j in range(2) for k in range(2)
        ]
    assert [v for v in report.violations if v.axiom == "duality_pairing"] == [
        d.Violation("duality_pairing", (i, j), 2**63, int(i == j)) for i in range(2) for j in range(2)
    ]


def _cyclic_ring(n):
    """Group ring of Z/n at any rank, past the catalog's cap."""
    fusion = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        fusion[i, np.arange(n), (i + np.arange(n)) % n] = 1
    dual = tuple((-i) % n for i in range(n))
    return d.FusionRing(labels=tuple(f"g{i}" for i in range(n)), unit=np.eye(n, dtype=np.int64)[0],
                        dual=dual, fusion=fusion)


def test_validate_ring_memory_is_not_rank4():
    # the rank⁴ contraction held two 40**4 int64 tensors (41 MB); one row holds 40**3 (0.5 MB)
    ring = _cyclic_ring(40)
    tracemalloc.start()
    try:
        report = d.validate_ring(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 5 << 20


# ------------------------------------------------------------------- tensor

def test_tau_squared(fib):
    assert d.tensor(fib, fib.vector("tau"), fib.vector("tau")).tolist() == [1, 1]


def test_unit_is_two_sided_identity(fib, rep_s3):
    for ring in (fib, rep_s3):
        for i in range(ring.rank):
            x = ring.basis(i)
            assert np.array_equal(d.tensor(ring, ring.unit, x), x)
            assert np.array_equal(d.tensor(ring, x, ring.unit), x)


def test_tensor_of_sum_expands_bilinearly(fib):
    one_plus_tau = fib.vector([1, 1])
    assert d.tensor(fib, one_plus_tau, fib.vector("tau")).tolist() == [1, 2]


def test_tensor_rejects_wrong_length(fib):
    with pytest.raises(StructuralError):
        d.tensor(fib, [1, 0, 0], fib.vector("tau"))


def test_vector_rejects_an_unknown_label(fib):
    with pytest.raises(StructuralError, match="unknown object label 'sigma'"):
        fib.vector("sigma")


@pytest.mark.parametrize("depth,message", [(40, "object vector has shape"), (70, "not an integer")])
def test_vector_nested_past_32_dimensions_is_structural(fib, depth, message):
    with pytest.raises(StructuralError, match=message):
        fib.vector(nested(1, depth))


# ----------------------------------------------------------- length, simple

def test_tensor_past_int64_is_exact(fib):
    # (2^32 . 1) (x) (2^32 . 1) = 2^64 . 1 used to wrap to the zero vector
    assert d.tensor(fib, [2**32, 0], [2**32, 0]).tolist() == [2**64, 0]
    assert d.tensor(fib, [2**31, 0], [2**31, 0]).tolist() == [2**62, 0]


def test_action_matrix_past_int64_is_exact(fib):
    # the multiplication matrix of 2^62 . (1 + tau) is 2^62 [[1, 1], [1, 2]],
    # with an entry of 2^63; its Perron root is 2^62 phi^2, and an object of length 2^63 has no inverse
    phi = (1 + math.sqrt(5)) / 2
    assert math.isclose(d.fp_dimension(fib, [2**62, 2**62]), 2**62 * phi**2, rel_tol=1e-12)
    assert d.is_left_invertible(fib, [2**62, 2**62]) is None
    assert d.is_right_invertible(fib, [2**62, 2**62]) is None


def test_inverse_in_a_ring_that_is_not_based_is_refused():
    # an unvalidated rank-4 ring whose unit entries are 4a - 2^64, far above 1, and a ring with a zero unit
    a = 6_500_000_000_000_000_000
    fusion = np.zeros((4, 4, 4), dtype=np.int64)
    fusion[:, 0, :] = a
    ring = d.FusionRing(labels=("a", "b", "c", "d"), unit=[4 * a - 2**64] * 4, dual=(0, 1, 2, 3), fusion=fusion)
    zero = d.FusionRing(labels=("a",), unit=[0], dual=(0,), fusion=[[[1]]])
    for ring, x in ((ring, [1, 0, 0, 0]), (zero, [1])):
        with pytest.raises(StructuralError, match="unit is not a sum of distinct simples"):
            d.is_left_invertible(ring, x)
    # every product is 1_a + 1_b, so each column fits under the unit and covers both of its components
    ring = d.FusionRing(labels=("a", "b"), unit=[1, 1], dual=(0, 1), fusion=np.ones((2, 2, 2), dtype=np.int64))
    for call in (d.is_left_invertible, d.is_right_invertible, d.classify_internal_end):
        with pytest.raises(StructuralError, match="covers two unit components"):
            call(ring, [1, 0])


def test_length_sums_past_int64():
    assert d.length([2**63 - 1, 2**63 - 1, 3]) == 2**64 + 1
    assert not d.is_simple_module_object([2**63 - 1, 2**63 - 1, 3])


def test_length():
    assert d.length([1, 1]) == 2
    assert d.length([0, 1, 0]) == 1


def test_length_of_tau_squared(fib):
    tau = fib.vector("tau")
    assert d.length(d.tensor(fib, tau, tau)) == 2


def test_is_simple(fib, rep_s3):
    assert d.is_simple(fib, fib.vector("tau"))
    assert not d.is_simple(fib, [1, 1])
    assert d.is_simple(rep_s3, rep_s3.vector("V"))
    with pytest.raises(ZeroObjectError):
        d.is_simple(fib, [0, 0])


# ---------------------------------------------------------------------- dual

def test_dual_object(fib):
    tau = fib.vector("tau")
    assert np.array_equal(d.dual_object(fib, tau), tau)
    assert np.array_equal(d.dual_object(fib, fib.unit), fib.unit)


def test_dual_object_group_inverse():
    ring = d.builtin_ring("vec_cyclic(3)")
    g = ring.vector("g1")
    assert np.array_equal(d.dual_object(ring, g), ring.vector("g2"))


# -------------------------------------------------------------- invertibility

def test_group_element_inverse():
    ring = d.builtin_ring("vec_cyclic(3)")
    witness = d.is_left_invertible(ring, ring.vector("g1"))
    assert witness is not None
    assert np.array_equal(witness, ring.vector("g2"))
    assert np.array_equal(d.tensor(ring, witness, ring.vector("g1")), ring.unit)


def test_tau_is_not_invertible(fib):
    assert d.is_left_invertible(fib, fib.vector("tau")) is None
    assert d.is_right_invertible(fib, fib.vector("tau")) is None


def test_standard_rep_not_invertible_all_candidates(rep_s3):
    v = rep_s3.vector("V")
    for i in range(rep_s3.rank):
        assert not np.array_equal(d.tensor(rep_s3, rep_s3.basis(i), v), rep_s3.unit)
    assert d.is_left_invertible(rep_s3, v) is None


def test_matrix_unit_has_no_one_sided_inverse(mm2):
    e12 = mm2.vector("e12")
    e21 = mm2.vector("e21")
    # e12 (x) e21 lands on e11 only, not on the full decomposable unit
    assert d.tensor(mm2, e12, e21).tolist() == [1, 0, 0, 0]
    assert d.is_right_invertible(mm2, e12) is None
    assert d.is_left_invertible(mm2, e12) is None


def test_decomposable_unit_is_self_inverse(mm2):
    witness = d.is_left_invertible(mm2, mm2.unit)
    assert witness is not None
    assert np.array_equal(d.tensor(mm2, witness, mm2.unit), mm2.unit)


def test_non_simple_invertible_in_multifusion(mm2):
    # e12 + e21 squares to the unit, a witness the simple-only search would miss
    x = mm2.vector([0, 1, 1, 0])
    assert d.tensor(mm2, x, x).tolist() == mm2.unit.tolist()
    left = d.is_left_invertible(mm2, x)
    right = d.is_right_invertible(mm2, x)
    assert left is not None and right is not None
    assert np.array_equal(d.tensor(mm2, left, x), mm2.unit)
    assert np.array_equal(d.tensor(mm2, x, right), mm2.unit)


def test_invertibility_rejects_zero(fib):
    with pytest.raises(ZeroObjectError):
        d.is_left_invertible(fib, [0, 0])


def test_witness_uses_smallest_basis_index():
    ring = d.builtin_ring("vec_cyclic(1)")
    witness = d.is_left_invertible(ring, ring.basis(0))
    assert witness.tolist() == [1]


def test_witness_takes_the_highest_index_fitting_column():
    # X_j (x) X_k = X_k, so both basis objects are left inverses of X_0: the unvalidated ring where the
    # rule shows; (0, 1) is the first solution by total and then lexicographically
    fusion = np.zeros((2, 2, 2), dtype=np.int64)
    fusion[:, [0, 1], [0, 1]] = 1
    ring = d.FusionRing(labels=("a", "b"), unit=[1, 0], dual=(0, 1), fusion=fusion)
    assert d.is_left_invertible(ring, [1, 0]).tolist() == [0, 1]


def test_all_ones_over_twenty_one_components_is_its_own_inverse():
    # the unit of 21 orthogonal idempotents: a search over its 2^21 candidates exceeded its budget
    ring = vec_direct_sum(21)
    assert d.validate_ring(ring).passed
    assert d.is_left_invertible(ring, ring.unit).tolist() == [1] * 21
    assert d.is_right_invertible(ring, ring.unit).tolist() == [1] * 21


@pytest.mark.parametrize("bounds", [[], [1], [3], [2, 1, 3], [1, 1, 1, 1], [3, 2], [2, 2, 2]])
def test_inverse_candidates_by_total_then_lexicographic(bounds):
    # the order of the search oracle below, which the closed-form witness must match
    want = sorted(itertools.product(*(range(b + 1) for b in bounds)), key=lambda c: (sum(c), c))
    assert list(candidates_by_total(bounds)) == want


def test_inverse_search_memory_stays_flat():
    # the all-ones unit of 14 orthogonal idempotents is its own inverse, found with no list of its 2**14 sub-sums
    ring = vec_direct_sum(14)
    tracemalloc.start()
    try:
        witness = d.is_left_invertible(ring, ring.unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.tolist() == [1] * 14
    assert peak < 1 << 20


def _two_branch_inverse(ring, x, side):
    """The former inverse search, by least total and then lexicographically, kept as an oracle for the closed form."""
    unit = ring.unit
    spec = "ijk,j->ki" if side == "left" else "jik,j->ki"
    matrix = np.einsum(spec, ring.fusion, x)
    if int(unit.sum()) == 1:
        if int(x.sum()) > 1:
            return None
        for i in range(ring.rank):
            if np.array_equal(matrix[:, i], unit):
                return ring.basis(i)
        return None
    bounds, columns = [], []
    for i in range(ring.rank):
        col = matrix[:, i]
        if not col.any():
            continue
        cap = int(min(unit[k] // col[k] for k in range(ring.rank) if col[k]))
        if cap > 0:
            columns.append(i)
            bounds.append(cap)
    for coeffs in candidates_by_total(bounds):
        y = np.zeros(ring.rank, dtype=np.int64)
        y[columns] = coeffs
        if any(coeffs) and np.array_equal(matrix @ y, unit):
            return y
    return None


def _inverse_oracle_rings(catalog_entries):
    rng = np.random.default_rng(2024)
    out = [e.ring for e in catalog_entries] + [vec_direct_sum(n) for n in range(1, 9)]
    for name in ("matrix_multifusion(2)", "matrix_multifusion(3)"):
        ring = d.builtin_ring(name)
        out += [relabeled(ring, rng.permutation(ring.rank)) for _ in range(3)]
    return out


def _inverse_oracle_objects(ring, rng):
    """Every basis object, every nonzero vector with entries <= 2 up to rank 4, seeded composites above."""
    objs = [ring.basis(i) for i in range(ring.rank)] + [ring.unit, np.ones(ring.rank, dtype=np.int64)]
    if ring.rank <= 4:
        objs += [np.array(v) for v in itertools.product(range(3), repeat=ring.rank) if any(v)]
    else:
        objs += [v for v in rng.integers(0, 3, size=(24, ring.rank)) if v.any()]
        objs += [v for v in rng.integers(0, 2, size=(24, ring.rank)) if v.any()]
    return objs


def test_one_search_matches_the_two_branch_oracle(catalog_entries):
    rng = np.random.default_rng(7)
    for ring in _inverse_oracle_rings(catalog_entries):
        assert d.validate_ring(ring).passed
        for x in _inverse_oracle_objects(ring, rng):
            for side, public in (("left", d.is_left_invertible), ("right", d.is_right_invertible)):
                want = _two_branch_inverse(ring, x, side)
                got = public(ring, x)
                assert (got is None) == (want is None), (ring.labels, x, side)
                if got is not None:
                    assert got.tolist() == want.tolist(), (ring.labels, x, side)


DELIGNE_FACTORS = [
    ("fib", "fib"),
    ("ising", "vec_cyclic(2)"),
    ("rep_s3", "vec_cyclic(3)"),
    ("matrix_multifusion(2)", "fib"),
    ("matrix_multifusion(2)", "matrix_multifusion(2)"),
    ("vec_cyclic(2)", "matrix_multifusion(3)"),
    ("vec_cyclic(2)", "vec_cyclic(2)", "matrix_multifusion(2)"),
]


def _fitting_columns(ring, x, side):
    """Per basis object j with e_j (x) x (left) or x (x) e_j (right) nonzero and under the unit: that product."""
    out = {}
    for j in range(ring.rank):
        column = d.tensor(ring, ring.basis(j), x) if side == "left" else d.tensor(ring, x, ring.basis(j))
        if column.any() and (column <= ring.unit).all():
            out[j] = column
    return out


def test_invertible_object_has_one_fitting_column_per_component(catalog_entries):
    # so the witness is the only inverse, and which fitting column it takes cannot change a verdict
    rng = np.random.default_rng(11)
    rings = _inverse_oracle_rings(catalog_entries) + [deligne(*names) for names in DELIGNE_FACTORS]
    invertible = 0
    for ring in rings:
        assert d.validate_ring(ring).passed
        components = np.flatnonzero(ring.unit).tolist()
        for x in _inverse_oracle_objects(ring, rng):
            for side, public in (("left", d.is_left_invertible), ("right", d.is_right_invertible)):
                witness = public(ring, x)
                if witness is None:
                    continue
                invertible += 1
                fitting = _fitting_columns(ring, x, side)
                assert all(int(column.sum()) == 1 for column in fitting.values()), (ring.labels, x, side)
                assert sorted(int(column.argmax()) for column in fitting.values()) == components, (ring.labels, x, side)
                assert np.flatnonzero(witness).tolist() == sorted(fitting), (ring.labels, x, side)
    assert invertible > 300


@st.composite
def inverse_cases(draw):
    """A direct sum of Vec, a relabeled matrix-unit ring or a Deligne product, with a basis or composite object."""
    kind = draw(st.sampled_from(["direct_sum", "matrix", "deligne"]))
    if kind == "direct_sum":
        ring = vec_direct_sum(draw(st.integers(1, 8)))
    elif kind == "matrix":
        ring = d.builtin_ring(draw(st.sampled_from(["matrix_multifusion(2)", "matrix_multifusion(3)"])))
        ring = relabeled(ring, np.array(draw(st.permutations(range(ring.rank)))))
    else:
        ring = deligne(*draw(st.sampled_from(DELIGNE_FACTORS)))
    if draw(st.booleans()):
        x = ring.basis(draw(st.integers(0, ring.rank - 1)))
    else:
        top = draw(st.integers(1, 2))
        x = np.array(draw(st.lists(st.integers(0, top), min_size=ring.rank, max_size=ring.rank).filter(any)))
    return ring, x


@given(inverse_cases())
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_the_search_oracle(case):
    ring, x = case
    for side, public in (("left", d.is_left_invertible), ("right", d.is_right_invertible)):
        want = _two_branch_inverse(ring, x, side)
        got = public(ring, x)
        assert (got is None) == (want is None), (ring.labels, x, side)
        if got is not None:
            assert got.tolist() == want.tolist(), (ring.labels, x, side)


# ------------------------------------------------------------- fp dimension

def test_fp_dimension_golden_ratio(fib):
    golden = (1 + math.sqrt(5)) / 2  # positive root of x*x = 1 + x
    assert abs(d.fp_dimension(fib, fib.vector("tau")) - golden) < 1e-6


def test_fp_dimension_unit_is_one(fib, rep_s3):
    assert abs(d.fp_dimension(fib, fib.unit) - 1.0) < 1e-9
    assert abs(d.fp_dimension(rep_s3, rep_s3.unit) - 1.0) < 1e-9


def test_fp_dimension_standard_rep_is_two(rep_s3):
    assert abs(d.fp_dimension(rep_s3, rep_s3.vector("V")) - 2.0) < 1e-9


def test_fp_dimension_sigma_is_sqrt_two(ising):
    assert abs(d.fp_dimension(ising, ising.vector("sigma")) - math.sqrt(2)) < 1e-9


def test_fp_dimension_nilpotent_slice_is_zero(mm2):
    assert d.fp_dimension(mm2, mm2.vector("e12")) == 0.0


def test_fp_dimension_multiplicative_on_simple_unit_rings(fib, ising, rep_s3):
    for ring in (fib, ising, rep_s3):
        for i in range(ring.rank):
            for j in range(ring.rank):
                x, y = ring.basis(i), ring.basis(j)
                lhs = d.fp_dimension(ring, d.tensor(ring, x, y))
                rhs = d.fp_dimension(ring, x) * d.fp_dimension(ring, y)
                assert abs(lhs - rhs) < 1e-6


def test_fp_dimension_at_least_one_for_simples(fib, ising, rep_s3):
    for ring in (fib, ising, rep_s3):
        for i in range(ring.rank):
            assert d.fp_dimension(ring, ring.basis(i)) >= 1.0 - 1e-9


def test_fp_dimension_on_reducible_multifusion_objects(mm2):
    # nilpotent coupling between diagonal blocks stalls plain power iteration;
    # the component-wise Perron root still exists and is 1 here
    for vec in ([1, 1, 0, 1], [1, 0, 1, 1]):
        assert abs(d.fp_dimension(mm2, vec) - 1.0) < 1e-8


def test_fp_dimension_matches_dense_eigensolver(catalog_entries):
    rng = np.random.default_rng(7)
    for entry in catalog_entries:
        ring = entry.ring
        for _ in range(5):
            vec = rng.integers(0, 3, size=ring.rank)
            got = d.fp_dimension(ring, vec)
            matrix = np.einsum("i,ijk->kj", vec, ring.fusion).astype(float)
            expected = max(abs(np.linalg.eigvals(matrix)))
            assert abs(got - expected) < 1e-7


# ------------------------------------------------------------ classification

def test_classify_tau(fib):
    report = d.classify_internal_end(fib, fib.vector("tau"))
    assert report.algebra_vector == (1, 1)
    assert report.simplistic
    assert not report.essential
    assert report.inverse_witness is None
    assert report.unreachable_targets == ((1, 0),)


def test_classify_invertible_simple():
    ring = d.builtin_ring("vec_cyclic(3)")
    report = d.classify_internal_end(ring, ring.vector("g1"))
    assert report.simplistic and report.essential
    assert report.inverse_witness == (0, 0, 1)


def test_classify_standard_rep(rep_s3):
    report = d.classify_internal_end(rep_s3, rep_s3.vector("V"))
    assert report.simplistic
    assert not report.essential


def test_classify_decomposable_unit(mm2):
    report = d.classify_internal_end(mm2, mm2.unit)
    assert not report.simplistic
    assert report.essential
    assert report.inverse_witness == (1, 0, 0, 1)


def test_classify_sides(fib, mm2):
    left = d.classify_internal_end(fib, fib.vector("tau"), side="left")
    right = d.classify_internal_end(fib, fib.vector("tau"), side="right")
    assert left.algebra_form == "XtensorXdual"
    assert right.algebra_form == "dualXtensorX"
    assert left.simplistic == right.simplistic
    e12 = mm2.vector("e12")
    assert d.classify_internal_end(mm2, e12, side="right").essential is False


def test_classify_algebra_matches_tensor_with_dual(fib, rep_s3, mm2):
    for ring in (fib, rep_s3, mm2):
        for i in range(ring.rank):
            x = ring.basis(i)
            report = d.classify_internal_end(ring, x)
            expected = d.tensor(ring, x, d.dual_object(ring, x))
            assert report.algebra_vector == tuple(int(v) for v in expected)


def test_classify_rejects_zero_and_bad_side(fib):
    with pytest.raises(ZeroObjectError):
        d.classify_internal_end(fib, [0, 0])
    with pytest.raises(StructuralError):
        d.classify_internal_end(fib, fib.vector("tau"), side="middle")


def test_report_witness_invariants(catalog_entries):
    for entry in catalog_entries:
        ring = entry.ring
        for i in range(ring.rank):
            report = d.classify_internal_end(ring, ring.basis(i))
            if report.essential:
                assert report.inverse_witness is not None
            else:
                assert len(report.unreachable_targets) >= 1
