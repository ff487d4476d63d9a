import numpy as np
import pytest

import divalg as d
from divalg.errors import CatalogError

from util import s3_character_fusion


def test_every_entry_validates(catalog_entries):
    assert len(catalog_entries) == 18
    for entry in catalog_entries:
        assert d.validate_ring(entry.ring).passed, entry.name


def test_every_regular_nimrep_validates(catalog_entries):
    for entry in catalog_entries:
        nr = d.regular_nimrep(entry.ring)
        for check_dual in (False, True):
            assert d.validate_nimrep(entry.ring, nr, check_dual=check_dual).passed, entry.name


def test_rep_s3_matches_character_table_oracle(rep_s3):
    assert np.array_equal(rep_s3.fusion, s3_character_fusion())


def test_fib_fusion_rule(fib):
    assert fib.fusion[1, 1].tolist() == [1, 1]
    assert fib.fusion[1, 0].tolist() == [0, 1]


def test_ising_fusion_rules(ising):
    sigma, eps = ising.vector("sigma"), ising.vector("eps")
    assert d.tensor(ising, sigma, sigma).tolist() == [1, 1, 0]
    assert d.tensor(ising, eps, eps).tolist() == [1, 0, 0]
    assert d.tensor(ising, eps, sigma).tolist() == [0, 0, 1]


def test_rep_s3_fusion_rules(rep_s3):
    sgn, v = rep_s3.vector("sgn"), rep_s3.vector("V")
    assert d.tensor(rep_s3, sgn, sgn).tolist() == [1, 0, 0]
    assert d.tensor(rep_s3, sgn, v).tolist() == [0, 0, 1]
    assert d.tensor(rep_s3, v, v).tolist() == [1, 1, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_vec_cyclic_group_law(n):
    ring = d.builtin_ring(f"vec_cyclic({n})")
    assert ring.rank == n
    for i in range(n):
        for j in range(n):
            product = d.tensor(ring, ring.basis(i), ring.basis(j))
            assert product.tolist() == ring.basis((i + j) % n).tolist()


def test_vec_cyclic_one_is_trivial():
    ring = d.builtin_ring("vec_cyclic(1)")
    assert ring.rank == 1
    assert ring.fusion.tolist() == [[[1]]]


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_multifusion_rules(n):
    ring = d.builtin_ring(f"matrix_multifusion({n})")
    assert ring.rank == n * n
    index = {(a, b): a * n + b for a in range(n) for b in range(n)}
    for (a, b), i in index.items():
        for (c, e), j in index.items():
            product = d.tensor(ring, ring.basis(i), ring.basis(j))
            if b == c:
                assert product.tolist() == ring.basis(index[(a, e)]).tolist()
            else:
                assert not product.any()


def test_matrix_multifusion_unit_and_dual(mm2):
    assert d.length(mm2.unit) == 2
    assert mm2.labels == ("e11", "e12", "e21", "e22")
    assert mm2.dual == (0, 2, 1, 3)


@pytest.mark.parametrize("name", ["nope", "vec_cyclic(0)", "vec_cyclic(13)",
                                  "matrix_multifusion(4)", "matrix_multifusion(-1)"])
def test_builtin_ring_rejects_bad_names(name):
    with pytest.raises(CatalogError):
        d.builtin_ring(name)


def test_each_builtin_is_built_once(catalog_entries):
    fib = d.builtin_ring("fib")
    assert d.builtin_ring(" fib ") is fib
    assert catalog_entries[0].ring is fib
    assert d.builtin_ring("vec_cyclic(03)") is d.builtin_ring("vec_cyclic(3)")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_vec_cyclic_every_simple_invertible(n):
    ring = d.builtin_ring(f"vec_cyclic({n})")
    for i in range(n):
        assert d.is_left_invertible(ring, ring.basis(i)) is not None
        assert d.is_right_invertible(ring, ring.basis(i)) is not None


def test_invertible_simples_inventory(fib, ising, rep_s3):
    # fib: the unit only; ising and rep_s3 each have one more order-2 invertible
    def invertibles(ring):
        return {
            ring.labels[i]
            for i in range(ring.rank)
            if d.is_left_invertible(ring, ring.basis(i)) is not None
        }

    assert invertibles(fib) == {"1"}
    assert invertibles(ising) == {"1", "eps"}
    assert invertibles(rep_s3) == {"1", "sgn"}


def test_unit_is_essential_in_every_ring(catalog_entries):
    for entry in catalog_entries:
        report = d.classify_internal_end(entry.ring, entry.ring.unit)
        assert report.essential, entry.name
        assert report.simplistic == (d.length(entry.ring.unit) == 1), entry.name


def test_ising_sigma_is_second_simplistic_witness(ising):
    report = d.classify_internal_end(ising, ising.vector("sigma"))
    assert report.simplistic and not report.essential
    assert report.algebra_vector == (1, 1, 0)


def test_regular_nimrep_matrices(fib, rep_s3):
    assert d.regular_nimrep(fib).actions[1].tolist() == [[0, 1], [1, 1]]
    assert d.regular_nimrep(rep_s3).actions[2].tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 1]]


def test_regular_nimrep_of_group_ring_is_permutations():
    ring = d.builtin_ring("vec_cyclic(4)")
    for matrix in d.regular_nimrep(ring).actions:
        assert (matrix.sum(axis=0) == 1).all()
        assert (matrix.sum(axis=1) == 1).all()


def test_payload_round_trip(catalog_entries):
    for entry in catalog_entries:
        clone = d.FusionRing.from_payload(entry.ring.to_payload())
        assert clone.labels == entry.ring.labels
        assert np.array_equal(clone.fusion, entry.ring.fusion)
        assert np.array_equal(clone.unit, entry.ring.unit)
        assert clone.dual == entry.ring.dual
