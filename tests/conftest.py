import sys
from pathlib import Path

import pytest
from hypothesis import settings

import divalg

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run, so two runs of the suite can be compared
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def catalog_entries():
    return divalg.entries()


@pytest.fixture(scope="session")
def simple_unit_entries(catalog_entries):
    return [e for e in catalog_entries if int(e.ring.unit.sum()) == 1]


@pytest.fixture()
def fib():
    return divalg.builtin_ring("fib")


@pytest.fixture()
def rep_s3():
    return divalg.builtin_ring("rep_s3")


@pytest.fixture()
def ising():
    return divalg.builtin_ring("ising")


@pytest.fixture()
def mm2():
    return divalg.builtin_ring("matrix_multifusion(2)")
