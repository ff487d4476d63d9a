"""Law-level property tests over the builtin rings."""

import numpy as np
from hypothesis import given, settings, strategies as st

import divalg as d

ENTRIES = list(d.entries())
SIMPLE_UNIT = [e for e in ENTRIES if int(e.ring.unit.sum()) == 1]
SMALL = [e for e in ENTRIES if e.ring.rank <= 6]


def vector_strategy(rank, max_entry=3):
    return st.lists(st.integers(0, max_entry), min_size=rank, max_size=rank)


@st.composite
def ring_and_vectors(draw, entries, count=1):
    entry = draw(st.sampled_from(entries))
    vectors = []
    for _ in range(count):
        vec = draw(vector_strategy(entry.ring.rank))
        vectors.append(np.array(vec, dtype=np.int64))
    return (entry.ring, *vectors)


@given(ring_and_vectors(SMALL, count=3))
@settings(max_examples=150, deadline=None)
def test_tensor_is_associative(data):
    ring, x, y, z = data
    lhs = d.tensor(ring, d.tensor(ring, x, y), z)
    rhs = d.tensor(ring, x, d.tensor(ring, y, z))
    assert np.array_equal(lhs, rhs)


@given(ring_and_vectors(SMALL))
@settings(max_examples=100, deadline=None)
def test_unit_is_identity(data):
    ring, x = data
    assert np.array_equal(d.tensor(ring, ring.unit, x), x)
    assert np.array_equal(d.tensor(ring, x, ring.unit), x)


@given(ring_and_vectors(SMALL, count=2))
@settings(max_examples=150, deadline=None)
def test_length_submultiplicative_with_simple_unit(data):
    ring, x, y = data
    if int(ring.unit.sum()) != 1 or not x.any() or not y.any():
        return
    assert d.length(d.tensor(ring, x, y)) >= d.length(x) * d.length(y)


@given(ring_and_vectors(SMALL))
@settings(max_examples=150, deadline=None)
def test_invertible_implies_simple_with_simple_unit(data):
    ring, x = data
    if int(ring.unit.sum()) != 1 or not x.any():
        return
    if d.is_left_invertible(ring, x) is not None or d.is_right_invertible(ring, x) is not None:
        assert d.is_simple(ring, x)


@given(ring_and_vectors(SMALL))
@settings(max_examples=150, deadline=None)
def test_left_right_invertibility_agree_on_catalog(data):
    ring, x = data
    if not x.any():
        return
    left = d.is_left_invertible(ring, x)
    right = d.is_right_invertible(ring, x)
    assert (left is None) == (right is None)


@given(ring_and_vectors(SMALL))
@settings(max_examples=120, deadline=None)
def test_essential_implies_simplistic_with_simple_unit(data):
    ring, x = data
    if int(ring.unit.sum()) != 1 or not x.any():
        return
    for side in ("left", "right"):
        report = d.classify_internal_end(ring, x, side=side)
        if report.essential:
            assert report.simplistic


@given(ring_and_vectors(SMALL, count=2))
@settings(max_examples=100, deadline=None)
def test_dual_is_monoidal_contravariant(data):
    ring, x, y = data
    lhs = d.dual_object(ring, d.tensor(ring, x, y))
    rhs = d.tensor(ring, d.dual_object(ring, y), d.dual_object(ring, x))
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(d.dual_object(ring, d.dual_object(ring, x)), x)


@given(ring_and_vectors(SMALL, count=2))
@settings(max_examples=100, deadline=None)
def test_regular_action_is_module_associative(data):
    ring, x, y = data
    nr = d.regular_nimrep(ring)
    m = ring.unit
    lhs = d.act(ring, nr, d.tensor(ring, x, y), m)
    rhs = d.act(ring, nr, x, d.act(ring, nr, y, m))
    assert np.array_equal(lhs, rhs)


@given(ring_and_vectors(SMALL, count=3))
@settings(max_examples=100, deadline=None)
def test_regular_action_module_associative_at_any_point(data):
    ring, x, y, m = data
    nr = d.regular_nimrep(ring)
    lhs = d.act(ring, nr, d.tensor(ring, x, y), m)
    rhs = d.act(ring, nr, x, d.act(ring, nr, y, m))
    assert np.array_equal(lhs, rhs)


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=120, deadline=None)
def test_cross_check_on_arbitrary_nonzero_objects(entry, data):
    vec = np.array(data.draw(vector_strategy(entry.ring.rank, 2)), dtype=np.int64)
    if not vec.any():
        return
    assert d.cross_check_internal_end(entry.ring, vec)


# ------------------------------------------------ huge objects and int64

def wide_vector(rank):
    """Entries small, near 2^32, or up to 2^63 - 1, so contractions land on both sides of 2^53 and 2^63."""
    entry = st.one_of(st.integers(0, 3), st.integers(0, 2**32), st.integers(0, 2**63 - 1))
    return st.lists(entry, min_size=rank, max_size=rank)


def exact_tensor(fusion, x, y):
    rank = len(fusion)
    return [sum(x[i] * y[j] * fusion[i][j][k] for i in range(rank) for j in range(rank)) for k in range(rank)]


def exact_act(actions, x, m):
    slots = range(len(m))
    return [sum(x[i] * actions[i][a][b] * m[b] for i in range(len(x)) for b in slots) for a in slots]


def exact_slot_witnesses(actions, m):
    """(i, k) for each slot k and the least basis object i that sends m exactly onto e_k."""
    first = {}
    for i in range(len(actions)):
        image = exact_act(actions, [int(j == i) for j in range(len(actions))], m)
        if sum(image) == 1:
            first.setdefault(image.index(1), i)
    return sorted((i, k) for k, i in first.items())


@given(st.sampled_from(ENTRIES), st.data())
@settings(max_examples=150, deadline=None)
def test_int64_objects_act_exactly(entry, data):
    ring = entry.ring
    nr = d.regular_nimrep(ring)
    x, y, m = (data.draw(wide_vector(ring.rank)) for _ in range(3))
    assert d.tensor(ring, x, y).tolist() == exact_tensor(ring.fusion.tolist(), x, y)
    assert d.act(ring, nr, x, m).tolist() == exact_act(nr.actions.tolist(), x, m)
    assert d.length(x) == sum(x)
    if any(m):
        assert d.is_simple_module_object(m) == (sum(m) == 1)


@given(st.sampled_from(ENTRIES), st.data())
@settings(max_examples=150, deadline=None)
def test_int64_objects_classify_exactly(entry, data):
    ring = entry.ring
    fusion = ring.fusion.tolist()
    x = data.draw(wide_vector(ring.rank).filter(any))
    dual = [x[i] for i in ring.dual]
    report = d.classify_internal_end(ring, x)
    assert list(report.algebra_vector) == exact_tensor(fusion, x, dual)
    assert report.simplistic is (sum(x) == 1)
    if report.inverse_witness is not None:
        assert exact_tensor(fusion, list(report.inverse_witness), x) == ring.unit.tolist()
    nr = d.regular_nimrep(ring)
    witnesses = d.nimreps._classify_module_object(nr, nr.vector(x)).slot_witnesses
    assert list(witnesses) == exact_slot_witnesses(nr.actions.tolist(), x)


# ---------------------------------- the regular NIM-rep's laws are ring laws

@st.composite
def small_rings(draw):
    """A catalog ring of rank <= 4, with entries moved or another dual, or a random tensor: lawful and broken.

    A catalog ring with another dual breaks only the duality laws, so its regular NIM-rep still passes.
    """
    source = draw(st.sampled_from(["catalog", "perturbed", "redualled", "random"]))
    if source == "random":
        rank = draw(st.integers(1, 4))
        fusion = np.array(draw(st.lists(st.integers(0, 2), min_size=rank**3, max_size=rank**3))).reshape(rank, rank, rank)
        unit = draw(vector_strategy(rank, 2))
        dual = draw(st.permutations(range(rank)))
        return d.FusionRing(labels=tuple(f"x{i}" for i in range(rank)), unit=unit, dual=dual, fusion=fusion)
    ring = draw(st.sampled_from([e.ring for e in ENTRIES if e.ring.rank <= 4]))
    if source == "catalog":
        return ring
    if source == "redualled":
        return d.FusionRing(ring.labels, ring.unit, draw(st.permutations(range(ring.rank))), ring.fusion)
    fusion = ring.fusion.copy()
    cells = draw(st.lists(st.tuples(*[st.integers(0, ring.rank - 1)] * 3), min_size=1, max_size=3))
    for cell in cells:
        fusion[cell] = draw(st.integers(0, 2))
    unit = draw(st.one_of(st.just(ring.unit.tolist()), vector_strategy(ring.rank, 1)))
    return d.FusionRing(labels=ring.labels, unit=unit, dual=ring.dual, fusion=fusion)


@given(small_rings())
@settings(max_examples=300, deadline=None)
def test_regular_nimrep_passes_exactly_when_the_ring_has_its_laws(ring):
    ring_report = d.validate_ring(ring)
    nim_report = d.validate_nimrep(ring, d.regular_nimrep(ring))
    ring_laws = [v for v in ring_report.violations if v.axiom in ("unit_left", "associativity")]
    assert nim_report.passed == (not ring_laws)
    # unit_action (a, b) is unit_left (b, a); multiplicativity (i, j, a, b) is associativity (i, j, b, a), sides swapped
    translated = set()
    for v in ring_laws:
        if v.axiom == "unit_left":
            translated.add(("unit_action", v.index[::-1], v.lhs, v.rhs))
        else:
            i, j, k, l = v.index
            translated.add(("multiplicativity", (i, j, l, k), v.rhs, v.lhs))
    got = [(v.axiom, v.index, v.lhs, v.rhs) for v in nim_report.violations]
    assert len(got) == len(set(got)) == len(ring_laws)
    assert set(got) == translated
