from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranking_forge.ranks import (
    EnumerationLimitError,
    RankVector,
    distribution_audit,
    enumerate_rank_vectors,
    induced_permutation,
    insertion_slots,
    move_vertex,
    order_of,
    remove_vertex,
    sample_ranks,
    vector_from_json,
    vector_to_json,
)


def test_single_vertex_is_forced():
    r = sample_ranks({5}, k=1, seed=99)
    assert r.rank(5) == (1, 1)


def test_empty_vertex_set_is_fine():
    assert len(sample_ranks(set(), k=3, seed=0)) == 0


def test_sampling_is_deterministic():
    a = sample_ranks({0, 1, 2}, k=2, seed=1)
    b = sample_ranks({0, 1, 2}, k=2, seed=1)
    assert a == b
    assert a != sample_ranks({0, 1, 2}, k=2, seed=2) or True  # may collide


def test_invariants_rejected():
    with pytest.raises(ValueError):
        RankVector(2, {0: (1, 1), 1: (1, 3)})  # gap in bucket 1
    with pytest.raises(ValueError):
        RankVector(2, {0: (3, 1)})  # bucket out of range


def test_induced_permutation_examples():
    r = RankVector(2, {10: (1, 1), 11: (2, 1)})
    assert induced_permutation(r) == {10: 1, 11: 2}
    r = RankVector(2, {0: (2, 1), 1: (1, 1), 2: (1, 2)})
    assert induced_permutation(r) == {1: 1, 2: 2, 0: 3}


def test_remove_compacts():
    r = RankVector(1, {0: (1, 1), 1: (1, 2)})
    assert dict(remove_vertex(r, 0).items()) == {1: (1, 1)}
    r = RankVector(2, {0: (1, 1), 1: (2, 1)})
    assert dict(remove_vertex(r, 1).items()) == {0: (1, 1)}
    with pytest.raises(KeyError):
        remove_vertex(r, 9)


def test_move_examples():
    r = RankVector(1, {0: (1, 1)})
    moved = move_vertex(r, 7, (1, 1))
    assert dict(moved.items()) == {7: (1, 1), 0: (1, 2)}
    r = RankVector(2, {0: (1, 1), 1: (2, 1)})
    moved = move_vertex(r, 0, (2, 1))
    assert dict(moved.items()) == {0: (2, 1), 1: (2, 2)}
    with pytest.raises(ValueError):
        move_vertex(r, 0, (2, 5))


def test_removal_preserves_relative_order_exhaustively():
    # All vectors on 5 vertices with 3 buckets; removing any vertex induces
    # the order restriction.
    for vec, _ in enumerate_rank_vectors(range(5), 3):
        full = order_of(vec)
        for v in range(5):
            reduced = order_of(remove_vertex(vec, v))
            assert reduced == tuple(u for u in full if u != v)


def test_move_round_trip_exhaustively():
    for vec, _ in enumerate_rank_vectors(range(4), 3, budget=10_000_000):
        for v in range(4):
            home = vec.rank(v)
            for slot in insertion_slots(vec, v):
                back = move_vertex(move_vertex(vec, v, slot), v, home)
                assert back == vec


def test_move_preserves_bystander_buckets_and_order():
    for vec, _ in enumerate_rank_vectors(range(4), 2):
        before = order_of(vec)
        for v in range(4):
            rest = tuple(u for u in before if u != v)
            for slot in insertion_slots(vec, v):
                moved = move_vertex(vec, v, slot)
                assert moved.rank(v) == slot
                assert tuple(u for u in order_of(moved) if u != v) == rest
                for u in rest:
                    assert moved.bucket(u) == vec.bucket(u)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 20)), max_size=12))
def test_contiguity_holds_under_random_move_sequences(ops):
    vec = sample_ranks(range(5), k=3, seed=0)
    for v, slot_choice in ops:
        slots = insertion_slots(vec, v)
        vec = move_vertex(vec, v, slots[slot_choice % len(slots)])
        # Constructor re-validates contiguity and injectivity on every step.
        assert len(vec) == 5


def test_enumeration_counts_and_weights():
    vecs = list(enumerate_rank_vectors(range(2), 2))
    assert len(vecs) == 6
    assert sum(w for _, w in vecs) == 1
    assert all(isinstance(w, Fraction) for _, w in vecs)


def test_enumeration_budget():
    with pytest.raises(EnumerationLimitError):
        list(enumerate_rank_vectors(range(10), 3, budget=100))


@pytest.mark.parametrize("k", [0, -1])
def test_enumeration_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        next(enumerate_rank_vectors(range(2), k))


def test_probe_times_are_distinct():
    # Induced permutation has no ties, so neither do edge probe times.
    vec = sample_ranks(range(6), k=2, seed=13)
    pos = induced_permutation(vec)
    times = set()
    for u in range(6):
        for v in range(u + 1, 6):
            t = (min(pos[u], pos[v]), max(pos[u], pos[v]))
            assert t not in times
            times.add(t)


def test_distribution_audit_trivial_and_published_cases():
    assert distribution_audit(1, 1) == 0
    assert distribution_audit(3, 2) == 0
    assert distribution_audit(4, 3) == 0


def test_uniformity_for_three_vertices_two_buckets():
    totals = {}
    for vec, w in enumerate_rank_vectors(range(3), 2):
        key = order_of(vec)
        totals[key] = totals.get(key, Fraction(0)) + w
    assert len(totals) == 6
    assert set(totals.values()) == {Fraction(1, 6)}
    assert len(list(permutations(range(3)))) == len(totals)


def test_json_round_trip():
    vec = sample_ranks(range(4), k=3, seed=5)
    assert vector_from_json(vector_to_json(vec)) == vec
