import hashlib
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranking_forge.experiments import monte_carlo_ratio
from ranking_forge.gains import PriceTable
from ranking_forge.graphs import generate_family
from ranking_forge.lpmodel import build_lp, compact_mps_chunks, write_compact_mps
from ranking_forge.ranks import (
    EnumerationLimitError,
    RankVector,
    _weight,
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
    for vec in enumerate_rank_vectors(range(5), 3):
        full = order_of(vec)
        for v in range(5):
            reduced = order_of(remove_vertex(vec, v))
            assert reduced == tuple(u for u in full if u != v)


def test_move_round_trip_exhaustively():
    for vec in enumerate_rank_vectors(range(4), 3, budget=10_000_000):
        for v in range(4):
            home = vec.rank(v)
            for slot in insertion_slots(vec, v):
                back = move_vertex(move_vertex(vec, v, slot), v, home)
                assert back == vec


def test_move_preserves_bystander_buckets_and_order():
    for vec in enumerate_rank_vectors(range(4), 2):
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
        # Surgery does not validate, so check the result against the
        # validating mapping constructor at every step.
        assert len(vec) == 5
        rebuilt = RankVector(vec.k, dict(vec.items()))
        assert rebuilt == vec and hash(rebuilt) == hash(vec)


def _assert_round_trips(vec):
    rebuilt = RankVector(vec.k, dict(vec.items()))
    assert rebuilt == vec and hash(rebuilt) == hash(vec)
    assert dict(rebuilt.items()) == dict(vec.items())
    assert all(vec.rank(v) == slot for v, slot in rebuilt.items())


def test_built_vectors_round_trip_through_the_mapping_constructor():
    for vec in enumerate_rank_vectors(range(4), 3):
        _assert_round_trips(vec)
        for v in range(4):
            _assert_round_trips(remove_vertex(vec, v))
            for slot in insertion_slots(vec, v):
                _assert_round_trips(move_vertex(vec, v, slot))


def _digest(lines):
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def test_enumeration_is_pinned():
    vectors = enumerate_rank_vectors(range(4), 3)
    lines = [f"{sorted(vec.items())} {_weight(vec)}" for vec in vectors]
    assert len(lines) == 360
    assert _digest(lines).startswith("14ef2b723e75b5eb")


def test_sampling_is_pinned():
    lines = [sorted(sample_ranks(range(6), 3, seed).items()) for seed in range(100)]
    assert _digest(lines).startswith("7e68fd6f8e7b98c6")


def test_absent_vertex_raises_key_error():
    vec = RankVector(2, {0: (1, 1), 1: (2, 1)})
    for lookup in (vec.rank, vec.bucket, lambda v: remove_vertex(vec, v)):
        with pytest.raises(KeyError):
            lookup(9)


def test_enumeration_counts_and_weights():
    vecs = list(enumerate_rank_vectors(range(2), 2))
    assert len(vecs) == len(set(vecs)) == 6
    assert all(isinstance(vec, RankVector) for vec in vecs)
    weights = [_weight(vec) for vec in vecs]
    assert sum(weights) == 1
    assert all(isinstance(w, Fraction) for w in weights)
    # One bucket of two vertices: 1/2^2 for the assignment, 1/2! within.
    assert _weight(RankVector(2, {0: (1, 1), 1: (1, 2)})) == Fraction(1, 8)


def test_enumeration_budget():
    # Checked at the call, before anything is iterated.
    with pytest.raises(EnumerationLimitError):
        enumerate_rank_vectors(range(10), 3, budget=100)


@pytest.mark.parametrize("k", [0, -1])
def test_enumeration_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        enumerate_rank_vectors(range(2), k)


@pytest.mark.parametrize("k", [0, -1, True, 2.5, "2"])
def test_rank_vector_rejects_a_bucket_count_that_is_not_an_int_of_at_least_one(k):
    with pytest.raises(ValueError, match="bucket count k"):
        RankVector(k, {0: (1, 1)})
    with pytest.raises(ValueError, match="bucket count k"):
        sample_ranks(range(2), k, seed=0)
    with pytest.raises(ValueError, match="bucket count k"):
        enumerate_rank_vectors(range(2), k)


BUCKET_COUNT_ENTRIES = {
    "build_lp": lambda k, path: build_lp(k),
    "compact_mps_chunks": lambda k, path: compact_mps_chunks(k),
    "write_compact_mps": lambda k, path: write_compact_mps(k, path),
    "PriceTable": lambda k, path: PriceTable(k, [[0.5]]),
    "sample_ranks": lambda k, path: sample_ranks(range(2), k, seed=0),
    "enumerate_rank_vectors": lambda k, path: enumerate_rank_vectors(range(2), k),
    "monte_carlo_ratio": lambda k, path: monte_carlo_ratio(
        generate_family("path", n=4), 10, k, seed=0
    ),
}


@pytest.mark.parametrize("k", [0, -1, True, 2.0])
@pytest.mark.parametrize("entry", sorted(BUCKET_COUNT_ENTRIES))
def test_every_entry_refuses_a_bad_bucket_count_at_the_call(entry, k, tmp_path):
    path = tmp_path / "model.mps"
    with pytest.raises(ValueError) as caught:
        BUCKET_COUNT_ENTRIES[entry](k, path)
    assert str(caught.value) == f"bucket count k must be >= 1 and an int, got {k!r}"
    assert not path.exists()


def test_json_rejects_a_fractional_bucket_count():
    with pytest.raises(ValueError, match="bucket count k"):
        vector_from_json('{"k": 2.5, "ranks": {"0": [2, 1]}}')


@pytest.mark.parametrize("seed", range(4))
def test_sampling_rejects_a_repeated_vertex(seed):
    with pytest.raises(ValueError, match="vertex 0 is repeated"):
        sample_ranks([0, 0, 1], k=3, seed=seed)


def test_enumeration_rejects_a_repeated_vertex_at_the_call():
    with pytest.raises(ValueError, match="vertex 0 is repeated"):
        enumerate_rank_vectors([0, 0], 2)


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
    for vec in enumerate_rank_vectors(range(3), 2):
        key = order_of(vec)
        totals[key] = totals.get(key, Fraction(0)) + _weight(vec)
    assert len(totals) == 6
    assert set(totals.values()) == {Fraction(1, 6)}
    assert len(list(permutations(range(3)))) == len(totals)


def test_json_round_trip():
    vec = sample_ranks(range(4), k=3, seed=5)
    assert vector_from_json(vector_to_json(vec)) == vec
