"""Bucketed rank vectors: the discrete stand-in for uniform real-valued ranks.

Each vertex carries a pair ``(x, y)``: a bucket ``x`` drawn uniformly from
``1..k`` and a within-bucket position ``y`` forming a uniform permutation of
the bucket's occupants.  Lexicographic order on the pairs induces a uniformly
random total order, which is what the matching engine consumes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

import numpy as np

Slot = tuple[int, int]


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


class RankVector:
    """Immutable map vertex -> (bucket, within-bucket position).

    Invariants: the map is injective and, for every bucket, the positions
    present are exactly ``1..m`` for some ``m >= 0`` (contiguity).  All
    operations return new vectors.
    """

    __slots__ = ("k", "_map", "_key", "_order")

    def __init__(self, k: int, ranks: Mapping[int, Slot]):
        if k < 1:
            raise ValueError("bucket count k must be >= 1")
        m: dict[int, Slot] = {int(v): (int(x), int(y)) for v, (x, y) in ranks.items()}
        per_bucket: dict[int, list[int]] = {}
        for v, (x, y) in m.items():
            if not 1 <= x <= k:
                raise ValueError(f"vertex {v} has bucket {x} outside 1..{k}")
            per_bucket.setdefault(x, []).append(y)
        for x, ys in per_bucket.items():
            if sorted(ys) != list(range(1, len(ys) + 1)):
                raise ValueError(
                    f"bucket {x} positions {sorted(ys)} are not contiguous from 1"
                )
        self.k = k
        self._map = m
        # Slots are injective, so sorting by slot is canonical and gives the order.
        by_slot = tuple(sorted(m.items(), key=itemgetter(1)))
        self._key = (k, by_slot)
        self._order = tuple(v for v, _ in by_slot)

    def rank(self, v: int) -> Slot:
        return self._map[v]

    def bucket(self, v: int) -> int:
        return self._map[v][0]

    def items(self):
        return self._map.items()

    def vertices(self) -> frozenset[int]:
        return frozenset(self._map)

    def bucket_size(self, x: int) -> int:
        return sum(1 for (b, _) in self._map.values() if b == x)

    def __contains__(self, v: int) -> bool:
        return v in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, RankVector) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:({x},{y})" for v, (x, y) in sorted(self._map.items()))
        return f"RankVector(k={self.k}, {{{inner}}})"


def sample_ranks(vertices: Iterable[int], k: int, seed: int) -> RankVector:
    """Seeded draw: uniform bucket per vertex, uniform order within buckets.

    Uses the PCG64 stream, so identical ``(vertices, k, seed)`` reproduce the
    identical vector.
    """
    vs = sorted(vertices)
    rng = np.random.default_rng(seed)
    ranks: dict[int, Slot] = {}
    if not vs:
        return RankVector(k, ranks)
    buckets = rng.integers(1, k + 1, size=len(vs))
    members: dict[int, list[int]] = {}
    for v, x in zip(vs, buckets):
        members.setdefault(int(x), []).append(v)
    for x in sorted(members):
        order = rng.permutation(len(members[x]))
        for y_minus_1, idx in enumerate(order):
            ranks[members[x][int(idx)]] = (x, y_minus_1 + 1)
    return RankVector(k, ranks)


def order_of(r: RankVector) -> tuple[int, ...]:
    """Vertices in increasing lexicographic (bucket, position) order."""
    return r._order


def induced_permutation(r: RankVector) -> dict[int, int]:
    """The unique permutation with sigma(u) < sigma(v) iff rank(u) < rank(v)."""
    return {v: i + 1 for i, v in enumerate(order_of(r))}


def remove_vertex(r: RankVector, v: int) -> RankVector:
    """Drop ``v``; re-compact positions in its bucket, all else untouched."""
    if v not in r:
        raise KeyError(f"vertex {v} not present in rank vector")
    xv, yv = r.rank(v)
    ranks = {}
    for u, (x, y) in r.items():
        if u == v:
            continue
        ranks[u] = (x, y - 1) if x == xv and y > yv else (x, y)
    return RankVector(r.k, ranks)


def move_vertex(r: RankVector, v: int, target: Slot) -> RankVector:
    """Move (or insert, if absent) ``v`` to ``target``, shifting the target
    bucket's occupants while preserving every other vertex's bucket and the
    pairwise relative order.
    """
    x, y = target
    if not 1 <= x <= r.k:
        raise ValueError(f"target bucket {x} outside 1..{r.k}")
    base = remove_vertex(r, v) if v in r else r
    occupancy = base.bucket_size(x)
    if not 1 <= y <= occupancy + 1:
        raise ValueError(
            f"target position {y} breaks contiguity of bucket {x} "
            f"(occupancy {occupancy})"
        )
    ranks = {}
    for u, (xu, yu) in base.items():
        ranks[u] = (xu, yu + 1) if xu == x and yu >= y else (xu, yu)
    ranks[v] = (x, y)
    return RankVector(r.k, ranks)


def insertion_slots(r: RankVector, v: int | None = None) -> list[Slot]:
    """All valid target slots for moving/inserting ``v``, in ascending order.

    When ``v`` is present its own slot is excluded from the occupancy count,
    so the result is exactly the set of vectors reachable by one move.
    """
    base = remove_vertex(r, v) if (v is not None and v in r) else r
    slots: list[Slot] = []
    for x in range(1, r.k + 1):
        occ = base.bucket_size(x)
        slots.extend((x, y) for y in range(1, occ + 2))
    return slots


def enumerate_rank_vectors(
    vertices: Iterable[int], k: int, budget: int = 5_000_000
) -> Iterator[tuple[RankVector, Fraction]]:
    """Yield every valid vector once, with its exact probability weight.

    The weight is (bucket assignment probability) x (within-bucket
    permutation probability), as an exact rational.  Weights sum to 1.
    The arguments are checked at the call, before anything is yielded.
    """
    if k < 1:
        raise ValueError(f"bucket count k must be >= 1, got {k}")
    vs = sorted(vertices)
    n = len(vs)
    if k**n * factorial(n) > budget:
        raise EnumerationLimitError(
            f"k^n * n! = {k**n * factorial(n)} exceeds budget {budget}"
        )
    return _rank_vectors(vs, k)


def _rank_vectors(vs: list[int], k: int) -> Iterator[tuple[RankVector, Fraction]]:
    n = len(vs)
    if n == 0:
        yield RankVector(k, {}), Fraction(1)
        return
    assign_weight = Fraction(1, k**n)
    for assignment in product(range(1, k + 1), repeat=n):
        members: dict[int, list[int]] = {}
        for v, x in zip(vs, assignment):
            members.setdefault(x, []).append(v)
        weight = assign_weight
        for ms in members.values():
            weight /= factorial(len(ms))
        buckets = sorted(members)
        for orders in product(*(iter_permutations(members[x]) for x in buckets)):
            ranks: dict[int, Slot] = {}
            for x, order in zip(buckets, orders):
                for y_minus_1, v in enumerate(order):
                    ranks[v] = (x, y_minus_1 + 1)
            yield RankVector(k, ranks), weight


def distribution_audit(n: int, k: int) -> Fraction:
    """Max |P(induced permutation) - 1/n!| over all permutations, exactly.

    The bucketed generation scheme is uniform over total orders, so this
    must come out exactly zero.
    """
    totals: dict[tuple[int, ...], Fraction] = {}
    for vec, weight in enumerate_rank_vectors(range(n), k):
        key = order_of(vec)
        totals[key] = totals.get(key, Fraction(0)) + weight
    target = Fraction(1, factorial(max(n, 1)))
    deviations = [abs(p - target) for p in totals.values()]
    if n >= 1 and len(totals) != factorial(n):
        # A permutation that never occurs deviates by the full 1/n!.
        deviations.append(target)
    return max(deviations) if deviations else Fraction(0)


def vector_to_json(r: RankVector) -> str:
    return json.dumps(
        {"k": r.k, "ranks": {str(v): list(slot) for v, slot in sorted(r.items())}}
    )


def vector_from_json(text: str) -> RankVector:
    payload = json.loads(text)
    return RankVector(
        payload["k"], {int(v): tuple(slot) for v, slot in payload["ranks"].items()}
    )
