"""Bucketed rank vectors: the discrete stand-in for uniform real-valued ranks.

Each vertex carries a pair ``(x, y)``: a bucket ``x`` drawn uniformly from
``1..k`` and a within-bucket position ``y`` forming a uniform permutation of
the bucket's occupants.  Lexicographic order on the pairs induces a uniformly
random total order, which is what the matching engine consumes.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, product
from itertools import permutations as iter_permutations
from math import factorial, prod
from typing import Iterable, Iterator, Mapping

import numpy as np

Slot = tuple[int, int]


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


class RankVector:
    """Immutable map vertex -> (bucket, within-bucket position).

    Stored as the vertices in slot order and their nondecreasing buckets; a
    position is the index minus its bucket's first index, plus one, so no
    bucket can have a gap.  Only ``RankVector(k, mapping)`` validates (the
    positions it derives must be the given ones); ``_from_order`` trusts its
    caller.  All operations return new vectors.
    """

    __slots__ = ("k", "_order", "_buckets")

    def __init__(self, k: int, ranks: Mapping[int, Slot]):
        check_bucket_count(k)
        m: dict[int, Slot] = {int(v): (int(x), int(y)) for v, (x, y) in ranks.items()}
        for v, (x, _) in m.items():
            if not 1 <= x <= k:
                raise ValueError(f"vertex {v} has bucket {x} outside 1..{k}")
        self.k = k
        self._order = tuple(sorted(m, key=m.__getitem__))
        self._buckets = tuple(m[v][0] for v in self._order)
        for v, (x, y) in self.items():
            if m[v] != (x, y):
                ys = sorted(y for b, y in m.values() if b == x)
                raise ValueError(f"bucket {x} positions {ys} are not contiguous from 1")

    @classmethod
    def _from_order(cls, k: int, order: tuple, buckets: tuple) -> RankVector:
        r = object.__new__(cls)
        r.k, r._order, r._buckets = k, order, buckets
        return r

    def _index(self, v: int) -> int:
        if v not in self._order:
            raise KeyError(f"vertex {v} not present in rank vector")
        return self._order.index(v)

    def rank(self, v: int) -> Slot:
        i = self._index(v)
        x = self._buckets[i]
        return x, i - bisect_left(self._buckets, x) + 1

    def bucket(self, v: int) -> int:
        return self._buckets[self._index(v)]

    def items(self) -> Iterator[tuple[int, Slot]]:
        b = self._buckets
        pairs = enumerate(zip(self._order, b))
        return ((v, (x, i - bisect_left(b, x) + 1)) for i, (v, x) in pairs)

    def bucket_size(self, x: int) -> int:
        return bisect_right(self._buckets, x) - bisect_left(self._buckets, x)

    def __contains__(self, v: int) -> bool:
        return v in self._order

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other) -> bool:
        return isinstance(other, RankVector) and self.k == other.k and (
            self._order == other._order and self._buckets == other._buckets
        )

    def __hash__(self) -> int:
        return hash((self.k, self._order, self._buckets))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:({x},{y})" for v, (x, y) in sorted(self.items()))
        return f"RankVector(k={self.k}, {{{inner}}})"


def check_bucket_count(k: int) -> None:
    """The one bucket-count rule: ``ValueError`` unless k is an int >= 1, not a bool."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"bucket count k must be >= 1 and an int, got {k!r}")


def _distinct_sorted(vertices: Iterable[int]) -> list[int]:
    vs = sorted(int(v) for v in vertices)
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"vertex {a} is repeated")
    return vs


def sample_ranks(vertices: Iterable[int], k: int, seed: int) -> RankVector:
    """Seeded draw: uniform bucket per vertex, uniform order within buckets.

    Uses the PCG64 stream, so identical ``(vertices, k, seed)`` reproduce the
    identical vector.
    """
    check_bucket_count(k)
    vs = _distinct_sorted(vertices)
    rng = np.random.default_rng(seed)
    members: dict[int, list[int]] = {}
    for v, x in zip(vs, rng.integers(1, k + 1, size=len(vs))):
        members.setdefault(int(x), []).append(v)
    order: list[int] = []
    buckets: list[int] = []
    for x in sorted(members):
        ms = members[x]
        order.extend(ms[i] for i in rng.permutation(len(ms)))
        buckets.extend([x] * len(ms))
    return RankVector._from_order(k, tuple(order), tuple(buckets))


def order_of(r: RankVector) -> tuple[int, ...]:
    """Vertices in increasing lexicographic (bucket, position) order."""
    return r._order


def induced_permutation(r: RankVector) -> dict[int, int]:
    """The unique permutation with sigma(u) < sigma(v) iff rank(u) < rank(v)."""
    return {v: i + 1 for i, v in enumerate(order_of(r))}


def remove_vertex(r: RankVector, v: int) -> RankVector:
    """Drop ``v``; re-compact positions in its bucket, all else untouched."""
    i = r._index(v)
    o, b = r._order, r._buckets
    return RankVector._from_order(r.k, o[:i] + o[i + 1 :], b[:i] + b[i + 1 :])


def move_vertex(r: RankVector, v: int, target: Slot) -> RankVector:
    """Move (or insert, if absent) ``v`` to ``target``, shifting the target
    bucket's occupants while preserving every other vertex's bucket and the
    pairwise relative order.
    """
    base = remove_vertex(r, v) if v in r else r
    j = slot_index(base, target)
    o, b = base._order, base._buckets
    x = target[0]
    return RankVector._from_order(r.k, o[:j] + (v,) + o[j:], b[:j] + (x,) + b[j:])


def slot_index(r: RankVector, slot: Slot) -> int:
    """Index in ``order_of(r)`` at which a vertex inserted at ``slot`` lands:
    the one slot-to-index rule.  ``ValueError`` for a bucket outside 1..k or
    a position that would leave a gap in its bucket."""
    x, y = slot
    if not 1 <= x <= r.k:
        raise ValueError(f"target bucket {x} outside 1..{r.k}")
    first = bisect_left(r._buckets, x)
    occupancy = bisect_right(r._buckets, x) - first
    if not 1 <= y <= occupancy + 1:
        raise ValueError(
            f"target position {y} breaks contiguity of bucket {x} "
            f"(occupancy {occupancy})"
        )
    return first + y - 1


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
) -> Iterator[RankVector]:
    """Yield every valid vector once.  The arguments are checked at the call,
    before anything is yielded."""
    check_bucket_count(k)
    vs = _distinct_sorted(vertices)
    n = len(vs)
    if k**n * factorial(n) > budget:
        raise EnumerationLimitError(
            f"k^n * n! = {k**n * factorial(n)} exceeds budget {budget}"
        )
    return _rank_vectors(vs, k)


def _rank_vectors(vs: list[int], k: int) -> Iterator[RankVector]:
    for assignment in product(range(1, k + 1), repeat=len(vs)):
        members: dict[int, list[int]] = {}
        for v, x in zip(vs, assignment):
            members.setdefault(x, []).append(v)
        xs = sorted(members)
        buckets = tuple(x for x in xs for _ in members[x])
        for orders in product(*(iter_permutations(members[x]) for x in xs)):
            yield RankVector._from_order(k, tuple(chain(*orders)), buckets)


def _weight(r: RankVector) -> Fraction:
    """The exact probability of drawing ``r``: 1/k^n for its bucket
    assignment times 1/m! for the order within each bucket of m vertices."""
    within = prod(factorial(r.bucket_size(x)) for x in set(r._buckets))
    return Fraction(1, r.k ** len(r) * within)


def distribution_audit(n: int, k: int) -> Fraction:
    """Max |P(induced permutation) - 1/n!| over all permutations, exactly.

    The bucketed generation scheme is uniform over total orders, so this
    must come out exactly zero.
    """
    totals: dict[tuple[int, ...], Fraction] = {}
    for vec in enumerate_rank_vectors(range(n), k):
        key = order_of(vec)
        totals[key] = totals.get(key, Fraction(0)) + _weight(vec)
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
