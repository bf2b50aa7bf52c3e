"""The randomized-greedy RANKING matcher, runnable in three equivalent views.

* ``vertex_iterative``: process vertices in rank order; each one grabs its
  first available neighbor under the same order.
* ``greedy_probing``: probe ordered vertex pairs in ascending lexicographic
  rank order and commit every probe whose endpoints are both free.
* ``restricted_arrival``: vertices arrive in rank order and may only look at
  neighbors that already arrived.

All three produce the same matching for the same order; ``views_agree``
checks that on concrete instances.  Every other run goes through one of two
cores: the greedy-probing replay (``_replay``) for one order, which backs
``matching_for_order``, the partial states and the structural checkers; and
``matching_sizes``, a batched implementation of the vertex-iterative view
over numpy arrays for many orders at once, which returns sizes only and is
checked row by row against the vertex-iterative view; on graphs with at
most 64 vertices it packs each run's taken set into one ``uint64`` word,
and larger graphs gather neighbor segments from the CSR view.  The sweep's
mutation arm is the vertex-iterative loop with its neighbor scan reversed.
Removing a vertex set S is realized by marking it unavailable from the start
(``frozen``), which keeps the probe timeline aligned with the full run --
the device the structural checks rely on.  Orders whose domain is a strict
subset of the graph's vertices are accepted; missing vertices are treated
as frozen.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .graphs import Edge, Graph, edge
from .ranks import RankVector, induced_permutation

Time = tuple[int, int]
OrderLike = Union[RankVector, Mapping[int, int], Sequence[int]]

VIEWS = ("vertex_iterative", "greedy_probing", "restricted_arrival")


@dataclass(frozen=True)
class ProbeEvent:
    time: Time
    edge: Edge
    accepted: bool


@dataclass(frozen=True)
class RankingTrace:
    matching: frozenset[Edge]
    probe_log: tuple[ProbeEvent, ...]
    view: str


@dataclass(frozen=True)
class PartialState:
    """Snapshot after all probes at times strictly before ``t``."""

    t: Time
    partial_matching: frozenset[Edge]
    available: frozenset[int]


def position_map(order: OrderLike) -> dict[int, int]:
    """Normalize an order (rank vector, map, or sequence) to vertex -> 1..n."""
    if isinstance(order, RankVector):
        return induced_permutation(order)
    if isinstance(order, Mapping):
        pos = {int(v): int(p) for v, p in order.items()}
        if sorted(pos.values()) != list(range(1, len(pos) + 1)):
            raise ValueError("order map is not a bijection onto 1..n")
        return pos
    seq = [int(v) for v in order]
    if len(set(seq)) != len(seq):
        raise ValueError("order sequence repeats a vertex")
    return {v: i + 1 for i, v in enumerate(seq)}


def _check_domain(g: Graph, pos: Mapping[int, int], frozen: frozenset[int]) -> None:
    for v in pos:
        if not 0 <= v < g.n:
            raise ValueError(f"order mentions vertex {v} outside the graph")
    if not frozen <= set(pos):
        raise ValueError(f"frozen vertices {sorted(frozen - set(pos))} not in order")


def _probe_schedule(g: Graph, pos: Mapping[int, int]) -> list[tuple[Time, Edge]]:
    """``(time, edge)`` of the first probe of every in-domain edge, ascending:
    the times are the distinct probe boundaries of every run on ``pos``."""
    schedule = []
    for u, v in g.edges:
        if u in pos and v in pos:
            a, b = pos[u], pos[v]
            schedule.append(((a, b) if a < b else (b, a), (u, v)))
    schedule.sort()
    return schedule


class _Timeline(NamedTuple):
    """One greedy-probing run.  ``schedule`` and ``accepted`` hold each
    probe and its outcome; ``matchings[i]`` and ``taken[i]`` are the state
    before probe ``i``, and index ``len(schedule)`` is the final state.
    ``taken`` is a bitmask of the frozen and matched vertices.  A probe that
    is turned down leaves the state as it was, and the next index reuses the
    same objects."""

    schedule: list[tuple[Time, Edge]]
    accepted: list[bool]
    matchings: list[frozenset[Edge]]
    taken: list[int]

    def before(self, t: Time) -> int:
        """Index of the state after all probes at times < ``t``."""
        return bisect_left(self.schedule, (t,))


def _replay(g: Graph, pos: Mapping[int, int], frozen: frozenset[int]) -> _Timeline:
    """The greedy-probing loop: walk the probe schedule once, committing
    every probe whose endpoints are both free."""
    _check_domain(g, pos, frozen)
    schedule = _probe_schedule(g, pos)
    matching: frozenset[Edge] = frozenset()
    taken = 0
    for v in frozen:
        taken |= 1 << v
    accepted: list[bool] = []
    matchings = [matching]
    takens = [taken]
    for _, (u, v) in schedule:
        pair = 1 << u | 1 << v
        ok = not taken & pair
        if ok:
            taken |= pair
            matching = matching | {(u, v)}
        accepted.append(ok)
        matchings.append(matching)
        takens.append(taken)
    return _Timeline(schedule, accepted, matchings, takens)


def _vertex_iterative(g, pos, frozen, latest_first=False):
    # ``latest_first`` scans neighbors in descending rank, so each vertex
    # grabs its last free neighbor: the sweep's deliberately wrong mutation arm.
    domain = set(pos)
    by_rank = sorted(domain, key=pos.__getitem__)
    unavailable = set(frozen)
    log: list[ProbeEvent] = []
    matching: set[Edge] = set()
    for v in by_rank:
        if v in unavailable:
            continue  # every probe from a matched vertex is vacuous
        for u in sorted(
            (u for u in g.neighbors(v) if u in domain),
            key=pos.__getitem__,
            reverse=latest_first,
        ):
            ok = u not in unavailable
            log.append(ProbeEvent((pos[v], pos[u]), edge(u, v), ok))
            if ok:
                matching.add(edge(u, v))
                unavailable.add(u)
                unavailable.add(v)
                break
    return matching, log


def _greedy_probing(g, pos, frozen):
    timeline = _replay(g, pos, frozen)
    log = [
        ProbeEvent(t, e, ok) for (t, e), ok in zip(timeline.schedule, timeline.accepted)
    ]
    return timeline.matchings[-1], log


def _restricted_arrival(g, pos, frozen):
    # Arrival i probes the pairs (i, 1), (i, 2), ..., (i, i-1) in order:
    # only neighbors that already arrived are visible.
    domain = set(pos)
    by_rank = {p: v for v, p in pos.items()}
    unavailable = set(frozen)
    log: list[ProbeEvent] = []
    matching: set[Edge] = set()
    for i in range(1, len(domain) + 1):
        v = by_rank[i]
        for j in range(1, i):
            u = by_rank[j]
            if not g.has_edge(u, v):
                continue
            ok = u not in unavailable and v not in unavailable
            log.append(ProbeEvent((i, j), edge(u, v), ok))
            if ok:
                matching.add(edge(u, v))
                unavailable.add(u)
                unavailable.add(v)
    return matching, log


_VIEW_IMPLS = {
    "vertex_iterative": _vertex_iterative,
    "greedy_probing": _greedy_probing,
    "restricted_arrival": _restricted_arrival,
}


def run_ranking(
    g: Graph,
    order: OrderLike,
    view: str = "vertex_iterative",
    frozen: frozenset[int] | set[int] = frozenset(),
) -> RankingTrace:
    """Run the greedy matcher on ``g`` under ``order``.

    ``frozen`` vertices stay unavailable from the start and are never
    matched; this realizes the run on the order with those vertices removed,
    without re-indexing anyone else.
    """
    if view not in _VIEW_IMPLS:
        raise ValueError(f"unknown view {view!r}; choose one of {VIEWS}")
    pos = position_map(order)
    frozen = frozenset(frozen)
    _check_domain(g, pos, frozen)
    matching, log = _VIEW_IMPLS[view](g, pos, frozen)
    return RankingTrace(frozenset(matching), tuple(log), view)


def matching_for_order(
    g: Graph,
    order: OrderLike,
    frozen: frozenset[int] | set[int] = frozenset(),
) -> frozenset[Edge]:
    """Just the matching: the final state of the greedy-probing replay."""
    return _replay(g, position_map(order), frozenset(frozen)).matchings[-1]


#: Largest vertex count whose taken set fits one ``uint64`` word per run.
WORD_BITS = 64


def matching_sizes(g: Graph, orders) -> np.ndarray:
    """Matching size of the vertex-iterative run for every row of ``orders``.

    ``orders`` is an int array of shape (B, n) whose rows list all of
    ``g``'s vertices in processing order.  Step ``t`` advances all B runs
    at once: each row whose ``t``-th vertex is still free takes its
    earliest-positioned free neighbor.  Graphs with at most ``WORD_BITS``
    vertices keep each run's taken set as one ``uint64`` over positions
    (working memory O(B * n)); larger graphs gather neighbor segments from
    the CSR view (O(B * n + |E|)).
    """
    orders = np.asarray(orders, dtype=np.intp)
    n = g.n
    if orders.ndim != 2 or orders.shape[1] != n:
        raise ValueError(f"orders must have shape (B, {n}), got {orders.shape}")
    if orders.size and (orders.min() < 0 or orders.max() >= n):
        raise ValueError("orders mention a vertex outside the graph")
    if n <= WORD_BITS:
        return _word_sizes(g, orders)
    return _csr_sizes(g, orders)


def _word_sizes(g: Graph, orders: np.ndarray) -> np.ndarray:
    # Bit p of a run's word stands for the vertex at position p.  Cell
    # v * B + r of ``bits`` is 1 << (v's position in row r), and cell
    # v * B + r of ``words`` ORs those of v's neighbors.
    b, n = orders.shape
    bits = np.zeros(n * b, dtype=np.uint64)
    cells = orders.T * b + np.arange(b)
    bits[cells] = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))[:, None]
    if np.count_nonzero(bits) != bits.size:
        raise ValueError("an order row repeats a vertex")
    indptr, indices = g.csr
    bits = bits.reshape(n, b)
    words = np.zeros((n, b), dtype=np.uint64)
    for v in range(n):
        lo, hi = indptr[v], indptr[v + 1]
        if hi > lo:
            np.bitwise_or.reduce(bits[indices[lo:hi]], axis=0, out=words[v])
    words = words.ravel()
    one = np.uint64(1)
    taken = np.zeros(b, dtype=np.uint64)
    sizes = np.zeros(b, dtype=np.uint64)
    for t in range(n):
        free = ~taken
        # Free neighbors of the vertex at position t, none if it is taken.
        c = words[cells[t]] & free
        c *= (free >> np.uint64(t)) & one
        hit = np.minimum(c, one)
        taken |= (c & (~c + one)) | (hit << np.uint64(t))
        sizes += hit
    return sizes.astype(np.int64)


def _csr_sizes(g: Graph, orders: np.ndarray) -> np.ndarray:
    b, n = orders.shape
    indptr, indices = g.csr
    degree = np.diff(indptr)
    # Runs share one flat (B * n) array: row r's vertex v is cell r * n + v.
    # It holds v's position in row r while v is free and n once v is matched,
    # so one gather both masks matched neighbors and ranks the free ones.
    row_base = np.arange(b, dtype=np.intp) * n
    key = np.full(b * n, -1, dtype=np.intp)
    key[(row_base[:, None] + orders).ravel()] = np.tile(np.arange(n), b)
    if (key < 0).any():
        raise ValueError("an order row repeats a vertex")
    sizes = np.zeros(b, dtype=np.int64)
    for t in range(n):
        v = orders[:, t]
        live = np.flatnonzero((key[row_base + v] < n) & (degree[v] > 0))
        if not live.size:
            continue
        v = v[live]
        deg = degree[v]
        seg_start = np.cumsum(deg) - deg
        # Flat index into ``indices`` for every gathered neighbor slot.
        slot = np.arange(int(seg_start[-1] + deg[-1])) + np.repeat(
            indptr[v] - seg_start, deg
        )
        cell = np.repeat(row_base[live], deg) + indices[slot]
        first = np.minimum.reduceat(key[cell], seg_start)
        hit = first < n
        live, v, first = live[hit], v[hit], first[hit]
        key[row_base[live] + v] = n
        key[row_base[live] + orders[live, first]] = n
        sizes[live] += 1
    return sizes


def partial_states(
    g: Graph,
    order: OrderLike,
    times: Iterable[Time],
    frozen: frozenset[int] | set[int] = frozenset(),
) -> Iterator[PartialState]:
    """Replay the probe log once, yielding the state before each of ``times``
    (matching and availability after all probes at times < t).  ``times``
    must strictly ascend; ``ValueError`` otherwise.
    """
    pos = position_map(order)
    timeline = _replay(g, pos, frozenset(frozen))
    previous = None
    for t in times:
        if previous is not None and t <= previous:
            raise ValueError(f"times must ascend: {t} follows {previous}")
        previous = t
        i = timeline.before(t)
        taken = timeline.taken[i]
        available = frozenset(v for v in pos if not taken >> v & 1)
        yield PartialState(t, timeline.matchings[i], available)


def partial_state(
    g: Graph,
    order: OrderLike,
    t: Time,
    frozen: frozenset[int] | set[int] = frozenset(),
) -> PartialState:
    """Matching and availability after all probes at times < ``t``."""
    return next(partial_states(g, order, [t], frozen))


@dataclass(frozen=True)
class AgreeReport:
    agree: bool
    matchings: dict[str, frozenset[Edge]]

    @property
    def divergence(self) -> dict | None:
        if self.agree:
            return None
        return {view: sorted(m) for view, m in self.matchings.items()}


def views_agree(
    g: Graph,
    order: OrderLike,
    frozen: frozenset[int] | set[int] = frozenset(),
) -> AgreeReport:
    """Run all three views and report whether their matchings coincide."""
    matchings = {view: run_ranking(g, order, view, frozen).matching for view in VIEWS}
    agree = len(set(matchings.values())) == 1
    return AgreeReport(agree, matchings)


def trace_to_json(trace: RankingTrace) -> str:
    return json.dumps(
        {
            "view": trace.view,
            "matching": sorted([list(e) for e in trace.matching]),
            "probe_log": [
                {"time": list(ev.time), "edge": list(ev.edge), "accepted": ev.accepted}
                for ev in trace.probe_log
            ],
        }
    )
