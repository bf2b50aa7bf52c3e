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
most 64 vertices it packs each run's free set into one word (``uint32`` up
to 32 vertices, ``uint64`` above), and larger graphs gather neighbor
segments from the CSR view.  The sweep's mutation arm is the
vertex-iterative loop with its neighbor scan reversed.
Removing a vertex set S is realized by marking it unavailable from the start
(``frozen``), which keeps the probe timeline aligned with the full run --
the device the structural checks rely on.  Orders whose domain is a strict
subset of the graph's vertices are accepted; missing vertices are treated
as frozen.

A run is computed once per (graph, order, frozen set).  An order is reduced
to its vertex sequence once, and its probe schedule, built from per-vertex
int positions, is shared by every frozen set; the replay's timeline is kept
per (order, frozen set).  The memo holds the last graph seen only (a new
``Graph`` object empties it) and at most ``MEMO_PROBES`` probe states, and
it keeps only orders and frozen sets that passed their checks.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import starmap
from typing import NamedTuple, Union

import numpy as np

from .graphs import Edge, Graph, edge
from .ranks import RankVector, order_of

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


def _vertices(order: OrderLike) -> tuple:
    """An order's vertex sequence as given, before its checks: cheap for a
    rank vector, a tuple or a list, and the key the run memo looks up.  A
    mapping is checked for being a bijection here, on every call."""
    if isinstance(order, RankVector):
        return order_of(order)
    if isinstance(order, (tuple, list)):
        return tuple(order)
    if isinstance(order, Mapping):
        pos = {int(v): int(p) for v, p in order.items()}
        if sorted(pos.values()) != list(range(1, len(pos) + 1)):
            raise ValueError("order map is not a bijection onto 1..n")
        return tuple(sorted(pos, key=pos.__getitem__))
    return tuple(order)


def _sequence(vertices: tuple) -> tuple[int, ...]:
    """``_vertices``'s result as distinct int vertices."""
    seq = tuple(int(v) for v in vertices)
    if len(set(seq)) != len(seq):
        raise ValueError("order sequence repeats a vertex")
    return seq


def _checked(g: Graph, vertices: tuple) -> tuple[int, ...]:
    """``_sequence``, with every vertex checked to be one of ``g``'s."""
    seq = _sequence(vertices)
    for v in seq:
        if not 0 <= v < g.n:
            raise ValueError(f"order mentions vertex {v} outside the graph")
    return seq


def _check_frozen(seq: tuple[int, ...], frozen: frozenset[int]) -> None:
    if not frozen <= set(seq):
        raise ValueError(f"frozen vertices {sorted(frozen - set(seq))} not in order")


def position_map(order: OrderLike) -> dict[int, int]:
    """Normalize an order (rank vector, map, or sequence) to vertex -> 1..n."""
    return {v: i for i, v in enumerate(_sequence(_vertices(order)), start=1)}


class _Order(NamedTuple):
    """One checked order on a graph.  ``seq`` lists its vertices by position,
    ``rank[v]`` is vertex v's position 1..len(seq) (0 for a vertex off the
    order), and ``schedule`` holds ``(time, edge)`` of the first probe of
    every in-domain edge, ascending: the times are the distinct probe
    boundaries of every run on the order, whatever is frozen."""

    seq: tuple[int, ...]
    rank: tuple[int, ...]
    schedule: tuple[tuple[Time, Edge], ...]


class _Timeline(NamedTuple):
    """One greedy-probing run of ``order``.  ``accepted`` holds each probe's
    outcome; ``matchings[i]`` and ``taken[i]`` are the state before probe
    ``i``, and index ``len(schedule)`` is the final state.  ``taken`` is a
    bitmask of the frozen and matched vertices.  A probe that is turned down
    leaves the state as it was, and the next index reuses the same objects.
    The run memo shares timelines between callers, so every field is a
    tuple."""

    order: _Order
    accepted: tuple[bool, ...]
    matchings: tuple[frozenset[Edge], ...]
    taken: tuple[int, ...]

    @property
    def schedule(self) -> tuple[tuple[Time, Edge], ...]:
        return self.order.schedule

    def before(self, t: Time) -> int:
        """Index of the state after all probes at times < ``t``."""
        return bisect_left(self.order.schedule, (t,))


#: Most probe states the run memo holds: past it the memo starts over, and a
#: single order or run longer than this is never kept.
MEMO_PROBES = 1 << 14


class _RunMemo(threading.local):
    """The orders and runs computed on the last graph seen, so a run is
    computed once per (graph, order, frozen set).  A different ``Graph``
    object (by identity) empties it.  ``probes`` counts the schedule
    entries of the kept orders and the states of the kept runs.  Each
    thread has its own memo, so one thread's reset never mixes graphs in
    another's."""

    def __init__(self) -> None:
        self.reset(None)

    def reset(self, g: Graph | None) -> None:
        self.graph = g
        self.orders: dict[tuple[int, ...], _Order] = {}
        self.runs: dict[tuple[tuple[int, ...], frozenset[int]], _Timeline] = {}
        self.probes = 0

    def admit(self, size: int) -> bool:
        """Make room for ``size`` probe states; False if they never fit."""
        if size > MEMO_PROBES:
            return False
        if self.probes + size > MEMO_PROBES:
            self.reset(self.graph)
        self.probes += size
        return True


_MEMO = _RunMemo()


def _order(g: Graph, order: OrderLike) -> _Order:
    """The checked order with its probe schedule, built once per order on
    ``g``; the checks run again for an order the memo does not hold."""
    if _MEMO.graph is not g:
        _MEMO.reset(g)
    vertices = _vertices(order)
    known = _MEMO.orders.get(vertices)
    if known is not None:
        return known
    seq = _checked(g, vertices)
    rank = [0] * g.n
    for i, v in enumerate(seq, start=1):
        rank[v] = i
    # Each probe leads with its time (a, b) as the int a * stride + b: the
    # sort then compares one int per pair, not nested tuples.
    stride = g.n + 1
    keyed = []
    for u, v in g.edges:
        a, b = rank[u], rank[v]
        if a > b:
            a, b = b, a
        if a:
            keyed.append((a * stride + b, (a, b), (u, v)))
    keyed.sort()
    schedule = tuple([(t, e) for _, t, e in keyed])
    known = _Order(seq, tuple(rank), schedule)
    if _MEMO.admit(len(schedule) + 1):
        _MEMO.orders[seq] = known
    return known


def _replay(g: Graph, order: OrderLike, frozen: frozenset[int]) -> _Timeline:
    """The greedy-probing loop: walk the order's probe schedule once,
    committing every probe whose endpoints are both free.  Each (graph,
    order, frozen set) is replayed once while the memo holds it."""
    if _MEMO.graph is not g:
        _MEMO.reset(g)
    vertices = _vertices(order)
    timeline = _MEMO.runs.get((vertices, frozen))
    if timeline is not None:
        return timeline
    o = _order(g, vertices)
    _check_frozen(o.seq, frozen)
    matching: frozenset[Edge] = frozenset()
    taken = 0
    for v in frozen:
        taken |= 1 << v
    accepted: list[bool] = []
    matchings = [matching]
    takens = [taken]
    for _, (u, v) in o.schedule:
        pair = 1 << u | 1 << v
        ok = not taken & pair
        if ok:
            taken |= pair
            matching = matching | {(u, v)}
        accepted.append(ok)
        matchings.append(matching)
        takens.append(taken)
    timeline = _Timeline(o, tuple(accepted), tuple(matchings), tuple(takens))
    if _MEMO.admit(len(takens)):
        _MEMO.runs[o.seq, frozen] = timeline
    return timeline


def _vertex_iterative(g, seq, frozen, latest_first=False):
    # ``latest_first`` scans neighbors in descending rank, so each vertex
    # grabs its last free neighbor: the sweep's deliberately wrong mutation arm.
    pos = {v: i for i, v in enumerate(seq, start=1)}
    unavailable = set(frozen)
    log: list[tuple[Time, Edge, bool]] = []
    matching: set[Edge] = set()
    for v in seq:
        if v in unavailable:
            continue  # every probe from a matched vertex is vacuous
        for u in sorted(
            (u for u in g.neighbors(v) if u in pos),
            key=pos.__getitem__,
            reverse=latest_first,
        ):
            ok = u not in unavailable
            e = edge(u, v)
            log.append(((pos[v], pos[u]), e, ok))
            if ok:
                matching.add(e)
                unavailable.add(u)
                unavailable.add(v)
                break
    return matching, log


def _greedy_probing(g, seq, frozen):
    timeline = _replay(g, seq, frozen)
    # Lazy: ``views_agree`` reads the matching only.
    log = ((t, e, ok) for (t, e), ok in zip(timeline.schedule, timeline.accepted))
    return timeline.matchings[-1], log


def _restricted_arrival(g, seq, frozen):
    # Arrival i probes the pairs (i, 1), (i, 2), ..., (i, i-1) in order:
    # only neighbors that already arrived are visible.
    unavailable = set(frozen)
    log: list[tuple[Time, Edge, bool]] = []
    matching: set[Edge] = set()
    for i, v in enumerate(seq, start=1):
        for j, u in enumerate(seq[: i - 1], start=1):
            if not g.has_edge(u, v):
                continue
            ok = u not in unavailable and v not in unavailable
            e = edge(u, v)
            log.append(((i, j), e, ok))
            if ok:
                matching.add(e)
                unavailable.add(u)
                unavailable.add(v)
    return matching, log


#: Each view returns its matching and its probe log as plain ``(time, edge,
#: accepted)`` tuples; only ``run_ranking`` makes ``ProbeEvent``s of them.
_VIEW_IMPLS = {
    "vertex_iterative": _vertex_iterative,
    "greedy_probing": _greedy_probing,
    "restricted_arrival": _restricted_arrival,
}


def _run_args(g: Graph, order: OrderLike, frozen) -> tuple[tuple[int, ...], frozenset[int]]:
    """The checked vertex sequence and frozen set every view runs on."""
    seq = _checked(g, _vertices(order))
    frozen = frozenset(frozen)
    _check_frozen(seq, frozen)
    return seq, frozen


def run_ranking(
    g: Graph,
    order: OrderLike,
    view: str = "vertex_iterative",
    frozen: frozenset[int] | set[int] = frozenset(),
) -> RankingTrace:
    """Run the greedy matcher on ``g`` under ``order``.

    ``frozen`` vertices stay unavailable from the start and are never
    matched; this realizes the run on the order with those vertices removed,
    without re-indexing anyone else.  The order is checked here, once, and
    every view runs on the checked vertex sequence.
    """
    if view not in _VIEW_IMPLS:
        raise ValueError(f"unknown view {view!r}; choose one of {VIEWS}")
    matching, log = _VIEW_IMPLS[view](g, *_run_args(g, order, frozen))
    return RankingTrace(frozenset(matching), tuple(starmap(ProbeEvent, log)), view)


def matching_for_order(
    g: Graph,
    order: OrderLike,
    frozen: frozenset[int] | set[int] = frozenset(),
) -> frozenset[Edge]:
    """Just the matching: the final state of the greedy-probing replay."""
    return _replay(g, order, frozenset(frozen)).matchings[-1]


#: Largest vertex count whose free set fits one ``uint64`` word per run.
WORD_BITS = 64


def matching_sizes(g: Graph, orders) -> np.ndarray:
    """Matching size of the vertex-iterative run for every row of ``orders``.

    ``orders`` is an int array of shape (B, n) whose rows list all of
    ``g``'s vertices in processing order.  Step ``t`` advances all B runs
    at once: each row whose ``t``-th vertex is still free takes its
    earliest-positioned free neighbor.  Graphs with at most ``WORD_BITS``
    vertices keep each run's free set as one word over positions, a
    ``uint32`` up to 32 vertices and a ``uint64`` above (working memory
    O(B * n)); larger graphs gather neighbor segments from the CSR view
    (O(B * n + |E|)).
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
    # Bit p of a run's word stands for the vertex at position p, in the
    # narrowest unsigned word that holds n bits.  Row t of ``cells`` holds
    # v * B + r for the vertex v at position t of each row r; cell v * B + r
    # of ``bits`` is 1 << (v's position in row r), and cell v * B + r of
    # ``words`` ORs those of v's neighbors.
    b, n = orders.shape
    word = np.uint32 if n <= 32 else np.uint64
    cells = orders.T.copy()
    cells *= b
    cells += np.arange(b)
    position = np.left_shift(word(1), np.arange(n, dtype=word))
    bits = np.zeros(n * b, dtype=word)
    for t in range(n):
        bits[cells[t]] = position[t]
    if np.count_nonzero(bits) != bits.size:
        raise ValueError("an order row repeats a vertex")
    indptr, indices = g.csr
    bits = bits.reshape(n, b)
    words = np.zeros((n, b), dtype=word)
    for v in range(n):
        lo, hi = indptr[v], indptr[v + 1]
        if hi > lo:
            np.bitwise_or.reduce(bits[indices[lo:hi]], axis=0, out=words[v])
    # Row t of ``later`` holds the neighbors of the vertex at position t that
    # come after it.  A free vertex has no free earlier neighbor (that
    # neighbor would have taken it), so these are its only candidates, and a
    # vertex that takes a partner never needs its own bit cleared.
    later = words.ravel()[cells]
    later &= ~(position * word(2) - word(1))[:, None]
    one = word(1)
    free = np.full(b, ~word(0))
    for t in range(n):
        c = later[t]
        c &= free
        c *= (free >> word(t)) & one  # none if this vertex is taken
        c &= -c  # its earliest free later neighbor
        free ^= c
    # Row t now holds the partner taken at step t, or 0.
    return np.count_nonzero(later, axis=0)


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
    timeline = _replay(g, order, frozenset(frozen))
    previous = None
    for t in times:
        if previous is not None and t <= previous:
            raise ValueError(f"times must ascend: {t} follows {previous}")
        previous = t
        i = timeline.before(t)
        taken = timeline.taken[i]
        available = frozenset(v for v in timeline.order.seq if not taken >> v & 1)
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
    """Run all three views on the order, checked once, and report whether
    their matchings coincide; no probe log is kept."""
    args = _run_args(g, order, frozen)
    matchings = {view: frozenset(_VIEW_IMPLS[view](g, *args)[0]) for view in VIEWS}
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
