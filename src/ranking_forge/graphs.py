"""Undirected graphs, maximum matchings, and test-instance families.

Graphs are immutable after construction and safe to share across workers.
Edges are canonicalized as ``(min, max)`` pairs so that set semantics match
the undirected reading.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

import numpy as np

Edge = tuple[int, int]

#: Vertex cap for the exhaustive (exponential-time) matching search.
EXHAUSTIVE_LIMIT = 24

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "random_with_perfect_matching",
    "appendix_counterexample",
)


class SizeLimitError(RuntimeError):
    """Raised when a graph exceeds the exhaustive-search size limit."""


def edge(u: int, v: int) -> Edge:
    """Canonical undirected edge representation."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``m_star`` optionally designates a fixed maximum matching used by the
    gain-sharing analysis; it is validated to be a matching on the graph but
    its maximality is the caller's responsibility.
    """

    n: int
    edges: frozenset[Edge]
    m_star: Optional[frozenset[Edge]] = None
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )
    _csr: Optional[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"vertex_count must be positive, got {self.n}")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop {e} is not allowed")
            if u > v:
                raise ValueError(f"edge {e} is not in canonical (min, max) form")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} has an endpoint outside 0..{self.n - 1}")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(x)) for x in adj))
        if self.m_star is not None and not is_matching(self, self.m_star):
            raise ValueError("designated m_star is not a matching of this graph")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: the neighbors of ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``, ascending.  Built on first use."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum([len(a) for a in self._adj], out=indptr[1:])
            indices = np.fromiter(
                (u for a in self._adj for u in a), dtype=np.intp, count=int(indptr[-1])
            )
            object.__setattr__(self, "_csr", (indptr, indices))
        return self._csr

    @property
    def vertices(self) -> range:
        return range(self.n)


class PerfectPair(NamedTuple):
    """A pair ``(u, u_star)`` matched together in the designated matching."""

    u: int
    u_star: int


def designated_pairs(g: "Graph") -> list[PerfectPair]:
    """Both orientations of every designated-matching edge.

    Gain-sharing audits treat the first coordinate as the vertex conditioned
    to be a buyer, so each edge is audited twice.
    """
    if g.m_star is None:
        raise ValueError("graph has no designated matching")
    pairs = []
    for u, v in sorted(g.m_star):
        pairs.append(PerfectPair(u, v))
        pairs.append(PerfectPair(v, u))
    return pairs


def make_graph(
    vertex_count: int,
    edge_list: Iterable[tuple[int, int]],
    m_star: Optional[Iterable[tuple[int, int]]] = None,
) -> Graph:
    """Build a canonicalized graph; duplicate pairs collapse into one edge.
    :class:`Graph` rejects self-loops and out-of-range endpoints."""
    edges = frozenset(edge(u, v) for u, v in edge_list)
    ms = frozenset(edge(u, v) for u, v in m_star) if m_star is not None else None
    return Graph(vertex_count, edges, ms)


def is_matching(g: Graph, edges: Iterable[Edge]) -> bool:
    """True iff ``edges`` are graph edges and no two share an endpoint."""
    seen: set[int] = set()
    for e in edges:
        if e not in g.edges:
            return False
        u, v = e
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def matched_partner(matching: Iterable[Edge], v: int) -> Optional[int]:
    """The vertex matched with ``v``, or None if ``v`` is unmatched."""
    for a, b in matching:
        if a == v:
            return b
        if b == v:
            return a
    return None


def maximum_matching(g: Graph) -> frozenset[Edge]:
    """A maximum matching, by memoized search over vertex subsets.

    Exponential in the vertex count; guarded by ``EXHAUSTIVE_LIMIT``.
    Deterministic in which maximum matching it returns, so it picks the
    designated matching of the sweep corpus; it is also the test oracle for
    :func:`blossom_matching`.
    """
    if g.n > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(
            f"graph has {g.n} vertices, above the exhaustive limit {EXHAUSTIVE_LIMIT}"
        )
    adj_mask = [0] * g.n
    for u in range(g.n):
        for v in g.neighbors(u):
            adj_mask[u] |= 1 << v

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        score = best(rest)  # u stays unmatched
        cand = adj_mask[u] & rest
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            score = max(score, 1 + best(rest & ~(1 << v)))
        return score

    # Reconstruct one optimal matching by replaying the recursion greedily.
    chosen: set[Edge] = set()
    mask = (1 << g.n) - 1
    while mask:
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        if best(mask) == best(rest):
            mask = rest
            continue
        cand = adj_mask[u] & rest
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if best(mask) == 1 + best(rest & ~(1 << v)):
                chosen.add(edge(u, v))
                mask = rest & ~(1 << v)
                break
    result = frozenset(chosen)
    best.cache_clear()
    return result


def blossom_matching(g: Graph) -> frozenset[Edge]:
    """A maximum matching by Edmonds' blossom algorithm, O(V^3).

    A greedy pass seeds the matching; then each free vertex roots one
    breadth-first search for an augmenting path, with odd cycles (blossoms)
    contracted by relabelling their vertices to a common base.  A vertex that
    roots no augmenting path never roots one later (Edmonds 1965), so one
    search per vertex suffices.
    """
    adj = g._adj
    n = g.n
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for u in adj[v]:
                if mate[u] < 0:
                    mate[u], mate[v] = v, u
                    break
    for root in range(n):
        if mate[root] < 0 and adj[root]:
            v, parent = _augmenting_path_end(adj, mate, root)
            while v >= 0:
                pv = parent[v]
                nxt = mate[pv]
                mate[v], mate[pv] = pv, v
                v = nxt
    return frozenset(edge(v, u) for v, u in enumerate(mate) if v < u)


def _augmenting_path_end(adj, mate: list[int], root: int) -> tuple[int, list[int]]:
    """BFS for an augmenting path from ``root``; returns its free end (or -1)
    and the parent links that trace it back to ``root``."""
    n = len(mate)
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n  # even (outer) vertices, queued at most once
    in_tree[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                # ``to`` is even too: the edge closes a blossom.
                b = lowest_common_base(v, to)
                blossom = [False] * n
                mark_path(v, b, to, blossom)
                mark_path(to, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not in_tree[i]:
                            in_tree[i] = True
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    return to, parent
                in_tree[mate[to]] = True
                queue.append(mate[to])
    return -1, parent


def maximum_matching_size(g: Graph) -> int:
    """Size of a maximum matching (see :func:`blossom_matching`)."""
    return len(blossom_matching(g))


def backup_counterexample_graph() -> Graph:
    """Five-vertex graph where a matched vertex's second-best choice is itself
    a matched vertex (so "first unmatched neighbor" is the wrong notion of
    backup).  Vertices: u=0, u1=1, v=2, v1=3, w=4.
    """
    return make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 3)], m_star=[(0, 2), (1, 3)])


def generate_family(
    family: str,
    n: int = 0,
    density: float = 0.0,
    seed: int = 0,
) -> Graph:
    """Deterministic test-instance generator.

    ``random_with_perfect_matching`` plants a perfect matching on an even
    number of vertices, then adds each remaining pair independently with
    probability ``density`` (PCG64 stream seeded by ``seed``).
    """
    if family == "path":
        _require_positive(n)
        ms = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        return make_graph(n, [(i, i + 1) for i in range(n - 1)], m_star=ms)
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        ms = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)], m_star=ms)
    if family == "complete":
        _require_positive(n)
        ms = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        return make_graph(n, combinations(range(n), 2), m_star=ms)
    if family == "complete_bipartite":
        if n < 2:
            raise ValueError("complete_bipartite needs at least 2 vertices")
        a = n // 2
        ms = [(i, a + i) for i in range(min(a, n - a))]
        return make_graph(n, [(i, j) for i in range(a) for j in range(a, n)], m_star=ms)
    if family == "random_with_perfect_matching":
        if n <= 0 or n % 2:
            raise ValueError("random_with_perfect_matching needs a positive even n")
        if not 0 <= density <= 1:
            raise ValueError(f"density must be in [0, 1], got {density}")
        rng = np.random.default_rng(seed)
        perm = [int(x) for x in rng.permutation(n)]
        planted = [edge(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
        partner = np.empty(n, dtype=np.intp)
        partner[perm[0::2]], partner[perm[1::2]] = perm[1::2], perm[0::2]
        edges = set(planted)
        # One draw per non-planted pair in (u, v) lexicographic order, a row
        # at a time: the same PCG64 stream as one rng.random() per pair.
        for u in range(n - 1):
            rest = np.arange(u + 1, n)
            rest = rest[rest != partner[u]]
            edges.update((u, int(v)) for v in rest[rng.random(rest.size) < density])
        return Graph(n, frozenset(edges), frozenset(planted))
    if family == "appendix_counterexample":
        return backup_counterexample_graph()
    raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")


def _require_positive(n: int) -> None:
    if n <= 0:
        raise ValueError("n must be positive")


# ---------------------------------------------------------------------------
# Serialization: line-oriented text and JSON forms.


def graph_to_text(g: Graph) -> str:
    """``n m`` header followed by one ``u v`` line per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse ``graph_to_text`` output; blank lines are skipped, and any other
    line that is not exactly two integers raises ``ValueError`` naming it."""
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        try:
            u, v = map(int, fields)
        except ValueError:
            raise ValueError(
                f"line {number}: expected two integers, got {line.strip()!r}"
            ) from None
        rows.append((u, v))
    if not rows:
        raise ValueError("empty graph text")
    (n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return make_graph(n, edges)


def graph_to_json(g: Graph) -> str:
    payload: dict = {"n": g.n, "edges": sorted([list(e) for e in g.edges])}
    if g.m_star is not None:
        payload["m_star"] = sorted([list(e) for e in g.m_star])
    return json.dumps(payload)


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    return make_graph(
        payload["n"],
        [tuple(e) for e in payload["edges"]],
        m_star=[tuple(e) for e in payload["m_star"]] if "m_star" in payload else None,
    )
