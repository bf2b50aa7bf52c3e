"""Computable witnesses for the matcher's structural properties.

Every checker either returns a structured report (claim-by-claim pass,
fail, or skipped, with witnesses) or raises :class:`ClaimViolation` carrying
the full counterexample.  A violation firing on a correct engine is a test
failure; the checkers exist so that sweeps over instance grids can certify
the properties the gain-sharing analysis depends on:

* the one-vertex-removal symmetric difference is a rank-monotone
  alternating path, at every probe time;
* inserting a new vertex can only help in the ways the insertion claims
  describe, and a vertex with a backup can never fall past it;
* demoting a vertex's match preserves the match while it stays short of the
  backup (exactly, with no backup, to the very end);
* equivalence classes of rank vectors that differ only in the match's slot
  form contiguous slot intervals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

from .engine import (
    PartialState,
    Time,
    _probe_schedule,
    matching_for_order,
    partial_state,
    partial_states,
    position_map,
)
from .graphs import Edge, Graph, edge, matched_partner
from .ranks import RankVector, insertion_slots, move_vertex, remove_vertex


class ClassLabel(str, Enum):
    UNMATCHED = "C_bot"
    MATCHED_NO_BACKUP = "C_s"
    MATCHED_WITH_BACKUP = "C_b"


class Profile(NamedTuple):
    """Bucket triple (x_u, x_v, x_b); ``None`` marks an absent entry."""

    x_u: int
    x_v: Optional[int]
    x_b: Optional[int]


class ClaimViolation(RuntimeError):
    """A structural property failed on a concrete instance."""

    def __init__(self, claim: str, payload: dict):
        super().__init__(f"{claim}: {payload}")
        self.claim = claim
        self.payload = payload

    def to_json(self) -> str:
        return json.dumps({"claim": self.claim, **self.payload}, default=str)


@dataclass
class ClaimCheck:
    claim: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict = field(default_factory=dict)


@dataclass
class ClaimReport:
    checks: list[ClaimCheck] = field(default_factory=list)

    def add(self, claim: str, status: str, **details) -> None:
        self.checks.append(ClaimCheck(claim, status, details))

    @property
    def failures(self) -> list[ClaimCheck]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            [{"claim": c.claim, "status": c.status, **c.details} for c in self.checks],
            default=str,
        )


# ---------------------------------------------------------------------------
# Backups and profiles.


def compute_backup(
    g: Graph,
    order_minus_ustar,
    u: int,
    frozen: frozenset[int] | set[int] = frozenset(),
) -> Optional[int]:
    """Who ``u`` would match if its current match were removed; None if nobody.

    Requires ``u`` to be matched under the given order (the notion is
    undefined otherwise).
    """
    v = matched_partner(matching_for_order(g, order_minus_ustar, frozen), u)
    if v is None:
        raise ValueError(f"vertex {u} is unmatched; backup is undefined")
    return _backup(g, order_minus_ustar, u, v, frozen)


def _backup(
    g: Graph, order, u: int, v: int, frozen: frozenset[int] | set[int] = frozenset()
) -> Optional[int]:
    """``u``'s partner in the run with its match ``v`` also frozen: the one
    definition of the backup, for callers that already hold ``v``."""
    return matched_partner(matching_for_order(g, order, frozenset(frozen) | {v}), u)


def compute_profile(
    g: Graph, rank_vector_minus_ustar: RankVector, u: int
) -> tuple[Profile, ClassLabel]:
    """Buckets of ``u``, its match, and its backup, plus the class label."""
    vec = rank_vector_minus_ustar
    matching = matching_for_order(g, vec)
    x_u = vec.bucket(u)
    v = matched_partner(matching, u)
    if v is None:
        return Profile(x_u, None, None), ClassLabel.UNMATCHED
    b = _backup(g, vec, u, v)
    if b is None:
        return Profile(x_u, vec.bucket(v), None), ClassLabel.MATCHED_NO_BACKUP
    return Profile(x_u, vec.bucket(v), vec.bucket(b)), ClassLabel.MATCHED_WITH_BACKUP


# ---------------------------------------------------------------------------
# Alternating paths.


@dataclass(frozen=True)
class AlternatingPath:
    """Path ``u_0..u_k`` with ``u_0`` the removed vertex; ``sources[i]`` says
    which run ('full' or 'minus') owns edge ``(u_i, u_{i+1})``."""

    vertices: tuple[int, ...]
    sources: tuple[str, ...]


def _arrange_path(diff: set[Edge], start: int) -> list[int]:
    if not diff:
        return [start]
    adj: dict[int, list[int]] = {}
    for a, b in diff:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if start not in adj or len(adj[start]) != 1:
        raise ClaimViolation(
            "alt-path-structure",
            {"reason": "difference does not start a path at the removed vertex",
             "diff": sorted(diff), "start": start},
        )
    path = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            break
        if len(nxt) > 1 or len(adj[cur]) > 2:
            raise ClaimViolation(
                "alt-path-structure",
                {"reason": "difference branches", "diff": sorted(diff), "at": cur},
            )
        prev, cur = cur, nxt[0]
        path.append(cur)
    if len(path) - 1 != len(diff):
        raise ClaimViolation(
            "alt-path-structure",
            {"reason": "difference is not a single path", "diff": sorted(diff)},
        )
    return path


def _verify_path_properties(
    pos: dict[int, int],
    u_star: int,
    full: PartialState,
    minus: PartialState,
    context: dict,
) -> AlternatingPath:
    diff = set(full.partial_matching ^ minus.partial_matching)
    path = _arrange_path(diff, u_star)
    sources = []
    for i in range(len(path) - 1):
        e = edge(path[i], path[i + 1])
        expected = full.partial_matching if i % 2 == 0 else minus.partial_matching
        source = "full" if i % 2 == 0 else "minus"
        if e not in expected:
            raise ClaimViolation(
                "alt-path-alternation",
                {**context, "path": path, "edge": e, "expected_in": source},
            )
        sources.append(source)
    for i in range(len(path) - 2):
        if not pos[path[i]] < pos[path[i + 2]]:
            raise ClaimViolation(
                "alt-path-monotonicity",
                {**context, "path": path,
                 "ranks": [pos[v] for v in path], "index": i},
            )
    tail = path[-1]
    if set(full.available ^ minus.available) != {tail}:
        raise ClaimViolation(
            "alt-path-availability",
            {**context, "path": path,
             "available_full": sorted(full.available),
             "available_minus": sorted(minus.available)},
        )
    return AlternatingPath(tuple(path), tuple(sources))


def extract_alternating_path(
    g: Graph, order, u_star: int, t: Time
) -> AlternatingPath:
    """Symmetric difference of the partial matchings with and without
    ``u_star`` at probe time ``t``, arranged and verified as an alternating
    path.  Raises :class:`ClaimViolation` if any path property fails.
    """
    pos = position_map(order)
    full = partial_state(g, order, t)
    minus = partial_state(g, order, t, frozen={u_star})
    context = {
        "graph": sorted(g.edges), "u_star": u_star, "t": t, "order": pos,
    }
    return _verify_path_properties(pos, u_star, full, minus, context)


def alternating_path_sweep(g: Graph, order, u_star: int) -> int:
    """Verify the path properties at every probe boundary in one pass.

    Returns the number of checkpoints verified (probe times plus the final
    state); raises on the first violation.
    """
    pos = position_map(order)
    times = [t for t, _ in _probe_schedule(g, pos)]
    times.append((len(pos) + 1, len(pos) + 1))  # the final state
    context = {"graph": sorted(g.edges), "u_star": u_star, "order": pos}
    for full, minus in zip(
        partial_states(g, pos, times), partial_states(g, pos, times, {u_star})
    ):
        _verify_path_properties(pos, u_star, full, minus, {**context, "t": full.t})
    return len(times)


# ---------------------------------------------------------------------------
# Insertion claims.


def check_insertion_claims(
    g: Graph,
    rank_vector_minus_ustar: RankVector,
    u: int,
    u_star: int,
    target: tuple[int, int],
) -> ClaimReport:
    """Insert ``u_star`` at ``target`` and check every applicable claim about
    how the matching can move.

    The two claims whose proofs probe the edge ``(u, u_star)`` (the
    first-insertion claim and the no-match fact) are skipped when that edge
    is absent; the remaining claims hold for arbitrary ``u_star``.
    """
    vec = rank_vector_minus_ustar
    if u_star in vec:
        raise ValueError(f"u_star {u_star} must be absent from the rank vector")
    report = ClaimReport()
    base = matching_for_order(g, vec)
    v = matched_partner(base, u)
    sigma = move_vertex(vec, u_star, target)
    pos = position_map(sigma)
    full = matching_for_order(g, sigma)
    has_pair_edge = g.has_edge(u, u_star)

    def partner_pos(matching, w) -> Optional[int]:
        p = matched_partner(matching, w)
        return None if p is None else pos[p]

    if v is None:
        if has_pair_edge:
            wp = partner_pos(full, u_star)
            ok = wp is not None and wp <= pos[u]
            report.add(
                "no-match-fact", "pass" if ok else "fail",
                u=u, u_star=u_star, target=target, match_pos=wp, u_pos=pos[u],
            )
        else:
            report.add("no-match-fact", "skipped", reason="(u, u_star) not an edge")
        return report

    # Claim family: u matched to v when u_star was absent.
    if pos[u_star] < pos[v]:
        if has_pair_edge:
            wp = partner_pos(full, u_star)
            ok = wp is not None and wp <= pos[u]
            report.add(
                "insert-before-match", "pass" if ok else "fail",
                u=u, v=v, u_star=u_star, match_pos=wp, u_pos=pos[u],
            )
        else:
            report.add(
                "insert-before-match", "skipped", reason="(u, u_star) not an edge"
            )
    else:
        report.add("insert-before-match", "skipped", reason="u_star not before v")

    if pos[u_star] > pos[u]:
        wp = partner_pos(full, u)
        ok = wp is not None and wp <= pos[v]
        report.add(
            "insert-after-u", "pass" if ok else "fail",
            u=u, v=v, u_star=u_star, match_pos=wp, v_pos=pos[v],
        )
    else:
        report.add("insert-after-u", "skipped", reason="u_star not after u")

    u_match_pos = partner_pos(full, u)
    if u_match_pos is None or u_match_pos > pos[v]:
        wp = partner_pos(full, u_star)
        ok = wp is not None and wp <= pos[v]
        report.add(
            "worse-off-compensation", "pass" if ok else "fail",
            u=u, v=v, u_star=u_star, ustar_match_pos=wp, v_pos=pos[v],
        )
    else:
        report.add("worse-off-compensation", "skipped", reason="u not worse off")

    b = _backup(g, vec, u, v)
    if b is not None:
        base_pos = position_map(vec)
        ok1 = base_pos[v] < base_pos[b]
        report.add(
            "backup-rank-dominance", "pass" if ok1 else "fail",
            u=u, v=v, b=b, v_pos=base_pos[v], b_pos=base_pos[b],
        )
        wp = partner_pos(full, u)
        ok2 = wp is not None and wp <= pos[b]
        report.add(
            "backup-floor", "pass" if ok2 else "fail",
            u=u, v=v, b=b, u_star=u_star, match_pos=wp, b_pos=pos[b],
        )
    else:
        report.add("backup-rank-dominance", "skipped", reason="no backup")
        report.add("backup-floor", "skipped", reason="no backup")
    return report


# ---------------------------------------------------------------------------
# Match-demotion monotonicity.


def check_monotonicity(g: Graph, rank_vector: RankVector, u: int) -> ClaimReport:
    """Demote ``u``'s match ``v`` to every reachable slot.

    With no backup: every slot at or after ``v``'s current one must preserve
    the match and the absence of a backup.  With a backup ``b``: every slot
    that keeps ``v`` ahead of ``b`` must preserve both the match and ``b``'s
    position.  Slots at or past ``b`` may legitimately change the match; the
    outcome there is recorded, never asserted.
    """
    vec = rank_vector
    base = matching_for_order(g, vec)
    v = matched_partner(base, u)
    if v is None:
        raise ValueError(f"vertex {u} is unmatched; nothing to demote")
    b = _backup(g, vec, u, v)
    report = ClaimReport()
    v_slot = vec.rank(v)
    base_pos = position_map(vec)
    for slot in insertion_slots(vec, v):
        moved = move_vertex(vec, v, slot)
        moved_match = matching_for_order(g, moved)
        new_partner = matched_partner(moved_match, u)
        pos = position_map(moved)
        if b is None:
            if slot >= v_slot:
                still_v = new_partner == v
                still_no_backup = still_v and _backup(g, moved, u, v) is None
                report.add(
                    "demote-no-backup",
                    "pass" if (still_v and still_no_backup) else "fail",
                    u=u, v=v, slot=slot, new_partner=new_partner,
                    backup_after=None if still_no_backup else "appeared",
                )
            else:
                report.add(
                    "demote-no-backup", "skipped",
                    reason="slot earlier than v", slot=slot,
                    observed_partner=new_partner,
                )
        else:
            if slot >= v_slot and pos[v] < pos[b]:
                same_backup = new_partner == v and _backup(g, moved, u, v) == b
                b_pos_kept = pos[b] == base_pos[b]
                report.add(
                    "demote-below-backup",
                    "pass" if (same_backup and b_pos_kept) else "fail",
                    u=u, v=v, b=b, slot=slot, new_partner=new_partner,
                    b_pos_before=base_pos[b], b_pos_after=pos[b],
                )
            else:
                # Negative direction: moving v to or past b may change the
                # match; record what happened.
                report.add(
                    "demote-past-backup", "skipped",
                    slot=slot, observed_partner=new_partner,
                    match_changed=new_partner != v,
                )
    return report


# ---------------------------------------------------------------------------
# Equivalence classes of rank vectors.


@dataclass(frozen=True)
class ClassStructure:
    label: ClassLabel
    match: Optional[int]
    backup: Optional[int]
    generator_slot: Optional[tuple[int, int]]
    member_slots: tuple[tuple[int, int], ...]


def enumerate_equivalence_class(
    g: Graph, generator_vector: RankVector, u: int
) -> tuple[set[RankVector], ClassStructure]:
    """All rank vectors related to the given one (same class label and
    identical after deleting ``u``'s match), plus the interval structure.

    Asserts the structure the demotion lemmas predict: members are exactly a
    contiguous slot interval starting at the minimal member slot, running to
    the last slot (no backup) or to the last slot where the match still
    precedes the backup (with backup).  Raises on mismatch.
    """
    vec = generator_vector
    v = matched_partner(matching_for_order(g, vec), u)
    if v is None:
        return {vec}, ClassStructure(ClassLabel.UNMATCHED, None, None, None, ())
    b = _backup(g, vec, u, v)
    label = ClassLabel.MATCHED_NO_BACKUP if b is None else ClassLabel.MATCHED_WITH_BACKUP
    red = remove_vertex(vec, v)
    slots = insertion_slots(red)
    members: dict[tuple[int, int], RankVector] = {}
    for slot in slots:
        cand = move_vertex(red, v, slot)
        if matched_partner(matching_for_order(g, cand), u) != v:
            continue
        # Matched to v, a candidate is in C_b exactly when it has a backup.
        if (_backup(g, cand, u, v) is None) == (b is None):
            members[slot] = cand
    member_slots = sorted(members)
    s0 = member_slots[0]
    if label is ClassLabel.MATCHED_NO_BACKUP:
        expected = [s for s in slots if s >= s0]
    else:
        b_red_slot = red.rank(b)
        expected = [s for s in slots if s0 <= s <= b_red_slot]
    if member_slots != expected:
        raise ClaimViolation(
            "equivalence-class-interval",
            {
                "label": label.value, "u": u, "match": v, "backup": b,
                "member_slots": member_slots, "expected": expected,
                "vector": dict(vec.items()),
            },
        )
    structure = ClassStructure(label, v, b, s0, tuple(member_slots))
    return set(members.values()), structure


# ---------------------------------------------------------------------------
# Two-partitioning.

BUYER = "B"
ITEM = "I"


def two_coloring(
    g: Graph,
    ranking_matching: Iterable[Edge],
    m_star: Iterable[Edge],
    coin: int,
) -> dict[int, str]:
    """Deterministic proper 2-coloring of (matching union m_star).

    Components are colored in ascending order of their smallest vertex,
    which gets buyer color; isolated vertices are buyers by convention.
    ``coin=1`` returns the exact complement, so over a fair coin every
    vertex is a buyer with probability exactly one half.
    """
    union_adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for a, b in set(ranking_matching) | set(m_star):
        union_adj[a].add(b)
        union_adj[b].add(a)
    colors: dict[int, str] = {}
    for start in range(g.n):
        if start in colors:
            continue
        colors[start] = BUYER
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in union_adj[cur]:
                want = ITEM if colors[cur] == BUYER else BUYER
                if nxt not in colors:
                    colors[nxt] = want
                    queue.append(nxt)
                elif colors[nxt] != want:
                    # Two matchings cannot form an odd cycle.
                    raise RuntimeError(
                        f"odd cycle in matching union at vertex {nxt}; "
                        "inputs are not two matchings"
                    )
    if coin:
        colors = {v: (ITEM if c == BUYER else BUYER) for v, c in colors.items()}
    return colors


# ---------------------------------------------------------------------------
# Prefix-agreement fact: before a vertex is taken, demoting or removing it
# changes nothing else.


def check_prefix_agreement(g: Graph, order, v: int) -> ClaimReport:
    """While ``v`` is still available, the run with ``v`` removed agrees with
    the original on the partial matching and (apart from ``v``) on
    availability; the run with ``v`` demoted one step agrees as well, up to
    ``v``'s own slot.

    The demoted comparison stops at ``t = pos(v)``: past that boundary the
    two orders have processed different prefixes (the swapped neighbor acts
    one step early), and the agreement genuinely can break even while ``v``
    stays available.  Every downstream use of the fact sits at ``t <=
    pos(v)``.
    """
    pos = position_map(order)
    n = len(pos)
    report = ClaimReport()
    boundaries = [(t, 1) for t in range(1, n + 2)]
    demoted = repeat(None)
    if pos[v] < n:
        swapped = dict(pos)
        w = next(u for u, p in pos.items() if p == pos[v] + 1)
        swapped[v], swapped[w] = swapped[w], swapped[v]
        demoted = partial_states(g, swapped, boundaries)
    for st, st_minus, st_plus in zip(
        partial_states(g, pos, boundaries),
        partial_states(g, pos, boundaries, {v}),
        demoted,
    ):
        if v not in st.available:
            break
        ok = (
            st.partial_matching == st_minus.partial_matching
            and st.available - {v} == st_minus.available
        )
        report.add(
            "prefix-agreement-removed", "pass" if ok else "fail",
            v=v, t=st.t, order=pos,
            full=sorted(st.partial_matching),
            minus=sorted(st_minus.partial_matching),
        )
        if st_plus is not None and st.t[0] <= pos[v]:
            ok = (
                st.partial_matching == st_plus.partial_matching
                and st.available - {v} == st_plus.available - {v}
            )
            report.add(
                "prefix-agreement-demoted", "pass" if ok else "fail",
                v=v, t=st.t, order=pos,
                full=sorted(st.partial_matching),
                demoted=sorted(st_plus.partial_matching),
            )
    return report
