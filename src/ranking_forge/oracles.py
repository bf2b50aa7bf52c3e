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
from operator import or_
from typing import Iterable, NamedTuple, Optional

from .engine import Time, _replay, _Timeline, matching_for_order, position_map
from .graphs import Edge, Graph, edge, matched_partner
from .ranks import RankVector, insertion_slots, move_vertex, remove_vertex


class ClassLabel(str, Enum):
    UNMATCHED = "C_bot"
    MATCHED_NO_BACKUP = "C_s"
    MATCHED_WITH_BACKUP = "C_b"


#: The labels bound to module names once: reading a member through its enum
#: class costs an attribute lookup on every use.
UNMATCHED = ClassLabel.UNMATCHED
MATCHED_NO_BACKUP = ClassLabel.MATCHED_NO_BACKUP
MATCHED_WITH_BACKUP = ClassLabel.MATCHED_WITH_BACKUP


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


# ---------------------------------------------------------------------------
# Runs: every checker reaches a run through these, and a position through the
# run's ``order.rank``.


def _pair(g: Graph, order, x: int) -> tuple[_Timeline, _Timeline]:
    """The run of ``order`` and the run with ``x`` frozen, both read through
    ``_replay``."""
    full = _replay(g, order, frozenset())
    return full, _replay(g, full.order.seq, frozenset({x}))


def _partner(g: Graph, order, u: int, frozen=frozenset()) -> Optional[int]:
    """``u``'s partner in the run of ``order`` with ``frozen`` removed: the
    one partner rule."""
    return matched_partner(matching_for_order(g, order, frozen), u)


def _demotions(g: Graph, vec: RankVector, u: int, v: int):
    """Every move of ``u``'s match ``v`` to a slot, ascending, as (slot, moved
    vector, ``u``'s partner in its run); the slot ``v`` holds is one of them."""
    red = remove_vertex(vec, v)
    for slot in insertion_slots(red):
        moved = move_vertex(red, v, slot)
        yield slot, moved, _partner(g, moved, u)


# ---------------------------------------------------------------------------
# Backups and profiles.


def compute_backup(g: Graph, order_minus_ustar, u: int) -> Optional[int]:
    """Who ``u`` would match if its current match were removed; None if nobody.

    Requires ``u`` to be matched under the given order (the notion is
    undefined otherwise).
    """
    v, b, _ = _roles(g, order_minus_ustar, u)
    if v is None:
        raise ValueError(f"vertex {u} is unmatched; backup is undefined")
    return b


def _backup(g: Graph, order, u: int, v: int) -> Optional[int]:
    """``u``'s partner in the run with its match ``v`` also frozen: the one
    definition of the backup, for callers that already hold ``v``."""
    return _partner(g, order, u, {v})


def _roles(g: Graph, order, u: int) -> tuple[Optional[int], Optional[int], ClassLabel]:
    """``u``'s match, its backup (``None`` when absent) and its class label
    under ``order``: the one place the label rule is written.  ``ValueError``
    when ``u`` is not in the order."""
    v = _partner(g, order, u)
    if v is None:
        # A vertex off the order is never matched: only here can u be one.
        if u not in _replay(g, order, frozenset()).order.seq:
            raise ValueError(f"vertex {u} is not in the order")
        return None, None, UNMATCHED
    b = _backup(g, order, u, v)
    if b is None:
        return v, None, MATCHED_NO_BACKUP
    return v, b, MATCHED_WITH_BACKUP


def compute_profile(
    g: Graph, rank_vector_minus_ustar: RankVector, u: int
) -> tuple[Profile, ClassLabel]:
    """Buckets of ``u``, its match, and its backup, plus the class label."""
    vec = rank_vector_minus_ustar
    v, b, label = _roles(g, vec, u)
    x_v, x_b = (None if w is None else vec.bucket(w) for w in (v, b))
    return Profile(vec.bucket(u), x_v, x_b), label


# ---------------------------------------------------------------------------
# Alternating paths.


@dataclass(frozen=True)
class AlternatingPath:
    """Path ``u_0..u_k`` with ``u_0`` the removed vertex; ``sources[i]`` says
    which run ('full' or 'minus') owns edge ``(u_i, u_{i+1})``."""

    vertices: tuple[int, ...]
    sources: tuple[str, ...]


#: The run that owns a path's even and its odd edges.
_SOURCES = ("full", "minus")


def _arrange_path(diff: frozenset[Edge], start: int, violation) -> list[int]:
    """The edges of ``diff`` as one path from ``start``; otherwise raises
    ``violation("alt-path-structure", ...)``."""
    if not diff:
        return [start]
    adj: dict[int, list[int]] = {}
    for a, b in diff:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if start not in adj or len(adj[start]) != 1:
        raise violation(
            "alt-path-structure",
            reason="difference does not start a path at the removed vertex",
            diff=sorted(diff), start=start,
        )
    path = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            break
        if len(nxt) > 1 or len(adj[cur]) > 2:
            raise violation(
                "alt-path-structure",
                reason="difference branches", diff=sorted(diff), at=cur,
            )
        prev, cur = cur, nxt[0]
        path.append(cur)
    if len(path) - 1 != len(diff):
        raise violation(
            "alt-path-structure",
            reason="difference is not a single path", diff=sorted(diff),
        )
    return path


def _verify_path_properties(
    g: Graph, u_star: int, full: _Timeline, minus: _Timeline, i: int, t: Time
) -> list[int]:
    """Check the path properties on state ``i``, the state before time ``t``,
    of the run and of the run with ``u_star`` removed, and return the path's
    vertices from ``u_star``.  Every violation carries the witness that
    replays it: the graph's edges, ``u_star``, ``t`` and the order."""
    seq, rank = full.order.seq, full.order.rank
    full_matching, minus_matching = full.matchings[i], minus.matchings[i]

    def violation(claim: str, **found) -> ClaimViolation:
        return ClaimViolation(claim, {
            "edges": sorted(g.edges), "u_star": u_star, "t": t,
            "order": position_map(seq), **found,
        })

    path = _arrange_path(full_matching ^ minus_matching, u_star, violation)
    for j in range(len(path) - 1):
        e = edge(path[j], path[j + 1])
        if e not in (minus_matching if j % 2 else full_matching):
            raise violation(
                "alt-path-alternation", path=path, edge=e, expected_in=_SOURCES[j % 2]
            )
    for j in range(len(path) - 2):
        if not rank[path[j]] < rank[path[j + 2]]:
            raise violation(
                "alt-path-monotonicity", path=path, ranks=[rank[v] for v in path], index=j
            )
    # Both runs take their vertices from the same domain, so the available
    # sets differ exactly where the taken sets do.
    if full.taken[i] ^ minus.taken[i] != 1 << path[-1]:
        raise violation(
            "alt-path-availability",
            path=path,
            available_full=_available(seq, full.taken[i]),
            available_minus=_available(seq, minus.taken[i]),
        )
    return path


def _available(seq: tuple[int, ...], taken: int) -> list[int]:
    return sorted(v for v in seq if not taken >> v & 1)


def extract_alternating_path(
    g: Graph, order, u_star: int, t: Time
) -> AlternatingPath:
    """Symmetric difference of the partial matchings with and without
    ``u_star`` at probe time ``t``, arranged and verified as an alternating
    path.  Raises :class:`ClaimViolation` if any path property fails.
    """
    full, minus = _pair(g, order, u_star)
    path = _verify_path_properties(g, u_star, full, minus, full.before(t), t)
    return AlternatingPath(
        tuple(path), tuple(_SOURCES[j % 2] for j in range(len(path) - 1))
    )


def alternating_path_sweep(g: Graph, order, u_star: int) -> int:
    """Verify the path properties at every probe boundary in one pass.

    Returns the number of checkpoints verified (probe times plus the final
    state); raises on the first violation.
    """
    return _path_sweep(g, u_star, *_pair(g, order, u_star))


def _path_sweep(g: Graph, u_star: int, full: _Timeline, minus: _Timeline) -> int:
    """``alternating_path_sweep`` on the run and the run with ``u_star``
    frozen."""
    n = len(full.order.seq)
    times = [t for t, _ in full.schedule]
    times.append((n + 1, n + 1))  # the final state
    # State i is state i - 1 unless either run took probe i - 1: the
    # verdict there is the one already checked.
    changed = (True, *map(or_, full.accepted, minus.accepted))
    for i, t in enumerate(times):
        if changed[i]:
            _verify_path_properties(g, u_star, full, minus, i, t)
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
    if u not in vec:
        raise ValueError(f"u {u} must be in the rank vector")
    report = ClaimReport()
    run = _replay(g, move_vertex(vec, u_star, target), frozenset())
    _insertion_checks(g, vec, u, u_star, target, _roles(g, vec, u), run, report)
    return report


def _insertion_checks(
    g: Graph,
    vec: RankVector,
    u: int,
    u_star: int,
    target: tuple[int, int],
    roles: tuple[Optional[int], Optional[int], ClassLabel],
    run: _Timeline,
    report,
) -> None:
    """``check_insertion_claims`` given ``u``'s roles under ``vec`` and the
    run with ``u_star`` inserted at ``target``; every check goes to
    ``report.add``."""
    v, b, _ = roles
    pos = run.order.rank
    has_pair_edge = g.has_edge(u, u_star)

    def partner_pos(w) -> Optional[int]:
        p = matched_partner(run.matchings[-1], w)
        return None if p is None else pos[p]

    if v is None:
        if has_pair_edge:
            wp = partner_pos(u_star)
            ok = wp is not None and wp <= pos[u]
            report.add(
                "no-match-fact", "pass" if ok else "fail",
                u=u, u_star=u_star, target=target, match_pos=wp, u_pos=pos[u],
            )
        else:
            report.add("no-match-fact", "skipped", reason="(u, u_star) not an edge")
        return

    # Claim family: u matched to v when u_star was absent.
    if pos[u_star] < pos[v]:
        if has_pair_edge:
            wp = partner_pos(u_star)
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
        wp = partner_pos(u)
        ok = wp is not None and wp <= pos[v]
        report.add(
            "insert-after-u", "pass" if ok else "fail",
            u=u, v=v, u_star=u_star, match_pos=wp, v_pos=pos[v],
        )
    else:
        report.add("insert-after-u", "skipped", reason="u_star not after u")

    u_match_pos = partner_pos(u)
    if u_match_pos is None or u_match_pos > pos[v]:
        wp = partner_pos(u_star)
        ok = wp is not None and wp <= pos[v]
        report.add(
            "worse-off-compensation", "pass" if ok else "fail",
            u=u, v=v, u_star=u_star, ustar_match_pos=wp, v_pos=pos[v],
        )
    else:
        report.add("worse-off-compensation", "skipped", reason="u not worse off")

    if b is not None:
        base_pos = _replay(g, vec, frozenset()).order.rank
        ok1 = base_pos[v] < base_pos[b]
        report.add(
            "backup-rank-dominance", "pass" if ok1 else "fail",
            u=u, v=v, b=b, v_pos=base_pos[v], b_pos=base_pos[b],
        )
        wp = partner_pos(u)
        ok2 = wp is not None and wp <= pos[b]
        report.add(
            "backup-floor", "pass" if ok2 else "fail",
            u=u, v=v, b=b, u_star=u_star, match_pos=wp, b_pos=pos[b],
        )
    else:
        report.add("backup-rank-dominance", "skipped", reason="no backup")
        report.add("backup-floor", "skipped", reason="no backup")


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
    report = ClaimReport()
    _monotonicity_checks(g, rank_vector, u, report)
    return report


def _monotonicity_checks(g: Graph, vec: RankVector, u: int, report) -> None:
    """``check_monotonicity``, every check going to ``report.add``."""
    v, b, _ = _roles(g, vec, u)
    if v is None:
        raise ValueError(f"vertex {u} is unmatched; nothing to demote")
    v_slot = vec.rank(v)
    base_pos = _replay(g, vec, frozenset()).order.rank
    for slot, moved, new_partner in _demotions(g, vec, u, v):
        if b is None:
            if slot < v_slot:
                report.add(
                    "demote-no-backup", "skipped",
                    reason="slot earlier than v", slot=slot,
                    observed_partner=new_partner,
                )
            elif new_partner == v:
                # The backup is examined only while the match stays.
                kept = _backup(g, moved, u, v) is None
                report.add(
                    "demote-no-backup", "pass" if kept else "fail",
                    u=u, v=v, slot=slot, new_partner=new_partner,
                    backup_after=None if kept else "appeared",
                )
            else:
                report.add(
                    "demote-no-backup", "fail",
                    u=u, v=v, slot=slot, new_partner=new_partner,
                )
        else:
            pos = _replay(g, moved, frozenset()).order.rank
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
    v, b, label = _roles(g, vec, u)
    if v is None:
        return {vec}, ClassStructure(label, None, None, None, ())
    # With v frozen, a candidate's run is the run without v wherever v sits,
    # so a candidate matched to v has the generator's backup and label.
    walk = list(_demotions(g, vec, u, v))
    slots = [slot for slot, _, _ in walk]
    members = {slot: cand for slot, cand, partner in walk if partner == v}
    member_slots = sorted(members)
    s0 = member_slots[0]
    if label is MATCHED_NO_BACKUP:
        expected = [s for s in slots if s >= s0]
    else:
        b_red_slot = remove_vertex(vec, v).rank(b)
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
    return flip_coloring(colors) if coin else colors


def flip_coloring(colors: dict[int, str]) -> dict[int, str]:
    """The complement coloring: every buyer becomes an item and back."""
    return {v: (ITEM if c == BUYER else BUYER) for v, c in colors.items()}


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
    report = ClaimReport()
    _prefix_checks(g, v, *_pair(g, order, v), report)
    return report


def _prefix_checks(g: Graph, v: int, full: _Timeline, minus: _Timeline, report) -> None:
    """``check_prefix_agreement`` on the run and the run with ``v`` frozen,
    every check going to ``report.add``."""
    seq = full.order.seq
    n = len(seq)
    p = full.order.rank[v]
    demoted = None
    if p < n:
        # v is seq[p - 1]; swap it with seq[p], the next vertex
        swapped = seq[: p - 1] + (seq[p], v) + seq[p + 1 :]
        demoted = _replay(g, swapped, frozenset())
    # Every run takes its vertices from the same domain, so comparing the
    # available sets apart from ``v`` is comparing the taken sets with ``v``.
    # A passing check keeps ``v`` and ``t``; only a failing one builds the
    # witness.
    bit = 1 << v
    for t in range(1, n + 2):
        i = full.before((t, 1))
        matching, taken = full.matchings[i], full.taken[i]
        if taken & bit:
            break
        minus_matching = minus.matchings[i]
        if matching == minus_matching and taken | bit == minus.taken[i]:
            report.add("prefix-agreement-removed", "pass", v=v, t=(t, 1))
        else:
            report.add(
                "prefix-agreement-removed", "fail",
                v=v, t=(t, 1), order=position_map(seq),
                full=sorted(matching),
                minus=sorted(minus_matching),
            )
        if demoted is not None and t <= p:
            j = demoted.before((t, 1))
            demoted_matching = demoted.matchings[j]
            if matching == demoted_matching and taken | bit == demoted.taken[j] | bit:
                report.add("prefix-agreement-demoted", "pass", v=v, t=(t, 1))
            else:
                report.add(
                    "prefix-agreement-demoted", "fail",
                    v=v, t=(t, 1), order=position_map(seq),
                    full=sorted(matching),
                    demoted=sorted(demoted_matching),
                )
