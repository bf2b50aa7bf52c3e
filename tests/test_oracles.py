import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranking_forge import oracles
from ranking_forge.engine import PartialState, matching_for_order, position_map
from ranking_forge.graphs import make_graph, matched_partner
from ranking_forge.oracles import (
    BUYER,
    ITEM,
    ClaimViolation,
    ClassLabel,
    alternating_path_sweep,
    check_insertion_claims,
    check_monotonicity,
    check_prefix_agreement,
    compute_backup,
    compute_profile,
    enumerate_equivalence_class,
    extract_alternating_path,
    two_coloring,
)
from ranking_forge.ranks import (
    RankVector,
    insertion_slots,
    move_vertex,
    remove_vertex,
    sample_ranks,
)


def test_backup_examples(k2, p4, cex):
    # The counterexample graph: u's backup is v1, itself a matched vertex.
    assert compute_backup(cex, [0, 1, 2, 3, 4], 0) == 3
    assert 3 in {v for e in matching_for_order(cex, [0, 1, 2, 3, 4]) for v in e}
    assert compute_backup(k2, [0, 1], 0) is None
    # P4 with order (b, a, c, d): b matches a; without a it picks c.
    assert compute_backup(p4, [1, 0, 2, 3], 1) == 2


def test_backup_requires_matched_vertex():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError, match="unmatched"):
        compute_backup(star, [0, 1, 2, 3], 2)  # leaf 2 loses the center


def test_profile_examples(k2, cex):
    profile, label = compute_profile(k2, RankVector(3, {0: (1, 1), 1: (2, 1)}), 0)
    assert (profile, label) == ((1, 2, None), ClassLabel.MATCHED_NO_BACKUP)

    lonely = make_graph(3, [(1, 2)])
    profile, label = compute_profile(lonely, RankVector(2, {i: (1, i + 1) for i in range(3)}), 0)
    assert profile == (1, None, None) and label is ClassLabel.UNMATCHED

    vec = RankVector(5, {i: (i + 1, 1) for i in range(5)})
    profile, label = compute_profile(cex, vec, 0)
    assert (profile, label) == ((1, 3, 4), ClassLabel.MATCHED_WITH_BACKUP)


def test_alternating_path_base_case(cex):
    path = extract_alternating_path(cex, [0, 1, 2, 3, 4], 0, (1, 1))
    assert path.vertices == (0,) and path.sources == ()


def test_alternating_path_three_vertices():
    g = make_graph(3, [(0, 1), (1, 2)])
    path = extract_alternating_path(g, [0, 1, 2], 0, (9, 9))
    assert path.vertices == (0, 1, 2)
    assert path.sources == ("full", "minus")


def test_alternating_path_isolated_removed_vertex():
    g = make_graph(3, [(1, 2)])
    for t in [(1, 1), (2, 1), (9, 9)]:
        path = extract_alternating_path(g, [0, 1, 2], 0, t)
        assert path.vertices == (0,)


def test_alternating_path_sweep_exhaustive_small(p4, cex):
    for g in (p4, cex):
        for perm in permutations(range(g.n)):
            for u_star in range(g.n):
                assert alternating_path_sweep(g, list(perm), u_star) > 0


def test_alternating_path_sweep_on_a_partial_order(cex):
    # The order leaves out w=4, so the edge (0, 4) is never probed: three
    # in-domain probe times plus the final state.
    for perm in permutations([0, 1, 2, 3]):
        for u_star in perm:
            assert alternating_path_sweep(cex, list(perm), u_star) == 3 + 1


def test_insertion_claims_first_slot():
    # u=0, v=1, u_star=2 with edges u-v and u-u_star; insert u_star first.
    g = make_graph(3, [(0, 1), (0, 2)])
    vec = RankVector(1, {0: (1, 1), 1: (1, 2)})
    report = check_insertion_claims(g, vec, 0, 2, (1, 1))
    by_name = {c.claim: c for c in report.checks}
    assert by_name["insert-before-match"].status == "pass"
    assert report.ok


def test_insertion_claims_no_match_fact():
    g = make_graph(2, [(0, 1)])
    vec = RankVector(1, {0: (1, 1)})
    for target in [(1, 1), (1, 2)]:
        report = check_insertion_claims(g, vec, 0, 1, target)
        by_name = {c.claim: c for c in report.checks}
        assert by_name["no-match-fact"].status == "pass"


def test_insertion_claims_skip_without_pair_edge():
    # u_star has no edge to u: the probing-based claims are skipped, the
    # alternating-path claims still checked.
    g = make_graph(3, [(0, 1)])
    vec = RankVector(1, {0: (1, 1), 1: (1, 2)})
    report = check_insertion_claims(g, vec, 0, 2, (1, 1))
    by_name = {c.claim: c for c in report.checks}
    assert by_name["insert-before-match"].status == "skipped"
    assert report.ok


def test_insertion_claims_backup_floor_on_counterexample(cex):
    # Attach u_star=5 next to v1=3: u keeps a match at or before v1 wherever
    # u_star lands.
    g = make_graph(6, list(cex.edges) + [(3, 5)])
    vec = RankVector(1, {v: (1, v + 1) for v in range(5)})
    for target in insertion_slots(vec):
        report = check_insertion_claims(g, vec, 0, 5, target)
        by_name = {c.claim: c for c in report.checks}
        assert by_name["backup-rank-dominance"].status == "pass"
        assert by_name["backup-floor"].status == "pass"
        assert report.ok


def test_monotonicity_k2(k2):
    vec = RankVector(2, {0: (1, 1), 1: (2, 1)})
    report = check_monotonicity(k2, vec, 0)
    assert report.ok
    assert any(c.claim == "demote-no-backup" and c.status == "pass" for c in report.checks)


def test_monotonicity_counterexample(cex):
    vec = RankVector(5, {i: (i + 1, 1) for i in range(5)})
    report = check_monotonicity(cex, vec, 0)
    assert report.ok
    # Below the backup the match is pinned; at or past it the match moves to
    # the backup v1=3 (observed, not asserted).
    changed = [
        c for c in report.checks
        if c.claim == "demote-past-backup" and c.details.get("match_changed")
    ]
    assert changed
    assert all(c.details["observed_partner"] == 3 for c in changed)


def test_monotonicity_requires_match():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        check_monotonicity(star, RankVector(1, {i: (1, i + 1) for i in range(4)}), 2)


def test_equivalence_class_unmatched_is_singleton():
    lonely = make_graph(3, [(1, 2)])
    vec = RankVector(2, {i: (1, i + 1) for i in range(3)})
    members, structure = enumerate_equivalence_class(lonely, vec, 0)
    assert members == {vec}
    assert structure.label is ClassLabel.UNMATCHED


def test_equivalence_class_k2_interval(k2):
    vec = RankVector(2, {0: (1, 1), 1: (2, 1)})
    members, structure = enumerate_equivalence_class(k2, vec, 0)
    assert structure.label is ClassLabel.MATCHED_NO_BACKUP
    assert structure.member_slots == ((1, 1), (1, 2), (2, 1))
    assert len(members) == 3


def test_equivalence_class_counterexample_ends_before_backup(cex):
    vec = RankVector(5, {i: (i + 1, 1) for i in range(5)})
    members, structure = enumerate_equivalence_class(cex, vec, 0)
    assert structure.label is ClassLabel.MATCHED_WITH_BACKUP
    assert structure.backup == 3
    # Every member keeps the moved match strictly ahead of the backup.
    for member in members:
        pos = {v: i for i, v in enumerate(sorted(member.items(), key=lambda kv: kv[1]))}
        assert member.rank(2) < member.rank(3)


@st.composite
def class_cases(draw):
    # A graph on 2..5 vertices, a seeded rank vector over it, and a vertex.
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = make_graph(n, [p for p, k in zip(pairs, keep) if k])
    vec = sample_ranks(range(n), draw(st.integers(1, 3)), draw(st.integers(0, 10**6)))
    return g, vec, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(class_cases())
def test_equivalence_class_members_follow_the_definition(case):
    # Members are the slots where moving u's match v keeps u matched to v and
    # compute_profile gives the generator's label.
    g, vec, u = case
    members, structure = enumerate_equivalence_class(g, vec, u)
    _, label = compute_profile(g, vec, u)
    assert structure.label is label
    v = matched_partner(matching_for_order(g, vec), u)
    if v is None:
        assert members == {vec}
        return
    red = remove_vertex(vec, v)
    expected = []
    for slot in insertion_slots(red):
        cand = move_vertex(red, v, slot)
        if (
            matched_partner(matching_for_order(g, cand), u) == v
            and compute_profile(g, cand, u)[1] is label
        ):
            expected.append(slot)
    assert list(structure.member_slots) == expected
    assert members == {move_vertex(red, v, slot) for slot in expected}


def test_two_coloring_single_edge(k2):
    chi = two_coloring(k2, {(0, 1)}, {(0, 1)}, 0)
    assert {chi[0], chi[1]} == {BUYER, ITEM}
    flipped = two_coloring(k2, {(0, 1)}, {(0, 1)}, 1)
    assert flipped == {v: (ITEM if c == BUYER else BUYER) for v, c in chi.items()}


def test_two_coloring_alternates_along_path(p4):
    ranking = {(0, 1), (2, 3)}
    m_star = {(1, 2)}
    chi = two_coloring(p4, ranking, m_star, 0)
    for a, b in list(ranking) + list(m_star):
        assert chi[a] != chi[b]
    assert [chi[v] for v in range(4)] in (
        [BUYER, ITEM, BUYER, ITEM],
        [ITEM, BUYER, ITEM, BUYER],
    )


def test_two_coloring_exact_marginals(p4):
    counts = {v: 0 for v in range(4)}
    total = 0
    for perm in permutations(range(4)):
        matching = matching_for_order(p4, perm)
        for coin in (0, 1):
            chi = two_coloring(p4, matching, p4.m_star, coin)
            total += 1
            for v in range(4):
                counts[v] += chi[v] == BUYER
    assert all(2 * c == total for c in counts.values())


def test_two_coloring_rejects_odd_cycle():
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(RuntimeError, match="odd cycle"):
        two_coloring(tri, {(0, 1), (1, 2)}, {(0, 2)}, 0)


def test_prefix_agreement_exhaustive(p4, cex):
    for g in (p4, cex):
        for perm in permutations(range(g.n)):
            for v in range(g.n):
                assert check_prefix_agreement(g, list(perm), v).ok


def test_prefix_agreement_demoted_gate(cex):
    # Past v's own slot the demoted order may legitimately diverge; the
    # checker stops there, and the removed-vertex arm still holds throughout.
    report = check_prefix_agreement(cex, [0, 4, 2, 1, 3], 2)
    assert report.ok
    demoted_ts = [c.details["t"] for c in report.checks if c.claim == "prefix-agreement-demoted"]
    assert all(t[0] <= 3 for t in demoted_ts)


def test_violation_payload_is_json(cex):
    err = ClaimViolation("demo", {"graph": "cex", "witness": [1, 2]})
    payload = json.loads(err.to_json())
    assert payload["claim"] == "demo" and payload["witness"] == [1, 2]


def test_checkers_catch_a_faulty_removed_vertex_timeline(monkeypatch, cex):
    # The run with a vertex removed forgets the last edge it accepted: both
    # checkers, which read every timeline through ``partial_states``, must
    # notice.
    real = oracles.partial_states
    natural = list(range(cex.n))

    def faulty(g, order, times, frozen=frozenset()):
        pos = position_map(order)
        for state in real(g, order, times, frozen):
            if frozen and state.partial_matching:
                last = max(state.partial_matching, key=lambda e: sorted(map(pos.get, e)))
                state = PartialState(
                    state.t, state.partial_matching - {last}, state.available | set(last)
                )
            yield state

    for v in range(cex.n):
        alternating_path_sweep(cex, natural, v)
        assert check_prefix_agreement(cex, natural, v).ok
    monkeypatch.setattr(oracles, "partial_states", faulty)
    for v in range(cex.n):
        with pytest.raises(ClaimViolation):
            alternating_path_sweep(cex, natural, v)
    assert any(check_prefix_agreement(cex, natural, v).failures for v in range(cex.n))
