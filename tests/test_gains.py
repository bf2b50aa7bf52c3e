import math
from itertools import permutations

import numpy as np
import pytest

from ranking_forge import gains
from ranking_forge.gains import (
    REFERENCE_TABLE_K3,
    REFERENCE_TABLE_K10,
    ColoringError,
    H_value,
    PriceTable,
    audit_h_bounds,
    h_value,
    share_gains,
)
from ranking_forge.engine import matching_for_order
from ranking_forge.experiments import connected_graphs_upto
from ranking_forge.graphs import backup_counterexample_graph, generate_family, make_graph
from ranking_forge.oracles import BUYER, ITEM, ClassLabel, compute_profile, two_coloring
from ranking_forge.ranks import (
    EnumerationLimitError,
    RankVector,
    enumerate_rank_vectors,
    insertion_slots,
    move_vertex,
)

C_BOT = ClassLabel.UNMATCHED
C_S = ClassLabel.MATCHED_NO_BACKUP
C_B = ClassLabel.MATCHED_WITH_BACKUP


def test_padding_convention():
    t = PriceTable(2, [[0.4, 0.6], [0.3, 0.5]])
    assert t.value(1, 3) == 1.0 and t.value(2, 3) == 1.0
    assert t.value(3, 1) == 0.0 and t.value(3, 3) == 0.0
    assert t.monotonicity_violations() == []


def test_reference_tables_are_monotone():
    REFERENCE_TABLE_K3.require_monotonic()
    REFERENCE_TABLE_K10.require_monotonic()
    assert REFERENCE_TABLE_K3.value(1, 1) == 0.469
    assert REFERENCE_TABLE_K10.value(1, 11) == 1.0
    assert REFERENCE_TABLE_K10.value(11, 11) == 0.0


def test_monotonicity_violation_listing():
    t = PriceTable(2, [[0.4, 0.3], [0.5, 0.6]])
    kinds = {v["kind"] for v in t.monotonicity_violations()}
    assert kinds == {"buyer-decreasing", "item-increasing"}
    with pytest.raises(ValueError, match="monotone"):
        t.require_monotonic()


def test_table_json_round_trip():
    t = PriceTable(3, [[0.1, 0.2, 0.3]] * 3)
    t2 = PriceTable.from_json(t.to_json())
    assert t2.rows() == t.rows()


def test_bad_table_shapes():
    with pytest.raises(ValueError):
        PriceTable(2, [[0.1, 0.2]])
    with pytest.raises(ValueError):
        PriceTable(2, [[0.1, 1.4], [0.0, 0.0]])
    for k in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match="bucket count"):
            PriceTable(k, [[0.5]])


def test_share_gains_k2_reference_values(k2):
    vec = RankVector(3, {0: (1, 1), 1: (2, 1)})
    gains = share_gains(k2, vec, {0: BUYER, 1: ITEM}, REFERENCE_TABLE_K3)
    assert gains[1] == pytest.approx(0.563)
    assert gains[0] == pytest.approx(0.437)
    assert sum(gains.values()) == pytest.approx(1.0)


def test_share_gains_empty_matching():
    g = make_graph(3, [(0, 1)])
    vec = RankVector(2, {0: (1, 1), 1: (1, 2), 2: (2, 1)})
    gains = share_gains(g, vec, {0: BUYER, 1: ITEM, 2: BUYER}, REFERENCE_TABLE_K3,
                        matching=frozenset())
    assert set(gains.values()) == {0.0}


def test_share_gains_conserves_total(p4):
    vec = RankVector(3, {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (3, 1)})
    chi = {0: ITEM, 1: BUYER, 2: ITEM, 3: BUYER}
    gains = share_gains(p4, vec, chi, REFERENCE_TABLE_K3)
    assert sum(gains.values()) == pytest.approx(2.0)


def test_share_gains_rejects_monochromatic(k2):
    vec = RankVector(3, {0: (1, 1), 1: (2, 1)})
    with pytest.raises(ColoringError):
        share_gains(k2, vec, {0: BUYER, 1: BUYER}, REFERENCE_TABLE_K3)


def test_h_reference_values():
    t = REFERENCE_TABLE_K3
    assert h_value(C_BOT, t, 1, None, None, 1) == pytest.approx(0.469)
    # x_u < x_v with the new bucket at or past the match: 1 - f(1, 2).
    assert h_value(C_S, t, 1, 2, None, 3) == pytest.approx(0.437)
    # x_v <= x_us <= x_u: min{1 - f(2,3) + f(1,2), 1 - f(2,1)} = 0.531.
    assert h_value(C_B, t, 2, 1, 3, 2) == pytest.approx(0.531)
    assert H_value(C_BOT, t, 1) == pytest.approx((0.469 + 0.563 + 0.563) / 3)


def test_h_constant_table_average():
    t = PriceTable.constant(3, 0.44)
    for x_u in (1, 2, 3):
        assert H_value(C_BOT, t, x_u) == pytest.approx(0.44)


def test_h_case_boundaries_match_direct_enumeration():
    # Independent check of the case split: on a constant table every branch
    # evaluates to a closed form.
    t = PriceTable.constant(2, 0.5)
    for x_u in (1, 2):
        for x_v in (1, 2):
            for x_us in (1, 2):
                v = h_value(C_S, t, x_u, x_v, None, x_us)
                assert 0.0 <= v <= 2.0
                assert v == pytest.approx(0.5)


def test_h_validates_patterns_and_ranges():
    t = REFERENCE_TABLE_K3
    with pytest.raises(ValueError):
        h_value(C_BOT, t, 1, 2, None, 1)
    with pytest.raises(ValueError):
        h_value(C_S, t, 1, None, None, 1)
    with pytest.raises(ValueError):
        h_value(C_B, t, 1, 1, None, 1)
    with pytest.raises(ValueError):
        h_value(C_S, t, 1, 5, None, 1)
    # Only the backup bucket may be k + 1, the padded item column.
    with pytest.raises(ValueError, match="x_u=4 outside 1..3"):
        h_value(C_BOT, t, 4, None, None, 1)
    with pytest.raises(ValueError, match="x_u=4 outside 1..3"):
        H_value(C_BOT, t, 4)
    with pytest.raises(ValueError, match="x_v=4 outside 1..3"):
        h_value(C_S, t, 2, 4, None, 4)
    with pytest.raises(ValueError, match="x_ustar=4 outside 1..3"):
        h_value(C_S, t, 2, 1, None, 4)


def test_h_backup_bucket_may_be_k_plus_one():
    t = REFERENCE_TABLE_K3
    v = h_value(C_B, t, 2, 1, 4, 2)
    assert v == pytest.approx(min(1 - t.value(2, 4) + t.value(1, 2), 1 - t.value(2, 1)))


def test_H_weakly_decreasing_in_backup_bucket():
    # Raising the backup bucket can only lower the bound (this is what makes
    # the worst-case window form with the bumped backup index sound).
    t = REFERENCE_TABLE_K3
    for x_u in (1, 2, 3):
        for x_v in (1, 2, 3):
            hb = [H_value(C_B, t, x_u, x_v, x_b) for x_b in range(x_v + 1, 5)]
            assert all(a >= b - 1e-12 for a, b in zip(hb, hb[1:]))


def test_H_not_monotone_in_match_bucket():
    # Direct evaluation refutes monotonicity in the match bucket: with equal
    # adjacent prices the middle insertion case pays the full unit.
    t = REFERENCE_TABLE_K3
    assert H_value(C_S, t, 1, 3) > H_value(C_S, t, 1, 2) + 0.1


def test_gain_monotonicity_inequalities():
    # Matched buyer's gain dominates the bound from any later item bucket,
    # and symmetrically for items: direct consequence of table monotonicity.
    t = REFERENCE_TABLE_K10
    for x_u in range(1, 11):
        for x_v in range(1, 11):
            for later in range(x_v, 12):
                assert 1 - t.value(x_u, x_v) >= 1 - t.value(x_u, later) - 1e-12
            for earlier in range(x_u, 12):
                assert t.value(x_u, x_v) >= t.value(earlier, x_v) - 1e-12


def test_audit_clean_on_pendant_path():
    g = make_graph(3, [(0, 1), (1, 2)], m_star=[(0, 1)])
    assert audit_h_bounds(g, 0, 1, PriceTable.constant(2, 0.5)) == []
    assert audit_h_bounds(g, 1, 0, PriceTable.constant(2, 0.5)) == []


def test_audit_detects_corrupted_table():
    g = make_graph(3, [(0, 1), (1, 2)], m_star=[(0, 1)])
    bad = PriceTable(2, [[0.1, 0.2], [0.9, 0.95]])
    violations = audit_h_bounds(g, 0, 1, bad, check_table=False)
    assert violations
    assert all(v["h"] > v["realized"] for v in violations if "h" in v)
    with pytest.raises(ValueError):
        audit_h_bounds(g, 0, 1, bad)


def _unmemoized_audit(g, u, u_star, table, k):
    # The audit's loop with nothing shared between realizations: matching,
    # coloring and h are recomputed for every one.
    violations = []
    for vec in enumerate_rank_vectors(sorted(set(g.vertices) - {u_star}), k):
        profile, label = compute_profile(g, vec, u)
        for slot in insertion_slots(vec):
            sigma = move_vertex(vec, u_star, slot)
            matching = matching_for_order(g, sigma)
            chi = two_coloring(g, matching, g.m_star, 0)
            if chi[u] != BUYER:
                chi = {v: (ITEM if c == BUYER else BUYER) for v, c in chi.items()}
            gains = share_gains(g, sigma, chi, table, matching=matching)
            total_u = gains[u] + gains[u_star]
            hv = h_value(label, table, profile.x_u, profile.x_v, profile.x_b, slot[0])
            vector = {str(v): list(s) for v, s in vec.items()}
            if hv > total_u + 1e-9:
                violations.append({
                    "claim": f"h-bound-{label.value}", "vector": vector,
                    "slot": list(slot), "profile": list(profile), "h": hv,
                    "realized": total_u,
                })
            mass = sum(gains.values())
            if abs(mass - len(matching)) > 1e-9:
                violations.append({
                    "claim": "gain-conservation", "vector": vector,
                    "slot": list(slot), "total_gain": mass,
                    "matching_size": len(matching),
                })
    return violations


@pytest.mark.parametrize(
    "g", [backup_counterexample_graph(), generate_family("path", n=4)],
    ids=["backup_cex", "path4"],
)
def test_audit_matches_the_unmemoized_loop(g):
    # A non-monotone table, so that the violation lists are not empty.
    bad = PriceTable(2, [[0.1, 0.2], [0.9, 0.95]])
    found = 0
    for a, b in sorted(g.m_star):
        for u, u_star in ((a, b), (b, a)):
            expected = _unmemoized_audit(g, u, u_star, bad, 2)
            assert audit_h_bounds(g, u, u_star, bad, check_table=False) == expected
            found += len(expected)
    assert found


def _random_table(k, seed, monotone):
    # Uniform prices; the monotone one takes the running max along items,
    # then the running min down buyers, which keeps the rows increasing.
    grid = np.random.default_rng(seed).random((k, k))
    if monotone:
        grid = np.minimum.accumulate(np.maximum.accumulate(grid, axis=1), axis=0)
    return PriceTable(k, grid.tolist())


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "raw"])
def test_audit_matches_the_unmemoized_loop_with_crowded_buckets(monotone):
    # Four vertices in three buckets: every vector puts several vertices in
    # one bucket, so u_star's slot index depends on the bucket's occupants.
    g = generate_family("cycle", n=5)
    table = _random_table(3, 23, monotone)
    assert (table.monotonicity_violations() == []) == monotone
    found = 0
    for a, b in sorted(g.m_star):
        for u, u_star in ((a, b), (b, a)):
            expected = _unmemoized_audit(g, u, u_star, table, 3)
            assert audit_h_bounds(g, u, u_star, table, check_table=False) == expected
            found += len(expected)
    assert found or monotone


def test_audit_matches_the_unmemoized_loop_on_every_small_graph(monkeypatch):
    # Every connected graph on at most four vertices, both ends of every
    # designated pair as u, k = 1, 2, 3, on raw tables so that violations
    # occur; the matcher runs once per (order of the others, index of u_star).
    calls = []

    def counted(g, order, *args):
        calls.append(tuple(order))
        return matching_for_order(g, order, *args)

    found = 0
    for g in connected_graphs_upto(4):
        for k in (1, 2, 3):
            table = _random_table(k, 10 * g.n + k, monotone=False)
            for a, b in sorted(g.m_star):
                for u, u_star in ((a, b), (b, a)):
                    expected = _unmemoized_audit(g, u, u_star, table, k)
                    calls.clear()
                    with monkeypatch.context() as m:
                        m.setattr(gains, "matching_for_order", counted)
                        assert audit_h_bounds(g, u, u_star, table, False) == expected
                    found += len(expected)
                    others = sorted(set(g.vertices) - {u_star})
                    spliced = [
                        p[:j] + (u_star,) + p[j:]
                        for p in permutations(others) for j in range(len(others) + 1)
                    ]
                    assert sorted(calls) == sorted(spliced)
    assert found


def test_audit_keeps_the_conservation_check(monkeypatch):
    # A matcher that returns two edges sharing vertex 1: that vertex's gain
    # is overwritten, so the gains no longer sum to the matching size, and
    # the audit must report it as the unmemoized loop does.
    g = make_graph(3, [(0, 1), (1, 2)], m_star=[(0, 1)])

    def broken(g, order, *args):
        return frozenset({(0, 1), (1, 2)})

    monkeypatch.setattr(gains, "matching_for_order", broken)
    monkeypatch.setitem(globals(), "matching_for_order", broken)
    found = 0
    for u, u_star in ((0, 1), (1, 0)):
        expected = _unmemoized_audit(g, u, u_star, REFERENCE_TABLE_K3, 3)
        actual = audit_h_bounds(g, u, u_star, REFERENCE_TABLE_K3)
        kept = [v for v in actual if v["claim"] == "gain-conservation"]
        assert kept == [v for v in expected if v["claim"] == "gain-conservation"]
        found += len(kept)
    assert found


def test_audit_builds_no_rank_vector_per_slot(monkeypatch):
    # The enumeration builds each vector once; a realization splices u_star
    # into the vector's order instead of building the moved vector.
    g = backup_counterexample_graph()
    u, u_star = sorted(g.m_star)[0]
    others = sorted(set(g.vertices) - {u_star})
    vectors = sum(1 for _ in enumerate_rank_vectors(others, 3))
    built = []
    from_order = RankVector._from_order.__func__

    def counted(cls, *args):
        built.append(args)
        return from_order(cls, *args)

    monkeypatch.setattr(RankVector, "_from_order", classmethod(counted))
    audit_h_bounds(g, u, u_star, REFERENCE_TABLE_K3)
    assert len(built) == vectors


def test_audit_colors_each_order_once(monkeypatch):
    # One BFS per order: the coloring that makes u a buyer is the coin-0
    # coloring or its complement, never a second BFS.
    calls = {"matching": 0, "coloring": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gains, "matching_for_order", counted("matching", matching_for_order))
    monkeypatch.setattr(gains, "two_coloring", counted("coloring", two_coloring))
    g = backup_counterexample_graph()
    for a, b in sorted(g.m_star):
        for u, u_star in ((a, b), (b, a)):
            audit_h_bounds(g, u, u_star, REFERENCE_TABLE_K3)
    assert calls["coloring"] == calls["matching"] > 0


def test_audit_refuses_to_sample_past_its_budget():
    # 3^7 * 7! = 11 022 480 rank vectors on the other seven vertices: past
    # the audit's cap, so it must stop instead of auditing a sample.
    g = generate_family("random_with_perfect_matching", n=8, density=0.3, seed=1)
    u, u_star = sorted(g.m_star)[0]
    with pytest.raises(EnumerationLimitError):
        audit_h_bounds(g, u, u_star, REFERENCE_TABLE_K3)


def test_audit_requires_designated_pair(p4):
    with pytest.raises(ValueError, match="designated"):
        audit_h_bounds(p4, 0, 2, PriceTable.constant(2, 0.5))
