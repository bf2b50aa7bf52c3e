import hashlib
import json
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranking_forge import engine, experiments
from ranking_forge.engine import (
    VIEWS,
    _vertex_iterative,
    matching_for_order,
    matching_sizes,
    partial_state,
    partial_states,
    position_map,
    run_ranking,
    trace_to_json,
    views_agree,
)
from ranking_forge.experiments import connected_graphs_upto, exact_expected_ratio
from ranking_forge.gains import REFERENCE_TABLE_K3, audit_h_bounds
from ranking_forge.graphs import backup_counterexample_graph, generate_family, make_graph
from ranking_forge.oracles import ClassLabel, compute_profile
from ranking_forge.ranks import RankVector, remove_vertex, sample_ranks


def test_k2_always_matches(k2):
    for view in VIEWS:
        for order in ([0, 1], [1, 0]):
            trace = run_ranking(k2, order, view)
            assert trace.matching == frozenset({(0, 1)})


def test_p4_hand_simulated_order(p4):
    # order (b, c, a, d): b prefers c (rank 2) over a (rank 3).
    trace = run_ranking(p4, [1, 2, 0, 3])
    assert trace.matching == frozenset({(1, 2)})


def test_counterexample_natural_order(cex):
    trace = run_ranking(cex, [0, 1, 2, 3, 4])
    assert trace.matching == frozenset({(0, 2), (1, 3)})


def test_rank_vector_orders_are_accepted(p4):
    vec = RankVector(3, {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (3, 1)})
    assert run_ranking(p4, vec).matching == matching_for_order(p4, [0, 1, 2, 3])


def test_probe_log_times_strictly_increase(p4, cex):
    for g in (p4, cex):
        for view in VIEWS:
            for perm in permutations(range(g.n)):
                log = run_ranking(g, list(perm), view).probe_log
                times = [ev.time for ev in log]
                assert times == sorted(set(times))
                accepted = {ev.edge for ev in log if ev.accepted}
                assert accepted == set(run_ranking(g, list(perm), view).matching)


def test_probe_order_consistency_fact(cex):
    # Edges sharing an endpoint are first-probed in the order of the other
    # endpoint's rank.
    for perm in permutations(range(cex.n)):
        pos = {v: i + 1 for i, v in enumerate(perm)}
        log = run_ranking(cex, list(perm), "greedy_probing").probe_log
        first = {ev.edge: ev.time for ev in log}
        for u in range(cex.n):
            nbrs = cex.neighbors(u)
            for a in nbrs:
                for b in nbrs:
                    if a == b:
                        continue
                    ea = (min(u, a), max(u, a))
                    eb = (min(u, b), max(u, b))
                    assert (first[ea] <= first[eb]) == (pos[a] <= pos[b])


def test_output_is_maximal(p4, cex):
    for g in (p4, cex):
        for perm in permutations(range(g.n)):
            matched = {v for e in matching_for_order(g, perm) for v in e}
            for u, v in g.edges:
                assert u in matched or v in matched


def test_views_agree_exhaustively_small(p4, cex, k2):
    for g in (k2, p4, cex, generate_family("cycle", n=5)):
        for perm in permutations(range(g.n)):
            assert views_agree(g, list(perm)).agree


def test_p4_expected_matching_size(p4):
    total = sum(len(matching_for_order(p4, p)) for p in permutations(range(4)))
    assert Fraction(total, 24) == Fraction(7, 4)


def test_mutation_arm_takes_the_last_free_neighbor(p4):
    # The sweep's corrupted arm: vertex 1 comes first and grabs its later
    # neighbor 2 instead of 0, which strands both ends of the path.
    order = [1, 0, 2, 3]
    corrupted, _ = _vertex_iterative(p4, order, frozenset(), latest_first=True)
    assert corrupted == {(1, 2)}
    assert matching_for_order(p4, order) == {(0, 1), (2, 3)}


def test_single_and_many_order_runs_bypass_the_vertex_iterative_view(monkeypatch, p4):
    # Outside the three views, one order runs on the greedy-probing replay
    # and many orders on ``matching_sizes``.
    expected = {
        order: run_ranking(p4, list(order)).matching for order in permutations(range(4))
    }

    def unavailable(*args, **kwargs):
        raise AssertionError("the vertex-iterative view ran")

    monkeypatch.setattr(engine, "_vertex_iterative", unavailable)
    monkeypatch.setitem(engine._VIEW_IMPLS, "vertex_iterative", unavailable)
    for order, matching in expected.items():
        assert matching_for_order(p4, order) == matching
    vec = RankVector(2, {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (2, 2)})
    assert compute_profile(p4, vec, 0)[1] == ClassLabel.MATCHED_NO_BACKUP
    assert audit_h_bounds(p4, 0, 1, REFERENCE_TABLE_K3) == []
    monkeypatch.setattr(experiments, "matching_for_order", unavailable)
    assert exact_expected_ratio(p4) == Fraction(7, 8)


def test_frozen_vertices_are_never_matched(cex):
    trace = run_ranking(cex, [0, 1, 2, 3, 4], frozen={2})
    assert all(2 not in e for e in trace.matching)
    assert trace.matching == frozenset({(0, 3)})


def test_frozen_equals_deletion_exhaustively():
    # Freezing u_star reproduces the run on the order with u_star removed
    # and on the rebuilt graph without u_star's edges, for every order.
    graphs = [
        generate_family("path", n=5),
        generate_family("cycle", n=6),
        make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 3)]),
    ]
    for g in graphs:
        for u_star in range(g.n):
            stripped = make_graph(g.n, [e for e in g.edges if u_star not in e])
            vec = sample_ranks(range(g.n), k=3, seed=17 + u_star)
            for perm in permutations(range(g.n)):
                frozen_run = matching_for_order(g, perm, frozen={u_star})
                reduced = [v for v in perm if v != u_star]
                assert frozen_run == matching_for_order(g, reduced)
                assert frozen_run == matching_for_order(stripped, perm)
            assert matching_for_order(g, vec, frozen={u_star}) == matching_for_order(
                g, remove_vertex(vec, u_star)
            )


def test_partial_state_boundaries(p4, k2):
    st = partial_state(p4, [0, 1, 2, 3], (1, 1))
    assert st.partial_matching == frozenset()
    assert st.available == frozenset({0, 1, 2, 3})
    st = partial_state(k2, [0, 1], (99, 99))
    assert st.partial_matching == frozenset({(0, 1)})
    st = partial_state(p4, [0, 1, 2, 3], (2, 1))
    assert st.partial_matching == frozenset({(0, 1)})
    assert st.available == frozenset({2, 3})


def test_partial_state_respects_frozen(p4):
    st = partial_state(p4, [0, 1, 2, 3], (1, 1), frozen={0})
    assert st.available == frozenset({1, 2, 3})


@st.composite
def replay_cases(draw):
    # A graph on up to 8 vertices, an order over some of its vertices, and a
    # frozen subset of that order.
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = make_graph(n, [p for p, k in zip(pairs, keep) if k])
    order = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    frozen = draw(st.sets(st.sampled_from(order)))
    return g, list(order), frozenset(frozen)


@settings(max_examples=200, deadline=None)
@given(replay_cases())
def test_partial_states_are_prefixes_of_the_final_matching(case):
    # Before (t, 1) exactly the final matching's edges whose earlier endpoint
    # sits before t have been taken.
    g, order, frozen = case
    pos = {v: i + 1 for i, v in enumerate(order)}
    final = run_ranking(g, order, "vertex_iterative", frozen).matching
    boundaries = [(t, 1) for t in range(1, len(order) + 2)]
    states = list(partial_states(g, order, boundaries, frozen))
    assert [state.t for state in states] == boundaries
    for state in states:
        prefix = {e for e in final if min(pos[e[0]], pos[e[1]]) < state.t[0]}
        assert state.partial_matching == prefix
        covered = {v for e in prefix for v in e}
        assert state.available == set(order) - frozen - covered


def test_partial_states_rejects_times_that_do_not_ascend(p4):
    for times in ([(2, 1), (1, 1)], [(1, 1), (1, 1)]):
        with pytest.raises(ValueError, match="ascend"):
            list(partial_states(p4, [0, 1, 2, 3], times))


def test_domain_errors(p4):
    with pytest.raises(ValueError):
        run_ranking(p4, [0, 1, 2, 9])
    with pytest.raises(ValueError):
        run_ranking(p4, [0, 1, 2, 3], frozen={9})
    with pytest.raises(ValueError):
        run_ranking(p4, {0: 1, 1: 3, 2: 3, 3: 4})
    with pytest.raises(ValueError):
        run_ranking(p4, [0, 1, 2, 3], view="sideways")


def _reference_timeline(g, pos, frozen):
    # The replay written out without the memo or int positions: sort the
    # in-domain edges by probe time and commit every probe whose endpoints
    # are both free.
    schedule = sorted(
        (tuple(sorted((pos[u], pos[v]))), (u, v))
        for u, v in g.edges
        if u in pos and v in pos
    )
    matching, taken = frozenset(), sum(1 << v for v in frozen)
    accepted, matchings, takens = [], [matching], [taken]
    for _, (u, v) in schedule:
        ok = not taken & (1 << u | 1 << v)
        if ok:
            taken |= 1 << u | 1 << v
            matching = matching | {(u, v)}
        accepted.append(ok)
        matchings.append(matching)
        takens.append(taken)
    return schedule, accepted, matchings, takens


def _order_as(form, order):
    if form == "vector":
        return RankVector(1, {v: (1, i + 1) for i, v in enumerate(order)})
    if form == "map":
        return {v: i + 1 for i, v in enumerate(order)}
    return list(order)


@settings(max_examples=200, deadline=None)
@given(replay_cases(), st.sampled_from(["list", "vector", "map"]))
def test_memoized_runs_equal_a_fresh_replay(case, form):
    g, order, frozen = case
    engine._MEMO.reset(None)
    given_order = _order_as(form, order)
    first = engine._replay(g, given_order, frozen)
    again = engine._replay(g, given_order, frozen)
    assert again is first  # the second call is served from the memo
    assert engine._replay(g, tuple(order), frozen) is first
    for field in ("accepted", "matchings", "taken"):
        assert type(getattr(first, field)) is tuple
    pos = position_map(order)
    expected = _reference_timeline(g, pos, frozen)
    assert (list(first.schedule), list(first.accepted),
            list(first.matchings), list(first.taken)) == expected
    # Every other frozen set reuses the order's schedule, not its run.
    unfrozen = engine._replay(g, given_order, frozenset())
    assert unfrozen.order is first.order
    assert list(unfrozen.taken) == _reference_timeline(g, pos, frozenset())[3]
    assert matching_for_order(g, given_order, frozen) == first.matchings[-1]


@settings(max_examples=200, deadline=None)
@given(replay_cases(), st.sampled_from(["list", "vector", "map"]))
def test_views_run_on_the_checked_sequence(case, form):
    # Whatever form the order comes in, run_ranking hands the views its
    # checked vertex sequence, and the greedy-probing view replays that tuple.
    g, order, frozen = case
    received = []
    replay = engine._replay

    def spy(g, order, frozen):
        received.append(order)
        return replay(g, order, frozen)

    given_order = _order_as(form, order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_replay", spy)
        traces = {view: run_ranking(g, given_order, view, frozen) for view in VIEWS}
    assert [type(o) for o in received] == [tuple]
    assert received == [tuple(order)]
    assert len({trace.matching for trace in traces.values()}) == 1
    pos = {v: i + 1 for i, v in enumerate(order)}
    schedule, accepted, _, _ = _reference_timeline(g, pos, frozen)
    log = traces["greedy_probing"].probe_log
    assert [(ev.time, ev.edge, ev.accepted) for ev in log] == [
        (t, e, ok) for (t, e), ok in zip(schedule, accepted)
    ]


def test_invalid_orders_and_frozen_sets_raise_on_every_call(p4):
    engine._MEMO.reset(None)
    cases = [
        ([0, 1, 1, 3], frozenset(), "repeats a vertex"),
        ([0, 1, 2, 9], frozenset(), "outside the graph"),
        ([0, -1, 2, 3], frozenset(), "outside the graph"),
        ({0: 1, 1: 3, 2: 3, 3: 4}, frozenset(), "not a bijection"),
        ([0, 1, 2], frozenset({3}), r"frozen vertices \[3\] not in order"),
        (RankVector(1, {0: (1, 1), 1: (1, 2)}), frozenset({9}), "not in order"),
    ]
    for order, frozen, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                engine._replay(p4, order, frozen)
            with pytest.raises(ValueError, match=message):
                matching_for_order(p4, order, frozen)
            with pytest.raises(ValueError, match=message):
                run_ranking(p4, order, frozen=frozen)
    assert all(len(set(o.seq)) == len(o.seq) for o in engine._MEMO.orders.values())
    assert all(frozen <= set(seq) for seq, frozen in engine._MEMO.runs)
    assert all(0 <= v < p4.n for seq in engine._MEMO.orders for v in seq)


def test_the_memo_holds_one_graph_and_stays_under_its_cap(monkeypatch):
    first, second = generate_family("cycle", n=6), generate_family("cycle", n=6)
    matching_for_order(first, [0, 1, 2, 3, 4, 5])
    matching_for_order(second, [0, 1, 2, 3, 4, 5], frozen={2})
    # An equal graph that is a different object starts the memo over.
    assert engine._MEMO.graph is second
    assert list(engine._MEMO.runs) == [((0, 1, 2, 3, 4, 5), frozenset({2}))]
    cap = 40
    monkeypatch.setattr(engine, "MEMO_PROBES", cap)
    engine._MEMO.reset(None)
    for perm in permutations(range(6)):
        matching_for_order(first, perm)
        assert engine._MEMO.probes <= cap
        held = sum(len(o.schedule) + 1 for o in engine._MEMO.orders.values())
        held += sum(len(t.taken) for t in engine._MEMO.runs.values())
        assert held == engine._MEMO.probes
    # A run with more probe states than the cap is computed, never kept.
    dense = generate_family("complete", n=10)
    assert len(matching_for_order(dense, list(range(10)))) == 5
    assert engine._MEMO.graph is dense and not engine._MEMO.runs
    assert not engine._MEMO.orders


def test_trace_json(p4):
    payload = json.loads(trace_to_json(run_ranking(p4, [0, 1, 2, 3])))
    assert payload["view"] == "vertex_iterative"
    assert payload["matching"] == [[0, 1], [2, 3]]
    assert all(set(ev) == {"time", "edge", "accepted"} for ev in payload["probe_log"])



def test_probe_logs_are_pinned():
    # Every view's trace, probe log included, for every order of every
    # connected graph on at most 4 vertices and of the backup counterexample.
    digest = hashlib.sha256()
    for g in connected_graphs_upto(4) + [backup_counterexample_graph()]:
        for order in permutations(range(g.n)):
            for view in VIEWS:
                text = trace_to_json(run_ranking(g, list(order), view))
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "5d5338d457278ad1313781a55a57d49294b668c47c8db38839be9f41dea84ccd"
    )


def test_views_agree_reports_a_view_that_diverges(monkeypatch, cex):
    # One view loses an edge of its matching: the report disagrees and shows
    # every view's matching.
    real = engine._VIEW_IMPLS["restricted_arrival"]

    def lossy(g, seq, frozen):
        matching, log = real(g, seq, frozen)
        return set(sorted(matching)[1:]), log

    monkeypatch.setitem(engine._VIEW_IMPLS, "restricted_arrival", lossy)
    order = list(range(cex.n))
    report = views_agree(cex, order)
    assert not report.agree
    assert set(report.divergence) == set(VIEWS)
    full = sorted(matching_for_order(cex, order))
    assert report.divergence["restricted_arrival"] == full[1:]
    assert report.divergence["vertex_iterative"] == full
    assert report.divergence["greedy_probing"] == full

@st.composite
def graphs_and_orders(draw):
    # Graphs on up to 10 vertices, often with isolated vertices, on 28..36
    # vertices, either side of the 32-bit word's limit, or on 60..70
    # vertices, either side of the word-packed kernel's 64-vertex limit;
    # 1..6 orders each.
    n = draw(st.one_of(st.integers(1, 10), st.integers(28, 36), st.integers(60, 70)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if n <= 10:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    else:
        density = draw(st.sampled_from([0.01, 0.05, 0.3]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keep = rng.random(len(pairs)) < density
    g = make_graph(n, [p for p, k in zip(pairs, keep) if k])
    rows = draw(st.integers(1, 6))
    orders = [draw(st.permutations(range(n))) for _ in range(rows)]
    return g, np.array(orders, dtype=np.int64).reshape(rows, n)


def _vertex_iterative_sizes(g, orders):
    return [len(run_ranking(g, row.tolist(), "vertex_iterative").matching) for row in orders]


@settings(max_examples=200, deadline=None)
@given(graphs_and_orders())
def test_matching_sizes_match_vertex_iterative_rows(case):
    g, orders = case
    sizes = matching_sizes(g, orders)
    assert sizes.shape == (len(orders),)
    assert sizes.tolist() == _vertex_iterative_sizes(g, orders)
    # B = 1 takes the same path as every row of a larger batch.
    assert matching_sizes(g, orders[:1]).tolist() == sizes[:1].tolist()


def test_matching_sizes_on_wide_graphs():
    # A star and a complete bipartite graph with thousands of vertices: no
    # n x max-degree matrix is ever built.
    star = make_graph(3000, [(0, v) for v in range(1, 3000)])
    rng = np.random.default_rng(0)
    orders = np.array([rng.permutation(3000) for _ in range(8)])
    assert matching_sizes(star, orders).tolist() == [1] * 8
    kab = generate_family("complete_bipartite", n=2000)
    orders = np.array([rng.permutation(2000) for _ in range(4)])
    assert matching_sizes(kab, orders).tolist() == [1000] * 4


def test_matching_sizes_rejects_bad_orders():
    # Both kernels: words up to 64 vertices, CSR segments above.
    for n in (4, 64, 65):
        g = generate_family("path", n=n)
        row = list(range(n))
        with pytest.raises(ValueError, match="shape"):
            matching_sizes(g, row)
        with pytest.raises(ValueError, match="shape"):
            matching_sizes(g, [row[:-1]])
        with pytest.raises(ValueError, match="outside"):
            matching_sizes(g, [row[:-1] + [n]])
        with pytest.raises(ValueError, match="outside"):
            matching_sizes(g, [[-1] + row[1:]])
        with pytest.raises(ValueError, match="repeats"):
            matching_sizes(g, [row, [0, 1, 1] + row[3:]])
        assert matching_sizes(g, np.empty((0, n), dtype=int)).tolist() == []


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65])
def test_matching_sizes_at_the_word_boundary(n):
    # Either side of the 32-bit and the 64-bit word: a planted graph with
    # three or four isolated vertices after it, and a path that uses
    # position 31 at n = 32 and position 63 at n = 64, under identity,
    # reversed and random orders.
    rng = np.random.default_rng(n)
    planted = generate_family(
        "random_with_perfect_matching", n=(n - 3) // 2 * 2, density=0.1, seed=n
    )
    for g in (make_graph(n, planted.edges), generate_family("path", n=n)):
        orders = np.array(
            [np.arange(n), np.arange(n)[::-1], *(rng.permutation(n) for _ in range(30))]
        )
        assert matching_sizes(g, orders).tolist() == _vertex_iterative_sizes(g, orders)


def test_matching_sizes_picks_the_kernel_by_vertex_count(monkeypatch):
    def unavailable(*args):
        raise AssertionError("the other kernel ran")

    monkeypatch.setattr(engine, "_csr_sizes", unavailable)
    assert matching_sizes(generate_family("path", n=64), [range(64)]).tolist() == [32]
    monkeypatch.undo()
    monkeypatch.setattr(engine, "_word_sizes", unavailable)
    assert matching_sizes(generate_family("path", n=65), [range(65)]).tolist() == [32]
