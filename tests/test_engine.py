import json
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ranking_forge.graphs import generate_family, make_graph
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
    corrupted, _ = _vertex_iterative(
        p4, position_map(order), frozenset(), latest_first=True
    )
    assert corrupted == {(1, 2)}
    assert matching_for_order(p4, order) == {(0, 1), (2, 3)}


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
    final = matching_for_order(g, order, frozen)
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


def test_trace_json(p4):
    payload = json.loads(trace_to_json(run_ranking(p4, [0, 1, 2, 3])))
    assert payload["view"] == "vertex_iterative"
    assert payload["matching"] == [[0, 1], [2, 3]]
    assert all(set(ev) == {"time", "edge", "accepted"} for ev in payload["probe_log"])


@st.composite
def graphs_and_orders(draw):
    # Graphs on up to 10 vertices, often with isolated vertices, and 1..6
    # orders each.
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = make_graph(n, [p for p, k in zip(pairs, keep) if k])
    rows = draw(st.integers(1, 6))
    orders = [draw(st.permutations(range(n))) for _ in range(rows)]
    return g, np.array(orders, dtype=np.int64).reshape(rows, n)


@settings(max_examples=200, deadline=None)
@given(graphs_and_orders())
def test_matching_sizes_match_vertex_iterative_rows(case):
    g, orders = case
    sizes = matching_sizes(g, orders)
    assert sizes.shape == (len(orders),)
    assert sizes.tolist() == [len(matching_for_order(g, row.tolist())) for row in orders]
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


def test_matching_sizes_rejects_bad_orders(p4):
    with pytest.raises(ValueError, match="shape"):
        matching_sizes(p4, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="shape"):
        matching_sizes(p4, [[0, 1, 2]])
    with pytest.raises(ValueError, match="outside"):
        matching_sizes(p4, [[0, 1, 2, 4]])
    with pytest.raises(ValueError, match="repeats"):
        matching_sizes(p4, [[0, 1, 2, 3], [0, 1, 1, 3]])
    assert matching_sizes(p4, np.empty((0, 4), dtype=int)).tolist() == []
