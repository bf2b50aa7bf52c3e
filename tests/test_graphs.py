import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranking_forge.graphs import (
    SizeLimitError,
    backup_counterexample_graph,
    blossom_matching,
    generate_family,
    graph_from_json,
    graph_from_text,
    graph_to_json,
    graph_to_text,
    is_matching,
    make_graph,
    matching_size_bruteforce,
    maximum_matching,
    maximum_matching_size,
)


def test_make_graph_canonicalizes_and_collapses():
    g = make_graph(4, [(1, 0), (0, 1), (2, 3)])
    assert g.edges == frozenset({(0, 1), (2, 3)})
    assert g.neighbors(0) == (1,)


def test_make_graph_rejects_self_loop_naming_pair():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        make_graph(3, [(0, 1), (2, 2)])


def test_make_graph_rejects_out_of_range_naming_pair():
    with pytest.raises(ValueError, match=r"\(1, 7\)"):
        make_graph(3, [(1, 7)])


def test_k2_and_p4_shapes(k2, p4):
    assert len(k2.edges) == 1
    assert sorted(p4.edges) == [(0, 1), (1, 2), (2, 3)]


def test_counterexample_graph_layout(cex):
    assert cex.n == 5
    assert cex.edges == frozenset({(0, 2), (0, 3), (0, 4), (1, 3)})
    assert maximum_matching_size(cex) == 2
    assert matching_size_bruteforce(cex) == 2


def test_matching_sizes_on_known_graphs(p4):
    assert maximum_matching_size(p4) == 2
    assert maximum_matching_size(generate_family("cycle", n=5)) == 2
    assert maximum_matching_size(generate_family("complete", n=4)) == 2
    assert maximum_matching_size(generate_family("complete_bipartite", n=6)) == 3


def test_maximum_matching_is_a_matching(p4, cex):
    for g in (p4, cex):
        m = maximum_matching(g)
        assert is_matching(g, m)
        assert len(m) == maximum_matching_size(g)


def test_exact_search_agrees_with_subset_enumeration():
    # Sparse graphs up to 8 vertices; the subset oracle is the independent
    # route.
    cases = [
        generate_family("path", n=8),
        generate_family("cycle", n=7),
        generate_family("complete_bipartite", n=6),
        generate_family("random_with_perfect_matching", n=8, density=0.15, seed=3),
        generate_family("random_with_perfect_matching", n=8, density=0.2, seed=11),
    ]
    for g in cases:
        assert maximum_matching_size(g) == matching_size_bruteforce(g)


def test_exact_search_agrees_on_every_small_connected_graph():
    from ranking_forge.experiments import connected_graphs_upto

    for g in connected_graphs_upto(5):
        assert maximum_matching_size(g) == matching_size_bruteforce(g)


def test_designated_pairs():
    from ranking_forge.graphs import designated_pairs

    g = generate_family("path", n=4)
    assert designated_pairs(g) == [(0, 1), (1, 0), (2, 3), (3, 2)]
    with pytest.raises(ValueError):
        designated_pairs(make_graph(2, [(0, 1)]))


def test_size_limit_error():
    # The exhaustive search keeps its limit; the blossom-backed size has none.
    g = generate_family("path", n=30)
    with pytest.raises(SizeLimitError):
        maximum_matching(g)
    assert maximum_matching_size(g) == 15


def test_blossom_agrees_with_exhaustive_on_every_connected_graph_upto_6():
    # Every labelled connected graph, so every isomorphism class, on <= 6
    # vertices.
    from ranking_forge.experiments import _connected

    checked = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not _connected(n, edges):
                continue
            g = make_graph(n, edges)
            m = blossom_matching(g)
            assert is_matching(g, m)
            assert len(m) == len(maximum_matching(g)), edges
            checked += 1
    assert checked == 1 + 1 + 4 + 38 + 728 + 26704


@st.composite
def random_graphs(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_blossom_agrees_with_exhaustive_on_random_graphs(g):
    m = blossom_matching(g)
    assert is_matching(g, m)
    assert len(m) == len(maximum_matching(g))


def test_blossom_on_odd_cycle_structures():
    # Petersen graph: every vertex lies on 5-cycles; it has a perfect matching.
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert maximum_matching_size(make_graph(10, outer + spokes + inner)) == 5
    # Two triangles joined by a path through a blossom stem.
    g = make_graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)])
    assert maximum_matching_size(g) == len(maximum_matching(g)) == 4


def _bipartite_oracle(a, b, edges):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rows = [u for u, _ in edges]
    cols = [v - a for _, v in edges]
    biadj = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(a, b))
    return int((maximum_bipartite_matching(biadj, perm_type="column") >= 0).sum())


def test_blossom_agrees_with_scipy_on_bipartite_graphs():
    for n in (2, 3, 7, 40, 200):
        g = generate_family("complete_bipartite", n=n)
        a = n // 2
        assert maximum_matching_size(g) == _bipartite_oracle(a, n - a, sorted(g.edges)) == a
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = (int(x) for x in rng.integers(1, 101, size=2))
        density = float(rng.choice([0.01, 0.03, 0.1, 0.3]))
        edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < density]
        g = make_graph(a + b, edges)
        m = blossom_matching(g)
        assert is_matching(g, m)
        assert len(m) == _bipartite_oracle(a, b, edges)


def test_generate_family_determinism_and_planted_matching():
    a = generate_family("random_with_perfect_matching", n=8, density=0.3, seed=7)
    b = generate_family("random_with_perfect_matching", n=8, density=0.3, seed=7)
    assert a.edges == b.edges and a.m_star == b.m_star
    assert len(a.m_star) == 4
    assert maximum_matching_size(a) == 4  # planted matching is perfect


def test_generate_family_errors():
    with pytest.raises(ValueError):
        generate_family("random_with_perfect_matching", n=7, density=0.3, seed=1)
    with pytest.raises(ValueError, match="unknown family"):
        generate_family("mystery", n=4)


def test_m_star_validation():
    with pytest.raises(ValueError, match="matching"):
        make_graph(4, [(0, 1), (1, 2)], m_star=[(0, 1), (1, 2)])


def test_text_serialization_round_trip(cex):
    text = graph_to_text(cex)
    assert text.splitlines()[0] == "5 4"
    g2 = graph_from_text(text)
    assert g2.n == cex.n and g2.edges == cex.edges


def test_json_serialization_round_trip(cex):
    g2 = graph_from_json(graph_to_json(cex))
    assert g2.edges == cex.edges and g2.m_star == cex.m_star


def test_graphs_are_immutable(p4):
    with pytest.raises(Exception):
        p4.n = 7


@pytest.mark.parametrize("n, seed, digest", [
    (8, 7, "23f3d56fef1f3b3b21b7fd0cf771a3e19ffa42b7ff594aa483b73bd8bb51cdcf"),
    (200, 3, "a47b300f5ef7d422d6f0217a9fd833f04500e6d22e25085c0172bb848d638550"),
])
def test_random_with_perfect_matching_is_pinned(n, seed, digest):
    # Digests from the pair-at-a-time generator: drawing a row at a time
    # reads the same PCG64 stream, so seeded graphs do not change.
    g = generate_family("random_with_perfect_matching", n=n, density=0.3, seed=seed)
    assert hashlib.sha256(graph_to_text(g).encode()).hexdigest() == digest
