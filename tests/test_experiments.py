import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from ranking_forge import experiments, oracles, simplex
from ranking_forge.experiments import (
    KNOWN_OPTIMA,
    MC_BLOCK_SLOTS,
    MC_MAX_BUCKETS,
    SWEEP_STAGES,
    CorpusGraph,
    SweepConfig,
    connected_graphs_upto,
    default_corpus,
    exact_expected_ratio,
    lemma_sweep,
    lp_table_to_csv,
    monte_carlo_ratio,
    reproduce_lp_table,
)
from ranking_forge.engine import run_ranking
from ranking_forge.graphs import (
    SizeLimitError,
    backup_counterexample_graph,
    generate_family,
    graph_to_json,
    maximum_matching_size,
)
from ranking_forge.oracles import (
    ClaimViolation,
    check_insertion_claims,
    check_prefix_agreement,
)
from ranking_forge.ranks import enumerate_rank_vectors, insertion_slots


def test_connected_graph_census():
    # Connected graphs per vertex count: OEIS A001349.
    per_n = Counter(g.n for g in connected_graphs_upto(6))
    assert per_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for g in connected_graphs_upto(4):
        assert g.m_star is not None
        assert len(g.m_star) == maximum_matching_size(g)


def test_connected_graphs_are_pinned():
    # Order, edge sets and designated matchings of the n <= 5 corpus: the
    # sweep's claim counts and corpus names depend on all three.
    text = "\n".join(graph_to_json(g) for g in connected_graphs_upto(5))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c10afaff91e3a50126d254baf5364c65a9b3274a8f112c82d570a78015dcaa7c"
    )


def test_default_corpus_composition():
    names = [c.name for c in default_corpus()]
    assert sum(n.startswith("planted8") for n in names) == 20
    assert {"path4", "cycle6", "complete4", "backup_cex"} <= set(names)
    small = default_corpus(with_random_eight=False)
    assert all(c.graph.n <= 6 for c in small)


def test_exact_ratios():
    assert exact_expected_ratio(generate_family("path", n=4)) == Fraction(7, 8)
    assert exact_expected_ratio(generate_family("complete", n=4)) == 1
    k2 = generate_family("path", n=2)
    assert exact_expected_ratio(k2) == 1


def test_exact_ratio_refuses_more_than_eight_vertices(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated orders past the size cap")

    monkeypatch.setattr(experiments, "matching_sizes", forbidden)
    with pytest.raises(SizeLimitError, match="9 vertices"):
        exact_expected_ratio(generate_family("path", n=9))


def test_exact_ratios_match_the_vertex_iterative_view():
    # The batched kernel against the mean size of the vertex-iterative view,
    # order by order.
    for g in [*connected_graphs_upto(5), backup_counterexample_graph()]:
        if not g.edges:
            continue
        sizes = [
            len(run_ranking(g, list(order), "vertex_iterative").matching)
            for order in permutations(range(g.n))
        ]
        assert exact_expected_ratio(g) == Fraction(
            sum(sizes), len(sizes) * maximum_matching_size(g)
        )


def test_monte_carlo_on_forced_graphs():
    k2 = generate_family("path", n=2)
    est = monte_carlo_ratio(k2, 500, 10, seed=3)
    assert est.mean == 1.0 and est.half_width == 0.0
    k4 = generate_family("complete", n=4)
    est = monte_carlo_ratio(k4, 500, 10, seed=3)
    assert est.mean == 1.0


def test_monte_carlo_matches_exact_within_interval():
    for family, n in (("path", 4), ("appendix_counterexample", 0)):
        g = generate_family(family, n=n)
        exact = float(exact_expected_ratio(g))
        est = monte_carlo_ratio(g, 40000, 10, seed=11)
        assert abs(est.mean - exact) <= 3 * est.half_width


def test_monte_carlo_determinism():
    g = generate_family("random_with_perfect_matching", n=8, density=0.3, seed=2)
    a = monte_carlo_ratio(g, 2000, 10, seed=5)
    b = monte_carlo_ratio(g, 2000, 10, seed=5)
    assert a.mean == b.mean and a.half_width == b.half_width


def test_monte_carlo_determinism_across_partial_blocks():
    g = generate_family("random_with_perfect_matching", n=8, density=0.3, seed=2)
    trials = MC_BLOCK_SLOTS // g.n + 7  # one full block and a partial one
    a = monte_carlo_ratio(g, trials, 10, seed=5)
    b = monte_carlo_ratio(g, trials, 10, seed=5)
    assert a == b and a.trials == trials
    assert monte_carlo_ratio(g, trials, 10, seed=6) != a


@pytest.mark.parametrize("trials, k", [(0, 10), (-3, 10), (100, 0)])
def test_monte_carlo_rejects_bad_inputs(trials, k):
    with pytest.raises(ValueError, match=">= 1"):
        monte_carlo_ratio(generate_family("path", n=4), trials, k, seed=0)


def test_monte_carlo_estimates_are_pinned():
    # mean.hex() and half_width.hex() of planted graphs on 16..24 vertices,
    # across a block boundary (3 000 trials > 2 730 per block at n = 24),
    # as drawn before the single sort key and the word-packed kernel.
    digest = hashlib.sha256()
    for n, density, graph_seed in ((16, 0.3, 1), (20, 0.5, 2), (24, 0.3, 3)):
        g = generate_family(
            "random_with_perfect_matching", n=n, density=density, seed=graph_seed
        )
        for k in (1, 10, 2048):
            for seed in (0, 1, 2):
                est = monte_carlo_ratio(g, 3000, k, seed)
                digest.update(f"{est.mean.hex()} {est.half_width.hex()}\n".encode())
    assert digest.hexdigest() == (
        "e81fa134fbfd0f06bb44f975091952a9594bda8022ad302261a43a539c0c58eb"
    )


@pytest.mark.parametrize("k", [1, 2, 3, 10, 1000, 2048])
def test_sort_keys_are_the_scaled_draws(k):
    # The tie-break is the integer that ``random`` scales by 2**-53, drawn at
    # the same stream position: two consecutive blocks of an odd number of
    # draws each, so a half-used 32-bit buffer carries across blocks.
    for seed in range(50):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for rows in (7, 3):
            expected = reference.integers(0, k, (rows, 5)).view(np.uint64) << np.uint64(53)
            expected |= (reference.random((rows, 5)) * 2.0**53).astype(np.uint64)
            assert np.array_equal(experiments._sort_keys(rng, k, rows, 5), expected)


def test_monte_carlo_bucket_ceiling():
    # The sort key holds the bucket above a 53-bit tie-break in one uint64.
    g = generate_family("path", n=6)
    assert MC_MAX_BUCKETS == 2048
    assert 0 < monte_carlo_ratio(g, 100, 2048, seed=0).mean <= 1
    with pytest.raises(ValueError, match="<= 2048"):
        monte_carlo_ratio(g, 100, 2049, seed=0)


def test_reproduce_records_solver_failures(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 5)
    rows = reproduce_lp_table([1, 4])
    failed = rows[-1]
    assert failed.k == 4 and failed.status == "limit"
    assert math.isnan(failed.alpha)
    assert "limit" in failed.error
    last = lp_table_to_csv(rows).splitlines()[-1].split(",")
    assert last[-2:] == ["limit", failed.error]


def test_reproduce_small_lp_table():
    rows = reproduce_lp_table([1, 2, 3])
    assert [r.k for r in rows] == [1, 2, 3]
    assert rows[0].alpha == pytest.approx(0.5, abs=1e-6)
    assert rows[1].alpha == pytest.approx(0.5, abs=1e-6)
    assert rows[2].alpha == pytest.approx(0.50347, abs=1e-4)
    assert all(r.within_tolerance for r in rows)
    assert all(r.status == "optimal" and r.error is None for r in rows)
    csv = lp_table_to_csv(rows)
    assert csv.splitlines()[0] == "k,alpha,expected,elapsed_s,iterations,status,error"
    assert len(csv.splitlines()) == 4


def test_known_optima_table_is_monotone():
    ks = sorted(KNOWN_OPTIMA)
    vals = [KNOWN_OPTIMA[k] for k in ks]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_small_sweep_is_clean():
    report = lemma_sweep(
        SweepConfig(max_n=3, k=2, with_random_eight=False, audit_max_n=2)
    )
    assert report.ok
    assert report.claims_checked["views-agree"] > 0
    assert report.claims_checked["monotonicity"] > 0
    assert report.claims_checked["equivalence-class"] > 0


def test_benchmark_sweep_claim_counts_are_pinned():
    # The configuration the lemma_sweep benchmark runs: exhaustive over
    # orders up to 4 vertices and rank vectors up to 3, 24 seeded orders for
    # the larger graphs, so every count is exact.
    report = lemma_sweep(
        SweepConfig(
            max_n=3, k=3, exhaustive=True, jobs=1, with_random_eight=False,
            permutation_budget=24, audit_max_n=3,
        )
    )
    assert report.violations == []
    assert report.claims_checked == {
        "views-agree": 759,
        "alt-path-checkpoints": 23895,
        "prefix-agreement": 14964,
        "insertion-claims": 8572,
        "two-coloring": 414,
        "h-bound-audit": 36,
        "backup-is-matched-observed": 0,
        "monotonicity": 384,
        "equivalence-class": 264,
    }
    assert list(report.seconds) == list(SWEEP_STAGES)
    assert all(s > 0 for s in report.seconds.values())
    assert sum(report.seconds.values()) <= report.wall_time
    # One entry per corpus graph, in the order the graphs ran; each graph's
    # time covers its stages.
    corpus = default_corpus(seed=7000, with_random_eight=False)
    assert list(report.graph_seconds) == sorted(c.name for c in corpus)
    assert all(s > 0 for s in report.graph_seconds.values())
    assert sum(report.seconds.values()) <= sum(report.graph_seconds.values())
    assert sum(report.graph_seconds.values()) <= report.wall_time


def test_sweep_parallel_matches_serial():
    config = dict(max_n=3, k=2, with_random_eight=False, audit_max_n=2)
    serial = lemma_sweep(SweepConfig(**config, jobs=1))
    parallel = lemma_sweep(SweepConfig(**config, jobs=2))
    assert serial.claims_checked == parallel.claims_checked
    assert serial.violations == parallel.violations
    assert list(parallel.seconds) == list(SWEEP_STAGES)
    assert list(parallel.graph_seconds) == list(serial.graph_seconds)


def test_sweep_detects_corrupted_engine():
    report = lemma_sweep(
        SweepConfig(
            max_n=3, k=2, with_random_eight=False, audit_max_n=2, corrupt_engine=True
        )
    )
    assert not report.ok
    assert any(v["claim"] == "views-agree-corrupted" for v in report.violations)


def test_sweep_report_serializes():
    report = lemma_sweep(
        SweepConfig(max_n=2, k=2, with_random_eight=False, audit_max_n=2)
    )
    payload = json.loads(report.to_json())
    assert payload["instances_checked"] == report.instances_checked
    assert set(payload["seconds"]) == set(SWEEP_STAGES)
    assert payload["graph_seconds"] == report.graph_seconds


def test_sampled_sweep_runs_every_order_of_a_small_graph(monkeypatch):
    # Without --exhaustive a graph with at most permutation_budget orders
    # gets each of them once; the others get that many seeded draws.
    corpus = default_corpus(seed=7000, with_random_eight=False)
    monkeypatch.setattr(experiments, "default_corpus", lambda **_: corpus)
    seen = {id(c.graph): [] for c in corpus}
    views_agree = experiments.views_agree

    def recorded(g, order):
        seen[id(g)].append(tuple(order))
        return views_agree(g, order)

    monkeypatch.setattr(experiments, "views_agree", recorded)
    config = SweepConfig(exhaustive=False, with_random_eight=False)
    report = lemma_sweep(config)
    budget = config.permutation_budget
    expected = sum(min(math.factorial(c.graph.n), budget) for c in corpus)
    assert report.ok
    assert report.claims_checked["views-agree"] == expected == 2967
    for c in corpus:
        orders = seen[id(c.graph)]
        if math.factorial(c.graph.n) <= budget:
            assert sorted(orders) == list(permutations(range(c.graph.n)))
        else:
            assert len(orders) == budget


def test_every_sweep_stage_failure_reaches_the_report(monkeypatch):
    corpus = default_corpus(seed=7000, with_random_eight=False)
    names = {id(c.graph): c.name for c in corpus}
    monkeypatch.setattr(experiments, "default_corpus", lambda **_: corpus)
    failed = {}  # claim -> the corpus graph its stage failed on

    def fail_once(attr, claim, failure):
        # The first call of the function the sweep runs for a stage fails.
        real = getattr(experiments, attr)

        def stage(g, *args):
            if claim in failed:
                return real(g, *args)
            failed[claim] = names[id(g)]
            return failure(claim, args)

        monkeypatch.setattr(experiments, attr, stage)

    def failing_check(claim, args):
        # The checker cores hand every check to the report they are given,
        # their last argument.
        args[-1].add(claim, "fail")

    def violation(claim, args):
        raise ClaimViolation(claim, {})

    def path_violation(claim, args):
        raise ClaimViolation(claim, {"edges": [[0, 1]], "u_star": 0})

    def coloring_error(claim, args):
        raise RuntimeError("no proper coloring")

    fail_once("views_agree", "views-agree",
              lambda claim, args: SimpleNamespace(agree=False, divergence=None))
    fail_once("_path_sweep", "injected-alternating-path", path_violation)
    fail_once("_prefix_checks", "injected-prefix-agreement", failing_check)
    fail_once("_insertion_checks", "injected-insertion", failing_check)
    fail_once("_monotonicity_checks", "injected-monotonicity", failing_check)
    fail_once("enumerate_equivalence_class", "injected-equivalence-class", violation)
    fail_once("two_coloring", "two-coloring", coloring_error)
    fail_once("audit_h_bounds", "injected-audit", lambda claim, args: [{"claim": claim}])
    report = lemma_sweep(
        SweepConfig(max_n=3, k=2, with_random_eight=False, audit_max_n=2)
    )
    assert len(failed) == 8
    reported = {(v["graph"], v["claim"]) for v in report.violations}
    for claim, graph in failed.items():
        assert (graph, claim) in reported
    # A path witness is recorded flat: its fields sit next to the corpus name.
    (path,) = [v for v in report.violations if v["claim"] == "injected-alternating-path"]
    assert path["graph"] == failed["injected-alternating-path"]
    assert path["edges"] == [[0, 1]] and path["u_star"] == 0


def test_sweep_records_a_failing_check_as_its_public_checker_reports_it(monkeypatch):
    # Every full run loses its final matching.  The sweep hands the runs it
    # reads to the checker cores and records only failures; each one it
    # records must carry exactly the details that the public checker's
    # ClaimReport holds for the same case, in the same order.
    corpus = [
        CorpusGraph("backup_cex", backup_counterexample_graph()),
        CorpusGraph("path4", generate_family("path", n=4)),
    ]
    monkeypatch.setattr(experiments, "default_corpus", lambda **_: corpus)
    real = oracles._replay

    def corrupted(g, order, frozen):
        timeline = real(g, order, frozen)
        if frozen:
            return timeline
        return timeline._replace(matchings=timeline.matchings[:-1] + (frozenset(),))

    monkeypatch.setattr(oracles, "_replay", corrupted)
    monkeypatch.setattr(experiments, "_replay", corrupted)
    expected = []
    for c in corpus:
        g = c.graph
        reports = [
            check_prefix_agreement(g, list(order), v)
            for order in permutations(range(g.n)) for v in range(g.n)
        ]
        for u_star in range(g.n):
            others = [w for w in range(g.n) if w != u_star]
            for vec in enumerate_rank_vectors(others, 1):
                for target in insertion_slots(vec):
                    reports.extend(
                        check_insertion_claims(g, vec, u, u_star, target) for u in others
                    )
        for report in reports:
            expected.extend(
                {"graph": c.name, "claim": f.claim, **f.details} for f in report.failures
            )
    report = lemma_sweep(
        SweepConfig(max_n=4, k=1, with_random_eight=False, audit_max_n=0)
    )
    claims = {v["claim"] for v in expected}
    assert {"prefix-agreement-removed", "insert-after-u"} <= claims
    assert [v for v in report.violations if v["claim"] in claims] == expected
