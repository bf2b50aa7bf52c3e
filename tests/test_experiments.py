import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from ranking_forge import simplex
from ranking_forge.experiments import (
    KNOWN_OPTIMA,
    MC_BLOCK_SLOTS,
    SweepConfig,
    connected_graphs_upto,
    default_corpus,
    exact_expected_ratio,
    lemma_sweep,
    lp_table_to_csv,
    monte_carlo_ratio,
    reproduce_lp_table,
)
from ranking_forge.graphs import generate_family, graph_to_json, maximum_matching_size


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


def test_sweep_parallel_matches_serial():
    config = dict(max_n=3, k=2, with_random_eight=False, audit_max_n=2)
    serial = lemma_sweep(SweepConfig(**config, jobs=1))
    parallel = lemma_sweep(SweepConfig(**config, jobs=2))
    assert serial.claims_checked == parallel.claims_checked
    assert serial.violations == parallel.violations


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
    assert '"instances_checked"' in report.to_json()
