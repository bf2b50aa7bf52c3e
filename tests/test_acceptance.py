"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Heavy by design; run with plain pytest."""

import os
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from ranking_forge.engine import views_agree
from ranking_forge.experiments import (
    KNOWN_OPTIMA,
    SweepConfig,
    default_corpus,
    exact_expected_ratio,
    lemma_sweep,
    monte_carlo_ratio,
)
from ranking_forge.gains import (
    REFERENCE_TABLE_K3,
    REFERENCE_TABLE_K10,
    PriceTable,
    audit_h_bounds,
)
from ranking_forge.graphs import backup_counterexample_graph, generate_family, make_graph
from ranking_forge.lpmodel import (
    build_lp,
    compact_mps_chunks,
    evaluate_price_table,
    parse_mps,
    write_compact_mps,
)
from ranking_forge.ranks import distribution_audit
from ranking_forge.simplex import solve, verify_solution

JOBS = min(4, os.cpu_count() or 1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="session")
def solved_models():
    """Solve k = 1..10 once; criteria 1 and 8 both read from this."""
    out = {}
    start = time.perf_counter()
    for k in range(1, 11):
        model = build_lp(k)
        out[k] = (model, solve(model))
    return out, time.perf_counter() - start


def test_criterion_1_lp_reproduction(solved_models, tmp_path):
    solved, elapsed = solved_models
    worst = 0.0
    for k, (_, solution) in solved.items():
        assert solution.status == "optimal"
        worst = max(worst, abs(solution.alpha - KNOWN_OPTIMA[k]))
    alphas = [solved[k][1].alpha for k in range(1, 11)]
    nondecreasing = all(a <= b + 1e-9 for a, b in zip(alphas, alphas[1:]))
    ok = worst <= 1e-4 and elapsed < 1800 and nondecreasing
    report(
        "1a LP table k=1..10",
        ok,
        f"max deviation {worst:.2e}, nondecreasing in k: {nondecreasing}, "
        f"total solve time {elapsed:.0f}s",
    )

    path = tmp_path / "lp_k100.mps"
    stats = write_compact_mps(100, path)
    head = b""
    with open(path, "rb") as fh:
        head = fh.read(65536)
        fh.seek(-16, os.SEEK_END)
        tail = fh.read()
    well_formed = (
        head.startswith(b"NAME ranking_lp_k100_compact\n")
        and b"OBJSENSE" in head
        and b"ROWS" in head
        and tail.rstrip().endswith(b"ENDATA")
        and stats["lines"] > 10_000_000
    )
    os.remove(path)
    report(
        "1b k=100 export",
        well_formed and stats["elapsed"] < 600,
        f"{stats['lines']} lines, {stats['bytes'] / 1e9:.2f} GB, "
        f"{stats['elapsed']:.0f}s",
    )


def test_criterion_2_price_table_validation():
    a3 = evaluate_price_table(REFERENCE_TABLE_K3).alpha
    a10 = evaluate_price_table(REFERENCE_TABLE_K10).alpha
    ok = abs(a3 - 0.503) <= 2e-3 and abs(a10 - 0.53046) <= 5e-3
    report(
        "2 price-table validation",
        ok,
        f"k=3 table -> {a3:.5f}, k=10 table -> {a10:.5f}",
    )


def test_criterion_3_bucketed_uniformity():
    worst = Fraction(0)
    for n in range(1, 6):
        for k in range(1, 4):
            worst = max(worst, distribution_audit(n, k))
    report("3 bucketed uniformity", worst == 0, f"max deviation {worst} (exact)")


def test_criterion_4_view_equivalence():
    checked = 0
    agree = True
    for item in default_corpus(with_random_eight=False):
        g = item.graph
        if g.n > 6:
            continue
        for perm in permutations(range(g.n)):
            agree &= views_agree(g, list(perm)).agree
            checked += 1
    report("4 view equivalence n<=6", agree, f"{checked} (graph, order) pairs")


def test_criterion_5_structural_lemma_suite():
    rep = lemma_sweep(SweepConfig(max_n=5, k=3, jobs=JOBS))
    observed = rep.claims_checked.get("backup-is-matched-observed", 0)
    ok = rep.ok and observed > 0
    report(
        "5 structural sweep n<=5",
        ok,
        f"{sum(rep.claims_checked.values())} checks, "
        f"{len(rep.violations)} violations, "
        f"matched-backup phenomenon observed {observed} times, "
        f"{rep.wall_time:.0f}s",
    )


def _random_monotone_table(k: int, seed: int) -> PriceTable:
    rng = np.random.default_rng(seed)
    grid = rng.random((k, k))
    grid = np.maximum.accumulate(grid, axis=1)  # increasing in the item index
    grid = np.minimum.accumulate(grid, axis=0)  # decreasing in the buyer index
    return PriceTable(k, grid.tolist())


def test_criterion_6_gain_sharing_soundness():
    k2 = make_graph(2, [(0, 1)], m_star=[(0, 1)])
    p3 = make_graph(3, [(0, 1), (1, 2)], m_star=[(0, 1)])
    p4 = generate_family("path", n=4)
    cex = backup_counterexample_graph()
    cex_plus = make_graph(
        6, list(cex.edges) + [(0, 5)], m_star=[(0, 5), (1, 3)]
    )
    from ranking_forge.graphs import designated_pairs

    pairs = [(g, p.u, p.u_star) for g in (k2, p3, p4) for p in designated_pairs(g)]
    total_audits = 0
    violations = []

    violations += audit_h_bounds(cex_plus, 0, 5, REFERENCE_TABLE_K3)
    total_audits += 1
    for g, u, us in pairs:
        violations += audit_h_bounds(g, u, us, REFERENCE_TABLE_K3)
        total_audits += 1
    for k in (2, 3, 5):
        for trial in range(25):
            table = _random_monotone_table(k, seed=1000 * k + trial)
            for g, u, us in pairs:
                violations += audit_h_bounds(g, u, us, table)
                total_audits += 1
    # The backup-counterexample instance, exhaustively at five buckets.
    violations += audit_h_bounds(cex_plus, 0, 5, _random_monotone_table(5, 77))
    total_audits += 1
    report(
        "6 gain-sharing soundness",
        not violations,
        f"{total_audits} audits (incl. gain-conservation), "
        f"{len(violations)} violations",
    )


def test_criterion_7_statistical_consistency():
    exact = exact_expected_ratio(generate_family("path", n=4))
    ok = exact == Fraction(7, 8)
    bound = KNOWN_OPTIMA[10]
    worst_margin = float("inf")
    for i in range(20):
        g = generate_family(
            "random_with_perfect_matching", n=8, density=0.3, seed=9024 + i
        )
        est = monte_carlo_ratio(g, 100_000, 10, seed=31 * i + 7)
        margin = est.mean - (bound - 3 * est.half_width)
        worst_margin = min(worst_margin, margin)
        ok &= margin >= 0
    report(
        "7 statistical consistency",
        ok,
        f"P4 exact ratio {exact}, worst LP-bound margin {worst_margin:+.4f} "
        f"over 20 graphs x 100k trials",
    )


def test_criterion_8_builder_evaluator_solver_coherence(solved_models):
    solved, _ = solved_models
    worst_eval = 0.0
    verify_ok = True
    for k, (model, solution) in solved.items():
        ev = evaluate_price_table(solution.f_table)
        worst_eval = max(worst_eval, abs(ev.alpha - solution.alpha))
        verify_ok &= verify_solution(model, solution, tol=1e-8).ok
    naive_gap = 0.0
    for k in (1, 2, 3, 4):
        naive_gap = max(
            naive_gap,
            abs(solve(build_lp(k, form="naive")).alpha - solved[k][1].alpha),
        )
    compact = parse_mps("".join(compact_mps_chunks(6)))
    assert compact.form == "compact"
    compact_gap = abs(solve(compact).alpha - solved[6][1].alpha)
    ok = worst_eval <= 1e-6 and verify_ok and naive_gap <= 1e-8 and compact_gap <= 1e-8
    report(
        "8 builder/evaluator/solver coherence",
        ok,
        f"max |evaluate - alpha| {worst_eval:.2e}, residuals <= 1e-8: {verify_ok}, "
        f"naive gap {naive_gap:.2e} (k<=4), compact gap {compact_gap:.2e} (k=6)",
    )
