"""Reproduction harness: Monte Carlo ratio estimation, recovery of the
published LP optima, and the exhaustive structural-property sweep.

The sweep runs every checker from the structural toolbox over a corpus of
small graphs (exhaustively over permutations and bucketed rank vectors) and
aggregates violations; a correct engine produces none.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, islice, permutations
from math import factorial, sqrt
from typing import Iterable, Optional

import numpy as np

from . import ranks, simplex
from .engine import (
    _replay,
    _vertex_iterative,
    matching_for_order,
    matching_sizes,
    views_agree,
)
from .gains import REFERENCE_TABLE_K3, audit_h_bounds
from .graphs import (
    Graph,
    SizeLimitError,
    backup_counterexample_graph,
    designated_pairs,
    edge,
    generate_family,
    make_graph,
    matched_partner,
    maximum_matching,
    maximum_matching_size,
)
from .lpmodel import build_lp
from .oracles import (
    BUYER,
    ClaimViolation,
    _insertion_checks,
    _monotonicity_checks,
    _path_sweep,
    _prefix_checks,
    _roles,
    enumerate_equivalence_class,
    two_coloring,
)
from .ranks import _insertion_range, enumerate_rank_vectors, order_of, remove_vertex

#: Published LP optima by bucket count (5 decimals), for regression checks.
KNOWN_OPTIMA = {
    1: 0.5, 2: 0.5, 3: 0.50347, 4: 0.51052, 5: 0.51625,
    6: 0.52068, 7: 0.52422, 8: 0.52674, 9: 0.52882, 10: 0.53046,
    11: 0.53202, 12: 0.53334, 13: 0.53443, 14: 0.53530, 15: 0.53608,
    16: 0.53687, 17: 0.53755, 18: 0.53812, 19: 0.53863, 20: 0.53910,
    25: 0.54098, 30: 0.54226, 35: 0.54318, 40: 0.54389, 45: 0.54444,
    50: 0.54489, 55: 0.54525, 60: 0.54556, 65: 0.54582, 70: 0.54604,
    75: 0.54624, 80: 0.54641, 85: 0.54656, 90: 0.54669, 95: 0.54681,
    100: 0.54690,
}


def matches_published(k: int, alpha: float) -> Optional[bool]:
    """Whether ``alpha`` matches the published optimum for ``k`` buckets to
    within one unit of the fourth decimal; None when none is published."""
    expected = KNOWN_OPTIMA.get(k)
    if expected is None:
        return None
    return abs(alpha - expected) <= 1e-4


@dataclass
class RatioEstimate:
    mean: float
    trials: int
    half_width: float
    seed: int


#: Vertex slots per block of orders that ``matching_sizes`` takes at once.
MC_BLOCK_SLOTS = 2**16
#: Most vertices ``exact_expected_ratio`` enumerates the n! orders of.
EXACT_RATIO_MAX_N = 8
#: Largest bucket count whose sort key, bucket * 2**53 + tie * 2**53, fits
#: a ``uint64``.
MC_MAX_BUCKETS = 2**11


def _block_rows(n: int) -> int:
    """Orders per block on an ``n``-vertex graph, so memory stays bounded."""
    return max(1, MC_BLOCK_SLOTS // n)


def _sort_keys(rng: np.random.Generator, k: int, rows: int, n: int) -> np.ndarray:
    """One block's ``(rows, n)`` sort keys, bucket * 2**53 + tie-break: a
    uniform bucket in 0..k-1, then the top 53 bits of a raw draw.  For the
    PCG64 generator that ``default_rng`` makes, those bits are the integer
    that ``rng.random`` scales by 2**-53 at the same stream position."""
    key = rng.integers(0, k, (rows, n), dtype=np.uint64) << np.uint64(53)
    key |= rng.bit_generator.random_raw((rows, n)) >> np.uint64(11)
    return key


def _ratio_denominator(g: Graph) -> int:
    """|maximum matching| of ``g``; raises on a graph with no edges."""
    m_star = maximum_matching_size(g)
    if m_star == 0:
        raise ValueError("graph has no edges; the ratio is undefined")
    return m_star


def monte_carlo_ratio(g: Graph, trials: int, k: int, seed: int) -> RatioEstimate:
    """Mean of |matching| / |maximum matching| over seeded bucketed draws.

    Trials are drawn in blocks: per block, every vertex gets a uniform bucket
    in 0..k-1, then a uniform tie-break, and each row is ordered by bucket
    first.  Every k gives a uniform random order; k only selects the random
    stream, and is at most ``MC_MAX_BUCKETS``.  95% half-width by the normal
    approximation on the sample variance.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ranks.check_bucket_count(k)
    if k > MC_MAX_BUCKETS:
        raise ValueError(f"bucket count k must be >= 1 and <= {MC_MAX_BUCKETS}, got {k}")
    m_star = _ratio_denominator(g)
    n = g.n
    block = _block_rows(n)
    rng = np.random.default_rng(seed)
    sizes = np.empty(trials)
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        orders = np.argsort(_sort_keys(rng, k, rows, n), axis=-1)
        sizes[start:start + rows] = matching_sizes(g, orders)
    ratios = sizes / m_star
    mean = float(ratios.mean())
    hw = 0.0
    if trials > 1:
        hw = 1.96 * float(ratios.std(ddof=1)) / sqrt(trials)
    return RatioEstimate(mean, trials, hw, seed)


def exact_expected_ratio(g: Graph) -> Fraction:
    """E|matching| / |maximum matching| by enumerating all vertex orders.

    The orders go through ``matching_sizes`` in blocks, as in
    ``monte_carlo_ratio``.  Past ``EXACT_RATIO_MAX_N`` vertices it raises
    ``SizeLimitError`` at once.
    """
    if g.n > EXACT_RATIO_MAX_N:
        raise SizeLimitError(f"{g.n} vertices, above the exact limit {EXACT_RATIO_MAX_N}")
    m_star = _ratio_denominator(g)
    perms = permutations(range(g.n))
    block = _block_rows(g.n)
    total = 0
    while rows := list(islice(perms, block)):
        total += int(matching_sizes(g, rows).sum())
    return Fraction(total, factorial(g.n) * m_star)


# ---------------------------------------------------------------------------
# LP table reproduction.


@dataclass
class LpTableRow:
    k: int
    alpha: float
    elapsed: float
    iterations: int
    expected: Optional[float]
    #: Solver status ('optimal', 'limit') or 'error' when the solver
    #: stalled; ``error`` says what went wrong for anything but optimal.
    status: str = "optimal"
    error: Optional[str] = None

    @property
    def within_tolerance(self) -> Optional[bool]:
        return matches_published(self.k, self.alpha)


def judge_solve(model) -> tuple[Optional[simplex.LpSolution], str, Optional[str]]:
    """Solve ``model`` and judge the outcome: ``(solution, status, error)``.

    ``error`` is None for an optimal solve and says what went wrong
    otherwise: a numerical stall gives no solution and status 'error', and a
    solve that stops short of optimal keeps its own status.
    """
    try:
        solution = simplex.solve(model)
    except simplex.SimplexStall as exc:
        return None, "error", f"stall: {exc}"
    status, error = solution.status, None
    if status != "optimal":
        error = f"solver stopped with status {status!r} after {solution.iterations} iterations"
    return solution, status, error


def reproduce_lp_table(k_list: Iterable[int]) -> list[LpTableRow]:
    """Solve the factor-revealing LP for each k.

    A solve that ``judge_solve`` finds wanting is recorded as a row with NaN
    alpha, its status and the reason, and the run goes on with the next k.
    Any other exception propagates.
    """
    rows = []
    for k in k_list:
        start = time.perf_counter()
        solution, status, error = judge_solve(build_lp(k))
        alpha = float("nan") if error else solution.alpha
        iters = solution.iterations if solution else 0
        rows.append(
            LpTableRow(
                k, alpha, time.perf_counter() - start, iters, KNOWN_OPTIMA.get(k),
                status, error,
            )
        )
    return rows


def lp_table_to_csv(rows: list[LpTableRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["k", "alpha", "expected", "elapsed_s", "iterations", "status", "error"])
    for r in rows:
        exp = "" if r.expected is None else f"{r.expected:.5f}"
        writer.writerow([
            r.k, f"{r.alpha:.5f}", exp, f"{r.elapsed:.3f}", r.iterations,
            r.status, r.error or "",
        ])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Corpus.


@dataclass(frozen=True)
class CorpusGraph:
    name: str
    graph: Graph


def connected_graphs_upto(max_n: int) -> list[Graph]:
    """All connected graphs on 1..max_n vertices, one per isomorphism class,
    each carrying a designated maximum matching.

    Edge masks are walked in ascending order; the first mask of each class
    marks every relabelling of itself as seen, so each class is met once,
    at its smallest mask, and kept when it is connected.
    """
    result = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        pair_bit = {p: i for i, p in enumerate(pairs)}
        relabel = [
            [pair_bit[edge(perm[u], perm[v])] for u, v in pairs]
            for perm in permutations(range(n))
        ]
        seen = bytearray(1 << len(pairs))
        for mask in range(len(seen)):
            if seen[mask]:
                continue
            bits = [i for i in range(len(pairs)) if mask >> i & 1]
            for image in relabel:
                seen[sum(1 << image[i] for i in bits)] = 1
            edges = [pairs[i] for i in bits]
            if _connected(n, edges):
                g = make_graph(n, edges)
                result.append(make_graph(n, edges, m_star=maximum_matching(g)))
    return result


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def default_corpus(seed: int = 2024, with_random_eight: bool = True) -> list[CorpusGraph]:
    """Connected graphs on <= 5 vertices plus P4, C6, K4, the backup
    counterexample, and twenty seeded planted-matching graphs on 8 vertices."""
    items = [
        CorpusGraph(f"conn{g.n}_{idx:02d}", g)
        for idx, g in enumerate(connected_graphs_upto(5))
    ]
    items.append(CorpusGraph("path4", generate_family("path", n=4)))
    items.append(CorpusGraph("cycle6", generate_family("cycle", n=6)))
    items.append(CorpusGraph("complete4", generate_family("complete", n=4)))
    items.append(CorpusGraph("backup_cex", backup_counterexample_graph()))
    if with_random_eight:
        for i in range(20):
            g = generate_family(
                "random_with_perfect_matching", n=8, density=0.3, seed=seed + i
            )
            items.append(CorpusGraph(f"planted8_{i:02d}", g))
    return items


# ---------------------------------------------------------------------------
# The sweep.


@dataclass
class SweepConfig:
    max_n: int = 5
    k: int = 3
    exhaustive: bool = True
    seed: int = 0
    jobs: int = 1
    with_random_eight: bool = True
    permutation_budget: int = 120  # all n! orders up to this many, else this many draws
    audit_max_n: int = 4  # run in-sweep h-bound audits up to this size
    corrupt_engine: bool = False  # mutation-test mode: must produce violations


#: The sweep's stages, in the order they run on each graph.
SWEEP_STAGES = (
    "views", "alternating-paths", "prefix-agreement", "insertion-claims",
    "coloring", "rank-vector-checks", "audit",
)


@dataclass
class SweepReport:
    corpus: str
    instances_checked: int
    claims_checked: dict[str, int]
    violations: list[dict]
    wall_time: float
    #: Seconds per stage (``SWEEP_STAGES``), summed over graphs and workers.
    seconds: dict[str, float]
    #: Seconds per corpus graph, by graph name, in the order the graphs ran.
    graph_seconds: dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=str)


def lemma_sweep(config: SweepConfig | None = None) -> SweepReport:
    """Run every structural checker over the corpus and collect violations."""
    config = config or SweepConfig()
    start = time.perf_counter()
    corpus = default_corpus(
        seed=config.seed + 7000, with_random_eight=config.with_random_eight
    )
    work = sorted(corpus, key=lambda c: c.name)
    if config.jobs > 1:
        # Imported here: the process pool and multiprocessing cost every
        # import of the package, and only a parallel sweep uses them.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            partials = list(pool.map(_sweep_one, [(config, item) for item in work]))
    else:
        partials = [_sweep_one((config, item)) for item in work]
    claims: dict[str, int] = {}
    violations: list[dict] = []
    instances = 0
    seconds = dict.fromkeys(SWEEP_STAGES, 0.0)
    graph_seconds: dict[str, float] = {}
    for item, (counts, viols, n_inst, stage_s, graph_s) in zip(work, partials):
        graph_seconds[item.name] = graph_s
        instances += n_inst
        violations.extend(viols)
        for key, val in counts.items():
            claims[key] = claims.get(key, 0) + val
        for stage, val in stage_s.items():
            seconds[stage] += val
    return SweepReport(
        corpus=f"{len(work)} graphs (max_n={config.max_n}, k={config.k})",
        instances_checked=instances,
        claims_checked=claims,
        violations=violations,
        wall_time=time.perf_counter() - start,
        seconds=seconds,
        graph_seconds=graph_seconds,
    )


def _sweep_one(
    args,
) -> tuple[dict[str, int], list[dict], int, dict[str, float], float]:
    config, item = args
    start = time.perf_counter()
    g = item.graph
    counts: dict[str, int] = {}
    violations: list[dict] = []
    seconds = dict.fromkeys(SWEEP_STAGES, 0.0)

    def lap(stage):
        # Charge the time since the previous lap to ``stage``.
        nonlocal clock
        now = time.perf_counter()
        seconds[stage] += now - clock
        clock = now

    def bump(key, by=1):
        counts[key] = counts.get(key, 0) + by

    def record(claim, **detail):
        violations.append({"graph": item.name, "claim": claim, **detail})

    n = g.n
    # Every order when there are few enough, or up to max_n + 1 vertices in
    # an exhaustive sweep; seeded draws otherwise.
    if factorial(n) <= config.permutation_budget or (
        config.exhaustive and n <= config.max_n + 1
    ):
        orders = [list(p) for p in permutations(range(n))]
    else:
        rng = np.random.default_rng(config.seed + g.n * 1009 + len(g.edges))
        orders = [
            [int(x) for x in rng.permutation(n)]
            for _ in range(config.permutation_budget)
        ]

    # View equivalence (and the mutation-test arm when enabled).
    clock = time.perf_counter()
    for order in orders:
        report = views_agree(g, order)
        bump("views-agree")
        if not report.agree:
            record("views-agree", order=order, divergence=report.divergence)
        if config.corrupt_engine:
            ref = report.matchings["greedy_probing"]
            corrupted, _ = _vertex_iterative(g, order, frozenset(), latest_first=True)
            if corrupted != ref:
                record("views-agree-corrupted", order=order)
    lap("views")

    # Each order's run and its n runs with one vertex frozen, read once for
    # both checks below.
    alone = [frozenset({x}) for x in range(n)]
    runs = []
    for order in orders:
        full = _replay(g, order, frozenset())
        runs.append((full, [_replay(g, full.order.seq, x) for x in alone]))

    # Alternating paths at every probe boundary, for every removed vertex.
    for full, minus in runs:
        for u_star in range(n):
            try:
                bump("alt-path-checkpoints", _path_sweep(g, u_star, full, minus[u_star]))
            except ClaimViolation as exc:
                record(exc.claim, **exc.payload)
    lap("alternating-paths")

    # Prefix-agreement fact.
    tally = _Tally("prefix-agreement", bump, record)
    for full, minus in runs:
        for v in range(n):
            _prefix_checks(g, v, full, minus[v], tally)
    lap("prefix-agreement")

    if n <= config.max_n + 1 and config.exhaustive:
        _sweep_insertion_claims(g, _Tally("insertion-claims", bump, record))
        lap("insertion-claims")
        _sweep_coloring(g, orders, bump, record)
        lap("coloring")
    if n <= config.max_n and config.exhaustive:
        _sweep_rank_vector_checks(g, config.k, bump, record)
        lap("rank-vector-checks")
    if n <= config.audit_max_n + 1 and config.exhaustive:
        for pair in designated_pairs(g):
            viols = audit_h_bounds(g, pair.u, pair.u_star, REFERENCE_TABLE_K3)
            bump("h-bound-audit")
            for v in viols:
                record(**v)
        lap("audit")
    return counts, violations, len(orders), seconds, time.perf_counter() - start


class _Tally:
    """What the sweep keeps of a ``ClaimReport``: each check it is handed
    counts under ``key``, and only a failure is recorded, with its details."""

    def __init__(self, key, bump, record):
        self.key, self.bump, self.record = key, bump, record

    def add(self, claim, status, **details):
        self.bump(self.key)
        if status == "fail":
            self.record(claim, **details)


def _sweep_insertion_claims(g, tally):
    n = g.n
    for u_star in range(n):
        others = sorted(set(range(n)) - {u_star})
        for vec in enumerate_rank_vectors(others, 1):
            order = order_of(vec)
            roles = [(u, _roles(g, vec, u)) for u in others]
            # k = 1: slot (1, y) puts u_star at the y-th index of the one bucket.
            for y, j in enumerate(_insertion_range(vec, 1), 1):
                run = _replay(g, order[:j] + (u_star,) + order[j:], frozenset())
                for u, u_roles in roles:
                    _insertion_checks(g, vec, u, u_star, (1, y), u_roles, run, tally)


def _sweep_rank_vector_checks(g, k, bump, record):
    n = g.n
    seen_classes: set = set()
    observed_matched_backup = 0
    tally = _Tally("monotonicity", bump, record)
    for vec in enumerate_rank_vectors(range(n), k):
        matching = matching_for_order(g, vec)
        for u in range(n):
            v = matched_partner(matching, u)
            if v is None:
                continue
            key = (u, v, remove_vertex(vec, v))
            if key in seen_classes:
                continue
            seen_classes.add(key)
            _monotonicity_checks(g, vec, u, tally)
            try:
                members, structure = enumerate_equivalence_class(g, vec, u)
                bump("equivalence-class", len(members))
                if structure.backup is not None:
                    bm = matched_partner(matching, structure.backup)
                    if bm is not None:
                        observed_matched_backup += 1
            except ClaimViolation as exc:
                record(exc.claim, **exc.payload)
    bump("backup-is-matched-observed", observed_matched_backup)


def _sweep_coloring(g, orders, bump, record):
    buyer_counts = {v: 0 for v in range(g.n)}
    total = 0
    for order in orders:
        matching = matching_for_order(g, order)
        for coin in (0, 1):
            try:
                chi = two_coloring(g, matching, g.m_star, coin)
            except RuntimeError as exc:
                record("two-coloring", err=str(exc))
                continue
            total += 1
            for v in range(g.n):
                buyer_counts[v] += chi[v] == BUYER
            for e in matching | g.m_star:
                if chi[e[0]] == chi[e[1]]:
                    record("two-coloring-proper", edge=e)
    bump("two-coloring", total)
    for v, cnt in buyer_counts.items():
        if 2 * cnt != total:
            record("two-coloring-marginal", vertex=v, buyer_count=cnt, total=total)
