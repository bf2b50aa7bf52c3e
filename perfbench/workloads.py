"""The four benchmark workloads, driven through ranking_forge's public API.

Each workload has ``make_inputs(seed, scratch_dir)``, which builds everything
a run needs (this is the set-up the benchmark times), and ``run_pass(inputs,
index, out)``, which does one pass of fixed work.  Only the library calls are timed;
every correctness check runs outside the timed regions, and each check is one
operation for the attempted/failed counts.  The sizes are scaled so that one
pass takes a few seconds on a 2-core machine and a run holds several passes.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from ranking_forge import experiments, graphs, lpmodel, simplex


class Pass:
    """What one pass did: timed seconds, counters and check outcomes, and
    the reference loop's time around it.

    ``tracer`` (when set) has its ``run_id`` switched on inside timed regions
    and to -1 outside them, so spans from the checks are not mistaken for
    workload time.
    """

    def __init__(self, index: int, tracer=None):
        self.index = index
        self.tracer = tracer
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.ops: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    @contextmanager
    def timed(self, op: str):
        """Time one operation; ``op`` names it, the same way in every pass."""
        if self.tracer is not None:
            self.tracer.run_id = self.index
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.run_id = -1
            self.wall_s += elapsed
            self.ops[op] = self.ops.get(op, 0.0) + elapsed

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def error(self, what: str) -> None:
        """A raised exception is one failed operation; its traceback goes to
        stderr so the run can go on with the next operation."""
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{what} raised")


# ---------------------------------------------------------------------------
# lp_table: the headline reproduction, substituted form, built-in simplex.

LP_KS = range(1, 7)
#: Published LP optima (5 decimals).
PUBLISHED_ALPHA = {1: 0.5, 2: 0.5, 3: 0.50347, 4: 0.51052, 5: 0.51625, 6: 0.52068}


def lp_table_inputs(seed: int, scratch_dir):
    return None


def lp_table_pass(inputs, index: int, out: Pass) -> None:
    for k in LP_KS:
        try:
            with out.timed(f"k={k}"):
                model = lpmodel.build_lp(k)
                solution = simplex.solve(model)
                report = simplex.verify_solution(model, solution, tol=1e-8)
                evaluated = lpmodel.evaluate_price_table(solution.f_table)
        except Exception:
            out.error(f"lp_table k={k}")
            continue
        out.count("simplex.iterations", solution.iterations)
        out.check(solution.status == "optimal", f"k={k} status {solution.status}")
        out.check(
            abs(solution.alpha - PUBLISHED_ALPHA[k]) <= 1e-4,
            f"k={k} alpha {solution.alpha} != {PUBLISHED_ALPHA[k]}",
        )
        out.check(report.ok, f"k={k} verify_solution failed: {report}")
        out.check(
            abs(evaluated.alpha - solution.alpha) <= 1e-6,
            f"k={k} table evaluates to {evaluated.alpha}, solver says {solution.alpha}",
        )


# ---------------------------------------------------------------------------
# lemma_sweep: the matcher and structural stack (engine, ranks, oracles,
# gains).  Exhaustive over orders up to 4 vertices and rank vectors up to 3;
# the 5- and 6-vertex graphs get 24 orders each from the sweep's own fixed
# seed, so the claim counts below are exact.

SWEEP = dict(
    max_n=3, k=3, exhaustive=True, jobs=1, with_random_eight=False,
    permutation_budget=24, audit_max_n=3,
)
RECORDED_CLAIMS = {
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


def lemma_sweep_inputs(seed: int, scratch_dir):
    return experiments.SweepConfig(**SWEEP)


def lemma_sweep_pass(config, index: int, out: Pass) -> None:
    try:
        with out.timed("sweep"):
            report = experiments.lemma_sweep(config)
    except Exception:
        out.error("lemma_sweep")
        return
    out.check(not report.violations, f"{len(report.violations)} violations")
    for family in sorted(set(RECORDED_CLAIMS) | set(report.claims_checked)):
        got = report.claims_checked.get(family)
        out.check(got == RECORDED_CLAIMS.get(family), f"{family}: {got} claims checked")
        out.count(f"experiments.claims.{family}", got or 0)


# ---------------------------------------------------------------------------
# monte_carlo: the inline greedy loop in monte_carlo_ratio plus the
# exponential maximum_matching, which together bypass engine.  The seed picks
# four planted-matching graphs per size and density; throughput depends on
# both.  Every pass runs the same sixteen graphs, so passes are comparable.

MC_SHAPES = ((16, 0.3), (20, 0.3), (24, 0.3), (24, 0.5))
MC_GRAPHS_PER_SHAPE = 4
MC_TRIALS = 10_000
MC_K = 10
#: Published k = 10 optimum: no graph's expected ratio may fall below it.
MC_FLOOR = 0.53046


def monte_carlo_inputs(seed: int, scratch_dir):
    rng = np.random.default_rng(seed)
    cases = []
    for n, density in MC_SHAPES:
        for _ in range(MC_GRAPHS_PER_SHAPE):
            graph_seed, trial_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
            g = graphs.generate_family(
                "random_with_perfect_matching", n=n, density=density, seed=graph_seed
            )
            cases.append((g, trial_seed))
    return cases


def monte_carlo_pass(cases, index: int, out: Pass) -> None:
    for i, (g, trial_seed) in enumerate(cases):
        try:
            with out.timed(f"graph{i}"):
                estimate = experiments.monte_carlo_ratio(g, MC_TRIALS, MC_K, trial_seed)
            if index == 0:
                # Every pass runs the same graphs, so m* is checked once.  The
                # planted perfect matching makes it n/2.
                m_star = graphs.maximum_matching_size(g)
                out.check(m_star == g.n // 2, f"n={g.n}: m* {m_star} != {g.n // 2}")
        except Exception:
            out.error(f"monte_carlo n={g.n}")
            continue
        out.count("experiments.mc_trials", estimate.trials)
        out.check(
            estimate.mean >= MC_FLOOR - 3 * estimate.half_width,
            f"n={g.n}: mean ratio {estimate.mean} below {MC_FLOOR} - 3 * {estimate.half_width}",
        )


# ---------------------------------------------------------------------------
# mps_io: the streaming compact writer and the MPS parser, both on lpmodel.

MPS_WRITE_K = 28
MPS_WRITE_SHA256 = "3cad2fc92dfcaa0073f13911da9368cb92150802736ed97dd8139070babb990a"
MPS_READ_K = 14


def mps_io_inputs(seed: int, scratch_dir):
    return {"path": os.path.join(scratch_dir, f"compact-k{MPS_WRITE_K}-{os.getpid()}.mps")}


def mps_io_pass(inputs, index: int, out: Pass) -> None:
    path = inputs["path"]
    try:
        with out.timed("export"):
            stats = lpmodel.write_compact_mps(MPS_WRITE_K, path)
        with out.timed("parse"):
            model = lpmodel.build_lp(MPS_READ_K, form="compact")
        with out.timed("re-export"):
            text = lpmodel.mps_text(model)
    except Exception:
        out.error("mps_io")
        return
    finally:
        digest = _sha256_and_remove(path)
    if "reference" not in inputs:
        inputs["reference"] = "".join(lpmodel.compact_mps_chunks(MPS_READ_K))
    reference = inputs["reference"]
    out.count("lpmodel.bytes_written", stats["bytes"])
    out.count("lpmodel.bytes_parsed", len(reference))
    out.check(digest == MPS_WRITE_SHA256, f"k={MPS_WRITE_K} file digest {digest}")
    out.check(text == reference, f"k={MPS_READ_K} re-export differs from the writer's text")


def _sha256_and_remove(path) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    os.remove(path)
    return digest.hexdigest()


#: name -> (make_inputs(seed, scratch_dir), run_pass(inputs, index, out))
WORKLOADS = {
    "lp_table": (lp_table_inputs, lp_table_pass),
    "lemma_sweep": (lemma_sweep_inputs, lemma_sweep_pass),
    "monte_carlo": (monte_carlo_inputs, monte_carlo_pass),
    "mps_io": (mps_io_inputs, mps_io_pass),
}
