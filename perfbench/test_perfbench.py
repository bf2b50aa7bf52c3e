"""Tests for the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from ranking_forge import engine, gains, oracles  # noqa: E402
from ranking_forge.gains import REFERENCE_TABLE_K3  # noqa: E402
from ranking_forge.graphs import designated_pairs, generate_family  # noqa: E402
from ranking_forge.ranks import RankVector  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    tracer = spans.Tracer(targets=(("demo", "outer"), ("demo", "inner")), clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 0.5
        traced_inner()
        clock.now += 0.25

    traced_inner = tracer._wrap(1, inner)
    traced_outer = tracer._wrap(0, outer)
    tracer.run_id = 0
    traced_outer()
    tracer.run_id = -1
    traced_outer()  # outside a timed region: recorded, but not counted

    per_function, top_level = tracer.timed_self_times()
    assert per_function.tolist() == [1.75, 4.0]
    assert top_level == 5.75
    assert tracer.calls == [1, 2]


def test_generator_resumes_are_spans_and_one_call():
    tracer = spans.Tracer(targets=(("demo", "numbers"),))

    def numbers():
        yield from range(3)

    tracer.run_id = 0
    assert list(tracer._wrap(0, numbers)()) == [0, 1, 2]
    assert tracer.calls == [1]
    assert len(tracer.start) == 4  # three items and the final StopIteration


def test_aliases_route_matching_calls_through_the_tracer():
    g = generate_family("path", n=4)
    pair = designated_pairs(g)[0]
    vec = RankVector(1, {v: (1, v + 1) for v in range(4)})
    original = engine.matching_for_order
    with spans.Tracer() as tracer:
        assert gains.matching_for_order is oracles.matching_for_order is engine.matching_for_order
        assert engine.matching_for_order is not original
        tracer.run_id = 0
        gains.audit_h_bounds(g, pair.u, pair.u_star, REFERENCE_TABLE_K3, 3)
        oracles.check_monotonicity(g, vec, 0)
    assert gains.matching_for_order is oracles.matching_for_order is original

    spans_ = tracer.arrays()
    fid = tracer.names.index
    parents_of_matching = {
        tracer.names[spans_["fid"][p]]
        for f, p in zip(spans_["fid"], spans_["parent"])
        if f == fid("engine.matching_for_order") and p >= 0
    }
    assert {"gains.audit_h_bounds", "oracles.check_monotonicity"} <= parents_of_matching


def test_monte_carlo_graphs_follow_the_seed_and_pass_their_checks():
    first = workloads.monte_carlo_inputs(1, None)
    second = workloads.monte_carlo_inputs(2, None)
    edges = lambda cases: [g.edges for g, _ in cases]  # noqa: E731
    assert edges(first) != edges(second)
    assert edges(first) == edges(workloads.monte_carlo_inputs(1, None))
    one_per_shape = second[:: workloads.MC_GRAPHS_PER_SHAPE]
    out = workloads.Pass(0)
    workloads.monte_carlo_pass(one_per_shape, 0, out)
    assert [g.n for g, _ in one_per_shape] == [n for n, _ in workloads.MC_SHAPES]
    assert out.attempted == 2 * len(one_per_shape)
    assert out.failures == []
