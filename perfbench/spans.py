"""Spans around calls into the library's public functions, recorded from outside.

A `Tracer` replaces each target function with a wrapper in every
``ranking_forge.*`` namespace that holds it, so calls made through an alias
(``from .engine import matching_for_order`` in ``gains``, ``oracles`` and
``experiments``) are seen too.  Every wrapped call records one span: function
id, start, end, parent span and the workload pass it belongs to (``run_id``,
which the benchmark sets to -1 outside its timed regions).  Spans stay in
flat arrays while the benchmark runs and are written out when it ends.

Per-element helpers (``graphs.edge``, ``ranks.order_of``,
``engine.position_map``, ``gains.h_forms``) are deliberately not targets: they
run millions of times per pass, and wrapping them costs more than the work they
do, which would distort every self time above them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: (layer, function) pairs that get a span.  The layer is the module in
#: ``ranking_forge`` that defines the function.
TARGETS = (
    ("simplex", "solve"),
    ("simplex", "verify_solution"),
    ("lpmodel", "build_lp"),
    ("lpmodel", "evaluate_price_table"),
    ("lpmodel", "write_compact_mps"),
    ("lpmodel", "parse_mps"),
    ("lpmodel", "mps_text"),
    ("engine", "matching_for_order"),
    ("engine", "run_ranking"),
    ("engine", "views_agree"),
    ("engine", "partial_state"),
    ("ranks", "move_vertex"),
    ("ranks", "remove_vertex"),
    ("ranks", "enumerate_rank_vectors"),
    ("oracles", "alternating_path_sweep"),
    ("oracles", "check_prefix_agreement"),
    ("oracles", "check_insertion_claims"),
    ("oracles", "check_monotonicity"),
    ("oracles", "enumerate_equivalence_class"),
    ("oracles", "two_coloring"),
    ("oracles", "compute_profile"),
    ("oracles", "compute_backup"),
    ("gains", "audit_h_bounds"),
    ("gains", "share_gains"),
    ("graphs", "maximum_matching"),
    ("graphs", "generate_family"),
    ("experiments", "monte_carlo_ratio"),
    ("experiments", "connected_graphs_upto"),
    ("experiments", "lemma_sweep"),
)

PACKAGE = "ranking_forge"


class Tracer:
    """Install with ``with Tracer() as tracer:``; leaving restores every
    original binding.  ``clock`` is replaceable so tests can drive time."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.clock = clock
        self.names = [f"{layer}.{fn}" for layer, fn in targets]
        self._targets = targets
        self.calls = [0] * len(targets)
        self.run_id = -1
        self.fid = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for fid, (layer, fn_name) in enumerate(self._targets):
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
            wrapper = self._wrap(fid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fid: int, fn):
        clock = self.clock
        calls, starts, ends, stack = self.calls, self.start, self.end, self._stack
        open_span = self._open
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens at each resume, not at the call, so
            # every resume gets a span of its own.
            def resumes(gen):
                while True:
                    idx = open_span(fid)
                    starts[idx] = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if tracer.run_id >= 0:
                    calls[fid] += 1
                return resumes(fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run_id >= 0:
                calls[fid] += 1
            idx = open_span(fid)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def timed_self_times(self) -> tuple[np.ndarray, float]:
        """Self time per target summed over spans inside timed regions, and
        the summed duration of the top-level ones among them."""
        spans = self.arrays()
        own = self_times(spans["parent"], spans["start"], spans["end"])
        timed = spans["run"] >= 0
        per_function = np.bincount(
            spans["fid"][timed], weights=own[timed], minlength=len(self.names)
        )
        top = timed & (spans["parent"] < 0)
        return per_function, float((spans["end"][top] - spans["start"][top]).sum())


def self_times(parent, start, end) -> np.ndarray:
    """Each span's self time: its duration minus its direct children's.

    Wrapped calls nest strictly, so children never overlap, and the self
    times of a span tree add up to the duration of its root.
    """
    parent = np.asarray(parent)
    duration = np.asarray(end) - np.asarray(start)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - child
