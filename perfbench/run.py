"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload lp_table --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout of the repository: it imports
``ranking_forge`` from the checkout's ``src/`` and refuses to run without it.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it spends half the time untraced and half with spans around the
library's public functions, and reports the per-layer metrics.  The metric
names and units come from BENCHMARK.json, which sits next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per workload: a BLAS pool would race the interpreter for the
# machine's cores and make pass times depend on whatever else runs there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("lp_table", "lemma_sweep", "monte_carlo", "mps_io")

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
#: Iterations of the reference loop timed beside every pass.
REFERENCE_ITERATIONS = 1_000_000
#: Passes made in each phase even when one pass outlasts the time budget.
MIN_PASSES = 2

SETUP_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
make_inputs, _ = workloads.WORKLOADS[sys.argv[3]]
make_inputs(int(sys.argv[4]), sys.argv[5])
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "ranking_forge" / "__init__.py").is_file():
        print(f"perfbench: no ranking_forge package under {SRC}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ranking_forge

    if not Path(ranking_forge.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {ranking_forge.__file__}, not the checkout", file=sys.stderr)
        return 1
    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    make_inputs, run_pass = workloads.WORKLOADS[args.workload]

    setup_samples: list[float] = []
    inputs = make_inputs(args.seed, str(OUT_DIR))

    if args.trace:
        budget = args.seconds / 2
        untraced = run_passes(workloads.Pass, run_pass, inputs, budget)
        with spans.Tracer() as tracer:
            traced = run_passes(workloads.Pass, run_pass, inputs, budget, tracer)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        values = layer_metrics(tracer, untraced, traced, workloads.RECORDED_CLAIMS)
        section = "per_layer"
    else:
        traced = []

        def sample_setup():
            # Spread over the run, so the median sees more than one moment
            # of the machine's load.
            if len(setup_samples) < SETUP_REPEATS:
                setup_samples.append(time_setup(args))

        untraced = run_passes(workloads.Pass, run_pass, inputs, args.seconds, between=sample_setup)
        while len(setup_samples) < SETUP_REPEATS:
            sample_setup()
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_per_ref": statistics.median(p.wall_s / p.reference_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    detail = {
        "provenance": provenance(args, len(setup_samples), len(untraced), len(traced)),
        "setup_s": setup_samples,
        "untraced_pass_s": [p.wall_s for p in untraced],
        "untraced_reference_s": [p.reference_s for p in untraced],
        "traced_pass_s": [p.wall_s for p in traced],
    }
    print(json.dumps(detail))
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def time_setup(args) -> float:
    """Seconds for a fresh interpreter to import the package and build the
    workload's inputs, interpreter start and exit included."""
    cmd = [
        sys.executable, "-c", SETUP_CODE,
        str(SRC), str(BENCH_DIR), args.workload, str(args.seed), str(OUT_DIR),
    ]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that calls no library code.

    On a shared host, speed can drift by up to 2x over minutes as other
    tenants' load comes and goes, and the drift slows this loop and the
    library alike.  Dividing a pass by the loop timed around it cancels most
    of it (see README.md for the measurements).
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def run_passes(make_pass, run_pass, inputs, budget: float, tracer=None, between=None) -> list:
    """Repeat passes while the next one is expected to end within ``budget``
    seconds, timing the reference loop before and after each.  Both phases of
    a traced run start at pass 0, so they see the same inputs."""
    passes = []
    start = time.perf_counter()
    before = reference_s()
    while True:
        if between is not None:
            between()
        out = make_pass(len(passes), tracer)
        run_pass(inputs, out.index, out)
        after = reference_s()
        out.reference_s = (before + after) / 2
        before = after
        passes.append(out)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def layer_metrics(tracer, untraced, traced, claim_families) -> dict[str, float]:
    """Per-pass means over the traced passes, plus throughputs from the
    untraced ones.  Spans outside the timed regions (the checks) are left out,
    so the self times plus ``trace.unattributed_s`` add up to
    ``trace.wall_s``."""
    per_function, top_total = tracer.timed_self_times()
    n = len(traced)
    values: dict[str, float] = {}
    for fid, name in enumerate(tracer.names):
        layer = f"{name.split('.')[0]}.self_s"
        values[f"{name}.calls"] = tracer.calls[fid] / n
        values[f"{name}.self_s"] = float(per_function[fid]) / n
        values[layer] = values.get(layer, 0.0) + values[f"{name}.self_s"]

    def per_pass(passes, counter):
        return sum(p.counts.get(counter, 0) for p in passes) / len(passes)

    for counter in ("simplex.iterations", "lpmodel.bytes_written", "lpmodel.bytes_parsed"):
        values[counter] = per_pass(traced, counter)
    for family in claim_families:
        counter = f"experiments.claims.{family}"
        values[counter] = per_pass(traced, counter)

    def rate(counter, op=None, scale=1.0):
        seconds = sum(p.ops.get(op, 0.0) if op else p.wall_s for p in untraced)
        done = sum(p.counts.get(counter, 0) for p in untraced)
        return done / scale / seconds if done else 0.0

    values["lpmodel.export_mb_per_s"] = rate("lpmodel.bytes_written", "export", 1e6)
    values["lpmodel.parse_mb_per_s"] = rate("lpmodel.bytes_parsed", "parse", 1e6)
    values["experiments.mc_trials_per_s"] = rate("experiments.mc_trials")

    values["trace.wall_s"] = statistics.fmean(p.wall_s for p in traced)
    values["trace.unattributed_s"] = values["trace.wall_s"] - top_total / n
    # Medians, as for wall_s, so one disturbed pass does not pass for
    # tracing overhead.
    values["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in untraced)
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - values["trace.untraced_wall_s"]
    )
    return values


def provenance(args, setup_repeats: int, untraced: int, traced: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": setup_repeats,
        "untraced_passes": untraced,
        "traced_passes": traced,
        "commit": git_commit(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout is a plain copy.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30, stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
