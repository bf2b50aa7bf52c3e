"""Importing the package loads no scipy: only the built-in simplex needs it,
and it loads it when a solve starts, before the solve's clock.  The test
process already holds scipy, so the check runs in a fresh interpreter.  The
package's version is held equal to pyproject's here too, and no module but
the engine reaches the engine's order resolver."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ranking_forge

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ranking_forge, ranking_forge.cli
assert not scipy_modules(), ("import", scipy_modules())

from ranking_forge import experiments, graphs, lpmodel, simplex
path = graphs.generate_family("path", n=6)
estimate = experiments.monte_carlo_ratio(path, 200, k=3, seed=1)
assert 0.5 <= estimate.mean <= 1.0, estimate
assert not scipy_modules(), ("monte_carlo_ratio", scipy_modules())

config = experiments.SweepConfig(max_n=2, with_random_eight=False, audit_max_n=2)
report = experiments.lemma_sweep(config)
assert report.ok, report.violations
assert not scipy_modules(), ("lemma_sweep", scipy_modules())

model = lpmodel.build_lp(2)
assert not scipy_modules(), ("build_lp", scipy_modules())

# The first solve loads scipy before its clock starts, so no reading of the
# clock counts the import.
import time
clock = time.perf_counter
loaded_at_reads = []

def checked_clock():
    loaded_at_reads.append("scipy.sparse.linalg" in sys.modules)
    return clock()

time.perf_counter = checked_clock
try:
    solution = simplex.solve(model)
finally:
    time.perf_counter = clock
assert solution.status == "optimal" and abs(solution.alpha - 0.5) < 1e-9, solution
assert loaded_at_reads and all(loaded_at_reads), loaded_at_reads
"""


def test_only_a_solve_loads_scipy():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_package_version_matches_pyproject():
    # A regex, not tomllib: the package supports Python 3.10, which has none.
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert match[1] == ranking_forge.__version__


def test_only_the_engine_reaches_the_order_resolver():
    # Positions have one access path outside the engine: a run's
    # ``order.rank``.  No other module imports or names ``engine._order``.
    offenders = []
    for path in sorted((ROOT / "src" / "ranking_forge").glob("*.py")):
        if path.stem == "engine":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            imported = isinstance(node, ast.ImportFrom) and node.module in (
                "engine", "ranking_forge.engine"
            ) and any(alias.name == "_order" for alias in node.names)
            named = isinstance(node, ast.Attribute) and node.attr == "_order" and (
                isinstance(node.value, ast.Name) and node.value.id == "engine"
            )
            if imported or named:
                offenders.append(path.stem)
    assert offenders == []
