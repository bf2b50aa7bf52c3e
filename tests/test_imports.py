"""Importing the package loads no scipy: only the built-in simplex needs it,
and it loads it when a solve starts.  The test process already holds scipy,
so the check runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

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

solution = simplex.solve(lpmodel.build_lp(2))
assert solution.status == "optimal" and abs(solution.alpha - 0.5) < 1e-9, solution
assert "scipy.sparse.linalg" in sys.modules
"""


def test_only_a_solve_loads_scipy():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
