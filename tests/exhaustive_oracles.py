"""Exhaustive test oracles: independent routes to a maximum matching's size
and to an LP optimum, by enumeration.  Usable only at tiny sizes; each
refuses a larger input before doing any work."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from ranking_forge import simplex
from ranking_forge.graphs import Graph, SizeLimitError, is_matching
from ranking_forge.lpmodel import LpModel

#: Edge cap for the subset-enumeration matching oracle.
BRUTEFORCE_MAX_EDGES = 18

#: Cap on the LP oracle's candidate subsets, and candidates per batch.
BRUTE_FORCE_MAX_SUBSETS = 4_000_000
BRUTE_FORCE_CHUNK = 65536


def matching_size_bruteforce(g: Graph) -> int:
    """Try every subset of edges, keep the largest matching."""
    edges = sorted(g.edges)
    if len(edges) > BRUTEFORCE_MAX_EDGES:
        raise SizeLimitError(f"{len(edges)} edges is too many for subset enumeration")
    best = 0
    for r in range(len(edges), best, -1):
        for subset in combinations(edges, r):
            if is_matching(g, subset):
                return r
    return 0


def brute_force_optimum(model: LpModel) -> float:
    """Exact optimum by enumerating active-constraint subsets.

    Works in the structural-variable space: every vertex of the feasible
    polytope is the solution of n linearly independent active constraints
    drawn from the rows and the variable bounds.  Refuses models with more
    than ``BRUTE_FORCE_MAX_SUBSETS`` such subsets.
    """
    n = len(model.var_names)
    constraints = model.row_count + n + sum(u is not None for u in model.upper)
    subsets = comb(constraints, n)
    if subsets > BRUTE_FORCE_MAX_SUBSETS:
        raise ValueError(
            f"C({constraints}, {n}) = {subsets} candidate subsets exceeds "
            f"the oracle limit {BRUTE_FORCE_MAX_SUBSETS}"
        )
    sf = simplex._standard_form(model)
    A_rows = sf.A[:, :n].toarray()
    b_rows = sf.b
    eq_mask = sf.up[n:] == 0.0
    lo, up, c = sf.lo[:n], sf.up[:n], sf.c[:n]
    unit = np.eye(n)
    G = list(A_rows)
    h = list(b_rows)
    for j in range(n):
        G.append(unit[j])
        h.append(lo[j])
        if np.isfinite(up[j]):
            G.append(unit[j])
            h.append(up[j])
    G = np.asarray(G)
    h = np.asarray(h)

    # Every equality row is active at every feasible point, so at each
    # vertex any independent set of them extends to n independent active
    # constraints: fix one maximal such set and choose the rest among the
    # inequality rows and the bounds.
    fixed: list[int] = []
    for i in np.flatnonzero(eq_mask):
        if np.linalg.matrix_rank(A_rows[fixed + [i]]) > len(fixed):
            fixed.append(int(i))
    others = [i for i in range(len(G)) if i >= len(eq_mask) or not eq_mask[i]]
    combos = combinations(others, n - len(fixed))

    best = -np.inf
    while True:
        batch = [(*fixed, *cmb) for _, cmb in zip(range(BRUTE_FORCE_CHUNK), combos)]
        if not batch:
            break
        idx = np.asarray(batch)
        mats = G[idx]
        rhs_b = h[idx]
        dets = np.abs(np.linalg.det(mats))
        good = dets > 1e-9
        if not np.any(good):
            continue
        sols = np.linalg.solve(mats[good], rhs_b[good][..., None])[..., 0]
        vals = A_rows @ sols.T
        feas = np.all(vals <= b_rows[:, None] + 1e-9, axis=0)
        feas &= np.all(
            np.abs(vals[eq_mask] - b_rows[eq_mask, None]) <= 1e-9, axis=0
        )
        feas &= np.all(sols >= lo[None, :] - 1e-9, axis=1)
        feas &= np.all(sols <= up[None, :] + 1e-9, axis=1)
        if np.any(feas):
            best = max(best, float((sols[feas] @ c).max()))
    if best == -np.inf:
        raise RuntimeError("no feasible vertex found")
    return best
