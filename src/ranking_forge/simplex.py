"""Self-contained sparse revised simplex for the factor-revealing models.

Bounded-variable primal simplex on the slack-augmented standard form, with
a sparse LU factorization of the basis (refreshed periodically) and
product-form eta updates in between.  One phase from the all-slack basis,
which must be feasible: it is for every model ``build_lp`` makes, and
``solve`` rejects any other.  Devex pricing (Harris 1973),
falling back to Bland's rule after a run of degenerate pivots so
termination is guaranteed.  Each basis change computes the pivot row
e_r^T B^-1 A once and uses it to update both the devex reference weights
and the reduced costs in place; reduced costs are recomputed from the basis
only after a refactorization and before optimality is declared.
Deterministic: identical inputs give identical pivot sequences and
iteration counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, isfinite
from typing import TYPE_CHECKING, Optional

import numpy as np

from .gains import PriceTable
from .lpmodel import LpModel

if TYPE_CHECKING:
    import scipy.sparse as sp

INF = float("inf")


class SimplexStall(RuntimeError):
    """The ratio test found no finite step: the entering variable can grow
    without bound and no basic variable blocks it.  The models ``build_lp``
    makes are bounded, so this means an unbounded input model or numerical
    breakdown; ``reproduce_lp_table`` records it as an error row."""


#: Primal feasibility slack on bounds, and the step length below which a
#: pivot counts as degenerate.
FEASIBILITY_TOL = 1e-9
#: A reduced cost must exceed this to make its variable eligible to enter.
OPTIMALITY_TOL = 1e-9
#: Consecutive degenerate pivots before Bland's rule takes over for the
#: rest of the solve.
STALL_LIMIT = 1000
#: Basis changes between LU refactorizations (each also recomputes the
#: basic values and the reduced costs from scratch).
REFACTOR_EVERY = 64
#: Pivots before the solve stops with status 'limit'.
MAX_ITERATIONS = 200_000


@dataclass
class LpSolution:
    alpha: float
    alpha_i: tuple[float, ...]
    f_table: Optional[PriceTable]
    status: str  # 'optimal' | 'limit'; 'external' for an outside assignment
    iterations: int
    elapsed: float
    values: dict[str, float] = field(repr=False, default_factory=dict)
    #: How the solve went: ``standardize_s``/``solve_s`` seconds, counts of
    #: ``refactorizations``, ``bound_flips`` and ``degenerate_pivots``, and
    #: ``bland_fallback`` (Bland's rule took over after a degenerate stall).
    #: Empty for an externally produced solution.
    stats: dict[str, float | int | bool] = field(repr=False, default_factory=dict)


class _Basis:
    """B = A[:, basis]; solves go through a sparse LU plus an eta file."""

    def __init__(self, A: sp.csc_matrix, basis: np.ndarray):
        self.A = A
        self.m = A.shape[0]
        self.basis = basis
        self.etas: list[tuple[int, np.ndarray]] = []
        self.factorizations = 0
        self.refactor()

    def refactor(self) -> None:
        # Imported here so that importing the package loads no scipy.
        import scipy.sparse.linalg as spla

        B = self.A[:, self.basis].tocsc()
        self.lu = spla.splu(B)
        self.etas.clear()
        self.factorizations += 1

    def ftran(self, v: np.ndarray) -> np.ndarray:
        z = self.lu.solve(v)
        for r, w in self.etas:
            zr = z[r] / w[r]
            if zr != 0.0:
                z = z - zr * w
            z[r] = zr
        return z

    def btran(self, v: np.ndarray) -> np.ndarray:
        y = v.copy()
        for r, w in reversed(self.etas):
            yr = (y[r] - (y @ w - y[r] * w[r])) / w[r]
            y[r] = yr
        return self.lu.solve(y, trans="T")

    def replace(self, row: int, col: int, w: np.ndarray) -> None:
        self.basis[row] = col
        self.etas.append((row, w))


@dataclass
class _StandardForm:
    A: sp.csc_matrix  # m x (n + m), slacks appended
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    n_struct: int


def _standard_form(model: LpModel) -> _StandardForm:
    # Imported here so that importing the package loads no scipy.
    import scipy.sparse as sp

    n = len(model.var_names)
    m = len(model.rows)
    data, rows_idx, cols_idx = [], [], []
    b = np.zeros(m)
    slack_lo = np.zeros(m)
    slack_up = np.full(m, INF)
    for i, row in enumerate(model.rows):
        for j, coef in row.coeffs:
            rows_idx.append(i)
            cols_idx.append(j)
            data.append(float(coef))
        b[i] = float(row.rhs)
        if row.sense == "E":
            slack_up[i] = 0.0
        elif row.sense != "L":
            raise ValueError(f"unsupported row sense {row.sense!r}")
        rows_idx.append(i)
        cols_idx.append(n + i)
        data.append(1.0)
    A = sp.csc_matrix(
        (np.asarray(data), (np.asarray(rows_idx), np.asarray(cols_idx))),
        shape=(m, n + m),
    )
    lo = np.concatenate([np.array([float(x) for x in model.lower]), slack_lo])
    up = np.concatenate(
        [np.array([INF if x is None else float(x) for x in model.upper]), slack_up]
    )
    c = np.zeros(n + m)
    c[model.objective_var] = 1.0
    return _StandardForm(A, b, c, lo, up, n)


class _Core:
    """The basis, the basic values and the pricing state of one solve."""

    def __init__(self, sf: _StandardForm):
        self.sf = sf
        m = sf.A.shape[0]
        total = sf.A.shape[1]
        self.m = m
        self.at_upper = np.zeros(total, dtype=bool)
        self.in_basis = np.zeros(total, dtype=bool)
        basis = np.arange(sf.n_struct, sf.n_struct + m)
        self.in_basis[basis] = True
        self.x = np.where(np.isfinite(sf.lo), sf.lo, 0.0)
        self.B = _Basis(sf.A, basis)
        self.AT = sf.A.T.tocsr()
        self.recompute_basics()
        self.iterations = 0
        self.bound_flips = 0
        self.degenerate_pivots = 0
        # Devex reference weights start at 1, with the nonbasic variables
        # of the start as the reference framework.
        self.weights = np.ones(total)
        self.reference = np.where(self.in_basis, 0.0, 1.0)
        self.degenerate_run = 0
        self.bland = False

    def recompute_basics(self) -> None:
        rhs = self.sf.b - self.sf.A @ np.where(self.in_basis, 0.0, self.x)
        self.x[self.B.basis] = self.B.ftran(rhs)

    def price(self) -> None:
        """Reduced costs from scratch: d = c - A^T B^-T c_B."""
        c = self.sf.c
        y = self.B.btran(c[self.B.basis])
        self.d = c - self.AT @ y
        self.fresh = True

    def run(self) -> str:
        """Maximize the objective from the current basis.

        Devex pricing picks the entering variable by the largest d_j^2 / w_j
        over the reference weights w.  Bland's rule takes over for the rest
        of the run after ``STALL_LIMIT`` degenerate pivots in a row.
        "optimal" is only returned on reduced costs recomputed from the
        basis, never on the in-place updated ones.
        """
        tol = OPTIMALITY_TOL
        # Nonbasic fixed variables (lo == up) can never improve anything.
        movable = self.sf.lo != self.sf.up
        self.price()
        while True:
            if self.iterations >= MAX_ITERATIONS:
                return "limit"
            d = self.d
            eligible = ~self.in_basis & movable & np.where(self.at_upper, d < -tol, d > tol)
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                if self.fresh:
                    return "optimal"
                self.price()
                continue
            if self.bland:
                e = int(idx[0])
            else:
                e = int(idx[np.argmax(d[idx] ** 2 / self.weights[idx])])
            self._step(e)
            self.iterations += 1
            if not self.bland and self.degenerate_run > STALL_LIMIT:
                self.bland = True

    def _step(self, e: int) -> None:
        sf = self.sf
        sign = -1.0 if self.at_upper[e] else 1.0
        lo_e, hi_e = sf.A.indptr[e], sf.A.indptr[e + 1]
        col = np.zeros(self.m)
        col[sf.A.indices[lo_e:hi_e]] = sf.A.data[lo_e:hi_e]
        w = self.B.ftran(col)
        basis = self.B.basis
        xb = self.x[basis]
        step_dir = sign * w
        feas = FEASIBILITY_TOL
        pivot_tol = 1e-10

        # Blocking ratios from basic variables: a basic variable moving down
        # (step_dir > 0) meets its lower bound, one moving up its upper bound
        # (an infinite one gives an infinite ratio).  Whole-array np.where:
        # boolean-mask gathers over rows cost several times more.
        limit = INF
        leave_row = -1
        bound = np.where(step_dir > 0, sf.lo[basis], sf.up[basis])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(np.abs(step_dir) > pivot_tol, (xb - bound) / step_dir, INF)
        ratios = np.maximum(ratios, 0.0)
        if np.any(np.isfinite(ratios)):
            limit = float(ratios.min())
            blockers = np.nonzero(ratios <= limit + feas)[0]
            if self.bland:
                # Smallest variable index among the blockers (Bland).
                leave_row = int(blockers[np.argmin(basis[blockers])])
            else:
                # Largest pivot magnitude for stability.
                leave_row = int(blockers[np.argmax(np.abs(step_dir[blockers]))])

        span = sf.up[e] - sf.lo[e]
        if span <= limit:
            # Bound flip: the entering variable crosses to its other bound.
            if not np.isfinite(span):
                raise SimplexStall("unbounded direction; model must be bounded")
            self.x[basis] = xb - step_dir * span
            self.x[e] = sf.lo[e] if self.at_upper[e] else sf.up[e]
            self.at_upper[e] = ~self.at_upper[e]
            self.bound_flips += 1
            self.degenerate_run = 0 if span > feas else self.degenerate_run + 1
            return
        if leave_row < 0:
            raise SimplexStall("no blocking variable; model must be bounded")
        t = limit
        leaving = int(basis[leave_row])
        self._update_duals(e, leaving, leave_row, w)
        self.x[basis] = xb - step_dir * t
        self.x[e] = (sf.up[e] - t) if self.at_upper[e] else (sf.lo[e] + t)
        # Leaving variable settles on the bound it hit.
        hit_upper = step_dir[leave_row] < 0
        self.x[leaving] = sf.up[leaving] if hit_upper else sf.lo[leaving]
        self.at_upper[leaving] = bool(hit_upper)
        self.in_basis[leaving] = False
        self.in_basis[e] = True
        self.at_upper[e] = False
        self.B.replace(leave_row, e, w)
        if t > feas:
            self.degenerate_run = 0
        else:
            self.degenerate_run += 1
            self.degenerate_pivots += 1
        if len(self.B.etas) >= REFACTOR_EVERY:
            self.B.refactor()
            self.recompute_basics()
            self.price()

    def _update_duals(self, e: int, leaving: int, r: int, w: np.ndarray) -> None:
        """Update reduced costs and devex weights for the pivot on (r, e).

        Both come from the pivot row alpha_r = (e_r^T B^-1) A of the basis
        before the exchange; ``w`` is the entering column B^-1 a_e.
        """
        unit = np.zeros(self.m)
        unit[r] = 1.0
        ratio = self.AT @ self.B.btran(unit) / w[r]
        de = self.d[e]
        self.d -= de * ratio
        self.d[e] = 0.0
        self.d[leaving] = -de / w[r]
        self.fresh = False
        # Devex (Harris 1973): w_j approximates the squared norm of nonbasic
        # j's edge direction restricted to the reference framework.  The
        # entering column gives that norm exactly for e, which floors w_e.
        exact = self.reference[e] + float((w * w) @ self.reference[self.B.basis])
        we = max(self.weights[e], exact)
        np.maximum(self.weights, ratio * ratio * we, out=self.weights)
        self.weights[leaving] = max(we / w[r] ** 2, 1.0)


def solve(model: LpModel) -> LpSolution:
    """Maximize the model's objective variable.

    One devex phase from the all-slack basis.  Raises ``ValueError`` naming
    the first row whose slack that start puts outside its bounds, before
    any pivot.
    """
    # Loaded before the clock, so a process's first solve does not time it.
    import scipy.sparse.linalg  # noqa: F401
    start = time.perf_counter()
    sf = _standard_form(model)
    standardized = time.perf_counter()
    core = _Core(sf)
    basis = core.B.basis
    xb = core.x[basis]
    lo, up = sf.lo[basis], sf.up[basis]
    violated = np.flatnonzero((xb < lo - FEASIBILITY_TOL) | (xb > up + FEASIBILITY_TOL))
    if violated.size:
        r = int(violated[0])
        raise ValueError(
            f"row {model.rows[r].name!r} is violated at the all-slack start: "
            f"slack {xb[r]:g} outside [{lo[r]:g}, {up[r]:g}]"
        )
    status = core.run()
    # One clean refactorization before reading the answer off.
    core.B.refactor()
    core.recompute_basics()
    return _package(model, core, status, start, standardized)


def _package(model, core, status, start, standardized) -> LpSolution:
    solved = time.perf_counter()
    names = model.var_names
    values = {names[j]: float(core.x[j]) for j in range(len(names))}
    alpha = values.get("alpha", float(core.x[model.objective_var]))
    k = model.k
    alpha_i = tuple(values.get(f"alpha_{i}", 0.0) for i in range(1, k + 1))
    f_table = _extract_table(model, values)
    return LpSolution(
        alpha=alpha,
        alpha_i=alpha_i,
        f_table=f_table,
        status=status,
        iterations=core.iterations,
        elapsed=time.perf_counter() - start,
        values=values,
        stats={
            "standardize_s": standardized - start,
            "solve_s": solved - standardized,
            "refactorizations": core.B.factorizations,
            "bound_flips": core.bound_flips,
            "degenerate_pivots": core.degenerate_pivots,
            "bland_fallback": core.bland,
        },
    )


def _extract_table(model: LpModel, values: dict[str, float]) -> Optional[PriceTable]:
    k = model.k
    try:
        rows = [
            [min(1.0, max(0.0, values[f"f_{i}_{j}"])) for j in range(1, k + 2)]
            for i in range(1, k + 2)
        ]
    except KeyError:
        return None
    return PriceTable(k, rows)


# ---------------------------------------------------------------------------
# Verification in exact arithmetic.


@dataclass
class VerifyReport:
    max_row_violation: float
    max_bound_violation: float
    objective_gap: float
    worst_row: Optional[str]
    ok: bool


def verify_solution(model: LpModel, solution: LpSolution, tol: float = 1e-8) -> VerifyReport:
    """Recompute all residuals from the model's exact coefficients.

    Solution values convert to exact rationals, so the only approximation
    left is whatever error the solver itself committed.
    """
    values: list[Fraction] = []
    for name in model.var_names:
        if name not in solution.values:
            raise ValueError(f"solution is missing a value for variable {name}")
        values.append(Fraction(solution.values[name]))
    worst = Fraction(0)
    worst_row = None
    for row in model.rows:
        lhs = sum(Fraction(c) * values[j] for j, c in row.coeffs)
        rhs = Fraction(row.rhs)
        viol = abs(lhs - rhs) if row.sense == "E" else max(Fraction(0), lhs - rhs)
        if viol > worst:
            worst, worst_row = viol, row.name
    bound_viol = Fraction(0)
    for j, name in enumerate(model.var_names):
        lo, up = Fraction(model.lower[j]), model.upper[j]
        bound_viol = max(bound_viol, lo - values[j])
        if up is not None:
            bound_viol = max(bound_viol, values[j] - Fraction(up))
    gap = abs(values[model.objective_var] - Fraction(solution.alpha))
    ok = max(worst, bound_viol, gap) <= Fraction(tol)
    return VerifyReport(float(worst), float(bound_viol), float(gap), worst_row, ok)


def parse_solution_text(text: str) -> dict[str, float]:
    """Read ``name=value`` lines of finite values (external solver output)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, raw = line.partition("=")
        if not _:
            raise ValueError(f"expected 'name=value', got {line!r}")
        try:
            value = float(raw)
        except ValueError:
            value = None
        if value is None or not isfinite(value):
            raise ValueError(f"value in {line!r} is not a finite number")
        values[name.strip()] = value
    return values


def solution_from_values(model: LpModel, values: dict[str, float]) -> LpSolution:
    """Wrap an externally produced assignment for verification."""
    alpha = values.get("alpha", 0.0)
    alpha_i = tuple(values.get(f"alpha_{i}", 0.0) for i in range(1, model.k + 1))
    return LpSolution(
        alpha=alpha,
        alpha_i=alpha_i,
        f_table=_extract_table(model, values),
        status="external",
        iterations=0,
        elapsed=0.0,
        values=values,
    )


# ---------------------------------------------------------------------------
# Tiny-scale oracle: enumerate candidate vertices of the polytope directly.


#: Cap on the oracle's candidate subsets, and candidates per batch.
BRUTE_FORCE_MAX_SUBSETS = 4_000_000
BRUTE_FORCE_CHUNK = 65536


def brute_force_optimum(model: LpModel) -> float:
    """Exact optimum by enumerating active-constraint subsets.

    Works in the structural-variable space: every vertex of the feasible
    polytope is the solution of n linearly independent active constraints
    drawn from the rows and the variable bounds.  Refuses models with more
    than ``BRUTE_FORCE_MAX_SUBSETS`` such subsets.
    """
    n = len(model.var_names)
    constraints = len(model.rows) + n + sum(u is not None for u in model.upper)
    subsets = comb(constraints, n)
    if subsets > BRUTE_FORCE_MAX_SUBSETS:
        raise ValueError(
            f"C({constraints}, {n}) = {subsets} candidate subsets exceeds "
            f"the oracle limit {BRUTE_FORCE_MAX_SUBSETS}"
        )
    sf = _standard_form(model)
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

    best = -INF
    combos = combinations(range(len(G)), n)
    while True:
        batch = [list(cmb) for _, cmb in zip(range(BRUTE_FORCE_CHUNK), combos)]
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
    if best == -INF:
        raise RuntimeError("no feasible vertex found")
    return best
