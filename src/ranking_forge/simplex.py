"""Self-contained sparse revised simplex for the factor-revealing models.

Bounded-variable primal simplex on the slack-augmented standard form, with
a sparse LU factorization of the basis (refreshed periodically) and an eta
file of the basis changes in between, applied to each solve as one
lower-triangular system.  One phase from the all-slack basis,
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
from math import isfinite, lcm
from typing import TYPE_CHECKING, Optional

import numpy as np

from .gains import PriceTable
from .lpmodel import LpModel

if TYPE_CHECKING:
    import scipy.sparse as sp

INF = float("inf")


class SimplexStall(RuntimeError):
    """The ratio test found no finite step: the entering variable can grow
    without bound and no basic variable blocks it; or the eta file's
    triangular system is singular.  The models ``build_lp`` makes are
    bounded, so this means an unbounded input model or numerical breakdown;
    ``reproduce_lp_table`` records it as an error row."""


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
    """B = A[:, basis]; solves go through a sparse LU plus an eta file.

    The eta file holds the ``count`` basis changes since the last
    refactorization: entering column ``W[i]`` = B_i^-1 a (B_i the basis
    before change i) replaced basic row ``R[i]``.  Applying the etas one by
    one is a forward substitution, so ftran and btran apply all of them with
    one lower-triangular solve in ``T``, where ``T[i, i] = W[i, R[i]]`` and
    ``T[i, j] = W[j, R[i]] - [R[j] == R[i]]`` for j < i.
    """

    def __init__(self, A: sp.csc_matrix, basis: np.ndarray):
        # Imported here so that importing the package loads no scipy.
        from scipy.linalg.lapack import dtrtrs

        self.trtrs = dtrtrs
        self.A = A
        self.m = A.shape[0]
        self.basis = basis
        self.W = np.empty((REFACTOR_EVERY, self.m))
        self.R = np.empty(REFACTOR_EVERY, dtype=np.intp)
        # Fortran order: T[:, :count] is the leading block with lda =
        # REFACTOR_EVERY, handed to LAPACK without a copy.
        self.T = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY), order="F")
        self.count = 0
        self.factorizations = 0
        self.refactor()

    def refactor(self) -> None:
        # Imported here so that importing the package loads no scipy.
        import scipy.sparse.linalg as spla

        B = self.A[:, self.basis].tocsc()
        self.lu = spla.splu(B)
        self.count = 0
        self.factorizations += 1

    def _eta_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        t, info = self.trtrs(self.T[:, : self.count], rhs, lower=1, trans=trans)
        if info:
            raise SimplexStall(f"singular eta file (LAPACK dtrtrs info {info})")
        return t

    def ftran(self, v: np.ndarray) -> np.ndarray:
        z = self.lu.solve(v)
        R = self.R[: self.count]
        t = self._eta_solve(z[R], 0)
        z -= t @ self.W[: self.count]
        np.add.at(z, R, t)
        return z

    def btran(self, r: int) -> np.ndarray:
        """Row r of B^-1, B^-T e_r: the solver asks for no other btran.  For
        the unit vector e_r the eta file's right-hand side ``v[R] - W v`` is
        ``[R == r] - W[:, r]``."""
        R = self.R[: self.count]
        s = self._eta_solve((R == r) - self.W[: self.count, r], 1)
        y = np.zeros(self.m)
        y[r] = 1.0
        np.add.at(y, R, s)
        return self.lu.solve(y, trans="T")

    def replace(self, row: int, col: int, w: np.ndarray) -> None:
        i = self.count
        self.basis[row] = col
        self.W[i] = w
        self.R[i] = row
        self.T[i, :i] = self.W[:i, row] - (self.R[:i] == row)
        self.T[i, i] = w[row]
        self.count = i + 1


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
    # The builder and the parser share one Fraction per distinct value, so
    # each coefficient object converts once; the model keeps them all alive,
    # so their ids stay distinct.
    floats: dict[int, float] = {}
    for i, row in enumerate(model.rows):
        for j, coef in row.coeffs:
            rows_idx.append(i)
            cols_idx.append(j)
            value = floats.get(id(coef))
            if value is None:
                value = floats[id(coef)] = float(coef)
            data.append(value)
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
    """The basis, the basic values and the pricing state of one solve.

    The pivot state lives in basis order: ``xB`` holds the basic values and
    ``loB``, ``upB`` and ``refB`` their bounds and devex reference entries,
    row by row, so a pivot updates them at the pivot row instead of
    gathering them from full-length arrays.  The full ``x`` holds the
    nonbasic values; its basic entries are stale until ``solve`` writes
    ``xB`` back.  ``B.basis`` is the only record of which columns are basic,
    and ``sgn`` (-1 at the upper bound, +1 otherwise) the only record of a
    nonbasic column's bound side.  ``cand`` (nonbasic and not fixed) and
    ``sgn`` are kept cell by cell, so pricing tests
    ``cand & (d * sgn > tol)``: negation is exact, so ``-d > tol`` holds
    exactly when ``d < -tol``.
    """

    def __init__(self, sf: _StandardForm):
        self.sf = sf
        m = sf.A.shape[0]
        total = sf.A.shape[1]
        self.m = m
        self.sgn = np.ones(total)
        basis = np.arange(sf.n_struct, sf.n_struct + m)
        # Nonbasic fixed variables (lo == up) can never improve anything.
        self.movable = sf.lo != sf.up
        self.cand = self.movable.copy()
        self.cand[basis] = False
        self.x = np.where(np.isfinite(sf.lo), sf.lo, 0.0)
        self.loB = sf.lo[basis]
        self.upB = sf.up[basis]
        self.B = _Basis(sf.A, basis)
        self.AT = sf.A.T.tocsr()
        self.recompute_basics()
        self.iterations = 0
        self.bound_flips = 0
        self.degenerate_pivots = 0
        # Devex reference weights start at 1, with the nonbasic variables
        # of the start as the reference framework.
        self.weights = np.ones(total)
        self.reference = np.ones(total)
        self.reference[basis] = 0.0
        self.refB = self.reference[basis]
        self.degenerate_run = 0
        self.bland = False

    def recompute_basics(self) -> None:
        x = self.x.copy()
        x[self.B.basis] = 0.0
        self.xB = self.B.ftran(self.sf.b - self.sf.A @ x)

    def price(self) -> None:
        """Reduced costs from scratch: d = c - A^T B^-T c_B.  c is the unit
        vector at the objective column, so c_B is the unit vector at that
        column's basis row, or 0 while the column is nonbasic."""
        c = self.sf.c
        row = np.flatnonzero(c[self.B.basis])
        self.d = c - self.AT @ self.B.btran(int(row[0])) if row.size else c.copy()
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
        self.price()
        # The ratio test divides by pivot entries that np.where then drops.
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                if self.iterations >= MAX_ITERATIONS:
                    return "limit"
                d = self.d
                idx = np.flatnonzero(self.cand & (d * self.sgn > tol))
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
        lo_e, hi_e = sf.A.indptr[e], sf.A.indptr[e + 1]
        col = np.zeros(self.m)
        col[sf.A.indices[lo_e:hi_e]] = sf.A.data[lo_e:hi_e]
        w = self.B.ftran(col)
        from_upper = self.sgn[e] < 0
        step_dir = -w if from_upper else w
        xB = self.xB
        feas = FEASIBILITY_TOL
        pivot_tol = 1e-10

        # Blocking ratios from basic variables: a basic variable moving down
        # (step_dir > 0) meets its lower bound, one moving up its upper bound
        # (an infinite one gives an infinite ratio).  Whole-array np.where:
        # boolean-mask gathers over rows cost several times more.  No ratio
        # is NaN (np.where keeps a quotient only where |step_dir| exceeds
        # pivot_tol, and the lower bounds are finite), so some ratio is
        # finite exactly when the smallest one is.
        leave_row = -1
        bound = np.where(step_dir > 0, self.loB, self.upB)
        ratios = np.where(np.abs(step_dir) > pivot_tol, (xB - bound) / step_dir, INF)
        ratios = np.maximum(ratios, 0.0)
        limit = float(ratios.min())
        if limit < INF:
            blockers = np.nonzero(ratios <= limit + feas)[0]
            if self.bland:
                # Smallest variable index among the blockers (Bland).
                leave_row = int(blockers[np.argmin(self.B.basis[blockers])])
            else:
                # Largest pivot magnitude for stability.
                leave_row = int(blockers[np.argmax(np.abs(step_dir[blockers]))])

        span = sf.up[e] - sf.lo[e]
        if span <= limit:
            # Bound flip: the entering variable crosses to its other bound.
            if not np.isfinite(span):
                raise SimplexStall("unbounded direction; model must be bounded")
            xB -= step_dir * span
            self.x[e] = sf.lo[e] if from_upper else sf.up[e]
            self.sgn[e] = -self.sgn[e]
            self.bound_flips += 1
            self.degenerate_run = 0 if span > feas else self.degenerate_run + 1
            return
        if leave_row < 0:
            raise SimplexStall("no blocking variable; model must be bounded")
        t = limit
        leaving = int(self.B.basis[leave_row])
        self._update_duals(e, leaving, leave_row, w)
        xB -= step_dir * t
        # Leaving variable settles on the bound it hit; the entering one
        # takes its row.
        hit_upper = bool(step_dir[leave_row] < 0)
        self.x[leaving] = self.upB[leave_row] if hit_upper else self.loB[leave_row]
        self.sgn[leaving] = -1.0 if hit_upper else 1.0
        self.cand[leaving] = self.movable[leaving]
        xB[leave_row] = (sf.up[e] - t) if from_upper else (sf.lo[e] + t)
        self.loB[leave_row] = sf.lo[e]
        self.upB[leave_row] = sf.up[e]
        self.refB[leave_row] = self.reference[e]
        self.cand[e] = False
        self.sgn[e] = 1.0
        self.B.replace(leave_row, e, w)
        if t > feas:
            self.degenerate_run = 0
        else:
            self.degenerate_run += 1
            self.degenerate_pivots += 1
        if self.B.count >= REFACTOR_EVERY:
            self.B.refactor()
            self.recompute_basics()
            self.price()

    def _update_duals(self, e: int, leaving: int, r: int, w: np.ndarray) -> None:
        """Update reduced costs and devex weights for the pivot on (r, e).

        Both come from the pivot row alpha_r = (e_r^T B^-1) A of the basis
        before the exchange; ``w`` is the entering column B^-1 a_e.
        """
        ratio = self.AT @ self.B.btran(r) / w[r]
        de = self.d[e]
        self.d -= de * ratio
        self.d[e] = 0.0
        self.d[leaving] = -de / w[r]
        self.fresh = False
        # Devex (Harris 1973): w_j approximates the squared norm of nonbasic
        # j's edge direction restricted to the reference framework.  The
        # entering column gives that norm exactly for e, which floors w_e.
        exact = self.reference[e] + float((w * w) @ self.refB)
        we = max(self.weights[e], exact)
        np.maximum(self.weights, ratio * ratio * we, out=self.weights)
        self.weights[leaving] = max(we / w[r] ** 2, 1.0)


def solve(model: LpModel) -> LpSolution:
    """Maximize the model's objective variable.

    One devex phase from the all-slack basis.  Raises ``ValueError``
    before any pivot, naming the first column whose upper bound is below
    its lower bound, or else the first row whose slack that start puts
    outside its bounds.
    """
    # Loaded before the clock, so a process's first solve does not time it.
    import scipy.sparse.linalg  # noqa: F401
    start = time.perf_counter()
    sf = _standard_form(model)
    standardized = time.perf_counter()
    # A slack's interval, [0, 0] or [0, inf), is never empty.
    empty = np.flatnonzero(sf.up < sf.lo)
    if empty.size:
        j = int(empty[0])
        raise ValueError(
            f"column {model.var_names[j]!r} has an empty bound interval: "
            f"upper bound {sf.up[j]:g} below lower bound {sf.lo[j]:g}"
        )
    core = _Core(sf)
    xb, lo, up = core.xB, core.loB, core.upB
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
    core.x[core.B.basis] = core.xB
    solved = time.perf_counter()
    names = model.var_names
    values = {names[j]: float(core.x[j]) for j in range(len(names))}
    return _solution(
        model, values, status, core.iterations, time.perf_counter() - start,
        {
            "standardize_s": standardized - start,
            "solve_s": solved - standardized,
            "refactorizations": core.B.factorizations,
            "bound_flips": core.bound_flips,
            "degenerate_pivots": core.degenerate_pivots,
            "bland_fallback": core.bland,
        },
    )


def _solution(model, values, status, iterations=0, elapsed=0.0, stats=None) -> LpSolution:
    """Read alpha (the objective column's value), the alpha_i and the price
    table off an assignment of ``model``'s variables."""
    objective = model.var_names[model.objective_var]
    if objective not in values:
        raise ValueError(f"solution is missing a value for variable {objective}")
    return LpSolution(
        alpha=values[objective],
        alpha_i=tuple(values.get(f"alpha_{i}", 0.0) for i in range(1, model.k + 1)),
        f_table=_extract_table(model, values),
        status=status,
        iterations=iterations,
        elapsed=elapsed,
        values=values,
        stats=stats or {},
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
    left is whatever error the solver itself committed.  The residuals are
    Python ints over one common denominator: the lcm of the values'
    denominators (powers of two, for floats) times the lcm of the model's
    coefficient, right-hand side and bound denominators.
    """
    ratios = []
    for name in model.var_names:
        if name not in solution.values:
            raise ValueError(f"solution is missing a value for variable {name}")
        ratios.append(_float_ratio(name, solution.values[name]))
    alpha_num, alpha_den = _float_ratio("alpha", solution.alpha)
    value_den = lcm(alpha_den, *{q for _, q in ratios})
    values = [p * (value_den // q) for p, q in ratios]
    numbers = [c for row in model.rows for _, c in row.coeffs]
    numbers += [row.rhs for row in model.rows] + list(model.lower)
    numbers += [u for u in model.upper if u is not None]
    dens = {x.denominator for x in numbers}
    model_den = lcm(*dens)
    scale = {d: model_den // d for d in dens}

    def scaled(x: Fraction) -> int:
        """x * model_den, for a model number x."""
        return x.numerator * scale[x.denominator]

    # Each residual below is its exact value times model_den * value_den.
    worst = 0
    worst_row = None
    for row in model.rows:
        lhs = sum(c.numerator * scale[c.denominator] * values[j] for j, c in row.coeffs)
        excess = lhs - scaled(row.rhs) * value_den
        viol = abs(excess) if row.sense == "E" else excess
        if viol > worst:
            worst, worst_row = viol, row.name
    bound_viol = 0
    for value, lo, up in zip(values, model.lower, model.upper):
        bound_viol = max(bound_viol, scaled(lo) * value_den - value * model_den)
        if up is not None:
            bound_viol = max(bound_viol, value * model_den - scaled(up) * value_den)
    alpha = alpha_num * (value_den // alpha_den)
    gap = abs(values[model.objective_var] - alpha) * model_den
    maxima = [Fraction(x, model_den * value_den) for x in (worst, bound_viol, gap)]
    ok = max(maxima) <= Fraction(tol)
    return VerifyReport(*map(float, maxima), worst_row, ok)


def _float_ratio(name: str, value: float) -> tuple[int, int]:
    if not isfinite(value):
        raise ValueError(f"solution value {value!r} for variable {name} is not finite")
    return value.as_integer_ratio()


def parse_solution_text(text: str) -> dict[str, float]:
    """Read ``name=value`` lines of finite values (external solver output),
    one line per name."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, raw = line.partition("=")
        if not _:
            raise ValueError(f"expected 'name=value', got {line!r}")
        name = name.strip()
        if not name:
            raise ValueError(f"no variable name in {line!r}")
        if name in values:
            raise ValueError(f"variable {name} is given again in {line!r}")
        try:
            value = float(raw)
        except ValueError:
            value = None
        if value is None or not isfinite(value):
            raise ValueError(f"value in {line!r} is not a finite number")
        values[name] = value
    return values


def solution_from_values(model: LpModel, values: dict[str, float]) -> LpSolution:
    """Wrap an externally produced assignment for verification; raises
    ``ValueError`` when it gives the objective column no value."""
    return _solution(model, values, "external")
