import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from exhaustive_oracles import brute_force_optimum
from ranking_forge import simplex
from ranking_forge.lpmodel import LinRow, LpModel, build_lp, mps_text, parse_mps
from ranking_forge.simplex import (
    OPTIMALITY_TOL,
    SimplexStall,
    VerifyReport,
    _Basis,
    _Core,
    _standard_form,
    parse_solution_text,
    solution_from_values,
    solve,
    verify_solution,
)


def hand_model(var_names, lower, upper, rows, objective_var, k=1):
    return LpModel(
        k=k,
        form="handmade",
        var_names=var_names,
        lower=[Fraction(x) for x in lower],
        upper=[None if u is None else Fraction(u) for u in upper],
        rows=[
            LinRow(name, tuple((j, Fraction(c)) for j, c in coeffs), sense, Fraction(rhs))
            for name, coeffs, sense, rhs in rows
        ],
        objective_var=objective_var,
    )


def budget_model():
    # max z subject to z <= x + y, x + y <= 1, everything in [0, 1].
    return hand_model(
        ["z", "x", "y"],
        [0, 0, 0],
        [2, 1, 1],
        [
            ("cap", [(0, 1), (1, -1), (2, -1)], "L", 0),
            ("budget", [(1, 1), (2, 1)], "L", 1),
        ],
        objective_var=0,
    )


def test_simple_budget_lp():
    s = solve(budget_model())
    assert s.status == "optimal"
    assert s.values["z"] == pytest.approx(1.0)


def test_bound_flip_path():
    # Optimum forces x to its non-default upper bound 0.7.
    m = hand_model(
        ["z", "x"],
        [0, 0],
        [1, Fraction(7, 10)],
        [("cap", [(0, 1), (1, -1)], "L", 0)],
        objective_var=0,
    )
    s = solve(m)
    assert s.values["z"] == pytest.approx(0.7)


def equality_model():
    # max z subject to x - y = 0, z <= x + 1/2, everything in [0, 1].
    return hand_model(
        ["z", "x", "y"],
        [0, 0, 0],
        [2, 1, 1],
        [
            ("split", [(1, 1), (2, -1)], "E", 0),
            ("cap", [(0, 1), (1, -1)], "L", Fraction(1, 2)),
        ],
        objective_var=0,
    )


def pinned_model():
    # max z subject to x = 1/2, z <= x.
    return hand_model(
        ["z", "x"],
        [0, 0],
        [1, 1],
        [
            ("pin", [(1, 1)], "E", Fraction(1, 2)),
            ("cap", [(0, 1), (1, -1)], "L", 0),
        ],
        objective_var=0,
    )


def test_equality_row():
    s = solve(equality_model())
    assert s.status == "optimal"
    assert s.values["z"] == pytest.approx(1.5)
    assert s.values["x"] == pytest.approx(1.0)
    assert s.values["x"] - s.values["y"] == pytest.approx(0.0)


def test_infeasible_detected(monkeypatch):
    # x + y = 3 with x, y in [0, 1]: the start is refused before any pivot.
    m = hand_model(
        ["z", "x", "y"],
        [0, 0, 0],
        [1, 1, 1],
        [("impossible", [(1, 1), (2, 1)], "E", 3)],
        objective_var=0,
    )
    monkeypatch.setattr(_Core, "run", None)
    with pytest.raises(ValueError, match="row 'impossible' is violated at the all-slack start"):
        solve(m)


def test_infeasible_start_of_a_feasible_model_is_rejected(monkeypatch):
    # The model has a feasible point, but not at the all-slack start, and
    # the solver does not search for one.
    monkeypatch.setattr(_Core, "run", None)
    with pytest.raises(ValueError, match="row 'pin' is violated at the all-slack start"):
        solve(pinned_model())


def test_empty_bound_interval_is_rejected(monkeypatch):
    # alpha in [0, -1] holds no point; the solver used to report it optimal
    # at alpha = -1.
    text = mps_text(build_lp(1)).replace(" UP BND alpha 1\n", " UP BND alpha -1\n")
    monkeypatch.setattr(_Core, "run", None)
    with pytest.raises(
        ValueError,
        match=r"column 'alpha' has an empty bound interval: upper bound -1 below lower bound 0",
    ):
        solve(parse_mps(text))


def test_hand_model_round_trips_through_mps():
    m = budget_model()
    text = mps_text(m)
    assert text.startswith("NAME ranking_lp_k1_handmade\n")
    parsed = parse_mps(text)
    assert mps_text(parsed) == text
    assert solve(parsed).alpha == solve(m).alpha


def test_iteration_limit_status(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 5)
    s = solve(build_lp(3))
    assert s.status == "limit"
    assert s.iterations == 5


def test_determinism():
    a = solve(build_lp(3))
    b = solve(build_lp(3))
    assert a.iterations == b.iterations
    assert a.alpha == b.alpha
    assert a.values == b.values


@pytest.mark.parametrize(
    "model",
    [build_lp(4), build_lp(4, "compact"), equality_model()],
    ids=["lp4", "compact4", "equality"],
)
def test_optimal_basis_is_certified_by_fresh_reduced_costs(model):
    # "optimal" must hold on reduced costs computed from scratch for the
    # final basis, not only on the ones the pivots updated in place.
    sf = _standard_form(model)
    core = _Core(sf)
    assert core.run() == "optimal"
    basis = core.B.basis
    y = splu(sf.A[:, basis].tocsc()).solve(sf.c[basis], trans="T")
    d = sf.c - sf.A.T @ y
    tol = OPTIMALITY_TOL
    nonbasic = np.ones(len(sf.c), dtype=bool)
    nonbasic[basis] = False
    eligible = nonbasic & (sf.lo != sf.up) & np.where(core.sgn < 0, d < -tol, d > tol)
    assert not eligible.any(), np.flatnonzero(eligible)


def assert_pivot_state_matches_its_definition(core):
    # The state a pivot updates cell by cell equals what it stands for.
    sf = core.sf
    basis = core.B.basis
    assert np.array_equal(core.loB, sf.lo[basis])
    assert np.array_equal(core.upB, sf.up[basis])
    assert np.array_equal(core.refB, core.reference[basis])
    nonbasic = np.ones(len(sf.c), dtype=bool)
    nonbasic[basis] = False
    movable = sf.lo != sf.up
    assert np.array_equal(core.cand, nonbasic & movable)
    # sgn is +1 on a basic column and -1 exactly where a movable nonbasic
    # one sits at its upper bound.  A fixed column's sign never matters: on
    # the compact form an equality row's slack leaves at its upper bound.
    expected = np.where(nonbasic & (core.x == sf.up), -1.0, 1.0)
    checked = ~nonbasic | movable
    assert np.array_equal(core.sgn[checked], expected[checked])
    x_nonbasic = np.where(nonbasic, core.x, 0.0)
    xB = splu(sf.A[:, basis].tocsc()).solve(sf.b - sf.A @ x_nonbasic)
    assert np.allclose(core.xB, xB, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "form, pivots, factorizations",
    [("substituted", 40, 1), ("substituted", 100, 2), ("compact", 60, 1), ("compact", 100, 2)],
)
def test_pivot_state_mid_run(monkeypatch, form, pivots, factorizations):
    # Stopped before the first refactorization and after one.  On the
    # compact form an equality row's slack leaves at its upper bound at
    # pivots 49 and 73.
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", pivots)
    core = _Core(_standard_form(build_lp(5, form)))
    assert core.run() == "limit"
    assert (core.iterations, core.B.factorizations) == (pivots, factorizations)
    assert (core.sgn < 0).any() == (form == "compact")
    assert_pivot_state_matches_its_definition(core)


def test_pivot_state_after_bound_flips():
    # max z s.t. z - x0 + 2 x1 - x2 <= 2 and 2 x0 - 2 x1 + x2 <= 2, with
    # z in [1, 3], x0 in [1, 2], x1 in [1, 3] and x2 in [0, 1]: the second
    # of the four pivots is a bound flip, and the last one enters a
    # variable from its upper bound.  build_lp(5) has neither, in either
    # form, and all its lower bounds are 0.
    model = hand_model(
        ["z", "x0", "x1", "x2"],
        [1, 1, 1, 0],
        [3, 2, 3, 1],
        [
            ("r0", [(0, 1), (1, -1), (2, 2), (3, -1)], "L", 2),
            ("r1", [(1, 2), (2, -2), (3, 1)], "L", 2),
        ],
        objective_var=0,
    )
    core = _Core(_standard_form(model))
    assert core.run() == "optimal"
    assert (core.iterations, core.bound_flips) == (4, 1)
    assert_pivot_state_matches_its_definition(core)
    assert solve(model).alpha == 2.5


def test_devex_iteration_count():
    # Half the 2 372 iterations that Dantzig pricing needed on this model.
    assert solve(build_lp(6)).iterations <= 1186


def test_eta_file_solves_match_a_fresh_factorization():
    # Scripted basis changes, reusing pivot rows, so the triangular eta
    # solve has off-diagonal terms of both kinds (W[j, R[i]] and the -1 of
    # a repeated row).
    rng = np.random.default_rng(3)
    m = 8
    A = sp.csc_matrix(np.hstack([np.eye(m), rng.standard_normal((m, 12))]))
    basis = _Basis(A, np.arange(m))
    rows = [0, 3, 0, 5, 3, 7, 0]
    for step, r in enumerate(rows):
        e = m + step
        w = basis.ftran(A[:, [e]].toarray().ravel())
        assert abs(w[r]) > 0.1
        basis.replace(r, e, w)
        lu = splu(A[:, basis.basis].tocsc())
        v = rng.standard_normal(m)
        assert np.allclose(basis.ftran(v), lu.solve(v), rtol=0, atol=1e-10)
        for r, e_r in enumerate(np.eye(m)):
            assert np.allclose(basis.btran(r), lu.solve(e_r, trans="T"), rtol=0, atol=1e-10)
    assert basis.count == len(rows) and basis.factorizations == 1


def test_singular_eta_file_stalls():
    # Column 1 replacing basic row 0 repeats a basic column: w[0] = 0.
    basis = _Basis(sp.csc_matrix(np.eye(3)), np.arange(3))
    basis.replace(0, 1, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(SimplexStall, match="singular eta file"):
        basis.ftran(np.ones(3))
    with pytest.raises(SimplexStall, match="singular eta file"):
        basis.btran(0)


#: The optimum for k = 1..8 as the eta-at-a-time product form solved it.
#: Changing how the eta file is applied moves the pivot path (last-bit
#: rounding picks among tied candidates) but must not move the optimum.
ALPHA_BY_K = [
    0.5,
    0.5,
    0.5034722222222221,
    0.5105203619909503,
    0.5162460667086218,
    0.520680162072534,
    0.5242169228182084,
    0.5267380919705564,
]


def test_optimum_is_independent_of_the_eta_arithmetic():
    for k, alpha in enumerate(ALPHA_BY_K, start=1):
        solution = solve(build_lp(k))
        assert solution.status == "optimal"
        assert solution.alpha == pytest.approx(alpha, abs=1e-9), k


#: Per form, for k = 1, 2, ...: a SHA-256 over every variable's name and
#: value.hex(), and the solve's refactorizations, degenerate pivots,
#: bound flips and Bland fallback.  Like SOLVER_PATH (test_lpmodel.py)
#: they follow last-bit rounding, so they hold for one numpy build; a
#: change to the pivot loop that keeps every float's bits keeps them.
VERTEX_DIGESTS = {
    "compact": [
        ("6c3902560ef82fa4bf4aef13d2302c81ec634209070a01398a763781c1fc01bd", 2, 6, 0, False),
        ("a2da863ea6ac30933080187026fbe971251a5baf9f44b2a34a97bdc248544e8d", 2, 26, 0, False),
        ("4724395d6a6c59bafca93007e7daba4a11f96aed781a4dd75ae1919396e10cd5", 3, 71, 0, False),
        ("b2c0ce65109e62c5e4fba1580f2ce0d22f2afce380803cbffcd0e6fcc2c72c44", 5, 172, 0, False),
        ("e738069dc6639e601f890d35363a7558b140f5085952e5a0102d47ece29fd66f", 9, 381, 0, False),
    ],
    "naive": [
        ("26873e22a4d0b6a8cf4c7db91eaf14a6c55e6d7da38977ecccc011c20453a4a8", 2, 6, 0, False),
        ("1675183e57efa87c502308c3be1835e8f8ad1be9883f0a62111764bf5d740a3f", 2, 31, 0, False),
        ("c36162c3e38cb3660d85251e9f9a6bc81dc4d028390b518d64f9a6c5a8eb31c9", 4, 113, 0, False),
    ],
    "substituted": [
        ("3eb1f0fcef49c91efaec87732b46bb064e4510e94228f4be6ad09d66be9149cf", 2, 5, 0, False),
        ("52e6d7f1ac8b3c5bdf9ecbc97277d108990666de639378b07bc0daa82e0f63d8", 2, 15, 0, False),
        ("68dbe05a03dd8483733e9b8b1bb52c390099ff1a62e4e8cb3149323093f0d3b9", 3, 46, 0, False),
        ("2e480abce1881c7eb69ca77a5921d608b37901d1c3fba21fa1f90d51d83a5b89", 4, 87, 0, False),
        ("db66ce2d0ab426ec1b88564ea51a1746911280df41fa0378bae4c72fa312e64a", 8, 265, 0, False),
        ("6c8bbedaefdf38efa4be8f3b0ae6c10243e98883915bedba5888c2f52567c522", 12, 382, 0, False),
    ],
}


def vertex_digest(values):
    h = hashlib.sha256()
    for name, value in sorted(values.items()):
        h.update(f"{name}={value.hex()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("form", sorted(VERTEX_DIGESTS))
def test_optimal_vertex_is_pinned(form):
    keys = ("refactorizations", "degenerate_pivots", "bound_flips", "bland_fallback")
    for k, expected in enumerate(VERTEX_DIGESTS[form], start=1):
        solution = solve(build_lp(k, form))
        got = (vertex_digest(solution.values), *(solution.stats[key] for key in keys))
        assert got == expected, (form, k)


def test_solution_stats(monkeypatch):
    counts = ("refactorizations", "bound_flips", "degenerate_pivots", "bland_fallback")
    a = solve(build_lp(4))
    b = solve(build_lp(4))
    for key in counts[:3]:
        assert type(a.stats[key]) is int
    assert a.stats["refactorizations"] >= 2  # initial and final factorization
    assert a.stats["standardize_s"] >= 0 and a.stats["solve_s"] > 0
    assert a.stats["bland_fallback"] is False
    assert {key: a.stats[key] for key in counts} == {key: b.stats[key] for key in counts}
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    stalled = solve(build_lp(4))
    assert stalled.stats["bland_fallback"] is True
    assert stalled.alpha == pytest.approx(a.alpha, abs=1e-9)


def test_bland_rule_reaches_same_optimum(monkeypatch):
    a = solve(build_lp(2))
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    b = solve(build_lp(2))
    assert b.status == "optimal"
    assert b.stats["bland_fallback"] is True
    assert b.alpha == pytest.approx(a.alpha, abs=1e-9)


def test_verify_solution_passes_on_solver_output():
    m = build_lp(3)
    s = solve(m)
    report = verify_solution(m, s, tol=1e-8)
    assert report.ok
    assert report.max_row_violation <= 1e-8


def test_verify_solution_flags_monotonicity_breach():
    m = build_lp(1)
    values = {name: 0.0 for name in m.var_names}
    values.update({"f_1_1": 0.7, "f_2_1": 0.8, "f_1_2": 1.0, "f_2_2": 1.0})
    report = verify_solution(m, solution_from_values(m, values), tol=1e-8)
    assert not report.ok
    assert report.worst_row == "monB_1_1"  # f(2,1) > f(1,1)
    assert report.max_row_violation == pytest.approx(0.1, abs=1e-12)


def test_verify_solution_requires_complete_assignment():
    m = build_lp(1)
    with pytest.raises(ValueError, match="missing"):
        verify_solution(m, solution_from_values(m, {"f_1_1": 0.5}))


def test_external_solution_needs_the_objective_value():
    # alpha is read off the objective column, as for a solve; it is not
    # silently 0.0.
    m = build_lp(1)
    values = {name: 0.0 for name in m.var_names if name != "alpha"}
    with pytest.raises(ValueError, match="missing a value for variable alpha"):
        solution_from_values(m, values)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_verify_solution_names_a_value_that_is_not_finite(bad):
    m = build_lp(1)
    values = {name: 0.0 for name in m.var_names}
    values["f_2_1"] = bad
    with pytest.raises(ValueError, match="for variable f_2_1 is not finite"):
        verify_solution(m, solution_from_values(m, values))


def _reference_verify(model, solution, tol=1e-8):
    # Every residual in Fraction arithmetic: the reference that the integer
    # residuals of verify_solution must reproduce field for field.
    values = [Fraction(solution.values[name]) for name in model.var_names]
    worst = Fraction(0)
    worst_row = None
    for row in model.rows:
        lhs = sum(Fraction(c) * values[j] for j, c in row.coeffs)
        rhs = Fraction(row.rhs)
        viol = abs(lhs - rhs) if row.sense == "E" else max(Fraction(0), lhs - rhs)
        if viol > worst:
            worst, worst_row = viol, row.name
    bound_viol = Fraction(0)
    for j in range(len(model.var_names)):
        lo, up = Fraction(model.lower[j]), model.upper[j]
        bound_viol = max(bound_viol, lo - values[j])
        if up is not None:
            bound_viol = max(bound_viol, values[j] - Fraction(up))
    gap = abs(values[model.objective_var] - Fraction(solution.alpha))
    ok = max(worst, bound_viol, gap) <= Fraction(tol)
    return VerifyReport(float(worst), float(bound_viol), float(gap), worst_row, ok)


def test_integer_verify_matches_fraction_reference():
    rng = np.random.default_rng(11)
    models = [build_lp(k) for k in range(1, 7)]
    models += [build_lp(k, form) for form in ("naive", "compact") for k in range(1, 4)]
    for model in models:
        solution = solve(model)
        names = list(solution.values)
        assignments = [solution.values]
        for delta in (1e-9, 3e-7):
            signs = rng.choice((-1.0, 1.0), len(names))
            assignments.append(
                {n: solution.values[n] + s * delta for n, s in zip(names, signs)}
            )
        for tiny in (5e-324, 1e-310, -0.0, 1e-300, -1e-300):
            assignments.append(
                {n: tiny if i % 3 == 0 else v for i, (n, v) in enumerate(solution.values.items())}
            )
        for values in assignments:
            for candidate in (
                dataclasses.replace(solution, values=values),
                solution_from_values(model, values),
            ):
                report = verify_solution(model, candidate)
                assert report == _reference_verify(model, candidate), (model.form, model.k)


def test_parse_solution_text():
    text = "alpha = 0.5\nf_1_1=0.25  # comment\n\n# full line comment\n"
    assert parse_solution_text(text) == {"alpha": 0.5, "f_1_1": 0.25}
    with pytest.raises(ValueError):
        parse_solution_text("nonsense")


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
def test_parse_solution_text_rejects_a_value_that_is_not_a_finite_number(raw):
    with pytest.raises(ValueError, match=f"'alpha={raw}' is not a finite number"):
        parse_solution_text(f"f_1_1=0.25\nalpha={raw}\n")


@pytest.mark.parametrize("raw", ["half", "", "0.5.1"])
def test_parse_solution_text_names_the_line_of_a_value_that_is_not_a_number(raw):
    with pytest.raises(ValueError, match=f"'alpha={raw}' is not a finite number"):
        parse_solution_text(f"f_1_1=0.25\nalpha={raw}\n")


def test_parse_solution_text_rejects_a_repeated_name():
    # A second value would silently replace the first.
    with pytest.raises(ValueError, match="variable alpha is given again in 'alpha = 0.7'"):
        parse_solution_text("alpha=0.5\nf_1_1=0.25\nalpha = 0.7\n")


@pytest.mark.parametrize("line", ["=0.5", " = 0.5"])
def test_parse_solution_text_rejects_an_empty_name(line):
    with pytest.raises(ValueError, match=f"no variable name in '{line.strip()}'"):
        parse_solution_text(f"alpha=0.5\n{line}\n")


def test_external_solution_round_trip():
    # Dump a solved assignment as name=value text, read it back, verify.
    m = build_lp(3)
    s = solve(m)
    text = "\n".join(f"{n}={v!r}" for n, v in s.values.items())
    external = solution_from_values(m, parse_solution_text(text))
    report = verify_solution(m, external, tol=1e-8)
    assert report.ok
    assert external.alpha == pytest.approx(0.50347, abs=1e-4)


def test_brute_force_oracle_on_hand_model():
    m = budget_model()
    assert brute_force_optimum(m) == pytest.approx(solve(m).alpha, abs=1e-9)


def test_brute_force_oracle_with_dependent_equality_rows():
    # Each model's equality row appears twice; the oracle keeps one of the
    # pair in every candidate active set and still finds the optimum.
    for model, optimum in ((equality_model(), 1.5), (pinned_model(), 0.5)):
        model.rows.append(dataclasses.replace(model.rows[0], name="again"))
        assert brute_force_optimum(model) == pytest.approx(optimum, abs=1e-12)


def test_brute_force_oracle_on_smallest_lp():
    m = build_lp(1)
    assert brute_force_optimum(m) == pytest.approx(solve(m).alpha, abs=1e-6)


def test_brute_force_oracle_refuses_large_models(monkeypatch):
    # The k = 1 naive and compact forms have more candidate subsets than the
    # substituted form's 3 108 105, and at two buckets the model is far past
    # the oracle's reach; the scipy cross-check below covers those sizes
    # instead.  The refusal comes before any work.
    models = [
        (build_lp(1, "naive"), "C(31, 9) = 20160075 "),
        (build_lp(1, "compact"), "C(30, 11) = 54627300 "),
        (build_lp(2), "oracle limit"),
    ]
    monkeypatch.setattr(simplex, "_standard_form", None)
    for model, message in models:
        with pytest.raises(ValueError, match="oracle limit") as refusal:
            brute_force_optimum(model)
        assert message in str(refusal.value)


def test_scipy_linprog_cross_check():
    # Fully independent solver route over the same model data.
    from scipy.optimize import linprog

    for k in range(1, 7):
        m = build_lp(k)
        n = len(m.var_names)
        c = [0.0] * n
        c[m.objective_var] = -1.0  # scipy minimizes
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row in m.rows:
            dense = [0.0] * n
            for j, coef in row.coeffs:
                dense[j] = float(coef)
            if row.sense == "L":
                a_ub.append(dense)
                b_ub.append(float(row.rhs))
            else:
                a_eq.append(dense)
                b_eq.append(float(row.rhs))
        bounds = [
            (float(lo), None if up is None else float(up))
            for lo, up in zip(m.lower, m.upper)
        ]
        res = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
            method="highs",
        )
        assert res.status == 0
        assert -res.fun == pytest.approx(solve(m).alpha, abs=1e-9)
