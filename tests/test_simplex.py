from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from ranking_forge import simplex
from ranking_forge.lpmodel import LinRow, LpModel, build_lp, mps_text, parse_mps
from ranking_forge.simplex import (
    OPTIMALITY_TOL,
    _Core,
    _standard_form,
    brute_force_optimum,
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
    eligible = (
        ~core.in_basis
        & (sf.lo != sf.up)
        & np.where(core.at_upper, d < -tol, d > tol)
    )
    assert not eligible.any(), np.flatnonzero(eligible)


def test_devex_iteration_count():
    # Half the 2 372 iterations that Dantzig pricing needed on this model.
    assert solve(build_lp(6)).iterations <= 1186


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


def test_parse_solution_text():
    text = "alpha = 0.5\nf_1_1=0.25  # comment\n\n# full line comment\n"
    assert parse_solution_text(text) == {"alpha": 0.5, "f_1_1": 0.25}
    with pytest.raises(ValueError):
        parse_solution_text("nonsense")


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


def test_brute_force_oracle_on_smallest_lp():
    m = build_lp(1)
    assert brute_force_optimum(m) == pytest.approx(solve(m).alpha, abs=1e-6)


def test_brute_force_oracle_refuses_large_models():
    # At two buckets the model already has 25 structural variables, past the
    # vertex-enumeration oracle's reach; the scipy cross-check below covers
    # those sizes instead.
    with pytest.raises(ValueError, match="oracle limit"):
        brute_force_optimum(build_lp(2))


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
