import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from ranking_forge import lpmodel
from ranking_forge.gains import (
    REFERENCE_TABLE_K3,
    REFERENCE_TABLE_K10,
    H_value,
    PriceTable,
    h_forms,
)
from ranking_forge.lpmodel import (
    FORMS,
    build_lp,
    compact_mps_chunks,
    evaluate_price_table,
    export_mps,
    mps_text,
    parse_mps,
    write_compact_mps,
)
from ranking_forge.oracles import ClassLabel
from ranking_forge.simplex import solve, verify_solution


def test_build_rejects_zero_buckets():
    with pytest.raises(ValueError):
        build_lp(0)


def test_counts_match_quantifier_formulas_for_two_buckets():
    m = build_lp(2)
    counts = Counter(name.split("_")[0] for name in m.var_names)
    # Price entries over the padded 3x3 domain.
    assert counts["f"] == 9
    # One alpha per bucket plus the average.
    assert counts["alpha"] == 3
    # Min-case tuples: (i, xv <= i, xus <= i) and the backup variants with
    # xb in xv+1..k+1.
    assert counts["hs"] == 5
    assert counts["hb"] == 8
    assert len(m.var_names) == 25
    # Rows: 12 monotonicity, 2 arms per min tuple, and per bucket the three
    # families contribute 1 + 2 + 3 averaging rows, plus the tie row.
    mono = sum(1 for r in m.rows if r.name.startswith("mon"))
    arms = sum(1 for r in m.rows if r.name.startswith(("hs_", "hb_")))
    averaging = sum(1 for r in m.rows if r.name.startswith(("abot_", "as_", "ab_")))
    assert mono == 2 * 2 * 3
    assert arms == 2 * (5 + 8)
    assert averaging == 2 * (1 + 2 + 3)
    assert m.row_count == mono + arms + averaging + 1


def test_small_optima_match_published_values():
    assert solve(build_lp(1)).alpha == pytest.approx(0.5, abs=1e-6)
    assert solve(build_lp(2)).alpha == pytest.approx(0.5, abs=1e-6)
    assert solve(build_lp(3)).alpha == pytest.approx(0.50347, abs=1e-4)


def test_naive_and_substituted_forms_agree():
    for k in (1, 2, 3):
        a = solve(build_lp(k)).alpha
        b = solve(build_lp(k, form="naive")).alpha
        assert b == pytest.approx(a, abs=1e-9)


# SHA-256 of the direct forms' MPS text: both forms come from one walk over
# the h cases, and any change to it must keep names, order and coefficients.
DIRECT_FORM_SHA256 = {
    ("substituted", 3): "c781cabe1beb3b3045a9618c9aec8fd14039421c54768e34fc2744171fe47fd9",
    ("substituted", 5): "48bb6f1eb31e39ffb63f272bd67c74e30a5324337f7b61691e0a6566d7f4c4e7",
    ("substituted", 7): "4dd5b4d930e46e3522aa3609b0eb6a215874883cf5a324717050b7e8c5cc080a",
    ("naive", 3): "175bf8c61374e90a36893fede7987c672ff45acb44fb8c98ab4792560d5054d2",
    ("naive", 5): "05c183cbe83653f1ed29640a982bb70091e2d5d7c51cdc0b2fb74186a92bb95d",
    ("naive", 7): "af66019f3cfcf1aa6b34300aab073a4aa33f6f1720b570508082eef7c7bd8005",
}


@pytest.mark.parametrize("form, k", sorted(DIRECT_FORM_SHA256))
def test_direct_form_text_is_pinned(form, k):
    text = mps_text(build_lp(k, form))
    assert hashlib.sha256(text.encode()).hexdigest() == DIRECT_FORM_SHA256[form, k]


# SHA-256 over ``repr(h_forms(*case))`` for every case of k = 1..12, forms,
# term order and arm order alike.  The direct-form pins stop at k = 7, and the
# compact pins never ask h_forms about a single-arm case.
H_FORMS_SHA256 = "01b49ebd6d95c0b776d149cec4696afe77255a9fe587672838fe077aa660e3d7"


def test_h_forms_are_pinned():
    digest = hashlib.sha256()
    for k in range(1, 13):
        for case in lpmodel._h_cases(k):
            digest.update(repr(h_forms(*case)).encode())
    assert digest.hexdigest() == H_FORMS_SHA256


def test_substituted_min_cases_match_compact(monkeypatch):
    # The compact writer and builder hard-code the min-case set; the
    # substituted builder takes it from the cases whose h_forms has two arms.
    # All must give the same auxiliary variables, and the compact builder
    # asks h_forms about no other case.
    def aux(model):
        return [n for n in model.var_names if n.startswith(("hs_", "hb_"))]

    arm_counts = []

    def counted(*case):
        arms = h_forms(*case)
        arm_counts.append(len(arms))
        return arms

    for k in range(1, 7):
        two_arm = [c for c in lpmodel._h_cases(k) if len(h_forms(*c)) == 2]
        assert list(lpmodel._two_arm_cases(k)) == two_arm
        streamed = parse_mps("".join(compact_mps_chunks(k)))
        with monkeypatch.context() as patch:
            patch.setattr(lpmodel, "h_forms", counted)
            compact = build_lp(k, "compact")
        assert arm_counts == [2] * len(two_arm)
        arm_counts.clear()
        assert aux(build_lp(k)) == aux(compact) == aux(streamed)


def test_compact_form_same_optimum_and_byte_stable():
    for k in range(1, 9):
        stream = "".join(compact_mps_chunks(k))
        model = parse_mps(stream)
        assert model.form == "compact"
        assert mps_text(model) == stream
        if k <= 3:
            assert solve(model).alpha == pytest.approx(
                solve(build_lp(k)).alpha, abs=1e-9
            )


# SHA-256 of the compact stream for a few bucket counts: external solvers read
# these files, so any change to the writer must keep their bytes.
COMPACT_STREAM_SHA256 = {
    4: "138952a03ac35e265af73ff42d6777cd8e7e7dcc85233cd5527f3f172daa6a2c",
    7: "49ba8903809afb319b88baf838d3c7a9c1478e69516d2017026bad3864d7cddc",
    10: "06a99f3044e6b2a9b9c27b69c6f13446506b2b4e48e47093ea03cc11d966adf9",
    14: "60e43f3a1b685d13d8d22126621e0f49c4e083dcd0035b5fe903c5197c50291b",
    20: "5cf5fe3cc8e0ecbe58209e3e8462c0e415c473a55c44f838086baa8c923ae82e",
    28: "3cad2fc92dfcaa0073f13911da9368cb92150802736ed97dd8139070babb990a",
}


@pytest.mark.parametrize("k", sorted(COMPACT_STREAM_SHA256))
def test_compact_stream_is_pinned(k):
    # The writer and the in-memory builder are two sources of the same bytes;
    # test_compact_builder_matches_writer holds them equal up to k = 15, so
    # past it only the writer's stream is hashed.
    texts = ["".join(compact_mps_chunks(k))]
    if k <= 15:
        texts.append(mps_text(build_lp(k, "compact")))
    for text in texts:
        assert hashlib.sha256(text.encode()).hexdigest() == COMPACT_STREAM_SHA256[k]


def test_writer_is_not_generated_from_the_builder(monkeypatch):
    # The writer is the builder's independent second source: it must make its
    # bytes without the builder or the case table the builder reads.
    def forbidden(*args, **kwargs):
        raise AssertionError("the compact writer went through the builder")

    monkeypatch.setattr(lpmodel, "_build", forbidden)
    monkeypatch.setattr(lpmodel, "h_forms", forbidden)
    for k in (4, 10, 20):
        text = "".join(compact_mps_chunks(k))
        assert hashlib.sha256(text.encode()).hexdigest() == COMPACT_STREAM_SHA256[k]


@pytest.mark.parametrize("k", range(1, 16))
def test_compact_builder_matches_writer(k):
    assert mps_text(build_lp(k, "compact")) == "".join(compact_mps_chunks(k))


def test_compact_builder_matches_parsed_stream():
    for k in range(1, 9):
        built = build_lp(k, "compact")
        parsed = parse_mps("".join(compact_mps_chunks(k)))
        assert (built.k, built.form) == (parsed.k, parsed.form)
        assert built.var_names == parsed.var_names
        assert built.objective_var == parsed.objective_var
        assert built.lower == parsed.lower and built.upper == parsed.upper
        assert [(r.name, r.sense, r.rhs) for r in built.rows] == [
            (r.name, r.sense, r.rhs) for r in parsed.rows
        ]
        assert [[(j, float(c)) for j, c in r.coeffs] for r in built.rows] == [
            [(j, float(c)) for j, c in r.coeffs] for r in parsed.rows
        ]


def test_compact_build_goes_through_no_mps_text(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("build_lp(k, 'compact') went through MPS text")

    stream = "".join(compact_mps_chunks(3))
    monkeypatch.setattr(lpmodel, "parse_mps", forbidden)
    monkeypatch.setattr(lpmodel, "compact_mps_chunks", forbidden)
    assert mps_text(build_lp(3, "compact")) == stream


@pytest.mark.parametrize("k", [3, 7, 14])
def test_compact_model_is_exact(k):
    # Parsing rounds -1/k through a float; the builder keeps it exact.
    model = build_lp(k, "compact")
    by_name = {r.name: r for r in model.rows}
    rows = [by_name["aavg"]] + [by_name[f"abot_{i}"] for i in range(1, k + 1)]
    averaged = {"aavg": "alpha_", "abot": "Fp_"}
    for row in rows:
        prefix = averaged[row.name.split("_")[0]]
        coefs = [c for j, c in row.coeffs if model.var_names[j].startswith(prefix)]
        assert coefs and all(c == Fraction(-1, k) for c in coefs)


def test_compact_solutions_verify():
    for k in range(1, 7):
        model = build_lp(k, "compact")
        assert verify_solution(model, solve(model), tol=1e-8).ok


# Iterations and the bits of alpha pin the solver's path on each form: a
# change to how a model is built must hand the solver the same floats in the
# same order.  The counts follow last-bit rounding of the pricing, so they
# hold for one numpy build.
SOLVER_PATH = {
    "compact": [
        (7, "0x1.0000000000000p-1"),
        (28, "0x1.0000000000000p-1"),
        (81, "0x1.01c71c71c71c6p-1"),
        (202, "0x1.0562ecc562eccp-1"),
        (470, "0x1.0851678a67822p-1"),
        (851, "0x1.0a9697178e164p-1"),
        (1367, "0x1.0c6629170725ep-1"),
    ],
    "substituted": [
        (6, "0x1.0000000000000p-1"),
        (21, "0x1.0000000000000p-1"),
        (66, "0x1.01c71c71c71c6p-1"),
        (145, "0x1.0562ecc562eccp-1"),
        (398, "0x1.0851678a67822p-1"),
        (656, "0x1.0a9697178e163p-1"),
    ],
}


@pytest.mark.parametrize("form", sorted(SOLVER_PATH))
def test_solver_path_is_pinned(form):
    for k, (iterations, alpha) in enumerate(SOLVER_PATH[form], start=1):
        solution = solve(build_lp(k, form))
        assert (solution.iterations, solution.alpha.hex()) == (iterations, alpha), k


def test_compact_chunks_stay_bounded():
    # A chunk is one section part, column or (i, xv) block, so streaming
    # stays bounded even where a column is hundreds of KB (k = 100).
    assert max(len(chunk) for chunk in compact_mps_chunks(28)) <= 8 * 2**20


def test_export_parse_round_trip(tmp_path):
    for k in (1, 3):
        m = build_lp(k)
        path = tmp_path / f"model_{k}.mps"
        export_mps(m, path)
        m2 = parse_mps(path)
        assert m2.var_names == m.var_names
        assert [r.name for r in m2.rows] == [r.name for r in m.rows]
        for r1, r2 in zip(m.rows, m2.rows):
            assert r1.sense == r2.sense
            assert float(r1.rhs) == float(r2.rhs)
            assert [(j, float(c)) for j, c in r1.coeffs] == [
                (j, float(c)) for j, c in r2.coeffs
            ]
        assert [float(x) for x in m.lower] == [float(x) for x in m2.lower]
        assert [x if x is None else float(x) for x in m.upper] == [
            x if x is None else float(x) for x in m2.upper
        ]
        # Re-export is byte-identical.
        assert mps_text(m2) == path.read_text()


def test_write_compact_matches_chunks(tmp_path):
    path = tmp_path / "compact2.mps"
    stats = write_compact_mps(2, path)
    assert path.read_text() == "".join(compact_mps_chunks(2))
    assert stats["lines"] == path.read_text().count("\n")


def test_export_and_streaming_writer_agree(tmp_path):
    # One file writer serves both: the same statistics and the same file.
    for k in range(1, 5):
        exported, streamed = tmp_path / f"export_{k}.mps", tmp_path / f"stream_{k}.mps"
        by_export = export_mps(build_lp(k, "compact"), exported)
        by_stream = write_compact_mps(k, streamed)
        assert exported.read_bytes() == streamed.read_bytes()
        for stat in ("k", "bytes", "lines"):
            assert by_export[stat] == by_stream[stat], (k, stat)
        assert by_export["bytes"] == len(exported.read_bytes())


def test_solved_table_is_monotone_and_coherent():
    s = solve(build_lp(3))
    s.f_table.require_monotonic()
    report = evaluate_price_table(s.f_table)
    assert report.alpha == pytest.approx(s.alpha, abs=1e-6)


def test_evaluate_reference_tables():
    assert evaluate_price_table(REFERENCE_TABLE_K3).alpha == pytest.approx(
        0.503, abs=2e-3
    )
    assert evaluate_price_table(REFERENCE_TABLE_K10).alpha == pytest.approx(
        0.53046, abs=5e-3
    )
    assert evaluate_price_table(PriceTable.constant(1, 0.5)).alpha == pytest.approx(
        0.5, abs=1e-12
    )


def test_evaluate_rejects_non_monotone_listing_pairs():
    bad = PriceTable(2, [[0.4, 0.3], [0.5, 0.6]])
    with pytest.raises(ValueError, match="monotone"):
        evaluate_price_table(bad)


def test_evaluate_binding_report_shape():
    report = evaluate_price_table(REFERENCE_TABLE_K3)
    assert len(report.alpha_i) == 3 and len(report.binding) == 3
    assert all(b["family"] in ("no_match", "single", "backup") for b in report.binding)
    payload = json.loads(report.to_json())
    assert payload["k"] == 3


def _reference_evaluate(table):
    """Reference evaluator with its own loops over c and d, independent of
    ``lpmodel._windows``: ties keep the first minimum in the order no match,
    single by c, backup by d and then c."""
    table.require_monotonic()
    k = table.k
    hs_avg = [
        [H_value(ClassLabel.MATCHED_NO_BACKUP, table, i, xv) for xv in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    hb_avg = [
        [
            [
                H_value(ClassLabel.MATCHED_WITH_BACKUP, table, i, xv, d + 1)
                if xv <= d
                else 0.0
                for d in range(1, k + 1)
            ]
            for xv in range(1, k + 1)
        ]
        for i in range(1, k + 1)
    ]
    alpha_i = []
    binding = []
    for i in range(1, k + 1):
        best = H_value(ClassLabel.UNMATCHED, table, i)
        info = {"family": "no_match"}
        for c in range(1, k + 1):
            window = hs_avg[i - 1][c - 1 : k]
            bound = sum(window) / len(window)
            if bound < best:
                best, info = bound, {"family": "single", "c": c}
        for d in range(1, k + 1):
            for c in range(1, d + 1):
                window = [hb_avg[i - 1][xv - 1][d - 1] for xv in range(c, d + 1)]
                bound = sum(window) / len(window)
                if bound < best:
                    best, info = bound, {"family": "backup", "c": c, "d": d}
        alpha_i.append(best)
        binding.append(info)
    return lpmodel.EvalReport(k, sum(alpha_i) / k, tuple(alpha_i), tuple(binding))


def _random_monotone(rng, k, values):
    """A k x k table of the given values, made monotone: each row is raised
    to the row below it, then each row to its running maximum."""
    grid = [[rng.choice(values) for _ in range(k)] for _ in range(k)]
    for i in range(k - 2, -1, -1):
        grid[i] = [max(a, b) for a, b in zip(grid[i], grid[i + 1])]
    for row in grid:
        for j in range(1, k):
            row[j] = max(row[j], row[j - 1])
    return PriceTable(k, grid)


# Bucket 4 has windows tied at its minimum; the report names backup (3, 3),
# where a walk of the backup family by c and then d would name (2, 5).
TIE_TABLE_K6 = PriceTable(6, [
    [0.875, 0.875, 1, 1, 1, 1],
    [0.75, 0.875, 1, 1, 1, 1],
    [0.75, 0.875, 1, 1, 1, 1],
    [0.5, 0.625, 0.75, 0.875, 0.875, 1],
    [0.25, 0.25, 0.375, 0.5, 0.625, 0.875],
    [0.25, 0.25, 0.25, 0.5, 0.5, 0.625],
])


def test_evaluator_matches_reference_on_many_tables():
    rng = random.Random(2003)
    # Ties at a bucket's minimum are common here, most on the dyadic grids;
    # a tie between crossing backup windows is rare, so TIE_TABLE_K6 joins.
    grids = [[0, 0.125, 0.25], [x / 8 for x in range(9)], [0, 0.5, 1]]
    tables = [REFERENCE_TABLE_K3, REFERENCE_TABLE_K10, TIE_TABLE_K6]
    tables += [solve(build_lp(k)).f_table for k in range(1, 8)]
    for n in range(520):
        values = grids[n % 4] if n % 4 < 3 else [rng.random() for _ in range(5)]
        tables.append(_random_monotone(rng, 1 + n // 4 % 8, values))
    for table in tables:
        expected = _reference_evaluate(table).to_json()
        assert evaluate_price_table(table).to_json() == expected


def test_evaluator_keeps_the_tie_order():
    binding = evaluate_price_table(TIE_TABLE_K6).binding
    assert binding[3] == {"family": "backup", "c": 3, "d": 3}


def test_compact_export_solved_by_independent_solver():
    # Parse the streamed compact form at full desk scale and hand it to
    # scipy's HiGHS: the optimum must hit the published k=10 value.
    import numpy as np
    import scipy.sparse as sp
    from scipy.optimize import linprog

    m = parse_mps("".join(compact_mps_chunks(10)))
    assert m.form == "compact"
    n = len(m.var_names)
    c = np.zeros(n)
    c[m.objective_var] = -1.0
    blocks = {"L": ([], [], [], []), "E": ([], [], [], [])}
    for row in m.rows:
        data, ri, ci, rhs = blocks[row.sense]
        r = len(rhs)
        for j, coef in row.coeffs:
            data.append(float(coef))
            ri.append(r)
            ci.append(j)
        rhs.append(float(row.rhs))
    a_ub = sp.csr_matrix(
        (blocks["L"][0], (blocks["L"][1], blocks["L"][2])),
        shape=(len(blocks["L"][3]), n),
    )
    a_eq = sp.csr_matrix(
        (blocks["E"][0], (blocks["E"][1], blocks["E"][2])),
        shape=(len(blocks["E"][3]), n),
    )
    bounds = [
        (float(lo), None if up is None else float(up))
        for lo, up in zip(m.lower, m.upper)
    ]
    res = linprog(
        c, A_ub=a_ub, b_ub=blocks["L"][3], A_eq=a_eq, b_eq=blocks["E"][3],
        bounds=bounds, method="highs",
    )
    assert res.status == 0
    assert -res.fun == pytest.approx(0.53046, abs=1e-4)


def test_unknown_form_names_every_form():
    with pytest.raises(ValueError, match="'dense'") as info:
        build_lp(1, "dense")
    assert all(repr(form) in str(info.value) for form in FORMS)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="row sense"):
        parse_mps("NAME ranking_lp_k1_handmade\nROWS\n Q bad\nENDATA\n")
    with pytest.raises(ValueError, match="no objective"):
        parse_mps("NAME ranking_lp_k1_handmade\nROWS\n L r\nCOLUMNS\nRHS\nENDATA\n")


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("COLUMNS\n", "COLUMNS\n    f_1_1 ghost 1\n", "ghost"),
        ("RHS\n", "RHS\n    RHS ghost 1\n", "ghost"),
        ("COLUMNS\n", "COLUMNS\n    f_1_1 monB_1_1 -1 monI_1_1\n", "monI_1_1"),
        ("RHS\n", "RHS\n    RHS monB_1_1\n", "RHS monB_1_1"),
        (" UP BND f_1_1 1\n", " UP BND f_1_1\n", "UP BND f_1_1"),
        ("BOUNDS\n", "BOUNDS\n UP BND ghost 1\n", "ghost"),
        ("alpha obj 1 ", "alpha obj 2 ", "objective"),
        ("COLUMNS\n", "COLUMNS\n    f_1_1 obj 1\n", "objective"),
        (" L monB_1_2\n", " L monB_1_2\n L monB_1_1\n", "twice"),
        ("BOUNDS\n", "RANGES\n    RNG monB_1_1 1\nBOUNDS\n", "RANGES"),
        (" E aavg\nCOLUMNS\n", " E aavg\n N cost\nCOLUMNS\n    f_1_1 cost 3\n",
         "second objective row"),
        ("OBJSENSE\n", "    stray 1\nOBJSENSE\n", "before any section"),
        ("NAME ranking_lp_k2_substituted\n", "NAME foo\n", "model name 'foo'"),
        ("NAME ranking_lp_k2_substituted\n", "NAME ranking_lp_k0_substituted\n",
         "bucket count 0"),
        ("f_1_1 monB_1_1 -1", "f_1_1 monB_1_1 inf", "'inf'"),
        ("f_1_1 monB_1_1 -1", "f_1_1 monB_1_1 1e400", "'1e400'"),
        ("f_1_1 monB_1_1 -1", "f_1_1 monB_1_1 nan", "'nan'"),
        (" UP BND f_1_1 1\n", " UP BND f_1_1 inf\n", "'inf'"),
        (" UP BND f_1_1 1\n", " UP BND f_1_1 1e400\n", "'1e400'"),
        (" UP BND f_1_1 1\n", " UP BND f_1_1 nan\n", "'nan'"),
        ("RHS hs_1_1_1_2 1", "RHS hs_1_1_1_2 one", "'one'"),
        ("OBJSENSE\n    MAX\n", "", "no OBJSENSE MAX"),
        ("f_1_1 monB_1_1 -1 monI_1_1 1", "f_1_1 monB_1_1 -1 monB_1_1 -1",
         "second entry on row 'monB_1_1'"),
        ("    alpha obj 1", "    f_1_1 aavg 1\n    alpha obj 1", "'f_1_1' resumes"),
        ("RHS hs_1_1_1_2 1 hs_2_1_1_2 1", "RHS hs_1_1_1_2 1 hs_1_1_1_2 1",
         "second RHS value for row 'hs_1_1_1_2'"),
        (" UP BND f_1_1 1\n", " UP BND f_1_1 1\n UP BND f_1_1 0.5\n",
         "second UP bound on column 'f_1_1'"),
        (" UP BND f_1_1 1\n", " LO BND f_1_1 0\n LO BND f_1_1 0\n UP BND f_1_1 1\n",
         "second LO bound on column 'f_1_1'"),
        (" E aavg\n", " E aavg\n L\n", "ROWS line that is not a sense and a name"),
        ("COLUMNS\n", "COLUMNS\n    lonely\n", "no entry: '    lonely'"),
        ("RHS\n", "RHS\n    RHS\n", "RHS line with an unpaired field or no entry: '    RHS'"),
    ],
    ids=["column-entry-on-undeclared-row", "rhs-on-undeclared-row",
         "unpaired-column-field", "unpaired-rhs-field", "bound-without-value",
         "bound-on-undeclared-column", "objective-coefficient-not-one",
         "objective-on-two-columns", "row-declared-twice", "ranges-entry",
         "second-objective-row", "data-line-before-any-section",
         "unreadable-name", "name-with-k-below-one", "column-value-inf",
         "column-value-1e400", "column-value-nan", "bound-inf", "bound-1e400",
         "bound-nan", "unreadable-rhs-value", "no-objsense-max",
         "repeated-column-entry", "column-lines-not-adjacent", "second-rhs-value",
         "second-up-bound", "second-lo-bound", "rows-line-without-a-name",
         "columns-line-without-an-entry", "rhs-line-without-an-entry"],
)
def test_parse_rejects_malformed_input(old, new, match):
    text = mps_text(build_lp(2))
    assert old in text
    parse_mps(text)
    with pytest.raises(ValueError, match=match):
        parse_mps(text.replace(old, new, 1))
