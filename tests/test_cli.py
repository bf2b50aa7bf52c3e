import errno
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from ranking_forge import cli, lpmodel
from ranking_forge.cli import run_cli
from ranking_forge.gains import REFERENCE_TABLE_K3, PriceTable
from ranking_forge.lpmodel import build_lp, mps_text


def test_solve_lp_small(capsys):
    assert run_cli(["solve-lp", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "alpha=0.50347" in out


def test_solve_lp_compact_form(capsys):
    assert run_cli(["solve-lp", "--k", "4", "--form", "compact"]) == 0
    assert "alpha=0.51052" in capsys.readouterr().out


def test_solve_lp_export_still_solves(tmp_path, capsys, monkeypatch):
    # Within the budget the exported file is the solved model, in the
    # requested form, built once.
    built = []

    def counted(k, form):
        built.append(form)
        return build_lp(k, form)

    monkeypatch.setattr(cli, "build_lp", counted)
    for form in ("substituted", "naive", "compact"):
        path = tmp_path / f"k2_{form}.mps"
        args = ["solve-lp", "--k", "2", "--form", form, "--export", str(path)]
        assert run_cli(args) == 0
        assert path.read_text() == mps_text(build_lp(2, form))
        assert "alpha=0.50000" in capsys.readouterr().out
    assert built == ["substituted", "naive", "compact"]


def test_solve_lp_reports_a_stall(monkeypatch, capsys):
    from ranking_forge import simplex

    def stall(model):
        raise simplex.SimplexStall("no blocking variable; model must be bounded")

    monkeypatch.setattr(simplex, "solve", stall)
    assert run_cli(["solve-lp", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "solver status: error: stall: no blocking variable; model must be bounded\n"
    )


def test_solve_lp_reports_the_iteration_limit(monkeypatch, capsys):
    # The same judgement as test_reproduce_reports_solver_failure's rows.
    from ranking_forge import simplex

    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 5)
    assert run_cli(["solve-lp", "--k", "4"]) == 1
    captured = capsys.readouterr()
    assert "alpha=" not in captured.out
    assert captured.err.startswith("solver status: limit: solver stopped with status")


def test_solve_lp_resource_limit():
    assert run_cli(["solve-lp", "--k", "50"]) == 3


def test_solve_lp_export_beyond_budget_uses_compact(tmp_path, capsys):
    path = tmp_path / "k45.mps"
    assert run_cli(["solve-lp", "--k", "45", "--export", str(path)]) == 0
    head = path.read_text().splitlines()[0]
    assert head == "NAME ranking_lp_k45_compact"
    assert "solve externally" in capsys.readouterr().out


def test_solve_lp_export_just_beyond_budget_streams_compact(
    tmp_path, capsys, monkeypatch
):
    # Every export beyond the in-process budget is the compact stream, with
    # no model built in-process.
    monkeypatch.setattr(cli, "build_lp", None)
    path = tmp_path / "k13.mps"
    assert run_cli(["solve-lp", "--k", "13", "--export", str(path)]) == 0
    with open(path) as fh:
        assert fh.readline() == "NAME ranking_lp_k13_compact\n"
    assert "solve externally" in capsys.readouterr().out


@pytest.mark.parametrize(
    "k, pieces",
    [(cli.IN_PROCESS_K_LIMIT + 1, "_compact_pieces"), (2, "_mps_chunks")],
)
def test_failed_export_leaves_no_file(tmp_path, monkeypatch, capsys, k, pieces):
    # Both writers stop after their first piece, as on a full disk: the run
    # is a resource limit, and no truncated file is left behind.
    def full_disk(*args):
        yield "NAME x\n"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(lpmodel, pieces, full_disk)
    path = tmp_path / "out.mps"
    assert run_cli(["solve-lp", "--k", str(k), "--export", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"resource limit: cannot finish writing {path}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert not path.exists()


def test_validate_f_pass_and_mismatch(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(REFERENCE_TABLE_K3.to_json())
    assert run_cli(["validate-f", "--file", str(path), "--expect", "0.503",
                    "--tol", "0.002"]) == 0
    assert run_cli(["validate-f", "--file", str(path), "--expect", "0.9"]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--expect", "nan"], "--expect=nan is not a finite number"),
    (["--expect", "inf"], "--expect=inf is not a finite number"),
    (["--expect", "0.9", "--tol", "nan"], "--tol=nan is not a finite non-negative number"),
    (["--expect", "0.9", "--tol", "inf"], "--tol=inf is not a finite non-negative number"),
    (["--expect", "0.503", "--tol", "-1"], "--tol=-1.0 is not a finite non-negative number"),
], ids=["expect-nan", "expect-inf", "tol-nan", "tol-inf", "tol-negative"])
def test_validate_f_rejects_a_check_that_cannot_decide(tmp_path, capsys, flags, message):
    # A nan passes every table and a negative tolerance fails every table.
    path = tmp_path / "k3.json"
    path.write_text(REFERENCE_TABLE_K3.to_json())
    assert run_cli(["validate-f", "--file", str(path), *flags]) == 2
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")
    # Refused before the file is read.
    assert run_cli(["validate-f", "--file", str(tmp_path / "missing.json"), *flags]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_validate_f_rejects_non_monotone(tmp_path):
    bad = PriceTable(2, [[0.4, 0.3], [0.5, 0.6]])
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json())
    assert run_cli(["validate-f", "--file", str(path)]) == 1


@pytest.mark.parametrize("name, text", [
    ("missing.json", None),
    ("not_json.json", "{not json"),
    ("wrong_shape.json", json.dumps({"k": 3, "values": [[0.5, 0.5]]})),
    ("out_of_range.json", json.dumps({"k": 2, "values": [[1.5, 1.0], [0.0, 1.0]]})),
    ("missing_key.json", json.dumps({"values": [[0.5]]})),
    ("not_an_object.json", "[1, 2]"),
    ("k_zero.json", json.dumps({"k": 0, "values": []})),
    ("k_negative.json", json.dumps({"k": -1, "values": []})),
    ("k_bool.json", json.dumps({"k": True, "values": [[0.5]]})),
])
def test_validate_f_rejects_bad_input_files(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert run_cli(["validate-f", "--file", str(path)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_verify_lemmas_clean(tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    code = run_cli([
        "verify-lemmas", "--max-n", "3", "--k", "2", "--exhaustive",
        "--skip-random-eight", "--report", str(report_path),
    ])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["violations"] == []
    assert payload["claims_checked"]["insertion-claims"] > 0


def test_verify_lemmas_sampled_mode(capsys):
    # Without --exhaustive the sweep samples orders and skips the
    # enumeration-only checkers.
    assert run_cli(["verify-lemmas", "--max-n", "3", "--k", "2",
                    "--skip-random-eight"]) == 0
    assert "0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["four", "2.5", "0", "-1"])
def test_verify_lemmas_rejects_a_bad_jobs_variable(monkeypatch, capsys, value):
    monkeypatch.setenv("RANKING_FORGE_JOBS", value)
    assert run_cli(["verify-lemmas", "--max-n", "2", "--skip-random-eight"]) == 2
    assert f"invalid input: RANKING_FORGE_JOBS={value}" in capsys.readouterr().err
    # Only the sweep reads the variable.
    assert run_cli(["simulate", "--family", "path", "--n", "4", "--exact"]) == 0


def test_verify_lemmas_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-2"):
        assert run_cli(["verify-lemmas", "--max-n", "2", "--skip-random-eight",
                        "--jobs", jobs]) == 2
        assert f"invalid input: --jobs={jobs} is not" in capsys.readouterr().err


def test_verify_lemmas_rejects_max_n_below_one(monkeypatch, capsys):
    monkeypatch.setattr(cli.experiments, "lemma_sweep", None)
    for max_n in ("0", "-3"):
        assert run_cli(["verify-lemmas", "--max-n", max_n, "--skip-random-eight"]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: --max-n={max_n} is not a positive integer\n"
        )


def test_verify_lemmas_rejects_a_negative_seed(monkeypatch, capsys):
    # A usage error, not a violation (exit 1) or numpy's traceback.
    monkeypatch.setattr(cli.experiments, "lemma_sweep", None)
    for seed in ("-1", "-10000"):
        assert run_cli(["verify-lemmas", "--seed", seed, "--skip-random-eight"]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: --seed={seed} is not a non-negative integer\n"
        )


def test_verify_lemmas_rejects_k_below_one(monkeypatch, capsys):
    # Refused before the sweep starts, so no worker ever sees the value.
    monkeypatch.setattr(cli.experiments, "lemma_sweep", None)
    for k in ("0", "-1"):
        assert run_cli(["verify-lemmas", "--max-n", "2", "--k", k, "--exhaustive",
                        "--skip-random-eight"]) == 2
        assert (f"invalid input: bucket count k must be >= 1 and an int, got {k}"
                in capsys.readouterr().err)


def test_solve_lp_rejects_k_below_one(capsys):
    for k in ("0", "-3"):
        assert run_cli(["solve-lp", "--k", k]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: bucket count k must be >= 1 and an int, got {k}\n"
        )


def test_simulate_exact_and_sampled(capsys):
    assert run_cli(["simulate", "--family", "path", "--n", "4", "--exact"]) == 0
    assert "ratio=0.87500" in capsys.readouterr().out
    assert run_cli(["simulate", "--family", "path", "--n", "4", "--k", "5",
                    "--trials", "2000", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    run_cli(["simulate", "--family", "path", "--n", "4", "--k", "5",
             "--trials", "2000", "--seed", "1"])
    assert capsys.readouterr().out == first  # deterministic given the seed


def test_simulate_rejects_bad_inputs(capsys):
    assert run_cli(["simulate", "--family", "path", "--n", "4", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err
    assert run_cli(["simulate", "--family", "path", "--n", "4", "--k", "0"]) == 2
    assert "bucket count" in capsys.readouterr().err
    assert run_cli(["simulate", "--family", "path", "--n", "4", "--k", "2049"]) == 2
    assert "<= 2048" in capsys.readouterr().err


@pytest.mark.parametrize("density", ["1.5", "-1"])
def test_simulate_rejects_density_outside_unit_interval(density, capsys):
    assert run_cli(["simulate", "--family", "random_with_perfect_matching",
                    "--n", "4", "--density", density]) == 2
    captured = capsys.readouterr()
    assert "invalid input: density must be in [0, 1]" in captured.err
    assert captured.out == ""


def test_simulate_beyond_exhaustive_limit(capsys):
    assert run_cli(["simulate", "--family", "random_with_perfect_matching",
                    "--n", "40", "--trials", "200"]) == 0
    assert "trials=200" in capsys.readouterr().out


def test_simulate_exact_resource_limit():
    assert run_cli(["simulate", "--family", "path", "--n", "10", "--exact"]) == 3


def test_reproduce_small(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    assert run_cli(["reproduce", "--table1", "--k-max", "3",
                    "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "k=  3 alpha=0.50347" in out
    assert csv_path.read_text().count("\n") == 4


def test_reproduce_reports_solver_failure(monkeypatch, capsys):
    from ranking_forge import simplex

    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 5)
    assert run_cli(["reproduce", "--table1", "--k-max", "4"]) == 1
    out = capsys.readouterr().out
    assert "k=  4 alpha=nan" in out and "LIMIT: solver stopped" in out


def test_reproduce_rejects_k_max_below_one(capsys):
    for k_max in ("0", "-3"):
        assert run_cli(["reproduce", "--table1", "--k-max", k_max]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: bucket count k must be >= 1 and an int, got {k_max}\n"
        )


def test_reproduce_resource_limit():
    assert run_cli(["reproduce", "--table1", "--k-max", "99"]) == 3


def test_solve_lp_form_choices_are_the_model_forms():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    (form,) = [a for a in commands.choices["solve-lp"]._actions if a.dest == "form"]
    assert form.choices is lpmodel.FORMS


def test_usage_errors():
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["solve-lp"]) == 2
    assert run_cli([]) == 2


@pytest.mark.parametrize(
    "args, work",
    [
        (["solve-lp", "--k", "2", "--export"], "build_lp"),
        (["solve-lp", "--k", "13", "--export"], "write_compact_mps"),
        (["verify-lemmas", "--max-n", "2", "--skip-random-eight", "--report"],
         "lemma_sweep"),
        (["reproduce", "--table1", "--k-max", "2", "--csv"], "reproduce_lp_table"),
    ],
)
def test_unwritable_output_path_is_refused_first(tmp_path, monkeypatch, capsys,
                                                 args, work):
    # Refused before any solve, export or sweep starts: the work is not there.
    for module in (cli, cli.experiments):
        if hasattr(module, work):
            monkeypatch.setattr(module, work, None)
    path = tmp_path / "missing" / "out"
    assert run_cli(args + [str(path)]) == 2
    assert capsys.readouterr().err == (
        f"invalid input: cannot write {args[-1]} {path}: No such file or directory\n"
    )


def test_in_process_budget_is_not_an_option(tmp_path, capsys):
    # Both commands read cli.IN_PROCESS_K_LIMIT; no flag restates it.
    path = tmp_path / "k2.mps"
    args = ["solve-lp", "--k", "2", "--max-k-in-process", "1", "--export", str(path)]
    assert run_cli(args) == 2
    assert "unrecognized arguments: --max-k-in-process" in capsys.readouterr().err
    assert not path.exists()


def test_solve_lp_takes_no_tolerance(capsys):
    # Published values are judged by one rule, experiments.matches_published.
    assert run_cli(["solve-lp", "--k", "3", "--tol", "1e-4"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("published, code", [(0.50009, 0), (0.5002, 1)])
def test_solve_lp_and_reproduce_share_the_published_rule(monkeypatch, capsys,
                                                         published, code):
    # alpha is 0.5 at k = 2; both commands allow 1e-4 around the table.
    monkeypatch.setitem(cli.experiments.KNOWN_OPTIMA, 2, published)
    assert run_cli(["solve-lp", "--k", "2"]) == code
    assert run_cli(["reproduce", "--table1", "--k-max", "2"]) == code
    captured = capsys.readouterr()
    assert ("mismatch: published value is 0.50020" in captured.err) == bool(code)
    assert ("MISMATCH" in captured.out) == bool(code)


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    lines = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("ranking-forge ")
    ]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            commands.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    assert commands == {"solve-lp", "validate-f", "verify-lemmas", "simulate", "reproduce"}


def test_output_path_check_leaves_no_file(tmp_path):
    # The check passes, then k-max is beyond the budget: nothing is written.
    path = tmp_path / "table.csv"
    assert run_cli(["reproduce", "--table1", "--k-max", "99", "--csv", str(path)]) == 3
    assert not path.exists()
