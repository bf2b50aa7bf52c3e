"""Command-line front end.

Exit codes: 0 success, 1 a violation or value mismatch was found (the run
itself was fine), 2 usage error, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

from . import experiments
from .gains import PriceTable
from .graphs import FAMILIES, SizeLimitError, generate_family
from .lpmodel import FORMS, build_lp, evaluate_price_table, export_mps, write_compact_mps
from .ranks import EnumerationLimitError, check_bucket_count

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

#: Largest bucket count that ``solve-lp`` and ``reproduce`` solve in-process.
IN_PROCESS_K_LIMIT = 12


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranking-forge",
        description="Randomized greedy matching and its factor-revealing LP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-lp", help="build and solve the LP for k buckets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--export", metavar="PATH", help="also write an MPS file")
    p.add_argument("--form", choices=FORMS, default="substituted")

    p = sub.add_parser("validate-f", help="evaluate a price table file")
    p.add_argument("--file", required=True)
    p.add_argument("--expect", type=float)
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("verify-lemmas", help="run the structural sweep")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all orders and rank vectors up to max-n "
                        "(default: sampled orders only); --max-n and --k "
                        "apply only with it")
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: $RANKING_FORGE_JOBS, else 1)")
    p.add_argument("--skip-random-eight", action="store_true")
    p.add_argument("--report", metavar="PATH", help="write the JSON report")

    p = sub.add_parser("simulate", help="Monte Carlo ratio on a graph family")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--exact", action="store_true",
                   help="enumerate all orders instead of sampling")

    p = sub.add_parser("reproduce", help="recompute the published LP table")
    p.add_argument("--table1", action="store_true", required=True)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--csv", metavar="PATH")
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _dispatch(args)
    except (SizeLimitError, EnumerationLimitError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def _dispatch(args) -> int:
    return {
        "solve-lp": _cmd_solve_lp,
        "validate-f": _cmd_validate_f,
        "verify-lemmas": _cmd_verify_lemmas,
        "simulate": _cmd_simulate,
        "reproduce": _cmd_reproduce,
    }[args.command](args)


def _invalid_bucket_count(k) -> bool:
    """True, with the shared message on stderr, unless ``k`` is a valid
    bucket count."""
    try:
        check_bucket_count(k)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return True
    return False


def _unwritable(flag: str, path) -> bool:
    """True, with the shared message on stderr, if ``path`` was given and no
    file can be written there.  Checked before any work starts, so a long run
    cannot end in a traceback; a file the check creates is removed again."""
    if path is None:
        return False
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        print(f"invalid input: cannot write {flag} {path}: {exc.strerror}", file=sys.stderr)
        return True
    if not existed:
        os.remove(path)
    return False


def _export(write, source, path) -> Optional[dict]:
    """``write(source, path)``'s statistics, or None, with the shared message
    on stderr, if the file cannot be finished (a full disk, say); the writer
    leaves no partial file."""
    try:
        return write(source, path)
    except OSError as exc:
        print(f"resource limit: cannot finish writing {path}: {exc.strerror}", file=sys.stderr)
        return None


def _cmd_solve_lp(args) -> int:
    k = args.k
    if _invalid_bucket_count(k) or _unwritable("--export", args.export):
        return EXIT_USAGE
    if k > IN_PROCESS_K_LIMIT:
        # Beyond the budget nothing is built: an export streams the compact
        # form, whose size stays near the number of min-cases.
        if not args.export:
            print(
                f"resource limit: k={k} beyond in-process budget "
                f"{IN_PROCESS_K_LIMIT}; use --export",
                file=sys.stderr,
            )
            return EXIT_RESOURCE
        stats = _export(write_compact_mps, k, args.export)
        if stats is None:
            return EXIT_RESOURCE
        print(f"exported {args.export} (compact, {stats['lines']} lines)")
        print(f"k={k} beyond in-process budget; solve externally")
        return EXIT_OK
    model = build_lp(k, form=args.form)
    if args.export:
        if _export(export_mps, model, args.export) is None:
            return EXIT_RESOURCE
        print(f"exported {args.export}")
    solution, status, error = experiments.judge_solve(model)
    if error:
        print(f"solver status: {status}: {error}", file=sys.stderr)
        return EXIT_VIOLATION
    print(
        f"alpha={solution.alpha:.5f} (k={k}, {solution.iterations} iterations, "
        f"{solution.elapsed:.2f}s)"
    )
    if experiments.matches_published(k, solution.alpha) is False:
        print(
            f"mismatch: published value is {experiments.KNOWN_OPTIMA[k]:.5f}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_validate_f(args) -> int:
    # Refuse a check that cannot fail (a nan) or cannot pass (a negative --tol).
    if args.expect is not None and not math.isfinite(args.expect):
        print(f"invalid input: --expect={args.expect} is not a finite number", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.tol < math.inf:
        print(f"invalid input: --tol={args.tol} is not a finite non-negative number",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.file) as fh:
            table = PriceTable.from_json(fh.read())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError and a table of the wrong shape or range are
        # ValueErrors; a missing key or a non-object payload is a Key/TypeError.
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = evaluate_price_table(table)
    except ValueError as exc:
        print(f"invalid table: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"alpha={report.alpha:.5f} (k={table.k})")
    for i, (a, b) in enumerate(zip(report.alpha_i, report.binding), start=1):
        print(f"  alpha_{i}={a:.5f} binding={b}")
    if args.expect is not None and abs(report.alpha - args.expect) > args.tol:
        print(
            f"mismatch: expected {args.expect:.5f} +- {args.tol}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    name, jobs = "--jobs", args.jobs
    if jobs is None:
        name, jobs = "RANKING_FORGE_JOBS", os.environ.get("RANKING_FORGE_JOBS") or "1"
    if not str(jobs).isdecimal() or int(jobs) < 1:
        print(f"invalid input: {name}={jobs} is not a positive integer", file=sys.stderr)
        return EXIT_USAGE
    if args.max_n < 1:
        print(f"invalid input: --max-n={args.max_n} is not a positive integer", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"invalid input: --seed={args.seed} is not a non-negative integer", file=sys.stderr)
        return EXIT_USAGE
    if _invalid_bucket_count(args.k) or _unwritable("--report", args.report):
        return EXIT_USAGE
    config = experiments.SweepConfig(
        max_n=args.max_n,
        k=args.k,
        exhaustive=args.exhaustive,
        seed=args.seed,
        jobs=int(jobs),
        with_random_eight=not args.skip_random_eight,
    )
    report = experiments.lemma_sweep(config)
    total = sum(report.claims_checked.values())
    print(
        f"{len(report.violations)} violations across {total} checks "
        f"({report.corpus}, {report.wall_time:.1f}s)"
    )
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_simulate(args) -> int:
    try:
        g = generate_family(args.family, n=args.n, density=args.density, seed=args.seed)
        if args.exact:
            ratio = experiments.exact_expected_ratio(g)
            print(f"ratio={float(ratio):.5f} (exact, {g.n} vertices)")
            return EXIT_OK
        est = experiments.monte_carlo_ratio(g, args.trials, args.k, args.seed)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"ratio={est.mean:.5f} +- {est.half_width:.5f} "
        f"(trials={est.trials}, k={args.k}, seed={args.seed})"
    )
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if _invalid_bucket_count(args.k_max) or _unwritable("--csv", args.csv):
        return EXIT_USAGE
    if args.k_max > IN_PROCESS_K_LIMIT:
        print(
            f"resource limit: k-max {args.k_max} beyond in-process budget",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    rows = experiments.reproduce_lp_table(range(1, args.k_max + 1))
    ok = True
    for row in rows:
        mark = ""
        if row.error is not None:
            mark = f"  {row.status.upper()}: {row.error}"
            ok = False
        elif row.within_tolerance is False:
            mark = "  MISMATCH"
            ok = False
        exp = "" if row.expected is None else f" expected={row.expected:.5f}"
        print(f"k={row.k:3d} alpha={row.alpha:.5f}{exp} ({row.elapsed:.2f}s){mark}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(experiments.lp_table_to_csv(rows))
    return EXIT_OK if ok else EXIT_VIOLATION


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
