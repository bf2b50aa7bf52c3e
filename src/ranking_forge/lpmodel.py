"""Construction of the factor-revealing LP, direct price-table evaluation,
and MPS import/export.

Three model forms share one optimum:

* ``substituted`` (default): one variable per price-table entry, one per
  bucket bound, and one auxiliary variable per min-case of the pointwise
  bounds; affine cases are folded straight into the averaging rows.  This is
  the in-process form for desk-scale bucket counts.
* ``naive``: the same model with no case inlined, so every pointwise bound
  is its own variable with explicit upper-bounding rows; used to
  cross-check the substitution.
* ``compact``: window-average constraints are telescoped through chains of
  nonnegative slack variables and prefix-sum columns so the row count stays
  near the number of min-cases.  This is the only form whose size permits
  exporting very large bucket counts; a streaming writer emits it as MPS
  text without building it.

One builder makes all three forms in memory, in one walk over the
pointwise-bound cases.  Every form's averaging rows and the price-table
evaluator walk one list of windows, ``_windows``.  The writer and the
builder are two independent sources of the compact model, and the tests
hold their MPS text equal.

Coefficients are exact rationals while a model is in memory; they become
floats at solve and export time.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, NamedTuple, Optional

from .gains import H_value, PriceTable, h_forms
from .oracles import ClassLabel
from .ranks import check_bucket_count

Coef = tuple[int, Fraction]

#: The model forms ``build_lp`` makes; see the module docstring.
FORMS = ("substituted", "naive", "compact")


@dataclass(frozen=True, slots=True)
class LinRow:
    name: str
    coeffs: tuple[Coef, ...]
    sense: str  # 'L' (<=) or 'E' (=)
    rhs: Fraction


@dataclass
class LpModel:
    k: int
    form: str
    var_names: list[str]
    lower: list[Fraction]
    upper: list[Optional[Fraction]]
    rows: list[LinRow]
    objective_var: int

    @property
    def row_count(self) -> int:
        return len(self.rows)


def build_lp(k: int, form: str = "substituted") -> LpModel:
    """Assemble the factor-revealing LP for ``k`` buckets.

    The optimum is a certified lower bound on the greedy matcher's
    approximation ratio.  See the module docstring for the three forms.
    """
    check_bucket_count(k)
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; choose one of {FORMS}")
    return _build(k, form)


#: One pointwise-bound case ``(label, x_u, x_v, x_b, x_ustar)``, in the
#: argument order of ``h_forms``; absent buckets are ``None``.
HCase = tuple[ClassLabel, int, Optional[int], Optional[int], int]


class _Family(NamedTuple):
    prefix: str  # of a pointwise-bound variable
    row: str  # a window's row name in the direct forms
    report: str  # the family as ``EvalReport.binding`` names it


#: Every case and window family, in row order, which is also tie order.
_FAMILIES = {
    ClassLabel.UNMATCHED: _Family("hbot", "abot_{i}", "no_match"),
    ClassLabel.MATCHED_NO_BACKUP: _Family("hs", "as_{i}_{c}", "single"),
    ClassLabel.MATCHED_WITH_BACKUP: _Family("hb", "ab_{i}_{c}_{d}", "backup"),
}


def _h_cases(k: int) -> Iterator[HCase]:
    """Every pointwise-bound case in variable order: no match, then no
    backup, then backup."""
    buckets = range(1, k + 1)
    for i in buckets:
        for xus in buckets:
            yield ClassLabel.UNMATCHED, i, None, None, xus
    for i in buckets:
        for xv in buckets:
            for xus in buckets:
                yield ClassLabel.MATCHED_NO_BACKUP, i, xv, None, xus
    for i in buckets:
        for xv in buckets:
            for xb in range(xv + 1, k + 2):
                for xus in buckets:
                    yield ClassLabel.MATCHED_WITH_BACKUP, i, xv, xb, xus


def _two_arm_cases(k: int) -> Iterator[HCase]:
    """The cases of ``_h_cases`` whose bound is a minimum of two arms, in the
    same order: a match bucket and a new-vertex bucket both at most ``x_u``
    (the only cases the compact form gives a variable)."""
    buckets = range(1, k + 1)
    for i in buckets:
        for xv in range(1, i + 1):
            for xus in range(1, i + 1):
                yield ClassLabel.MATCHED_NO_BACKUP, i, xv, None, xus
    for i in buckets:
        for xv in range(1, i + 1):
            for xb in range(xv + 1, k + 2):
                for xus in range(1, i + 1):
                    yield ClassLabel.MATCHED_WITH_BACKUP, i, xv, xb, xus


def _windows(k: int) -> Iterator[tuple]:
    """Every window of the LP, once, in row order, as ``(label, i, c, d,
    profiles)``: ``alpha_i`` is at most the average of h over the profiles
    ``(x_v, x_b)``, each taken over every x_ustar.  The match range is c..d,
    or c..k when d is None (single family); the backup bucket is d + 1.
    Every form's averaging rows and the price-table evaluator walk this."""
    buckets = range(1, k + 1)
    for i in buckets:
        yield ClassLabel.UNMATCHED, i, None, None, [(None, None)]
    for i in buckets:
        for c in buckets:
            yield ClassLabel.MATCHED_NO_BACKUP, i, c, None, [
                (xv, None) for xv in range(c, k + 1)
            ]
    for i in buckets:
        for c in buckets:
            for d in range(c, k + 1):
                yield ClassLabel.MATCHED_WITH_BACKUP, i, c, d, [
                    (xv, d + 1) for xv in range(c, d + 1)
                ]


def _build(k: int, form: str) -> LpModel:
    """Build any of the three forms in memory.

    Every form has the price-table and alpha columns, the monotonicity rows,
    one variable with its arm rows per case it does not inline, and the tie
    row.  The direct forms then average the cases of each window; the
    compact form telescopes the windows through its own prefix-sum and
    slack columns, in the streaming writer's row and column order.  Row
    entries ascend by column.  Coefficients are counted as integers; each
    value becomes one ``Fraction`` and each ``(column, value)`` entry one
    tuple, shared by every row that holds it, so there are few objects to
    allocate and for the collector to track, and ``mps_text`` formats each
    value once.
    """
    naive, compact = form == "naive", form == "compact"
    K1 = k + 1
    buckets, padded = range(1, k + 1), range(1, K1 + 1)
    frac = cache(Fraction)  # (numerator, denominator) -> value
    entry = cache(lambda j, num, den: (j, frac(num, den)))  # -> (j, value)
    zero = frac(0, 1)
    names = [f"f_{i}_{j}" for i in padded for j in padded]
    f_idx = {(i, j): (i - 1) * K1 + j - 1 for i in padded for j in padded}
    names += [f"alpha_{i}" for i in buckets]
    names.append("alpha")
    alpha = len(names) - 1
    alpha_0 = alpha - K1  # alpha_0 + i is alpha_i

    # Monotonicity of the price table over the padded domain.
    rows = [
        LinRow(
            f"monB_{i}_{j}",
            (entry(f_idx[i, j], -1, 1), entry(f_idx[i + 1, j], 1, 1)),
            "L", zero,
        )
        for i in buckets
        for j in padded
    ]
    rows += [
        LinRow(
            f"monI_{i}_{j}",
            (entry(f_idx[i, j], 1, 1), entry(f_idx[i, j + 1], -1, 1)),
            "L", zero,
        )
        for i in padded
        for j in buckets
    ]
    fp_0 = len(names) - k - 1  # fp_0 + a * k + b is Fp_a_b
    if compact:
        # Prefix sums of the price table: Fp_a_b = Fp_a_(b-1) + f_a_b.
        names += [f"Fp_{a}_{b}" for a in buckets for b in buckets]
        for a in buckets:
            for b in buckets:
                col = fp_0 + a * k + b
                e = [entry(f_idx[a, b], -1, 1), entry(col - 1, -1, 1), entry(col, 1, 1)]
                if b == 1:
                    del e[1]
                rows.append(LinRow(f"fp_{a}_{b}", tuple(e), "E", zero))

    # A case gets a variable in the naive form, and in the other two when
    # its bound is a minimum of two arms.  Each arm is an upper-bounding row:
    # maximization presses the variable onto its smaller arm.  The direct
    # forms fold every other case, affine, straight into the averaging rows;
    # the compact form telescopes them away, so it walks the two-arm cases
    # alone.
    aux_0 = len(names)
    aux: dict[HCase, int] = {}
    inlined: dict[HCase, tuple] = {}
    for case in _two_arm_cases(k) if compact else _h_cases(k):
        arms = h_forms(*case)
        if len(arms) == 1 and not naive:
            inlined[case] = arms[0]
            continue
        idx = len(names)
        if not compact:
            aux[case] = idx
        parts = [_FAMILIES[case[0]].prefix] + [str(x) for x in case[1:] if x is not None]
        name = "_".join(parts)
        names.append(name)
        for arm, (const, terms) in enumerate(arms, start=1):
            e = sorted([entry(f_idx[ij], -coef, 1) for coef, ij in terms])
            e.append(entry(idx, 1, 1))
            if case[0] is ClassLabel.UNMATCHED:
                rname = f"hb0_{case[1]}_{case[4]}"
            else:
                rname = f"{name}_{arm}"
            rows.append(LinRow(rname, tuple(e), "L", frac(const, 1)))

    if not compact:
        # Averaging rows: each profile of a window is taken over every
        # x_ustar, and a case enters through its variable if it has one,
        # otherwise through its affine form.
        for label, i, c, d, profiles in _windows(k):
            counts: dict[int, int] = {}
            const = 0
            for xv, xb in profiles:
                for xus in buckets:
                    case = (label, i, xv, xb, xus)
                    idx = aux.get(case)
                    if idx is not None:
                        counts[idx] = counts.get(idx, 0) + 1
                        continue
                    fconst, terms = inlined[case]
                    const += fconst
                    for coef, ij in terms:
                        idx = f_idx[ij]
                        counts[idx] = counts.get(idx, 0) + coef
            n = len(profiles) * k
            e = [entry(j, -v, n) for j, v in counts.items() if v]
            e.append(entry(alpha_0 + i, 1, 1))
            e.sort()
            name = _FAMILIES[label].row.format(i=i, c=c, d=d)
            rows.append(LinRow(name, tuple(e), "L", frac(const, n)))
    else:
        # Telescoped windows.  abot_i averages the prefix sum Fp_i_k.  Any
        # other window has a nonnegative column V (Vs_i_c, Vb_i_c_d) and a
        # row V <= V' + S - k alpha_i (vs_i_c, vb_i_c_d), where S sums h over
        # the k cases of its first profile and V' belongs to the window
        # without that profile, so V keeps the whole window.  S holds the
        # variables of the cases with x_ustar <= i (each the min of a seat
        # arm, rows _1, and a keep arm, _2), which come in row order from h,
        # i per row with c <= i; the rest is affine: k - i keep arms
        # 1 - f_i_c and, for c > i, the prefix Fp_i_(c-1) of the sales to
        # u_star, plus i seat arms' fallbacks 1 - f_i_xb in the backup family.
        h = aux_0
        for label, i, c, d, profiles in _windows(k):
            if label is ClassLabel.UNMATCHED:
                e = (entry(alpha_0 + i, 1, 1), entry(fp_0 + i * k + k, -1, k))
                rows.append(LinRow(f"abot_{i}", e, "L", zero))
                continue
            backup = label is ClassLabel.MATCHED_WITH_BACKUP
            name = f"vb_{i}_{c}_{d}" if backup else f"vs_{i}_{c}"
            col = len(names)
            names.append("V" + name[1:])
            e = [entry(f_idx[i, c], k - i, 1)] if i < k else []
            if backup and c > i:
                e.append(entry(f_idx[i, profiles[0][1]], i, 1))
            e.append(entry(alpha_0 + i, k, 1))
            if c > i:
                e.append(entry(fp_0 + i * k + c - 1, -1, 1))
            else:
                e += [entry(j, -1, 1) for j in range(h, h + i)]
                h += i
            e.append(entry(col, 1, 1))
            if len(profiles) > 1:
                # V' is the next column in the single family; in the backup
                # family it is k - c columns on, past the windows c..d' with
                # d' > d and c+1..d' with d' < d.
                e.append(entry(col + (k - c if backup else 1), -1, 1))
            rhs = frac(k, 1) if backup and c > i else frac(k - i, 1)
            rows.append(LinRow(name, tuple(e), "L", rhs))
    # The arm rows cap the variables; the direct forms bound them by 2 too.
    upper = [frac(1, 1)] * (alpha + 1) + [None] * (aux_0 - alpha - 1)
    upper += [None if compact else frac(2, 1)] * (len(names) - aux_0)

    e = [entry(alpha_0 + i, -1, k) for i in buckets]
    e.append(entry(alpha, 1, 1))
    rows.append(LinRow("aavg", tuple(e), "E", zero))
    return LpModel(k, form, names, [zero] * len(names), upper, rows, alpha)


# ---------------------------------------------------------------------------
# Direct evaluation of a candidate price table (no LP involved).


@dataclass
class EvalReport:
    k: int
    alpha: float
    alpha_i: tuple[float, ...]
    binding: tuple[dict, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "alpha": self.alpha,
                "alpha_i": list(self.alpha_i),
                "binding": list(self.binding),
            }
        )


def evaluate_price_table(table: PriceTable) -> EvalReport:
    """Worst-case averaged bound achieved by a concrete monotone table.

    For each bucket of u, takes the minimum over the LP's windows of the
    average H of the window's profiles (each profile's H is computed once),
    then averages over u's bucket.  Raises on a non-monotone table, listing
    the offending pairs.
    """
    table.require_monotonic()
    k = table.k
    H = cache(lambda label, i, xv, xb: H_value(label, table, i, xv, xb))
    worst: dict[int, tuple] = {}
    for label, i, c, d, profiles in _windows(k):
        bound = sum([H(label, i, xv, xb) for xv, xb in profiles]) / len(profiles)
        # Of tied windows the report names the first in the order no match,
        # single by c, backup by d and then c, as it always has.  The walk
        # takes the backup family by c and then d, and crossing (c, d) pairs
        # do tie exactly (on dyadic tables, for one), so the key holds the
        # order: d is None outside the backup family, c only in the no-match
        # family, and both are >= 1.
        key = (bound, d or 0, c or 0)
        if i not in worst or key < worst[i][0]:
            info = {"family": _FAMILIES[label].report, "c": c, "d": d}
            worst[i] = key, {name: v for name, v in info.items() if v is not None}
    alpha_i = tuple(worst[i][0][0] for i in range(1, k + 1))
    binding = tuple(worst[i][1] for i in range(1, k + 1))
    return EvalReport(k, sum(alpha_i) / k, alpha_i, binding)


# ---------------------------------------------------------------------------
# MPS text: one canonical layout shared by the exporter, the parser, and the
# streaming compact writer, so export -> parse -> export is byte-stable.

#: A model's NAME, the fixed lines every model's text opens with, and the
#: pattern the parser reads the NAME back with.
_MODEL_NAME = "ranking_lp_k{k}_{form}"
_HEADER = "NAME " + _MODEL_NAME + "\nOBJSENSE\n    MAX\nROWS\n N obj\n"
_MODEL_NAME_RE = re.compile(_MODEL_NAME.format(k=r"(\d+)", form="([A-Za-z0-9]+)"))


def _fmt(x: float) -> str:
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def mps_text(model: LpModel) -> str:
    return "".join(_mps_chunks(model))


def export_mps(model: LpModel, destination) -> dict:
    """Write the model as free-format MPS (objective sense, ROWS, COLUMNS,
    RHS, BOUNDS).  Returns the statistics ``write_compact_mps`` returns."""
    return _write_mps(model.k, _mps_chunks(model), destination)


def _write_mps(k: int, pieces: Iterator[str], destination) -> dict:
    """Write the text ``pieces`` of a model for ``k`` buckets to
    ``destination`` through a 4 MiB buffer.  Returns ``k``, the bytes and
    lines written and the elapsed seconds.  A write that fails leaves no
    partial file: the destination is removed and the error re-raised."""
    start = time.perf_counter()
    nbytes = nlines = 0
    fh = open(destination, "w", buffering=4 * 1024 * 1024)
    try:
        with fh:
            for piece in pieces:
                fh.write(piece)
                nbytes += len(piece)
                nlines += piece.count("\n")
    except BaseException:
        if os.path.isfile(destination):
            os.remove(destination)
        raise
    elapsed = time.perf_counter() - start
    return {"k": k, "bytes": nbytes, "lines": nlines, "elapsed": elapsed}


def _mps_chunks(model: LpModel) -> Iterator[str]:
    yield _HEADER.format(k=model.k, form=model.form)
    yield "".join([f" {r.sense} {r.name}\n" for r in model.rows])
    # Column-major transpose; entries within a column keep row order.  Text
    # is kept per coefficient object: a parsed model shares one Fraction per
    # distinct value, so each distinct value is formatted once.  The model
    # keeps every object alive meanwhile, so no id is reused.
    text: dict[int, str] = {}

    def fmt(x: Fraction) -> str:
        s = text.get(id(x))
        if s is None:
            s = text[id(x)] = _fmt(x)
        return s

    cols: list[list[str]] = [[] for _ in model.var_names]
    cols[model.objective_var].append("obj 1")
    for row in model.rows:
        prefix = row.name + " "
        for j, coef in row.coeffs:
            cols[j].append(prefix + fmt(coef))
    yield "COLUMNS\n"
    # An odd last entry leaves its line open; the exporter closes it.
    yield "".join([
        _lines(f"    {name} ", col) + "\n" * (len(col) % 2)
        for name, col in zip(model.var_names, cols)
    ])
    yield "RHS\n"
    rhs = [f"{r.name} {fmt(r.rhs)}" for r in model.rows if r.rhs != 0]
    yield _lines("    RHS ", rhs) + "\n" * (len(rhs) % 2)
    yield "BOUNDS\n"
    out = []
    for j, name in enumerate(model.var_names):
        lo, up = model.lower[j], model.upper[j]
        if lo != 0:
            out.append(f" LO BND {name} {_fmt(float(lo))}\n")
        if up is not None:
            out.append(f" UP BND {name} {_fmt(float(up))}\n")
    yield "".join(out)
    yield "ENDATA\n"


def _number(text: str) -> Fraction:
    """The value a COLUMNS, RHS or BOUNDS field gives."""
    try:
        return Fraction(float(text))
    except (ValueError, OverflowError):
        raise ValueError(f"value {text!r} is not a finite number") from None


class _DeclaredRows(dict):
    """Row name -> its COLUMNS entries; only rows declared in ROWS are keys."""

    def __missing__(self, name: str):
        raise ValueError(f"COLUMNS entry on row {name!r}, which ROWS does not declare")


def parse_mps(source) -> LpModel:
    """Reference reader for the canonical layout written by this module.

    ``source`` is MPS text, or a path: an ``os.PathLike`` or a string without
    a newline.  Raises ``ValueError`` on input the layout cannot mean: an
    unknown section, row sense or bound type, a data line before any section,
    a ROWS line other than a sense and a name, a second objective row, a row
    declared twice, a COLUMNS or RHS entry on a row ROWS does not declare, a
    COLUMNS or RHS line with an unpaired field or no entry, a column whose
    lines are not adjacent, a second COLUMNS entry for one (row, column)
    pair, a second RHS value for a row, a second bound of one type on
    a column, a bound without a value or on a column COLUMNS does not name, a
    value that is not a finite number, an objective other than one entry of
    1, any RANGES entry, a NAME other than ``ranking_lp_k{k}_{form}`` with
    k >= 1, or no ``OBJSENSE MAX`` (MPS minimizes by default).
    """
    if isinstance(source, os.PathLike) or "\n" not in source:
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    name_line = ""
    maximize = False
    section = None
    row_sense: dict[str, str] = {}
    objective_row = None
    entries = _DeclaredRows()
    value = cache(_number)  # one Fraction per distinct text
    col_index: dict[str, int] = {}
    col_order: list[str] = []
    rhs: dict[str, Fraction] = {}
    lower: dict[str, Fraction] = {}
    upper: dict[str, Fraction] = {}
    cname = None
    for line in text.splitlines():
        head = line.split()
        if not head or line[0] == "*":
            continue
        if section == "COLUMNS" and line[0] in " \t":
            if len(head) % 2 == 0 or len(head) == 1:
                raise ValueError(f"COLUMNS line with an unpaired field or no entry: {line!r}")
            if head[0] != cname:
                cname = head[0]
                if cname in col_index:
                    raise ValueError(f"column {cname!r} resumes after another column")
                j = col_index[cname] = len(col_order)
                col_order.append(cname)
            # A column's lines are adjacent, so a repeated (row, column) pair
            # is the row's last entry.
            for rname, val in zip(head[1::2], head[2::2]):
                row = entries[rname]
                if row and row[-1][0] == j:
                    raise ValueError(f"column {cname!r} has a second entry on row {rname!r}")
                row.append((j, value(val)))
            continue
        if line[0] not in " \t":
            keyword = head[0].upper()
            if keyword in ("NAME",):
                name_line = head[1] if len(head) > 1 else ""
                section = None
            elif keyword in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES"):
                section = keyword
            elif keyword == "ENDATA":
                break
            else:
                raise ValueError(f"unrecognized MPS section line: {line!r}")
            continue
        if section == "OBJSENSE":
            if head[0].upper() not in ("MAX", "MAXIMIZE"):
                raise ValueError("only maximization models are produced here")
            maximize = True
        elif section == "ROWS":
            if len(head) != 2:
                raise ValueError(f"ROWS line that is not a sense and a name: {line!r}")
            sense, rname = head[0].upper(), head[1]
            if sense == "N":
                if objective_row is not None:
                    raise ValueError(f"second objective row {rname!r} in ROWS")
                objective_row = rname
            elif sense in ("L", "E"):
                row_sense[rname] = sense
            else:
                raise ValueError(f"unsupported row sense {sense}")
            if rname in entries:
                raise ValueError(f"row {rname!r} declared twice in ROWS")
            entries[rname] = []
        elif section == "RHS":
            if len(head) % 2 == 0 or len(head) == 1:
                raise ValueError(f"RHS line with an unpaired field or no entry: {line!r}")
            for rname, val in zip(head[1::2], head[2::2]):
                if rname not in row_sense:
                    raise ValueError(
                        f"RHS entry on row {rname!r}, "
                        "which ROWS does not declare as L or E"
                    )
                if rname in rhs:
                    raise ValueError(f"second RHS value for row {rname!r}: {line!r}")
                rhs[rname] = value(val)
        elif section == "BOUNDS":
            kind = head[0].upper()
            if kind not in ("UP", "LO"):
                raise ValueError(f"unsupported bound type {kind}")
            if len(head) != 4:
                raise ValueError(f"bound without a value: {line!r}")
            if head[2] not in col_index:
                raise ValueError(
                    f"bound on column {head[2]!r}, which COLUMNS does not name"
                )
            bounds = upper if kind == "UP" else lower
            if head[2] in bounds:
                raise ValueError(f"second {kind} bound on column {head[2]!r}")
            bounds[head[2]] = value(head[3])
        elif section == "RANGES":
            raise ValueError(f"RANGES entries are not supported: {line!r}")
        else:
            raise ValueError(f"data line before any section: {line!r}")
    objective = entries.get(objective_row)
    if not objective:
        raise ValueError("no objective column found")
    if len(objective) != 1 or objective[0][1] != 1:
        raise ValueError(
            f"objective row {objective_row!r} must hold one entry of 1, "
            f"found {[(col_order[j], str(c)) for j, c in objective]}"
        )
    zero = Fraction(0)
    rows = [
        LinRow(rname, tuple(entries[rname]), sense, rhs.get(rname, zero))
        for rname, sense in row_sense.items()
    ]
    k, form = _parse_model_name(name_line)
    if not maximize:
        raise ValueError("no OBJSENSE MAX section: MPS minimizes by default")
    return LpModel(
        k,
        form,
        col_order,
        [lower.get(n, zero) for n in col_order],
        [upper.get(n) for n in col_order],
        rows,
        objective[0][0],
    )


def _parse_model_name(name: str) -> tuple[int, str]:
    """``(k, form)`` from a model's NAME."""
    match = _MODEL_NAME_RE.fullmatch(name)
    if match is None:
        pattern = _MODEL_NAME.format(k="<k>", form="<form>")
        raise ValueError(f"model name {name!r} is not {pattern}")
    k = int(match[1])
    try:
        check_bucket_count(k)
    except ValueError as exc:
        raise ValueError(f"model name {name!r} gives bucket count {k}: {exc}") from None
    return k, match[2]


# ---------------------------------------------------------------------------
# Streaming writer for the compact form.  Emits the identical byte layout
# the exporter would produce for the parsed model, but never materializes
# anything, so very large bucket counts stay within memory and time budgets.

#: Where a template is cut for a block's group prefix, where a line's head
#: goes in a paired template (see ``_Paired``), and where a field that one
#: template leaves to each column goes.
_MARK, _HEAD, _FIELD = "\0", "\1", "\2"


def _lines(head: str, entries: list[str], opened: bool = False) -> str:
    """``entries`` two per line after ``head``: every MPS text pairs its
    COLUMNS and RHS entries this way.  ``opened``: the text goes on from a
    line that holds one entry.  An odd last entry leaves its line open."""
    if opened and entries:
        return f" {entries[0]}\n" + _lines(head, entries[1:])
    it = iter(entries)
    text = "".join([f"{head}{a} {b}\n" for a, b in zip(it, it)])
    return text + head + entries[-1] if len(entries) % 2 else text


def _layouts(suffixes: list[str]) -> tuple[str, str]:
    """The template of a paired block whose entries are a group prefix
    followed by each of ``suffixes``: its text with ``_HEAD`` for each line's
    head and ``_MARK`` for the prefix, once as it starts a line and once as
    it goes on from an open one."""
    marked = [_MARK + s for s in suffixes]
    return _lines(_HEAD, marked), _lines(_HEAD, marked, True)


class _Paired:
    """The text of entries two per line after ``head``, built from literal
    entries and from blocks of templated ones.  ``n`` counts the entries so
    far: when it is odd the last line is open, and a block takes the layout
    that goes on from there."""

    def __init__(self, head: str):
        self.head, self.parts, self.n = head, [], 0

    def cut(self, layouts: tuple[str, str], field: str = "") -> tuple[list[str], list[str]]:
        """Both layouts of a template under this head, with ``field`` for
        ``_FIELD``, cut at the prefix."""
        return tuple(
            t.replace(_HEAD, self.head).replace(_FIELD, field).split(_MARK) for t in layouts
        )

    def add(self, entries: list[str]) -> None:
        self.parts.append(_lines(self.head, entries, self.n % 2))
        self.n += len(entries)

    def blocks(self, prefixes: list[str], template, start: int = 0) -> None:
        """The template's entries from the ``start``-th on after each prefix
        in turn."""
        if start:
            template = [
                [template[p][0]] + template[(p + start) % 2][start + 1 :] for p in (0, 1)
            ]
        n, count = self.n, len(template[0]) - 1
        self.parts += [
            prefix.join(template[(n + m * count) % 2]) for m, prefix in enumerate(prefixes)
        ]
        self.n = n + count * len(prefixes)

    def take(self, last: bool = False) -> str:
        """The text added since the last take; ``last`` ends an open line."""
        if last and self.n % 2:
            self.parts.append("\n")
        text = "".join(self.parts)
        self.parts.clear()
        return text


def compact_mps_chunks(k: int) -> Iterator[str]:
    """The compact-form MPS for ``k`` buckets as text pieces: a section
    part, a column or an (i, xv) block each.  ``k`` is checked at the call."""
    check_bucket_count(k)
    return _compact_pieces(k)


def _compact_pieces(k: int) -> Iterator[str]:
    """The compact-form MPS in order, one section part, column or (i, xv)
    block at a time.

    Most of the text is O(k^4) entries that come in blocks: a block's
    entries share a group prefix such as ``hb_{i}_{xv}_{xb}_`` and differ
    only after it, the same way in every block of bucket i.  So each bucket
    gets one template per kind of block, its text cut where the prefix goes,
    and a block is written as ``prefix.join(pieces)``."""
    K1, M = k + 1, _MARK
    # nums[x] == str(x): an f-string splices a str faster than it formats an
    # int.
    nums = [str(x) for x in range(K1 + 1)]
    buckets, padded = range(1, k + 1), range(1, K1 + 1)
    us = [nums[1 : i + 1] for i in range(K1)]  # bucket i's x_ustar values
    cd = [(c, d) for c in buckets for d in nums[c : k + 1]]  # bucket i's vb_i_c_d
    neg_inv_k = "-" + (_fmt(1.0 / k) if k > 1 else "1")
    yield _HEADER.format(k=k, form="compact")

    # --- ROWS section (order fixes the row indices used everywhere below).
    yield "".join([f" L monB_{i}_{j}\n" for i in buckets for j in padded])
    yield "".join([f" L monI_{i}_{j}\n" for i in padded for j in buckets])
    yield "".join([f" E fp_{i}_{j}\n" for i in buckets for j in buckets])
    # The two arm rows of every x_ustar of bucket i, after a group prefix.
    arm_rows = ["".join([f" L {M}{u}_1\n L {M}{u}_2\n" for u in x]).split(M) for x in us]
    for i in buckets:
        yield "".join([f"hs_{i}_{xv}_".join(arm_rows[i]) for xv in range(1, i + 1)])
    for i in buckets:
        for xv in range(1, i + 1):
            yield "".join([
                f"hb_{i}_{xv}_{xb}_".join(arm_rows[i]) for xb in range(xv + 1, K1 + 1)
            ])
    yield "".join([f" L abot_{i}\n" for i in buckets])
    yield "".join([f" L vs_{i}_{c}\n" for i in buckets for c in buckets])
    vb_rows = "".join([f" L vb_{M}{c}_{d}\n" for c, d in cd]).split(M)
    for i in buckets:
        yield f"{i}_".join(vb_rows)
    yield " E aavg\n"

    # --- COLUMNS section, column-major in canonical variable order.
    yield "COLUMNS\n"
    # Bucket a's first-arm and second-arm entries, one per x_ustar.
    arms = [
        (_layouts([f"{u}_1 1" for u in us[a]]), _layouts([f"{u}_2 1" for u in us[a]]))
        for a in range(K1)
    ]
    xb_runs = [
        _layouts([f"{xb}_{_FIELD}_{arm} -1" for xb in nums[2 : K1 + 1]]) for arm in "12"
    ]
    for a in padded:
        for bb in padded:
            yield _f_column(k, a, bb, nums, arms, xb_runs)

    # alpha_i columns, then alpha.
    vb_alpha = _layouts([f"{c}_{d} {k}" for c, d in cd])
    for i in buckets:
        col = _Paired(f"    alpha_{i} ")
        col.add([f"abot_{i} 1"] + [f"vs_{i}_{c} {k}" for c in buckets])
        col.blocks([f"vb_{i}_"], col.cut(vb_alpha))
        col.add([f"aavg {neg_inv_k}"])
        yield col.take(last=True)
    yield "    alpha obj 1 aavg 1\n"

    # Fp columns.
    for a in range(1, k + 1):
        for bb in range(1, k + 1):
            e = [f"fp_{a}_{bb} 1"]
            if bb <= k - 1:
                e.append(f"fp_{a}_{bb + 1} -1")
            if bb == k:
                e.append(f"abot_{a} {neg_inv_k}")
            if bb + 1 > a and bb + 1 <= k:
                e.append(f"vs_{a}_{bb + 1} -1")
            if bb + 1 > a:
                e += [f"vb_{a}_{bb + 1}_{d} -1" for d in nums[bb + 1 : k + 1]]
            yield _lines(f"    Fp_{a}_{bb} ", e) + "\n" * (len(e) % 2)

    # hs columns: two arm rows plus one vs row, all named for the group
    # "{i}_{xv}".
    for i in buckets:
        cols = "".join([
            f"    hs_{M}_{u} hs_{M}_{u}_1 1 hs_{M}_{u}_2 1\n    hs_{M}_{u} vs_{M} -1\n"
            for u in us[i]
        ]).split(M)
        yield "".join([f"{i}_{xv}".join(cols) for xv in range(1, i + 1)])

    # hb columns: two arm rows plus one vb row, all named for the group
    # "{i}_{xv}_"; the vb row ends in xb - 1, so bucket i has a template per xb.
    for i in buckets:
        cols = [
            "".join([
                f"    hb_{M}{xb}_{u} hb_{M}{xb}_{u}_1 1 hb_{M}{xb}_{u}_2 1\n"
                f"    hb_{M}{xb}_{u} vb_{M}{nums[xb - 1]} -1\n"
                for u in us[i]
            ]).split(M)
            for xb in range(2, K1 + 1)
        ]
        for xv in range(1, i + 1):
            group = f"{i}_{xv}_"
            yield "".join([group.join(pieces) for pieces in cols[xv - 1 :]])

    # Vs / Vb chain columns.
    yield "".join([
        f"    Vs_{i}_{c} vs_{i}_{c - 1} -1 vs_{i}_{c} 1\n" if c >= 2
        else f"    Vs_{i}_1 vs_{i}_1 1\n"
        for i in range(1, k + 1)
        for c in range(1, k + 1)
    ])
    chain = "".join([
        f"    Vb_{M}{c}_{d} vb_{M}{c - 1}_{d} -1 vb_{M}{c}_{d} 1\n" if c >= 2
        else f"    Vb_{M}1_{d} vb_{M}1_{d} 1\n"
        for c, d in cd
    ]).split(M)
    for i in buckets:
        yield f"{i}_".join(chain)

    # --- RHS.  Nonzero right-hand sides, paired two per line, in row order.
    yield "RHS\n"
    rhs = _Paired("    RHS ")
    # The keep arm (_2) of the no-backup family; its seat arm (_1) has rhs 0.
    for i in buckets:
        rhs.blocks([f"hs_{i}_{xv}_" for xv in range(1, i + 1)], rhs.cut(arms[i][1]))
        yield rhs.take()
    for i in buckets:
        both = rhs.cut(_layouts([f"{u}_{arm} 1" for u in us[i] for arm in "12"]))
        for xv in range(1, i + 1):
            rhs.blocks([f"hb_{i}_{xv}_{xb}_" for xb in range(xv + 1, K1 + 1)], both)
            yield rhs.take()
    # Every vs and vb rhs of the last bucket is 0.
    rhs.add([f"vs_{i}_{c} {k - i}" for i in range(1, k) for c in buckets])
    yield rhs.take()
    for i in range(1, k):
        rhs.add([f"vb_{i}_{c}_{d} {k - i if c <= i else k}" for c, d in cd])
        yield rhs.take()
    yield rhs.take(last=True)

    # --- BOUNDS: price entries and the objective chain live in [0, 1]; the
    # auxiliary bound variables need no explicit upper bound (their arm rows
    # already cap them), which keeps the section small.
    yield "BOUNDS\n"
    yield "".join([f" UP BND f_{a}_{bb} 1\n" for a in padded for bb in padded])
    yield "".join([f" UP BND alpha_{i} 1\n" for i in buckets])
    yield " UP BND alpha 1\nENDATA\n"


def _f_column(k: int, a: int, bb: int, nums: list[str], arms, xb_runs) -> str:
    """Column ``f_a_bb`` in global row order: monB, monI, fp, hs arms, hb
    arms, abot, vs, vb, aavg.  ``nums[x]`` is ``str(x)``; ``arms[a]`` holds
    the templates of bucket a's first-arm and second-arm entries, and
    ``xb_runs`` those of the first-arm and second-arm entries ``{xb}_{bb}``
    for xb = 2..k+1."""
    K1 = k + 1
    col = _Paired(f"    f_{a}_{bb} ")
    e = []
    if a >= 2:
        e.append(f"monB_{a - 1}_{bb} 1")
    if a <= k:
        e.append(f"monB_{a}_{bb} -1")
    if bb >= 2:
        e.append(f"monI_{a}_{bb - 1} -1")
    if bb <= k:
        e.append(f"monI_{a}_{bb} 1")
    if a > k:
        col.add(e)
        return col.take(last=True)
    if bb <= k:
        e.append(f"fp_{a}_{bb} -1")
    # Buckets i > a hold f_a_bb only in the seat arm (_1) of their (i, a, bb)
    # and (i, a, xb, bb) rows, once i >= bb: u's match sells to u_star.
    later = nums[max(a + 1, bb) : k + 1]
    us = nums[1 : a + 1]
    # hs arms ascend by (i, xv, xus, arm).  In bucket i = a the second arms
    # of (a, bb, xus) and (a, xv, bb) hold f_a_bb; when bb <= a, so does the
    # first arm of (a, a, bb), which sorts just before the block's last entry.
    if bb <= a:
        block = [f"hs_{a}_{bb}_{u}_2 1" for u in us]
        block += [f"hs_{a}_{xv}_{bb}_2 -1" for xv in nums[bb + 1 : a + 1]]
        block.insert(-1, f"hs_{a}_{a}_{bb}_1 -1")
        e += block
    e += [f"hs_{i}_{a}_{bb}_1 -1" for i in later]
    col.add(e)
    # hb arms ascend by (i, xv, xb, xus, arm); bucket i = a first.
    first, second = (col.cut(t) for t in arms[a])
    grid, run = (col.cut(t, nums[bb]) for t in xb_runs)
    col.blocks([f"hb_{a}_{xv}_{bb}_" for xv in range(1, min(a, bb - 1) + 1)], first)
    if bb <= a:
        if bb < a:
            col.blocks([f"hb_{a}_{bb}_{xb}_" for xb in range(bb + 1, K1 + 1)], second)
            for xv in range(bb + 1, a):
                col.blocks([f"hb_{a}_{xv}_"], run, xv - 1)  # xb = xv + 1..K1
        # xv = a: the first arm of (a, a, xb, bb) sorts just before its second.
        if bb == a:
            tail = [f"{u}_2 1" for u in us[:-1]] + [f"{bb}_1 -1", f"{bb}_2 1"]
        else:
            tail = [f"{bb}_1 -1", f"{bb}_2 -1"]
        col.blocks(
            [f"hb_{a}_{a}_{xb}_" for xb in range(a + 1, K1 + 1)], col.cut(_layouts(tail))
        )
    col.blocks([f"hb_{i}_{a}_" for i in later], grid, a - 1)  # xb = a + 1..K1
    # vs / vb rows (coefficient k - a vanishes for the last bucket).  vb rows
    # ascend by (c, d): the backup-column family sits at c < bb, the
    # match-column family at c = bb.
    e = []
    if bb <= k and k - a > 0:
        e.append(f"vs_{a}_{bb} {k - a}")
    e += [f"vb_{a}_{c}_{bb - 1} {a}" for c in nums[a + 1 : bb]]
    if bb <= k and k - a > 0:
        e += [f"vb_{a}_{bb}_{d} {k - a}" for d in nums[bb : k + 1]]
    col.add(e)
    return col.take(last=True)


def write_compact_mps(k: int, destination) -> dict:
    """Stream the compact-form model for ``k`` buckets to ``destination``.

    Returns basic statistics (``k``, bytes and lines written, elapsed
    seconds).  ``k`` is checked before the file is opened.
    """
    return _write_mps(k, compact_mps_chunks(k), destination)
