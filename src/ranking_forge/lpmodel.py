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

A model in memory is a handful of flat lists, in row order: each row's
name, sense and right-hand side, and each entry's row, column and
coefficient (coordinate form, a row's entries ascending by column), so it
holds no object per row or per entry.  Coefficients are exact rationals
there, one ``Fraction`` per distinct value; they become floats at solve and
export time.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Generator, Iterator, NamedTuple, Optional

from .gains import H_value, PriceTable, h_forms
from .oracles import MATCHED_NO_BACKUP, MATCHED_WITH_BACKUP, UNMATCHED, ClassLabel
from .ranks import check_bucket_count

#: The model forms ``build_lp`` makes; see the module docstring.
FORMS = ("substituted", "naive", "compact")


@dataclass
class LpModel:
    """An LP as flat lists: per row, in row order, its name, its sense ('L'
    for <=, 'E' for =) and its right-hand side; per entry, in coordinate
    form and row order, its row, column and coefficient.  A row's entries
    ascend by column."""

    k: int
    form: str
    var_names: list[str]
    lower: list[Fraction]
    upper: list[Optional[Fraction]]
    objective_var: int
    row_names: list[str]
    senses: list[str]
    rhs: list[Fraction]
    entry_row: list[int]
    entry_col: list[int]
    entry_coef: list[Fraction]

    @property
    def row_count(self) -> int:
        return len(self.row_names)


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
    row: str  # a window's row name in the direct forms
    report: str  # the family as ``EvalReport.binding`` names it


#: Every case and window family, in row order, which is also tie order.
_FAMILIES = {
    UNMATCHED: _Family("abot_{i}", "no_match"),
    MATCHED_NO_BACKUP: _Family("as_{i}_{c}", "single"),
    MATCHED_WITH_BACKUP: _Family("ab_{i}_{c}_{d}", "backup"),
}


def _h_cases(k: int) -> Iterator[HCase]:
    """Every pointwise-bound case in variable order: no match, then no
    backup, then backup."""
    buckets = range(1, k + 1)
    for i in buckets:
        for xus in buckets:
            yield UNMATCHED, i, None, None, xus
    for i in buckets:
        for xv in buckets:
            for xus in buckets:
                yield MATCHED_NO_BACKUP, i, xv, None, xus
    for i in buckets:
        for xv in buckets:
            for xb in range(xv + 1, k + 2):
                for xus in buckets:
                    yield MATCHED_WITH_BACKUP, i, xv, xb, xus


def _two_arm_cases(k: int) -> Iterator[HCase]:
    """The cases of ``_h_cases`` whose bound is a minimum of two arms, in the
    same order: a match bucket and a new-vertex bucket both at most ``x_u``
    (the only cases the compact form gives a variable)."""
    buckets = range(1, k + 1)
    for i in buckets:
        for xv in range(1, i + 1):
            for xus in range(1, i + 1):
                yield MATCHED_NO_BACKUP, i, xv, None, xus
    for i in buckets:
        for xv in range(1, i + 1):
            for xb in range(xv + 1, k + 2):
                for xus in range(1, i + 1):
                    yield MATCHED_WITH_BACKUP, i, xv, xb, xus


def _windows(k: int) -> Iterator[tuple]:
    """Every window of the LP, once, in row order, as ``(label, i, c, d,
    profiles)``: ``alpha_i`` is at most the average of h over the profiles
    ``(x_v, x_b)``, each taken over every x_ustar.  The match range is c..d,
    or c..k when d is None (single family); the backup bucket is d + 1.
    Every form's averaging rows and the price-table evaluator walk this."""
    buckets = range(1, k + 1)
    for i in buckets:
        yield UNMATCHED, i, None, None, [(None, None)]
    for i in buckets:
        for c in buckets:
            yield MATCHED_NO_BACKUP, i, c, None, [
                (xv, None) for xv in range(c, k + 1)
            ]
    for i in buckets:
        for c in buckets:
            for d in range(c, k + 1):
                yield MATCHED_WITH_BACKUP, i, c, d, [
                    (xv, d + 1) for xv in range(c, d + 1)
                ]


def _build(k: int, form: str) -> LpModel:
    """Build any of the three forms in memory.

    Every form has the price-table and alpha columns, the monotonicity rows,
    one variable with its arm rows per case it does not inline, and the tie
    row.  The direct forms then average the cases of each window; the
    compact form telescopes the windows through its own prefix-sum and
    slack columns, in the streaming writer's row and column order.  Each row
    appends its entries, ascending by column, to the model's flat entry
    lists and then closes with its name, sense and right-hand side.
    Coefficients are counted as integers, and each distinct value becomes
    one ``Fraction`` shared by every entry that holds it, so a model of any
    size is a handful of lists and a few numbers for the collector to track,
    and ``mps_text`` formats each value once.
    """
    naive, compact = form == "naive", form == "compact"
    K1 = k + 1
    buckets, padded = range(1, k + 1), range(1, K1 + 1)
    shared = cache(lambda value: value)  # equal values -> the first one made
    frac = cache(lambda num, den: shared(Fraction(num, den)))
    zero, one, minus_one = frac(0, 1), frac(1, 1), frac(-1, 1)
    names = [f"f_{i}_{j}" for i in padded for j in padded]
    f_idx = {(i, j): (i - 1) * K1 + j - 1 for i in padded for j in padded}
    names += [f"alpha_{i}" for i in buckets]
    names.append("alpha")
    alpha = len(names) - 1
    alpha_0 = alpha - K1  # alpha_0 + i is alpha_i
    row_names, senses, rhs = [], [], []
    entry_row, entry_col, entry_coef = [], [], []
    cols, coefs = entry_col.append, entry_coef.append

    def row(name: str, sense: str, value: Fraction) -> None:
        """Close a row: the entries appended since the last row are its."""
        entry_row.extend([len(row_names)] * (len(entry_col) - len(entry_row)))
        row_names.append(name)
        senses.append(sense)
        rhs.append(value)

    # Monotonicity of the price table over the padded domain.
    for i in buckets:
        for j in padded:
            entry_col += f_idx[i, j], f_idx[i + 1, j]
            entry_coef += minus_one, one
            row(f"monB_{i}_{j}", "L", zero)
    for i in padded:
        for j in buckets:
            entry_col += f_idx[i, j], f_idx[i, j + 1]
            entry_coef += one, minus_one
            row(f"monI_{i}_{j}", "L", zero)
    fp_0 = len(names) - k - 1  # fp_0 + a * k + b is Fp_a_b
    if compact:
        # Prefix sums of the price table: Fp_a_b = Fp_a_(b-1) + f_a_b.
        names += [f"Fp_{a}_{b}" for a in buckets for b in buckets]
        for a in buckets:
            for b in buckets:
                col = fp_0 + a * k + b
                e = (f_idx[a, b], col - 1, col) if b > 1 else (f_idx[a, b], col)
                entry_col += e
                entry_coef += [minus_one] * (len(e) - 1) + [one]
                row(f"fp_{a}_{b}", "E", zero)

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
        label, i, xv, xb, xus = case
        if label is MATCHED_WITH_BACKUP:
            name = f"hb_{i}_{xv}_{xb}_{xus}"
        elif label is MATCHED_NO_BACKUP:
            name = f"hs_{i}_{xv}_{xus}"
        else:
            name = f"hbot_{i}_{xus}"
        names.append(name)
        for arm, (const, terms) in enumerate(arms, start=1):
            for j, coef in sorted([(f_idx[ij], -coef) for coef, ij in terms]):
                cols(j)
                coefs(frac(coef, 1))
            cols(idx)
            coefs(one)
            rname = f"hb0_{i}_{xus}" if label is UNMATCHED else f"{name}_{arm}"
            row(rname, "L", frac(const, 1))

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
            counts[alpha_0 + i] = -n  # alpha_i's coefficient, -(-n) / n = 1
            row_cols = sorted([j for j, v in counts.items() if v])
            entry_col += row_cols
            entry_coef += [frac(-counts[j], n) for j in row_cols]
            row(_FAMILIES[label].row.format(i=i, c=c, d=d), "L", frac(const, n))
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
            if label is UNMATCHED:
                entry_col += alpha_0 + i, fp_0 + i * k + k
                entry_coef += one, frac(-1, k)
                row(f"abot_{i}", "L", zero)
                continue
            backup = label is MATCHED_WITH_BACKUP
            name = f"vb_{i}_{c}_{d}" if backup else f"vs_{i}_{c}"
            col = len(names)
            names.append("V" + name[1:])
            if i < k:
                cols(f_idx[i, c])
                coefs(frac(k - i, 1))
            if backup and c > i:
                cols(f_idx[i, profiles[0][1]])
                coefs(frac(i, 1))
            cols(alpha_0 + i)
            coefs(frac(k, 1))
            if c > i:
                cols(fp_0 + i * k + c - 1)
                coefs(minus_one)
            else:
                entry_col += range(h, h + i)
                entry_coef += [minus_one] * i
                h += i
            cols(col)
            coefs(one)
            if len(profiles) > 1:
                # V' is the next column in the single family; in the backup
                # family it is k - c columns on, past the windows c..d' with
                # d' > d and c+1..d' with d' < d.
                cols(col + (k - c if backup else 1))
                coefs(minus_one)
            row(name, "L", frac(k if backup and c > i else k - i, 1))
    # The arm rows cap the variables; the direct forms bound them by 2 too.
    upper = [one] * (alpha + 1) + [None] * (aux_0 - alpha - 1)
    upper += [None if compact else frac(2, 1)] * (len(names) - aux_0)

    entry_col += range(alpha_0 + 1, alpha + 1)
    entry_coef += [frac(-1, k)] * k + [one]
    row("aavg", "E", zero)
    return LpModel(
        k, form, names, [zero] * len(names), upper, alpha,
        row_names, senses, rhs, entry_row, entry_col, entry_coef,
    )


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
_HEADER_LINES = _HEADER.count("\n")
_MODEL_NAME_RE = re.compile(_MODEL_NAME.format(k=r"(\d+)", form="([A-Za-z0-9]+)"))

#: Text pieces in order; the generator returns the number of lines they
#: hold, counted from its entries rather than from the text.
_Pieces = Generator[str, None, int]


def _fmt(x: float) -> str:
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def mps_text(model: LpModel) -> str:
    """The model as free-format MPS text: NAME, ``OBJSENSE MAX``, ROWS
    (the objective row, then every row in model order), COLUMNS (column by
    column in variable order, each column's entries in row order, two per
    line), RHS (the nonzero right-hand sides in row order, two per line),
    BOUNDS (per column, LO if nonzero and then UP if set) and ENDATA.  For a
    compact model the text equals ``"".join(compact_mps_chunks(k))``, and
    ``parse_mps`` reads it back to a model with the same text."""
    return "".join(_mps_chunks(model))


def export_mps(model: LpModel, destination) -> dict:
    """Write ``mps_text(model)`` to ``destination``.  Returns the
    statistics ``write_compact_mps`` returns."""
    return _write_mps(model.k, _mps_chunks(model), destination)


def _write_mps(k: int, pieces: _Pieces, destination) -> dict:
    """Write the text ``pieces`` of a model for ``k`` buckets to
    ``destination`` through a 4 MiB buffer, in ASCII.  Returns ``k``, the
    bytes written, the lines ``pieces`` returns and the elapsed seconds.  A
    write that fails, a piece that is not ASCII included, leaves no partial
    file: the destination is removed and the error re-raised."""
    start = time.perf_counter()
    nbytes = 0
    fh = open(destination, "w", buffering=4 * 1024 * 1024, encoding="ascii")
    try:
        with fh:
            while True:
                try:
                    piece = next(pieces)
                except StopIteration as end:
                    nlines = end.value
                    break
                fh.write(piece)
                nbytes += len(piece)
    except BaseException:
        if os.path.isfile(destination):
            os.remove(destination)
        raise
    elapsed = time.perf_counter() - start
    return {"k": k, "bytes": nbytes, "lines": nlines, "elapsed": elapsed}


def _mps_chunks(model: LpModel) -> _Pieces:
    yield _HEADER.format(k=model.k, form=model.form)
    names = model.row_names
    yield "".join([f" {sense} {name}\n" for sense, name in zip(model.senses, names)])
    # Column-major transpose; entries within a column keep row order.  Text
    # is kept per coefficient object: the builder and the parser share one
    # Fraction per distinct value, so each distinct value is formatted once.
    # The model keeps every object alive meanwhile, so no id is reused.
    text: dict[int, str] = {}
    cols: list[list[str]] = [[] for _ in model.var_names]
    cols[model.objective_var].append("obj 1")
    prefixes = [name + " " for name in names]
    for r, j, coef in zip(model.entry_row, model.entry_col, model.entry_coef):
        s = text.get(id(coef))
        if s is None:
            s = text[id(coef)] = _fmt(coef)
        cols[j].append(prefixes[r] + s)
    yield "COLUMNS\n"
    # An odd last entry leaves its line open; the exporter closes it.
    yield "".join([
        _lines(f"    {name} ", col) + "\n" * (len(col) % 2)
        for name, col in zip(model.var_names, cols)
    ])
    yield "RHS\n"
    rhs = [f"{name} {text.get(id(v)) or _fmt(v)}" for name, v in zip(names, model.rhs) if v]
    yield _lines("    RHS ", rhs) + "\n" * (len(rhs) % 2)
    yield "BOUNDS\n"
    out = []
    for j, name in enumerate(model.var_names):
        lo, up = model.lower[j], model.upper[j]
        if lo:
            out.append(f" LO BND {name} {_fmt(float(lo))}\n")
        if up is not None:
            out.append(f" UP BND {name} {_fmt(float(up))}\n")
    yield "".join(out)
    yield "ENDATA\n"
    # A row, a bound and each of the four section lines after ROWS is a line,
    # and n paired entries take (n + 1) // 2.
    return (
        _HEADER_LINES + len(names) + 4 + len(out)
        + sum([(len(col) + 1) // 2 for col in cols]) + (len(rhs) + 1) // 2
    )


def _number(text: str) -> Fraction:
    """The value a COLUMNS, RHS or BOUNDS field gives."""
    try:
        return Fraction(float(text))
    except (ValueError, OverflowError):
        raise ValueError(f"value {text!r} is not a finite number") from None


class _DeclaredRows(dict):
    """Row name -> its COLUMNS entries' columns and values, two lists; only
    rows declared in ROWS are keys."""

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
    k >= 1, no ``OBJSENSE MAX`` (MPS minimizes by default), or a line that
    is not ASCII (MPS names are ASCII, so a character is a byte).
    """
    if isinstance(source, os.PathLike) or "\n" not in source:
        # A byte above 127 reads as a lone surrogate, caught below.
        with open(source, encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
    else:
        text = source
    if not text.isascii():
        for number, line in enumerate(text.split("\n"), start=1):
            if not line.isascii():
                raise ValueError(f"line {number} is not ASCII: {line!r}")
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
                row_cols, row_values = entries[rname]
                if row_cols and row_cols[-1] == j:
                    raise ValueError(f"column {cname!r} has a second entry on row {rname!r}")
                row_cols.append(j)
                row_values.append(value(val))
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
            entries[rname] = [], []
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
    objective_cols, objective_values = entries.get(objective_row) or ([], [])
    if not objective_cols:
        raise ValueError("no objective column found")
    if len(objective_cols) != 1 or objective_values[0] != 1:
        found = [(col_order[j], str(c)) for j, c in zip(objective_cols, objective_values)]
        raise ValueError(
            f"objective row {objective_row!r} must hold one entry of 1, found {found}"
        )
    row_names = list(row_sense)
    entry_row, entry_col, entry_coef = [], [], []
    for r, rname in enumerate(row_names):
        row_cols, row_values = entries[rname]
        entry_row += [r] * len(row_cols)
        entry_col += row_cols
        entry_coef += row_values
    k, form = _parse_model_name(name_line)
    if not maximize:
        raise ValueError("no OBJSENSE MAX section: MPS minimizes by default")
    zero = Fraction(0)
    return LpModel(
        k,
        form,
        col_order,
        [lower.get(n, zero) for n in col_order],
        [upper.get(n) for n in col_order],
        objective_cols[0],
        row_names,
        list(row_sense.values()),
        [rhs.get(n, zero) for n in row_names],
        entry_row,
        entry_col,
        entry_coef,
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
#: goes in a paired template (see ``_Paired``), and where bucket a's blocks
#: leave each f column's bb (see ``_f_columns``).
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

    def cut(self, layouts: tuple[str, str]) -> tuple[list[str], list[str]]:
        """Both layouts of a template under this head, cut at the prefix."""
        return tuple(t.replace(_HEAD, self.head).split(_MARK) for t in layouts)

    def add(self, entries: list[str]) -> None:
        self.parts.append(_lines(self.head, entries, self.n % 2))
        self.n += len(entries)

    def blocks(self, prefixes: list[str], template) -> None:
        """The template's entries after each prefix in turn."""
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


def _one_per_line(lines: list[str]) -> _Pieces:
    """``lines``, each holding one newline, as one piece; returns their
    count."""
    yield "".join(lines)
    return len(lines)


def _template(text: str) -> tuple[list[str], int]:
    """A block template's text cut where the group prefix goes, and the
    lines every block written from it holds."""
    return text.split(_MARK), text.count("\n")


def compact_mps_chunks(k: int) -> _Pieces:
    """The compact-form MPS for ``k`` buckets as text pieces: a section
    part, a column or an (i, xv) block each.  The generator returns the
    text's line count.  ``k`` is checked at the call."""
    check_bucket_count(k)
    return _compact_pieces(k)


def _compact_pieces(k: int) -> _Pieces:
    """The compact-form MPS in order, one section part, column or (i, xv)
    block at a time; returns the line count.

    Most of the text is O(k^4) entries that come in blocks: a block's
    entries share a group prefix such as ``hb_{i}_{xv}_{xb}_`` and differ
    only after it, the same way in every block of bucket i.  So each bucket
    gets one template per kind of block, its text cut where the prefix goes,
    and a block is written as ``prefix.join(pieces)``.  An f column of
    bucket a is a range of each of the bucket's blocks, with bb filled in
    (``_f_columns``).  Lines are counted as the pieces are made: one per
    row, bound or chain column, a template's count per block, and
    ``(n + 1) // 2`` for n paired entries."""
    K1, M = k + 1, _MARK
    # nums[x] == str(x): an f-string splices a str faster than it formats an
    # int.
    nums = [str(x) for x in range(K1 + 1)]
    buckets, padded = range(1, k + 1), range(1, K1 + 1)
    us = [nums[1 : i + 1] for i in range(K1)]  # bucket i's x_ustar values
    cd = [(c, d) for c in buckets for d in nums[c : k + 1]]  # bucket i's vb_i_c_d
    neg_inv_k = "-" + (_fmt(1.0 / k) if k > 1 else "1")
    yield _HEADER.format(k=k, form="compact")
    lines = _HEADER_LINES

    # --- ROWS section (order fixes the row indices used everywhere below).
    lines += yield from _one_per_line([f" L monB_{i}_{j}\n" for i in buckets for j in padded])
    lines += yield from _one_per_line([f" L monI_{i}_{j}\n" for i in padded for j in buckets])
    lines += yield from _one_per_line([f" E fp_{i}_{j}\n" for i in buckets for j in buckets])
    # The two arm rows of every x_ustar of bucket i, after a group prefix.
    arm_rows = [_template("".join([f" L {M}{u}_1\n L {M}{u}_2\n" for u in x])) for x in us]
    for i in buckets:
        arms, n = arm_rows[i]
        yield "".join([f"hs_{i}_{xv}_".join(arms) for xv in range(1, i + 1)])
        lines += i * n
    for i in buckets:
        arms, n = arm_rows[i]
        for xv in range(1, i + 1):
            yield "".join([f"hb_{i}_{xv}_{xb}_".join(arms) for xb in range(xv + 1, K1 + 1)])
            lines += (K1 - xv) * n
    lines += yield from _one_per_line([f" L abot_{i}\n" for i in buckets])
    lines += yield from _one_per_line([f" L vs_{i}_{c}\n" for i in buckets for c in buckets])
    vb_rows, n = _template("".join([f" L vb_{M}{c}_{d}\n" for c, d in cd]))
    for i in buckets:
        yield f"{i}_".join(vb_rows)
        lines += n
    yield " E aavg\n"

    # --- COLUMNS section, column-major in canonical variable order.
    yield "COLUMNS\n"
    lines += 2  # aavg and COLUMNS
    for a in padded:
        lines += yield from _f_columns(k, a, nums)

    # alpha_i columns, then alpha.
    vb_alpha = _layouts([f"{c}_{d} {k}" for c, d in cd])
    for i in buckets:
        col = _Paired(f"    alpha_{i} ")
        col.add([f"abot_{i} 1"] + [f"vs_{i}_{c} {k}" for c in buckets])
        col.blocks([f"vb_{i}_"], col.cut(vb_alpha))
        col.add([f"aavg {neg_inv_k}"])
        yield col.take(last=True)
        lines += (col.n + 1) // 2
    yield "    alpha obj 1 aavg 1\n"
    lines += 1

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
            lines += (len(e) + 1) // 2

    # hs columns: two arm rows plus one vs row, all named for the group
    # "{i}_{xv}".
    for i in buckets:
        cols, n = _template("".join([
            f"    hs_{M}_{u} hs_{M}_{u}_1 1 hs_{M}_{u}_2 1\n    hs_{M}_{u} vs_{M} -1\n"
            for u in us[i]
        ]))
        yield "".join([f"{i}_{xv}".join(cols) for xv in range(1, i + 1)])
        lines += i * n

    # hb columns: two arm rows plus one vb row, all named for the group
    # "{i}_{xv}_"; the vb row ends in xb - 1, so bucket i has a template per xb.
    for i in buckets:
        cols = [
            _template("".join([
                f"    hb_{M}{xb}_{u} hb_{M}{xb}_{u}_1 1 hb_{M}{xb}_{u}_2 1\n"
                f"    hb_{M}{xb}_{u} vb_{M}{nums[xb - 1]} -1\n"
                for u in us[i]
            ]))
            for xb in range(2, K1 + 1)
        ]
        for xv in range(1, i + 1):
            group, block = f"{i}_{xv}_", cols[xv - 1 :]
            yield "".join([group.join(pieces) for pieces, _ in block])
            lines += sum([n for _, n in block])

    # Vs / Vb chain columns.
    lines += yield from _one_per_line([
        f"    Vs_{i}_{c} vs_{i}_{c - 1} -1 vs_{i}_{c} 1\n" if c >= 2
        else f"    Vs_{i}_1 vs_{i}_1 1\n"
        for i in range(1, k + 1)
        for c in range(1, k + 1)
    ])
    chain, n = _template("".join([
        f"    Vb_{M}{c}_{d} vb_{M}{c - 1}_{d} -1 vb_{M}{c}_{d} 1\n" if c >= 2
        else f"    Vb_{M}1_{d} vb_{M}1_{d} 1\n"
        for c, d in cd
    ]))
    for i in buckets:
        yield f"{i}_".join(chain)
        lines += n

    # --- RHS.  Nonzero right-hand sides, paired two per line, in row order.
    yield "RHS\n"
    rhs = _Paired("    RHS ")
    # The keep arm (_2) of the no-backup family; its seat arm (_1) has rhs 0.
    for i in buckets:
        keep = rhs.cut(_layouts([f"{u}_2 1" for u in us[i]]))
        rhs.blocks([f"hs_{i}_{xv}_" for xv in range(1, i + 1)], keep)
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
    lines += 1 + (rhs.n + 1) // 2  # RHS and its entries

    # --- BOUNDS: price entries and the objective chain live in [0, 1]; the
    # auxiliary bound variables need no explicit upper bound (their arm rows
    # already cap them), which keeps the section small.
    yield "BOUNDS\n"
    lines += yield from _one_per_line([
        f" UP BND f_{a}_{bb} 1\n" for a in padded for bb in padded
    ])
    lines += yield from _one_per_line([f" UP BND alpha_{i} 1\n" for i in buckets])
    yield " UP BND alpha 1\nENDATA\n"
    return lines + 3  # BOUNDS, alpha's bound and ENDATA


class _Seg:
    """A block of entries two per line after ``head``, cut into the units a
    column takes a range of: unit m is ``prefixes[m]`` followed by each of
    ``suffixes`` from the ``skips[m]``-th on.  ``text[p][m]`` is unit m as
    it falls when the block's first entry starts a line (p = 0) or goes on
    from an open one (p = 1); ``start[m]`` counts the entries before unit m."""

    def __init__(self, head: str, prefixes: list[str], suffixes: list[str], skips=None):
        skips = skips or [0] * len(prefixes)
        cut = [t.replace(_HEAD, head).split(_MARK) for t in _layouts(suffixes)]
        self.start = list(accumulate([len(suffixes) - s for s in skips], initial=0))
        self.text = [
            [
                # q: the layout of the unit's first entry, the template's
                # s-th, which falls that way in layout q + s.
                prefix.join([cut[q][0]] + cut[(q + s) % 2][s + 1 :])
                for prefix, s, q in zip(prefixes, skips, [(p + n) % 2 for n in self.start])
            ]
            for p in (0, 1)
        ]

    def take(self, n: int, s: int, t: int) -> tuple[list[str], int]:
        """Units s..t-1 as they fall after ``n`` entries, and their entry
        count."""
        start = self.start
        return self.text[(n - start[s]) % 2][s:t], start[t] - start[s]


def _f_columns(k: int, a: int, nums: list[str]) -> _Pieces:
    """Columns ``f_a_1`` .. ``f_a_(k+1)``, each in global row order: monB,
    monI, fp, hs arms, hb arms, vs, vb; returns their line count.
    ``nums[x]`` is ``str(x)``.  A column takes a range of units of each of
    bucket a's blocks, which are built once with ``_FIELD`` for bb; its few
    other entries are literal."""
    K1, F = k + 1, _FIELD
    lines = 0
    head = f"    f_{nums[a]}_{F} "
    if a <= k:
        us, later, xbs = nums[1 : a + 1], nums[a + 1 : K1], nums[a + 1 : K1 + 1]
        # Buckets i > a hold f_a_bb only in the seat arm (_1) of their
        # (i, a, bb) and (i, a, xb, bb) rows, once i >= bb: u's match sells
        # to u_star.  One unit per i.
        hs_later = _Seg(head, [f"hs_{i}_" for i in later], [f"{a}_{F}_1 -1"])
        grid = _Seg(head, [f"hb_{i}_" for i in later], [f"{a}_{xb}_{F}_1 -1" for xb in xbs])
        # Bucket a's hb arms ascend by (xv, xb, xus, arm): the first arms of
        # (a, xv, bb) per xv, the second arms of (a, bb, xb) per xb, the
        # second arms of (a, xv, xb, bb) per xv, and at xv = a the first arm
        # of (a, a, xb, bb) just before its second, after the second arms of
        # (a, a, xb, xus < a) when bb = a.
        first = _Seg(head, [f"hb_{a}_{xv}_" for xv in us], [f"{F}_{u}_1 1" for u in us])
        second = _Seg(
            head, [f"hb_{a}_{F}_{xb}_" for xb in nums[2 : K1 + 1]], [f"{u}_2 1" for u in us]
        )
        run = _Seg(
            head, [f"hb_{a}_{xv}_" for xv in nums[2:a]],
            [f"{xb}_{F}_2 -1" for xb in nums[3 : K1 + 1]], list(range(a - 2)),
        )
        tail = _Seg(head, [f"hb_{a}_{a}_"], [f"{xb}_{F}_{arm} -1" for xb in xbs for arm in "12"])
        tail_a = _Seg(head, [f"hb_{a}_{a}_"], [
            e for xb in xbs
            for e in [f"{xb}_{u}_2 1" for u in us[:-1]] + [f"{xb}_{F}_1 -1", f"{xb}_{F}_2 1"]
        ])
        # vb rows ascend by (c, d): the match-column family sits at c = bb.
        vb = _Seg(head, [f"vb_{a}_{F}_{d} " for d in nums[1:K1]], [nums[k - a]])
    for bb in range(1, K1 + 1):
        b = nums[bb]
        e = [f"monB_{a - 1}_{b} 1"] if a >= 2 else []
        if a <= k:
            e.append(f"monB_{a}_{b} -1")
        if bb >= 2:
            e.append(f"monI_{a}_{nums[bb - 1]} -1")
        if bb <= k:
            e.append(f"monI_{a}_{b} 1")
        if a > k:
            yield _lines(head, e).replace(_FIELD, b) + "\n" * (len(e) % 2)
            lines += (len(e) + 1) // 2
            continue
        if bb <= k:
            e.append(f"fp_{a}_{b} -1")
        # In bucket i = a the second arms of (a, bb, xus) and (a, xv, bb)
        # hold f_a_bb; when bb <= a, so does the first arm of (a, a, bb),
        # which sorts just before the block's last entry.
        if bb <= a:
            e += [f"hs_{a}_{b}_{u}_2 1" for u in us]
            e += [f"hs_{a}_{xv}_{b}_2 -1" for xv in nums[bb + 1 : a + 1]]
            e.insert(-1, f"hs_{a}_{a}_{b}_1 -1")
        cut = max(0, bb - a - 1)  # later buckets from max(a + 1, bb) on
        blocks = [(hs_later, cut, k - a), (first, 0, min(a, bb - 1))]
        if bb < a:
            blocks += [(second, bb - 1, k), (run, bb - 1, a - 2), (tail, 0, 1)]
        elif bb == a:
            blocks.append((tail_a, 0, 1))
        blocks.append((grid, cut, k - a))
        parts, n = [_lines(head, e)], len(e)
        for block, s, t in blocks:
            text, m = block.take(n, s, t)
            parts += text
            n += m
        # vs / vb rows (coefficient k - a vanishes for the last bucket): the
        # backup-column family of vb sits at c < bb, before vb's block.
        match = bb <= k and a < k
        e = [f"vs_{a}_{b} {k - a}"] if match else []
        e += [f"vb_{a}_{c}_{nums[bb - 1]} {a}" for c in nums[a + 1 : bb]]
        parts.append(_lines(head, e, n % 2))
        n += len(e)
        if match:
            text, m = vb.take(n, bb - 1, k)
            parts += text
            n += m
        if n % 2:
            parts.append("\n")
        yield "".join(parts).replace(_FIELD, b)
        lines += (n + 1) // 2
    return lines


def write_compact_mps(k: int, destination) -> dict:
    """Stream the compact-form model for ``k`` buckets to ``destination``.

    Returns basic statistics (``k``, bytes and lines written, elapsed
    seconds).  ``k`` is checked before the file is opened.
    """
    return _write_mps(k, compact_mps_chunks(k), destination)
