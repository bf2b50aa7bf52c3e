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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .gains import H_value, PriceTable, h_forms
from .oracles import ClassLabel
from .ranks import check_bucket_count

Coef = tuple[int, Fraction]


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
    def var_count(self) -> int:
        return len(self.var_names)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def nonzeros(self) -> int:
        return sum(len(r.coeffs) for r in self.rows)

    def counts(self) -> dict[str, int]:
        by_prefix: dict[str, int] = {}
        for name in self.var_names:
            by_prefix[name.split("_")[0]] = by_prefix.get(name.split("_")[0], 0) + 1
        return {
            "variables": self.var_count,
            "rows": self.row_count,
            "nonzeros": self.nonzeros,
            **{f"vars_{p}": c for p, c in sorted(by_prefix.items())},
        }


def build_lp(k: int, form: str = "substituted") -> LpModel:
    """Assemble the factor-revealing LP for ``k`` buckets.

    The optimum is a certified lower bound on the greedy matcher's
    approximation ratio.  See the module docstring for the three forms.
    """
    check_bucket_count(k)
    if form not in ("substituted", "naive", "compact"):
        raise ValueError(f"unknown form {form!r}")
    return _build(k, form)


#: One pointwise-bound case ``(label, x_u, x_v, x_b, x_ustar)``, in the
#: argument order of ``h_forms``; absent buckets are ``None``.
HCase = tuple[ClassLabel, int, Optional[int], Optional[int], int]

_H_PREFIX = {
    ClassLabel.UNMATCHED: "hbot",
    ClassLabel.MATCHED_NO_BACKUP: "hs",
    ClassLabel.MATCHED_WITH_BACKUP: "hb",
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


#: A window's row name in the direct forms.
_DIRECT_ROW = {
    ClassLabel.UNMATCHED: "abot_{i}",
    ClassLabel.MATCHED_NO_BACKUP: "as_{i}_{c}",
    ClassLabel.MATCHED_WITH_BACKUP: "ab_{i}_{c}_{d}",
}


class _Interned(dict):
    """``key`` -> ``make(*key)``, made once per distinct key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(*key)
        return value


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
    frac = _Interned(Fraction)  # (numerator, denominator) -> value
    entry = _Interned(lambda j, num, den: (j, frac[num, den]))  # -> (j, value)
    zero = frac[0, 1]
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
            (entry[f_idx[i, j], -1, 1], entry[f_idx[i + 1, j], 1, 1]),
            "L", zero,
        )
        for i in buckets
        for j in padded
    ]
    rows += [
        LinRow(
            f"monI_{i}_{j}",
            (entry[f_idx[i, j], 1, 1], entry[f_idx[i, j + 1], -1, 1]),
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
                e = [entry[f_idx[a, b], -1, 1], entry[col - 1, -1, 1], entry[col, 1, 1]]
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
        parts = [_H_PREFIX[case[0]]] + [str(x) for x in case[1:] if x is not None]
        name = "_".join(parts)
        names.append(name)
        for arm, (const, terms) in enumerate(arms, start=1):
            e = sorted([entry[f_idx[ij], -coef, 1] for coef, ij in terms])
            e.append(entry[idx, 1, 1])
            if case[0] is ClassLabel.UNMATCHED:
                rname = f"hb0_{case[1]}_{case[4]}"
            else:
                rname = f"{name}_{arm}"
            rows.append(LinRow(rname, tuple(e), "L", frac[const, 1]))

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
            e = [entry[j, -v, n] for j, v in counts.items() if v]
            e.append(entry[alpha_0 + i, 1, 1])
            e.sort()
            name = _DIRECT_ROW[label].format(i=i, c=c, d=d)
            rows.append(LinRow(name, tuple(e), "L", frac[const, n]))
    else:
        # Telescoped windows.  abot_i averages the prefix sum Fp_i_k.  Any
        # other window has a nonnegative column V (Vs_i_c, Vb_i_c_d) and a
        # row V <= V' + S - k alpha_i (vs_i_c, vb_i_c_d), where S sums h over
        # the k cases of its first profile and V' belongs to the window
        # without that profile, so V keeps the whole window.  S holds the
        # variables of the cases with x_ustar <= i, which come in row order
        # from h, i per row with c <= i; the rest is affine: k - i copies of
        # 1 - f_i_c and, for c > i, the prefix Fp_i_(c-1), plus i copies of
        # 1 - f_i_xb in the backup family.
        h = aux_0
        for label, i, c, d, profiles in _windows(k):
            if label is ClassLabel.UNMATCHED:
                e = (entry[alpha_0 + i, 1, 1], entry[fp_0 + i * k + k, -1, k])
                rows.append(LinRow(f"abot_{i}", e, "L", zero))
                continue
            backup = label is ClassLabel.MATCHED_WITH_BACKUP
            name = f"vb_{i}_{c}_{d}" if backup else f"vs_{i}_{c}"
            col = len(names)
            names.append("V" + name[1:])
            e = [entry[f_idx[i, c], k - i, 1]] if i < k else []
            if backup and c > i:
                e.append(entry[f_idx[i, profiles[0][1]], i, 1])
            e.append(entry[alpha_0 + i, k, 1])
            if c > i:
                e.append(entry[fp_0 + i * k + c - 1, -1, 1])
            else:
                e += [entry[j, -1, 1] for j in range(h, h + i)]
                h += i
            e.append(entry[col, 1, 1])
            if len(profiles) > 1:
                # V' is the next column in the single family; in the backup
                # family it is k - c columns on, past the windows c..d' with
                # d' > d and c+1..d' with d' < d.
                e.append(entry[col + (k - c if backup else 1), -1, 1])
            rhs = frac[k, 1] if backup and c > i else frac[k - i, 1]
            rows.append(LinRow(name, tuple(e), "L", rhs))
    # The arm rows cap the variables; the direct forms bound them by 2 too.
    upper = [frac[1, 1]] * (alpha + 1) + [None] * (aux_0 - alpha - 1)
    upper += [None if compact else frac[2, 1]] * (len(names) - aux_0)

    e = [entry[alpha_0 + i, -1, k] for i in buckets]
    e.append(entry[alpha, 1, 1])
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


#: A window's family as ``EvalReport.binding`` names it, in tie order.
_FAMILY = {
    ClassLabel.UNMATCHED: "no_match",
    ClassLabel.MATCHED_NO_BACKUP: "single",
    ClassLabel.MATCHED_WITH_BACKUP: "backup",
}
_TIE_RANK = {label: rank for rank, label in enumerate(_FAMILY)}


def evaluate_price_table(table: PriceTable) -> EvalReport:
    """Worst-case averaged bound achieved by a concrete monotone table.

    For each bucket of u, takes the minimum over the LP's windows of the
    average H of the window's profiles (each profile's H is computed once),
    then averages over u's bucket.  Raises on a non-monotone table, listing
    the offending pairs.
    """
    table.require_monotonic()
    k = table.k
    H = _Interned(lambda label, i, xv, xb: H_value(label, table, i, xv, xb))
    worst: dict[int, tuple] = {}
    for label, i, c, d, profiles in _windows(k):
        bound = sum([H[label, i, xv, xb] for xv, xb in profiles]) / len(profiles)
        # Of tied windows the report names the first in the order no match,
        # single by c, backup by d and then c, as it always has.  The walk
        # takes the backup family by c and then d, and crossing (c, d) pairs
        # do tie exactly (on dyadic tables, for one), so the key holds the
        # order.
        key = (bound, _TIE_RANK[label], d or 0, c or 0)
        if i not in worst or key < worst[i][0]:
            info = {"family": _FAMILY[label], "c": c, "d": d}
            worst[i] = key, {name: v for name, v in info.items() if v is not None}
    alpha_i = tuple(worst[i][0][0] for i in range(1, k + 1))
    binding = tuple(worst[i][1] for i in range(1, k + 1))
    return EvalReport(k, sum(alpha_i) / k, alpha_i, binding)


# ---------------------------------------------------------------------------
# MPS text: one canonical layout shared by the exporter, the parser, and the
# streaming compact writer, so export -> parse -> export is byte-stable.


def _fmt(x: float) -> str:
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _paired(head: str, entries: list[str]) -> str:
    """``head`` followed by two ``"row value"`` entries per line; an odd last
    entry gets a line of its own, and no entries give no lines."""
    if not entries:
        return ""
    it = iter(entries)
    lines = list(map(" ".join, zip(it, it)))
    if len(entries) % 2:
        lines.append(entries[-1])
    return head + ("\n" + head).join(lines) + "\n"


def mps_text(model: LpModel) -> str:
    return "".join(_mps_chunks(model))


def export_mps(model: LpModel, destination) -> None:
    """Write the model as free-format MPS (objective sense, ROWS, COLUMNS,
    RHS, BOUNDS)."""
    with open(destination, "w") as fh:
        for chunk in _mps_chunks(model):
            fh.write(chunk)


def _mps_chunks(model: LpModel) -> Iterator[str]:
    yield f"NAME ranking_lp_k{model.k}_{model.form}\n"
    yield "OBJSENSE\n    MAX\n"
    yield "ROWS\n N obj\n"
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
    yield "".join([
        _paired(f"    {name} ", col) for name, col in zip(model.var_names, cols)
    ])
    yield "RHS\n"
    yield _paired(
        "    RHS ", [f"{r.name} {fmt(r.rhs)}" for r in model.rows if r.rhs != 0]
    )
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


class _Values(dict):
    """Value text -> ``Fraction``; each distinct text is converted once."""

    def __missing__(self, text: str) -> Fraction:
        try:
            value = self[text] = Fraction(float(text))
        except (ValueError, OverflowError):
            raise ValueError(f"value {text!r} is not a finite number") from None
        return value


class _DeclaredRows(dict):
    """Row name -> its COLUMNS entries; only rows declared in ROWS are keys."""

    def __missing__(self, name: str):
        raise ValueError(f"COLUMNS entry on row {name!r}, which ROWS does not declare")


def parse_mps(source, expect_form: Optional[str] = None) -> LpModel:
    """Reference reader for the canonical layout written by this module.

    ``source`` is MPS text, or a path: an ``os.PathLike`` or a string without
    a newline.  Raises ``ValueError`` on input the layout cannot mean: an
    unknown section, row sense or bound type, a data line before any section,
    a second objective row, a row declared twice, a COLUMNS or RHS entry on a
    row ROWS does not declare, a COLUMNS or RHS line with an unpaired field, a
    bound without a value or on a column COLUMNS does not name, a value that
    is not a finite number, an objective other than one entry of 1, any
    RANGES entry, or a NAME other than ``ranking_lp_k{k}_{form}`` with
    k >= 1.
    """
    if isinstance(source, os.PathLike) or "\n" not in source:
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    name_line = ""
    section = None
    row_sense: dict[str, str] = {}
    objective_row = None
    entries = _DeclaredRows()
    value = _Values()
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
            if len(head) % 2 == 0:
                raise ValueError(f"COLUMNS line with an unpaired field: {line!r}")
            if head[0] != cname:
                cname = head[0]
                j = col_index.get(cname)
                if j is None:
                    j = col_index[cname] = len(col_order)
                    col_order.append(cname)
            for rname, val in zip(head[1::2], head[2::2]):
                entries[rname].append((j, value[val]))
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
        elif section == "ROWS":
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
            if len(head) % 2 == 0:
                raise ValueError(f"RHS line with an unpaired field: {line!r}")
            for rname, val in zip(head[1::2], head[2::2]):
                if rname not in row_sense:
                    raise ValueError(
                        f"RHS entry on row {rname!r}, "
                        "which ROWS does not declare as L or E"
                    )
                rhs[rname] = value[val]
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
            (upper if kind == "UP" else lower)[head[2]] = value[head[3]]
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
    if expect_form is not None and form != expect_form:
        raise ValueError(f"expected a {expect_form!r} model, parsed {form!r}")
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
    """``(k, form)`` from the NAME ``ranking_lp_k{k}_{form}``."""
    match = re.fullmatch(r"ranking_lp_k(\d+)_([A-Za-z0-9]+)", name)
    if match is None:
        raise ValueError(f"model name {name!r} is not ranking_lp_k<k>_<form>")
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

def compact_mps_chunks(k: int) -> Iterator[str]:
    """The compact-form MPS for ``k`` buckets as text pieces: a section
    part, a column or an (i, xv) block each.  ``k`` is checked at the call."""
    check_bucket_count(k)
    return _compact_pieces(k)


def _compact_pieces(k: int) -> Iterator[str]:
    """The compact-form MPS in order, one section part, column or (i, xv)
    block at a time."""
    K1 = k + 1
    # nums[x] == str(x): an f-string splices a str faster than it formats an
    # int, and the hb families below are O(k^4) entries.
    nums = [str(x) for x in range(K1 + 1)]
    neg_inv_k = "-" + (_fmt(1.0 / k) if k > 1 else "1")
    yield f"NAME ranking_lp_k{k}_compact\nOBJSENSE\n    MAX\nROWS\n N obj\n"

    # --- ROWS section (order fixes the row indices used everywhere below).
    buckets, padded = range(1, k + 1), range(1, K1 + 1)
    yield "".join([f" L monB_{i}_{j}\n" for i in buckets for j in padded])
    yield "".join([f" L monI_{i}_{j}\n" for i in padded for j in buckets])
    yield "".join([f" E fp_{i}_{j}\n" for i in buckets for j in buckets])
    for i in range(1, k + 1):
        us = nums[1 : i + 1]
        parts = []
        for xv in range(1, i + 1):
            p = f" L hs_{i}_{xv}_"
            parts += [f"{p}{u}_1\n{p}{u}_2\n" for u in us]
        yield "".join(parts)
    for i in range(1, k + 1):
        us = nums[1 : i + 1]
        for xv in range(1, i + 1):
            parts = []
            for xb in range(xv + 1, K1 + 1):
                p = f" L hb_{i}_{xv}_{xb}_"
                parts += [f"{p}{u}_1\n{p}{u}_2\n" for u in us]
            yield "".join(parts)
    yield "".join([f" L abot_{i}\n" for i in range(1, k + 1)])
    yield "".join([f" L vs_{i}_{c}\n" for i in buckets for c in buckets])
    for i in range(1, k + 1):
        yield "".join([
            f" L vb_{i}_{c}_{d}\n" for c in range(1, k + 1) for d in nums[c : k + 1]
        ])
    yield " E aavg\n"

    # --- COLUMNS section, column-major in canonical variable order.
    yield "COLUMNS\n"
    for a in range(1, K1 + 1):
        for bb in range(1, K1 + 1):
            yield _paired(f"    f_{a}_{bb} ", _f_column(k, a, bb, nums))

    # alpha_i columns, then alpha.
    for i in range(1, k + 1):
        e = [f"abot_{i} 1"]
        e += [f"vs_{i}_{c} {k}" for c in range(1, k + 1)]
        e += [f"vb_{i}_{c}_{d} {k}" for c in buckets for d in nums[c : k + 1]]
        e.append(f"aavg {neg_inv_k}")
        yield _paired(f"    alpha_{i} ", e)
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
            yield _paired(f"    Fp_{a}_{bb} ", e)

    # hs columns: two arm rows plus one vs row.
    for i in range(1, k + 1):
        us = nums[1 : i + 1]
        parts = []
        for xv in range(1, i + 1):
            p = f"hs_{i}_{xv}_"
            vs = f"vs_{i}_{xv} -1\n"
            parts += [
                f"    {p}{u} {p}{u}_1 1 {p}{u}_2 1\n    {p}{u} {vs}" for u in us
            ]
        yield "".join(parts)

    # hb columns: two arm rows plus one vb row.
    for i in range(1, k + 1):
        us = nums[1 : i + 1]
        for xv in range(1, i + 1):
            parts = []
            for xb in range(xv + 1, K1 + 1):
                p = f"hb_{i}_{xv}_{xb}_"
                vb = f"vb_{i}_{xv}_{xb - 1} -1\n"
                parts += [
                    f"    {p}{u} {p}{u}_1 1 {p}{u}_2 1\n    {p}{u} {vb}" for u in us
                ]
            yield "".join(parts)

    # Vs / Vb chain columns.
    yield "".join([
        f"    Vs_{i}_{c} vs_{i}_{c - 1} -1 vs_{i}_{c} 1\n" if c >= 2
        else f"    Vs_{i}_1 vs_{i}_1 1\n"
        for i in range(1, k + 1)
        for c in range(1, k + 1)
    ])
    for i in range(1, k + 1):
        yield "".join([
            f"    Vb_{i}_{c}_{d} vb_{i}_{c - 1}_{d} -1 vb_{i}_{c}_{d} 1\n" if c >= 2
            else f"    Vb_{i}_1_{d} vb_{i}_1_{d} 1\n"
            for c in range(1, k + 1)
            for d in nums[c : k + 1]
        ])

    # --- RHS.  Nonzero right-hand sides, paired two per line, in row order;
    # a block's odd last entry is carried over to open the next one.
    yield "RHS\n"
    carry: list[str] = []
    for block in _compact_rhs_blocks(k, nums):
        if carry:
            block.insert(0, carry.pop())
        if len(block) % 2:
            carry.append(block.pop())
        yield _paired("    RHS ", block)
    yield _paired("    RHS ", carry)

    # --- BOUNDS: price entries and the objective chain live in [0, 1]; the
    # auxiliary bound variables need no explicit upper bound (their arm rows
    # already cap them), which keeps the section small.
    yield "BOUNDS\n"
    yield "".join([f" UP BND f_{a}_{bb} 1\n" for a in padded for bb in padded])
    yield "".join([f" UP BND alpha_{i} 1\n" for i in buckets])
    yield " UP BND alpha 1\nENDATA\n"


def _f_column(k: int, a: int, bb: int, nums: list[str]) -> list[str]:
    """Entries of column ``f_a_bb`` in global row order: monB, monI, fp, hs
    arms, hb arms, abot, vs, vb, aavg.  ``nums[x]`` is ``str(x)``."""
    K1 = k + 1
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
        return e
    if bb <= k:
        e.append(f"fp_{a}_{bb} -1")
    # Buckets i > a hold f_a_bb only in the price branch (first arm) of their
    # (i, a, bb) and (i, a, xb, bb) rows, once i >= bb.
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
    # hb arms ascend by (i, xv, xb, xus, arm); bucket i = a first.
    for xv in range(1, min(a, bb - 1) + 1):
        p = f"hb_{a}_{xv}_{bb}_"
        e += [f"{p}{u}_1 1" for u in us]
    if bb <= a:
        if bb < a:
            for xb in range(bb + 1, K1 + 1):
                p = f"hb_{a}_{bb}_{xb}_"
                e += [f"{p}{u}_2 1" for u in us]
            for xv in range(bb + 1, a):
                p = f"hb_{a}_{xv}_"
                e += [f"{p}{xb}_{bb}_2 -1" for xb in nums[xv + 1 : K1 + 1]]
        # xv = a: the first arm of (a, a, xb, bb) sorts just before its second.
        second = "1" if bb == a else "-1"
        for xb in range(a + 1, K1 + 1):
            p = f"hb_{a}_{a}_{xb}_"
            if bb == a:
                e += [f"{p}{u}_2 1" for u in us[:-1]]
            e.append(f"{p}{bb}_1 -1")
            e.append(f"{p}{bb}_2 {second}")
    suffixes = [f"_{a}_{xb}_{bb}_1 -1" for xb in nums[a + 1 : K1 + 1]]
    e += [f"hb_{i}{s}" for i in later for s in suffixes]
    # vs / vb rows (coefficient k - a vanishes for the last bucket).  vb rows
    # ascend by (c, d): the backup-column family sits at c < bb, the
    # match-column family at c = bb.
    if bb <= k and k - a > 0:
        e.append(f"vs_{a}_{bb} {k - a}")
    e += [f"vb_{a}_{c}_{bb - 1} {a}" for c in nums[a + 1 : bb]]
    if bb <= k and k - a > 0:
        e += [f"vb_{a}_{bb}_{d} {k - a}" for d in nums[bb : k + 1]]
    return e


def _compact_rhs_blocks(k: int, nums: list[str]) -> Iterator[list[str]]:
    """The nonzero right-hand sides in row order, as lists of entries."""
    K1 = k + 1
    for i in range(1, k + 1):
        # arm 1 (price branch) has rhs 0 for the no-backup family.
        us = nums[1 : i + 1]
        block = []
        for xv in range(1, i + 1):
            p = f"hs_{i}_{xv}_"
            block += [f"{p}{u}_2 1" for u in us]
        yield block
    for i in range(1, k + 1):
        us = nums[1 : i + 1]
        for xv in range(1, i + 1):
            block = []
            for xb in range(xv + 1, K1 + 1):
                p = f"hb_{i}_{xv}_{xb}_"
                block += [f"{p}{u}_{arm} 1" for u in us for arm in "12"]
            yield block
    # Every vs and vb rhs of the last bucket is 0.
    yield [f"vs_{i}_{c} {k - i}" for i in range(1, k) for c in range(1, k + 1)]
    for i in range(1, k):
        yield [
            f"vb_{i}_{c}_{d} {k - i if c <= i else k}"
            for c in range(1, k + 1)
            for d in nums[c : k + 1]
        ]


def write_compact_mps(k: int, destination) -> dict:
    """Stream the compact-form model for ``k`` buckets to ``destination``.

    Returns basic statistics (bytes and lines written, elapsed seconds).
    """
    import time as _time

    start = _time.perf_counter()
    pieces = compact_mps_chunks(k)
    nbytes = 0
    nlines = 0
    with open(destination, "w", buffering=4 * 1024 * 1024) as fh:
        for piece in pieces:
            fh.write(piece)
            nbytes += len(piece)
            nlines += piece.count("\n")
    return {
        "k": k,
        "bytes": nbytes,
        "lines": nlines,
        "elapsed": _time.perf_counter() - start,
    }
