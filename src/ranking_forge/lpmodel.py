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
  exporting very large bucket counts; it is emitted by a streaming writer
  and, for small bucket counts, materialized by parsing that same stream.

Coefficients are exact rationals while a model is in memory; they become
floats at solve and export time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .gains import H_value, PriceTable, h_forms
from .oracles import ClassLabel

Coef = tuple[int, Fraction]


@dataclass(frozen=True)
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


class _Builder:
    def __init__(self, k: int, form: str):
        self.k = k
        self.form = form
        self.names: list[str] = []
        self.lower: list[Fraction] = []
        self.upper: list[Optional[Fraction]] = []
        self.rows: list[LinRow] = []

    def var(self, name: str, up: Optional[Fraction] = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.lower.append(Fraction(0))
        self.upper.append(None if up is None else Fraction(up))
        return idx

    def row(self, name: str, coeffs: dict[int, Fraction], sense: str, rhs) -> None:
        items = tuple(
            (j, c) for j, c in sorted(coeffs.items()) if c != 0
        )
        self.rows.append(LinRow(name, items, sense, Fraction(rhs)))

    def model(self, objective: int) -> LpModel:
        return LpModel(
            self.k, self.form, self.names, self.lower, self.upper, self.rows, objective
        )


def _form_to_row(
    h_idx: int, form, f_idx
) -> tuple[dict[int, Fraction], Fraction]:
    """Row data for ``h <= const + sum(coef * f)`` as ``h - sum(...) <= const``."""
    const, terms = form
    coeffs: dict[int, Fraction] = {h_idx: Fraction(1)}
    for coef, (i, j) in terms:
        idx = f_idx[(i, j)]
        coeffs[idx] = coeffs.get(idx, Fraction(0)) - coef
    return coeffs, Fraction(const)


def build_lp(k: int, form: str = "substituted") -> LpModel:
    """Assemble the factor-revealing LP for ``k`` buckets.

    The optimum is a certified lower bound on the greedy matcher's
    approximation ratio.  See the module docstring for the three forms.
    """
    if k < 1:
        raise ValueError("bucket count k must be >= 1")
    if form in ("substituted", "naive"):
        return _build_direct(k, naive=(form == "naive"))
    if form == "compact":
        return parse_mps("".join(compact_mps_chunks(k)), expect_form="compact")
    raise ValueError(f"unknown form {form!r}")


def _min_case(i: int, xv: int, xus: int) -> bool:
    # The pointwise bounds split into two branches exactly when both the
    # match and the new vertex land at or before u's bucket.
    return xv <= i and xus <= i


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


def _windows(k: int) -> Iterator[tuple[str, int, list[HCase]]]:
    """Each averaging row as ``(name, i, cases)``: ``alpha_i`` is at most
    the average of h over the cases."""
    buckets = range(1, k + 1)
    for i in buckets:
        yield f"abot_{i}", i, [
            (ClassLabel.UNMATCHED, i, None, None, xus) for xus in buckets
        ]
    for i in buckets:
        for c in buckets:
            yield f"as_{i}_{c}", i, [
                (ClassLabel.MATCHED_NO_BACKUP, i, xv, None, xus)
                for xv in range(c, k + 1)
                for xus in buckets
            ]
    for i in buckets:
        for c in buckets:
            for d in range(c, k + 1):
                yield f"ab_{i}_{c}_{d}", i, [
                    (ClassLabel.MATCHED_WITH_BACKUP, i, xv, d + 1, xus)
                    for xv in range(c, d + 1)
                    for xus in buckets
                ]


def _build_direct(k: int, naive: bool) -> LpModel:
    b = _Builder(k, "naive" if naive else "substituted")
    f_idx = {
        (i, j): b.var(f"f_{i}_{j}", up=Fraction(1))
        for i in range(1, k + 2)
        for j in range(1, k + 2)
    }
    alpha_i_idx = {i: b.var(f"alpha_{i}", up=Fraction(1)) for i in range(1, k + 1)}
    alpha_idx = b.var("alpha", up=Fraction(1))

    # A case gets an auxiliary variable in the naive form, and in the
    # substituted form when its bound is a minimum of two arms; every other
    # case is affine and is folded straight into the averaging rows.
    aux: dict[HCase, int] = {}
    for case in _h_cases(k):
        label, i, xv, _, xus = case
        if naive or (label is not ClassLabel.UNMATCHED and _min_case(i, xv, xus)):
            buckets = [str(x) for x in case[1:] if x is not None]
            aux[case] = b.var("_".join([_H_PREFIX[label], *buckets]), up=Fraction(2))

    # Monotonicity of the price table over the padded domain.
    for i in range(1, k + 1):
        for j in range(1, k + 2):
            b.row(
                f"monB_{i}_{j}",
                {f_idx[(i + 1, j)]: Fraction(1), f_idx[(i, j)]: Fraction(-1)},
                "L", 0,
            )
    for i in range(1, k + 2):
        for j in range(1, k + 1):
            b.row(
                f"monI_{i}_{j}",
                {f_idx[(i, j)]: Fraction(1), f_idx[(i, j + 1)]: Fraction(-1)},
                "L", 0,
            )

    # One upper-bounding row per arm.  Maximization presses each variable
    # onto its smaller arm, so an affine case needs a single row.
    for case, idx in aux.items():
        for arm, form in enumerate(h_forms(*case), start=1):
            coeffs, rhs = _form_to_row(idx, form, f_idx)
            if case[0] is ClassLabel.UNMATCHED:
                name = f"hb0_{case[1]}_{case[4]}"
            else:
                name = f"{b.names[idx]}_{arm}"
            b.row(name, coeffs, "L", rhs)

    # Averaging rows: a case enters through its variable if it has one,
    # otherwise through its single affine form (a two-arm form cannot be
    # unpacked here, so an inlined min-case raises).  The rhs is minus the
    # accumulated constant.
    for name, i, cases in _windows(k):
        scale = Fraction(-1, len(cases))
        coeffs = {alpha_i_idx[i]: Fraction(1)}
        const = Fraction(0)
        for case in cases:
            idx = aux.get(case)
            if idx is not None:
                coeffs[idx] = coeffs.get(idx, Fraction(0)) + scale
                continue
            ((fconst, terms),) = h_forms(*case)
            const += scale * fconst
            for coef, ij in terms:
                idx = f_idx[ij]
                coeffs[idx] = coeffs.get(idx, Fraction(0)) + scale * coef
        b.row(name, coeffs, "L", -const)

    coeffs = {alpha_idx: Fraction(1)}
    for i in range(1, k + 1):
        coeffs[alpha_i_idx[i]] = Fraction(-1, k)
    b.row("aavg", coeffs, "E", 0)
    return b.model(alpha_idx)


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

    For each bucket of u, takes the minimum over the three profile families
    (their window averages over the match bucket), then averages over u's
    bucket.  Raises on a non-monotone table, listing the offending pairs.
    """
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
    return EvalReport(k, sum(alpha_i) / k, tuple(alpha_i), tuple(binding))


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
        value = self[text] = Fraction(float(text))
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
    bound without a value or on a column COLUMNS does not name, an objective
    other than one entry of 1, or any RANGES entry.
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
    # ranking_lp_k{k}_{form}
    try:
        parts = name.split("_")
        k = int(parts[2][1:])
        return k, parts[3]
    except (IndexError, ValueError):
        return 0, "unknown"


# ---------------------------------------------------------------------------
# Streaming writer for the compact form.  Emits the identical byte layout
# the exporter would produce for the parsed model, but never materializes
# anything, so very large bucket counts stay within memory and time budgets.

#: A streamed chunk is cut once this many characters have queued up.  One
#: piece (a column, or the rows of one (i, xv) pair) can run past it.
_CHUNK_CHARS = 1 << 20


def compact_mps_chunks(k: int) -> Iterator[str]:
    """Yield the compact-form MPS for ``k`` buckets as text chunks."""
    buf: list[str] = []
    size = 0
    for piece in _compact_pieces(k):
        buf.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            yield "".join(buf)
            buf, size = [], 0
    if buf:
        yield "".join(buf)


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
    nbytes = 0
    nlines = 0
    with open(destination, "w", buffering=4 * 1024 * 1024) as fh:
        for chunk in compact_mps_chunks(k):
            fh.write(chunk)
            nbytes += len(chunk)
            nlines += chunk.count("\n")
    return {
        "k": k,
        "bytes": nbytes,
        "lines": nlines,
        "elapsed": _time.perf_counter() - start,
    }
