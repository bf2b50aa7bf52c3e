"""Construction of the factor-revealing LP, direct price-table evaluation,
and MPS import/export.

Three model forms share one optimum:

* ``substituted`` (default): one variable per price-table entry, one per
  bucket bound, and one auxiliary variable per min-case of the pointwise
  bounds; affine cases are folded straight into the averaging rows.  This is
  the in-process form for desk-scale bucket counts.
* ``naive``: every pointwise bound is its own variable with explicit
  upper-bounding rows; used to cross-check the substitution.
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
from dataclasses import dataclass, field
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
    var_index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.var_index:
            self.var_index = {n: i for i, n in enumerate(self.var_names)}

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
        self.index: dict[str, int] = {}
        self.rows: list[LinRow] = []

    def var(self, name: str, lo=Fraction(0), up: Optional[Fraction] = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.lower.append(Fraction(lo))
        self.upper.append(None if up is None else Fraction(up))
        self.index[name] = idx
        return idx

    def row(self, name: str, coeffs: dict[int, Fraction], sense: str, rhs) -> None:
        items = tuple(
            (j, c) for j, c in sorted(coeffs.items()) if c != 0
        )
        self.rows.append(LinRow(name, items, sense, Fraction(rhs)))

    def model(self, objective: int) -> LpModel:
        return LpModel(
            self.k, self.form, self.names, self.lower, self.upper, self.rows,
            objective, dict(self.index),
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


def _build_direct(k: int, naive: bool) -> LpModel:
    b = _Builder(k, "naive" if naive else "substituted")
    f_idx = {
        (i, j): b.var(f"f_{i}_{j}", up=Fraction(1))
        for i in range(1, k + 2)
        for j in range(1, k + 2)
    }
    alpha_i_idx = {i: b.var(f"alpha_{i}", up=Fraction(1)) for i in range(1, k + 1)}
    alpha_idx = b.var("alpha", up=Fraction(1))

    hbot_idx: dict[tuple[int, int], int] = {}
    hs_idx: dict[tuple[int, int, int], int] = {}
    hb_idx: dict[tuple[int, int, int, int], int] = {}
    if naive:
        for i in range(1, k + 1):
            for xus in range(1, k + 1):
                hbot_idx[(i, xus)] = b.var(f"hbot_{i}_{xus}", up=Fraction(2))
        for i in range(1, k + 1):
            for xv in range(1, k + 1):
                for xus in range(1, k + 1):
                    hs_idx[(i, xv, xus)] = b.var(f"hs_{i}_{xv}_{xus}", up=Fraction(2))
        for i in range(1, k + 1):
            for xv in range(1, k + 1):
                for xb in range(xv + 1, k + 2):
                    for xus in range(1, k + 1):
                        hb_idx[(i, xv, xb, xus)] = b.var(
                            f"hb_{i}_{xv}_{xb}_{xus}", up=Fraction(2)
                        )
    else:
        for i in range(1, k + 1):
            for xv in range(1, i + 1):
                for xus in range(1, i + 1):
                    hs_idx[(i, xv, xus)] = b.var(f"hs_{i}_{xv}_{xus}", up=Fraction(2))
        for i in range(1, k + 1):
            for xv in range(1, i + 1):
                for xb in range(xv + 1, k + 2):
                    for xus in range(1, i + 1):
                        hb_idx[(i, xv, xb, xus)] = b.var(
                            f"hb_{i}_{xv}_{xb}_{xus}", up=Fraction(2)
                        )

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

    # Upper-bounding rows for the auxiliary bound variables.  Maximization
    # presses each one onto the smaller branch, so a single row suffices for
    # affine cases in the naive form.
    for (i, xus), idx in hbot_idx.items():
        forms = h_forms(ClassLabel.UNMATCHED, i, None, None, xus)
        coeffs, rhs = _form_to_row(idx, forms[0], f_idx)
        b.row(f"hb0_{i}_{xus}", coeffs, "L", rhs)
    for (i, xv, xus), idx in hs_idx.items():
        forms = h_forms(ClassLabel.MATCHED_NO_BACKUP, i, xv, None, xus)
        for arm, form in enumerate(forms, start=1):
            coeffs, rhs = _form_to_row(idx, form, f_idx)
            b.row(f"hs_{i}_{xv}_{xus}_{arm}", coeffs, "L", rhs)
    for (i, xv, xb, xus), idx in hb_idx.items():
        forms = h_forms(ClassLabel.MATCHED_WITH_BACKUP, i, xv, xb, xus)
        for arm, form in enumerate(forms, start=1):
            coeffs, rhs = _form_to_row(idx, form, f_idx)
            b.row(f"hb_{i}_{xv}_{xb}_{xus}_{arm}", coeffs, "L", rhs)

    def accumulate(coeffs, const, label, i, xv, xb, xus, scale):
        """Add ``scale * h(...)`` to an averaging row, substituting affine
        cases directly (substituted form) or referencing the variable.
        Returns the accumulated constant; the row's rhs is its negation."""
        if label is ClassLabel.UNMATCHED:
            if naive:
                idx = hbot_idx[(i, xus)]
                coeffs[idx] = coeffs.get(idx, Fraction(0)) + scale
                return const
            form = h_forms(label, i, None, None, xus)[0]
        elif label is ClassLabel.MATCHED_NO_BACKUP:
            if naive or _min_case(i, xv, xus):
                idx = hs_idx[(i, xv, xus)]
                coeffs[idx] = coeffs.get(idx, Fraction(0)) + scale
                return const
            form = h_forms(label, i, xv, None, xus)[0]
        else:
            if naive or _min_case(i, xv, xus):
                idx = hb_idx[(i, xv, xb, xus)]
                coeffs[idx] = coeffs.get(idx, Fraction(0)) + scale
                return const
            form = h_forms(label, i, xv, xb, xus)[0]
        fconst, terms = form
        const += scale * fconst
        for coef, (a, bb) in terms:
            idx = f_idx[(a, bb)]
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + scale * coef
        return const

    # Per-bucket bound rows: alpha_i is at most each family's average bound.
    for i in range(1, k + 1):
        coeffs = {alpha_i_idx[i]: Fraction(1)}
        const = Fraction(0)
        for xus in range(1, k + 1):
            const = accumulate(
                coeffs, const, ClassLabel.UNMATCHED, i, None, None, xus,
                Fraction(-1, k),
            )
        b.row(f"abot_{i}", coeffs, "L", -const)
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            coeffs = {alpha_i_idx[i]: Fraction(1)}
            const = Fraction(0)
            scale = Fraction(-1, (k - c + 1) * k)
            for xv in range(c, k + 1):
                for xus in range(1, k + 1):
                    const = accumulate(
                        coeffs, const, ClassLabel.MATCHED_NO_BACKUP,
                        i, xv, None, xus, scale,
                    )
            b.row(f"as_{i}_{c}", coeffs, "L", -const)
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            for d in range(c, k + 1):
                coeffs = {alpha_i_idx[i]: Fraction(1)}
                const = Fraction(0)
                scale = Fraction(-1, (d - c + 1) * k)
                for xv in range(c, d + 1):
                    for xus in range(1, k + 1):
                        const = accumulate(
                            coeffs, const, ClassLabel.MATCHED_WITH_BACKUP,
                            i, xv, d + 1, xus, scale,
                        )
                b.row(f"ab_{i}_{c}_{d}", coeffs, "L", -const)

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


def _pairs(entries: list[tuple[str, str]]) -> Iterator[str]:
    for i in range(0, len(entries), 2):
        chunk = entries[i : i + 2]
        yield " ".join(f"{n} {v}" for n, v in chunk)


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
    lines = [f" {r.sense} {r.name}\n" for r in model.rows]
    yield "".join(lines)
    # Column-major transpose; entries within a column keep row order.
    cols: list[list[tuple[str, str]]] = [[] for _ in model.var_names]
    for r_idx, row in enumerate(model.rows):
        for j, coef in row.coeffs:
            cols[j].append((row.name, _fmt(float(coef))))
    yield "COLUMNS\n"
    out = []
    for j, name in enumerate(model.var_names):
        entries = cols[j]
        if j == model.objective_var:
            entries = [("obj", "1")] + entries
        for piece in _pairs(entries):
            out.append(f"    {name} {piece}\n")
    yield "".join(out)
    yield "RHS\n"
    rhs_entries = [
        (r.name, _fmt(float(r.rhs))) for r in model.rows if r.rhs != 0
    ]
    yield "".join(f"    RHS {piece}\n" for piece in _pairs(rhs_entries))
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


def parse_mps(source: str, expect_form: Optional[str] = None) -> LpModel:
    """Reference reader for the canonical layout written by this module."""
    if "\n" not in source:
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    name_line = ""
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    col_seen: dict[str, int] = {}
    entries: dict[str, list[tuple[str, Fraction]]] = {}
    rhs: dict[str, Fraction] = {}
    lower: dict[str, Fraction] = {}
    upper: dict[str, Fraction] = {}
    objective_col = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("*"):
            continue
        head = line.split()
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
                continue
            if sense not in ("L", "E"):
                raise ValueError(f"unsupported row sense {sense}")
            row_sense[rname] = sense
            row_order.append(rname)
        elif section == "COLUMNS":
            cname = head[0]
            if cname not in col_seen:
                col_seen[cname] = len(col_order)
                col_order.append(cname)
            for rname, val in zip(head[1::2], head[2::2]):
                if rname == "obj":
                    objective_col = cname
                    continue
                entries.setdefault(rname, []).append(
                    (cname, Fraction(float(val)))
                )
        elif section == "RHS":
            for rname, val in zip(head[1::2], head[2::2]):
                rhs[rname] = Fraction(float(val))
        elif section == "BOUNDS":
            kind, _bnd, cname = head[0].upper(), head[1], head[2]
            val = Fraction(float(head[3])) if len(head) > 3 else None
            if kind == "UP":
                upper[cname] = val
            elif kind == "LO":
                lower[cname] = val
            else:
                raise ValueError(f"unsupported bound type {kind}")
    if objective_col is None:
        raise ValueError("no objective column found")
    var_index = {n: i for i, n in enumerate(col_order)}
    rows = [
        LinRow(
            rname,
            tuple((var_index[c], v) for c, v in entries.get(rname, [])),
            row_sense[rname],
            rhs.get(rname, Fraction(0)),
        )
        for rname in row_order
    ]
    k, form = _parse_model_name(name_line)
    if expect_form is not None and form != expect_form:
        raise ValueError(f"expected a {expect_form!r} model, parsed {form!r}")
    return LpModel(
        k,
        form,
        col_order,
        [lower.get(n, Fraction(0)) for n in col_order],
        [upper.get(n) for n in col_order],
        rows,
        var_index[objective_col],
        var_index,
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


def compact_mps_chunks(k: int) -> Iterator[str]:
    """Yield the compact-form MPS for ``k`` buckets as text chunks."""
    K1 = k + 1
    inv_k = _fmt(1.0 / k) if k > 1 else "1"
    yield f"NAME ranking_lp_k{k}_compact\n"
    yield "OBJSENSE\n    MAX\n"
    yield "ROWS\n N obj\n"

    # --- ROWS section (order fixes the row indices used everywhere below).
    buf: list[str] = []

    def flush():
        nonlocal buf
        s = "".join(buf)
        buf = []
        return s

    for i in range(1, k + 1):
        for j in range(1, K1 + 1):
            buf.append(f" L monB_{i}_{j}\n")
    for i in range(1, K1 + 1):
        for j in range(1, k + 1):
            buf.append(f" L monI_{i}_{j}\n")
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            buf.append(f" E fp_{i}_{j}\n")
    yield flush()
    for i in range(1, k + 1):
        for xv in range(1, i + 1):
            for xus in range(1, i + 1):
                buf.append(f" L hs_{i}_{xv}_{xus}_1\n L hs_{i}_{xv}_{xus}_2\n")
        if len(buf) > 200_000:
            yield flush()
    yield flush()
    for i in range(1, k + 1):
        for xv in range(1, i + 1):
            for xb in range(xv + 1, K1 + 1):
                pre = f" L hb_{i}_{xv}_{xb}_"
                for xus in range(1, i + 1):
                    buf.append(f"{pre}{xus}_1\n{pre}{xus}_2\n")
                if len(buf) > 200_000:
                    yield flush()
    yield flush()
    for i in range(1, k + 1):
        buf.append(f" L abot_{i}\n")
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            buf.append(f" L vs_{i}_{c}\n")
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            for d in range(c, k + 1):
                buf.append(f" L vb_{i}_{c}_{d}\n")
    buf.append(" E aavg\n")
    yield flush()

    # --- COLUMNS section, column-major in canonical variable order.
    yield "COLUMNS\n"

    def emit_column(name: str, entries: list[tuple[str, str]]):
        for i in range(0, len(entries), 2):
            chunk = entries[i : i + 2]
            buf.append(
                f"    {name} " + " ".join(f"{n} {v}" for n, v in chunk) + "\n"
            )

    # f columns.  Entries must follow global row order: monB, monI, fp,
    # hs arms, hb arms, abot, vs, vb, aavg.
    for a in range(1, K1 + 1):
        for bb in range(1, K1 + 1):
            e: list[tuple[str, str]] = []
            if a >= 2 and bb <= K1:
                e.append((f"monB_{a - 1}_{bb}", "1"))
            if a <= k:
                e.append((f"monB_{a}_{bb}", "-1"))
            if bb >= 2:
                e.append((f"monI_{a}_{bb - 1}", "-1"))
            if bb <= k:
                e.append((f"monI_{a}_{bb}", "1"))
            if a <= k and bb <= k:
                e.append((f"fp_{a}_{bb}", "-1"))
            # hs arm rows, ascending (i, xv, xus, arm).
            for i in range(1, k + 1):
                block: list[tuple[tuple, str, str]] = []
                if i >= max(a, bb):
                    block.append(((a, bb, 1), f"hs_{i}_{a}_{bb}_1", "-1"))
                if i == a:
                    if bb <= a:
                        for xus in range(1, a + 1):
                            block.append(((bb, xus, 2), f"hs_{a}_{bb}_{xus}_2", "1"))
                    for xv in range(bb + 1, a + 1):
                        block.append(((xv, bb, 2), f"hs_{a}_{xv}_{bb}_2", "-1"))
                block.sort(key=lambda t: t[0])
                e.extend((n, v) for _, n, v in block)
            # hb arm rows, ascending (i, xv, xb, xus, arm).
            for i in range(1, k + 1):
                block = []
                if i == a:
                    for xv in range(1, min(a, bb - 1) + 1):
                        for xus in range(1, a + 1):
                            block.append(
                                ((xv, bb, xus, 1), f"hb_{a}_{xv}_{bb}_{xus}_1", "1")
                            )
                if i >= max(a, bb):
                    for xb in range(a + 1, K1 + 1):
                        block.append(((a, xb, bb, 1), f"hb_{i}_{a}_{xb}_{bb}_1", "-1"))
                if i == a and bb <= a:
                    for xb in range(bb + 1, K1 + 1):
                        for xus in range(1, a + 1):
                            block.append(
                                ((bb, xb, xus, 2), f"hb_{a}_{bb}_{xb}_{xus}_2", "1")
                            )
                if i == a:
                    for xv in range(bb + 1, a + 1):
                        for xb in range(xv + 1, K1 + 1):
                            block.append(
                                ((xv, xb, bb, 2), f"hb_{a}_{xv}_{xb}_{bb}_2", "-1")
                            )
                block.sort(key=lambda t: t[0])
                e.extend((n, v) for _, n, v in block)
            # vs / vb rows (coefficient k - i vanishes for the last bucket).
            if a <= k and bb <= k and k - a > 0:
                e.append((f"vs_{a}_{bb}", str(k - a)))
            if a <= k:
                # vb rows ascend by (c, d); the backup-column family sits at
                # c < bb, the match-column family at c = bb.
                if bb >= a + 2:
                    for c in range(a + 1, bb):
                        e.append((f"vb_{a}_{c}_{bb - 1}", str(a)))
                if bb <= k and k - a > 0:
                    for d in range(bb, k + 1):
                        e.append((f"vb_{a}_{bb}_{d}", str(k - a)))
            emit_column(f"f_{a}_{bb}", e)
            if len(buf) > 100_000:
                yield flush()
    yield flush()

    # alpha_i columns.
    for i in range(1, k + 1):
        e = [(f"abot_{i}", "1")]
        for c in range(1, k + 1):
            e.append((f"vs_{i}_{c}", str(k)))
        for c in range(1, k + 1):
            for d in range(c, k + 1):
                e.append((f"vb_{i}_{c}_{d}", str(k)))
        e.append(("aavg", f"-{inv_k}" if k > 1 else "-1"))
        emit_column(f"alpha_{i}", e)
        yield flush()
    emit_column("alpha", [("obj", "1"), ("aavg", "1")])

    # Fp columns.
    for a in range(1, k + 1):
        for bb in range(1, k + 1):
            e = [(f"fp_{a}_{bb}", "1")]
            if bb <= k - 1:
                e.append((f"fp_{a}_{bb + 1}", "-1"))
            if bb == k:
                e.append((f"abot_{a}", f"-{inv_k}" if k > 1 else "-1"))
            if bb + 1 > a and bb + 1 <= k:
                e.append((f"vs_{a}_{bb + 1}", "-1"))
            if bb + 1 > a:
                for d in range(bb + 1, k + 1):
                    e.append((f"vb_{a}_{bb + 1}_{d}", "-1"))
            emit_column(f"Fp_{a}_{bb}", e)
    yield flush()

    # hs columns: two arm rows plus one vs row.
    for i in range(1, k + 1):
        for xv in range(1, i + 1):
            for xus in range(1, i + 1):
                name = f"hs_{i}_{xv}_{xus}"
                emit_column(
                    name,
                    [(f"{name}_1", "1"), (f"{name}_2", "1"), (f"vs_{i}_{xv}", "-1")],
                )
        if len(buf) > 100_000:
            yield flush()
    yield flush()

    # hb columns: two arm rows plus one vb row.
    for i in range(1, k + 1):
        for xv in range(1, i + 1):
            for xb in range(xv + 1, K1 + 1):
                vb_row = f"vb_{i}_{xv}_{xb - 1}"
                pre = f"hb_{i}_{xv}_{xb}_"
                for xus in range(1, i + 1):
                    name = f"{pre}{xus}"
                    buf.append(f"    {name} {name}_1 1 {name}_2 1\n")
                    buf.append(f"    {name} {vb_row} -1\n")
                if len(buf) > 100_000:
                    yield flush()
    yield flush()

    # Vs / Vb chain columns.
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            e = []
            if c >= 2:
                e.append((f"vs_{i}_{c - 1}", "-1"))
            e.append((f"vs_{i}_{c}", "1"))
            emit_column(f"Vs_{i}_{c}", e)
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            for d in range(c, k + 1):
                e = []
                if c >= 2:
                    e.append((f"vb_{i}_{c - 1}_{d}", "-1"))
                e.append((f"vb_{i}_{c}_{d}", "1"))
                emit_column(f"Vb_{i}_{c}_{d}", e)
        if len(buf) > 100_000:
            yield flush()
    yield flush()

    # --- RHS.  Nonzero right-hand sides, paired two per line, in row order.
    yield "RHS\n"
    rhs_entries: list[tuple[str, str]] = []

    def emit_rhs(name: str, val: str):
        rhs_entries.append((name, val))
        if len(rhs_entries) == 2:
            (n1, v1), (n2, v2) = rhs_entries
            buf.append(f"    RHS {n1} {v1} {n2} {v2}\n")
            rhs_entries.clear()

    for i in range(1, k + 1):
        for xv in range(1, i + 1):
            for xus in range(1, i + 1):
                # arm 1 (price branch) has rhs 0 for the no-backup family.
                emit_rhs(f"hs_{i}_{xv}_{xus}_2", "1")
    yield flush()
    for i in range(1, k + 1):
        for xv in range(1, i + 1):
            for xb in range(xv + 1, K1 + 1):
                pre = f"hb_{i}_{xv}_{xb}_"
                for xus in range(1, i + 1):
                    emit_rhs(f"{pre}{xus}_1", "1")
                    emit_rhs(f"{pre}{xus}_2", "1")
                if len(buf) > 100_000:
                    yield flush()
    yield flush()
    for i in range(1, k + 1):
        if k - i > 0:
            for c in range(1, k + 1):
                emit_rhs(f"vs_{i}_{c}", str(k - i))
    for i in range(1, k + 1):
        for c in range(1, k + 1):
            for d in range(c, k + 1):
                val = (k - i) if c <= i else k
                if val > 0:
                    emit_rhs(f"vb_{i}_{c}_{d}", str(val))
        if len(buf) > 100_000:
            yield flush()
    if rhs_entries:
        (n1, v1) = rhs_entries[0]
        buf.append(f"    RHS {n1} {v1}\n")
        rhs_entries.clear()
    yield flush()

    # --- BOUNDS: price entries and the objective chain live in [0, 1]; the
    # auxiliary bound variables need no explicit upper bound (their arm rows
    # already cap them), which keeps the section small.
    yield "BOUNDS\n"
    for a in range(1, K1 + 1):
        for bb in range(1, K1 + 1):
            buf.append(f" UP BND f_{a}_{bb} 1\n")
    for i in range(1, k + 1):
        buf.append(f" UP BND alpha_{i} 1\n")
    buf.append(" UP BND alpha 1\n")
    yield flush()
    yield "ENDATA\n"


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
