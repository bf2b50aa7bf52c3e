"""Price tables, gain sharing over matched edges, and the pointwise
lower-bound functions on the combined gain of a designated-matching pair.

A matched edge carries one unit of gain, split by a monotone price table:
the item end receives ``f(buyer bucket, item bucket)`` and the buyer end the
remainder.  For a pair ``(u, u_star)`` of the designated matching, the
``h_*`` case tables bound ``gain(u) + gain(u_star)`` from below for every
realization, by class of ``u``'s profile; the ``H_*`` forms average them
over the insertion bucket of ``u_star``.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Iterable, Optional

from .engine import matching_for_order
from .graphs import Edge, Graph, edge
from .oracles import (
    BUYER,
    MATCHED_NO_BACKUP,
    MATCHED_WITH_BACKUP,
    UNMATCHED,
    ClassLabel,
    Profile,
    _roles,
    flip_coloring,
    two_coloring,
)
from .ranks import (
    RankVector,
    check_bucket_count,
    enumerate_rank_vectors,
    insertion_slots,
    order_of,
    slot_index,
)


class ColoringError(ValueError):
    """A matched edge is monochromatic under the supplied coloring."""


# An affine form: (integer constant, ((+-1 coefficient, (i, j)), ...)) over
# price-table entries.  A case evaluates to one form, or to the min of two.
AffForm = tuple[int, tuple[tuple[int, tuple[int, int]], ...]]


class PriceTable:
    """Monotone price function on ``{1..k+1}^2``.

    Entries decrease in the buyer index and increase in the item index.
    Tables supplied as k x k are padded with an all-ones item column and an
    all-zeros buyer row, which keeps both monotonicity constraints valid at
    the boundary.
    """

    __slots__ = ("k", "_rows")

    def __init__(self, k: int, rows: Iterable[Iterable[float]]):
        check_bucket_count(k)
        grid = [list(map(float, row)) for row in rows]
        if len(grid) == k:
            grid = _pad(grid)
        if len(grid) != k + 1 or any(len(row) != k + 1 for row in grid):
            raise ValueError(f"expected a {k}x{k} or {k + 1}x{k + 1} table")
        if any(not 0.0 <= x <= 1.0 for row in grid for x in row):
            raise ValueError("price values must lie in [0, 1]")
        self.k = k
        self._rows = tuple(tuple(row) for row in grid)

    def value(self, i: int, j: int) -> float:
        if not (1 <= i <= self.k + 1 and 1 <= j <= self.k + 1):
            raise ValueError(f"index ({i}, {j}) outside 1..{self.k + 1}")
        return self._rows[i - 1][j - 1]

    def rows(self) -> tuple[tuple[float, ...], ...]:
        return self._rows

    def monotonicity_violations(self) -> list[dict]:
        bad = []
        rows = self._rows
        for i in range(1, self.k + 1):
            for j in range(1, self.k + 2):
                if rows[i - 1][j - 1] < rows[i][j - 1] - 1e-12:
                    bad.append({"kind": "buyer-decreasing", "at": (i, j)})
        for i in range(1, self.k + 2):
            for j in range(1, self.k + 1):
                if rows[i - 1][j - 1] > rows[i - 1][j] + 1e-12:
                    bad.append({"kind": "item-increasing", "at": (i, j)})
        return bad

    def require_monotonic(self) -> None:
        bad = self.monotonicity_violations()
        if bad:
            raise ValueError(f"price table is not monotone: {bad}")

    @classmethod
    def constant(cls, k: int, c: float) -> "PriceTable":
        return cls(k, [[c] * k for _ in range(k)])

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "values": [list(r) for r in self._rows]})

    @classmethod
    def from_json(cls, text: str) -> "PriceTable":
        payload = json.loads(text)
        return cls(payload["k"], payload["values"])


def _pad(grid: list[list[float]]) -> list[list[float]]:
    k = len(grid)
    padded = [row + [1.0] for row in grid]
    padded.append([0.0] * (k + 1))
    return padded


# ---------------------------------------------------------------------------
# Case tables.  Each returns one affine form (no min) or two (their min).


def h_forms(
    label: ClassLabel,
    x_u: int,
    x_v: Optional[int],
    x_b: Optional[int],
    x_ustar: int,
) -> tuple[AffForm, ...]:
    """Symbolic lower-bound forms for gain(u) + gain(u_star).

    The bound is one of two arms, or their minimum.  In the seat arm
    (``_1`` rows of the LP) u_star takes a seat: the earlier of u and its
    match sells to it (u itself when unmatched), and u falls back to its
    backup in C_b, to nothing otherwise.  In the keep arm (``_2``) u keeps
    its match, and sells to u_star too when u_star comes before the match.
    C_bot has the seat arm only.  A matched u has the keep arm only when
    u_star comes after u; otherwise the seat arm only when u comes before its
    match, and both when it does not.
    """
    if label is UNMATCHED:
        if x_v is not None or x_b is not None:
            raise ValueError("unmatched profile cannot carry match or backup")
    elif x_v is None:
        raise ValueError(f"{label.value} profile requires a match bucket")
    elif label is MATCHED_NO_BACKUP:
        if x_b is not None:
            raise ValueError("C_s profile cannot carry a backup bucket")
    elif label is MATCHED_WITH_BACKUP:
        if x_b is None:
            raise ValueError("C_b profile requires a backup bucket")
    else:
        raise ValueError(f"unknown class label {label!r}")
    if x_v is None or x_ustar <= x_u:
        # The seat arm; ``early``: u has no match or comes before it.
        early = x_v is None or x_u < x_v
        sold = (1, (x_u if early else x_v, x_ustar))
        seat = (0, (sold,)) if x_b is None else (1, ((-1, (x_u, x_b)), sold))
        if early:
            return (seat,)
    # The keep arm.
    lost = (-1, (x_u, x_v))
    keep = (1, (lost, (1, (x_u, x_ustar)))) if x_ustar < x_v else (1, (lost,))
    return (seat, keep) if x_ustar <= x_u else (keep,)


def _check_bucket(name: str, value: Optional[int], top: int) -> None:
    if value is not None and not 1 <= value <= top:
        raise ValueError(f"{name}={value} outside 1..{top}")


def h_value(
    label: ClassLabel,
    table: PriceTable,
    x_u: int,
    x_v: Optional[int],
    x_b: Optional[int],
    x_ustar: int,
) -> float:
    """Pointwise lower bound on gain(u) + gain(u_star) for one realization."""
    # Only the backup may sit in the padded item column k + 1.
    k = table.k
    for name, val, top in (
        ("x_u", x_u, k), ("x_v", x_v, k), ("x_b", x_b, k + 1), ("x_ustar", x_ustar, k)
    ):
        _check_bucket(name, val, top)
    forms = h_forms(label, x_u, x_v, x_b, x_ustar)
    rows = table.rows()  # every index of the forms is checked above
    return min(
        const + sum(coef * rows[i - 1][j - 1] for coef, (i, j) in terms)
        for const, terms in forms
    )


def H_value(
    label: ClassLabel,
    table: PriceTable,
    x_u: int,
    x_v: Optional[int] = None,
    x_b: Optional[int] = None,
) -> float:
    """Average of the pointwise bound over the new vertex's bucket 1..k."""
    k = table.k
    return (
        sum(h_value(label, table, x_u, x_v, x_b, xs) for xs in range(1, k + 1)) / k
    )


# ---------------------------------------------------------------------------
# Gain sharing.


def share_gains(
    g: Graph,
    order: RankVector,
    coloring: dict[int, str],
    table: PriceTable,
    matching: Optional[frozenset[Edge]] = None,
) -> dict[int, float]:
    """Split each matched edge's unit gain between its buyer and item ends.

    The total handed out equals the matching size; unmatched vertices get 0.
    """
    if not isinstance(order, RankVector):
        raise TypeError("gain sharing needs bucket values; pass a rank vector")
    if matching is None:
        matching = matching_for_order(g, order)
    pairs = [_buyer_item(a, b, coloring) for a, b in matching]
    bucket = {v: x for v, (x, _) in order.items()}
    gains = {v: 0.0 for v in g.vertices}
    gains.update(_shares(pairs, bucket, table.rows()))
    return gains


def _buyer_item(a: int, b: int, coloring: dict[int, str]) -> tuple[int, int]:
    """The matched edge ``(a, b)`` as ``(buyer, item)``: the one rule for
    which end is which.  ``ColoringError`` if both ends have one color."""
    if coloring[a] == coloring[b]:
        raise ColoringError(f"matched edge ({a}, {b}) is monochromatic")
    return (a, b) if coloring[a] == BUYER else (b, a)


def _shares(
    pairs: Iterable[tuple[int, int]],
    bucket: dict[int, int],
    rows: tuple[tuple[float, ...], ...],
) -> dict[int, float]:
    """Each matched vertex's gain: the item end of a ``(buyer, item)`` pair
    gets ``f(buyer bucket, item bucket)`` and the buyer end the rest."""
    gains = {}
    for buyer, item in pairs:
        price = rows[bucket[buyer] - 1][bucket[item] - 1]
        gains[item] = price
        gains[buyer] = 1.0 - price
    return gains


# ---------------------------------------------------------------------------
# The audit: pointwise soundness of the h bounds against realized gains.


#: Cap on the rank vectors one audit enumerates: ``k^(n-1) * (n-1)!`` past
#: it raises ``EnumerationLimitError`` rather than auditing a sample.
AUDIT_BUDGET = 2_000_000


def audit_h_bounds(
    g: Graph,
    u: int,
    u_star: int,
    table: PriceTable,
    check_table: bool = True,
) -> list[dict]:
    """Check ``h <= gain(u) + gain(u_star)`` on every realization.

    Enumerates every rank vector on the graph without ``u_star`` over the
    table's k buckets (at most ``AUDIT_BUDGET`` of them) and every insertion
    slot for it, always conditioning on ``u`` being a buyer.  Returns violation records; an
    empty list is a pass.

    ``check_table=False`` lets a deliberately non-monotone table through, to
    demonstrate that the audit actually catches bound violations.
    """
    k = table.k
    if check_table:
        table.require_monotonic()
    if g.m_star is None or edge(u, u_star) not in g.m_star:
        raise ValueError(f"({u}, {u_star}) is not a designated-matching pair")
    others = sorted(set(g.vertices) - {u_star})
    rows = table.rows()
    violations: list[dict] = []
    # A realization is a vector and an insertion slot for ``u_star``; its
    # order is the vector's with ``u_star`` spliced in at the slot's index.
    # The matching, the coloring and ``u``'s roles depend on an order alone,
    # so each is computed once per order, and an h row once per profile.  A
    # realization is then the price lookups for its (buyer, item) pairs.
    roles_of = cache(lambda order: _roles(g, order, u))

    @cache
    def h_row_of(label: ClassLabel, profile: Profile) -> tuple[float, ...]:
        return tuple(
            h_value(label, table, profile.x_u, profile.x_v, profile.x_b, x)
            for x in range(1, k + 1)
        )

    @cache
    def run_of(order: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The matching's size and its (buyer, item) pairs, ``u`` a buyer."""
        matching = matching_for_order(g, order)
        chi = two_coloring(g, matching, g.m_star, 0)
        if chi[u] != BUYER:
            chi = flip_coloring(chi)
        return len(matching), tuple(_buyer_item(a, b, chi) for a, b in matching)

    for vec in enumerate_rank_vectors(others, k, budget=AUDIT_BUDGET):
        order = order_of(vec)
        bucket = {v: x for v, (x, _) in vec.items()}
        # The profile is the buckets of u, its match and its backup; an
        # absent match or backup (None) has no bucket.
        match, backup, label = roles_of(order)
        profile = Profile(bucket[u], bucket.get(match), bucket.get(backup))
        h_row = h_row_of(label, profile)
        for slot in insertion_slots(vec):
            j = slot_index(vec, slot)
            size, pairs = run_of(order[:j] + (u_star,) + order[j:])
            bucket[u_star] = slot[0]
            gains = _shares(pairs, bucket, rows)
            total_u = gains.get(u, 0.0) + gains.get(u_star, 0.0)
            hv = h_row[slot[0] - 1]
            if hv > total_u + 1e-9:
                violations.append(
                    {
                        "claim": f"h-bound-{label.value}",
                        "vector": {str(v): list(s) for v, s in vec.items()},
                        "slot": list(slot),
                        "profile": list(profile),
                        "h": hv,
                        "realized": total_u,
                    }
                )
            mass = sum(gains.values())
            if abs(mass - size) > 1e-9:
                violations.append(
                    {
                        "claim": "gain-conservation",
                        "vector": {str(v): list(s) for v, s in vec.items()},
                        "slot": list(slot),
                        "total_gain": mass,
                        "matching_size": size,
                    }
                )
    return violations


# ---------------------------------------------------------------------------
# Reference price tables (3-decimal published values; the k x k forms are
# padded on load).

REFERENCE_TABLE_K3 = PriceTable(
    3,
    [
        [0.469, 0.563, 0.563],
        [0.469, 0.500, 0.500],
        [0.469, 0.500, 0.500],
    ],
)

REFERENCE_TABLE_K10 = PriceTable(
    10,
    [
        [0.423, 0.462, 0.500, 0.553, 0.585, 0.629, 0.632, 0.797, 0.843, 0.843, 1.000],
        [0.423, 0.462, 0.500, 0.538, 0.585, 0.629, 0.632, 0.632, 0.684, 0.684, 1.000],
        [0.423, 0.462, 0.500, 0.538, 0.585, 0.629, 0.632, 0.632, 0.632, 0.632, 1.000],
        [0.423, 0.462, 0.500, 0.538, 0.585, 0.599, 0.599, 0.599, 0.599, 0.599, 1.000],
        [0.423, 0.462, 0.500, 0.538, 0.570, 0.570, 0.570, 0.570, 0.570, 0.570, 1.000],
        [0.423, 0.462, 0.500, 0.538, 0.544, 0.544, 0.544, 0.544, 0.544, 0.544, 1.000],
        [0.423, 0.462, 0.500, 0.523, 0.523, 0.523, 0.523, 0.523, 0.523, 0.523, 1.000],
        [0.423, 0.462, 0.500, 0.501, 0.512, 0.512, 0.512, 0.512, 0.512, 0.512, 1.000],
        [0.423, 0.462, 0.500, 0.501, 0.505, 0.506, 0.510, 0.510, 0.510, 0.510, 1.000],
        [0.423, 0.462, 0.500, 0.501, 0.505, 0.505, 0.505, 0.505, 0.505, 0.505, 1.000],
        [0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000],
    ],
)
