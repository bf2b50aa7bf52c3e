"""Two-partition gain sharing and the pointwise lower bounds.

The union of the algorithm's matching with a designated maximum matching is
bipartite, so a coin-flipped 2-coloring splits vertices into buyers and
items with exact half/half marginals.  A monotone price table then divides
each matched edge's unit gain, and the h case-tables bound what a designated
pair collects in every realization -- which the exhaustive audit verifies.
"""

from ranking_forge import (
    REFERENCE_TABLE_K3,
    audit_h_bounds,
    h_value,
    share_gains,
    two_coloring,
)
from ranking_forge.engine import matching_for_order
from ranking_forge.graphs import make_graph
from ranking_forge.oracles import ClassLabel
from ranking_forge.ranks import RankVector

g = make_graph(4, [(0, 1), (1, 2), (2, 3)], m_star=[(0, 1), (2, 3)])
vec = RankVector(3, {0: (1, 1), 1: (2, 1), 2: (2, 2), 3: (3, 1)})
matching = matching_for_order(g, vec)
chi = two_coloring(g, matching, g.m_star, coin=0)
print("matching:", sorted(matching))
print("coloring:", chi)
gains = share_gains(g, vec, chi, REFERENCE_TABLE_K3)
print("gains   :", {v: round(x, 3) for v, x in gains.items()})
print("total   :", round(sum(gains.values()), 6), "= matching size")

print("\nPointwise bounds from the reference k=3 table:")
print("  unmatched class, buckets (1, u*=1):", h_value(ClassLabel.UNMATCHED,
      REFERENCE_TABLE_K3, 1, None, None, 1))
print("  match-no-backup, buckets (1, 2, u*=3):", h_value(
    ClassLabel.MATCHED_NO_BACKUP, REFERENCE_TABLE_K3, 1, 2, None, 3))
print("  match-with-backup, buckets (2, 1, b=3, u*=2):", h_value(
    ClassLabel.MATCHED_WITH_BACKUP, REFERENCE_TABLE_K3, 2, 1, 3, 2))

print("\nExhaustive audit (every rank vector and insertion slot):")
for u, u_star in sorted(g.m_star):
    violations = audit_h_bounds(g, u, u_star, REFERENCE_TABLE_K3)
    print(f"  pair ({u}, {u_star}): {len(violations)} violations")
    assert not violations
