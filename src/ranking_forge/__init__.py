"""Randomized greedy matching on general graphs: the matcher itself, a lab
of structural-property checkers, two-partition gain sharing, and the
factor-revealing LP whose optimum certifies approximation-ratio lower
bounds."""

from .engine import (
    PartialState,
    RankingTrace,
    matching_for_order,
    matching_sizes,
    partial_state,
    partial_states,
    run_ranking,
    views_agree,
)
from .gains import (
    REFERENCE_TABLE_K3,
    REFERENCE_TABLE_K10,
    PriceTable,
    H_value,
    audit_h_bounds,
    h_value,
    share_gains,
)
from .graphs import (
    Graph,
    PerfectPair,
    backup_counterexample_graph,
    blossom_matching,
    designated_pairs,
    generate_family,
    make_graph,
    maximum_matching,
    maximum_matching_size,
)
from .lpmodel import (
    LpModel,
    build_lp,
    evaluate_price_table,
    export_mps,
    parse_mps,
    write_compact_mps,
)
from .oracles import (
    ClassLabel,
    Profile,
    compute_backup,
    compute_profile,
    check_insertion_claims,
    check_monotonicity,
    enumerate_equivalence_class,
    extract_alternating_path,
    two_coloring,
)
from .ranks import (
    RankVector,
    distribution_audit,
    enumerate_rank_vectors,
    induced_permutation,
    move_vertex,
    remove_vertex,
    sample_ranks,
)
from .simplex import LpSolution, solve, verify_solution

__version__ = "0.24.0"
