"""Exact sub-k-tree polynomials and local mean orders of k-trees."""

from .core import (
    KTree,
    build_from_construction,
    recognize_ktree,
    k_cliques,
    kp1_cliques,
    clique_degree,
    adjacent_cliques,
    gen_path_type,
    gen_star_type,
    gen_bristled_star,
    gen_double_broom,
    random_ktree,
    parse_kt,
    format_kt,
    parse_edge_list,
)
from .polynomials import (
    IntPolynomial,
    subtree_poly_at_vertex,
    local_mean_order_vertex,
    global_mean_order_tree,
    jamison_ratio_check,
)
from .kelmans_ops import (
    TheoremReport,
    kelmans,
    partial_kelmans,
    check_kelmans,
    check_partial_kelmans_monotone,
    check_leaf_dominates_neighbor,
    path_with_leaf_predicate,
    component_path_predicate,
)
from .chartree import (
    CharTree,
    ElimSequence,
    elimination_sequence,
    characteristic_tree,
    local_mean_order_clique,
    local_poly_clique,
    all_clique_means,
    argmax_cliques,
    verify_adjacent_reduction,
)
from .oracle import (
    SubKTreeSet,
    enumerate_sub_ktrees,
    local_members,
    oracle_all_clique_means,
)
from .isomorphism import (
    canonical_code,
    enumerate_ktrees_up_to_iso,
)

__version__ = "0.1.0"
