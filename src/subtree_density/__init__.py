"""Exact-arithmetic subtree-count and mean-subtree-order invariants of trees."""

from .dp import (
    RootedCounts,
    SubtreeStats,
    VertexSubtreeView,
    all_containment_counts,
    edge_counts,
    global_stats,
    good_anchor,
    rooted_counts,
    totals,
    vertex_sums,
    vertex_view,
)
from .enumeration import (
    canonical_form,
    enumerate_trees,
    sample_series_reduced,
)
from .families import FamilySpec, density_sweep, make_family
from .oracle import enumerate_subtrees, oracle_stats, oracle_tally
from .ranks import (
    c_sequence,
    rank_bound_numerators,
    rank_lower_bound,
    rank_profile,
    simple_lower_bound,
)
from .tree import (
    ParseError,
    Tree,
    TreeError,
    classify_vertices,
    diameter,
    is_series_reduced,
    orient,
    parse_tree,
    parse_trees,
    serialize,
)
from .verify import check_stpoly, run_checks

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "ParseError", "RootedCounts", "SubtreeStats", "Tree",
    "TreeError", "VertexSubtreeView", "all_containment_counts",
    "c_sequence", "canonical_form", "check_stpoly", "classify_vertices",
    "density_sweep", "diameter", "edge_counts", "enumerate_subtrees",
    "enumerate_trees", "global_stats", "good_anchor", "is_series_reduced",
    "make_family", "oracle_stats", "oracle_tally", "orient",
    "parse_tree", "parse_trees", "rank_bound_numerators", "rank_lower_bound",
    "rank_profile", "rooted_counts", "run_checks", "sample_series_reduced",
    "serialize", "simple_lower_bound", "totals", "vertex_sums", "vertex_view",
]
