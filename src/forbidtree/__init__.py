"""Planar tree embeddings into point sets with forbidden edges.

A library and CLI for embedding trees as crossing-free straight-line
drawings on points in general position while avoiding forbidden edges,
for building edge sets that provably block such embeddings, and for an
exhaustive backtracking oracle that verifies both at small sizes.
"""

from .embedding import (
    Embedding,
    EmbeddingDefectError,
    WedgePartition,
    embed_avoiding_single,
    embed_convex_avoiding_two,
    embed_few_hull_edges,
    embed_recursive,
    rotate_embedding,
)
from .forbid import (
    ForbidConstruction,
    blanket_threshold,
    r_edge_blanket,
    three_consecutive_hull_edges,
    three_pairs_consecutive_hull_edges,
    turan_lower_bound,
    upper_bound_value,
)
from .generators import GenerationError, convex_points, random_points
from .geometry import (
    Edge,
    EdgeSet,
    GeneralPositionError,
    Point,
    PointSet,
    angular_sort,
    convex_hull,
    edge_depth,
    is_convex_position,
    orient,
    polar_order,
    segments_cross,
    visible_hull_vertices,
)
from .oracle import (
    MinForbidResult,
    SearchBudgetExceeded,
    SearchReport,
    exists_embedding,
    forbids,
    min_forbidden_set_size,
)
from .svg import render_svg
from .trees import (
    RootedTree,
    Tree,
    ahu_canonical,
    all_trees,
    root_at,
    sort_children_by_subtree_size,
    spider_tree,
)

__all__ = [
    "Edge",
    "EdgeSet",
    "Embedding",
    "EmbeddingDefectError",
    "ForbidConstruction",
    "GeneralPositionError",
    "GenerationError",
    "MinForbidResult",
    "Point",
    "PointSet",
    "RootedTree",
    "SearchBudgetExceeded",
    "SearchReport",
    "Tree",
    "WedgePartition",
    "ahu_canonical",
    "all_trees",
    "angular_sort",
    "blanket_threshold",
    "convex_hull",
    "convex_points",
    "edge_depth",
    "embed_avoiding_single",
    "embed_convex_avoiding_two",
    "embed_few_hull_edges",
    "embed_recursive",
    "exists_embedding",
    "forbids",
    "is_convex_position",
    "min_forbidden_set_size",
    "orient",
    "polar_order",
    "r_edge_blanket",
    "random_points",
    "render_svg",
    "root_at",
    "rotate_embedding",
    "segments_cross",
    "sort_children_by_subtree_size",
    "spider_tree",
    "three_consecutive_hull_edges",
    "three_pairs_consecutive_hull_edges",
    "turan_lower_bound",
    "upper_bound_value",
]
