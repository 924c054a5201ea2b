"""Exact counting of degree-bounded subtrees and BC-subtrees in trees.

Counts come out as sparse bivariate generating functions (y marks vertices
or parity classes, z marks edges) with arbitrary-precision coefficients;
evaluate at y = z = 1 for plain counts.  A brute-force oracle recomputes
everything from the definitional weights for cross-checking on small
inputs, and an experiments module sweeps count densities over random tree
ensembles.
"""

from .bipoly import BiPoly, ONE, Y, Z, ZERO
from .bc_enum import (
    ParityDegreeVector,
    count_bc_all,
    count_bc_containing,
    count_bc_containing_pair,
    count_bc_exact_degree,
    rooted_parity_vectors,
)
from .errors import (
    InvalidArgument,
    KTooSmall,
    LengthMismatch,
    NegativeCoefficient,
    NotATree,
    ParseError,
    SameVertex,
    SubtreeCountError,
    TooLarge,
    TooManyAnchors,
    UnknownVertex,
)
from .experiments import RatioRecord, emit_csv, mean_ratios, ratio_sweep
from .oracle import (
    ORACLE_MAX_VERTICES,
    SubtreeWitness,
    bc_subtree_weight,
    enumerate_connected_subtrees,
    is_bc,
    oracle_count,
    rooted_parity_sums,
    rooted_parity_weight,
    subtree_weight,
)
from .subtree_enum import (
    DegreeVector,
    count_all,
    count_containing,
    count_containing_pair,
    count_exact_degree,
    leaf_update_subtree,
)
from .tree import (
    Tree,
    WeightedTree,
    edge_key,
    parse_edge_list,
    prufer_decode,
    random_tree,
    render_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "ZERO",
    "ONE",
    "Y",
    "Z",
    "Tree",
    "WeightedTree",
    "edge_key",
    "parse_edge_list",
    "render_edge_list",
    "prufer_decode",
    "random_tree",
    "DegreeVector",
    "leaf_update_subtree",
    "count_all",
    "count_containing",
    "count_containing_pair",
    "count_exact_degree",
    "ParityDegreeVector",
    "rooted_parity_vectors",
    "count_bc_all",
    "count_bc_containing",
    "count_bc_containing_pair",
    "count_bc_exact_degree",
    "SubtreeWitness",
    "enumerate_connected_subtrees",
    "subtree_weight",
    "bc_subtree_weight",
    "rooted_parity_weight",
    "rooted_parity_sums",
    "oracle_count",
    "is_bc",
    "ORACLE_MAX_VERTICES",
    "RatioRecord",
    "ratio_sweep",
    "emit_csv",
    "mean_ratios",
    "SubtreeCountError",
    "InvalidArgument",
    "ParseError",
    "NotATree",
    "UnknownVertex",
    "SameVertex",
    "TooManyAnchors",
    "LengthMismatch",
    "NegativeCoefficient",
    "KTooSmall",
    "TooLarge",
]
