"""Counting subtrees under a maximum-degree cap by leaf contraction.

Each vertex v carries a vector whose entry i is the generating function of
subtrees rooted at v in which v has degree exactly i and no vertex exceeds
degree k.  Eliminating a pendant vertex u with edge (u, p) folds u's
vector into p's: entry i of p gains entry i-1 times the total weight of
rooted subtrees that can hang off the removed edge (u's entries 0..k-1,
since attaching uses one unit of u's degree budget).  Repeating this until
the tree is a single vertex turns local vectors into global counts.

The elimination loop itself is ``WeightedTree.contract``, shared with the
BC family.  This module supplies the vector type and the fold, and also
the steps the BC family repeats with two vectors per vertex: the range
sum, the fold body and the exact-degree dispatch.  The three public
counting modes differ only in which vertices survive the
contraction and how the surviving vectors are combined.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from .bipoly import BiPoly, Y, ZERO, _RunningSum
from .errors import LengthMismatch
from .tree import Tree, WeightedTree, as_weighted, check_anchors, least_k, require_int


def range_sum(entries: Sequence[BiPoly], lo: int, hi: int) -> BiPoly:
    """Sum of entries lo..hi inclusive; empty or negative ranges are zero."""
    if hi < lo:
        return ZERO
    return BiPoly.sum(entries[max(lo, 0) : hi + 1])


def fold_row(
    parent: Sequence[BiPoly], leaf: Sequence[BiPoly], lo: int, edge_weight: BiPoly, k: int
) -> list[BiPoly]:
    """The fold of both families, on one degree-indexed row.

    The branch hung off the removed edge is ``edge_weight`` times the
    leaf's entries lo..k-1.  New entries read only the incoming parent
    row, never already-updated entries; otherwise the same leaf could
    attach twice.
    """
    if len(parent) != k + 1 or len(leaf) != k + 1:
        raise LengthMismatch(
            f"vectors must have length {k + 1}, got {len(parent)} and {len(leaf)}"
        )
    attach = edge_weight * range_sum(leaf, lo, k - 1)
    out = list(parent)
    for i in range(1, k + 1):
        out[i] = parent[i] + parent[i - 1] * attach
    return out


def exact_degree(
    modes: Sequence[Callable[..., BiPoly]],
    t: Tree | WeightedTree,
    k: int,
    anchors: Sequence[str],
    vector_type,
) -> BiPoly:
    """Maximum degree exactly k: the cap-k count minus the cap-(k-1) count.

    ``modes`` are the family's counts with zero, one and two anchors; the
    cap k-1 must be one they support.  The difference is never negative:
    whatever cap k-1 counts, cap k counts too.  Above the cap that can
    bind on a plain Tree it is zero: no subtree has that maximum degree.
    """
    require_int(k, least_k(vector_type.family) + 1)
    wt, cap = as_weighted(t, k, vector_type)
    anchors = check_anchors(wt.tree, anchors)
    if cap < k:
        return ZERO
    count = modes[len(anchors)]
    return count(wt, k, *anchors) - count(wt.truncated(), k - 1, *anchors)


class DegreeVector:
    """Per-vertex weight vector, index i = rooted subtrees with root degree i."""

    __slots__ = ("entries",)
    family = "subtree"

    def __init__(self, entries: Sequence[BiPoly]):
        self.entries = tuple(entries)
        if not self.entries:
            raise LengthMismatch("a degree vector needs at least one entry")

    @classmethod
    def initial(cls, k: int, vertex_weight: BiPoly = Y) -> "DegreeVector":
        """The starting vector (w, 0, ..., 0) of length k+1."""
        return cls((vertex_weight,) + (ZERO,) * k)

    def truncated(self) -> "DegreeVector":
        """This vector without its top entry: the cap k-1 view."""
        return DegreeVector(self.entries[:-1])

    def sum_range(self, lo: int, hi: int) -> BiPoly:
        """Sum of entries lo..hi inclusive; empty or negative ranges are zero."""
        return range_sum(self.entries, lo, hi)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> BiPoly:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeVector):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"DegreeVector([{', '.join(str(e) for e in self.entries)}])"


def leaf_update_subtree(
    parent: DegreeVector, leaf: DegreeVector, edge_weight: BiPoly, k: int
) -> DegreeVector:
    """Fold an eliminated pendant vertex into its neighbour's vector."""
    return DegreeVector(fold_row(parent.entries, leaf.entries, 0, edge_weight, k))


def count_all(t: Tree | WeightedTree, k: int) -> BiPoly:
    """Generating function of all subtrees with maximum degree <= k.

    Each term y^a z^b counts subtrees with a vertices and b edges (under
    the default weights); evaluate at y = z = 1 for the plain count.
    """
    wt, k = as_weighted(t, k, DegreeVector)
    total = _RunningSum()

    def fold(parent: DegreeVector, leaf: DegreeVector, edge_weight: BiPoly):
        total.add(range_sum(leaf.entries, 0, k))
        return leaf_update_subtree(parent, leaf, edge_weight, k)

    (last,) = wt.contract(frozenset(), fold).values()
    total.add(range_sum(last.entries, 0, k))
    return total.total()


def count_containing(t: Tree | WeightedTree, k: int, v: str) -> BiPoly:
    """Generating function of subtrees containing vertex v, max degree <= k."""
    wt, k = as_weighted(t, k, DegreeVector)
    check_anchors(wt.tree, (v,))
    vectors = wt.contract(frozenset([v]), partial(leaf_update_subtree, k=k))
    return vectors[v].sum_range(0, k)


def count_containing_pair(t: Tree | WeightedTree, k: int, vi: str, vj: str) -> BiPoly:
    """Generating function of subtrees containing both vi and vj.

    After contracting everything else, only the vi..vj path remains.  Any
    counted subtree contains that whole path, so it decomposes into
    independent choices hanging off each path vertex: the endpoints spend
    one degree unit on the path (entries up to k-1), interior vertices
    spend two (entries up to k-2).
    """
    wt, k = as_weighted(t, k, DegreeVector)
    path = wt.tree.path_between(vi, vj)
    vectors = wt.contract(frozenset([vi, vj]), partial(leaf_update_subtree, k=k))
    acc = vectors[vi].sum_range(0, k - 1) * vectors[vj].sum_range(0, k - 1)
    for u in path[1:-1]:
        acc = acc * vectors[u].sum_range(0, k - 2)
    for a, b in zip(path, path[1:]):
        acc = acc * wt.edge_weight(a, b)
    return acc


def count_exact_degree(
    t: Tree | WeightedTree, k: int, anchors: Sequence[str] = ()
) -> BiPoly:
    """Subtrees of maximum degree exactly k: the cap-k count minus cap-(k-1).

    ``anchors`` selects the mode: none for all subtrees, one vertex, or a
    pair of vertices.  Needs k one above the least subtree cap,
    ``LEAST_K["subtree"]`` in tree.py.
    """
    modes = (count_all, count_containing, count_containing_pair)
    return exact_degree(modes, t, k, anchors, DegreeVector)
