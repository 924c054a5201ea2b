"""Counting subtrees under a maximum-degree cap by leaf contraction.

Each vertex v carries a vector whose entry i is the generating function of
subtrees rooted at v in which v has degree exactly i and no vertex exceeds
degree k.  Eliminating a pendant vertex u with edge (u, p) folds u's
vector into p's: entry i of p gains entry i-1 times the total weight of
rooted subtrees that can hang off the removed edge (u's entries 0..k-1,
since attaching uses one unit of u's degree budget).  Repeating this until
the tree is a single vertex turns local vectors into global counts.

The elimination loop itself is ``WeightedTree.contract``, shared with the
BC family; this module supplies the vector type and the fold.  The three
public counting modes differ only in which vertices survive the
contraction and how the surviving vectors are combined.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .bipoly import BiPoly, Y, ZERO, _RunningSum
from .errors import (
    KTooSmall,
    LengthMismatch,
    SameVertex,
    TooManyAnchors,
    UnknownVertex,
)
from .tree import Chooser, Tree, WeightedTree, as_weighted


class DegreeVector:
    """Per-vertex weight vector, index i = rooted subtrees with root degree i."""

    __slots__ = ("entries",)

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
        if hi < lo:
            return ZERO
        return BiPoly.sum(self.entries[max(lo, 0) : hi + 1])

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
    """Fold an eliminated pendant vertex into its neighbour's vector.

    Every new entry is computed from the incoming parent vector, never from
    already-updated entries; otherwise the same leaf could attach twice.
    """
    if len(parent) != k + 1 or len(leaf) != k + 1:
        raise LengthMismatch(
            f"vectors must have length {k + 1}, got {len(parent)} and {len(leaf)}"
        )
    attach = edge_weight * leaf.sum_range(0, k - 1)
    out = list(parent.entries)
    for i in range(1, k + 1):
        out[i] = parent.entries[i] + parent.entries[i - 1] * attach
    return DegreeVector(out)


def count_all(t: Tree | WeightedTree, k: int, *, choose: Chooser | None = None) -> BiPoly:
    """Generating function of all subtrees with maximum degree <= k.

    Each term y^a z^b counts subtrees with a vertices and b edges (under
    the default weights); evaluate at y = z = 1 for the plain count.
    """
    if k < 0:
        raise KTooSmall(f"k must be >= 0, got {k}")
    total = _RunningSum()

    def fold(parent: DegreeVector, leaf: DegreeVector, edge_weight: BiPoly):
        total.add(leaf.sum_range(0, k))
        return leaf_update_subtree(parent, leaf, edge_weight, k)

    wt = as_weighted(t, k, DegreeVector)
    (last,) = wt.contract(frozenset(), fold, choose).values()
    total.add(last.sum_range(0, k))
    return total.total()


def count_containing(
    t: Tree | WeightedTree, k: int, v: str, *, choose: Chooser | None = None
) -> BiPoly:
    """Generating function of subtrees containing vertex v, max degree <= k."""
    if k < 0:
        raise KTooSmall(f"k must be >= 0, got {k}")
    wt = as_weighted(t, k, DegreeVector)
    if v not in wt.tree:
        raise UnknownVertex(f"no vertex {v!r}")
    vectors = wt.contract(frozenset([v]), partial(leaf_update_subtree, k=k), choose)
    return vectors[v].sum_range(0, k)


def count_containing_pair(
    t: Tree | WeightedTree,
    k: int,
    vi: str,
    vj: str,
    *,
    choose: Chooser | None = None,
) -> BiPoly:
    """Generating function of subtrees containing both vi and vj.

    After contracting everything else, only the vi..vj path remains.  Any
    counted subtree contains that whole path, so it decomposes into
    independent choices hanging off each path vertex: the endpoints spend
    one degree unit on the path (entries up to k-1), interior vertices
    spend two (entries up to k-2).
    """
    if k < 1:
        raise KTooSmall(f"two-vertex counting needs k >= 1, got {k}")
    wt = as_weighted(t, k, DegreeVector)
    for label in (vi, vj):
        if label not in wt.tree:
            raise UnknownVertex(f"no vertex {label!r}")
    if vi == vj:
        raise SameVertex(f"anchors must be distinct, got {vi!r} twice")
    vectors = wt.contract(frozenset([vi, vj]), partial(leaf_update_subtree, k=k), choose)
    path = wt.tree.path_between(vi, vj)
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
    pair of vertices.  The subtraction can never go negative because every
    cap-(k-1) subtree also satisfies cap k.
    """
    if k < 1:
        raise KTooSmall(f"exact-degree counting needs k >= 1, got {k}")
    anchors = tuple(anchors)
    if len(anchors) > 2:
        raise TooManyAnchors(f"at most two anchors, got {len(anchors)}")
    wt = as_weighted(t, k, DegreeVector)
    lower = wt.truncated()
    if len(anchors) == 0:
        return count_all(wt, k) - count_all(lower, k - 1)
    if len(anchors) == 1:
        return count_containing(wt, k, anchors[0]) - count_containing(
            lower, k - 1, anchors[0]
        )
    if k == 1:
        # No subtree with maximum degree 0 contains two distinct vertices.
        return count_containing_pair(wt, k, *anchors)
    return count_containing_pair(wt, k, *anchors) - count_containing_pair(
        lower, k - 1, *anchors
    )
