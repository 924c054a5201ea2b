"""Counting BC-subtrees (all leaves pairwise at even distance) under a
maximum-degree cap.

Vertices carry two vectors here.  Entry i of the odd vector generates
rooted subtrees in which the root has degree exactly i and every leaf sits
at odd distance from the root; the even vector is the same with even
distances.  Contraction folds an eliminated pendant vertex into its
neighbour with a parity twist: hanging a branch off the neighbour flips
the parity of every leaf distance in that branch, so odd entries absorb
the branch's even total and vice versa.  The even total may include the
bare branch root (index 0) while the odd total starts at index 1, because
a branch root that stays a leaf of the subtree sits at distance 1, which
is odd seen from the neighbour but would need index 0 on the branch side.

A BC-subtree is counted once, at its top vertex: the one nearest the
root of a single rooted contraction.  When that contraction eliminates a
vertex, the vertex's vectors have absorbed its whole branch and nothing
else, so they are its downward vectors, and the BC-subtrees topped there
are read off them directly (see ``_topped_at``).  Single vertices and
single edges never count as BC-subtrees.

Counting functions accept a WeightedTree with custom vectors and evaluate
the same recursion over them.  The rooted vectors stay meaningful for any
weights; for the assembled counts it is the standard initialization (odd
entries above index 0 start at zero) that pins the result to exactly the
BC family.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from .bipoly import BiPoly, ONE, Y, ZERO, _RunningSum
from .errors import LengthMismatch
from .subtree_enum import exact_degree, fold_row, range_sum
from .tree import Tree, WeightedTree, as_weighted, check_anchors


class ParityDegreeVector:
    """Odd/even pair of degree-indexed rooted generating function vectors."""

    __slots__ = ("odd", "even")
    family = "bc"

    def __init__(self, odd: Sequence[BiPoly], even: Sequence[BiPoly]):
        self.odd = tuple(odd)
        self.even = tuple(even)
        if not self.odd or len(self.odd) != len(self.even):
            raise LengthMismatch(
                f"odd/even vectors must have equal positive length, "
                f"got {len(self.odd)} and {len(self.even)}"
            )

    @classmethod
    def initial(cls, k: int, vertex_weight: BiPoly = Y) -> "ParityDegreeVector":
        """Starting vectors: odd = (1, 0, ..., 0), even = (w, 0, ..., 0).

        The odd vector starts at the constant 1: a bare vertex has no leaf
        at odd distance, so it enters odd-side products as a neutral factor
        and never contributes a counted structure by itself.
        """
        return cls((ONE,) + (ZERO,) * k, (vertex_weight,) + (ZERO,) * k)

    def truncated(self) -> "ParityDegreeVector":
        """Both vectors without their top entry: the cap k-1 view."""
        return ParityDegreeVector(self.odd[:-1], self.even[:-1])

    def odd_sum(self, lo: int, hi: int) -> BiPoly:
        return range_sum(self.odd, lo, hi)

    def even_sum(self, lo: int, hi: int) -> BiPoly:
        return range_sum(self.even, lo, hi)

    def __len__(self) -> int:
        return len(self.odd)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParityDegreeVector):
            return NotImplemented
        return self.odd == other.odd and self.even == other.even

    def __repr__(self) -> str:
        odd = ", ".join(str(e) for e in self.odd)
        even = ", ".join(str(e) for e in self.even)
        return f"ParityDegreeVector(odd=[{odd}], even=[{even}])"


def leaf_update_bc(
    parent: ParityDegreeVector,
    leaf: ParityDegreeVector,
    edge_weight: BiPoly,
    k: int,
) -> ParityDegreeVector:
    """Fold an eliminated pendant vertex into its neighbour's parity vectors.

    The plain fold, with the parity twist: the odd vector attaches the
    leaf's even sum, the even vector the leaf's odd sum from index 1.
    """
    return ParityDegreeVector(
        fold_row(parent.odd, leaf.even, 0, edge_weight, k),
        fold_row(parent.even, leaf.odd, 1, edge_weight, k),
    )


def rooted_parity_vectors(
    t: Tree | WeightedTree,
    k: int,
    root: str,
    *,
    finished: Callable[[ParityDegreeVector], None] | None = None,
) -> ParityDegreeVector:
    """Contract everything onto ``root`` and return its final vector pair.

    Entry j of the odd (even) result generates the subtrees containing
    root with root degree exactly j and all leaves at odd (even) distance.
    ``finished``, if given, sees the final vector pair of every eliminated
    vertex, which is that vertex's downward pair: the vectors of its
    branch (what it cuts off from ``root``), rooted at it.  On a plain
    Tree the contraction runs at the cap that can bind (see
    ``tree.as_weighted``), so those pairs may be shorter than k+1; the
    result is padded with zeros to length k+1.
    """
    wt, cap = as_weighted(t, k, ParityDegreeVector)
    check_anchors(wt.tree, (root,))

    def fold(parent: ParityDegreeVector, leaf: ParityDegreeVector, edge_weight: BiPoly):
        if finished is not None:
            finished(leaf)
        return leaf_update_bc(parent, leaf, edge_weight, cap)

    vec = wt.contract(frozenset([root]), fold)[root]
    pad = (ZERO,) * (k - cap)
    return ParityDegreeVector(vec.odd + pad, vec.even + pad) if pad else vec


def _topped_at(vec: ParityDegreeVector, k: int) -> BiPoly:
    """BC-subtrees whose top vertex has the downward pair ``vec``.

    A top of degree >= 2 is no leaf, so its subtree's leaves may all sit
    at odd or all at even distance from it.  A top of degree 1 is itself a
    leaf, so the other leaves sit at even distance.  Index 0 is the bare
    top, which never counts.
    """
    return range_sum(vec.odd, 2, k) + range_sum(vec.even, 1, k)


def count_bc_all(t: Tree | WeightedTree, k: int) -> BiPoly:
    """Generating function of all BC-subtrees with maximum degree <= k.

    Each term y^a z^b counts BC-subtrees with b edges whose even parity
    class (the one holding all the leaves) has a vertices.

    One contraction onto the tree's centroid (the cheapest root, see
    ``WeightedTree.contract``) counts every BC-subtree at its top vertex,
    so the result is independent of the root and of the elimination
    order.  Custom input vectors with entries above index 0 would count
    the bare vertices they start with; those terms are taken off again.
    The standard vectors of a plain Tree count none, so it skips that step.
    """
    wt, k = as_weighted(t, k, ParityDegreeVector)
    total = _RunningSum()
    root = rooted_parity_vectors(
        wt, k, wt.tree.centroid(), finished=lambda vec: total.add(_topped_at(vec, k))
    )
    total.add(_topped_at(root, k))
    if isinstance(t, Tree):
        return total.total()
    bare = BiPoly.sum(_topped_at(wt.vector(v), k) for v in wt.tree.vertices)
    return total.total() - bare


def count_bc_containing(t: Tree | WeightedTree, k: int, v: str) -> BiPoly:
    """Generating function of BC-subtrees containing vertex v.

    Rooted at v, every such subtree has v as its top vertex, so the count
    comes from v's final vector pair alone, less what v's input pair
    counts on its own.  An isolated v counts nothing (no BC-subtree has
    fewer than three vertices).
    """
    wt, k = as_weighted(t, k, ParityDegreeVector)
    vec = rooted_parity_vectors(wt, k, v)
    return _topped_at(vec, k) - _topped_at(wt.vector(v), k)


def count_bc_containing_pair(
    t: Tree | WeightedTree, k: int, vi: str, vj: str
) -> BiPoly:
    """Generating function of BC-subtrees containing both vi and vj.

    After contraction only the vi..vj path remains, and any counted
    subtree contains it.  Path vertices alternate between the class that
    holds the leaves (even sums) and the other class (odd sums).  The walk
    from vj back to vi carries both cases for the vertex it has reached,
    and each step joins the next vertex, in the other class, through the
    edge between them.  Interior vertices spend two degree units on the
    path, the endpoints one; an endpoint outside the leaves' class is no
    leaf, so its odd sum starts at index 1.
    """
    wt, k = as_weighted(t, k, ParityDegreeVector)
    path = wt.tree.path_between(vi, vj)
    vectors = wt.contract(frozenset([vi, vj]), partial(leaf_update_bc, k=k))
    odd, even = vectors[vj].odd_sum(1, k - 1), vectors[vj].even_sum(0, k - 1)
    for u, nxt in zip(path[-2:0:-1], path[:1:-1]):
        w = wt.edge_weight(u, nxt)
        vec = vectors[u]
        odd, even = vec.odd_sum(0, k - 2) * w * even, vec.even_sum(0, k - 2) * w * odd
    total = vectors[vi].odd_sum(1, k - 1) * even + vectors[vi].even_sum(0, k - 1) * odd
    return wt.edge_weight(vi, path[1]) * total


def count_bc_exact_degree(
    t: Tree | WeightedTree, k: int, anchors: Sequence[str] = ()
) -> BiPoly:
    """BC-subtrees of maximum degree exactly k: cap-k minus cap-(k-1).

    Needs k one above the least BC cap, ``LEAST_K["bc"]`` in tree.py.
    """
    modes = (count_bc_all, count_bc_containing, count_bc_containing_pair)
    return exact_degree(modes, t, k, anchors, ParityDegreeVector)
