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
from .errors import (
    KTooSmall,
    LengthMismatch,
    SameVertex,
    TooManyAnchors,
    UnknownVertex,
)
from .tree import Chooser, Tree, WeightedTree, as_weighted


class ParityDegreeVector:
    """Odd/even pair of degree-indexed rooted generating function vectors."""

    __slots__ = ("odd", "even")

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
        if hi < lo:
            return ZERO
        return BiPoly.sum(self.odd[max(lo, 0) : hi + 1])

    def even_sum(self, lo: int, hi: int) -> BiPoly:
        if hi < lo:
            return ZERO
        return BiPoly.sum(self.even[max(lo, 0) : hi + 1])

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

    Index 0 of both vectors is left untouched; new entries read only the
    incoming parent vectors (same no-double-attach rule as the plain
    subtree update).
    """
    if len(parent) != k + 1 or len(leaf) != k + 1:
        raise LengthMismatch(
            f"vectors must have length {k + 1}, got {len(parent)} and {len(leaf)}"
        )
    attach_odd = edge_weight * leaf.even_sum(0, k - 1)
    attach_even = edge_weight * leaf.odd_sum(1, k - 1)
    odd = list(parent.odd)
    even = list(parent.even)
    for i in range(1, k + 1):
        odd[i] = parent.odd[i] + parent.odd[i - 1] * attach_odd
        even[i] = parent.even[i] + parent.even[i - 1] * attach_even
    return ParityDegreeVector(odd, even)


def _require_k(k: int, minimum: int) -> None:
    if k < minimum:
        raise KTooSmall(f"this operation needs k >= {minimum}, got {k}")


def rooted_parity_vectors(
    t: Tree | WeightedTree,
    k: int,
    root: str,
    *,
    choose: Chooser | None = None,
    finished: Callable[[ParityDegreeVector], None] | None = None,
) -> ParityDegreeVector:
    """Contract everything onto ``root`` and return its final vector pair.

    Entry j of the odd (even) result generates the subtrees containing
    root with root degree exactly j and all leaves at odd (even) distance.
    ``finished``, if given, sees the final vector pair of every eliminated
    vertex, which is that vertex's downward pair: the vectors of its
    branch (what it cuts off from ``root``), rooted at it.
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    if root not in wt.tree:
        raise UnknownVertex(f"no vertex {root!r}")

    def fold(parent: ParityDegreeVector, leaf: ParityDegreeVector, edge_weight: BiPoly):
        if finished is not None:
            finished(leaf)
        return leaf_update_bc(parent, leaf, edge_weight, k)

    return wt.contract(frozenset([root]), fold, choose)[root]


def _topped_at(vec: ParityDegreeVector, k: int) -> BiPoly:
    """BC-subtrees whose top vertex has the downward pair ``vec``.

    A top of degree >= 2 is no leaf, so its subtree's leaves may all sit
    at odd or all at even distance from it.  A top of degree 1 is itself a
    leaf, so the other leaves sit at even distance.  Index 0 is the bare
    top, which never counts.
    """
    return vec.odd_sum(2, k) + vec.even_sum(1, k)


def count_bc_all(
    t: Tree | WeightedTree, k: int, *, choose: Chooser | None = None
) -> BiPoly:
    """Generating function of all BC-subtrees with maximum degree <= k.

    Each term y^a z^b counts BC-subtrees with b edges whose even parity
    class (the one holding all the leaves) has a vertices.

    One contraction onto the first vertex counts every BC-subtree at its
    top vertex, so the result is independent of the root and of the
    elimination order ``choose`` picks.  Input vectors with entries above
    index 0 would count the bare vertices they start with; those terms
    are taken off again (they are zero for the standard vectors).
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    total = _RunningSum()
    root = rooted_parity_vectors(
        wt, k, wt.tree.vertices[0], choose=choose,
        finished=lambda vec: total.add(_topped_at(vec, k)),
    )
    total.add(_topped_at(root, k))
    bare = BiPoly.sum(_topped_at(wt.vector(v), k) for v in wt.tree.vertices)
    return total.total() - bare


def count_bc_containing(
    t: Tree | WeightedTree, k: int, v: str, *, choose: Chooser | None = None
) -> BiPoly:
    """Generating function of BC-subtrees containing vertex v.

    Rooted at v, every such subtree has v as its top vertex, so the count
    comes from v's final vector pair alone, less what v's input pair
    counts on its own.  An isolated v counts nothing (no BC-subtree has
    fewer than three vertices).
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    vec = rooted_parity_vectors(wt, k, v, choose=choose)
    return _topped_at(vec, k) - _topped_at(wt.vector(v), k)


def count_bc_containing_pair(
    t: Tree | WeightedTree,
    k: int,
    vi: str,
    vj: str,
    *,
    choose: Chooser | None = None,
) -> BiPoly:
    """Generating function of BC-subtrees containing both vi and vj.

    After contraction only the vi..vj path remains, and any counted
    subtree contains it.  Walking the path alternates parity classes, so
    the product alternates between each interior vertex's odd and even
    sums; the two additive terms correspond to the two ways the parity
    classes can fall on the path, and the endpoint factors pair up by the
    path length's parity.
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    for label in (vi, vj):
        if label not in wt.tree:
            raise UnknownVertex(f"no vertex {label!r}")
    if vi == vj:
        raise SameVertex(f"anchors must be distinct, got {vi!r} twice")
    vectors = wt.contract(frozenset([vi, vj]), partial(leaf_update_bc, k=k), choose)
    path = wt.tree.path_between(vi, vj)
    length = len(path) - 1

    # Interior product, pattern A: odd positions take even sums.
    # Pattern B is the complement.  Position parity is the distance from vi.
    prod_a = ONE
    prod_b = ONE
    for pos, u in enumerate(path[1:-1], start=1):
        vec = vectors[u]
        odd_s = vec.odd_sum(0, k - 2)
        even_s = vec.even_sum(0, k - 2)
        if pos % 2:
            prod_a = prod_a * even_s
            prod_b = prod_b * odd_s
        else:
            prod_a = prod_a * odd_s
            prod_b = prod_b * even_s

    vec_i = vectors[vi]
    vec_j = vectors[vj]
    oi, ei = vec_i.odd_sum(1, k - 1), vec_i.even_sum(0, k - 1)
    oj, ej = vec_j.odd_sum(1, k - 1), vec_j.even_sum(0, k - 1)
    if length % 2 == 0:
        total = oi * oj * prod_a + ei * ej * prod_b
    else:
        total = oi * ej * prod_a + ei * oj * prod_b
    for a, b in zip(path, path[1:]):
        total = total * wt.edge_weight(a, b)
    return total


def count_bc_exact_degree(
    t: Tree | WeightedTree, k: int, anchors: Sequence[str] = ()
) -> BiPoly:
    """BC-subtrees of maximum degree exactly k: cap-k minus cap-(k-1).

    Needs k >= 3 so that the lower cap is still a valid BC bound.
    """
    _require_k(k, 3)
    anchors = tuple(anchors)
    if len(anchors) > 2:
        raise TooManyAnchors(f"at most two anchors, got {len(anchors)}")
    wt = as_weighted(t, k, ParityDegreeVector)
    lower = wt.truncated()
    if len(anchors) == 0:
        return count_bc_all(wt, k) - count_bc_all(lower, k - 1)
    if len(anchors) == 1:
        return count_bc_containing(wt, k, anchors[0]) - count_bc_containing(
            lower, k - 1, anchors[0]
        )
    return count_bc_containing_pair(wt, k, *anchors) - count_bc_containing_pair(
        lower, k - 1, *anchors
    )
