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

A BC-subtree is assembled from two rooted pieces joined by an edge whose
endpoints land in opposite parity classes, which is what the cross
products in the counting functions below encode.  Single vertices and
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

from .bipoly import BiPoly, ONE, Y, ZERO
from .errors import KTooSmall, LengthMismatch, SameVertex, UnknownVertex
from .tree import Chooser, Tree, WeightedTree, as_weighted

EdgeChooser = Callable[[list[tuple[str, str]]], tuple[str, str]]


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
    t: Tree | WeightedTree, k: int, root: str, *, choose: Chooser | None = None
) -> ParityDegreeVector:
    """Contract everything onto ``root`` and return its final vector pair.

    Entry j of the odd (even) result generates the subtrees containing
    root with root degree exactly j and all leaves at odd (even) distance.
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    if root not in wt.tree:
        raise UnknownVertex(f"no vertex {root!r}")
    return wt.contract(frozenset([root]), partial(leaf_update_bc, k=k), choose)[root]


def _cross_product(
    side_a: ParityDegreeVector, side_b: ParityDegreeVector, edge_weight: BiPoly, k: int
) -> BiPoly:
    """BC-subtrees spanning one specific edge: odd-rooted piece on one side
    joined to an even-rooted piece on the other, both ways round.

    The edge consumes one degree unit at each endpoint, hence the k-1 caps;
    the odd side needs degree >= 1 because its leaves must exist.
    """
    return (
        side_a.odd_sum(1, k - 1) * side_b.even_sum(0, k - 1)
        + side_a.even_sum(0, k - 1) * side_b.odd_sum(1, k - 1)
    ) * edge_weight


def count_bc_all(
    t: Tree | WeightedTree, k: int, *, choose_edge: EdgeChooser | None = None
) -> BiPoly:
    """Generating function of all BC-subtrees with maximum degree <= k.

    Each term y^a z^b counts BC-subtrees with b edges whose even parity
    class (the one holding all the leaves) has a vertices.

    Split at an edge: every BC-subtree either crosses it (the cross
    product of the two rooted sides) or lies wholly in one component
    (recursion).  The result is independent of the split edge chosen.
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    return _bc_total(wt, k, choose_edge or min)


def _bc_total(wt: WeightedTree, k: int, pick_edge: EdgeChooser) -> BiPoly:
    if not wt.tree.edges:
        return ZERO
    u, p = pick_edge(sorted(wt.tree.edges))
    side_u, side_p = wt.split(u, p)
    vec_u = rooted_parity_vectors(side_u, k, u)
    vec_p = rooted_parity_vectors(side_p, k, p)
    cross = _cross_product(vec_p, vec_u, wt.edge_weight(u, p), k)
    return cross + _bc_total(side_u, k, pick_edge) + _bc_total(side_p, k, pick_edge)


def count_bc_containing(
    t: Tree | WeightedTree, k: int, v: str, *, choose: Chooser | None = None
) -> BiPoly:
    """Generating function of BC-subtrees containing vertex v.

    Peel off v's neighbour branches one at a time: BC-subtrees through the
    peeled edge are the cross product of the two sides, and what is left
    to count lives in the shrinking v-side tree.  An isolated v counts
    nothing (no BC-subtree has fewer than three vertices).
    """
    _require_k(k, 2)
    wt = as_weighted(t, k, ParityDegreeVector)
    if v not in wt.tree:
        raise UnknownVertex(f"no vertex {v!r}")
    pick = choose or min
    parts = []
    while wt.tree.degree(v) > 0:
        w = pick(list(wt.tree.neighbors(v)))
        edge_poly = wt.edge_weight(v, w)
        side_w, side_v = wt.split(w, v)
        vec_v = rooted_parity_vectors(side_v, k, v)
        vec_w = rooted_parity_vectors(side_w, k, w)
        parts.append(_cross_product(vec_v, vec_w, edge_poly, k))
        wt = side_v
    return BiPoly.sum(parts)


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
        raise ValueError(f"at most two anchors, got {len(anchors)}")
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
