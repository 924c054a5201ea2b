"""Counting subtrees under a maximum-degree cap by leaf contraction.

Each vertex v carries a vector whose entry i is the generating function of
subtrees rooted at v in which v has degree exactly i and no vertex exceeds
degree k.  Eliminating a pendant vertex u with edge (u, p) folds u's
vector into p's: entry i of p gains entry i-1 times the total weight of
rooted subtrees that can hang off the removed edge (u's entries 0..k-1,
since attaching uses one unit of u's degree budget).  Repeating this until
the tree is a single vertex turns local vectors into global counts.

A *product row* keeps the entries below the largest lower index its family
reads (none for plain subtrees), then ``rest``, the sum of all the others.
It serves a vertex of degree at most the cap, which takes at most cap - 1
folds before it is eliminated (cap if it survives, cap - 2 inside a pair's
path): every range read from it reaches past its last non-zero entry, and
the cap never truncates it.  Without a head, rest = w * prod(1 + a_j) over
the attached branches a_j, so a fold costs one product, rest * (1 + a), not
one per live entry; with a head, rest gains (last head entry + rest) * a.

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

from .bipoly import BiPoly, ONE, Y, ZERO, _RunningSum
from .errors import LengthMismatch
from .tree import Tree, WeightedTree, as_weighted, check_anchors, least_k, require_int


class _Product(tuple):
    """A product row: head entries, then ``rest`` (see the module docstring)."""

    __slots__ = ()


def range_sum(entries: Sequence[BiPoly], lo: int, hi: int) -> BiPoly:
    """Sum of entries lo..hi inclusive; empty or negative ranges are zero.
    A product row holds nothing past hi: its head entries from lo plus rest."""
    if hi < lo:
        return ZERO
    if type(entries) is _Product:
        lo = min(lo, len(entries) - 1)
        # rest first: BiPoly.sum copies its first operand, mostly the largest.
        return entries[lo] if lo == len(entries) - 1 else BiPoly.sum(reversed(entries[lo:]))
    return BiPoly.sum(entries[max(lo, 0) : hi + 1])


def fold_row(
    parent: Sequence[BiPoly], leaf: Sequence[BiPoly], lo: int, edge_weight: BiPoly, k: int
) -> tuple[BiPoly, ...]:
    """The fold of both families, on one degree-indexed row.

    The branch hung off the removed edge is ``edge_weight`` times the
    leaf's entries lo..k-1.  New entries read only the incoming parent
    row, never already-updated entries; otherwise the same leaf could
    attach twice.  Either row may be a full row of length k+1 or a product
    row; the result has the parent's form.
    """
    if (len(parent) != k + 1 and type(parent) is not _Product) or (
        len(leaf) != k + 1 and type(leaf) is not _Product
    ):
        raise LengthMismatch(
            f"vectors must have length {k + 1}, got {len(parent)} and {len(leaf)}"
        )
    attach = edge_weight * range_sum(leaf, lo, k - 1)
    product = type(parent) is _Product
    if product and len(parent) == 1:
        return _Product((parent[0] * (attach + ONE),))
    out = list(parent)
    for i in range(1, len(parent) - product):
        out[i] = parent[i] + parent[i - 1] * attach
    if not product:
        return tuple(out)
    out[-1] = (parent[-1] + parent[-2]) * attach + parent[-1]
    return _Product(out)


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
    lower = t if isinstance(t, Tree) else wt.truncated()
    return count(wt, k, *anchors) - count(lower, k - 1, *anchors)


class DegreeVector:
    """Per-vertex weight vector, index i = rooted subtrees with root degree i."""

    __slots__ = ("entries",)
    family = "subtree"

    def __init__(self, entries: Sequence[BiPoly]):
        self.entries = entries if type(entries) is _Product else tuple(entries)
        if not self.entries:
            raise LengthMismatch("a degree vector needs at least one entry")

    @classmethod
    def initial(cls, k: int, vertex_weight: BiPoly = Y) -> "DegreeVector":
        """The starting vector (w, 0, ..., 0) of length k+1."""
        return cls((vertex_weight,) + (ZERO,) * k)

    @classmethod
    def _product(cls, vertex_weight: BiPoly) -> "DegreeVector":
        """The starting vector as a product row: no head, rest = w."""
        return cls(_Product((vertex_weight,)))

    def _fits(self, k: int) -> bool:
        """Whether cap k can count this vector: a product row fits any cap."""
        return type(self.entries) is _Product or len(self.entries) == k + 1

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
    factors = [vectors[vi].sum_range(0, k - 1), vectors[vj].sum_range(0, k - 1)]
    factors += [vectors[u].sum_range(0, k - 2) for u in path[1:-1]]
    factors += [wt.edge_weight(a, b) for a, b in zip(path, path[1:])]
    # Pairwise, up a balanced tree, not each onto a product of about n terms.
    while len(factors) > 1:
        pairs = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        factors = pairs + factors[2 * len(pairs) :]
    return factors[0]


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
