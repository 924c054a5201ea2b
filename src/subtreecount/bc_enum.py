"""Counting BC-subtrees (all leaves pairwise at even distance) under a
maximum-degree cap, as plain subtrees over the two colour classes.

In a tree, two vertices are at even distance exactly when they share a
colour of its 2-colouring.  So a subtree of two or more vertices is a
BC-subtree exactly when all its leaves have one colour c: the BC count is
the plain count (``subtree_enum``) run once per colour class c, with one
rule added, that a vertex outside c may not be a leaf.  In the pass for c,
a vertex of colour c starts at w and attaches to its neighbour from index
0 (lo = 0); any other vertex starts at 1 (y marks colour c only) and
attaches from index 1 (lo = 1), since at degree 1 it would be a leaf.

Each BC-subtree is counted once, in the pass of its leaves' colour, at its
top vertex (the one nearest the root of the contraction).  When a pass
eliminates a vertex, its row has absorbed its whole branch and nothing
else, so the subtrees topped there are read off that row from lo + 1: at
degree 0 the top is bare, which never counts, and at degree 1 it is a
leaf.  A single edge never counts: its two leaves differ in colour.

A vertex's even vector is its row in its own colour's pass, its odd
vector its row in the other pass; ``ParityDegreeVector`` holds the pair.
Custom weights with entries past lo count the bare vertices they start
with, so the counts take those terms off again; the library's own
starting vectors count none (``WeightedTree._starting``).  The rooted
vectors equal the oracle's under any weights, the counts only where every
odd vector is zero past index 0: an odd entry at i >= 1 makes its vertex
no leaf.  On the path a-b-c-d at k = 3, odd vectors (1, y, 0, 0) and even
ones (y, 0, 0, 0), ``count_bc_all`` gives 6*y^2*z + 2*y^2*z^2 + 4*y^3*z^2
+ 2*y^3*z^3 + 2*y^4*z^3, the oracle 2*y^2*z^2 + 4*y^3*z^2.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import subtree_enum
from .bipoly import BiPoly, ONE, Y, ZERO, _RunningSum
from .errors import InvalidArgument, LengthMismatch
from .subtree_enum import DegreeVector, _contract, _pair_product, _Product, exact_degree
from .subtree_enum import range_sum, _entries, _require_polys
from .tree import Tree, WeightedTree, _as_weighted, _require_row_cap, least_k


class ParityDegreeVector:
    """Odd/even pair of degree-indexed rooted generating function vectors.

    Both are views of a vertex's rows in the colour passes: ``even`` of
    its row in its own colour's pass (lo = 0), ``odd`` of its row in the
    other pass (lo = 1).
    """

    __slots__ = ("_own", "_other")
    family = "bc"

    def __init__(self, odd: Sequence[BiPoly], even: Sequence[BiPoly]):
        odd, even = _entries(odd), _entries(even)
        if not odd or len(odd) != len(even):
            raise LengthMismatch(
                f"odd/even vectors must have equal positive length, "
                f"got {len(odd)} and {len(even)}"
            )
        _require_polys(odd + even)
        self._own, self._other = DegreeVector._row(even, 0), DegreeVector._row(odd, 1)

    @property
    def odd(self) -> tuple[BiPoly, ...]:
        return self._other.entries

    @property
    def even(self) -> tuple[BiPoly, ...]:
        return self._own.entries

    @classmethod
    def initial(cls, k: int, vertex_weight: BiPoly = Y) -> "ParityDegreeVector":
        """Starting vectors: odd = (1, 0, ..., 0), even = (w, 0, ..., 0).

        The odd vector starts at the constant 1: in the other colour's pass
        y does not mark the vertex, and on its own it counts nothing.  k is
        checked as ``DegreeVector.initial`` checks it.
        """
        _require_row_cap(k)
        return cls((ONE,) + (ZERO,) * k, (vertex_weight,) + (ZERO,) * k)

    @classmethod
    def _product(cls, vertex_weight: BiPoly) -> "ParityDegreeVector":
        """The starting vectors as product rows, with heads 0..lo: (1, 0), (w)."""
        out = object.__new__(cls)
        out._own = DegreeVector._row(_Product((vertex_weight, ZERO)), 0)
        out._other = DegreeVector._row(_Product((ONE, ZERO, ZERO)), 1)
        return out

    def _fits(self, k: int) -> bool:
        """Whether cap k can count these vectors (see ``DegreeVector._fits``)."""
        return self._other._fits(k)

    def truncated(self) -> "ParityDegreeVector":
        """Both vectors without their top entry: the cap k-1 view."""
        return ParityDegreeVector(self.odd[:-1], self.even[:-1])

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


def _colour_passes(wt: WeightedTree, first: str) -> list[WeightedTree]:
    """The two colour passes of ``wt``, the pass of ``first``'s colour first.

    In the pass of colour c, a vertex of colour c carries its even row with
    lo = 0 and every other vertex its odd row with lo = 1.  The colours are
    the tree's cached 2-colouring (``Tree._colouring``).
    """
    colour = wt.tree._colouring()
    vectors = wt._vertex_weights.items()
    return [wt._reweighted({v: vec._own if colour[v] is c else vec._other for v, vec in vectors})
            for c in (colour[first], not colour[first])]


def _tops(vec: ParityDegreeVector, k: int) -> BiPoly:
    """BC-subtrees topped at a vertex whose downward vectors are ``vec``:
    its rows in its own pass (lo = 0) and the other (lo = 1), each read
    from lo + 1."""
    return range_sum(vec.even, 1, k) + range_sum(vec.odd, 2, k)


def _bare(wt: WeightedTree, k: int, vertices) -> BiPoly:
    """What the input vectors of ``vertices`` count on their own."""
    return ZERO if wt._starting else BiPoly.sum(_tops(wt.vector(v), k) for v in vertices)


def rooted_parity_vectors(
    t: Tree | WeightedTree,
    k: int,
    root: str,
    *,
    finished: Callable[[Sequence[BiPoly], int], None] | None = None,
) -> ParityDegreeVector:
    """Contract everything onto ``root`` in both colour passes and return
    its final vector pair.

    Entry j of the odd (even) result generates the subtrees containing
    root with root degree exactly j and all leaves at odd (even) distance.
    ``finished``, if given, is called as ``finished(row, lo)`` with every
    eliminated vertex's final row and lo, once per pass (lo = 0 in its own
    colour's pass, 1 in the other): its downward row there, of the branch
    it cuts off from ``root``, as the door built it (``tree._as_weighted``):
    a product row where the cap cannot bind, so read it from lo by range
    sums.  On a plain Tree only the root starts full, at the cap that can
    bind, since its rows are the result.  Every row returned is padded to
    length k+1, so on a plain Tree k may not exceed ``tree.MAX_VERTICES``
    (TooLarge); the door's own root rows are read only from lo + 1 (``_tops``).
    """
    if finished is not None and not callable(finished):
        raise InvalidArgument(f"finished must be callable or None, got {finished!r}")
    wt, cap, _ = _as_weighted(t, k, ParityDegreeVector, (root,))
    if isinstance(t, Tree):
        _require_row_cap(k)
        wt = wt._reweighted({**wt._vertex_weights, root: ParityDegreeVector.initial(cap)})
    keep = frozenset([root])
    own, other = (_contract(p, cap, keep, finished)[root].entries for p in _colour_passes(wt, root))
    return ParityDegreeVector(*(row + (ZERO,) * (k + 1 - len(row)) for row in (other, own)))


def count_bc_all(t: Tree | WeightedTree, k: int) -> BiPoly:
    """Generating function of all BC-subtrees with maximum degree <= k.

    Each term y^a z^b counts BC-subtrees with b edges whose even parity
    class (the one holding all the leaves) has a vertices.

    Both colour passes contract onto the tree's centroid, the cheapest
    root (see ``Tree._elimination``); counted at their top vertices,
    the results do not depend on the root or the elimination order.
    """
    wt, k, _ = _as_weighted(t, k, ParityDegreeVector)
    total = _RunningSum()
    root = rooted_parity_vectors(
        wt, k, wt.tree.centroid(), finished=lambda row, lo: total.add(range_sum(row, lo + 1, k))
    )
    total.add(_tops(root, k))
    return total.total() - _bare(wt, k, wt.tree.vertices)


def count_bc_containing(t: Tree | WeightedTree, k: int, v: str) -> BiPoly:
    """Generating function of BC-subtrees containing vertex v.

    Rooted at v, every such subtree has v as its top vertex, so the count
    comes from v's final vector pair alone, less what custom input vectors
    of v count on their own.  An isolated v counts nothing.
    """
    wt, k, _ = _as_weighted(t, k, ParityDegreeVector, (v,))
    return _tops(rooted_parity_vectors(wt, k, v), k) - _bare(wt, k, [v])


def count_bc_containing_pair(
    t: Tree | WeightedTree, k: int, vi: str, vj: str
) -> BiPoly:
    """Generating function of BC-subtrees containing both vi and vj: the
    plain pair count (``subtree_enum._pair_product``) over both colour
    passes, whose ends are read from their own lo."""
    wt, k, _ = _as_weighted(t, k, ParityDegreeVector, (vi, vj))
    return _pair_product(_colour_passes(wt, vi), k, wt.tree.path_between(vi, vj))


def count_bc_exact_degree(
    t: Tree | WeightedTree, k: int, anchors: Sequence[str] = ()
) -> BiPoly:
    """BC-subtrees of maximum degree exactly k: cap-k minus cap-(k-1).

    Needs k one above the least BC cap, ``LEAST_K["bc"]`` in tree.py.
    """
    modes = (count_bc_all, count_bc_containing, count_bc_containing_pair)
    return exact_degree(modes, t, k, anchors, ParityDegreeVector)


def _family(family: str) -> tuple:
    """``family``'s row type, its counts with zero, one and two anchors, and
    its exact-degree count.  Each count is read from its module on every
    call, so one re-bound there (by a tracer or a test) is the one called."""
    least_k(family)  # InvalidArgument for an unknown family
    if family == "bc":
        modes = (count_bc_all, count_bc_containing, count_bc_containing_pair)
        return ParityDegreeVector, modes, count_bc_exact_degree
    s = subtree_enum
    modes = (s.count_all, s.count_containing, s.count_containing_pair)
    return DegreeVector, modes, s.count_exact_degree
