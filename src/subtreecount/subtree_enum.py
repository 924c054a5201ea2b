"""Counting subtrees under a maximum-degree cap by leaf contraction.

Each vertex v carries a vector whose entry i is the generating function of
subtrees rooted at v in which v has degree exactly i and no vertex exceeds
degree k.  Eliminating a pendant vertex u with edge (u, p) folds u's
vector into p's: entry i of p gains entry i-1 times the total weight of
rooted subtrees that can hang off the removed edge, u's entries lo..k-1
(attaching uses one unit of u's degree budget; lo = 0 here, where any
vertex may be a leaf, and 1 in a BC colour pass for a vertex that may not,
see bc_enum).  Repeating this until the tree is a single vertex turns
local vectors into global counts.

A *product row* keeps its head, the entries below the largest lower index
its reader uses (none for plain subtrees, 0..lo in a BC pass, which reads
from lo + 1), then ``rest``, the sum of all the others.  It serves a
vertex of degree at most the cap, which takes at most cap - 1 folds before
it is eliminated (cap if it survives, cap - 2 inside a pair's path): every
range read from it reaches past its last non-zero entry, and the cap never
truncates it.  So a fold costs one product, not one per live entry: rest
becomes rest * a + rest, plus h * a when the row has a head, h its last
entry (without one, rest = w * prod(1 + a_j) over the branches a_j).

A fold calls the ring only where a row can change: a ZERO entry is
neither added nor multiplied, and a ONE factor hands back the other
operand without a call.  The attach a is the edge weight times the
branch; where a single entry takes it (a fresh row, a row without heads
to update), the edge weight is multiplied into the side that is cheaper
to shift, that entry's factor or the branch: a list (which moves its
offset), else the one with fewer terms.  So a fresh row's monomial
vertex weight meets the edge weight in one monomial product, and the
branch is shifted once, not twice.

The elimination loop of both families is ``_contract``: it walks the
tree's elimination order (``Tree._elimination``) and folds each vertex
with ``leaf_update_subtree``.  The counting modes differ only in which
vertices survive and how their vectors are combined.

The fold needs only ``+``, ``*``, a zero and a one, so it runs in the ring
of the rows it is given (``bipoly._Ring``): BiPoly for a generating
function, or plain ints for a count alone, the door's rows started from
the unit weight 1 in place of y and z (``tree._as_weighted``), whose
results are ``eval_counts()`` of the BiPoly ones.  ``range_sum`` sums a
row in its ring, and the counts take their zero, their sums and their
running sums from the WeightedTree's.  The identity tests against ZERO
and ONE only skip work: an int row has no such entry and takes every
step, but for an empty branch, which leaves the parent as it is in
either ring.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .bipoly import BiPoly, ONE, Y, ZERO, _POLYS, _Ring, _ring_of
from .errors import InvalidArgument, LengthMismatch, NegativeCoefficient
from .tree import Tree, WeightedTree, _as_weighted, _require_row_cap, least_k, require_int


class _Product(tuple):
    """A product row: head entries, then ``rest`` (see the module docstring)."""

    __slots__ = ()


def range_sum(entries: Sequence[BiPoly], lo: int, hi: int) -> BiPoly:
    """Sum of entries lo..hi inclusive, in the row's ring (BiPoly, or plain
    ints by the builtin ``sum``); empty or negative ranges are its zero.
    A product row holds nothing past hi: its head entries from lo plus rest."""
    if hi < lo:
        return 0 if type(entries[0]) is int else ZERO
    if type(entries) is _Product:
        last = len(entries) - 1
        if lo >= last:
            return entries[last]
        part = entries[lo:]
    else:
        part = entries[max(lo, 0) : hi + 1]
    return sum(part) if type(entries[0]) is int else BiPoly.sum(part)


def exact_degree(
    modes: Sequence[Callable[..., BiPoly]],
    t: Tree | WeightedTree,
    k: int,
    anchors: Sequence[str],
    vector_type,
    unit: tuple | None = None,
) -> BiPoly | int:
    """Maximum degree exactly k: the cap-k count minus the cap-(k-1) count.

    ``modes`` are the family's counts with zero, one and two anchors; the
    cap k-1 must be one they support.  On a plain Tree both counts start
    from the door's unit weights: Y and Z for the generating function, or
    ``unit``, (1, 1) for the count in plain ints.  The difference is never
    negative: whatever cap k-1 counts, cap k counts too; if it were, either
    ring raises NegativeCoefficient.  Above the cap that can bind on a
    plain Tree it is zero: no subtree has that maximum degree.
    """
    require_int(k, least_k(vector_type.family) + 1)
    wt, cap, anchors = _as_weighted(t, k, vector_type, anchors, *(unit or ()))
    if cap < k:
        return wt._ring.zero
    count = modes[len(anchors)]
    if not isinstance(t, Tree):
        lower = wt.truncated()
    elif unit is None:  # the count's own door builds the same rows
        lower = t
    else:
        lower = _as_weighted(t, k - 1, vector_type, anchors, *unit)[0]
    high, low = count(wt, k, *anchors), count(lower, k - 1, *anchors)
    if type(high) is int and low > high:  # BiPoly.__sub__ checks each coefficient
        raise NegativeCoefficient(f"the cap-{k - 1} count {low} exceeds the cap-{k} count {high}")
    return high - low


def _entries(entries: Sequence[BiPoly]) -> tuple:
    """``entries`` as a tuple, once they are known to be iterable (else InvalidArgument)."""
    if not hasattr(entries, "__iter__"):
        raise InvalidArgument(f"vector entries must be a sequence of BiPoly, got {entries!r}")
    return tuple(entries)


def _require_ring(entries: Sequence[object], ring: _Ring) -> None:
    """Check that every vector entry belongs to ``ring``; raise InvalidArgument if not."""
    for entry in entries:
        if not ring.has(entry):
            kind = "BiPoly" if ring is _POLYS else "ints"
            raise InvalidArgument(f"vector entries must be {kind}, got {entry!r}")


class DegreeVector:
    """Per-vertex weight vector, index i = rooted subtrees with root degree i.

    Its entries are BiPoly.  ``initial`` and ``_product`` with an int weight
    build rows of plain ints, which the counts' door uses when no generating
    function is asked for (``tree._as_weighted``)."""

    __slots__ = ("entries", "_lo")
    family = "subtree"

    def __init__(self, entries: Sequence[BiPoly]):
        self.entries = _entries(entries)
        if not self.entries:
            raise LengthMismatch("a degree vector needs at least one entry")
        _require_ring(self.entries, _POLYS)
        self._lo = 0

    @classmethod
    def _row(cls, entries: Sequence[BiPoly], lo: int) -> "DegreeVector":
        """Trusted constructor: a checked or product row that attaches from lo."""
        out = object.__new__(cls)
        out.entries, out._lo = entries, lo
        return out

    @classmethod
    def initial(cls, k: int, vertex_weight: BiPoly | int = Y) -> "DegreeVector":
        """The starting vector (w, 0, ..., 0) of length k+1 (k checked by
        ``tree._require_row_cap``) in w's ring: BiPoly, or plain ints for
        an int w."""
        _require_row_cap(k)
        ring = _ring_of(vertex_weight)
        _require_ring((vertex_weight,), ring)
        return cls._row((vertex_weight,) + (ring.zero,) * k, 0)

    @classmethod
    def _product(cls, vertex_weight: BiPoly) -> "DegreeVector":
        """The starting vector as a product row: no head, rest = w."""
        return cls._row(_Product((vertex_weight,)), 0)

    def _fits(self, k: int) -> bool:
        """Whether cap k can count this vector; a product row, only ever the
        door's (``tree._as_weighted``), passes here at the cap it was built for."""
        return type(self.entries) is _Product or len(self.entries) == k + 1

    @property
    def _ring(self) -> _Ring:
        return _ring_of(self.entries[0])

    def truncated(self) -> "DegreeVector":
        """This vector without its top entry, read from 0: the cap k-1 view."""
        if len(self.entries) < 2:
            raise LengthMismatch("a degree vector needs at least one entry")
        return DegreeVector._row(self.entries[:-1], 0)

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
    """Fold an eliminated pendant vertex into its neighbour's vector: the
    fold of both families.

    The branch hung off the removed edge is ``edge_weight`` times the
    leaf's entries lo..k-1, lo being the leaf's.  New entries read only the
    incoming parent row, never already-updated entries; otherwise the same
    leaf could attach twice.  Either row may be a full row of length k+1 or
    a product row; the result has the parent's form and lo.  An empty
    branch leaves the parent as it is, returned itself: in a BC pass, every
    original leaf outside the colour class attaches nothing.
    """
    row, hung = parent.entries, leaf.entries
    top = len(row) - 1
    product = type(row) is _Product
    # DegreeVector._fits, inline: this runs once per eliminated vertex.
    if not ((product or top == k) and (type(hung) is _Product or len(hung) == k + 1)):
        raise LengthMismatch(f"vectors must have length {k + 1}, got {top + 1} and {len(hung)}")
    branch = range_sum(hung, leaf._lo, k - 1)
    ints = type(branch) is int  # the ring: plain ints, else BiPoly
    if branch is ZERO or ints and not branch:
        return parent
    # Entry i gains f * edge_weight * branch, f the entry below it; a
    # product row's rest gains its base, rest plus its last head, times that.
    live = []
    for i in range(1, top + 1 - product):
        if row[i - 1] is not ZERO:
            live.append((i, row[i - 1]))
    if product:
        base = row[top]  # rest, plus the last head if there is one
        if top and row[top - 1] is not ZERO:
            base = row[top - 1] if base is ZERO else base + row[top - 1]
        if base is not ZERO:
            live.append((top, base))
    out = list(row)
    if len(live) == 1:  # a lone factor: the edge weight goes to the cheaper side
        ((i, f),) = live
        if edge_weight is not ONE:  # a list moves its offset; a dict is walked term by term
            if f is ONE or branch is not ONE and (
                ints
                or f._line is not None
                or branch._line is None and len(f._terms) <= len(branch._terms)
            ):
                f = edge_weight if f is ONE else f * edge_weight
            else:
                branch = edge_weight if branch is ONE else edge_weight * branch
        gain = branch if f is ONE else f if branch is ONE else f * branch
        out[i] = gain if row[i] is ZERO else row[i] + gain
    else:  # the factors share one attach
        if edge_weight is not ONE:
            branch = edge_weight if branch is ONE else edge_weight * branch
        for i, f in live:
            gain = branch if f is ONE else f if branch is ONE else f * branch
            out[i] = gain if row[i] is ZERO else row[i] + gain
    vec = object.__new__(DegreeVector)  # DegreeVector._row, inline
    vec.entries, vec._lo = _Product(out) if product else tuple(out), parent._lo
    return vec


def _contract(wt: WeightedTree, k: int, keep: frozenset, finished: Callable | None = None):
    """The survivors' vectors once every pendant vertex outside ``keep`` is
    folded into its neighbour (``leaf_update_subtree`` at cap k) in the
    order of ``Tree._elimination``; ``wt`` is unchanged.  ``finished``, if
    given, is called as ``finished(row, lo)`` with every eliminated vertex's
    final row, its downward row: of the branch it cuts off from the survivors."""
    vectors = dict(wt._vertex_weights)
    weights = wt._edge_weights
    for u, p, edge in wt.tree._elimination(keep):
        leaf = vectors.pop(u)
        if finished is not None:
            finished(leaf.entries, leaf._lo)
        vectors[p] = leaf_update_subtree(vectors[p], leaf, weights[edge], k)
    return vectors


def count_all(t: Tree | WeightedTree, k: int) -> BiPoly:
    """Generating function of all subtrees with maximum degree <= k.

    Each term y^a z^b counts subtrees with a vertices and b edges (under
    the default weights); evaluate at y = z = 1 for the plain count.  Every
    subtree is counted once, at the first of its vertices to be eliminated
    (or at the survivor), from that vertex's downward vector.
    """
    wt, k, _ = _as_weighted(t, k, DegreeVector)
    total = wt._ring.running_sum()
    survivors = _contract(wt, k, frozenset(), lambda row, lo: total.add(range_sum(row, 0, k)))
    (last,) = survivors.values()
    total.add(range_sum(last.entries, 0, k))
    return total.total()


def count_containing(t: Tree | WeightedTree, k: int, v: str) -> BiPoly:
    """Generating function of subtrees containing vertex v, max degree <= k."""
    wt, k, _ = _as_weighted(t, k, DegreeVector, (v,))
    return _contract(wt, k, frozenset([v]))[v].sum_range(0, k)


def count_containing_pair(t: Tree | WeightedTree, k: int, vi: str, vj: str) -> BiPoly:
    """Generating function of subtrees containing both vi and vj."""
    wt, k, _ = _as_weighted(t, k, DegreeVector, (vi, vj))
    return _pair_product([wt], k, wt.tree.path_between(vi, vj))


def _pair_product(passes: Sequence[WeightedTree], k: int, path: Sequence[str]) -> BiPoly:
    """The pair count from one contraction per pass onto the ends of ``path``.

    Only the path remains.  Any counted subtree contains all of it, so it
    decomposes into independent choices hanging off each path vertex: the
    ends spend one degree unit on the path (entries lo..k-1), interior
    vertices two (entries 0..k-2; they are no leaves, so lo cannot bind).
    The passes (plain, or one per colour class) share their edge weights,
    so those multiply the sum of the passes' vertex products once.
    """
    ends = frozenset([path[0], path[-1]])
    products = []
    for wt in passes:
        vectors = _contract(wt, k, ends)
        factors = [vectors[u].sum_range(vectors[u]._lo, k - 1) for u in (path[0], path[-1])]
        factors += [vectors[u].sum_range(0, k - 2) for u in path[1:-1]]
        products.append(_balanced_product(factors))
    edges = [passes[0].edge_weight(a, b) for a, b in zip(path, path[1:])]
    return passes[0]._ring.sum(products) * _balanced_product(edges)


def _balanced_product(factors: list[BiPoly]) -> BiPoly:
    """Pairwise, up a balanced tree, not each onto a product of about n terms."""
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
