"""Labeled trees: parsing, rendering, random generation, structural queries.

Trees are immutable values over string vertex labels.  The edge-list text
format is one ``u v`` pair per line, ``#`` starts a comment line, blank
lines are skipped, and a lone ``u`` line denotes the one-vertex tree.

A WeightedTree is a checked value: a tree, one weight payload per vertex
(a degree-indexed vector of polynomials, see subtree_enum / bc_enum) and
one polynomial per edge.  The counts never rebuild it: the elimination
loop of both families (``subtree_enum._contract``) reads the tree's
elimination order (``Tree._elimination``) and folds copies of the vectors;
the underlying polynomials are immutable and shared.  The order depends
only on the tree and the survivors, so a Tree caches the last one beside
its centroid, and the two colour passes of a BC count and the cap-(k-1)
count of an exact-degree count replay it.  A density sweep contracts a
sample once per pass onto its vertices of degree above 3, then per cap
folds only the subtree connecting them, along the sample's own first
walk (``experiments._shared_counts``).  A
Tree walks itself once, breadth-first from its first vertex, when it is
built: that walk checks that it is connected, and it is kept, so its
centroid and its 2-colouring (by depth parity) are read off it, each
cached the first time it is asked for.  Its maximum degree is kept too,
for the door of every count (``_as_weighted``).
"""

from __future__ import annotations

import heapq
import random
from itertools import chain
from collections.abc import Iterable, Mapping, Sequence

from .bipoly import BiPoly, Y, Z, _POLYS
from .errors import (
    InvalidArgument,
    KTooSmall,
    LengthMismatch,
    NotATree,
    ParseError,
    SameVertex,
    TooLarge,
    TooManyAnchors,
    UnknownVertex,
)


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ParseError(f"vertex label must be a non-empty string, got {label!r}")
    # Every whitespace character but the space is unprintable, as are NUL
    # and the other control characters.
    if "#" in label or " " in label or not label.isprintable():
        raise ParseError(
            f"vertex label {label!r} contains '#', whitespace or an unprintable character"
        )
    return label


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Normalized (sorted) form of an undirected edge."""
    if not (isinstance(u, str) and isinstance(v, str)):
        raise InvalidArgument(f"an edge is a pair of vertex labels, got ({u!r}, {v!r})")
    return (u, v) if u <= v else (v, u)


class Tree:
    """A labeled, connected, acyclic undirected graph."""

    __slots__ = ("_vertices", "_edges", "_adj", "_max_degree", "_first_walk",
                 "_centroid", "_colour", "_order")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]):
        if isinstance(vertices, str):  # "ab" would be read as the labels a and b
            raise InvalidArgument(f"vertices must be labels, not one string {vertices!r}")
        for name, given in (("vertices", vertices), ("edges", edges)):
            if not hasattr(given, "__iter__"):
                raise InvalidArgument(f"{name} must be iterable, got {given!r}")
        verts = tuple(vertices)
        # _check_label on all labels at once; where that fails, label by label,
        # so the first label refused decides the error.
        try:
            joined = "".join(verts)
        except TypeError:  # a label that is no str
            joined = "#"
        if "#" in joined or " " in joined or not joined.isprintable() or not all(verts):
            for v in verts:
                _check_label(v)
        if not verts:
            raise NotATree("a tree needs at least one vertex")
        adj: dict[str, list[str]] = {v: [] for v in verts}
        if len(adj) != len(verts):
            raise NotATree("duplicate vertex label")
        keys: dict[tuple[str, str], None] = {}  # each edge_key, in input order
        for edge in edges:
            if isinstance(edge, str):  # "ab" would unpack as the pair (a, b)
                raise NotATree(f"edge {edge!r} is a string, not a pair of vertex labels")
            try:
                u, v = edge
                if u not in adj or v not in adj:
                    raise NotATree(f"edge ({u!r}, {v!r}) references an unknown vertex")
            except (TypeError, ValueError):
                raise NotATree(f"edge {edge!r} is not a pair of vertex labels") from None
            if u == v:
                raise NotATree(f"self-loop at {u!r}")
            key = (u, v) if u <= v else (v, u)
            if key in keys:
                raise NotATree(f"duplicate edge ({u!r}, {v!r})")
            keys[key] = None
            adj[u].append(v)
            adj[v].append(u)
        if len(keys) != len(verts) - 1:
            raise NotATree(
                f"{len(verts)} vertices need {len(verts) - 1} edges, got {len(keys)}"
            )
        self._adj = adj  # never handed out: neighbors() copies
        self._max_degree = max(map(len, adj.values()))
        # Edge count is right, so connectivity implies acyclicity.  The walk
        # is kept: the centroid and the 2-colouring are read off it.
        self._first_walk = self._walk(verts[0])
        if len(self._first_walk[0]) != len(verts):
            raise NotATree("edge list is disconnected")
        self._vertices = verts
        self._edges = tuple(keys)
        self._centroid: str | None = None
        self._colour: dict[str, bool] | None = None
        self._order: tuple[frozenset[str], list] | None = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def __contains__(self, label: str) -> bool:
        return isinstance(label, str) and label in self._adj

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return tuple(self._adj[v])
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None
        except TypeError:
            raise InvalidArgument(f"a vertex label is a str, got {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return self._max_degree

    def pendant_vertices(self) -> list[str]:
        """All degree-1 vertices in lexicographic label order."""
        return sorted([v for v, ns in self._adj.items() if len(ns) == 1])

    def centroid(self) -> str:
        """A vertex whose removal leaves no component of more than n/2 vertices.

        Read off the tree's walk from its first vertex: size every branch, then
        step from the root into a branch of more than n/2 vertices while there
        is one.  Computed once per tree, since trees are immutable.
        """
        if self._centroid is None:
            adj, root = self._adj, self._vertices[0]
            order, parent = self._first_walk
            size = dict.fromkeys(order, 1)
            for v in reversed(order[1:]):
                size[parent[v]] += size[v]
            half, v = len(order) // 2, root
            while True:
                heavy = [w for w in adj[v] if w != parent[v] and size[w] > half]
                if not heavy:
                    break
                (v,) = heavy
            self._centroid = v
        return self._centroid

    def _colouring(self) -> dict[str, bool]:
        """The 2-colouring: each vertex's depth parity on the tree's walk,
        True at its first vertex.  Two vertices are at even distance exactly
        when they share a colour.  Computed once per tree, as the centroid is."""
        if self._colour is None:
            order, parent = self._first_walk
            colour = {order[0]: True}
            for v in order[1:]:
                colour[v] = not colour[parent[v]]
            self._colour = colour
        return self._colour

    def _walk(self, root: str) -> tuple[list[str], dict[str, str]]:
        """The vertices reached breadth-first from ``root``, in that order,
        and each one's parent on the way (root's parent is root)."""
        parent, order = {root: root}, [root]
        for v in order:
            for w in self._adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        return order, parent

    def _elimination(self, keep: frozenset[str]) -> list[tuple[str, str, tuple[str, str]]]:
        """The steps ``(u, p, edge_key(u, p))`` that fold pendant vertices
        outside ``keep`` into their neighbours until none is left, smallest
        label first (so relabelling picks any order); the last is cached.
        An empty ``keep`` keeps the centroid: a fold costs about the size of
        its branch, and the branch sizes of a contraction onto v sum to the
        distances from v, least from the centroid (n^2/4 on a path, n^2/2
        from an end)."""
        if self._order is None or self._order[0] != keep:
            survivors = keep or frozenset([self.centroid()])
            adj, pop, push = self._adj, heapq.heappop, heapq.heappush
            degree = dict(zip(adj, map(len, adj.values())))
            # Already sorted, hence already a heap.
            pendants = [u for u in self.pendant_vertices() if u not in survivors]
            steps = []
            while pendants:
                u = pop(pendants)
                degree[u] = 0  # eliminated, so no longer a neighbour to fold into
                for p in adj[u]:
                    if degree[p]:
                        break
                steps.append((u, p, (u, p) if u <= p else (p, u)))  # edge_key, inline
                degree[p] -= 1
                if degree[p] == 1 and p not in survivors:
                    push(pendants, p)
            self._order = (keep, steps)
        return self._order[1]

    def path_between(self, u: str, v: str) -> list[str]:
        """The unique path from u to v, endpoints included."""
        check_anchors(self, (u, v))
        parent = self._walk(u)[1]
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def induced(self, keep: set[str]) -> "Tree":
        verts = [v for v in self._vertices if v in keep]
        edges = [e for e in self._edges if e[0] in keep and e[1] in keep]
        return Tree(verts, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return set(self._vertices) == set(other._vertices) and set(
            self._edges
        ) == set(other._edges)

    def __hash__(self) -> int:
        return hash((frozenset(self._vertices), frozenset(self._edges)))

    def __repr__(self) -> str:
        return f"Tree({len(self._vertices)} vertices, {len(self._edges)} edges)"


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list text format into a Tree."""
    if not isinstance(text, str):
        raise InvalidArgument(f"edge-list text must be a str, got a {type(text).__name__}")
    edges: list[list[str]] = []
    odd = None  # the first line that is no pair: (line number, labels)
    # Only "\n" ends a line and only spaces and tabs part labels: labels refuse the rest.
    for lineno, raw in enumerate(text.replace("\t", " ").split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" ")
        if not line or line[0] == "#":
            continue
        labels = line.split(" ")  # empty strings only where spaces or tabs repeat
        if len(labels) != 2:
            labels = [label for label in labels if label]
            if len(labels) != 2 and odd is None:
                odd = (lineno, labels)
        edges.append(labels)
    if not edges:
        raise ParseError("no edges or vertices in input")
    if odd is not None:
        lineno, labels = odd
        if len(edges) == 1 and len(labels) == 1:  # a lone "u": the one-vertex tree
            return Tree(labels, [])
        raise ParseError(f"line {lineno}: expected 'u v', got {' '.join(labels)!r}")
    return Tree(dict.fromkeys(chain.from_iterable(edges)), edges)


def render_edge_list(t: Tree) -> str:
    """Inverse of parse_edge_list, up to vertex order."""
    if not isinstance(t, Tree):
        raise InvalidArgument(f"expected a Tree, got a {type(t).__name__}")
    if len(t.vertices) == 1:
        return t.vertices[0] + "\n"
    return "".join(f"{u} {v}\n" for u, v in t.edges)


def prufer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence over 0..n-1 into the edges of a labeled tree.

    The classic decode: repeatedly join the smallest remaining leaf to the
    next sequence entry, then join the final two leaves.
    """
    require_int(n, 2, "n")
    if not isinstance(seq, Sequence):
        raise InvalidArgument(f"a Pruefer sequence must be a sequence of ints, got {seq!r}")
    if len(seq) != n - 2:
        raise InvalidArgument(f"sequence length must be n-2, got {len(seq)}")
    degree = [1] * n
    for x in seq:
        if type(x) is not int or not 0 <= x < n:
            raise InvalidArgument(f"sequence entries must be ints in 0..{n - 1}, got {x!r}")
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree(n: int, seed: int) -> Tree:
    """A uniformly random labeled tree on vertices v1..vn.

    Uniformity comes from drawing a uniform Pruefer sequence and decoding
    it.  The generator is Python's Mersenne Twister seeded with ``seed``,
    so identical (n, seed) pairs replay identical trees.  The seed must
    be an int: ``None`` would draw from system entropy.
    """
    require_int(n, 1, "n")
    require_size(n)
    require_int(seed, None, "seed")
    labels = [f"v{i}" for i in range(1, n + 1)]
    if n == 1:
        return Tree(labels, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    edges = [(labels[a], labels[b]) for a, b in prufer_decode(seq, n)]
    return Tree(labels, edges)


class WeightedTree:
    """A tree plus one weight vector per vertex and one polynomial per edge.

    The vectors' entries and the edge weights belong to one ring (``_ring``,
    see bipoly.py): BiPoly, or the plain ints of rows started from the
    weight 1 (``initial``, and the door ``_as_weighted``), whose edges
    default to 1, the value of z."""

    __slots__ = ("tree", "_vertex_weights", "_edge_weights", "_starting", "_ring")

    def __init__(
        self,
        tree: Tree,
        vertex_weights: Mapping[str, object],
        edge_weights: Mapping[tuple[str, str], BiPoly] | None = None,
    ):
        if not isinstance(tree, Tree):
            raise InvalidArgument(f"expected a Tree, got a {type(tree).__name__}")
        if not isinstance(vertex_weights, Mapping):
            raise InvalidArgument(f"vertex weights must be a mapping, got {vertex_weights!r}")
        if tree._adj.keys() != vertex_weights.keys():
            raise InvalidArgument("vertex weights must cover every vertex exactly")
        # The door (``_as_weighted``) checks that every vector has this ring.
        ring = getattr(next(iter(vertex_weights.values())), "_ring", _POLYS)
        if edge_weights is None:
            ew = dict.fromkeys(tree._edges, Z if ring is _POLYS else 1)
        elif not isinstance(edge_weights, Mapping):
            raise InvalidArgument(f"edge weights must be a mapping, got {edge_weights!r}")
        else:
            edges, ew = set(tree.edges), {}
            for e, w in edge_weights.items():
                key = e[::-1] if isinstance(e, tuple) and e not in edges else e
                if key not in edges:
                    raise InvalidArgument(f"edge-weight key {e!r} does not name an edge")
                if not ring.has(w):
                    kind = "a BiPoly" if ring is _POLYS else "an int"
                    raise InvalidArgument(f"edge weight of {e!r} is not {kind}: {w!r}")
                ew[key] = w
            if len(ew) != len(edges):
                raise InvalidArgument("edge weights must cover every edge exactly")
        self.tree = tree
        self._vertex_weights = dict(vertex_weights)
        self._edge_weights = ew
        # True only for the starting vectors of ``_as_weighted``.
        self._starting = False
        self._ring = ring

    def vector(self, v: str):
        try:
            return self._vertex_weights[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None
        except TypeError:
            raise InvalidArgument(f"a vertex label is a str, got {v!r}") from None

    def edge_weight(self, u: str, v: str) -> BiPoly:
        try:
            return self._edge_weights[edge_key(u, v)]
        except KeyError:
            raise UnknownVertex(f"({u!r}, {v!r}) is not an edge") from None

    def truncated(self) -> "WeightedTree":
        """Every vector without its top entry: the cap k-1 view of cap k."""
        return self._reweighted({v: vec.truncated() for v, vec in self._vertex_weights.items()})

    def _reweighted(self, vectors: dict[str, object]) -> "WeightedTree":
        """This tree and its edge weights with ``vectors`` (trusted: one per vertex)."""
        out = object.__new__(WeightedTree)
        out.tree, out._vertex_weights, out._edge_weights = self.tree, vectors, self._edge_weights
        out._starting, out._ring = False, self._ring
        return out

    def __repr__(self) -> str:
        return f"WeightedTree({self.tree!r})"


#: Each counting family's least degree cap, in every mode: a subtree may be
#: a bare vertex, a BC-subtree has a vertex of degree 2.  Counts of maximum
#: degree exactly k also count cap k-1, so they need one more.
LEAST_K = {"subtree": 0, "bc": 2}

#: The most vertices a count takes: a larger tree raises TooLarge at the
#: door (``_as_weighted``) before anything is built, as a larger n does in
#: ``random_tree`` and ``ratio_sweep``.  It bounds the input's size, not the
#: time of BC counts on bushy trees, which grows much faster than n:
#: ``count_bc_all(random_tree(n, 1), 8)`` took 0.09 s at n = 400 and 2.5 s
#: at n = 800 (Python 3.11, a 2-vCPU machine).  It stays at least 5,000, the
#: length of the long paths the tests count.
MAX_VERTICES = 10_000

#: The most vertices a ratio sweep samples in all, samples times n: a
#: larger sweep raises TooLarge in ``ratio_sweep`` before any seed is
#: drawn.  It bounds the sweep's memory, its seeds and its records (one per
#: sample and cap, k_max < n): about 250 bytes per sampled vertex at n = 2,
#: 30 and 300 with k_max = n - 1 (tracemalloc peak, Python 3.11), so at most
#: about 250 MB.  It does not bound the time of large-n samples.
MAX_SWEEP_VERTICES = 1_000_000


def least_k(family: str) -> int:
    """The least degree cap of ``family``, once it is known to be a family."""
    if family not in LEAST_K:
        raise InvalidArgument(f"family must be one of {tuple(LEAST_K)}, got {family!r}")
    return LEAST_K[family]


def require_int(value: int, minimum: int | None, name: str = "k") -> None:
    """Check that ``value`` is an int (not a bool) of at least ``minimum``,
    if one is given.  A k below its minimum raises KTooSmall; every other
    failure, InvalidArgument."""
    if type(value) is not int:
        raise InvalidArgument(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        error = KTooSmall if name == "k" else InvalidArgument
        raise error(f"{name} must be >= {minimum}, got {value}")


def _binding_cap(t: Tree, k: int, family: str) -> int:
    """The cap at which ``family``'s counts on ``t`` equal those at cap k:
    no cap above the maximum degree can bind, and none goes below the
    family's least cap."""
    return min(k, max(t._max_degree, least_k(family)))


def require_size(n: int, bound: int | None = None, what: str = "count") -> None:
    """Raise TooLarge if n vertices exceed ``bound`` (default: ``MAX_VERTICES``)."""
    bound = MAX_VERTICES if bound is None else bound
    if n > bound:
        raise TooLarge(f"{n} vertices exceeds the {what} bound {bound}")


def _require_row_cap(k: int) -> None:
    """Check the cap k of a row of k + 1 entries before it is built: an int
    of at least 0 (InvalidArgument) and at most ``MAX_VERTICES`` (TooLarge),
    since no degree exceeds n - 1, so no entry past that bound can be non-zero."""
    require_int(k, 0, "cap")
    if k > MAX_VERTICES:
        raise TooLarge(f"k = {k} exceeds the bound {MAX_VERTICES} on padded rows")


def _tree_of(t: Tree | WeightedTree) -> Tree:
    """The Tree of a count's input, a Tree or a WeightedTree; anything else
    raises InvalidArgument.  Every door checks this first."""
    if isinstance(t, WeightedTree):
        return t.tree
    if not isinstance(t, Tree):
        raise InvalidArgument(f"expected a Tree or a WeightedTree, got a {type(t).__name__}")
    return t


def _as_weighted(
    t: Tree | WeightedTree,
    k: int,
    vector_type,
    anchors: Sequence[str] = (),
    vertex_weight: BiPoly | int = Y,
    edge_weight: BiPoly | int = Z,
) -> tuple[WeightedTree, int, tuple[str, ...]]:
    """The door of every count: ``(wt, cap, anchors)``, once the input's
    type (``_tree_of``), then the size (at
    most ``MAX_VERTICES`` vertices), then k (against the family's least
    cap), then the anchors (``check_anchors``), then a WeightedTree's
    vectors (each a ``vector_type`` fitting k, in the tree's ring) pass.  A
    WeightedTree comes back as it is, with cap = k.  For a Tree, cap is k
    clamped by ``_binding_cap``; ``wt`` has ``edge_weight`` on every edge, a
    product row (subtree_enum: heads, then the sum of the rest, read from
    lo by range sums) where the cap cannot bind (degree <= cap), else a
    full row ``initial(cap, vertex_weight)``, built only then; these shared
    rows count no bare vertex (``_starting``).  The unit weights pick the
    ring: Y and Z give the generating function, 1 and 1 its value at
    y = z = 1 in plain ints, for a caller that needs only the count.  A
    product row is right at any cap of at least its vertex's degree, never
    below.  The counts pass them on at this cap alone; the density sweep's
    shared contraction (``experiments._shared_counts``) passes on those of
    degree at most 3 at every cap from 3.  The door is private, so no other
    WeightedTree holds one."""
    tree = _tree_of(t)
    weighted = tree is not t
    require_size(len(tree.vertices))
    require_int(k, least_k(vector_type.family))
    anchors = check_anchors(tree, anchors)
    if weighted:
        for v in t.tree.vertices:
            vec = t.vector(v)
            if not isinstance(vec, vector_type) or not vec._fits(k):
                raise LengthMismatch(
                    f"vertex {v!r} needs a {vector_type.__name__} of length {k + 1}"
                )
        ring = t._ring  # the door's own rows (``_starting``) share one by construction
        if not t._starting and any(vec._ring is not ring for vec in t._vertex_weights.values()):
            raise InvalidArgument("the vectors mix int and BiPoly entries")
        return t, k, anchors
    cap = _binding_cap(t, k, vector_type.family)
    product = vector_type._product(vertex_weight)
    if cap < t._max_degree:
        full = vector_type.initial(cap, vertex_weight)
        start = {v: product if len(ns) <= cap else full for v, ns in t._adj.items()}
    else:
        start = dict.fromkeys(t._adj, product)
    wt = WeightedTree(t, start)
    if edge_weight is not Z:  # the door's own weights need no re-check
        wt._edge_weights = dict.fromkeys(t._edges, edge_weight)
    wt._starting = True
    return wt, cap, anchors


def check_anchors(t: Tree, anchors: Sequence[str]) -> tuple[str, ...]:
    """``anchors`` as a tuple, once it is known to hold at most two labels,
    each a vertex of ``t``, and two distinct ones if two."""
    if isinstance(anchors, str) or not hasattr(anchors, "__iter__"):
        raise InvalidArgument(f"anchors must be a sequence of labels, got {anchors!r}")
    anchors = tuple(anchors)
    if len(anchors) > 2:
        raise TooManyAnchors(f"at most two anchors, got {len(anchors)}")
    for a in anchors:
        if not isinstance(a, str):
            raise InvalidArgument(f"an anchor must be a vertex label, got {a!r}")
        if a not in t:
            raise UnknownVertex(f"no vertex {a!r}")
    if len(anchors) == 2 and anchors[0] == anchors[1]:
        raise SameVertex(f"anchors must be distinct, got {anchors[0]!r} twice")
    return anchors
