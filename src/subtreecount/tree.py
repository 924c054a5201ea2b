"""Labeled trees: parsing, rendering, random generation, structural queries.

Trees are immutable values over string vertex labels.  The edge-list text
format is one ``u v`` pair per line, ``#`` starts a comment line, blank
lines are skipped, and a lone ``u`` line denotes the one-vertex tree.

A WeightedTree couples a tree with one weight payload per vertex (a
degree-indexed vector of polynomials, see subtree_enum / bc_enum) and one
polynomial per edge.  ``WeightedTree.contract``, the pendant-elimination
loop of both counting families, folds vectors without rebuilding the tree;
the underlying polynomials are immutable and shared.  The elimination
order depends only on the tree and the survivors, so a Tree caches the
last one beside its centroid, and the two colour passes of a BC count, the
cap-(k-1) count of an exact-degree count and a sweep's per-k counts replay
it.  A Tree walks itself once, breadth-first from its first vertex, when it
is built: that walk checks that it is connected, and it is kept, so its
centroid and its 2-colouring (by depth parity) are read off it.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Iterable, Mapping, Sequence

from .bipoly import BiPoly, Y, Z
from .errors import (
    InvalidArgument,
    KTooSmall,
    LengthMismatch,
    NotATree,
    ParseError,
    SameVertex,
    TooManyAnchors,
    UnknownVertex,
)


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ParseError(f"vertex label must be a non-empty string, got {label!r}")
    if "#" in label or label.split() != [label]:
        raise ParseError(f"vertex label {label!r} contains '#' or whitespace")
    return label


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Normalized (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Tree:
    """A labeled, connected, acyclic undirected graph."""

    __slots__ = ("_vertices", "_edges", "_adj", "_first_walk", "_centroid", "_order")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]):
        verts = tuple(_check_label(v) for v in vertices)
        if not verts:
            raise NotATree("a tree needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise NotATree("duplicate vertex label")
        known = set(verts)
        adj: dict[str, list[str]] = {v: [] for v in verts}
        seen: set[tuple[str, str]] = set()
        norm: list[tuple[str, str]] = []
        for edge in edges:
            try:
                u, v = edge
                if u not in known or v not in known:
                    raise NotATree(f"edge ({u!r}, {v!r}) references an unknown vertex")
            except (TypeError, ValueError):
                raise NotATree(f"edge {edge!r} is not a pair of vertex labels") from None
            if u == v:
                raise NotATree(f"self-loop at {u!r}")
            key = edge_key(u, v)
            if key in seen:
                raise NotATree(f"duplicate edge ({u!r}, {v!r})")
            seen.add(key)
            norm.append(key)
            adj[u].append(v)
            adj[v].append(u)
        if len(norm) != len(verts) - 1:
            raise NotATree(
                f"{len(verts)} vertices need {len(verts) - 1} edges, got {len(norm)}"
            )
        self._adj = {v: tuple(ns) for v, ns in adj.items()}
        # Edge count is right, so connectivity implies acyclicity.  The walk
        # is kept: the centroid and the 2-colouring are read off it.
        self._first_walk = self._walk(verts[0])
        if len(self._first_walk[0]) != len(verts):
            raise NotATree("edge list is disconnected")
        self._vertices = verts
        self._edges = tuple(norm)
        self._centroid: str | None = None
        self._order: tuple[frozenset[str], list] | None = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def __contains__(self, label: str) -> bool:
        return label in self._adj

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def pendant_vertices(self) -> list[str]:
        """All degree-1 vertices in lexicographic label order."""
        return sorted(v for v, ns in self._adj.items() if len(ns) == 1)

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
        """The steps ``(u, p, edge_key(u, p))`` of a contraction onto ``keep``
        (see ``WeightedTree.contract``); the last order asked for is cached."""
        if self._order is None or self._order[0] != keep:
            survivors = keep or frozenset([self.centroid()])
            degree = {v: len(ns) for v, ns in self._adj.items()}
            # Already sorted, hence already a heap.
            pendants = [u for u in self.pendant_vertices() if u not in survivors]
            steps = []
            while pendants:
                u = heapq.heappop(pendants)
                degree[u] = 0  # eliminated, so no longer a neighbour to fold into
                p = next(w for w in self._adj[u] if degree[w])
                steps.append((u, p, edge_key(u, p)))
                degree[p] -= 1
                if degree[p] == 1 and p not in survivors:
                    heapq.heappush(pendants, p)
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
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line.split()))
    if not rows:
        raise ParseError("no edges or vertices in input")
    if len(rows) == 1 and len(rows[0][1]) == 1:
        return Tree([rows[0][1][0]], [])
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, tokens in rows:
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {' '.join(tokens)!r}")
        for label in tokens:
            if label not in seen:
                seen.add(label)
                vertices.append(label)
        edges.append((tokens[0], tokens[1]))
    return Tree(vertices, edges)


def render_edge_list(t: Tree) -> str:
    """Inverse of parse_edge_list, up to vertex order."""
    if len(t.vertices) == 1:
        return t.vertices[0] + "\n"
    return "".join(f"{u} {v}\n" for u, v in t.edges)


def prufer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence over 0..n-1 into the edges of a labeled tree.

    The classic decode: repeatedly join the smallest remaining leaf to the
    next sequence entry, then join the final two leaves.
    """
    require_int(n, 2, "n")
    if len(seq) != n - 2:
        raise InvalidArgument(f"sequence length must be n-2, got {len(seq)}")
    degree = [1] * n
    for x in seq:
        if not isinstance(x, int) or not 0 <= x < n:
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
    so identical (n, seed) pairs replay identical trees.
    """
    require_int(n, 1, "n")
    labels = [f"v{i}" for i in range(1, n + 1)]
    if n == 1:
        return Tree(labels, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    edges = [(labels[a], labels[b]) for a, b in prufer_decode(seq, n)]
    return Tree(labels, edges)


class WeightedTree:
    """A tree plus one weight vector per vertex and one polynomial per edge."""

    __slots__ = ("tree", "_vertex_weights", "_edge_weights", "_starting")

    def __init__(
        self,
        tree: Tree,
        vertex_weights: Mapping[str, object],
        edge_weights: Mapping[tuple[str, str], BiPoly] | None = None,
    ):
        if set(vertex_weights) != set(tree.vertices):
            raise InvalidArgument("vertex weights must cover every vertex exactly")
        if edge_weights is None:
            ew = {e: Z for e in tree.edges}
        else:
            edges, ew = set(tree.edges), {}
            for e, w in edge_weights.items():
                key = e[::-1] if isinstance(e, tuple) and e not in edges else e
                if key not in edges:
                    raise InvalidArgument(f"edge-weight key {e!r} does not name an edge")
                if not isinstance(w, BiPoly):
                    raise InvalidArgument(f"edge weight of {e!r} is not a BiPoly: {w!r}")
                ew[key] = w
            if len(ew) != len(edges):
                raise InvalidArgument("edge weights must cover every edge exactly")
        self.tree = tree
        self._vertex_weights = dict(vertex_weights)
        self._edge_weights = ew
        # True only for the starting vectors of ``as_weighted``.
        self._starting = False

    def vector(self, v: str):
        try:
            return self._vertex_weights[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def edge_weight(self, u: str, v: str) -> BiPoly:
        try:
            return self._edge_weights[edge_key(u, v)]
        except KeyError:
            raise UnknownVertex(f"({u!r}, {v!r}) is not an edge") from None

    def contract(
        self,
        keep: frozenset[str],
        fold: Callable[[object, object, BiPoly], object],
    ) -> dict[str, object]:
        """Eliminate pendant vertices outside ``keep`` until none is left.

        Each step drops a pendant vertex u with neighbour p and sets p's
        vector to ``fold(vector(p), vector(u), edge_weight(u, p))``.  The
        smallest pendant label goes first, so relabelling the vertices picks
        any elimination order.  An empty ``keep`` keeps the tree's centroid:
        a fold costs about the size of the branch it folds, and the branch
        sizes of a contraction onto v sum to the distances from v, which
        the centroid makes least (n^2/4 on a path, against n^2/2 from an
        end).  Returns the survivors' final vectors and leaves this
        WeightedTree unchanged; the tree is never rebuilt, and the order is
        the tree's cached one, so a step costs one fold.
        """
        vectors = dict(self._vertex_weights)
        weights = self._edge_weights
        for u, p, edge in self.tree._elimination(keep):
            vectors[p] = fold(vectors[p], vectors.pop(u), weights[edge])
        return vectors

    def truncated(self) -> "WeightedTree":
        """Every vector without its top entry: the cap k-1 view of cap k."""
        return self._reweighted({v: vec.truncated() for v, vec in self._vertex_weights.items()})

    def _reweighted(self, vectors: dict[str, object]) -> "WeightedTree":
        """This tree and its edge weights with ``vectors`` (trusted: one per vertex)."""
        out = object.__new__(WeightedTree)
        out.tree, out._vertex_weights, out._edge_weights = self.tree, vectors, self._edge_weights
        out._starting = False
        return out

    def __repr__(self) -> str:
        return f"WeightedTree({self.tree!r})"


#: Each counting family's least degree cap, in every mode: a subtree may be
#: a bare vertex, a BC-subtree has a vertex of degree 2.  Counts of maximum
#: degree exactly k also count cap k-1, so they need one more.
LEAST_K = {"subtree": 0, "bc": 2}


def least_k(family: str) -> int:
    """The least degree cap of ``family``, once it is known to be a family."""
    if family not in LEAST_K:
        raise InvalidArgument(f"family must be one of {tuple(LEAST_K)}, got {family!r}")
    return LEAST_K[family]


def require_int(value: int, minimum: int, name: str = "k") -> None:
    """Check that ``value`` is an int of at least ``minimum``.  A k below
    its minimum raises KTooSmall; every other failure, InvalidArgument."""
    if not isinstance(value, int):
        raise InvalidArgument(f"{name} must be an int, got {value!r}")
    if value < minimum:
        error = KTooSmall if name == "k" else InvalidArgument
        raise error(f"{name} must be >= {minimum}, got {value}")


def _binding_cap(t: Tree, k: int, family: str) -> int:
    """The cap at which ``family``'s counts on ``t`` equal those at cap k:
    no cap above the maximum degree can bind, and none goes below the
    family's least cap."""
    return min(k, max(t.max_degree(), least_k(family)))


def as_weighted(
    t: Tree | WeightedTree,
    k: int,
    vector_type,
    anchors: Sequence[str] = (),
    full_rows: bool = False,
    vertex_weight: BiPoly = Y,
    edge_weight: BiPoly = Z,
) -> tuple[WeightedTree, int, tuple[str, ...]]:
    """The door of every count: ``(wt, cap, anchors)``, once k (against the
    family's least cap), then the anchors (``check_anchors``), then a
    WeightedTree's vectors (each a ``vector_type`` fitting k) pass.  A
    WeightedTree comes back as it is, with cap = k.  For a Tree, cap is k
    clamped by ``_binding_cap``; ``wt`` has ``edge_weight`` on every edge and
    ``initial(cap, vertex_weight)`` at every vertex, or, unless ``full_rows``,
    the product rows (subtree_enum) where the degree is at most cap.  The
    vertices share these two vectors, which count no bare vertex (``_starting``)."""
    require_int(k, least_k(vector_type.family))
    weighted = isinstance(t, WeightedTree)
    anchors = check_anchors(t.tree if weighted else t, anchors)
    if weighted:
        for v in t.tree.vertices:
            vec = t.vector(v)
            if not isinstance(vec, vector_type) or not vec._fits(k):
                raise LengthMismatch(
                    f"vertex {v!r} needs a {vector_type.__name__} of length {k + 1}"
                )
        return t, k, anchors
    cap = _binding_cap(t, k, vector_type.family)
    full = vector_type.initial(cap, vertex_weight)
    product = full if full_rows else vector_type._product(vertex_weight)
    start = {v: product if len(ns) <= cap else full for v, ns in t._adj.items()}
    wt = WeightedTree(t, start, dict.fromkeys(t.edges, edge_weight))
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
