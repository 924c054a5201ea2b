"""Labeled trees: parsing, rendering, random generation, structural queries.

Trees are immutable values over string vertex labels.  The edge-list text
format is one ``u v`` pair per line, ``#`` starts a comment line, blank
lines are skipped, and a lone ``u`` line denotes the one-vertex tree.

A WeightedTree couples a tree with one weight payload per vertex (a
degree-indexed vector of polynomials, see subtree_enum / bc_enum) and one
polynomial per edge.  ``WeightedTree.contract``, the pendant-elimination
loop of both counting families, folds vectors without rebuilding the tree;
the underlying polynomials are immutable and shared.
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
    if "#" in label or any(ch.isspace() for ch in label):
        raise ParseError(f"vertex label {label!r} contains '#' or whitespace")
    return label


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Normalized (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Tree:
    """A labeled, connected, acyclic undirected graph."""

    __slots__ = ("_vertices", "_edges", "_adj", "_centroid")

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
            u, v = edge
            if u not in known or v not in known:
                raise NotATree(f"edge ({u!r}, {v!r}) references an unknown vertex")
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
        # Edge count is right, so connectivity implies acyclicity.
        reached = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(verts):
            raise NotATree("edge list is disconnected")
        self._vertices = verts
        self._edges = tuple(norm)
        self._adj = {v: tuple(ns) for v, ns in adj.items()}
        self._centroid: str | None = None

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

        Found by one walk: root at the first vertex, size every branch, then
        step from the root into a branch of more than n/2 vertices while there
        is one.  Computed once per tree, since trees are immutable.
        """
        if self._centroid is None:
            adj, root = self._adj, self._vertices[0]
            parent, order = {root: root}, [root]
            for v in order:
                for w in adj[v]:
                    if w not in parent:
                        parent[w] = v
                        order.append(w)
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

    def path_between(self, u: str, v: str) -> list[str]:
        """The unique path from u to v, endpoints included."""
        check_anchors(self, (u, v))
        parent = {u: u}
        frontier = [u]
        while v not in parent:
            nxt = []
            for x in frontier:
                for w in self._adj[x]:
                    if w not in parent:
                        parent[w] = x
                        nxt.append(w)
            frontier = nxt
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
    if n == 2:
        return Tree(labels, [(labels[0], labels[1])])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    edges = [(labels[a], labels[b]) for a, b in prufer_decode(seq, n)]
    return Tree(labels, edges)


class WeightedTree:
    """A tree plus one weight vector per vertex and one polynomial per edge."""

    __slots__ = ("tree", "_vertex_weights", "_edge_weights")

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
            ew = {edge_key(*e): w for e, w in edge_weights.items()}
            if set(ew) != set(tree.edges):
                raise InvalidArgument("edge weights must cover every edge exactly")
        self.tree = tree
        self._vertex_weights = dict(vertex_weights)
        self._edge_weights = ew

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
        WeightedTree unchanged; the tree is never rebuilt, so a step costs
        u's degree plus a heap operation.
        """
        keep = keep or frozenset([self.tree.centroid()])
        vectors = dict(self._vertex_weights)
        degree = {v: len(ns) for v, ns in self.tree._adj.items()}
        # Already sorted, hence already a heap.
        pendants = [u for u in self.tree.pendant_vertices() if u not in keep]
        while pendants:
            u = heapq.heappop(pendants)
            p = next(w for w in self.tree.neighbors(u) if w in vectors)
            vectors[p] = fold(vectors[p], vectors.pop(u), self.edge_weight(u, p))
            degree[p] -= 1
            if degree[p] == 1 and p not in keep:
                heapq.heappush(pendants, p)
        return vectors

    def truncated(self) -> "WeightedTree":
        """Every vector without its top entry: the cap k-1 view of cap k."""
        return WeightedTree(
            self.tree,
            {v: vec.truncated() for v, vec in self._vertex_weights.items()},
            self._edge_weights,
        )

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


def _starting_vector(vector_type, cap: int, degree: int, vertex_weight: BiPoly = Y):
    """A vertex's starting vector at ``cap``: product rows (``subtree_enum``)
    if its degree is at most cap, which then cannot bind; else ``initial``."""
    if degree <= cap:
        return vector_type._product(vertex_weight)
    return vector_type.initial(cap, vertex_weight)


def as_weighted(
    t: Tree | WeightedTree, k: int, vector_type, full_rows: bool = False
) -> tuple[WeightedTree, int]:
    """``(wt, cap)``, k checked against the family's least cap first.  For a
    Tree, ``wt`` has each vertex's ``_starting_vector`` at cap (``initial``
    if ``full_rows``), cap being k clamped by ``_binding_cap``; a WeightedTree
    comes back as it is, with cap = k, once its vectors are checked to fit k."""
    require_int(k, least_k(vector_type.family))
    if isinstance(t, WeightedTree):
        for v in t.tree.vertices:
            vec = t.vector(v)
            if not isinstance(vec, vector_type) or not vec._fits(k):
                raise LengthMismatch(
                    f"vertex {v!r} needs a {vector_type.__name__} of length {k + 1}"
                )
        return t, k
    cap = _binding_cap(t, k, vector_type.family)
    start = {
        v: vector_type.initial(cap) if full_rows else _starting_vector(vector_type, cap, len(ns))
        for v, ns in t._adj.items()
    }
    return WeightedTree(t, start), cap


def check_anchors(t: Tree, anchors: Sequence[str]) -> tuple[str, ...]:
    """``anchors`` as a tuple, once it is known to hold at most two vertices
    of ``t``, and two distinct ones if two."""
    if isinstance(anchors, str):
        raise InvalidArgument(f"anchors must be a sequence of labels, got {anchors!r}")
    anchors = tuple(anchors)
    if len(anchors) > 2:
        raise TooManyAnchors(f"at most two anchors, got {len(anchors)}")
    for a in anchors:
        if a not in t:
            raise UnknownVertex(f"no vertex {a!r}")
    if len(anchors) == 2 and anchors[0] == anchors[1]:
        raise SameVertex(f"anchors must be distinct, got {anchors[0]!r} twice")
    return anchors
