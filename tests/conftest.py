"""Shared fixtures: small named trees and the seeded random ensemble."""

import heapq
import random
from itertools import chain

import pytest

from hypothesis import settings
from hypothesis import strategies as st

from subtreecount import (
    ZERO,
    BiPoly,
    DegreeVector,
    InvalidArgument,
    LengthMismatch,
    NotATree,
    ParityDegreeVector,
    ParseError,
    Tree,
    UnknownVertex,
    WeightedTree,
    edge_key,
    parse_edge_list,
    random_tree,
    rooted_parity_vectors,
)
from subtreecount.subtree_enum import _contract
from subtreecount.tree import _check_label

ENSEMBLE_BASE_SEED = 0xC0FFEE

# ``pytest --hypothesis-profile=ci`` runs each property test on 500 examples
# (5 times the default); CI runs tests/test_bipoly.py, the fold properties
# (BiPoly and int rows) of tests/test_subtree_enum.py, the custom-weight
# colour-pass property and the BC-counts-against-the-oracle property of
# tests/test_bc_enum.py, the sweep's closed-form, shared-contraction and
# CSV-arithmetic properties of tests/test_experiments.py, the int-count property of
# tests/test_int_ring.py, the label-check properties of
# tests/test_tree.py and the adversarial edge-list test of
# tests/test_cli.py so.
settings.register_profile("ci", max_examples=500)


def fold_pendant(wt, u, fold):
    """``wt`` with pendant vertex u folded into its neighbour p and removed.

    The new vector of p is ``fold(vector(p), vector(u), edge_weight(u, p))``.
    The result is built through the public constructors, independently of
    the library's elimination loop (``subtree_enum._contract``).
    """
    (p,) = wt.tree.neighbors(u)
    vectors = {v: wt.vector(v) for v in wt.tree.vertices if v != u}
    vectors[p] = fold(wt.vector(p), wt.vector(u), wt.edge_weight(u, p))
    rest = wt.tree.induced(set(vectors))
    return WeightedTree(rest, vectors, {e: wt.edge_weight(*e) for e in rest.edges})


def split(t, u, v):
    """Remove edge (u, v) from ``t``; return the component of u, then of v."""
    if edge_key(u, v) not in set(t.edges):
        raise UnknownVertex(f"({u!r}, {v!r}) is not an edge of this tree")
    side_u, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for w in t.neighbors(x):
            if w not in side_u and edge_key(x, w) != edge_key(u, v):
                side_u.add(w)
                stack.append(w)
    return t.induced(side_u), t.induced(set(t.vertices) - side_u)


def relabel(t, rng):
    """``t`` under a random relabelling, and the map back to t's labels.

    Contraction eliminates the smallest pendant label first, so a random
    relabelling draws a random elimination order (every order is reached:
    label the vertices in the wanted order).  The vertex list is shuffled
    too, which moves the first vertex, where the centroid walk starts.
    The counts always keep a centroid, so other survivors are reached
    through ``count_all_kept_at`` and ``bc_all_rooted_at``.
    """
    order = list(t.vertices)
    rng.shuffle(order)
    new = {v: f"r{i:03d}" for i, v in enumerate(order)}
    vertices = list(new.values())
    rng.shuffle(vertices)
    relabelled = Tree(vertices, [(new[a], new[b]) for a, b in t.edges])
    return relabelled, {label: v for v, label in new.items()}


def reference_tree(vertices, edges):
    """What ``Tree(vertices, edges)`` checks, label by label with
    ``tree._check_label`` and edge by edge: raises the error the first
    failed check raises, else returns the tree's vertices and edge keys."""
    for name, given in (("vertices", vertices), ("edges", edges)):
        if not hasattr(given, "__iter__"):
            raise InvalidArgument(f"{name} must be iterable, got {given!r}")
    verts = tuple(_check_label(v) for v in vertices)
    if not verts:
        raise NotATree("a tree needs at least one vertex")
    if len(set(verts)) != len(verts):
        raise NotATree("duplicate vertex label")
    adj, keys = {v: [] for v in verts}, []
    for edge in edges:
        if isinstance(edge, str):
            raise NotATree(f"edge {edge!r} is a string, not a pair of vertex labels")
        try:
            u, v = edge
            if u not in adj or v not in adj:
                raise NotATree(f"edge ({u!r}, {v!r}) references an unknown vertex")
        except (TypeError, ValueError):
            raise NotATree(f"edge {edge!r} is not a pair of vertex labels") from None
        if u == v:
            raise NotATree(f"self-loop at {u!r}")
        if edge_key(u, v) in keys:
            raise NotATree(f"duplicate edge ({u!r}, {v!r})")
        keys.append(edge_key(u, v))
        adj[u].append(v)
        adj[v].append(u)
    if len(keys) != len(verts) - 1:
        raise NotATree(f"{len(verts)} vertices need {len(verts) - 1} edges, got {len(keys)}")
    reached, stack = {verts[0]}, [verts[0]]
    while stack:
        new = [w for w in adj[stack.pop()] if w not in reached]
        reached.update(new)
        stack += new
    if len(reached) != len(verts):
        raise NotATree("edge list is disconnected")
    return verts, tuple(keys)


def reference_parse(text):
    """``parse_edge_list(text)`` in two passes, every line read and then
    every line checked for a pair, built by ``reference_tree``."""
    rows = []
    for lineno, raw in enumerate(text.replace("\t", " ").split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" ")
        if line and not line.startswith("#"):
            rows.append((lineno, [label for label in line.split(" ") if label]))
    if not rows:
        raise ParseError("no edges or vertices in input")
    if len(rows) == 1 and len(rows[0][1]) == 1:
        return reference_tree(rows[0][1], [])
    for lineno, tokens in rows:
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {' '.join(tokens)!r}")
    edges = [tokens for _, tokens in rows]
    return reference_tree(list(dict.fromkeys(chain.from_iterable(edges))), edges)


def reference_elimination(t, keep):
    """``t._elimination(keep)`` by its first algorithm, on the public
    queries only: pendant vertices outside the survivors (``keep``, else
    the centroid) smallest label first, each as ``(u, p, edge_key(u, p))``."""
    survivors = keep or frozenset([t.centroid()])
    degree = {v: t.degree(v) for v in t.vertices}
    pendants = sorted(u for u in t.vertices if degree[u] == 1 and u not in survivors)
    steps = []
    while pendants:
        u = heapq.heappop(pendants)
        degree[u] = 0
        p = next(w for w in t.neighbors(u) if degree[w])
        steps.append((u, p, edge_key(u, p)))
        degree[p] -= 1
        if degree[p] == 1 and p not in survivors:
            heapq.heappush(pendants, p)
    return steps


def elimination_order(t, keep=()):
    """The vertices the counts eliminate from ``t`` (``Tree._elimination``),
    in order."""
    return [u for u, _, _ in t._elimination(frozenset(keep))]


def count_all_kept_at(t, k, r):
    """``count_all(t, k)`` from one contraction of a plain Tree onto ``r``.

    ``count_all`` always keeps a centroid; this keeps any vertex.  Every
    subtree is counted once, at the first of its vertices to be folded
    (or at r), from that vertex's final vector.
    """
    parts = []
    wt = WeightedTree(t, {v: DegreeVector.initial(k) for v in t.vertices})
    last = _contract(wt, k, frozenset([r]), lambda row, lo: parts.append(row_sum(row, 0, k)))
    return BiPoly.sum(parts + [last[r].sum_range(0, k)])


def row_sum(row, lo, hi):
    """Sum of the full row's entries lo..hi inclusive."""
    return BiPoly.sum(row[max(lo, 0) : hi + 1])


def bc_all_rooted_at(t, k, r):
    """``count_bc_all(t, k)`` from the colour passes of a plain Tree onto ``r``.

    ``count_bc_all`` always roots at a centroid; this roots anywhere.  Each
    BC-subtree is counted once, in the pass of its leaves' colour, at its
    top vertex, the one nearest r, whose degree there must exceed its lo.
    """
    parts = []
    vec = rooted_parity_vectors(
        t, k, r, finished=lambda row, lo: parts.append(row_sum(row, lo + 1, k))
    )
    return BiPoly.sum(parts + [row_sum(vec.even, 1, k), row_sum(vec.odd, 2, k)])


def parity_fold(parent, leaf, edge_weight, k):
    """The parity fold of ``ParityDegreeVector`` pairs on full rows, kept as
    a reference for the colour passes.

    Hanging a branch off the neighbour flips the parity of every leaf
    distance in it: the odd vector attaches the leaf's even entries
    0..k-1, the even vector the leaf's odd entries 1..k-1 (a branch root
    that stays a leaf sits at odd distance, so it needs index 0 on the
    even side).
    """
    if not len(parent) == len(leaf) == k + 1:
        raise LengthMismatch(f"vectors must have length {k + 1}")

    def fold(row, branch, lo):
        attach = edge_weight * row_sum(branch, lo, k - 1)
        return (row[0],) + tuple(row[i] + row[i - 1] * attach for i in range(1, k + 1))

    return ParityDegreeVector(fold(parent.odd, leaf.even, 0), fold(parent.even, leaf.odd, 1))


def parity_reference(wt, k, anchors=()):
    """Every BC count of the WeightedTree ``wt`` (full rows), and its rooted
    vectors, from one contraction with ``parity_fold``: ``(count, rooted)``.

    With no anchor, ``rooted`` is at the tree's first vertex; with one, at
    the anchor; with two, ``rooted`` is None.  A BC-subtree is counted at
    its top vertex: a top of degree 2 and up may have its leaves at odd or
    even distance, a top of degree 1 is itself a leaf, so the others sit
    at even distance; the bare input vectors' terms are taken off again.
    The pair count walks the path from vj back to vi, carrying both
    parity classes for the vertex it has reached.
    """

    def topped(vec):
        return row_sum(vec.odd, 2, k) + row_sum(vec.even, 1, k)

    def contract(keep, finished=lambda leaf: None):
        # A loop of its own over the library's order: it shares no code
        # with the library's loop (``subtree_enum._contract``).
        vectors = {v: wt.vector(v) for v in wt.tree.vertices}
        for u, p, _ in wt.tree._elimination(frozenset(keep)):
            finished(vectors[u])
            vectors[p] = parity_fold(vectors[p], vectors.pop(u), wt.edge_weight(u, p), k)
        return vectors

    if len(anchors) == 2:
        vi, vj = anchors
        path = wt.tree.path_between(vi, vj)
        vectors = contract(anchors)
        odd, even = row_sum(vectors[vj].odd, 1, k - 1), row_sum(vectors[vj].even, 0, k - 1)
        for u, nxt in zip(path[-2:0:-1], path[:1:-1]):
            w = wt.edge_weight(u, nxt)
            vec = vectors[u]
            odd, even = (row_sum(vec.odd, 0, k - 2) * w * even,
                         row_sum(vec.even, 0, k - 2) * w * odd)
        total = (row_sum(vectors[vi].odd, 1, k - 1) * even
                 + row_sum(vectors[vi].even, 0, k - 1) * odd)
        return wt.edge_weight(vi, path[1]) * total, None
    root = anchors[0] if anchors else wt.tree.vertices[0]
    parts = []
    vec = contract([root], lambda leaf: parts.append(topped(leaf)))[root]
    if anchors:
        return topped(vec) - topped(wt.vector(root)), vec
    bare = BiPoly.sum(topped(wt.vector(v)) for v in wt.tree.vertices)
    return BiPoly.sum(parts + [topped(vec)]) - bare, vec


def split_bc_count(wt, k, v=None):
    """BC-subtree count of ``wt`` by the edge-split recursion, for any weights.

    Every BC-subtree either crosses the split edge (a, b), where it joins
    an odd-rooted piece on one side to an even-rooted piece on the other,
    or lies wholly on one side.  With ``v``, only subtrees containing v
    count, so a = v and only v's side is recursed into.
    """
    if not wt.tree.edges:
        return ZERO
    a, b = wt.tree.edges[0] if v is None else (v, wt.tree.neighbors(v)[0])
    side_a, side_b = (
        WeightedTree(s, {x: wt.vector(x) for x in s.vertices},
                     {e: wt.edge_weight(*e) for e in s.edges})
        for s in split(wt.tree, a, b)
    )
    va = rooted_parity_vectors(side_a, k, a)
    vb = rooted_parity_vectors(side_b, k, b)
    cross = (row_sum(va.odd, 1, k - 1) * row_sum(vb.even, 0, k - 1)
             + row_sum(va.even, 0, k - 1) * row_sum(vb.odd, 1, k - 1)) * wt.edge_weight(a, b)
    if v is not None:
        return cross + split_bc_count(side_a, k, v)
    return cross + split_bc_count(side_a, k) + split_bc_count(side_b, k)


def _capped_subtrees_by_size(t, k):
    """Independent count: subtrees of ``t`` with maximum degree <= k, by size.

    Plain integer lists, no ``BiPoly``: root ``t``, and for each vertex ``v``
    build ``taken[j][s]``, the ways to pick ``j`` of its children with
    downward subtrees of ``s`` vertices in total.  A subtree whose top vertex
    is ``v`` may take up to k children; one that continues to ``v``'s parent
    may take up to k - 1.  Returns ``{size: count}`` for nonzero counts.
    """
    adj = {v: [] for v in t.vertices}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    root = t.vertices[0]
    parent, order = {root: None}, [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    n = len(order)
    down, totals = {}, [0] * (n + 1)
    for v in reversed(order):
        taken = [[0] * n for _ in range(k + 1)]
        taken[0][0] = 1
        for c in adj[v]:
            if c == parent[v]:
                continue
            for j in range(k, 0, -1):
                row, prev = taken[j], taken[j - 1]
                for s, ways in enumerate(prev):
                    if ways:
                        for size, count in enumerate(down[c]):
                            if count:
                                row[s + size] += ways * count
        down[v] = [0] + [sum(taken[j][s] for j in range(k)) for s in range(n)]
        for s in range(n):
            totals[s + 1] += sum(taken[j][s] for j in range(k + 1))
    return {a: c for a, c in enumerate(totals) if c}


def capped_subtrees_at(t, k, y, z):
    """Independent count: subtrees of ``t`` with maximum degree <= k at the
    integer point (y, z), y marking vertices and z edges.

    The DP of ``_capped_subtrees_by_size`` with the sizes summed out, so it
    takes O(n k) big-int steps and keeps one int per open branch, where that
    one keeps a list of n sizes per vertex.  ``down[v]`` is the weight of
    the subtrees topped at v that continue to v's parent, which take up to
    k - 1 of v's children; a subtree topped at v takes up to k.  No
    ``BiPoly`` and no library counting code.
    """
    adj = {v: [] for v in t.vertices}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    root = t.vertices[0]
    parent, order = {root: None}, [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    down, total = {}, 0
    for v in reversed(order):
        taken = [1] + [0] * k  # taken[j]: weight of j children's branches
        for child in adj[v]:
            if child != parent[v]:
                branch = z * down.pop(child)
                for j in range(k, 0, -1):
                    taken[j] += taken[j - 1] * branch
        down[v] = y * sum(taken[:k])
        total += y * sum(taken)
    return total


def bc_subtrees_at(t, k, y, z, root=None):
    """Independent count: BC-subtrees of ``t`` with maximum degree <= k, at
    the integer point (y, z); with ``root``, only those containing it.

    Leaf distances in a tree are even exactly when the leaves share a
    colour of its 2-colouring, so a subtree of two or more vertices is a
    BC-subtree exactly when all its leaves have one colour c.  For each c,
    a plain-int DP over (vertex, children taken) counts those subtrees at
    their top vertex, with y marking the colour-c vertices and z the
    edges.  ``down[v]`` is the weight of the subtrees topped at v that
    continue to v's parent: v takes up to k - 1 children, and if it takes
    none it is a leaf, so it needs colour c.  A subtree topped at v takes
    up to k children: one makes v a leaf (colour c only), none is the bare
    vertex, which never counts.  No ``BiPoly`` and no library counting code.
    """
    adj = {v: [] for v in t.vertices}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    top = t.vertices[0] if root is None else root
    parent, order, colour = {top: None}, [top], {top: 0}
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w], colour[w] = v, 1 - colour[v]
                order.append(w)
    total = 0
    for c in (0, 1):
        down = {}
        for v in reversed(order):
            taken = [1] + [0] * k  # taken[j]: weight of j children's branches
            for child in adj[v]:
                if child != parent[v]:
                    branch = z * down[child]
                    for j in range(k, 0, -1):
                        taken[j] += taken[j - 1] * branch
            leaf_ok = colour[v] == c
            weight = y if leaf_ok else 1
            down[v] = weight * (leaf_ok * taken[0] + sum(taken[1:k]))
            if root is None or v == root:
                total += weight * (leaf_ok * taken[1] + sum(taken[2:]))
    return total


def evaluate(poly, y, z):
    """``poly`` at the integer point (y, z)."""
    return sum(c * y**a * z**b for (a, b), c in poly.terms().items())


@st.composite
def sweep_trees(draw):
    """A uniform random tree, a path, a star or a caterpillar (a spine of
    n // 2 vertices, each other vertex on a random spine vertex) of 1 to 40
    vertices, labelled in random order."""
    n = draw(st.integers(1, 40), label="n")
    shape = draw(st.sampled_from(["random", "path", "star", "caterpillar"]), label="shape")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    if shape == "random":
        return random_tree(n, rng.getrandbits(32))
    spine = {"path": n, "star": 1, "caterpillar": max(n // 2, 1)}[shape]
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    parents = [i - 1 if i < spine else rng.randrange(spine) for i in range(1, n)]
    return Tree(labels, [(labels[p], labels[i]) for i, p in enumerate(parents, start=1)])


def seeded_ensemble(per_size=25, sizes=range(2, 10)):
    """Deterministic random-tree ensemble used by the acceptance suite."""
    return [
        random_tree(n, ENSEMBLE_BASE_SEED + 1000 * n + i)
        for n in sizes
        for i in range(per_size)
    ]


@pytest.fixture
def path3() -> Tree:
    return parse_edge_list("a b\nb c")


@pytest.fixture
def path5() -> Tree:
    return parse_edge_list("a b\nb m\nm d\nd e")


@pytest.fixture
def star3() -> Tree:
    return parse_edge_list("c l1\nc l2\nc l3")


@pytest.fixture
def double_spider() -> Tree:
    """Two hubs A and M with four pendant leaves each, plus M's extra leaf H."""
    lines = ["A M", "M H"]
    lines += [f"A a{i}" for i in range(1, 5)]
    lines += [f"M m{i}" for i in range(1, 5)]
    return parse_edge_list("\n".join(lines))
