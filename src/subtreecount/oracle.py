"""Brute-force ground truth for every counting algorithm in this package.

Everything here works straight from the defining weight products over an
explicit enumeration of all connected subtrees.  It shares no counting
code with the contraction algorithms (no fold, range sum or contraction):
only the argument checks of tree.py and the weight containers
(``WeightedTree``, ``DegreeVector``, ``ParityDegreeVector``), which it
reads entry by entry.  It is deliberately slow and obviously correct;
inputs are capped at a small vertex count.

Weight conventions (defaults for a plain Tree; a WeightedTree supplies
its own, checked as every count checks them):

* subtree family: each vertex carries the vector (y, 0, ..., 0) of length
  k+1; a subtree is weighted by the product over its vertices of the sum
  of the first k - deg + 1 vector entries, times the product of its edge
  weights (z per edge).  With defaults that collapses to y^|V| z^|E| when
  the maximum degree is <= k, else 0.
* parity-rooted and BC families: each vertex carries an odd vector
  (1, 0, ..., 0) and an even vector (y, 0, ..., 0).  The products below
  follow the definitional factor lists verbatim, including the leaf sums
  that start at index 1; those are what make a weight vanish whenever a
  leaf sits in the wrong parity class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bc_enum import ParityDegreeVector
from .bipoly import BiPoly, ONE, Y, Z, ZERO
from .errors import InvalidArgument, TooLarge, UnknownVertex
from .subtree_enum import DegreeVector
from .tree import Tree, WeightedTree, as_weighted, check_anchors, least_k, require_int

#: The largest oracle input; enumeration is exponential in n.
ORACLE_MAX_VERTICES = 14

ParityWeights = tuple[Sequence[BiPoly], Sequence[BiPoly]]


@dataclass(frozen=True)
class SubtreeWitness:
    """One connected subtree, listed explicitly.

    ``leaves`` are the degree-1 vertices of the induced subtree; a single
    vertex is its own leaf by convention (the BC weight never looks at the
    leaves of witnesses that small, so the convention is inert there).
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    leaves: tuple[str, ...]

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)


def _connected_index_sets(adj: Sequence[Sequence[int]], n: int) -> list[frozenset[int]]:
    """All vertex index sets inducing a connected subgraph, each exactly once.

    Sets are grown from their minimum index s using only indices > s; when
    a frontier vertex is chosen, every frontier vertex listed before it is
    banned for the rest of that branch, so each set is produced by exactly
    one sequence of choices.
    """
    found: list[frozenset[int]] = []

    def grow(s: int, current: frozenset[int], frontier: list[int], banned: frozenset[int]):
        found.append(current)
        for i, v in enumerate(frontier):
            now_banned = banned.union(frontier[:i])
            merged = list(frontier[i + 1 :])
            present = set(merged)
            for w in adj[v]:
                if w > s and w not in current and w not in now_banned and w not in present and w != v:
                    merged.append(w)
                    present.add(w)
            grow(s, current | {v}, sorted(merged), now_banned | {v})

    for s in range(n):
        grow(s, frozenset([s]), sorted(w for w in adj[s] if w > s), frozenset())
    return found


@lru_cache(maxsize=1024)
def enumerate_connected_subtrees(t: Tree) -> tuple[SubtreeWitness, ...]:
    """Every connected subtree of t as an explicit witness, deterministic order."""
    order = t.vertices
    index = {v: i for i, v in enumerate(order)}
    adj = [sorted(index[w] for w in t.neighbors(v)) for v in order]
    witnesses = []
    for idx_set in _connected_index_sets(adj, len(order)):
        labels = tuple(sorted(order[i] for i in idx_set))
        members = set(labels)
        edges = tuple(e for e in t.edges if e[0] in members and e[1] in members)
        if len(labels) == 1:
            leaves = labels
        else:
            degree = {v: 0 for v in labels}
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            leaves = tuple(sorted(v for v, d in degree.items() if d == 1))
        witnesses.append(SubtreeWitness(labels, edges, leaves))
    witnesses.sort(key=lambda w: (len(w.vertices), w.vertices))
    return tuple(witnesses)


def is_bc(w: SubtreeWitness) -> bool:
    """True when the witness is a BC-subtree: >= 2 edges and all leaves
    pairwise at even distance (equivalently, in one parity class)."""
    if len(w.edges) < 2:
        return False
    parity = _parities_from(w, w.leaves[0])
    return all(parity[leaf] == 0 for leaf in w.leaves)


def _parities_from(w: SubtreeWitness, start: str) -> dict[str, int]:
    adj: dict[str, list[str]] = {v: [] for v in w.vertices}
    for u, v in w.edges:
        adj[u].append(v)
        adj[v].append(u)
    parity = {start: 0}
    stack = [start]
    while stack:
        x = stack.pop()
        for nb in adj[x]:
            if nb not in parity:
                parity[nb] = parity[x] ^ 1
                stack.append(nb)
    return parity


def _vertex_vec(weights: WeightedTree | None, v: str, k: int) -> Sequence[BiPoly]:
    if weights is None:
        return (Y,) + (ZERO,) * k
    return weights.vector(v).entries


def _parity_vecs(weights: WeightedTree | None, v: str, k: int) -> ParityWeights:
    if weights is None:
        return ((ONE,) + (ZERO,) * k, (Y,) + (ZERO,) * k)
    vec = weights.vector(v)
    return vec.odd, vec.even


def _edge_poly(weights: WeightedTree | None, e: tuple[str, str]) -> BiPoly:
    if weights is None:
        return Z
    return weights.edge_weight(*e)


def _entry_sum(vec: Sequence[BiPoly], lo: int, hi: int) -> BiPoly:
    # Empty ranges sum to zero, matching the usual convention.
    if hi < lo:
        return ZERO
    return BiPoly.sum(vec[max(lo, 0) : hi + 1])


def subtree_weight(w: SubtreeWitness, k: int, weights: WeightedTree | None = None) -> BiPoly:
    """Definitional weight of one witness under the degree cap k.

    Product over vertices of the sum of vector entries 0 .. k - deg, times
    the product of edge weights.  A vertex over the cap contributes an
    empty sum, zeroing the whole product.  ``weights`` holds DegreeVectors;
    None means the defaults.
    """
    acc = ONE
    for v in w.vertices:
        acc = acc * _entry_sum(_vertex_vec(weights, v, k), 0, k - w.degree(v))
        if not acc:
            return ZERO
    for e in w.edges:
        acc = acc * _edge_poly(weights, e)
    return acc


def bc_subtree_weight(w: SubtreeWitness, k: int, weights: WeightedTree | None = None) -> BiPoly:
    """Definitional BC weight of one witness.

    The vertex set splits into even/odd parity classes by distance to a
    fixed leaf.  Two alternative products are summed; leaf factors start
    their sums at entry 1, so any leaf in the wrong class kills its term.
    Witnesses with fewer than two edges are outside the BC family and
    weigh zero.  ``weights`` holds ParityDegreeVectors; None means the
    defaults.
    """
    if len(w.edges) < 2:
        return ZERO
    parity = _parities_from(w, min(w.leaves))
    leaves = set(w.leaves)
    even_term = ONE
    odd_term = ONE
    for v in w.vertices:
        odd_vec, even_vec = _parity_vecs(weights, v, k)
        cap = k - w.degree(v)
        if parity[v] == 0:  # even class
            even_term = even_term * _entry_sum(even_vec, 0, cap)
            odd_term = odd_term * _entry_sum(odd_vec, 1 if v in leaves else 0, cap)
        else:  # odd class
            even_term = even_term * _entry_sum(odd_vec, 1 if v in leaves else 0, cap)
            odd_term = odd_term * _entry_sum(even_vec, 0, cap)
    acc = even_term + odd_term
    for e in w.edges:
        acc = acc * _edge_poly(weights, e)
    return acc


def _rooted_parity_base(
    w: SubtreeWitness, root: str, k: int, parity: str, weights: WeightedTree | None
) -> BiPoly:
    """The root-independent factor product of the rooted parity weight."""
    dist_parity = _parities_from(w, root)
    leaves = set(w.leaves)
    acc = ONE
    for e in w.edges:
        acc = acc * _edge_poly(weights, e)
    for v in w.vertices:
        if v == root:
            continue
        odd_vec, even_vec = _parity_vecs(weights, v, k)
        cap = k - w.degree(v)
        # The leaves' class is the odd (even) distance class from root.
        if dist_parity[v] == (1 if parity == "odd" else 0):
            acc = acc * _entry_sum(even_vec, 0, cap)
        else:
            acc = acc * _entry_sum(odd_vec, 1 if v in leaves else 0, cap)
        if not acc:
            return ZERO
    return acc


def rooted_parity_weight(
    w: SubtreeWitness,
    root: str,
    k: int,
    j: int,
    parity: str,
    weights: WeightedTree | None = None,
) -> BiPoly:
    """Definitional rooted weight: the witness counts toward root degree j
    with every non-root leaf at odd (resp. even) distance from the root."""
    if parity not in ("odd", "even"):
        raise InvalidArgument(f"parity must be 'odd' or 'even', got {parity!r}")
    if not 0 <= j <= k:
        raise InvalidArgument(f"j must lie in 0..{k}, got {j}")
    if root not in w.vertices:
        raise UnknownVertex(f"{root!r} not in witness")
    odd_vec, even_vec = _parity_vecs(weights, root, k)
    root_vec = odd_vec if parity == "odd" else even_vec
    if len(w.vertices) == 1:
        return root_vec[j]
    shift = j - w.degree(root)
    if shift < 0:
        return ZERO
    root_factor = root_vec[shift]
    if not root_factor:
        return ZERO
    return root_factor * _rooted_parity_base(w, root, k, parity, weights)


def _family_weight(
    w: SubtreeWitness, k: int, family: str, weights: WeightedTree | None = None
) -> BiPoly:
    # The BC sum ranges over the BC family only; with default weights the
    # weight of a non-BC witness vanishes anyway, but general weights need
    # the explicit membership filter.
    if family == "subtree":
        return subtree_weight(w, k, weights)
    if not is_bc(w):
        return ZERO
    return bc_subtree_weight(w, k, weights)


@lru_cache(maxsize=4096)
def _default_weights_by_witness(
    t: Tree, k: int, family: str
) -> tuple[tuple[frozenset[str], BiPoly], ...]:
    out = []
    for w in enumerate_connected_subtrees(t):
        poly = _family_weight(w, k, family)
        if poly:
            out.append((frozenset(w.vertices), poly))
    return tuple(out)


def _checked(
    t: Tree | WeightedTree, k: int, family: str, anchors: Sequence[str]
) -> tuple[Tree, WeightedTree | None, tuple[str, ...]]:
    """The oracle's door: n, then k, then the anchors, then a WeightedTree's
    vectors, as every count checks them (``as_weighted``).  Returns the
    tree, the custom weights (None for a plain Tree) and the anchors."""
    weights = t if isinstance(t, WeightedTree) else None
    tree = t if weights is None else weights.tree
    n = len(tree.vertices)
    if n > ORACLE_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the oracle bound {ORACLE_MAX_VERTICES}")
    require_int(k, least_k(family))
    anchors = check_anchors(tree, anchors)
    if weights is not None:
        vector_type = DegreeVector if family == "subtree" else ParityDegreeVector
        as_weighted(weights, k, vector_type, anchors)
    return tree, weights, anchors


def oracle_count(
    t: Tree | WeightedTree, k: int, family: str = "subtree", anchors: Sequence[str] = ()
) -> BiPoly:
    """Sum of definitional weights over all witnesses containing the anchors.
    Checks n, then k, then the anchors, then custom weights (``_checked``)
    before any work."""
    tree, weights, anchors = _checked(t, k, family, anchors)
    need = set(anchors)
    if weights is None:
        # Default vectors only ask whether a degree is at most k, and none
        # exceeds n - 1: every k from n - 1 up counts alike, with short vectors.
        k = max(least_k(family), min(k, len(tree.vertices) - 1))
        pairs = _default_weights_by_witness(tree, k, family)
        return BiPoly.sum(poly for members, poly in pairs if need <= members)
    return BiPoly.sum(
        _family_weight(w, k, family, weights)
        for w in enumerate_connected_subtrees(tree)
        if need <= set(w.vertices)
    )


def rooted_parity_sums(
    t: Tree | WeightedTree, k: int, root: str
) -> tuple[tuple[BiPoly, ...], tuple[BiPoly, ...]]:
    """Definitional sums of the rooted parity weights over all witnesses
    containing ``root``: one odd and one even vector, indexed by root degree.
    Checks n, then k, then the root, then custom weights (``_checked``)
    before any work."""
    tree, weights, _ = _checked(t, k, "bc", (root,))
    odd_vec, even_vec = _parity_vecs(weights, root, k)
    odd_out = [ZERO] * (k + 1)
    even_out = [ZERO] * (k + 1)
    for w in enumerate_connected_subtrees(tree):
        if root not in w.vertices:
            continue
        if len(w.vertices) == 1:
            for j in range(k + 1):
                odd_out[j] = odd_out[j] + odd_vec[j]
                even_out[j] = even_out[j] + even_vec[j]
            continue
        deg = w.degree(root)
        odd_base = _rooted_parity_base(w, root, k, "odd", weights)
        even_base = _rooted_parity_base(w, root, k, "even", weights)
        for j in range(deg, k + 1):
            if odd_base:
                odd_out[j] = odd_out[j] + odd_vec[j - deg] * odd_base
            if even_base:
                even_out[j] = even_out[j] + even_vec[j - deg] * even_base
    return tuple(odd_out), tuple(even_out)
