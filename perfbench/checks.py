"""Output checks, run after the timed phase.

* Trees with at most ``ORACLE_MAX_VERTICES`` vertices are checked against
  the brute-force oracle.
* Larger generating-function requests are checked against the
  leaf-deletion recurrence F(t) = F_v(t) + F(t - v) for a leaf v, which
  holds for both families and is evaluated through a different mode of
  the library than the one being checked.  The recurrence uses the
  library's own arithmetic, so larger plain-subtree requests are also
  checked at y = z = 1 against an integer DP that uses none of it
  (``capped_subtrees``).
* Density-sweep CSV files are rebuilt byte for byte from independently
  regenerated trees, with counts from the oracle (small n), the integer
  DP (larger plain-subtree sweeps) or the recurrence (larger BC sweeps).
* For the default seed, every output is also compared with the digest
  recorded from the seed commit in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from workloads import FUNCTIONS, Request, pruefer_edges


def digest(output) -> str:
    """Stable short digest of a request output (polynomial text or CSV bytes)."""
    data = output if isinstance(output, bytes) else str(output).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _edges(text: str) -> list[tuple[str, str]]:
    return [tuple(line.split()) for line in text.splitlines() if line.strip()]


def _without(lib, edges: list[tuple[str, str]], leaf: str):
    return lib.tree.parse_edge_list("".join(f"{u} {v}\n" for u, v in edges if leaf not in (u, v)))


def _degrees(edges: list[tuple[str, str]]) -> dict[str, int]:
    degree: dict[str, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return degree


def _leaves(edges: list[tuple[str, str]]) -> list[str]:
    return sorted(x for x, d in _degrees(edges).items() if d == 1)


def _count(lib, family: str, mode: str, t, k: int, anchors: tuple[str, ...]):
    module = lib.subtree_enum if family == "subtree" else lib.bc_enum
    fn = getattr(module, FUNCTIONS[family][mode])
    return fn(t, k, anchors) if mode == "exact" else fn(t, k, *anchors)


def _oracle(lib, family: str, mode: str, t, k: int, anchors: tuple[str, ...]):
    if mode == "exact":
        return lib.oracle_count(t, k, family) - lib.oracle_count(t, k - 1, family)
    return lib.oracle_count(t, k, family, anchors)


def _recurrence(lib, req: Request, t, output) -> str | None:
    """Check a large request by deleting one leaf; None when it holds."""
    edges = _edges(req.text)
    fam, k = req.family, req.k
    if req.mode == "pair":
        # The second anchor is a leaf: F_a(t) = F_{a,b}(t) + F_a(t - b).
        a, b = req.anchors
        lhs = _count(lib, fam, "containing", t, k, (a,))
        rhs = output + _count(lib, fam, "containing", _without(lib, edges, b), k, (a,))
        return None if lhs == rhs else f"F_a(t) != F_ab(t) + F_a(t-{b})"
    v = next(x for x in _leaves(edges) if x not in req.anchors)
    rest = _without(lib, edges, v)
    if req.mode == "all":
        expect = _count(lib, fam, "containing", t, k, (v,)) + _count(lib, fam, "all", rest, k, ())
    elif req.mode == "containing":
        (a,) = req.anchors
        expect = _count(lib, fam, "pair", t, k, (a, v)) + _count(lib, fam, "containing", rest, k, (a,))
    else:
        expect = _count(lib, fam, "exact", t, k, (v,)) + _count(lib, fam, "exact", rest, k, ())
    return None if output == expect else f"F(t) != F_v(t) + F(t-{v}) for leaf {v}"


def capped_subtrees(edges: list[tuple[str, str]], k: int, root: str) -> tuple[int, int]:
    """(subtrees with maximum degree <= k, how many of them contain root).

    Plain integers, O(n k): with the tree hung from ``root``, each subtree
    is counted at its top vertex v, which keeps j <= k of its child edges
    (j <= k - 1 below the top, where the parent edge takes one unit).
    """
    adj: dict[str, list[str]] = {root: []}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent: dict[str, str | None] = {root: None}
    order, stack = [], [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    hanging: dict[str, int] = {}  # v -> subtrees topped at v with room for the parent edge
    total = top = 0
    for v in reversed(order):
        ways = [1] + [0] * k  # ways[j]: choices of exactly j child edges
        for c in adj[v]:
            if c != parent[v]:
                for j in range(k, 0, -1):
                    ways[j] += ways[j - 1] * hanging[c]
        hanging[v] = sum(ways[:k])
        top = sum(ways)
        total += top
    return total, top  # the root comes last in reversed(order)


def _dp_check(req: Request, output) -> str | None:
    """Check a plain-subtree output at y = z = 1 against ``capped_subtrees``."""
    edges = _edges(req.text)
    root = req.anchors[0] if req.anchors else edges[0][0]
    if req.mode == "all":
        expect = capped_subtrees(edges, req.k, root)[0]
    elif req.mode == "containing":
        expect = capped_subtrees(edges, req.k, root)[1]
    elif req.mode == "pair":
        # b is a leaf: subtrees containing a, less those that avoid b.
        b = req.anchors[1]
        rest = [e for e in edges if b not in e]
        expect = capped_subtrees(edges, req.k, root)[1] - capped_subtrees(rest, req.k, root)[1]
    else:
        expect = capped_subtrees(edges, req.k, root)[0] - capped_subtrees(edges, req.k - 1, root)[0]
    got = output.eval_counts()
    return None if got == expect else f"count at y = z = 1 is {got}, the integer DP gives {expect}"


def _plain_count(lib, family: str, t, k: int) -> int:
    """Number of subtrees (or BC-subtrees) of t with maximum degree <= k."""
    if len(t.vertices) <= lib.ORACLE_MAX_VERTICES:
        return lib.oracle_count(t, k, family).eval_counts()
    edges = [tuple(e) for e in t.edges]
    if family == "subtree":
        return capped_subtrees(edges, k, edges[0][0])[0]
    v = _leaves(edges)[0]
    rest = _without(lib, edges, v)
    poly = _count(lib, family, "containing", t, k, (v,)) + _count(lib, family, "all", rest, k, ())
    return poly.eval_counts()


def _sweep_tree(lib, n: int, tree_seed: int):
    """The tree the library's ratio sweep draws for ``tree_seed``."""
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = pruefer_edges(n, random.Random(tree_seed))
    return lib.tree.parse_edge_list("".join(f"{labels[a]} {labels[b]}\n" for a, b in edges))


def _format_ratio(ratio: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(ratio.numerator) / Decimal(ratio.denominator)
        return str(value.quantize(Decimal("0.000001")))


def expected_csv(lib, req: Request) -> bytes:
    """The per-sample CSV and its companion mean file, rebuilt independently."""
    args = dict(zip(req.argv[1::2], req.argv[2::2]))
    n, samples, kmax = int(args["--n"]), int(args["--samples"]), int(args["--kmax"])
    family = args["--family"]
    master = random.Random(int(args["--seed"]))
    tree_seeds = [master.getrandbits(63) for _ in range(samples)]
    k_lo = 2 if family == "bc" else 1
    ratios: dict[int, list[Fraction]] = {k: [] for k in range(k_lo, kmax + 1)}
    for tree_seed in tree_seeds:
        t = _sweep_tree(lib, n, tree_seed)
        top = max(_degrees([tuple(e) for e in t.edges]).values())
        counts: dict[int, int] = {}

        def count(k: int) -> int:
            cap = min(k, top)  # a cap at or above the maximum degree cannot bind
            if cap not in counts:
                counts[cap] = _plain_count(lib, family, t, cap)
            return counts[cap]

        total = count(n - 1)
        for k in ratios:
            ratios[k].append(Fraction(count(k), total))
    rows = ["n,k,sample_id,ratio\n"]
    means = ["n,k,mean_ratio\n"]
    for k, values in ratios.items():
        rows += [f"{n},{k},{i},{_format_ratio(r)}\n" for i, r in enumerate(values)]
        means.append(f"{n},{k},{_format_ratio(sum(values, Fraction(0)) / len(values))}\n")
    return ("".join(rows) + "\0" + "".join(means)).encode()


def check(lib, req: Request, output) -> str | None:
    """Return None when ``output`` is right for ``req``, else a reason."""
    if req.family == "ratio":
        expect = expected_csv(lib, req)
        return None if output == expect else "CSV differs from the recomputed sweep"
    t = lib.tree.parse_edge_list(req.text)
    if req.n <= lib.ORACLE_MAX_VERTICES:
        expect = _oracle(lib, req.family, req.mode, t, req.k, req.anchors)
        return None if output == expect else "differs from the oracle"
    reason = _recurrence(lib, req, t, output)
    if reason is None and req.family == "subtree":
        reason = _dp_check(req, output)
    return reason
