"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of requests (one "pass").  Every pass draws
fresh inputs from ``(workload, seed, pass index)``, so no request in a run
repeats an input and a cross-call result cache cannot show a gain users
would not see.  Trees are generated here, not by the library, so the
inputs for a seed stay the same whatever the library does.

Request sizes (full mode; ``smoke`` shrinks every size for the self-tests):

* ``subtree-large``: 8 large requests (n=800, the four plain subtree modes
  at k=8 and k=3), 4 middle (n=300, k=5, one per mode) and 400 small
  (n=6..12, k=1..8).
* ``bc-large``: 14 large requests (unanchored BC counts on paths,
  caterpillars and random trees of 130..140 vertices, k=2..7), 6 middle
  (the anchored modes on the same sizes) and 400 small (n=9..12, k=2..6).
* ``density-sweep``: 9 large ``ratio`` CLI runs (n=30, 20 samples, kmax=8;
  2 subtree, 7 BC) and 300 small ones (n=8, 3 samples, kmax=4).

Where sizes mix two latency clusters, the counts are uneven so that the
reported median falls inside a cluster instead of in the gap between two.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

WORKLOADS = ("subtree-large", "bc-large", "density-sweep")
MODES = ("all", "containing", "pair", "exact")
SMALL_MAX_N = 12  # the oracle allows 14, but its cost about doubles per vertex

#: Library callables per (family, mode); looked up on the module at call
#: time so the traced run sees its wrappers.
FUNCTIONS = {
    "subtree": {
        "all": "count_all",
        "containing": "count_containing",
        "pair": "count_containing_pair",
        "exact": "count_exact_degree",
    },
    "bc": {
        "all": "count_bc_all",
        "containing": "count_bc_containing",
        "pair": "count_bc_containing_pair",
        "exact": "count_bc_exact_degree",
    },
}


@dataclass(frozen=True)
class Request:
    """One call into the library, with the input it reads.

    ``family`` is ``subtree`` or ``bc`` for generating-function requests
    and ``ratio`` for density-sweep CLI runs.  ``n`` is the vertex count of
    each input tree and ``trees`` the number of trees the request reads.
    """

    rid: str
    family: str
    mode: str
    size: str
    k: int
    n: int
    text: str = ""
    anchors: tuple[str, ...] = ()
    argv: tuple[str, ...] = ()
    trees: int = 1


def pruefer_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniformly random labeled tree on 0..n-1 (Pruefer decode)."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def path_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A spine of n//2 vertices; every other vertex hangs off a random spine vertex."""
    spine = n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), i) for i in range(spine, n)]
    return edges


SHAPES = {"random": pruefer_edges, "path": path_edges, "caterpillar": caterpillar_edges}


class _Inputs:
    """Draws labelled edge-list texts, never the same text twice in a run."""

    def __init__(self, rng: random.Random, seen: set[str]):
        self.rng = rng
        self.seen = seen

    def tree(self, n: int, shape: str = "random") -> tuple[str, list[str], list[str]]:
        """Return (edge-list text, labels, leaf labels) for a fresh tree."""
        rng = self.rng
        while True:
            edges = SHAPES[shape](n, rng)
            if shape == "random":
                # User input has no canonical order, and the library picks
                # leaves and split edges by label.
                labels = [f"v{x}" for x in rng.sample(range(10 * n + 10), n)]
            else:
                # Labelled in order along the spine, as people number a path;
                # the library then splits and contracts from one end, its
                # slowest (about cubic) case.
                prefix = f"p{rng.randrange(10**6)}_"
                labels = [f"{prefix}{i:04d}" for i in range(n)]
            lines = [
                f"{labels[a]} {labels[b]}" if rng.random() < 0.5 else f"{labels[b]} {labels[a]}"
                for a, b in edges
            ]
            rng.shuffle(lines)  # line order carries no meaning
            text = "\n".join(lines) + "\n" if lines else labels[0] + "\n"
            if text not in self.seen:
                self.seen.add(text)
                break
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        leaves = [labels[i] for i in range(n) if degree[i] == 1]
        return text, labels, leaves

    def genfun(
        self, rid: str, family: str, mode: str, size: str, n: int, k: int, shape: str = "random"
    ) -> Request:
        text, labels, leaves = self.tree(n, shape)
        anchors: tuple[str, ...] = ()
        if mode == "containing":
            anchors = (self.rng.choice(labels),)
        elif mode == "pair":
            # The second anchor is a leaf so the leaf-deletion check applies.
            b = self.rng.choice(leaves)
            anchors = (self.rng.choice([x for x in labels if x != b]), b)
        return Request(rid, family, mode, size, k, n, text=text, anchors=anchors)


def _small_k(family: str, mode: str, rng: random.Random) -> int:
    if family == "subtree":
        return rng.randint(1, 8)
    return rng.randint(3 if mode == "exact" else 2, 6)


def _small_requests(inputs: _Inputs, prefix: str, family: str, count: int, n_lo: int) -> list[Request]:
    rng = inputs.rng
    out = []
    for i in range(count):
        mode = MODES[i % len(MODES)]
        n = rng.randint(n_lo, SMALL_MAX_N)
        k = _small_k(family, mode, rng)
        out.append(inputs.genfun(f"{prefix}/small/{i}", family, mode, "small", n, k))
    return out


def _subtree_large(inputs: _Inputs, prefix: str, smoke: bool) -> list[Request]:
    big, middle, small_count = (40, 20, 24) if smoke else (800, 300, 400)
    reqs = []
    for k in (8, 3):
        for mode in MODES:
            reqs.append(inputs.genfun(f"{prefix}/large/{mode}/k{k}", "subtree", mode, "large", big, k))
    for mode in MODES:
        reqs.append(inputs.genfun(f"{prefix}/middle/{mode}", "subtree", mode, "middle", middle, 5))
    reqs += _small_requests(inputs, prefix, "subtree", small_count, 4 if smoke else 6)
    return reqs


#: (mode, shape, k) of the bc-large requests on trees of BC_N[shape]
#: vertices.  The unanchored counts are the large requests; the anchored
#: ones finish 10 to 100 times faster on the same trees and are reported as
#: middle requests.  The six path counts cost the same whatever the seed and
#: sit in the middle of the large latencies, which keeps the median off the
#: random-tree spread.
BC_BIG = (
    ("all", "path", 2),
    ("all", "path", 3),
    ("all", "path", 4),
    ("all", "path", 5),
    ("all", "path", 6),
    ("all", "path", 7),
    ("all", "caterpillar", 2),
    ("all", "caterpillar", 4),
    ("exact", "caterpillar", 3),
    ("all", "random", 2),
    ("all", "random", 4),
    ("all", "random", 6),
    ("exact", "random", 3),
    ("exact", "random", 5),
    ("containing", "random", 4),
    ("containing", "path", 2),
    ("containing", "caterpillar", 6),
    ("pair", "random", 3),
    ("pair", "path", 2),
    ("pair", "caterpillar", 5),
)
BC_N = {"random": 140, "path": 130, "caterpillar": 130}


def _bc_large(inputs: _Inputs, prefix: str, smoke: bool) -> list[Request]:
    scale, small_count = (0.15, 24) if smoke else (1.0, 400)
    reqs = []
    for i, (mode, shape, k) in enumerate(BC_BIG):
        n = int(BC_N[shape] * scale)
        size = "large" if mode in ("all", "exact") else "middle"
        reqs.append(inputs.genfun(f"{prefix}/{size}/{i}-{mode}-{shape}", "bc", mode, size, n, k, shape))
    reqs += _small_requests(inputs, prefix, "bc", small_count, 5 if smoke else 9)
    return reqs


def _ratio(rid: str, size: str, family: str, n: int, samples: int, kmax: int, seed: int) -> Request:
    argv = (
        "ratio", "--n", str(n), "--samples", str(samples), "--kmax", str(kmax),
        "--seed", str(seed), "--family", family,
    )
    return Request(rid, "ratio", family, size, kmax, n, argv=argv, trees=samples)


def _density_sweep(inputs: _Inputs, prefix: str, smoke: bool) -> list[Request]:
    (big, samples, kmax), (small, small_samples), small_count = (
        ((16, 3, 4), (6, 2), 12) if smoke else ((30, 20, 8), (8, 3), 300)
    )
    rng = inputs.rng
    reqs = []
    for i, family in enumerate(("subtree",) * 2 + ("bc",) * 7):
        seed = rng.getrandbits(48)
        reqs.append(_ratio(f"{prefix}/large/{i}-{family}", "large", family, big, samples, kmax, seed))
    for i in range(small_count):
        family = "bc" if i % 3 == 2 else "subtree"
        seed = rng.getrandbits(48)
        reqs.append(_ratio(f"{prefix}/small/{i}", "small", family, small, small_samples, 4, seed))
    return reqs


_REQUEST_LISTS = {
    "subtree-large": _subtree_large,
    "bc-large": _bc_large,
    "density-sweep": _density_sweep,
}


class Generator:
    """Builds the request list of each pass of one run."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        if workload not in _REQUEST_LISTS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self._seen: set[str] = set()

    def pass_requests(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        requests = _REQUEST_LISTS[self.workload](_Inputs(rng, self._seen), f"p{index}", self.smoke)
        # Interleave sizes so each latency sample spreads over the whole pass
        # rather than one stretch of it, when the machine's speed drifts.
        rng.shuffle(requests)
        return requests


def run_request(lib, req: Request, out_path: str | None = None):
    """Execute one request; the caller times this call."""
    if req.family == "ratio":
        return lib.cli.main([*req.argv, "--out", out_path])
    t = lib.tree.parse_edge_list(req.text)
    module = lib.subtree_enum if req.family == "subtree" else lib.bc_enum
    fn = getattr(module, FUNCTIONS[req.family][req.mode])
    if req.mode == "exact":
        return fn(t, req.k, req.anchors)
    return fn(t, req.k, *req.anchors)
