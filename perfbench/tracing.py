"""Span tracing around the library's public callables, from outside the library.

``Tracer.install`` replaces every module-level binding of each wrapped
function in the ``subtreecount`` package (and in the benchmark's own
modules), and every wrapped method on its class, so callers that imported
a function by name (``experiments`` imports ``count_all``, ``cli`` imports
``ratio_sweep``) are traced too.  ``uninstall`` restores the originals.

A span has a name, a start, an end, a parent and the id of the request it
belongs to.  Self time is a span's duration minus the time its child spans
cover; the wrapper's own bookkeeping counts as child time of the parent
and as no span's self time, so it shows only as tracing overhead.
Calls made once per fold or more often (tree rebuilds, pendant scans, the
folds themselves, ``WeightedTree`` updates and accessors, ``BiPoly``
arithmetic) run up to millions of times per pass, so they are aggregated
(calls, self time, counts) but not kept as spans; spans are kept for the
coarser calls (parse, count, rooted vectors, splits, sweep, CSV, CLI).
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path
from time import perf_counter

#: (module, class or None, attribute, layer group).
SPECS = (
    ("tree", None, "parse_edge_list", "tree.parse"),
    ("tree", "Tree", "__init__", "tree.build"),
    ("tree", "Tree", "pendant_vertices", "tree.pendants"),
    ("tree", "WeightedTree", "__init__", "tree.weighted"),
    ("tree", "WeightedTree", "vector", "tree.weighted"),
    ("tree", "WeightedTree", "edge_weight", "tree.weighted"),
    ("tree", "WeightedTree", "with_vector", "tree.weighted"),
    ("tree", "WeightedTree", "remove_leaf", "tree.weighted"),
    ("tree", "WeightedTree", "split", "tree.weighted"),
    ("bipoly", "BiPoly", "__mul__", "bipoly.mul"),
    ("bipoly", "BiPoly", "__add__", "bipoly.add"),
    ("bipoly", "BiPoly", "__sub__", "bipoly.add"),
    ("bipoly", "BiPoly", "sum", "bipoly.add"),
    ("subtree_enum", None, "leaf_update_subtree", "subtree_enum.fold"),
    ("subtree_enum", None, "count_all", "subtree_enum.count"),
    ("subtree_enum", None, "count_containing", "subtree_enum.count"),
    ("subtree_enum", None, "count_containing_pair", "subtree_enum.count"),
    ("subtree_enum", None, "count_exact_degree", "subtree_enum.count"),
    ("bc_enum", None, "leaf_update_bc", "bc_enum.fold"),
    ("bc_enum", None, "rooted_parity_vectors", "bc_enum.rooted"),
    ("bc_enum", None, "count_bc_all", "bc_enum.count"),
    ("bc_enum", None, "count_bc_containing", "bc_enum.count"),
    ("bc_enum", None, "count_bc_containing_pair", "bc_enum.count"),
    ("bc_enum", None, "count_bc_exact_degree", "bc_enum.count"),
    ("experiments", None, "ratio_sweep", "experiments.sweep"),
    ("experiments", None, "emit_csv", "experiments.csv"),
    ("cli", None, "main", "cli.main"),
)

#: Callables aggregated without keeping one span per call.
AGGREGATED = {
    "Tree.__init__", "Tree.pendant_vertices", "WeightedTree.vector",
    "WeightedTree.edge_weight", "WeightedTree.with_vector", "WeightedTree.remove_leaf",
    "subtree_enum.leaf_update_subtree", "bc_enum.leaf_update_bc",
    "BiPoly.__mul__", "BiPoly.__add__", "BiPoly.__sub__", "BiPoly.sum",
}

#: Wrapped callables each workload must reach; the self-check fails a
#: traced run when one of them, present in the library, is never called.
EXPECTED = {
    "subtree-large": {
        "tree.parse_edge_list", "Tree.__init__", "Tree.pendant_vertices",
        "WeightedTree.__init__", "WeightedTree.vector", "WeightedTree.with_vector",
        "WeightedTree.remove_leaf", "BiPoly.__mul__", "BiPoly.__add__",
        "BiPoly.__sub__", "BiPoly.sum", "subtree_enum.leaf_update_subtree",
        "subtree_enum.count_all", "subtree_enum.count_containing",
        "subtree_enum.count_containing_pair", "subtree_enum.count_exact_degree",
    },
    "bc-large": {
        "tree.parse_edge_list", "Tree.__init__", "Tree.pendant_vertices",
        "WeightedTree.__init__", "WeightedTree.split", "BiPoly.__mul__",
        "BiPoly.__add__", "BiPoly.__sub__", "BiPoly.sum", "bc_enum.leaf_update_bc",
        "bc_enum.rooted_parity_vectors", "bc_enum.count_bc_all",
        "bc_enum.count_bc_containing", "bc_enum.count_bc_containing_pair",
        "bc_enum.count_bc_exact_degree",
    },
    "density-sweep": {
        "cli.main", "experiments.ratio_sweep", "experiments.emit_csv",
        "subtree_enum.count_all", "bc_enum.count_bc_all", "subtree_enum.leaf_update_subtree",
        "bc_enum.leaf_update_bc", "bc_enum.rooted_parity_vectors", "Tree.__init__",
        "Tree.pendant_vertices", "WeightedTree.__init__", "BiPoly.__mul__",
    },
}

#: Per-layer counts that must repeat exactly between two traced passes.
EXACT_COUNTS = (
    "tree.build.calls", "tree.build.vertices", "tree.pendants.calls",
    "bipoly.mul.calls", "bipoly.mul.term_pairs", "bipoly.add.calls",
    "bipoly.result.max_terms", "bipoly.result.max_coeff_bits",
    "subtree_enum.fold.calls", "bc_enum.fold.calls", "bc_enum.rooted.calls",
    "experiments.sweep.trees", "experiments.csv.bytes", "cli.main.calls",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_term_pair"):
        return "ns"
    if name.endswith("per_input_vertex"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "subtreecount" or name.startswith("subtreecount.")]


def _nterms(poly) -> int:
    terms = getattr(poly, "_terms", None)
    return len(terms) if terms is not None else len(poly.terms())


class Tracer:
    """Collects spans and per-layer aggregates while installed."""

    def __init__(self):
        self.request = -1
        self.stats: dict[str, list] = {}  # callable label -> [calls, self_s]
        self.counts = {"tree.build.vertices": 0, "bipoly.mul.term_pairs": 0,
                       "bipoly.result.max_terms": 0, "bipoly.result.max_coeff_bits": 0,
                       "experiments.sweep.trees": 0, "experiments.csv.bytes": 0}
        self.spans: list[tuple] = []  # (request, id, parent, label, start, end)
        self.groups: dict[str, str] = {}  # callable label -> layer group
        self.missing: list[str] = []
        self._stack: list[list] = []  # open frames: [child_s, span id]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, label: str, fn, keep_span: bool, pre=None, post=None):
        stack, spans, stat = self._stack, self.spans, self.stats.setdefault(label, [0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            t_in = perf_counter()
            if pre is not None:
                pre(args, kwargs)
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            span_id = tracer._next_id if keep_span else (parent[1] if parent else 0)
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat[0] += 1
                stat[1] += (end - start) - frame[0]
                if keep_span:
                    spans.append((tracer.request, span_id, parent[1] if parent else 0, label, start, end))
            if post is not None:
                post(args, kwargs, result)
            if parent is not None:
                parent[0] += perf_counter() - t_in
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def _hooks(self, group: str):
        counts = self.counts

        def note_result(args, kwargs, result):
            terms = getattr(result, "_terms", None)
            if terms:
                if len(terms) > counts["bipoly.result.max_terms"]:
                    counts["bipoly.result.max_terms"] = len(terms)
                bits = max(terms.values()).bit_length()
                if bits > counts["bipoly.result.max_coeff_bits"]:
                    counts["bipoly.result.max_coeff_bits"] = bits

        if group == "tree.build":
            def post(args, kwargs, result):
                counts["tree.build.vertices"] += len(args[0].vertices)
            return None, post
        if group == "bipoly.mul":
            def pre(args, kwargs):
                counts["bipoly.mul.term_pairs"] += _nterms(args[0]) * _nterms(args[1])
            return pre, note_result
        if group == "bipoly.add":
            return None, note_result
        if group == "experiments.sweep":
            def pre(args, kwargs):
                counts["experiments.sweep.trees"] += kwargs.get("samples", args[1] if len(args) > 1 else 0)
            return pre, None
        if group == "experiments.csv":
            def post(args, kwargs, result):
                path = Path(kwargs.get("path", args[1] if len(args) > 1 else ""))
                mean = path.with_name(path.stem + "_mean" + (path.suffix or ".csv"))
                counts["experiments.csv.bytes"] += sum(p.stat().st_size for p in (path, mean) if p.exists())
            return None, post
        return None, None

    def install(self, extra_modules=()) -> None:
        """Wrap every callable in SPECS that the loaded library defines."""
        modules = _package_modules() + list(extra_modules)
        for mod_name, cls_name, attr, group in SPECS:
            mod = sys.modules.get(f"subtreecount.{mod_name}")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            label = f"{cls_name or mod_name}.{attr}"
            if raw is None:
                self.missing.append(label)
                continue
            self.groups[label] = group
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            pre, post = self._hooks(group)
            wrapped = self._wrap(label, fn, label not in AGGREGATED, pre, post)
            if cls_name:
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                self._restore.append((owner, attr, raw))
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)
                        self._restore.append((m, name, fn))

    def stale_bindings(self, extra_modules=()) -> list[str]:
        """Module globals (or their dict/list/tuple items) still holding an original."""
        originals = {id(fn) for _, _, fn in self._restore}
        originals |= {id(fn.__func__) for _, _, fn in self._restore if isinstance(fn, staticmethod)}
        stale = []
        for m in _package_modules() + list(extra_modules):
            for name, value in vars(m).items():
                if isinstance(value, dict):
                    items = list(value.values())
                elif isinstance(value, (list, tuple)):
                    items = list(value)
                else:
                    items = [value]
                if any(id(v) in originals for v in items):
                    stale.append(f"{m.__name__}.{name}")
        return stale

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        for key in self.counts:
            self.counts[key] = 0
        self.spans.clear()

    def _group(self, group: str) -> tuple[int, float]:
        calls = sum(self.stats[l][0] for l, g in self.groups.items() if g == group)
        self_s = sum(self.stats[l][1] for l, g in self.groups.items() if g == group)
        return calls, self_s

    def layer_metrics(self, input_vertices: int) -> dict[str, float]:
        """The per-layer metrics of everything traced since the last reset."""
        c = self.counts
        g = {name: self._group(name) for name in set(self.groups.values())}
        get = lambda name: g.get(name, (0, 0.0))  # noqa: E731
        per_vertex = lambda calls: calls / input_vertices if input_vertices else 0.0  # noqa: E731
        mul_calls, mul_self = get("bipoly.mul")
        pairs = c["bipoly.mul.term_pairs"]
        return {
            "tree.parse.self_s": get("tree.parse")[1],
            "tree.build.calls": get("tree.build")[0],
            "tree.build.vertices": c["tree.build.vertices"],
            "tree.build.vertices_per_input_vertex": per_vertex(c["tree.build.vertices"]),
            "tree.build.self_s": get("tree.build")[1],
            "tree.pendants.calls": get("tree.pendants")[0],
            "tree.pendants.self_s": get("tree.pendants")[1],
            "tree.weighted.self_s": get("tree.weighted")[1],
            "bipoly.mul.calls": mul_calls,
            "bipoly.mul.term_pairs": pairs,
            "bipoly.mul.self_s": mul_self,
            "bipoly.mul.ns_per_term_pair": mul_self * 1e9 / pairs if pairs else 0.0,
            "bipoly.add.calls": get("bipoly.add")[0],
            "bipoly.add.self_s": get("bipoly.add")[1],
            "bipoly.result.max_terms": c["bipoly.result.max_terms"],
            "bipoly.result.max_coeff_bits": c["bipoly.result.max_coeff_bits"],
            "subtree_enum.fold.calls": get("subtree_enum.fold")[0],
            "subtree_enum.fold.self_s": get("subtree_enum.fold")[1],
            "subtree_enum.fold.per_input_vertex": per_vertex(get("subtree_enum.fold")[0]),
            "subtree_enum.count.self_s": get("subtree_enum.count")[1],
            "bc_enum.fold.calls": get("bc_enum.fold")[0],
            "bc_enum.fold.self_s": get("bc_enum.fold")[1],
            "bc_enum.fold.per_input_vertex": per_vertex(get("bc_enum.fold")[0]),
            "bc_enum.rooted.calls": get("bc_enum.rooted")[0],
            "bc_enum.rooted.self_s": get("bc_enum.rooted")[1],
            "bc_enum.count.self_s": get("bc_enum.count")[1],
            "experiments.sweep.trees": c["experiments.sweep.trees"],
            "experiments.sweep.self_s": get("experiments.sweep")[1],
            "experiments.csv.bytes": c["experiments.csv.bytes"],
            "experiments.csv.self_s": get("experiments.csv")[1],
            "cli.main.calls": get("cli.main")[0],
            "cli.main.self_s": get("cli.main")[1],
        }

    def uncovered(self, workload: str) -> list[str]:
        """Expected callables present in the library that were never called."""
        return sorted(label for label in EXPECTED[workload]
                      if label in self.stats and self.stats[label][0] == 0)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("request,span,parent,name,start,end\n")
            for req, sid, parent, label, start, end in self.spans:
                handle.write(f"{req},{sid},{parent},{label},{start:.9f},{end:.9f}\n")
