"""Density sweeps: how much of the subtree population survives a degree cap.

For each sampled random tree the sweep computes the ratio of the
degree-capped count to the uncapped one, per cap value k.  The uncapped
denominator is the count at the tree's maximum degree, above which no cap
binds, so it is also the numerator of every cap at or above that.  Ratios
are exact rationals of big integers and are only rounded when rendered
into the CSV.

Counts here do not need the full generating functions, so the sweep runs
the counting algorithms with unit weights (vertex vectors starting at 1,
edge weight 1): the result is the count, the generating function's value
at y = z = 1.  That is the same evaluation-at-one homomorphism the
library tests assert, just applied before the arithmetic instead of
after.  The shared contraction below runs in plain ints (the door's int
ring, see ``tree._as_weighted``); a lone cap runs the family's own count
on BiPoly constants, one-term polynomials (``_unit_counts`` says why).

At caps 0 to 2 every counted subtree is a path, so those counts need no
contraction and come in closed form (``_unit_counts``).  On n vertices
there are n plain subtrees at cap 0 (the vertices), 2n - 1 at cap 1 (the
vertices and the n - 1 edges) and n(n + 1)/2 at cap 2 (the vertices and
one path per pair of them).  A BC-subtree at cap 2 is a path of at least
two edges whose two ends are at even distance, that is share a colour,
so there are C(a, 2) + C(b, 2) of them, a and b being the sizes of the
tree's two colour classes.

Caps from 3 contract as above.  A sample that needs one of them counts it
on its own; one that needs several shares one contraction among them
(``_shared_counts``).  No cap c or above binds a vertex of degree at most
c (c = 3, the least cap contracted): such a vertex starts as a product
row and folds the same at every cap.  So each pass contracts once, at the
top cap, onto the *core*, the vertices of degree above c, which start as
full rows; the rows it eliminates are summed once for every cap.  Per cap
k, only the smallest subtree connecting the core (its survivors) is left
to fold, its core rows cut to their first k + 1 entries: a fold writes
entry i from entry i - 1 alone, so cutting a row before a fold gives what
cutting it after would.  The survivors are folded on the sample's own
tree, each into its parent on the walk the tree made when it was built
(``Tree._first_walk``), deepest first; no tree is built for them.  They
form a subtree, so the survivor nearest the walk's root is the only one
whose parent there is no survivor: it is the one left, whose row is read
as ``count_all`` reads its survivor's.

The CSV rounds every ratio in one decimal context of its own (60 digits,
ties to even), made once per ``emit_csv`` call, so the caller's context,
its rounding or its traps change no byte.  A mean is summed exactly, over
the lcm of its group's denominators.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import comb, lcm
from pathlib import Path
from typing import Iterable, Sequence

from . import subtree_enum
from .bipoly import ONE
from .bc_enum import ParityDegreeVector, _colour_passes, _family
from .errors import InvalidArgument
from .subtree_enum import DegreeVector, _contract, range_sum
from .tree import MAX_SWEEP_VERTICES, Tree, _as_weighted, _binding_cap
from .tree import least_k, random_tree, require_int, require_size


@dataclass(frozen=True)
class RatioRecord:
    """One sampled tree's density at one cap value; ratio is exact."""

    n: int
    k: int
    sample_id: int
    ratio: Fraction


def _unit_counts(t: Tree, caps: Sequence[int], family: str) -> dict[int, int]:
    """``family``'s counts on ``t`` at each of ``caps`` (ascending, none above
    the cap that binds, ``_binding_cap``): in closed form at caps 0 to 2,
    else by one contraction, shared when more than one cap needs it.  A
    lone cap takes the family's own count (``_family``) on BiPoly constants
    (unit weights ONE), not on ints: it is the one path by which the sweep
    reaches ``count_all``, ``count_bc_all``, ``rooted_parity_vectors`` and
    ``BiPoly.__mul__``, which perfbench's traced pass expects the
    density-sweep workload to call.  Most small samples take it, so the
    shared contraction's int ring gains little there."""
    n = len(t.vertices)
    counts, contracted = {}, []
    for k in caps:
        if family == "subtree" and k <= 2:
            counts[k] = (n, 2 * n - 1, n * (n + 1) // 2)[k]
        elif family == "bc" and k == 2:
            a = sum(t._colouring().values())
            counts[k] = comb(a, 2) + comb(n - a, 2)
        else:
            contracted.append(k)
    if len(contracted) == 1:
        (k,) = contracted
        vector_type, (count, _, _), _ = _family(family)
        wt, cap, _ = _as_weighted(t, k, vector_type, vertex_weight=ONE, edge_weight=ONE)
        counts[k] = count(wt, cap).eval_counts()
    elif contracted:
        counts.update(zip(contracted, _shared_counts(t, contracted, family)))
    return counts


def _shared_counts(t: Tree, caps: Sequence[int], family: str) -> list[int]:
    """The counts at ``caps`` (ascending, from 3) from one contraction per
    pass onto the core, the vertices of degree above ``caps[0]``, then per
    cap one fold of each other vertex of the subtree connecting it into its
    parent on the tree's own walk (see the module docstring), through the
    module binding ``subtree_enum.leaf_update_subtree``.  Both sum their
    eliminated rows as ``count_all`` (from lo) and ``count_bc_all`` (from
    lo + 1) do; these starting rows count no bare vertex, so nothing is
    taken off.  All of it runs on plain ints."""
    vector_type, skip = (ParityDegreeVector, 1) if family == "bc" else (DegreeVector, 0)
    wt, top, _ = _as_weighted(t, caps[-1], vector_type, vertex_weight=1, edge_weight=1)
    core = frozenset(v for v, ns in t._adj.items() if len(ns) > caps[0])
    full = vector_type.initial(top, 1)
    wt = wt._reweighted({**wt._vertex_weights, **dict.fromkeys(core, full)})

    shared, survivors = 0, []
    for p in _colour_passes(wt, t.vertices[0]) if skip else [wt]:
        total = p._ring.running_sum()
        survivors.append(
            _contract(p, top, core, lambda row, lo: total.add(range_sum(row, lo + skip, top))))
        shared += total.total()
    # Deepest first on the tree's own walk; the survivor nearest its root is left.
    order, parent = t._first_walk
    walk = [u for u in reversed(order) if u in survivors[0]]
    root = walk.pop()
    fold = subtree_enum.leaf_update_subtree
    counts = []
    for k in caps:
        count = shared
        for rows in survivors:
            cut = {v: DegreeVector._row(vec.entries[: k + 1], vec._lo) if v in core else vec
                   for v, vec in rows.items()}
            for u in walk:
                leaf = cut.pop(u)
                count += range_sum(leaf.entries, leaf._lo + skip, k)
                cut[parent[u]] = fold(cut[parent[u]], leaf, 1, k)
            last = cut[root]
            count += range_sum(last.entries, last._lo + skip, k)
        counts.append(count)
    return counts


def ratio_sweep(
    n: int,
    samples: int,
    k_max: int,
    seed: int,
    family: str = "subtree",
) -> list[RatioRecord]:
    """Sample random trees and record capped/uncapped count ratios.

    The subtree family sweeps k = 1..k_max, the BC family k = 2..k_max.
    Per-sample generator seeds are drawn from one master generator, so a
    given (n, samples, seed, family) call replays exactly.  A sweep of more
    than ``tree.MAX_SWEEP_VERTICES`` vertices in all (samples times n)
    raises TooLarge before any seed is drawn.
    """
    k_lo = max(least_k(family), 1)
    require_int(n, k_lo + 1, "n")
    require_size(n)
    require_int(samples, 0, "samples")
    require_size(samples * n, MAX_SWEEP_VERTICES, "sweep")
    require_int(k_max, k_lo, "k_max")
    require_int(seed, None, "seed")
    if k_max > n - 1:
        raise InvalidArgument(f"k_max must lie in {k_lo}..{n - 1}, got {k_max}")
    master = random.Random(seed)
    tree_seeds = [master.getrandbits(63) for _ in range(samples)]
    records = []
    for sample_id, tree_seed in enumerate(tree_seeds):
        t = random_tree(n, tree_seed)
        uncapped = _binding_cap(t, n - 1, family)
        counts = _unit_counts(t, [*range(k_lo, min(k_max + 1, uncapped)), uncapped], family)
        for k in range(k_lo, k_max + 1):
            ratio = Fraction(counts[min(k, uncapped)], counts[uncapped])
            records.append(RatioRecord(n=n, k=k, sample_id=sample_id, ratio=ratio))
    records.sort(key=lambda r: (r.n, r.k, r.sample_id))
    return records


def _csv_context() -> Context:
    """The decimal context of one CSV: 60 digits, ties to even, whatever
    the caller's own context is."""
    return Context(prec=60, rounding=ROUND_HALF_EVEN)


_MICRO = Decimal("0.000001")


def _format_ratio(ratio: Fraction, ctx: Context) -> str:
    """``ratio`` to six decimals, rounded in ``ctx`` (a ``_csv_context()``)."""
    value = ctx.divide(Decimal(ratio.numerator), Decimal(ratio.denominator))
    return str(ctx.quantize(value, _MICRO))


def aggregate_path(path: str | Path) -> Path:
    """Where the companion per-(n, k) mean file goes: stem gains '_mean'."""
    p = Path(path)
    suffix = p.suffix or ".csv"
    return p.with_name(p.stem + "_mean" + suffix)


def emit_csv(records: Iterable[RatioRecord], path: str | Path) -> None:
    """Write per-sample rows plus the companion mean file next to them."""
    try:  # before any file is opened
        rows = sorted(records, key=lambda r: (r.n, r.k, r.sample_id))
    except (AttributeError, TypeError):
        raise InvalidArgument("records must be an iterable of RatioRecord") from None
    ctx = _csv_context()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "k", "sample_id", "ratio"])
        for rec in rows:
            writer.writerow([rec.n, rec.k, rec.sample_id, _format_ratio(rec.ratio, ctx)])
    with open(aggregate_path(path), "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "k", "mean_ratio"])
        for (n, k), mean in sorted(mean_ratios(rows).items()):
            writer.writerow([n, k, _format_ratio(mean, ctx)])


def mean_ratios(records: Sequence[RatioRecord]) -> dict[tuple[int, int], Fraction]:
    """Exact mean ratio per (n, k), as written to the companion file."""
    groups: dict[tuple[int, int], list[Fraction]] = {}
    try:
        for rec in records:
            groups.setdefault((rec.n, rec.k), []).append(rec.ratio)
    except (AttributeError, TypeError):
        raise InvalidArgument("records must be an iterable of RatioRecord") from None
    means = {}
    try:
        for key, ratios in groups.items():  # over the lcm of the group's denominators
            den = lcm(*(r.denominator for r in ratios))
            means[key] = Fraction(sum(r.numerator * (den // r.denominator) for r in ratios),
                                  den * len(ratios))
    except (AttributeError, TypeError):
        raise InvalidArgument("a RatioRecord's ratio must be a Fraction") from None
    return means
