"""Density sweeps: how much of the subtree population survives a degree cap.

For each sampled random tree the sweep computes the ratio of the
degree-capped count to the uncapped one, per cap value k.  The uncapped
denominator is the count at the tree's maximum degree, above which no cap
binds, so it is also the numerator of every cap at or above that.  Ratios
are exact rationals of big integers and are only rounded when rendered
into the CSV.

Counts here do not need the full generating functions, so the sweep runs
the counting algorithms with unit weights (vertex vectors starting at 1,
edge weight 1); the result polynomial then is a single constant equal to
the count.  That is the same evaluation-at-one homomorphism the library
tests assert, just applied before the arithmetic instead of after.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .bipoly import ONE
from .bc_enum import ParityDegreeVector, count_bc_all
from .errors import InvalidArgument
from .subtree_enum import DegreeVector, count_all
from .tree import Tree, WeightedTree, _binding_cap, _starting_vector
from .tree import least_k, random_tree, require_int


@dataclass(frozen=True)
class RatioRecord:
    """One sampled tree's density at one cap value; ratio is exact."""

    n: int
    k: int
    sample_id: int
    ratio: Fraction


def _unit_count(t: Tree, k: int, family: str) -> int:
    if family == "bc":
        vector_type, count = ParityDegreeVector, count_bc_all
    else:
        vector_type, count = DegreeVector, count_all
    k = _binding_cap(t, k, family)
    weights = {v: _starting_vector(vector_type, k, t.degree(v), ONE) for v in t.vertices}
    return count(WeightedTree(t, weights, {e: ONE for e in t.edges}), k).eval_counts()


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
    given (n, samples, seed, family) call replays exactly.
    """
    k_lo = max(least_k(family), 1)
    require_int(n, k_lo + 1, "n")
    require_int(samples, 0, "samples")
    require_int(k_max, k_lo, "k_max")
    if k_max > n - 1:
        raise InvalidArgument(f"k_max must lie in {k_lo}..{n - 1}, got {k_max}")
    master = random.Random(seed)
    tree_seeds = [master.getrandbits(63) for _ in range(samples)]
    records = []
    for sample_id, tree_seed in enumerate(tree_seeds):
        t = random_tree(n, tree_seed)
        uncapped = _binding_cap(t, n - 1, family)
        denominator = _unit_count(t, uncapped, family)
        for k in range(k_lo, k_max + 1):
            count = denominator if k >= uncapped else _unit_count(t, k, family)
            ratio = Fraction(count, denominator)
            records.append(RatioRecord(n=n, k=k, sample_id=sample_id, ratio=ratio))
    records.sort(key=lambda r: (r.n, r.k, r.sample_id))
    return records


def _format_ratio(ratio: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(ratio.numerator) / Decimal(ratio.denominator)
        return str(value.quantize(Decimal("0.000001")))


def aggregate_path(path: str | Path) -> Path:
    """Where the companion per-(n, k) mean file goes: stem gains '_mean'."""
    p = Path(path)
    suffix = p.suffix or ".csv"
    return p.with_name(p.stem + "_mean" + suffix)


def emit_csv(records: Iterable[RatioRecord], path: str | Path) -> None:
    """Write per-sample rows plus the companion mean file next to them."""
    rows = sorted(records, key=lambda r: (r.n, r.k, r.sample_id))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "k", "sample_id", "ratio"])
        for rec in rows:
            writer.writerow([rec.n, rec.k, rec.sample_id, _format_ratio(rec.ratio)])
    with open(aggregate_path(path), "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "k", "mean_ratio"])
        for (n, k), mean in sorted(mean_ratios(rows).items()):
            writer.writerow([n, k, _format_ratio(mean)])


def mean_ratios(records: Sequence[RatioRecord]) -> dict[tuple[int, int], Fraction]:
    """Exact mean ratio per (n, k), as written to the companion file."""
    groups: dict[tuple[int, int], list[Fraction]] = {}
    for rec in records:
        groups.setdefault((rec.n, rec.k), []).append(rec.ratio)
    return {
        key: sum(ratios, Fraction(0)) / len(ratios) for key, ratios in groups.items()
    }
