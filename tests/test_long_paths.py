"""The long-path gate: in-order paths of up to 5,000 vertices.

Marked ``slow`` and left out of the default run (see ``addopts`` in
pyproject.toml); run it with ``PYTHONPATH=src python -m pytest -m slow``
after any change to the contraction, the folds or the running sums.

On a path every sub-path is a subtree of maximum degree at most 2, and a
sub-path is a BC-subtree exactly when its two ends are at even distance,
so both counts have closed forms: n - j + 1 sub-paths of j vertices, and
n - e BC-subtrees of e edges for every even e >= 2, whose leaves' class
holds e/2 + 1 vertices.  The counts run under the default recursion limit,
so a recursion that grows with n fails here; at k = 2 they also run under
``tracemalloc``, whose peak must grow about linearly in n.  On a path every
cap from 2 up counts at cap 2, so k = 3 checks the clamp on the same counts.

Hubs are the other shape where a fold could cost O(n): each leaf or leg
folded into a hub grows its row by a term.  A 5,000-vertex star and a
spider (a hub with d legs, each a path of l vertices) are counted at their
maximum degree against closed forms, themselves checked against the oracle
on a spider small enough for it.
"""

import sys
import tracemalloc
from collections import Counter
from math import comb

import pytest

from subtreecount import BiPoly, Tree, count_all, count_bc_all, oracle_count

from test_subtree_enum import _star_sum

pytestmark = pytest.mark.slow

SIZES = (1000, 2000, 5000)


def _in_order_path(n):
    """v00001 - v00002 - ... - vn: label order is path order."""
    labels = [f"v{i:05d}" for i in range(1, n + 1)]
    return Tree(labels, list(zip(labels, labels[1:])))


def _subtrees(n):
    return BiPoly({(j, j - 1): n - j + 1 for j in range(1, n + 1)})


def _bc_subtrees(n):
    return BiPoly({(e // 2 + 1, e): n - e for e in range(2, n, 2)})


def _traced(count, t, k):
    tracemalloc.start()
    try:
        result = count(t, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize(
    "count, closed_form", [(count_all, _subtrees), (count_bc_all, _bc_subtrees)]
)
def test_long_paths_match_their_closed_forms_in_linear_memory(count, closed_form):
    assert sys.getrecursionlimit() <= SIZES[0]
    peaks = []
    for n in SIZES:
        path = _in_order_path(n)
        result, peak = _traced(count, path, 2)
        assert result == closed_form(n), n
        assert count(path, 3) == result, n
        peaks.append(peak)
    # Five times the vertices: linear memory reads about 5, quadratic 25.
    assert peaks[-1] < 10 * peaks[0], peaks


def test_a_5000_vertex_star_matches_its_closed_form():
    # The hub with j of its m leaves, or a leaf alone; the BC ones are those
    # with j >= 2 leaves, whose leaves y marks.
    m = 4999
    leaves = [f"l{i}" for i in range(m)]
    star = Tree(["h"] + leaves, [("h", leaf) for leaf in leaves])
    through_hub = _star_sum(lambda j: comb(m, j), 0, m, 1)
    assert count_all(star, m) == BiPoly(dict(Counter(through_hub.terms()) + Counter({(1, 0): m})))
    assert count_bc_all(star, m) == _star_sum(lambda j: comb(m, j), 2, m, 0)


def _spider(d, l):
    """A hub h with d legs, leg i the path h - s{i}_1 - ... - s{i}_l."""
    edges = [
        (f"s{i}_{j - 1}" if j > 1 else "h", f"s{i}_{j}") for i in range(d) for j in range(1, l + 1)
    ]
    return Tree(["h"] + [v for _, v in edges], edges)


def _times(a, b):
    """The coefficients of the product of two polynomials in one variable."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, c in enumerate(b):
            out[i + j] += x * c
    return out


def _power(coeffs, d):
    """The coefficients of (sum_i coeffs[i] t^i)^d."""
    out = [1]
    for _ in range(d):
        out = _times(out, coeffs)
    return out


def _spider_subtrees(d, l):
    """Subtrees of spider d x l: the hub with a prefix of each leg, p_i >= 0
    of its vertices (y^(1 + sum p) z^(sum p)), or a sub-path of one leg."""
    ways = _power([1] * (l + 1), d)  # prefixes with sum p = j
    legs = {(j, j - 1): d * (l - j + 1) for j in range(1, l + 1)}
    return BiPoly(dict(Counter(_star_sum(ways.__getitem__, 0, d * l, 1).terms()) + Counter(legs)))


def _spider_bc_subtrees(d, l):
    """BC-subtrees of spider d x l.  Through the hub, the used legs' prefix
    lengths p_i share a parity.  Even: y marks the hub and p_i / 2 vertices
    of each prefix, and one leg is enough (its end and the hub are the
    leaves).  Odd: y marks (p_i + 1) / 2 vertices of each, and at least two
    legs are used.  Off the hub, a sub-path of one leg with e >= 2 edges,
    e even, marks e / 2 + 1 vertices."""
    terms = Counter({(e // 2 + 1, e): d * (l - e) for e in range(2, l, 2)})
    even = _power([1] * (l // 2 + 1), d)  # sum of p_i / 2 = q
    terms.update({(q + 1, 2 * q): c for q, c in enumerate(even) if q})
    odd, leg = [1], [0] + [1] * ((l + 1) // 2)
    for used in range(1, d + 1):
        odd = _times(odd, leg)  # sum of (p_i + 1) / 2 over the used legs = r
        if used > 1:
            terms.update({(r, 2 * r - used): comb(d, used) * c for r, c in enumerate(odd) if c})
    return BiPoly(dict(terms))


def test_spider_closed_forms_match_the_oracle():
    spider = _spider(3, 4)
    assert oracle_count(spider, 3, "subtree") == _spider_subtrees(3, 4)
    assert oracle_count(spider, 3, "bc") == _spider_bc_subtrees(3, 4)


def test_a_spider_matches_its_closed_forms():
    d, l = 200, 5
    spider = _spider(d, l)
    assert count_all(spider, d) == _spider_subtrees(d, l)
    assert count_bc_all(spider, d) == _spider_bc_subtrees(d, l)
