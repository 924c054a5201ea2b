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
"""

import sys
import tracemalloc

import pytest

from subtreecount import BiPoly, Tree, count_all, count_bc_all

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
