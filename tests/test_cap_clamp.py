"""Caps above a plain tree's maximum degree cannot bind.

For a plain Tree the counts run at the cap that can bind: k clamped to
the maximum degree, never below the family's least cap, and each vertex
whose degree the cap cannot exceed starts as a product row.  A WeightedTree
keeps its vectors as they are, so counting one built with full-length
``initial(k)`` vectors is an unclamped, full-row reference for every mode.
"""

import tracemalloc

import pytest

from subtreecount import (
    ZERO,
    BiPoly,
    DegreeVector,
    ParityDegreeVector,
    UnknownVertex,
    WeightedTree,
    count_all,
    count_bc_all,
    count_bc_containing,
    count_bc_containing_pair,
    count_bc_exact_degree,
    count_containing,
    count_containing_pair,
    count_exact_degree,
    oracle_count,
    parse_edge_list,
    rooted_parity_sums,
    rooted_parity_vectors,
)
from subtreecount.cli import main
from subtreecount.tree import LEAST_K

from conftest import seeded_ensemble

FAMILIES = {
    "subtree": (
        DegreeVector,
        (count_all, count_containing, count_containing_pair),
        count_exact_degree,
    ),
    "bc": (
        ParityDegreeVector,
        (count_bc_all, count_bc_containing, count_bc_containing_pair),
        count_bc_exact_degree,
    ),
}

ENSEMBLE = seeded_ensemble(per_size=4, sizes=range(2, 11))


def _star(m):
    """A hub c with leaves l1..lm, listed l1 first, so that the anchor pair
    (l1, lm) runs through the hub."""
    return parse_edge_list("".join(f"l{i} c\n" for i in range(1, m + 1)))


def _broom(handle, bristles):
    """A path h1..h<handle> with ``bristles`` leaves at its far end."""
    lines = [f"h{i} h{i + 1}\n" for i in range(1, handle)]
    lines += [f"h{handle} b{i}\n" for i in range(1, bristles + 1)]
    return parse_edge_list("".join(lines))


def _caterpillar(spine, legs):
    lines = [f"s{i} s{i + 1}\n" for i in range(1, spine)]
    lines += [f"s{i} s{i}l{j}\n" for i in range(1, spine + 1) for j in range(legs)]
    return parse_edge_list("".join(lines))


#: Hubs whose degree the cap may or may not reach, so a plain Tree mixes
#: product rows and full rows (see subtree_enum) in every mode.
SHAPES = [_star(2), _star(4), _star(7), _broom(5, 4), _broom(2, 6), _caterpillar(4, 2),
          _caterpillar(3, 3)]


def _anchor_choices(t):
    first, last = t.vertices[0], t.vertices[-1]
    return ((), (first,), (first, last))


def _unclamped(t, k, vector_type):
    return WeightedTree(t, {v: vector_type.initial(k) for v in t.vertices})


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_mode_on_a_tree_equals_its_unclamped_weighted_count(family):
    vector_type, modes, exact = FAMILIES[family]
    least = LEAST_K[family]
    for t in ENSEMBLE + SHAPES:
        for k in range(least, t.max_degree() + 3):
            full = _unclamped(t, k, vector_type)
            for anchors in _anchor_choices(t):
                count = modes[len(anchors)]
                assert count(t, k, *anchors) == count(full, k, *anchors), (t, k)
                if k > least:
                    assert exact(t, k, anchors) == exact(full, k, anchors), (t, k)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exact_degree_is_zero_above_the_maximum_degree(family):
    exact = FAMILIES[family][2]
    least = LEAST_K[family]
    for t in ENSEMBLE:
        top = t.max_degree()
        for anchors in _anchor_choices(t):
            for k in range(max(top, least) + 1, top + 4):
                assert exact(t, k, anchors) == ZERO, (t, k)
            assert exact(t, 10**9, anchors) == ZERO
            if top > least:
                expected = oracle_count(t, top, family, anchors) - oracle_count(
                    t, top - 1, family, anchors
                )
                assert exact(t, top, anchors) == expected, (t, anchors)


def test_exact_degree_checks_its_arguments_before_the_clamp():
    t = parse_edge_list("a b\nb c\n")
    for exact in (count_exact_degree, count_bc_exact_degree):
        with pytest.raises(UnknownVertex):
            exact(t, 10**9, ("zz",))


def test_rooted_parity_vectors_keep_length_k_plus_one():
    for t in ENSEMBLE:
        root = t.vertices[0]
        for k in range(t.max_degree() + 1, t.max_degree() + 4):
            vec = rooted_parity_vectors(t, k, root)
            assert len(vec.odd) == len(vec.even) == k + 1
            assert (vec.odd, vec.even) == rooted_parity_sums(t, k, root)
            full = _unclamped(t, k, ParityDegreeVector)
            assert vec == rooted_parity_vectors(full, k, root)


@pytest.mark.parametrize("command", ["subtrees", "bc"])
def test_a_huge_cap_counts_like_the_maximum_degree(capsys, tmp_path, command):
    t = ENSEMBLE[-1]
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("".join(f"{u} {v}\n" for u, v in t.edges))
    top = max(t.max_degree(), LEAST_K["bc" if command == "bc" else "subtree"])
    assert main([command, "--k", str(top), str(tree_file)]) == 0
    expected = capsys.readouterr().out
    tracemalloc.start()
    try:
        code = main([command, "--k", "1000000000", str(tree_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, expected)
    assert peak < 2**20


@pytest.mark.parametrize("family, limit", [("subtree", 3), ("bc", 6)])
def test_a_star_whose_cap_cannot_bind_folds_at_a_constant_cost(monkeypatch, family, limit):
    # Full rows would cost about m^2 products (1,640 and 3,280 here); product
    # rows cost a few per fold.
    vector_type, modes, _ = FAMILIES[family]
    m, calls = 40, []
    t = _star(m)
    expected = modes[0](_unclamped(t, m, vector_type), m)
    mul = BiPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counted)
    assert modes[0](t, m) == expected
    assert len(calls) <= limit * m
