"""Counts in plain ints: the fold run from the unit weights 1 in place of y
and z, where no generating function is asked for (the density sweep's
shared contraction and the CLI's count commands)."""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subtreecount as sc
from subtreecount import (
    BiPoly, DegreeVector, InvalidArgument, NegativeCoefficient, ParityDegreeVector, WeightedTree, Z,
    bc_enum, cli, oracle_count, subtree_enum,
)
from subtreecount.cli import main
from subtreecount.experiments import _shared_counts
from subtreecount.tree import least_k

from conftest import (
    _capped_subtrees_by_size,
    bc_subtrees_at,
    capped_subtrees_at,
    seeded_ensemble,
    sweep_trees,
)

#: Each family's counts with zero, one and two anchors, then its exact-degree count.
COUNTS = {
    "subtree": (sc.count_all, sc.count_containing, sc.count_containing_pair,
                sc.count_exact_degree),
    "bc": (sc.count_bc_all, sc.count_bc_containing, sc.count_bc_containing_pair,
           sc.count_bc_exact_degree),
}


def cli_count(family, t, k, anchors=(), exact=False):
    """What the CLI's count command computes, without the text round trip."""
    args = argparse.Namespace(
        command="bc" if family == "bc" else "subtrees", family=family, k=k,
        contains=",".join(anchors) or None, genfun=False, exact_degree=exact,
    )
    return cli._count_poly(args, t)


@given(sweep_trees(), st.data())
@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
def test_int_counts_equal_the_evaluated_generating_functions(t, data):
    # Every mode of both families, at a cap from the family's least to one
    # past the maximum degree, so it both binds and clamps; up to 10
    # vertices the oracle must agree too.
    vertices = t.vertices
    a = data.draw(st.sampled_from(vertices), label="a")
    b = data.draw(st.sampled_from([v for v in vertices if v != a] or [None]), label="b")
    anchor_sets = [(), (a,)] + ([(a, b)] if b is not None else [])
    for family, counts in COUNTS.items():
        lo = least_k(family)
        k = data.draw(st.integers(lo, max(t.max_degree(), lo) + 1), label=f"k ({family})")
        for anchors in anchor_sets:
            count = counts[len(anchors)]
            got = cli_count(family, t, k, anchors)
            assert type(got) is int
            assert got == count(t, k, *anchors).eval_counts(), (family, k, anchors)
            exact_k = max(k, lo + 1)
            exact = cli_count(family, t, exact_k, anchors, exact=True)
            assert type(exact) is int
            assert exact == counts[3](t, exact_k, anchors).eval_counts(), (family, anchors)
            if len(vertices) <= 10:
                assert got == oracle_count(t, k, family, anchors).eval_counts()
                below = oracle_count(t, exact_k - 1, family, anchors).eval_counts()
                assert exact == oracle_count(t, exact_k, family, anchors).eval_counts() - below


def _spider(legs):
    """A hub h with one leg (a path) of each length in ``legs``."""
    edges = []
    for i, length in enumerate(legs):
        path = ["h"] + [f"l{i}_{j}" for j in range(length)]
        edges += zip(path, path[1:])
    return sc.Tree(["h"] + [v for _, v in edges], edges)


def test_ints_build_no_bipoly(monkeypatch, tmp_path, capsys):
    # The sweep's shared contraction and the CLI's count commands, in every
    # mode, make no BiPoly sum, product or difference; a --genfun count,
    # the control, makes many.
    calls = []
    for name in ("__mul__", "__add__", "__sub__"):
        original = getattr(BiPoly, name)
        monkeypatch.setattr(
            BiPoly, name, lambda self, other, _f=original, _n=name: calls.append(_n) or _f(self, other)
        )
    original_sum = BiPoly.sum
    monkeypatch.setattr(BiPoly, "sum", staticmethod(lambda items: calls.append("sum") or original_sum(items)))
    spider = _spider([1, 2, 3, 1, 2, 1])
    tree_file = tmp_path / "spider.txt"
    tree_file.write_text("".join(f"{u} {v}\n" for u, v in spider.edges))
    for family in ("subtree", "bc"):
        assert len(_shared_counts(spider, range(3, 7), family)) == 4
    for command in ("subtrees", "bc"):
        for extra in ([], ["--contains", "h"], ["--contains", "l0_0,l2_2"], ["--exact-degree"],
                      ["--exact-degree", "--contains", "l1_1"]):
            assert main([command, "--k", "3", *extra, str(tree_file)]) == 0
    assert calls == []
    assert main(["bc", "--k", "3", "--genfun", str(tree_file)]) == 0
    assert "__mul__" in calls and "sum" in calls
    capsys.readouterr()


@pytest.mark.parametrize("family, module, name", [
    ("subtree", subtree_enum, "count_all"),
    ("bc", bc_enum, "count_bc_all"),
])
def test_exact_degree_refuses_a_larger_lower_count_in_both_rings(
    monkeypatch, tmp_path, capsys, family, module, name
):
    # Cap k counts whatever cap k - 1 counts, so the difference is never
    # negative; a cap-(k - 1) count made larger must raise in the int ring
    # as BiPoly.__sub__ does, and the CLI exits 2 either way.
    t = sc.random_tree(12, 4)
    k = least_k(family) + 1
    count = getattr(module, name)
    extra = {"subtree": BiPoly.parse("y"), "bc": BiPoly.parse("y^2*z^2")}[family]

    def inflated(wt, cap):
        got = count(wt, cap)
        if cap < k:
            return got + (10**6 if type(got) is int else extra)
        return got

    monkeypatch.setattr(module, name, inflated)
    with pytest.raises(NegativeCoefficient):
        subtree_enum.exact_degree(
            bc_enum._family(family)[1], t, k, (), bc_enum._family(family)[0], (1, 1)
        )
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("".join(f"{u} {v}\n" for u, v in t.edges))
    command = "bc" if family == "bc" else "subtrees"
    for genfun in ([], ["--genfun"]):
        capsys.readouterr()
        assert main([command, "--k", str(k), "--exact-degree", *genfun, str(tree_file)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_int_starting_rows_count_as_their_tree_and_refuse_other_weights():
    # ``initial`` with the weight 1 builds integer rows, whose tree's edges
    # default to 1: they count what the door's integer rows count, in every
    # mode, the exact degree's truncated rows too.  A BiPoly edge weight on
    # them, or rows of both rings in one tree, is refused.
    t = sc.random_tree(10, 8)
    a, b = t.vertices[:2]
    for family, vector_type in (("subtree", DegreeVector), ("bc", ParityDegreeVector)):
        counts, k = COUNTS[family], 3
        ints = WeightedTree(t, dict.fromkeys(t.vertices, vector_type.initial(k, 1)))
        for anchors in ((), (a,), (a, b)):
            assert counts[len(anchors)](ints, k, *anchors) == cli_count(family, t, k, anchors)
            assert counts[3](ints, k, anchors) == cli_count(family, t, k, anchors, exact=True)
        rows = ints._vertex_weights
        with pytest.raises(InvalidArgument):
            WeightedTree(t, rows, dict.fromkeys(t.edges, Z))
        mixed = WeightedTree(t, {**rows, a: vector_type.initial(k)})
        with pytest.raises(InvalidArgument):
            counts[0](mixed, k)


def test_the_sizes_free_dp_matches_the_dp_by_size():
    # capped_subtrees_at checks the CLI at 10,000 vertices, where the DP by
    # size cannot run; here the two must agree, at y = z = 1 and at (2, 3).
    for t in seeded_ensemble(per_size=4, sizes=range(1, 12)):
        for k in range(0, 5):
            by_size = _capped_subtrees_by_size(t, k)
            assert capped_subtrees_at(t, k, 1, 1) == sum(by_size.values())
            assert capped_subtrees_at(t, k, 2, 3) == sum(c * 2**a * 3 ** (a - 1) for a, c in by_size.items())


def test_the_cli_counts_10000_vertices_as_the_independent_dps_do(tmp_path, capsys):
    # A random tree at the door's vertex bound, counted through cli.main in
    # plain ints and by the test suite's own integer DPs.
    t = sc.random_tree(10_000, 34)
    tree_file = tmp_path / "big.txt"
    tree_file.write_text(sc.render_edge_list(t))
    for k in (3, 8):
        for command, expected in (("subtrees", capped_subtrees_at(t, k, 1, 1)),
                                  ("bc", bc_subtrees_at(t, k, 1, 1))):
            capsys.readouterr()
            assert main([command, "--k", str(k), str(tree_file)]) == 0
            assert capsys.readouterr().out == f"{expected}\n", (command, k)
