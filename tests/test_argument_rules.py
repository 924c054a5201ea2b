"""Argument rules shared by the library, the oracle and the CLI.

Each family's least degree cap holds in every mode: counts of maximum
degree at most k accept k = least and reject k = least - 1 with KTooSmall;
counts of maximum degree exactly k need one more.  Every entry point
checks all its arguments before it builds anything; an unknown anchor
raises UnknownVertex in every mode.  Other bad arguments raise
InvalidArgument, never a bare TypeError.
"""

import pytest

from subtreecount import (
    BiPoly,
    DegreeVector,
    InvalidArgument,
    KTooSmall,
    LengthMismatch,
    ParityDegreeVector,
    TooLarge,
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
    random_tree,
    ratio_sweep,
    rooted_parity_sums,
    rooted_parity_vectors,
)
from subtreecount import oracle, tree
from subtreecount.bipoly import ONE, Y, Z, ZERO
from subtreecount.cli import main
from subtreecount.tree import LEAST_K

LEAST = {"subtree": 0, "bc": 2}

# A spider: c has degree 3, and a..c..e is a path of length 4.
SPIDER = "a b\nb c\nc d\nd e\nc f\n"
ANCHORS = ((), ("a",), ("a", "c"))

COUNTS = {
    "subtree": (count_all, count_containing, count_containing_pair),
    "bc": (count_bc_all, count_bc_containing, count_bc_containing_pair),
}
EXACT = {"subtree": count_exact_degree, "bc": count_bc_exact_degree}


def _count(t, k, family, anchors, exact):
    if exact:
        return EXACT[family](t, k, anchors)
    return COUNTS[family][len(anchors)](t, k, *anchors)


def _oracle(t, k, family, anchors, exact):
    count = oracle_count(t, k, family, anchors)
    return count - oracle_count(t, k - 1, family, anchors) if exact else count


def test_least_caps_are_the_papers():
    assert LEAST_K == LEAST


@pytest.mark.parametrize("family", sorted(LEAST))
@pytest.mark.parametrize("anchors", ANCHORS)
@pytest.mark.parametrize("exact", [False, True])
def test_every_mode_and_the_oracle_start_at_the_family_cap(family, anchors, exact):
    t = parse_edge_list(SPIDER)
    least = LEAST[family] + exact
    for count in (_count, _oracle):
        with pytest.raises(KTooSmall):
            count(t, least - 1, family, anchors, exact)
    assert _count(t, least, family, anchors, exact) == _oracle(
        t, least, family, anchors, exact
    )


def test_rooted_parity_vectors_start_at_the_bc_cap():
    t = parse_edge_list(SPIDER)
    least = LEAST["bc"]
    for rooted in (rooted_parity_vectors, rooted_parity_sums):
        with pytest.raises(KTooSmall):
            rooted(t, least - 1, "c")
    vec = rooted_parity_vectors(t, least, "c")
    assert (vec.odd, vec.even) == rooted_parity_sums(t, least, "c")


@pytest.mark.parametrize(
    "command", [["subtrees"], ["bc"], ["oracle", "--family", "subtree"],
                ["oracle", "--family", "bc"]]
)
def test_every_cli_count_starts_at_its_family_cap(capsys, tmp_path, command):
    tree_file = tmp_path / "spider.txt"
    tree_file.write_text(SPIDER)
    t = parse_edge_list(SPIDER)
    family = "bc" if "bc" in command else "subtree"
    for anchors in ANCHORS:
        contains = ["--contains", ",".join(anchors)] if anchors else []
        for exact in (False, True):
            least = LEAST[family] + exact
            flags = [*command, *contains, *(["--exact-degree"] if exact else [])]
            assert main([*flags, "--k", str(least - 1), str(tree_file)]) == 2, flags
            capsys.readouterr()
            assert main([*flags, "--k", str(least), str(tree_file)]) == 0, flags
            expected = _oracle(t, least, family, anchors, exact).eval_counts()
            assert capsys.readouterr().out == f"{expected}\n", flags


def test_a_string_of_anchors_is_rejected():
    # Split into characters, "bd" would silently count the pair (b, d).
    t = parse_edge_list("a b\nb c\nc d\n")
    for call in (
        lambda: count_exact_degree(t, 2, "bd"),
        lambda: count_bc_exact_degree(t, 3, "bd"),
        lambda: oracle_count(t, 2, "subtree", "bd"),
    ):
        with pytest.raises(InvalidArgument):
            call()


def test_non_int_arguments_raise_invalid_argument():
    t = parse_edge_list(SPIDER)
    for call in (
        lambda: count_all(t, 2.0),
        lambda: count_bc_all(t, "3"),
        lambda: count_exact_degree(t, 2.0),
        lambda: oracle_count(t, 2.5),
        lambda: rooted_parity_sums(t, 2.0, "c"),
        lambda: ratio_sweep(5, 1, 2.0, 0),
        lambda: ratio_sweep(5.0, 1, 2, 0),
        lambda: random_tree(3.0, 1),
    ):
        with pytest.raises(InvalidArgument):
            call()


#: Every entry point that takes anchors: its anchor counts and a call on
#: (tree, anchors) at its family's least cap (one more for exact degree).
ANCHORED = {
    "count_containing": ((1,), lambda t, a: count_containing(t, 0, *a)),
    "count_containing_pair": ((2,), lambda t, a: count_containing_pair(t, 0, *a)),
    "count_exact_degree": ((1, 2), lambda t, a: count_exact_degree(t, 1, a)),
    "count_bc_containing": ((1,), lambda t, a: count_bc_containing(t, 2, *a)),
    "count_bc_containing_pair": ((2,), lambda t, a: count_bc_containing_pair(t, 2, *a)),
    "count_bc_exact_degree": ((1, 2), lambda t, a: count_bc_exact_degree(t, 3, a)),
    "rooted_parity_vectors": ((1,), lambda t, a: rooted_parity_vectors(t, 2, *a)),
    "oracle_count-subtree": ((1, 2), lambda t, a: oracle_count(t, 0, "subtree", a)),
    "oracle_count-bc": ((1, 2), lambda t, a: oracle_count(t, 2, "bc", a)),
    "rooted_parity_sums": ((1,), lambda t, a: rooted_parity_sums(t, 2, *a)),
}

#: An unknown first or second anchor, and an anchor that is not a string.
BAD_ANCHORS = (
    (("zz",), UnknownVertex),
    (([1],), InvalidArgument),
    (("zz", "a"), UnknownVertex),
    (("a", "zz"), UnknownVertex),
    (([1], "a"), InvalidArgument),
    (("a", [1]), InvalidArgument),
)


@pytest.mark.parametrize("name", sorted(ANCHORED))
def test_every_entry_point_rejects_bad_anchors_before_any_work(monkeypatch, name):
    # The BC pair count 2-colours the tree by label, so an anchor that
    # reached it unchecked would fail there with a bare KeyError.
    arities, call = ANCHORED[name]
    t = parse_edge_list(SPIDER)
    assert call(t, ("a", "e")[: arities[0]]) is not None

    def built(*args, **kwargs):
        raise AssertionError(f"{name} built something before it checked its anchors")

    monkeypatch.setattr(tree.WeightedTree, "__init__", built)
    monkeypatch.setattr(oracle, "enumerate_connected_subtrees", built)
    oracle._default_weights_by_witness.cache_clear()
    for anchors, error in BAD_ANCHORS:
        if len(anchors) in arities:
            with pytest.raises(error):
                call(t, anchors)


def test_each_door_checks_k_then_anchors_then_weights():
    t = parse_edge_list(SPIDER)
    short = WeightedTree(t, {v: DegreeVector([Y]) for v in t.vertices})
    with pytest.raises(KTooSmall):
        count_containing_pair(short, -1, "zz", "a")
    with pytest.raises(UnknownVertex):
        count_containing_pair(short, 2, "zz", "a")
    with pytest.raises(LengthMismatch):
        count_containing_pair(short, 2, "a", "c")
    big = random_tree(15, 0)
    with pytest.raises(TooLarge):
        oracle_count(big, -1, "subtree", ("zz",))
    with pytest.raises(KTooSmall):
        oracle_count(t, 1, "bc", ("zz",))


def test_malformed_weights_raise_invalid_argument():
    t = parse_edge_list("a b\nb c\n")
    vectors = {v: DegreeVector([Y, ZERO, ZERO]) for v in t.vertices}
    for call in (
        lambda: DegreeVector([1, 0, 0]),
        lambda: DegreeVector([Y, 0]),
        lambda: ParityDegreeVector([1, 0, 0], [Y, ZERO, ZERO]),
        lambda: ParityDegreeVector([ONE, ZERO, ZERO], [Y, ZERO, "0"]),
        lambda: WeightedTree(t, vectors, {("a", "b"): 1, ("b", "c"): Z}),
        lambda: WeightedTree(t, vectors, {5: Z, ("b", "c"): Z}),
        lambda: WeightedTree(t, vectors, {("a", "b", "c"): Z, ("b", "c"): Z}),
        # Unpacked, "ab" would be read as the edge (a, b).
        lambda: WeightedTree(t, vectors, {"ab": Z, ("b", "c"): Z}),
        lambda: WeightedTree(t, vectors, {(1, "b"): Z, ("b", "c"): Z}),
        lambda: count_exact_degree(t, 2, 5),
    ):
        with pytest.raises(InvalidArgument):
            call()
    # A reversed pair still names its edge.
    weights = {("b", "a"): BiPoly.parse("2*z"), ("b", "c"): Z}
    assert count_all(WeightedTree(t, vectors, weights), 2) == BiPoly.parse(
        "3*y + 3*y^2*z + 2*y^3*z^2"
    )
