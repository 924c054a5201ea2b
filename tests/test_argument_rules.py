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
    SubtreeCountError,
    TooLarge,
    Tree,
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
    edge_key,
    enumerate_connected_subtrees,
    is_bc,
    oracle_count,
    parse_edge_list,
    random_tree,
    ratio_sweep,
    rooted_parity_sums,
    rooted_parity_vectors,
)
from subtreecount import bc_enum, experiments, oracle, tree
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


def test_non_int_arguments_raise_invalid_argument(tmp_path):
    t = parse_edge_list(SPIDER)
    weighted = WeightedTree(t, {v: DegreeVector([Y, ZERO]) for v in t.vertices})
    witness = enumerate_connected_subtrees(t)[-1]
    for call in (
        lambda: count_all(t, 2.0),
        lambda: count_bc_all(t, "3"),
        lambda: count_exact_degree(t, 2.0),
        lambda: oracle_count(t, 2.5),
        lambda: rooted_parity_sums(t, 2.0, "c"),
        lambda: ratio_sweep(5, 1, 2.0, 0),
        lambda: ratio_sweep(5.0, 1, 2, 0),
        lambda: random_tree(3.0, 1),
        lambda: DegreeVector.initial(2.0),
        lambda: ParityDegreeVector.initial(2.0),
        # Text, None or a list where a tree goes, and bytes where text goes.
        lambda: count_all("a b", 2),
        lambda: count_bc_all(None, 2),
        lambda: count_containing_pair([("a", "b")], 2, "a", "b"),
        lambda: oracle_count("a b", 2),
        lambda: rooted_parity_vectors("a b", 2, "a"),
        # Checked before the cache, which cannot hash a list.
        lambda: enumerate_connected_subtrees(None),
        lambda: enumerate_connected_subtrees([("a", "b")]),
        # None where the sequence or the edges go.
        lambda: tree.prufer_decode(None, 3),
        lambda: Tree(["a"], None),
        # Split into characters, "ab" would silently be read as the labels a and b.
        lambda: Tree("ab", [("a", "b")]),
        lambda: WeightedTree("ab", {}),
        lambda: tree.render_edge_list("a b"),
        lambda: parse_edge_list(None),
        lambda: parse_edge_list(b"a b\n"),
        # Labels that cannot name a vertex: unhashable, or not comparable
        # with the other end of an edge.  Each raised a bare TypeError.
        lambda: t.neighbors([1]),
        lambda: t.degree([1]),
        lambda: weighted.vector([1]),
        lambda: weighted.edge_weight(1, "b"),
        lambda: weighted.edge_weight([1], [2]),
        lambda: edge_key(1, "a"),
        # A string k or j at the oracle's witness weights raised a bare
        # TypeError; None, an int or an iterable of them where a witness, a
        # BiPoly or a RatioRecord goes, a bare AttributeError or TypeError.
        lambda: oracle.subtree_weight(witness, "2"),
        lambda: oracle.bc_subtree_weight(witness, "2"),
        lambda: oracle.rooted_parity_weight(witness, "b", 2, "1", "odd"),
        lambda: is_bc(None),
        # None where a witness goes, and a Tree, a dict or the other
        # family's vectors where the weights go: each a bare AttributeError.
        lambda: oracle.subtree_weight(None, 2),
        lambda: oracle.bc_subtree_weight(None, 2),
        lambda: oracle.subtree_weight(witness, 2, weights=t),
        lambda: oracle.bc_subtree_weight(witness, 2, weights=t),
        lambda: oracle.rooted_parity_weight(witness, "a", 2, 1, "odd", weights={}),
        lambda: oracle.bc_subtree_weight(witness, 2, weights=weighted),
        lambda: BiPoly.sum([Y, 3]),
        lambda: BiPoly.sum(None),
        lambda: experiments.mean_ratios([1]),
        lambda: experiments.emit_csv([1], tmp_path / "ratios.csv"),
        # An unknown family: the family table read it as "subtree".
        lambda: bc_enum._family("xx"),
        lambda: oracle_count(t, 2, "xx"),
        lambda: oracle_count(weighted, 1, "xx"),
    ):
        with pytest.raises(InvalidArgument):
            call()
    assert not list(tmp_path.iterdir())  # refused before any file was opened


def test_label_lookups_refuse_labels_that_name_no_vertex():
    t = parse_edge_list(SPIDER)
    weighted = WeightedTree(t, {v: DegreeVector([Y, ZERO]) for v in t.vertices})
    for call in (
        lambda: t.neighbors("zz"),
        lambda: t.degree("zz"),
        lambda: weighted.vector("zz"),
        lambda: weighted.edge_weight("a", "c"),  # two vertices, but no edge
        lambda: weighted.edge_weight("a", "zz"),
    ):
        with pytest.raises(UnknownVertex):
            call()
    assert "zz" not in t and [1] not in t and "a" in t


#: Python counts a bool as an int, so each of these calls counted at
#: k = 1, built a tree on a vertex labelled True or a polynomial whose
#: text and JSON do not read back, before bools were refused.
BOOL_ARGUMENTS = {
    "count_all-k": lambda t: count_all(t, True),
    "count_containing-k": lambda t: count_containing(t, True, "a"),
    "oracle_count-k": lambda t: oracle_count(t, True),
    "ratio_sweep-k_max": lambda t: ratio_sweep(5, 1, True, 0),
    "ratio_sweep-samples": lambda t: ratio_sweep(5, True, 2, 0),
    "random_tree-n": lambda t: random_tree(True, 0),
    "prufer_decode-entry": lambda t: tree.prufer_decode([True, 0], 4),
    "BiPoly-coefficient": lambda t: BiPoly({(1, 0): True}),
    "BiPoly-exponent": lambda t: BiPoly({(True, 0): 1}),
    "BiPoly.monomial-exponent": lambda t: BiPoly.monomial(1, 0, False),
}


@pytest.mark.parametrize("case", sorted(BOOL_ARGUMENTS))
def test_a_bool_is_not_an_int_at_any_door(case):
    with pytest.raises(InvalidArgument):
        BOOL_ARGUMENTS[case](parse_edge_list(SPIDER))


@pytest.mark.parametrize("seed", [None, True, 1.5, "7", [1]])
def test_random_trees_and_sweeps_take_only_int_seeds(seed):
    # None would draw from system entropy, so two calls would differ.
    for call in (
        lambda: random_tree(6, seed),
        lambda: random_tree(1, seed),
        lambda: ratio_sweep(5, 1, 2, seed),
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


def _degree_tree(t, entries):
    return WeightedTree(t, {v: DegreeVector(entries) for v in t.vertices})


def _parity_tree(t, odd, even):
    return WeightedTree(t, {v: ParityDegreeVector(odd, even) for v in t.vertices})


def _oracle_pair(t, k, *anchors):
    return oracle_count(t, k, "subtree", anchors)


def test_each_door_checks_k_then_anchors_then_weights():
    # The oracle's doors check the tree's size before all of these.
    t = parse_edge_list(SPIDER)
    short = _degree_tree(t, [Y])
    for count in (count_containing_pair, _oracle_pair):
        with pytest.raises(KTooSmall):
            count(short, -1, "zz", "a")
        with pytest.raises(UnknownVertex):
            count(short, 2, "zz", "a")
        with pytest.raises(LengthMismatch):
            count(short, 2, "a", "c")
    short_parity = _parity_tree(t, [ONE], [Y])
    with pytest.raises(KTooSmall):
        rooted_parity_sums(short_parity, 1, "zz")
    with pytest.raises(UnknownVertex):
        rooted_parity_sums(short_parity, 2, "zz")
    with pytest.raises(LengthMismatch):
        rooted_parity_sums(short_parity, 2, "a")
    big = random_tree(15, 0)
    big_short = _degree_tree(big, [Y])
    for tree_or_weighted in (big, big_short):
        with pytest.raises(TooLarge):
            oracle_count(tree_or_weighted, -1, "subtree", ("zz",))
        with pytest.raises(TooLarge):
            rooted_parity_sums(tree_or_weighted, -1, "zz")
    with pytest.raises(TooLarge):
        enumerate_connected_subtrees(big)
    with pytest.raises(KTooSmall):
        oracle_count(t, 1, "bc", ("zz",))


#: Custom weights the oracle used to take as raw mappings, unchecked, each
#: rebuilt as a WeightedTree on the path a-b-c, and the error each raises.
BAD_ORACLE_WEIGHTS = {
    "int entries": (lambda t: oracle_count(_degree_tree(t, [1, 0, 0]), 2), InvalidArgument),
    "edge key 'ab'": (
        lambda t: oracle_count(
            WeightedTree(t, {v: DegreeVector([Y, ZERO, ZERO]) for v in t.vertices},
                         {"ab": Z, ("b", "c"): Z}),
            2,
        ),
        InvalidArgument,
    ),
    "a missing vertex": (
        lambda t: oracle_count(WeightedTree(t, {"a": DegreeVector([Y, ZERO, ZERO])}), 2),
        InvalidArgument,
    ),
    "int entries, rooted": (
        lambda t: rooted_parity_sums(_parity_tree(t, [1, 0, 0], [1, 0, 0]), 2, "a"),
        InvalidArgument,
    ),
    "degree vectors for bc": (
        lambda t: oracle_count(_degree_tree(t, [Y, ZERO, ZERO]), 2, "bc"),
        LengthMismatch,
    ),
    "degree vectors, rooted": (
        lambda t: rooted_parity_sums(_degree_tree(t, [Y, ZERO, ZERO]), 2, "a"),
        LengthMismatch,
    ),
    "wrong length": (lambda t: oracle_count(_degree_tree(t, [Y, ZERO]), 2), LengthMismatch),
    "wrong length, rooted": (
        lambda t: rooted_parity_sums(_parity_tree(t, [ONE], [Y]), 2, "a"),
        LengthMismatch,
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ORACLE_WEIGHTS))
def test_the_oracle_checks_custom_weights_as_the_counts_do(case):
    call, error = BAD_ORACLE_WEIGHTS[case]
    with pytest.raises(error) as raised:
        call(parse_edge_list("a b\nb c\n"))
    assert isinstance(raised.value, SubtreeCountError)


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
        # A negative cap made a one-entry row; a finished that is no
        # function failed partway through the contraction.
        lambda: DegreeVector.initial(-1),
        lambda: ParityDegreeVector.initial(-1),
        lambda: rooted_parity_vectors(t, 2, "a", finished=1),
        # None where the entries or the vertex weights go, and edge weights
        # as a list of pairs, not a mapping.
        lambda: DegreeVector(None),
        lambda: ParityDegreeVector(None, None),
        lambda: WeightedTree(t, None),
        lambda: WeightedTree(t, vectors, [(("a", "b"), Z), (("b", "c"), Z)]),
    ):
        with pytest.raises(InvalidArgument):
            call()
    with pytest.raises(LengthMismatch, match="a degree vector needs at least one entry"):
        DegreeVector([])
    # A reversed pair still names its edge.
    weights = {("b", "a"): BiPoly.parse("2*z"), ("b", "c"): Z}
    assert count_all(WeightedTree(t, vectors, weights), 2) == BiPoly.parse(
        "3*y + 3*y^2*z + 2*y^3*z^2"
    )


#: Each count through the door, and its oracle reference at the limit.
SIZED_COUNTS = {
    "count_all": (count_all, oracle_count),
    "count_bc_all": (count_bc_all, lambda t, k: oracle_count(t, k, "bc")),
    "rooted_parity_vectors": (
        lambda t, k: rooted_parity_vectors(t, k, t.vertices[0]),
        lambda t, k: ParityDegreeVector(*rooted_parity_sums(t, k, t.vertices[0])),
    ),
}


@pytest.mark.parametrize("name", sorted(SIZED_COUNTS))
def test_counts_refuse_trees_over_the_vertex_bound(monkeypatch, name):
    count, reference = SIZED_COUNTS[name]
    over, at = random_tree(8, 3), random_tree(7, 3)  # random_tree checks n too
    monkeypatch.setattr(tree, "MAX_VERTICES", 7)
    with pytest.raises(TooLarge):
        count(over, 3)
    with pytest.raises(TooLarge):  # before k is checked
        count(over, -1)
    assert count(at, 3) == reference(at, 3)


#: The rooted calls, which pad a plain Tree's rows to k + 1 entries.
ROOTED_ROWS = {
    "rooted_parity_vectors": lambda t, k: rooted_parity_vectors(t, k, t.vertices[0]),
    "rooted_parity_sums": lambda t, k: ParityDegreeVector(*rooted_parity_sums(t, k, t.vertices[0])),
}


@pytest.mark.parametrize("name", sorted(ROOTED_ROWS))
def test_rooted_rows_refuse_k_over_the_vertex_bound(name):
    rows = ROOTED_ROWS[name]
    t = random_tree(8, 3)
    with pytest.raises(TooLarge):
        rows(t, tree.MAX_VERTICES + 1)
    # No degree of an 8-vertex tree exceeds 7: the rest of each row is padding.
    vec, short = rows(t, tree.MAX_VERTICES), rows(t, 7)
    pad = (ZERO,) * (tree.MAX_VERTICES - 7)
    assert (vec.odd, vec.even) == (short.odd + pad, short.even + pad)


def test_starting_rows_refuse_k_over_the_vertex_bound():
    for vector_type in (DegreeVector, ParityDegreeVector):
        with pytest.raises(TooLarge):
            vector_type.initial(tree.MAX_VERTICES + 1)
        assert len(vector_type.initial(tree.MAX_VERTICES)) == tree.MAX_VERTICES + 1


def test_cli_refuses_trees_over_the_vertex_bound(capsys, monkeypatch, tmp_path):
    for n in (8, 7):  # written before the bound drops, since random_tree checks n too
        path = tmp_path / f"n{n}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in random_tree(n, 3).edges))
    monkeypatch.setattr(tree, "MAX_VERTICES", 7)
    for n, expected in ((8, None), (7, oracle_count(random_tree(7, 3), 3, "bc"))):
        path = tmp_path / f"n{n}.txt"
        code = main(["bc", "--k", "3", str(path)])
        out, err = capsys.readouterr()
        if expected is None:
            assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert (code, out, err) == (0, f"{expected.eval_counts()}\n", "")


def test_random_trees_refuse_n_over_the_vertex_bound(capsys, monkeypatch):
    monkeypatch.setattr(tree, "MAX_VERTICES", 7)
    with pytest.raises(TooLarge):
        random_tree(8, 0)
    assert len(random_tree(7, 0).vertices) == 7
    code = main(["random-tree", "--n", "8", "--seed", "0"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(TooLarge):
        ratio_sweep(8, 2, 3, 0)
