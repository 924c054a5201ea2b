import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtreecount import (
    InvalidArgument,
    NotATree,
    ParseError,
    SameVertex,
    SubtreeCountError,
    Tree,
    UnknownVertex,
    WeightedTree,
    Z,
    DegreeVector,
    count_all,
    count_bc_all,
    count_bc_containing,
    count_bc_containing_pair,
    count_bc_exact_degree,
    count_containing,
    count_containing_pair,
    count_exact_degree,
    parse_edge_list,
    prufer_decode,
    random_tree,
    render_edge_list,
    rooted_parity_vectors,
)

from subtreecount.subtree_enum import _contract

from conftest import (
    elimination_order,
    reference_elimination,
    reference_parse,
    reference_tree,
    seeded_ensemble,
    split,
)


def test_parse_path():
    t = parse_edge_list("a b\nb c")
    assert t.vertices == ("a", "b", "c")
    assert set(t.edges) == {("a", "b"), ("b", "c")}


def test_parse_star_with_comments_and_blanks():
    t = parse_edge_list("# a star\n\nc l1\nc l2\n  c l3  \n")
    assert t.degree("c") == 3


def test_parse_single_vertex():
    t = parse_edge_list("solo\n")
    assert t.vertices == ("solo",)
    assert t.edges == ()


def test_parse_rejects_cycle():
    with pytest.raises(NotATree):
        parse_edge_list("a b\nb c\nc a")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(NotATree):
        parse_edge_list("a b\nb a")


def test_parse_rejects_disconnected():
    with pytest.raises(NotATree):
        parse_edge_list("a b\nc d")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_edge_list("a b c")
    with pytest.raises(ParseError):
        parse_edge_list("a b\nc")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("# only a comment")


@pytest.mark.parametrize("separator", ["\x1c", "\x85", "\u2028", "\x0c"])
def test_parse_ends_lines_at_newlines_only(separator):
    # str.splitlines would break line 2 here and report it as line 3.
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list(f"a b\nb c{separator}c d d\n")


def test_parse_takes_crlf_line_ends_and_tab_separated_pairs():
    expected = parse_edge_list("a b\nb c\nc d\n")
    assert parse_edge_list("a b\r\nb\tc\r\n \t c \t\td\t\r\n") == expected
    assert parse_edge_list("a\r\n").vertices == ("a",)


def test_constructor_rejects_self_loop_and_bad_counts():
    with pytest.raises(NotATree):
        Tree(["a"], [("a", "a")])
    with pytest.raises(NotATree):
        Tree(["a", "b"], [])
    with pytest.raises(NotATree):
        Tree(["a", "b"], [("a", "c")])
    # n - 1 edges, so only the walk from the first vertex finds "d" unreached.
    with pytest.raises(NotATree, match="edge list is disconnected"):
        Tree(list("abcd"), [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotATree, match="a tree needs at least one vertex"):
        Tree([], [])
    with pytest.raises(NotATree, match="duplicate vertex label"):
        Tree(["a", "a"], [])
    with pytest.raises(ParseError, match="vertex label must be a non-empty string"):
        Tree([1], [])


@pytest.mark.parametrize(
    "edge",
    # Unpacked, the string "ab" would be read as the edge (a, b).
    [("a", "b", "c"), ("a",), 5, (["a"], "b"), "ab"],
    ids=["triple", "single", "int", "unhashable", "string"],
)
def test_constructor_rejects_an_edge_that_is_not_a_pair_of_labels(edge):
    with pytest.raises(NotATree):
        Tree(["a", "b"], [edge])


def test_render_parse_round_trip():
    for n, seed in [(1, 5), (2, 5), (7, 11), (12, 3)]:
        t = random_tree(n, seed)
        assert parse_edge_list(render_edge_list(t)) == t


def test_pendant_vertices_order(path3, star3):
    assert path3.pendant_vertices() == ["a", "c"]
    assert star3.pendant_vertices() == ["l1", "l2", "l3"]
    assert parse_edge_list("a").pendant_vertices() == []


def test_path_between(path3, star3):
    assert path3.path_between("a", "c") == ["a", "b", "c"]
    assert star3.path_between("l1", "l2") == ["l1", "c", "l2"]
    with pytest.raises(SameVertex):
        path3.path_between("a", "a")
    with pytest.raises(UnknownVertex):
        path3.path_between("a", "nope")


def test_split(path3):
    left, right = split(path3, "b", "a")
    assert set(left.vertices) == {"b", "c"}
    assert right.vertices == ("a",)
    with pytest.raises(UnknownVertex):
        split(path3, "a", "c")


def test_prufer_decode_star():
    # the all-ones sequence decodes to the star centred on that vertex
    assert set(prufer_decode([0, 0], 4)) == {(1, 0), (2, 0), (0, 3)}


def test_generators_reject_bad_arguments():
    # An entry outside 0..n-1 would index the degree table from its end
    # (-1) or past it (7), or not at all ("0").
    for call in (lambda: prufer_decode([], 1), lambda: prufer_decode([0], 4),
                 lambda: prufer_decode([-1], 3), lambda: prufer_decode([7], 3),
                 lambda: prufer_decode(["0"], 3), lambda: random_tree(0, 1)):
        with pytest.raises(InvalidArgument) as raised:
            call()
        assert isinstance(raised.value, SubtreeCountError)
        assert isinstance(raised.value, ValueError)


def test_random_tree_small_cases():
    assert random_tree(1, 99).vertices == ("v1",)
    t2 = random_tree(2, 99)
    assert set(t2.edges) == {("v1", "v2")}


def test_random_tree_is_deterministic():
    assert random_tree(9, 1234) == random_tree(9, 1234)
    assert random_tree(9, 1234) != random_tree(9, 1235)


def test_random_tree_degree_sums():
    for seed in range(20):
        t = random_tree(13, seed)
        assert sum(t.degree(v) for v in t.vertices) == 2 * 12


def test_random_tree_roughly_uniform():
    # 16 labeled trees on 4 vertices; 3200 draws should hit each ~200 times
    counts = Counter(frozenset(random_tree(4, seed).edges) for seed in range(3200))
    assert len(counts) == 16
    assert all(120 < c < 280 for c in counts.values()), counts


def _default_weighted(t):
    k = 2
    return WeightedTree(t, {v: DegreeVector.initial(k) for v in t.vertices})


def test_weighted_tree_default_edge_weight(path3):
    wt = _default_weighted(path3)
    assert wt.edge_weight("a", "b") == Z
    assert wt.edge_weight("b", "a") == Z


def test_weighted_tree_requires_full_coverage(path3):
    with pytest.raises(ValueError) as raised:
        WeightedTree(path3, {"a": DegreeVector.initial(2)})
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:
        WeightedTree(
            path3,
            {v: DegreeVector.initial(2) for v in path3.vertices},
            {("a", "b"): Z},
        )
    assert isinstance(raised.value, SubtreeCountError)


def _eliminate(t, keep=()):
    """The vertices ``Tree._elimination`` folds away from ``t``, in order,
    and the survivors."""
    eliminated = elimination_order(t, keep)
    return eliminated, [v for v in t.vertices if v not in eliminated]


def test_contract_with_empty_keep_folds_n_minus_1_times():
    for n, seed in [(1, 3), (2, 3), (9, 77), (14, 5)]:
        eliminated, survivors = _eliminate(random_tree(n, seed))
        assert len(eliminated) == n - 1
        assert len(survivors) == 1
        assert set(eliminated) | set(survivors) == set(random_tree(n, seed).vertices)


def _centroid_cases():
    """Random trees, paths, stars and brooms (a path with a star at one end),
    each with vertices in two orders, so the walk starts at either end."""
    trees = [random_tree(n, 3000 + n) for n in range(1, 41)]
    for n in (2, 3, 4, 7, 10, 31):
        trees.append(Tree([f"p{i:02d}" for i in range(n)],
                          [(f"p{i:02d}", f"p{i + 1:02d}") for i in range(n - 1)]))
        trees.append(Tree(["c"] + [f"l{i}" for i in range(n - 1)],
                          [("c", f"l{i}") for i in range(n - 1)]))
        for handle in (1, n // 2, n - 2):
            spokes = n - 1 - handle
            edges = [(f"h{i}", f"h{i + 1}") for i in range(handle)]
            edges += [(f"h{handle}", f"b{i}") for i in range(spokes)]
            trees.append(Tree([f"h{i}" for i in range(handle + 1)]
                              + [f"b{i}" for i in range(spokes)], edges))
    return trees + [Tree(t.vertices[::-1], t.edges) for t in trees]


def test_centroid_splits_the_tree_into_halves():
    for t in _centroid_cases():
        c, n = t.centroid(), len(t.vertices)
        assert c in t
        for start in t.neighbors(c):  # the component c's removal leaves here
            seen, stack = {c, start}, [start]
            while stack:
                for w in t.neighbors(stack.pop()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert 2 * (len(seen) - 1) <= n, (t.edges, c)
        assert t.centroid() is c


def test_contract_with_empty_keep_keeps_the_centroid():
    for t in _centroid_cases():
        _, survivors = _eliminate(t)
        assert list(survivors) == [t.centroid()]
    path = Tree([f"p{i:04d}" for i in range(1000)],
                [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(999)])
    assert path.centroid() in ("p0499", "p0500")


def test_contract_keeps_every_vertex_in_keep():
    rng = random.Random(41)
    for i in range(20):
        t = random_tree(rng.randint(2, 12), 900 + i)
        for size in (1, 2):
            keep = frozenset(rng.sample(t.vertices, size))
            _, survivors = _eliminate(t, keep)
            assert keep <= set(survivors)
            if size == 2:
                assert set(survivors) == set(t.path_between(*sorted(keep)))


def test_contract_folds_smallest_pendant_by_default(path5):
    eliminated, _ = _eliminate(path5, ["m"])
    assert eliminated == ["a", "b", "e", "d"]


def test_contract_leaves_input_unchanged():
    t = random_tree(10, 12)
    k = 3
    wt = WeightedTree(t, {v: DegreeVector.initial(k) for v in t.vertices})
    before = {v: wt.vector(v) for v in t.vertices}
    survivors = _contract(wt, k, frozenset())
    assert wt.tree == t
    assert {v: wt.vector(v) for v in t.vertices} == before
    assert all(wt.edge_weight(*e) == Z for e in t.edges)
    (last,) = survivors.values()
    assert last != before[next(iter(survivors))]


def test_counting_modes_build_no_tree(monkeypatch):
    t = random_tree(200, 2024)
    a, b = t.vertices[0], t.vertices[-1]
    built = []
    original = Tree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tree, "__init__", counting_init)
    count_all(t, 3)
    count_containing(t, 3, a)
    count_containing_pair(t, 3, a, b)
    count_exact_degree(t, 3)
    rooted_parity_vectors(t, 3, a)
    count_bc_all(t, 3)
    count_bc_containing(t, 3, a)
    count_bc_containing_pair(t, 3, a, b)
    count_bc_exact_degree(t, 3)
    assert built == []


def test_a_tree_walks_itself_once(monkeypatch):
    # The walk that checks connectivity also gives the centroid and the
    # 2-colouring of every BC count.
    walks = []
    original = Tree._walk

    def counting_walk(self, root):
        walks.append(root)
        return original(self, root)

    monkeypatch.setattr(Tree, "_walk", counting_walk)
    t = random_tree(60, 7)
    mid = t.vertices[len(t.vertices) // 2]
    t.centroid()
    count_bc_all(t, 3)
    count_bc_containing(t, 3, mid)
    count_bc_exact_degree(t, 3)
    count_bc_exact_degree(t, 3, (mid,))
    assert walks == [t.vertices[0]]


def _outcome(build, *args):
    """What ``build(*args)`` gives: the tree's vertices and edges, or the
    type and message of the error it raises."""
    try:
        t = build(*args)
    except SubtreeCountError as e:
        return type(e), str(e)
    return (t.vertices, t.edges) if isinstance(t, Tree) else t


#: Labels, and labels that hold one of '#', a space, a tab, NUL, CR, U+2028
#: or U+0085, or are empty or no str at all.
GOOD_LABELS = st.text(alphabet="abcxyz\u00e9", min_size=1, max_size=3)
ODD_LABELS = st.one_of(
    st.builds(lambda label, bad, i: label[:i] + bad + label[i:],
              GOOD_LABELS, st.sampled_from("# \t\x00\r\u2028\x85"), st.integers(0, 3)),
    st.sampled_from(["", None, 7, b"a", ("a",), ["a"]]),
)
ODD_TEXT_LABELS = ODD_LABELS.filter(lambda label: isinstance(label, str))


def _labels(data, odd=ODD_LABELS):
    """Good labels, up to two of which are then replaced by ``odd`` ones."""
    labels = data.draw(st.lists(GOOD_LABELS, min_size=1, max_size=8), label="labels")
    for _ in range(data.draw(st.integers(0, 2))):
        labels[data.draw(st.integers(0, len(labels) - 1))] = data.draw(odd)
    return labels


def _edges_over(data, labels):
    """A tree's edges over ``labels`` (each label's parent drawn among the
    earlier ones), in a drawn order, then perhaps broken: an edge dropped,
    duplicated, reversed or added, a self-loop, or a str or triple in place
    of a pair."""
    edges = [(labels[data.draw(st.integers(0, i - 1))], labels[i]) for i in range(1, len(labels))]
    edges = data.draw(st.permutations(edges))
    pool = list(labels) + ["zz"]
    change = data.draw(st.sampled_from(["none", "none", "drop", "twice", "add", "loop", "odd"]))
    if change == "drop" and edges:
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    elif change == "twice" and edges:
        u, v = data.draw(st.sampled_from(edges))
        edges.append(data.draw(st.sampled_from([(u, v), (v, u)])))
    elif change == "add":
        edges.append((data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))))
    elif change == "loop":
        label = data.draw(st.sampled_from(pool))
        edges.append((label, label))
    elif change == "odd":
        edges.append(data.draw(st.sampled_from(["ab", ("a", "b", "c"), ("a",), 5, None])))
    return edges


@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
@given(st.data())
def test_tree_checks_labels_and_edges_as_the_per_label_reference(data):
    labels = _labels(data)
    edges = _edges_over(data, labels)
    assert _outcome(Tree, labels, edges) == _outcome(reference_tree, labels, edges)


@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
@given(st.data())
def test_parse_matches_the_two_pass_reference(data):
    labels = _labels(data, ODD_TEXT_LABELS)
    lines = [list(e) if isinstance(e, tuple) else [str(e)] for e in _edges_over(data, labels)]
    lines = lines or [labels]
    extra = st.lists(st.one_of(GOOD_LABELS, ODD_TEXT_LABELS), max_size=3)
    lines += data.draw(st.lists(extra, max_size=1), label="extra")
    gaps, pairs = st.sampled_from(["", " ", "\t", " \t "]), st.sampled_from([" ", "\t", "  "])
    ends = st.sampled_from(["\n", "\r\n", "\n# a comment\n", "\n\n", "\n \t\n", ""])
    text = "".join(data.draw(gaps) + data.draw(pairs).join(line) + data.draw(gaps) + data.draw(ends)
                   for line in lines)
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse, text)


def test_elimination_takes_the_reference_steps():
    for t in seeded_ensemble() + _centroid_cases():
        first, last = t.vertices[0], t.vertices[-1]
        keeps = [frozenset(), frozenset([last]), frozenset([t.centroid()])]
        if len(t.vertices) > 1:
            keeps.append(frozenset([first, last]))
        for keep in keeps + keeps:  # the second round starts from another cached order
            assert t._elimination(keep) == reference_elimination(t, keep), (t.edges, keep)
