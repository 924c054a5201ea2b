import random
from collections import Counter
from functools import partial

import pytest

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
    leaf_update_subtree,
    parse_edge_list,
    prufer_decode,
    random_tree,
    render_edge_list,
    rooted_parity_vectors,
)

from conftest import split


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


def test_constructor_rejects_self_loop_and_bad_counts():
    with pytest.raises(NotATree):
        Tree(["a"], [("a", "a")])
    with pytest.raises(NotATree):
        Tree(["a", "b"], [])
    with pytest.raises(NotATree):
        Tree(["a", "b"], [("a", "c")])


@pytest.mark.parametrize(
    "edge",
    [("a", "b", "c"), ("a",), 5, (["a"], "b")],
    ids=["triple", "single", "int", "unhashable"],
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


def _labelled(t):
    """A WeightedTree whose vectors are the vertex labels themselves."""
    return WeightedTree(t, {v: v for v in t.vertices})


def _recording_fold(eliminated):
    def fold(parent, leaf, edge_weight):
        eliminated.append(leaf)
        return parent

    return fold


def test_contract_with_empty_keep_folds_n_minus_1_times():
    for n, seed in [(1, 3), (2, 3), (9, 77), (14, 5)]:
        eliminated = []
        survivors = _labelled(random_tree(n, seed)).contract(
            frozenset(), _recording_fold(eliminated)
        )
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
        survivors = _labelled(t).contract(frozenset(), _recording_fold([]))
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
            survivors = _labelled(t).contract(keep, _recording_fold([]))
            assert keep <= set(survivors)
            if size == 2:
                assert set(survivors) == set(t.path_between(*sorted(keep)))


def test_contract_folds_smallest_pendant_by_default(path5):
    eliminated = []
    _labelled(path5).contract(frozenset(["m"]), _recording_fold(eliminated))
    assert eliminated == ["a", "b", "e", "d"]


def test_contract_leaves_input_unchanged():
    t = random_tree(10, 12)
    k = 3
    wt = WeightedTree(t, {v: DegreeVector.initial(k) for v in t.vertices})
    before = {v: wt.vector(v) for v in t.vertices}
    survivors = wt.contract(frozenset(), partial(leaf_update_subtree, k=k))
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
