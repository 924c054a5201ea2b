import random
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtreecount import (
    BiPoly,
    KTooSmall,
    LengthMismatch,
    ONE,
    ParityDegreeVector,
    SameVertex,
    TooManyAnchors,
    Tree,
    UnknownVertex,
    WeightedTree,
    Y,
    Z,
    ZERO,
    count_bc_all,
    count_bc_containing,
    count_bc_containing_pair,
    count_bc_exact_degree,
    oracle_count,
    parse_edge_list,
    random_tree,
    rooted_parity_vectors,
)

from subtreecount import bc_enum, experiments
from subtreecount.tree import _as_weighted

from conftest import (
    bc_all_rooted_at,
    bc_subtrees_at,
    elimination_order,
    evaluate,
    fold_pendant,
    parity_fold,
    parity_reference,
    relabel,
    split_bc_count,
)

P = BiPoly.parse


def test_initial_parity_vector():
    vec = ParityDegreeVector.initial(3)
    assert vec.odd == (ONE, ZERO, ZERO, ZERO)
    assert vec.even == (Y, ZERO, ZERO, ZERO)


def test_parity_vector_keeps_odd_and_even_apart():
    # The oracle reads custom weights through these same properties, so a
    # swap inside the container would go unseen by every oracle comparison.
    odd, even = [P("2*y"), Z, ZERO, ONE], [ONE, ZERO, P("y^2"), Y]
    vec = ParityDegreeVector(odd, even)
    assert vec.odd == tuple(odd)
    assert vec.even == tuple(even)


# test_leaf_update_bc_*: the parity fold, which the library replaced by
# colour passes, lives on as the reference ``parity_fold`` in conftest.


def test_leaf_update_bc_single_attach():
    init = ParityDegreeVector.initial(2)
    out = parity_fold(init, init, Z, 2)
    # the attached edge is the only odd-leaf structure; a bare leaf has no
    # odd-rooted entries above index 0, so the even side stays empty
    assert out.odd == (ONE, P("y*z"), ZERO)
    assert out.even == (Y, ZERO, ZERO)


def test_leaf_update_bc_chain(path3):
    vec = rooted_parity_vectors(path3, 2, "a")
    assert vec.odd == (ONE, P("y*z"), ZERO)
    assert vec.even == (Y, P("y^2*z^2"), ZERO)


def test_leaf_update_bc_two_leaves():
    init = ParityDegreeVector.initial(3)
    once = parity_fold(init, init, Z, 3)
    twice = parity_fold(once, init, Z, 3)
    assert twice.odd == (ONE, P("2*y*z"), P("y^2*z^2"), ZERO)
    assert twice.even == (Y, ZERO, ZERO, ZERO)


def test_leaf_update_bc_length_guard():
    with pytest.raises(LengthMismatch):
        parity_fold(ParityDegreeVector.initial(2), ParityDegreeVector.initial(3), Z, 2)


def test_rooted_parity_vectors_cases(star3):
    single = rooted_parity_vectors(parse_edge_list("a"), 3, "a")
    assert single.odd == (ONE, ZERO, ZERO, ZERO)
    assert single.even == (Y, ZERO, ZERO, ZERO)
    vec = rooted_parity_vectors(star3, 3, "c")
    assert vec.odd == (ONE, P("3*y*z"), P("3*y^2*z^2"), P("y^3*z^3"))
    assert vec.even == (Y, ZERO, ZERO, ZERO)
    with pytest.raises(KTooSmall):
        rooted_parity_vectors(star3, 1, "c")
    with pytest.raises(UnknownVertex):
        rooted_parity_vectors(star3, 2, "zzz")


def test_count_bc_all_examples(path3, path5, star3):
    assert count_bc_all(path3, 2) == P("y^2*z^2")
    assert count_bc_all(path5, 2) == P("3*y^2*z^2 + y^3*z^4")
    assert count_bc_all(star3, 3) == P("3*y^2*z^2 + y^3*z^3")
    assert count_bc_all(star3, 2) == P("3*y^2*z^2")
    assert count_bc_all(parse_edge_list("a"), 2) == ZERO
    with pytest.raises(KTooSmall):
        count_bc_all(path3, 1)


def test_count_bc_containing_examples(path3, path5):
    assert count_bc_containing(path5, 2, "a") == P("y^2*z^2 + y^3*z^4")
    assert count_bc_containing(path3, 2, "b") == P("y^2*z^2")
    assert count_bc_containing(parse_edge_list("a"), 2, "a") == ZERO
    with pytest.raises(UnknownVertex):
        count_bc_containing(path3, 2, "zzz")


def test_count_bc_pair_examples(path3, path5, star3):
    assert count_bc_containing_pair(path3, 2, "a", "b") == P("y^2*z^2")
    assert count_bc_containing_pair(path5, 2, "a", "m") == P("y^2*z^2 + y^3*z^4")
    assert count_bc_containing_pair(star3, 3, "l1", "l2") == P("y^2*z^2 + y^3*z^3")
    with pytest.raises(SameVertex):
        count_bc_containing_pair(path3, 2, "a", "a")
    with pytest.raises(KTooSmall):
        count_bc_containing_pair(path3, 1, "a", "b")


def test_count_bc_exact_degree(path5, star3):
    assert count_bc_exact_degree(star3, 3) == P("y^3*z^3")
    assert count_bc_exact_degree(path5, 3) == ZERO  # paths never reach degree 3
    star4 = parse_edge_list("c l1\nc l2\nc l3\nc l4")
    assert count_bc_exact_degree(star4, 4) == P("y^4*z^4")
    assert count_bc_exact_degree(star4, 4, ("c",)) == P("y^4*z^4")
    assert count_bc_exact_degree(star4, 4, ("l1", "l2")) == P("y^4*z^4")
    with pytest.raises(KTooSmall):
        count_bc_exact_degree(star4, 2)
    with pytest.raises(TooManyAnchors):
        count_bc_exact_degree(star4, 4, ("c", "l1", "l2"))


def test_root_and_order_invariance():
    # The (size, cap) pairs that random.Random(5) gave this test when its
    # draws were interleaved with one rng.choice per split edge; written
    # out so the trees stay the same whatever the relabellings draw.
    cases = [(7, 4), (5, 2), (9, 3), (9, 4), (9, 5), (9, 2), (8, 6), (4, 2)]
    rng = random.Random(5)
    draws = reordered = 0
    for i, (n, k) in enumerate(cases):
        t = random_tree(n, 700 + i)
        reference = count_bc_all(t, k)
        for r in t.vertices:
            others = [v for v in t.vertices if v != r]
            assert count_bc_all(Tree([r, *others], t.edges), k) == reference
            assert bc_all_rooted_at(t, k, r) == reference  # every root, not just a centroid
        default = elimination_order(t, [t.vertices[0]])
        for _ in range(3):
            relabelled, back = relabel(t, rng)
            assert count_bc_all(relabelled, k) == reference
            order = elimination_order(relabelled, [relabelled.vertices[0]])
            draws += 1
            reordered += [back[v] for v in order] != default
    assert reordered > draws / 2, (reordered, draws)


def test_custom_weights_match_the_split_recursion():
    # Input vectors with entries above index 0 (and odd entries at all)
    # are where counting at the top vertex needs its bare-vertex
    # correction; the edge-split recursion never counted bare vertices.
    rng = random.Random(4242)

    def rand_poly():
        return BiPoly(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)
                for _ in range(rng.randint(0, 2))
            }
        )

    nonzero = 0
    for n in range(1, 9):
        for trial in range(6):
            t = random_tree(n, 9100 + 10 * n + trial)
            k = rng.randint(2, max(2, n - 1))
            wt = WeightedTree(
                t,
                {
                    v: ParityDegreeVector(
                        [rand_poly() for _ in range(k + 1)],
                        [rand_poly() for _ in range(k + 1)],
                    )
                    for v in t.vertices
                },
                {e: rand_poly() + Z for e in t.edges},
            )
            expected = split_bc_count(wt, k)
            nonzero += bool(expected)
            assert count_bc_all(wt, k) == expected, (n, trial)
            for v in t.vertices:
                assert count_bc_containing(wt, k, v) == split_bc_count(wt, k, v)
    assert nonzero > 30


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 3), max_size=2
).map(BiPoly)


@settings(deadline=None)
@given(st.data())
def test_colour_passes_match_the_parity_fold_under_custom_weights(data):
    # Custom vectors with entries above index 0, odd entries included, and
    # random edge weights: the colour passes must give the parity fold's
    # rooted vectors coefficient by coefficient, and the same counts.
    n = data.draw(st.integers(1, 7), label="n")
    t = random_tree(n, data.draw(st.integers(0, 10**6), label="seed"))
    k = data.draw(st.integers(2, t.max_degree() + 2), label="k")
    row = st.lists(small_polys, min_size=k + 1, max_size=k + 1)
    wt = WeightedTree(
        t,
        {v: ParityDegreeVector(data.draw(row), data.draw(row)) for v in t.vertices},
        {e: data.draw(small_polys) for e in t.edges},
    )
    assert count_bc_all(wt, k) == parity_reference(wt, k)[0]
    for v in t.vertices:
        count, rooted = parity_reference(wt, k, (v,))
        vec = rooted_parity_vectors(wt, k, v)
        assert (vec.odd, vec.even) == (rooted.odd, rooted.even), v
        assert count_bc_containing(wt, k, v) == count, v
    for vi, vj in zip(t.vertices, t.vertices[1:] + t.vertices[:1]):
        if vi != vj:
            pair = count_bc_containing_pair(wt, k, vi, vj)
            assert pair == parity_reference(wt, k, (vi, vj))[0], (vi, vj)


@settings(deadline=None)
@given(st.data())
def test_bc_counts_match_the_oracle_when_odd_vectors_vanish_past_index_0(data):
    # An odd entry past index 0 makes its vertex no leaf, so the counts take
    # in shapes the oracle's BC filter leaves out (see the bc_enum
    # docstring); without one, every mode agrees with the oracle, whatever
    # the even vectors and the edge weights.
    n = data.draw(st.integers(1, 7), label="n")
    t = random_tree(n, data.draw(st.integers(0, 10**6), label="seed"))
    k = data.draw(st.integers(2, t.max_degree() + 2), label="k")
    even = st.lists(small_polys, min_size=k + 1, max_size=k + 1)
    wt = WeightedTree(
        t,
        {v: ParityDegreeVector([data.draw(small_polys)] + [ZERO] * k, data.draw(even))
         for v in t.vertices},
        {e: data.draw(small_polys) for e in t.edges},
    )
    assert count_bc_all(wt, k) == oracle_count(wt, k, "bc")
    for v in t.vertices:
        assert count_bc_containing(wt, k, v) == oracle_count(wt, k, "bc", (v,)), v
    for vi, vj in zip(t.vertices, t.vertices[1:] + t.vertices[:1]):
        if vi != vj:
            pair = count_bc_containing_pair(wt, k, vi, vj)
            assert pair == oracle_count(wt, k, "bc", (vi, vj)), (vi, vj)


def test_starting_vectors_take_no_bare_vertex_correction(monkeypatch):
    # Only caller-supplied rows can count a bare vertex.  The library's own
    # starting vectors count none, also where a count hands them on as a
    # WeightedTree (the exact-degree count, the sweep), so no range sums
    # are spent on taking off what they count.
    sums = []
    range_sum = bc_enum.range_sum
    monkeypatch.setattr(bc_enum, "range_sum", lambda *args: sums.append(1) or range_sum(*args))

    def range_sums(count):
        sums.clear()
        count()
        return len(sums)

    t = random_tree(30, 8)
    k = t.max_degree()
    assert k > 3
    both = range_sums(lambda: count_bc_all(t, k)) + range_sums(lambda: count_bc_all(t, k - 1))
    assert range_sums(lambda: count_bc_exact_degree(t, k)) == both
    unit = range_sums(lambda: experiments._unit_count(t, k - 1, "bc"))
    assert unit == range_sums(lambda: count_bc_all(t, k - 1))
    supplied = WeightedTree(t, {v: ParityDegreeVector.initial(k) for v in t.vertices})
    assert range_sums(lambda: count_bc_all(supplied, k)) == (
        range_sums(lambda: count_bc_all(t, k)) + 2 * len(t.vertices)
    )


def _spine_tree(n, legs_seed=None):
    """A path of n vertices, or with ``legs_seed`` a caterpillar of n vertices
    (spine n // 2, each other vertex on a random spine vertex), labelled in
    order along the spine."""
    spine = n if legs_seed is None else n // 2
    labels = [f"s{i:04d}" for i in range(n)]
    edges = [(labels[i], labels[i + 1]) for i in range(spine - 1)]
    rng = random.Random(legs_seed)
    edges += [(labels[rng.randrange(spine)], labels[i]) for i in range(spine, n)]
    return Tree(labels, edges)


def test_bc_counts_match_the_colour_class_dp():
    # Past the oracle's 14 vertices, the only other check of a BC count is
    # the leaf-deletion recurrence, which runs the library against itself.
    # The colour-class DP shares no code with it.
    rng = random.Random(1414)
    trees = [random_tree(n, 5100 + n) for n in (15, 40, 90, 200)]
    trees += [_spine_tree(n) for n in (17, 64, 200)]
    trees += [_spine_tree(n, 5200 + n) for n in (20, 80, 200)]
    largest = 0
    for t in trees:
        v = rng.choice(t.vertices)
        for k in (2, 3, 5):
            every = count_bc_all(t, k)
            largest = max(largest, every.eval_counts())
            containing = count_bc_containing(t, k, v)
            exact = count_bc_exact_degree(t, k) if k > 2 else None
            for y, z in ((1, 1), (2, 3)):
                assert evaluate(every, y, z) == bc_subtrees_at(t, k, y, z)
                assert evaluate(containing, y, z) == bc_subtrees_at(t, k, y, z, v)
                if exact is not None:
                    assert evaluate(exact, y, z) == (
                        bc_subtrees_at(t, k, y, z) - bc_subtrees_at(t, k - 1, y, z)
                    ), (len(t.vertices), k)
    assert largest > 2**64


def test_bc_counts_take_one_contraction(monkeypatch):
    # One elimination walk per count, replayed by one contraction per colour
    # class; a recursion over the edges would contract once per edge.
    t = random_tree(40, 77)
    contracts, walks = [], []
    elimination, pendants = Tree._elimination, Tree.pendant_vertices

    def counting_elimination(self, *args, **kwargs):
        contracts.append(1)
        return elimination(self, *args, **kwargs)

    def counting_pendants(self):
        walks.append(1)
        return pendants(self)

    monkeypatch.setattr(Tree, "_elimination", counting_elimination)
    monkeypatch.setattr(Tree, "pendant_vertices", counting_pendants)
    count_bc_all(t, 3)
    assert (len(walks), len(contracts)) == (1, 2)
    count_bc_containing(t, 3, t.vertices[5])
    assert (len(walks), len(contracts)) == (2, 4)
    count_bc_containing_pair(t, 3, t.vertices[5], t.vertices[9])
    assert (len(walks), len(contracts)) == (3, 6)


def test_long_path_needs_no_recursion():
    # the count runs in a loop: a 1,000-vertex path fits in 100 frames
    # above the caller's depth
    n = 1000
    path = Tree([f"p{i}" for i in range(1, n + 1)],
                [(f"p{i}", f"p{i + 1}") for i in range(1, n)])
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        capped_2 = count_bc_all(path, 2)
        capped_3 = count_bc_all(path, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert capped_2.eval_counts() == sum(n - 2 * j for j in range(1, (n - 1) // 2 + 1))
    assert capped_3 == capped_2


def test_one_contraction_step_preserves_results():
    rng = random.Random(23)
    for i in range(10):
        t = random_tree(rng.randint(3, 9), 1900 + i)
        k = rng.randint(2, len(t.vertices) - 1)
        root = rng.choice(t.vertices)
        pendants = [u for u in t.pendant_vertices() if u != root]
        if not pendants:
            continue
        u = rng.choice(pendants)
        wt = WeightedTree(t, {v: ParityDegreeVector.initial(k) for v in t.vertices})
        contracted = fold_pendant(wt, u, partial(parity_fold, k=k))
        assert rooted_parity_vectors(contracted, k, root) == rooted_parity_vectors(
            t, k, root
        )


def test_result_structure():
    # no term below two edges; the vertex marker counts one parity class
    for seed in range(6):
        t = random_tree(8, 2600 + seed)
        for k in (2, 4):
            for (dy, dz), coeff in count_bc_all(t, k).terms().items():
                assert coeff > 0
                assert dz >= 2
                assert 0 < dy <= len(t.vertices)


def test_nesting_of_counts():
    rng = random.Random(77)
    for i in range(6):
        t = random_tree(rng.randint(3, 9), 3300 + i)
        k = rng.randint(2, len(t.vertices) - 1)
        vi, vj = rng.sample(t.vertices, 2)
        pair = count_bc_containing_pair(t, k, vi, vj).eval_counts()
        containing = count_bc_containing(t, k, vi).eval_counts()
        total = count_bc_all(t, k).eval_counts()
        assert pair <= containing <= total


def test_path_closed_form():
    # cap 2 on a path counts the even-length subpaths: sum of n-2j
    for n in range(3, 10):
        edges = "\n".join(f"p{i} p{i+1}" for i in range(1, n))
        t = parse_edge_list(edges)
        expected = sum(n - 2 * j for j in range(1, (n - 1) // 2 + 1))
        assert count_bc_all(t, 2).eval_counts() == expected


def test_monotone_in_k():
    t = random_tree(9, 41)
    for k in range(2, 8):
        small = count_bc_all(t, k).terms()
        large = count_bc_all(t, k + 1)
        assert all(large.coefficient(*key) >= c for key, c in small.items())


def test_rooted_vectors_match_oracle_under_general_weights():
    # the parity contraction is the exact dual of the definitional rooted
    # sums for arbitrary weights, not just the standard initialization
    from subtreecount import rooted_parity_sums

    rng = random.Random(1717)

    def rand_poly():
        return BiPoly(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)
                for _ in range(rng.randint(0, 2))
            }
        )

    for trial in range(12):
        t = random_tree(rng.randint(2, 7), 8800 + trial)
        k = rng.randint(2, max(2, len(t.vertices) - 1))
        raw = {
            v: (
                tuple(rand_poly() for _ in range(k + 1)),
                tuple(rand_poly() for _ in range(k + 1)),
            )
            for v in t.vertices
        }
        edge_weights = {e: rand_poly() + Z for e in t.edges}
        wt = WeightedTree(
            t, {v: ParityDegreeVector(*raw[v]) for v in t.vertices}, edge_weights
        )
        for root in t.vertices:
            vec = rooted_parity_vectors(wt, k, root)
            odd_sums, even_sums = rooted_parity_sums(wt, k, root)
            assert vec.odd == odd_sums, (trial, root)
            assert vec.even == even_sums, (trial, root)


def test_rooted_vectors_on_a_tree_start_full_only_at_the_root():
    # On a plain Tree only the root starts as a full row: every other
    # vertex starts as the door's row, so finished sees the rows a count
    # that hands in the door's WeightedTree sees, pass by pass, and the
    # root's rows, the result, are still read entry by entry.
    rng = random.Random(22)
    for seed in range(24):
        t = random_tree(rng.randint(1, 14), seed)
        root = rng.choice(t.vertices)
        for k in (2, 3, 5, max(t.max_degree(), 2) + 1):
            full = WeightedTree(t, dict.fromkeys(t.vertices, ParityDegreeVector.initial(k)))
            seen, door = [], []
            vec = rooted_parity_vectors(
                t, k, root, finished=lambda row, lo: seen.append((type(row), row, lo))
            )
            assert vec == rooted_parity_vectors(full, k, root)
            rooted_parity_vectors(
                _as_weighted(t, k, ParityDegreeVector)[0], k, root,
                finished=lambda row, lo: door.append((type(row), row, lo)),
            )
            assert len(seen) == 2 * (len(t.vertices) - 1)
            assert seen == door


def test_parity_vectors_take_equal_length_rows_and_store_tuples():
    # The door's rows where the cap cannot bind are product rows: at k = 3
    # the odd row of a leaf (lo = 1) keeps entries 0 and 1 then rest, the
    # even row (lo = 0) entry 0 then rest.  The public constructor takes
    # equal-length rows only and stores them as plain tuples.
    t = parse_edge_list("a b\nb c\nc d\n")
    rows = {}
    rooted_parity_vectors(t, 3, "b", finished=lambda row, lo: rows.setdefault(lo, row))
    odd, even = rows[1], rows[0]
    assert (len(odd), len(even)) == (3, 2)
    with pytest.raises(LengthMismatch):
        ParityDegreeVector(odd, even)
    for pair in ((odd, odd), (even, even), (list(odd), (ONE, Y, Z))):
        vec = ParityDegreeVector(*pair)
        assert type(vec.odd) is tuple and type(vec.even) is tuple
        assert (vec.odd, vec.even) == tuple(map(tuple, pair))
