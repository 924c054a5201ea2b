import random
import tracemalloc
from functools import partial

import pytest

from subtreecount import (
    BiPoly,
    DegreeVector,
    KTooSmall,
    LengthMismatch,
    SameVertex,
    TooManyAnchors,
    Tree,
    UnknownVertex,
    WeightedTree,
    Y,
    Z,
    ZERO,
    count_all,
    count_bc_all,
    count_bc_exact_degree,
    count_containing,
    count_containing_pair,
    count_exact_degree,
    enumerate_connected_subtrees,
    leaf_update_subtree,
    oracle_count,
    parse_edge_list,
    random_tree,
)

from conftest import (
    count_all_kept_at,
    elimination_order,
    fold_pendant,
    relabel,
    seeded_ensemble,
)

P = BiPoly.parse


def test_initial_vector():
    vec = DegreeVector.initial(3)
    assert vec.entries == (Y, ZERO, ZERO, ZERO)
    assert vec.sum_range(0, 3) == Y
    assert vec.sum_range(2, 1) == ZERO


def test_leaf_update_single_attach():
    init = DegreeVector.initial(2)
    out = leaf_update_subtree(init, init, Z, 2)
    assert out.entries == (Y, P("y^2*z"), ZERO)


def test_leaf_update_does_not_attach_twice():
    # folding a second leaf must read pre-update entries throughout:
    # an ascending in-place loop would wrongly produce 2*y^3*z^2 at index 2
    init = DegreeVector.initial(2)
    once = leaf_update_subtree(init, init, Z, 2)
    twice = leaf_update_subtree(once, init, Z, 2)
    assert twice.entries == (Y, P("2*y^2*z"), P("y^3*z^2"))


def test_leaf_update_k1():
    init = DegreeVector.initial(1)
    assert leaf_update_subtree(init, init, Z, 1).entries == (Y, P("y^2*z"))


def test_leaf_update_length_mismatch():
    with pytest.raises(LengthMismatch):
        leaf_update_subtree(DegreeVector.initial(2), DegreeVector.initial(3), Z, 2)


def test_count_all_path(path3):
    assert count_all(path3, 2) == P("3*y + 2*y^2*z + y^3*z^2")


def test_count_all_star(star3):
    assert count_all(star3, 2) == P("4*y + 3*y^2*z + 3*y^3*z^2")
    assert count_all(star3, 3) == P("4*y + 3*y^2*z + 3*y^3*z^2 + y^4*z^3")


def test_count_all_double_spider(double_spider):
    poly = count_all(double_spider, 4)
    expected = [11, 10, 25, 50, 90, 120, 100, 40]
    for size, coeff in enumerate(expected, start=1):
        assert poly.coefficient(size, size - 1) == coeff
    assert poly.eval_counts() == 446


def test_count_all_edge_cases():
    single = parse_edge_list("a")
    assert count_all(single, 3) == Y
    # k = 0 leaves only the isolated vertices
    t = random_tree(6, 4)
    assert count_all(t, 0) == P("6*y")
    with pytest.raises(KTooSmall):
        count_all(t, -1)


def test_count_containing(path3, double_spider):
    assert count_containing(path3, 2, "b") == P("y + 2*y^2*z + y^3*z^2")
    assert count_containing(path3, 1, "b") == P("y + 2*y^2*z")
    assert count_containing(double_spider, 4, "A").eval_counts() == 406
    with pytest.raises(UnknownVertex):
        count_containing(path3, 2, "zzz")


def test_count_containing_pair(path3, double_spider):
    assert count_containing_pair(path3, 2, "a", "c") == P("y^3*z^2")
    edge = parse_edge_list("a b")
    assert count_containing_pair(edge, 1, "a", "b") == P("y^2*z")
    pair = count_containing_pair(double_spider, 4, "A", "H")
    assert pair == P(
        "1*y^3*z^2 + 8*y^4*z^3 + 28*y^5*z^4 + 52*y^6*z^5 + 52*y^7*z^6 + 24*y^8*z^7"
    )
    assert pair.eval_counts() == 165
    with pytest.raises(SameVertex):
        count_containing_pair(path3, 2, "a", "a")
    at_zero = count_containing_pair(path3, 0, "a", "c")
    assert at_zero == oracle_count(path3, 0, "subtree", ("a", "c")) == ZERO


def test_count_exact_degree(path3, star3):
    assert count_exact_degree(star3, 3) == P("y^4*z^3")
    assert count_exact_degree(path3, 1) == P("2*y^2*z")
    assert count_exact_degree(path3, 2) == P("y^3*z^2")
    with pytest.raises(KTooSmall):
        count_exact_degree(path3, 0)
    with pytest.raises(TooManyAnchors):
        count_exact_degree(path3, 2, ("a", "b", "c"))


def test_count_exact_degree_anchored(path3, star3):
    assert count_exact_degree(star3, 3, ("c",)) == P("y^4*z^3")
    assert count_exact_degree(path3, 2, ("a", "c")) == P("y^3*z^2")
    # with k = 1 the lower pair count is empty, not an error
    assert count_exact_degree(path3, 1, ("a", "b")) == P("y^2*z")
    # exact-degree counts partition the capped count
    t = random_tree(7, 9)
    total = BiPoly.sum(count_exact_degree(t, k) for k in range(1, 7)) + count_all(t, 0)
    assert total == count_all(t, 6)


def test_order_invariance():
    # The (size, cap) pairs that random.Random(31) gave this test when its
    # draws were interleaved with rng.choice over pendant lists; written
    # out so the trees stay the same whatever the relabellings draw.
    cases = [(2, 1), (4, 0), (2, 1), (8, 5), (6, 2), (5, 0), (2, 1), (3, 1),
             (2, 0), (2, 0), (6, 5), (5, 1), (5, 3), (9, 4), (6, 3)]
    rng = random.Random(31)
    draws = reordered = 0
    for i, (n, k) in enumerate(cases):
        t = random_tree(n, 800 + i)
        reference = count_all(t, k)
        for r in t.vertices:  # every survivor, not just a centroid
            assert count_all_kept_at(t, k, r) == reference
        default = elimination_order(t)
        for _ in range(4):
            relabelled, back = relabel(t, rng)
            assert count_all(relabelled, k) == reference
            draws += 1
            reordered += [back[v] for v in elimination_order(relabelled)] != default
    assert reordered > draws / 2, (reordered, draws)


def test_exact_degree_matches_the_oracle_in_every_mode():
    # cap k minus cap k-1 by the oracle, for every k from the family's
    # least exact-degree cap, with no anchor, one anchor and one pair
    rng = random.Random(8080)
    nonzero = {}
    for t in seeded_ensemble(per_size=4, sizes=range(3, 9)):
        n = len(t.vertices)
        modes = ((), (rng.choice(t.vertices),), tuple(rng.sample(t.vertices, 2)))
        for family, exact, k_lo in (("subtree", count_exact_degree, 1),
                                    ("bc", count_bc_exact_degree, 3)):
            for k in range(k_lo, n):
                for anchors in modes:
                    expected = oracle_count(t, k, family, anchors) - oracle_count(
                        t, k - 1, family, anchors
                    )
                    assert exact(t, k, anchors) == expected, (family, k, anchors)
                    key = (family, len(anchors))
                    nonzero[key] = nonzero.get(key, 0) + bool(expected)
    assert len(nonzero) == 6 and min(nonzero.values()) >= 5, nonzero


def test_contraction_step_preserves_anchored_counts():
    # folding any pendant vertex away must not change anchored results
    rng = random.Random(13)
    for i in range(10):
        t = random_tree(rng.randint(3, 9), 600 + i)
        k = rng.randint(1, len(t.vertices) - 1)
        wt = WeightedTree(t, {v: DegreeVector.initial(k) for v in t.vertices})
        anchors = rng.sample(t.vertices, 2)
        pendants = [u for u in t.pendant_vertices() if u not in anchors]
        if not pendants:
            continue
        u = rng.choice(pendants)
        contracted = fold_pendant(wt, u, partial(leaf_update_subtree, k=k))
        assert count_containing(contracted, k, anchors[0]) == count_containing(
            t, k, anchors[0]
        )
        assert count_containing_pair(contracted, k, *anchors) == count_containing_pair(
            t, k, *anchors
        )


def test_monotone_in_k():
    t = random_tree(9, 21)
    for k in range(0, 8):
        small = count_all(t, k).terms()
        large = count_all(t, k + 1)
        assert all(large.coefficient(*key) >= c for key, c in small.items())


def test_saturation_matches_unconstrained():
    for seed in (3, 14, 15):
        t = random_tree(8, seed)
        unconstrained = BiPoly.sum(
            BiPoly.monomial(1, len(w.vertices), len(w.edges))
            for w in enumerate_connected_subtrees(t)
        )
        assert count_all(t, t.max_degree()) == unconstrained


def test_path_saturated_count_is_triangular():
    for n in (2, 5, 9, 30):
        edges = "\n".join(f"p{i} p{i+1}" for i in range(1, n))
        t = parse_edge_list(edges)
        assert count_all(t, 2).eval_counts() == n * (n + 1) // 2


def test_vertex_sum_identity():
    # summing anchored counts over all vertices counts each subtree once
    # per vertex it contains
    for seed in (2, 8):
        t = random_tree(8, seed)
        for k in (1, 3):
            total = sum(count_containing(t, k, v).eval_counts() for v in t.vertices)
            weighted = sum(
                dy * c for (dy, _), c in count_all(t, k).terms().items()
            )
            assert total == weighted


def test_matches_oracle_with_custom_weights():
    # general vertex/edge weights flow through both routes identically
    t = parse_edge_list("a b\nb c\nb d")
    k = 2
    vertex_weights = {
        "a": DegreeVector((Y, P("y*z"), ZERO)),
        "b": DegreeVector((P("2*y"), ZERO, ZERO)),
        "c": DegreeVector((Y, ZERO, P("y^2"))),
        "d": DegreeVector((P("y + 1"), ZERO, ZERO)),
    }
    edge_weights = {("a", "b"): P("z^2"), ("b", "c"): Z, ("b", "d"): P("2*z")}
    wt = WeightedTree(t, vertex_weights, edge_weights)
    assert count_all(wt, k) == oracle_count(wt, k)
    assert count_containing(wt, k, "b") == oracle_count(wt, k, anchors=("b",))
    assert count_containing_pair(wt, k, "a", "c") == oracle_count(wt, k, anchors=("a", "c"))


def test_big_integer_capability_at_depth():
    # a degree-8 tree on 90 vertices pushes coefficients far past 64 bits
    labels = [f"v{i}" for i in range(1, 91)]
    edges = [(f"v{(i - 2) // 7 + 1}", f"v{i}") for i in range(2, 91)]
    poly = count_all(Tree(labels, edges), 8)
    assert poly.max_coefficient() > 2**64
    # spot-check exactness at the small end, where hand counting works
    assert poly.coefficient(1, 0) == 90
    assert poly.coefficient(2, 1) == 89


@pytest.mark.parametrize("count", [count_all, count_bc_all])
def test_memory_grows_linearly_on_a_long_path(count):
    # Labelled in order, the path is eliminated from one end, and the part
    # counted at the i-th vertex has about i terms: kept until the end,
    # the parts would grow quadratically (about 20x from n = 100 to 400).
    peaks = []
    for n in (100, 400):
        labels = [f"p{i:04d}" for i in range(n)]
        t = Tree(labels, list(zip(labels, labels[1:])))
        tracemalloc.start()
        try:
            count(t, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * peaks[0]
