import random
import tracemalloc
from functools import partial
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subtreecount import (
    BiPoly,
    DegreeVector,
    KTooSmall,
    LengthMismatch,
    ONE,
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
    count_bc_containing,
    count_bc_containing_pair,
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

from subtreecount import subtree_enum
from subtreecount.bipoly import _Line, _ring_of
from subtreecount.subtree_enum import _Product

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


def _reference_branch(hung, lo, k):
    """The leaf's entries lo..k-1, in the row's ring; a product row's from
    lo are its heads and rest."""
    ring = _ring_of(hung[0])
    if k - 1 < lo:
        return ring.zero
    return ring.sum(hung[lo:] if type(hung) is _Product else hung[lo:k])


def _reference_fold(row, branch, edge_weight, k):
    """``leaf_update_subtree`` entry by entry, with every ring call made.

    A product row stands for the row whose entries from its last head on
    sum to ``rest``: its heads keep their rule, and the entries the rest
    stands for gain their own sum plus the last head, times the attach."""
    attach = edge_weight * branch
    if type(row) is not _Product:
        return (row[0],) + tuple(row[i] + row[i - 1] * attach for i in range(1, k + 1))
    heads, rest = row[:-1], row[-1]
    new_heads = heads[:1] + tuple(heads[i] + heads[i - 1] * attach for i in range(1, len(heads)))
    below = heads[-1] if heads else _ring_of(rest).zero
    return new_heads + (rest + (below + rest) * attach,)


fold_entries = st.one_of(
    st.just(ZERO),
    st.just(ONE),
    st.builds(BiPoly.monomial, st.integers(1, 3), st.integers(0, 4), st.integers(0, 4)),
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(1, 9), min_size=1, max_size=5
    ).map(BiPoly),
    st.builds(
        lambda slope, offset, low, inner, ends: _Line._of(
            (slope, offset, low, [ends[0], *inner, ends[1]])
        ),
        st.sampled_from([1, 2]),
        st.integers(0, 3),
        st.integers(0, 3),
        st.lists(st.integers(0, 4), min_size=6, max_size=30).filter(
            lambda inner: len(inner) - inner.count(0) >= 6
        ),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    ),
)


#: Int entries: zero often, small, and past 64 bits.
int_fold_entries = st.one_of(st.just(0), st.integers(1, 3), st.integers(2**64, 2**70))


@st.composite
def fold_rows(draw, k, min_heads=0, entries=fold_entries):
    """A full row of length k + 1, or a product row of min_heads..2 heads
    (no more than k: the cap never truncates a product row) and a rest."""
    heads = draw(st.integers(min_heads, 2))
    if heads > k or draw(st.booleans()):
        return draw(st.lists(entries, min_size=k + 1, max_size=k + 1).map(tuple))
    return _Product(draw(st.lists(entries, min_size=heads + 1, max_size=heads + 1)))


@st.composite
def folds(draw, entries=fold_entries, edge_weights=(ONE, Z, P("2*y*z"), P("y + z"))):
    """(k, parent row and lo, leaf row and lo, edge weight) for one fold."""
    k = draw(st.integers(0, 4))
    lo_parent, lo_leaf = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    row = draw(fold_rows(k, entries=entries))
    # a product row read from lo keeps heads 0..lo-1
    hung = draw(fold_rows(k, min_heads=lo_leaf, entries=entries))
    edge_weight = draw(st.sampled_from(edge_weights))
    return k, row, lo_parent, hung, lo_leaf, edge_weight


def _check_fold(case):
    """The fold of ``case`` (from ``folds``) against ``_reference_fold``."""
    k, row, lo_parent, hung, lo_leaf, edge_weight = case
    parent = DegreeVector._row(row, lo_parent)
    out = leaf_update_subtree(parent, DegreeVector._row(hung, lo_leaf), edge_weight, k)
    branch = _reference_branch(hung, lo_leaf, k)
    assert out.entries == _reference_fold(row, branch, edge_weight, k)
    assert (type(out.entries), out._lo) == (type(row), lo_parent)
    assert all(map(_ring_of(row[0]).has, out.entries))
    if not branch:  # in a BC pass, a leaf outside the colour class
        assert out is parent


@given(folds())
# The starting rows of the door: plain, and the BC pass's other and own rows.
@example((3, _Product((Y,)), 0, _Product((Y,)), 0, Z))
@example((2, _Product((ONE, ZERO, ZERO)), 1, _Product((Y, ZERO)), 0, Z))
@example((2, _Product((Y, ZERO)), 0, _Product((ONE, P("y*z"), ZERO)), 1, Z))
@example((2, (Y, ZERO, ZERO), 0, (Y, ZERO, ZERO), 0, Z))
# A branch of ONE, times an edge weight.
@example((2, _Product((Y,)), 0, _Product((ONE,)), 0, Z))
# The sweep's: every weight ONE.
@example((3, _Product((ONE,)), 0, _Product((ONE,)), 0, ONE))
@example((2, _Product((ONE, ZERO, ZERO)), 1, _Product((ONE, ZERO)), 0, ONE))
def test_the_fold_matches_its_entry_by_entry_reference(case):
    # The fold skips ZERO entries and ONE factors and moves the edge weight
    # onto the cheaper side; none of that may change an entry.
    _check_fold(case)


@given(folds(int_fold_entries, (1, 2, 3)))
# The door's int starting rows: plain, and the BC pass's other and own rows.
@example((3, _Product((1,)), 0, _Product((1,)), 0, 1))
@example((2, _Product((1, 0, 0)), 1, _Product((1, 0)), 0, 1))
@example((2, _Product((1, 0)), 0, _Product((1, 1, 0)), 1, 1))
@example((3, (1, 0, 0, 0), 0, (1, 0, 0, 0), 0, 1))
# A product row's last head and its rest both feed the rest.
@example((3, _Product((0, 2, 3)), 0, _Product((1,)), 0, 2))
def test_the_int_fold_matches_its_entry_by_entry_reference(case):
    # An int row takes its own one-pass tail: it skips zero entries and an
    # edge weight of 1; none of that may change an entry.
    _check_fold(case)


def test_folds_make_no_zero_or_one_ring_calls(monkeypatch):
    # On a BC path most of what a fold could compute is an identity: the
    # heads of fresh product rows are ZERO and the other colour's vertex
    # weight is ONE.  The fold makes none of those calls.
    seen = []
    inside = []
    fold, mul, add = subtree_enum.leaf_update_subtree, BiPoly.__mul__, BiPoly.__add__

    def watched_fold(*args):
        inside.append(1)
        try:
            return fold(*args)
        finally:
            inside.pop()

    def watched(op, name):
        def call(a, b):
            if inside:
                seen.append((name, a, b))
            return op(a, b)

        return call

    monkeypatch.setattr(subtree_enum, "leaf_update_subtree", watched_fold)
    monkeypatch.setattr(BiPoly, "__mul__", watched(mul, "*"))
    monkeypatch.setattr(BiPoly, "__add__", watched(add, "+"))
    labels = [f"s{i:04d}" for i in range(130)]
    path = Tree(labels, list(zip(labels, labels[1:])))
    bushy = random_tree(60, 7)
    for count, t, k in [(count_bc_all, path, 2), (count_bc_all, bushy, 3), (count_all, bushy, 3)]:
        seen.clear()
        count(t, k)
        assert seen, (count.__name__, t)
        for name, a, b in seen:
            assert a and b, (name, a, b)
            assert name == "+" or ONE not in (a, b), (name, a, b)


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


def _star_sum(binomial, j_lo, K, dy):
    """The sum over j = j_lo..K of binomial(j) * y^(j + dy) * z^j."""
    return BiPoly({(j + dy, j): binomial(j) for j in range(j_lo, K + 1)})


@pytest.mark.parametrize("k", [1, 2, 7, 150])
def test_every_mode_on_a_large_star_matches_its_closed_form(k):
    # A hub with m leaves, far past the oracle's 14 vertices: each fold
    # into the hub is a product row with no head.  A subtree through the
    # hub is the hub plus j of its leaves, j <= K = min(k, m); the BC ones
    # are those with j >= 2 leaves, whose leaves y marks.
    m = 150
    leaves = [f"l{i}" for i in range(m)]
    t = Tree(["h"] + leaves, [("h", leaf) for leaf in leaves])
    K = min(k, m)
    through_hub = _star_sum(lambda j: comb(m, j), 0, K, 1)
    assert count_containing(t, k, "h") == through_hub
    assert count_all(t, k) == through_hub + BiPoly({(1, 0): m})
    assert count_containing_pair(t, k, "h", "l0") == _star_sum(lambda j: comb(m - 1, j - 1), 1, K, 1)
    if k == m:  # the hub with any set of leaves, or a leaf alone
        assert count_all(t, k).eval_counts() == 2**m + m
    if k < 2:
        return
    bc = _star_sum(lambda j: comb(m, j), 2, K, 0)
    assert count_bc_all(t, k) == bc
    assert count_bc_containing(t, k, "h") == bc
    assert count_bc_containing(t, k, "l0") == _star_sum(lambda j: comb(m - 1, j - 1), 2, K, 0)
    assert count_bc_containing_pair(t, k, "l0", "l1") == _star_sum(
        lambda j: comb(m - 2, j - 2), 2, K, 0
    )
