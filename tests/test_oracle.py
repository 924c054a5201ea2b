import pytest

from subtreecount import (
    BiPoly,
    KTooSmall,
    ONE,
    ParityDegreeVector,
    SameVertex,
    SubtreeCountError,
    TooLarge,
    TooManyAnchors,
    UnknownVertex,
    WeightedTree,
    Y,
    ZERO,
    bc_subtree_weight,
    enumerate_connected_subtrees,
    is_bc,
    oracle_count,
    parse_edge_list,
    random_tree,
    rooted_parity_sums,
    rooted_parity_weight,
    subtree_weight,
)

P = BiPoly.parse


def _witness(t, labels):
    matches = [
        w for w in enumerate_connected_subtrees(t) if set(w.vertices) == set(labels)
    ]
    assert len(matches) == 1
    return matches[0]


def test_witness_counts(path3, star3):
    assert len(enumerate_connected_subtrees(path3)) == 6
    assert len(enumerate_connected_subtrees(star3)) == 11
    assert len(enumerate_connected_subtrees(parse_edge_list("a"))) == 1


def test_witness_count_closed_forms():
    # paths: n*(n+1)/2 subtrees; stars with m leaves: 2^m + m
    for n in range(2, 9):
        edges = "\n".join(f"p{i} p{i+1}" for i in range(1, n))
        assert len(enumerate_connected_subtrees(parse_edge_list(edges))) == n * (n + 1) // 2
    for m in (2, 4, 6):
        edges = "\n".join(f"hub l{i}" for i in range(m))
        assert len(enumerate_connected_subtrees(parse_edge_list(edges))) == 2**m + m


def test_witnesses_are_unique_and_connected():
    for seed in range(8):
        t = random_tree(8, seed)
        seen = set()
        for w in enumerate_connected_subtrees(t):
            assert w.vertices not in seen
            seen.add(w.vertices)
            assert len(w.edges) == len(w.vertices) - 1  # connected and acyclic


def test_witness_leaf_sets(path3):
    assert _witness(path3, ["a", "b", "c"]).leaves == ("a", "c")
    assert _witness(path3, ["a"]).leaves == ("a",)


def test_subtree_weight_examples(path3, star3):
    full_star = _witness(star3, ["c", "l1", "l2", "l3"])
    assert subtree_weight(full_star, 2) == ZERO  # hub degree 3 breaks the cap
    assert subtree_weight(full_star, 3) == P("y^4*z^3")
    assert subtree_weight(_witness(path3, ["a", "b", "c"]), 2) == P("y^3*z^2")
    assert subtree_weight(_witness(path3, ["a", "b"]), 1) == P("y^2*z")


def test_bc_weight_examples(path3, star3):
    assert bc_subtree_weight(_witness(path3, ["a", "b", "c"]), 2) == P("y^2*z^2")
    p4 = parse_edge_list("a b\nb c\nc d")
    assert bc_subtree_weight(_witness(p4, "abcd"), 3) == ZERO  # leaves 3 apart
    assert bc_subtree_weight(_witness(star3, ["c", "l1", "l2", "l3"]), 3) == P("y^3*z^3")
    assert bc_subtree_weight(_witness(star3, ["c", "l1", "l2", "l3"]), 2) == ZERO
    # below two edges the BC family is empty by convention
    assert bc_subtree_weight(_witness(path3, ["a", "b"]), 2) == ZERO
    assert bc_subtree_weight(_witness(path3, ["a"]), 2) == ZERO


def test_is_bc_matches_weight():
    for seed in range(6):
        t = random_tree(7, 50 + seed)
        for w in enumerate_connected_subtrees(t):
            # saturated cap isolates the parity condition from the degree cap
            assert is_bc(w) == bool(bc_subtree_weight(w, 6))


def test_rooted_parity_weight_examples(path3):
    single = _witness(path3, ["a"])
    assert rooted_parity_weight(single, "a", 3, 0, "even") == Y
    assert rooted_parity_weight(single, "a", 3, 0, "odd") == ONE
    assert rooted_parity_weight(single, "a", 3, 1, "even") == ZERO
    edge = _witness(path3, ["a", "b"])
    assert rooted_parity_weight(edge, "a", 2, 1, "odd") == P("y*z")
    assert rooted_parity_weight(edge, "a", 2, 1, "even") == ZERO
    whole = _witness(path3, ["a", "b", "c"])
    assert rooted_parity_weight(whole, "a", 2, 1, "even") == P("y^2*z^2")
    assert rooted_parity_weight(whole, "a", 2, 1, "odd") == ZERO
    with pytest.raises(UnknownVertex):
        rooted_parity_weight(edge, "zzz", 2, 1, "odd")
    with pytest.raises(ValueError) as raised:
        rooted_parity_weight(edge, "a", 2, 1, "sideways")
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:
        rooted_parity_weight(edge, "a", 2, 3, "odd")
    assert isinstance(raised.value, SubtreeCountError)


def test_oracle_count_examples(path3, star3):
    assert oracle_count(path3, 2) == P("3*y + 2*y^2*z + y^3*z^2")
    assert oracle_count(path3, 2, "bc") == P("y^2*z^2")
    assert oracle_count(star3, 3, "bc", ("l1", "l2")) == P("y^2*z^2 + y^3*z^3")


def test_oracle_count_guards(path3):
    with pytest.raises(TooLarge):
        oracle_count(random_tree(15, 1), 3)
    with pytest.raises(KTooSmall):
        oracle_count(path3, 1, "bc")
    with pytest.raises(UnknownVertex):
        oracle_count(path3, 2, "subtree", ("nope",))
    with pytest.raises(SameVertex):
        oracle_count(path3, 2, "subtree", ("a", "a"))
    with pytest.raises(TooManyAnchors) as raised:
        oracle_count(path3, 2, "subtree", ("a", "b", "c"))
    # a library error that existing ``except ValueError`` callers still catch
    assert isinstance(raised.value, SubtreeCountError)
    assert isinstance(raised.value, ValueError)
    with pytest.raises(ValueError) as raised:
        oracle_count(path3, 2, "spanning")
    assert isinstance(raised.value, SubtreeCountError)


def test_saturated_oracle_is_unconstrained():
    for seed in range(5):
        t = random_tree(8, 100 + seed)
        expected = BiPoly.sum(
            BiPoly.monomial(1, len(w.vertices), len(w.edges))
            for w in enumerate_connected_subtrees(t)
        )
        assert oracle_count(t, 7) == expected


def _direct_parity_sums(t, k, root):
    """Independent recomputation of the rooted parity totals.

    Classifies each witness by BFS parity from the root, with no use of
    the weight-product machinery: a witness counts y^(class size) z^edges
    on the side matching its non-root leaf parity, if its degrees fit.
    """
    total_odd, total_even = ZERO, ZERO
    for w in enumerate_connected_subtrees(t):
        if root not in w.vertices:
            continue
        if len(w.vertices) == 1:
            total_odd = total_odd + ONE
            total_even = total_even + Y
            continue
        if any(w.degree(v) > k for v in w.vertices):
            continue
        adj = {v: [] for v in w.vertices}
        for u, v in w.edges:
            adj[u].append(v)
            adj[v].append(u)
        parity = {root: 0}
        stack = [root]
        while stack:
            x = stack.pop()
            for nb in adj[x]:
                if nb not in parity:
                    parity[nb] = parity[x] ^ 1
                    stack.append(nb)
        others = [l for l in w.leaves if l != root]
        if all(parity[l] == 1 for l in others):
            size = sum(1 for v in w.vertices if parity[v] == 1)
            total_odd = total_odd + BiPoly.monomial(1, size, len(w.edges))
        elif all(parity[l] == 0 for l in others):
            size = sum(1 for v in w.vertices if parity[v] == 0)
            total_even = total_even + BiPoly.monomial(1, size, len(w.edges))
    return total_odd, total_even


def test_parity_sums_match_direct_classification():
    for seed in range(6):
        t = random_tree(7, 300 + seed)
        for k in (2, 4):
            for root in t.vertices:
                odd_vec, even_vec = rooted_parity_sums(t, k, root)
                odd_direct, even_direct = _direct_parity_sums(t, k, root)
                assert BiPoly.sum(odd_vec) == odd_direct, (seed, k, root)
                assert BiPoly.sum(even_vec) == even_direct, (seed, k, root)


def test_parity_sums_guards(path3):
    with pytest.raises(KTooSmall):
        rooted_parity_sums(path3, 1, "a")
    with pytest.raises(UnknownVertex):
        rooted_parity_sums(path3, 2, "zzz")


def test_bc_count_sums_over_bc_family_only():
    # under weights with nonzero upper odd entries, non-BC witnesses would
    # carry nonzero formula values; the count must still exclude them
    p4 = parse_edge_list("a b\nb c\nc d")
    k = 3
    odd = (ONE, Y, ZERO, ZERO)
    even = (Y, ZERO, ZERO, ZERO)
    weights = WeightedTree(p4, {v: ParityDegreeVector(odd, even) for v in p4.vertices})
    whole = _witness(p4, "abcd")
    assert not is_bc(whole)  # end leaves sit three apart
    assert bc_subtree_weight(whole, k, weights) != ZERO
    expected = BiPoly.sum(
        bc_subtree_weight(w, k, weights)
        for w in enumerate_connected_subtrees(p4)
        if is_bc(w)
    )
    assert oracle_count(weights, k, "bc") == expected
    assert bc_subtree_weight(whole, k, weights) + expected != expected
