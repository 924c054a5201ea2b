"""Argument rules shared by the library, the oracle and the CLI.

Each family's least degree cap holds in every mode: counts of maximum
degree at most k accept k = least and reject k = least - 1 with KTooSmall;
counts of maximum degree exactly k need one more.  Other bad arguments
raise InvalidArgument, never a bare TypeError.
"""

import pytest

from subtreecount import (
    InvalidArgument,
    KTooSmall,
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
