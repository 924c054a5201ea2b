import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtreecount import (
    RatioRecord,
    SubtreeCountError,
    Tree,
    count_all,
    count_bc_all,
    emit_csv,
    mean_ratios,
    oracle_count,
    random_tree,
    ratio_sweep,
)
from subtreecount import bc_enum, subtree_enum
from subtreecount.experiments import (
    _unit_count,
    aggregate_path,
)


def test_unit_weight_counts_equal_evaluated_genfuns():
    # the sweep counts with unit weights; that must equal evaluating the
    # default-weight generating function at y = z = 1
    for seed in (11, 12, 13):
        t = random_tree(9, seed)
        for k in (1, 3, 8):
            assert _unit_count(t, k, "subtree") == count_all(t, k).eval_counts()
        for k in (2, 4, 8):
            assert _unit_count(t, k, "bc") == count_bc_all(t, k).eval_counts()


@st.composite
def sweep_trees(draw):
    """A uniform random tree, a path, a star or a caterpillar (a spine of
    n // 2 vertices, each other vertex on a random spine vertex) of 1 to 40
    vertices, labelled in random order."""
    n = draw(st.integers(1, 40), label="n")
    shape = draw(st.sampled_from(["random", "path", "star", "caterpillar"]), label="shape")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    if shape == "random":
        return random_tree(n, rng.getrandbits(32))
    spine = {"path": n, "star": 1, "caterpillar": max(n // 2, 1)}[shape]
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    parents = [i - 1 if i < spine else rng.randrange(spine) for i in range(1, n)]
    return Tree(labels, [(labels[p], labels[i]) for i, p in enumerate(parents, start=1)])


@given(sweep_trees())
@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
def test_closed_forms_at_caps_0_to_2_equal_the_counts(t):
    # Plain subtrees at caps 0, 1 and 2 and BC-subtrees at cap 2 are paths,
    # so the sweep counts them in closed form; the dynamic program and, up
    # to 10 vertices, the oracle must agree.
    counts = {("subtree", k): count_all(t, k) for k in (0, 1, 2)}
    counts["bc", 2] = count_bc_all(t, 2)
    for (family, k), count in counts.items():
        assert _unit_count(t, k, family) == count.eval_counts(), (family, k)
        if len(t.vertices) <= 10:
            assert count == oracle_count(t, k, family), (family, k)


def test_the_sweep_contracts_no_cap_below_3(monkeypatch):
    # The sweep reads both counts through their module bindings (_family).
    caps = []
    for module, name in ((subtree_enum, "count_all"), (bc_enum, "count_bc_all")):
        count = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda t, k, name=name, count=count: caps.append((name, k)) or count(t, k)
        )
    for family in ("subtree", "bc"):
        ratio_sweep(12, 6, 6, seed=4, family=family)
    assert {name for name, _ in caps} == {"count_all", "count_bc_all"}
    assert min(k for _, k in caps) == 3


def test_p3_sweep_example():
    records = ratio_sweep(3, 4, 2, seed=1, family="subtree")
    by_k = {}
    for rec in records:
        by_k.setdefault(rec.k, []).append(rec.ratio)
    # every 3-vertex tree is a path: eta_cap1 = 5 of 6, cap 2 saturates
    assert by_k[1] == [Fraction(5, 6)] * 4
    assert by_k[2] == [Fraction(1)] * 4


def test_ratios_monotone_and_saturate():
    records = ratio_sweep(8, 6, 7, seed=9, family="subtree")
    per_sample = {}
    for rec in records:
        per_sample.setdefault(rec.sample_id, {})[rec.k] = rec.ratio
    master_trees = {}
    import random as _random

    rng = _random.Random(9)
    seeds = [rng.getrandbits(63) for _ in range(6)]
    for sample_id, ratios in per_sample.items():
        ks = sorted(ratios)
        assert all(0 <= ratios[k] <= 1 for k in ks)
        assert all(ratios[a] <= ratios[b] for a, b in zip(ks, ks[1:]))
        # exact saturation at the sample tree's own maximum degree
        t = random_tree(8, seeds[sample_id])
        assert ratios[max(t.max_degree(), 1)] == 1


def test_sweep_validation():
    with pytest.raises(ValueError) as raised:
        ratio_sweep(3, 2, 1, seed=0, family="spanning")
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:
        ratio_sweep(2, 2, 1, seed=0, family="bc")
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:
        ratio_sweep(5, 2, 5, seed=0)
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:
        ratio_sweep(5, -1, 3, seed=0)
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:  # the BC sweep starts at k = 2
        ratio_sweep(5, 3, 1, 0, "bc")
    assert isinstance(raised.value, SubtreeCountError)


@pytest.mark.parametrize("family", ["subtree", "bc"])
def test_sweep_ratios_are_count_ratios(family):
    count = count_all if family == "subtree" else count_bc_all
    records = ratio_sweep(8, 4, 7, seed=3, family=family)
    rng = random.Random(3)
    trees = [random_tree(8, rng.getrandbits(63)) for _ in range(4)]
    for rec in records:
        t = trees[rec.sample_id]
        expected = Fraction(count(t, rec.k).eval_counts(), count(t, 7).eval_counts())
        assert rec.ratio == expected


def test_emit_csv_empty(tmp_path):
    out = tmp_path / "ratios.csv"
    emit_csv([], out)
    assert out.read_text() == "n,k,sample_id,ratio\n"
    assert aggregate_path(out).read_text() == "n,k,mean_ratio\n"


def test_emit_csv_single_record(tmp_path):
    out = tmp_path / "ratios.csv"
    emit_csv([RatioRecord(3, 1, 0, Fraction(5, 6))], out)
    assert out.read_text() == "n,k,sample_id,ratio\n3,1,0,0.833333\n"
    assert aggregate_path(out).read_text() == "n,k,mean_ratio\n3,1,0.833333\n"


def test_emit_csv_mean_of_equal_samples(tmp_path):
    out = tmp_path / "ratios.csv"
    records = [
        RatioRecord(4, 2, 0, Fraction(1, 2)),
        RatioRecord(4, 2, 1, Fraction(1, 2)),
    ]
    emit_csv(records, out)
    assert aggregate_path(out).read_text() == "n,k,mean_ratio\n4,2,0.500000\n"


def test_sweep_reproduces_byte_for_byte(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(ratio_sweep(7, 5, 4, seed=123, family="bc"), first)
    emit_csv(ratio_sweep(7, 5, 4, seed=123, family="bc"), second)
    assert first.read_bytes() == second.read_bytes()
    assert aggregate_path(first).read_bytes() == aggregate_path(second).read_bytes()


def test_mean_ratios_matches_aggregate_file(tmp_path):
    records = ratio_sweep(6, 4, 3, seed=5)
    means = mean_ratios(records)
    out = tmp_path / "r.csv"
    emit_csv(records, out)
    lines = aggregate_path(out).read_text().splitlines()[1:]
    assert len(lines) == len(means)
    for line in lines:
        n, k, mean = line.split(",")
        assert (int(n), int(k)) in means
