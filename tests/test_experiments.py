import random
from fractions import Fraction

import pytest

from subtreecount import (
    RatioRecord,
    SubtreeCountError,
    count_all,
    count_bc_all,
    emit_csv,
    mean_ratios,
    random_tree,
    ratio_sweep,
)
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
