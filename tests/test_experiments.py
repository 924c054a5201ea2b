import decimal
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtreecount import (
    RatioRecord,
    SubtreeCountError,
    TooLarge,
    Tree,
    count_all,
    count_bc_all,
    emit_csv,
    mean_ratios,
    oracle_count,
    random_tree,
    ratio_sweep,
)
from subtreecount import experiments, subtree_enum
from subtreecount.cli import main
from subtreecount.experiments import (
    _csv_context,
    _format_ratio,
    _shared_counts,
    _unit_counts,
    aggregate_path,
)
from subtreecount.tree import _binding_cap

from conftest import sweep_trees


def test_unit_weight_counts_equal_evaluated_genfuns():
    # the sweep counts with unit weights; that must equal evaluating the
    # default-weight generating function at y = z = 1, at every cap up to
    # the one that binds (all of them at once, and the top one alone)
    for seed in (11, 12, 13):
        t = random_tree(9, seed)
        for family, count, lo in (("subtree", count_all, 1), ("bc", count_bc_all, 2)):
            top = _binding_cap(t, 8, family)
            counts = _unit_counts(t, range(lo, top + 1), family)
            assert counts == {k: count(t, k).eval_counts() for k in range(lo, top + 1)}
            assert _unit_counts(t, [top], family) == {top: count(t, 8).eval_counts()}


@given(sweep_trees())
@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
def test_closed_forms_at_caps_0_to_2_equal_the_counts(t):
    # Plain subtrees at caps 0, 1 and 2 and BC-subtrees at cap 2 are paths,
    # so the sweep counts them in closed form; the dynamic program and, up
    # to 10 vertices, the oracle must agree.
    counts = {("subtree", k): count_all(t, k) for k in (0, 1, 2)}
    counts["bc", 2] = count_bc_all(t, 2)
    for (family, k), count in counts.items():
        assert _unit_counts(t, [k], family) == {k: count.eval_counts()}, (family, k)
        if len(t.vertices) <= 10:
            assert count == oracle_count(t, k, family), (family, k)


def _spider(legs, labels):
    """A hub with one leg (a path) of each length in ``legs``, labelled in
    the order of ``labels``."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return Tree(labels[:n], [(labels[a], labels[b]) for a, b in edges])


@st.composite
def core_trees(draw):
    """A sweep tree, a spider (its core is its hub) or a caterpillar whose
    spine vertices carry up to 5 leaves each (its core spreads along the
    spine), labelled in random order."""
    shape = draw(st.sampled_from(["sweep", "spider", "caterpillar"]), label="shape")
    if shape == "sweep":
        return draw(sweep_trees())
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    labels = [f"v{i}" for i in range(40)]
    rng.shuffle(labels)
    if shape == "spider":
        legs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=9), label="legs")
        return _spider(legs, labels)
    hairs = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6), label="hairs")
    parents = list(range(len(hairs) - 1))  # the spine: vertex i + 1 hangs on i
    for i, count in enumerate(hairs):
        parents += [i] * count
    return Tree(labels[: len(parents) + 1],
                [(labels[p], labels[i]) for i, p in enumerate(parents, start=1)])


@given(core_trees())
@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
def test_shared_counts_equal_the_counts_at_every_cap_from_3(t):
    # One contraction onto the core, then one of the subtree connecting it
    # per cap, must give each cap's own count; up to 10 vertices the
    # generating functions must also equal the oracle's.
    caps = range(3, t.max_degree() + 1)
    for family, count in (("subtree", count_all), ("bc", count_bc_all)):
        if not caps:
            continue
        genfuns = [count(t, k) for k in caps]
        assert _shared_counts(t, caps, family) == [g.eval_counts() for g in genfuns], family
        if len(t.vertices) <= 10:
            assert genfuns == [oracle_count(t, k, family) for k in caps], family


def test_the_sweep_contracts_no_cap_below_3(monkeypatch):
    # Every fold of a sweep is at a cap from 3; caps 0 to 2 come in closed form.
    caps = []
    fold = subtree_enum.leaf_update_subtree
    monkeypatch.setattr(
        subtree_enum, "leaf_update_subtree",
        lambda parent, leaf, weight, k: caps.append(k) or fold(parent, leaf, weight, k),
    )
    for family in ("subtree", "bc"):
        ratio_sweep(12, 6, 6, seed=4, family=family)
    assert min(caps) == 3
    # On a spider, caps 3 to 5 share one contraction onto the hub, which
    # folds each other vertex once per pass (two for BC), at cap 5.
    spider = _spider([1, 2, 3, 1, 2], [f"v{i}" for i in range(10)])
    monkeypatch.setattr(experiments, "random_tree", lambda n, seed: spider)
    for family, passes in (("subtree", 1), ("bc", 2)):
        caps.clear()
        ratio_sweep(10, 1, 9, seed=0, family=family)
        assert len(caps) == 9 * passes, family


def test_a_sweep_builds_one_tree_per_sample(monkeypatch):
    # The per-cap walk runs on the sample's own tree: no Tree is built for
    # the subtree connecting its core.  At n = 30 every sample of this sweep
    # has a vertex of degree 4 or more, so it takes the shared contraction.
    built, shared = [], []
    init, counts = Tree.__init__, experiments._shared_counts
    monkeypatch.setattr(Tree, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    monkeypatch.setattr(experiments, "_shared_counts",
                        lambda *a: shared.append(1) or counts(*a))
    for family in ("subtree", "bc"):
        built.clear()
        shared.clear()
        ratio_sweep(30, 8, 6, seed=1, family=family)
        assert len(built) == len(shared) == 8, family


def test_sweeps_past_the_vertex_bound_are_refused_before_any_seed(capsys, monkeypatch, tmp_path):
    # samples * n above MAX_SWEEP_VERTICES: TooLarge (CLI exit 2), at once.
    with pytest.raises(TooLarge):
        ratio_sweep(5, 10**11, 3, 0)
    out = tmp_path / "r.csv"
    argv = ["ratio", "--n", "5", "--samples", str(10**11), "--kmax", "3", "--seed", "0",
            "--out", str(out)]
    assert main(argv) == 2 and not out.exists()
    _, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.setattr(experiments, "MAX_SWEEP_VERTICES", 10)
    assert len(ratio_sweep(5, 2, 3, 0)) == 2 * 3
    with pytest.raises(TooLarge):
        ratio_sweep(5, 3, 3, 0)


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


def test_the_csv_ignores_the_callers_decimal_context(tmp_path):
    # Each CSV rounds in its own context: a caller's rounding mode or traps
    # change no byte of it, and raise nothing.
    records = [RatioRecord(3, 1, 0, Fraction(2, 3)), RatioRecord(3, 1, 1, Fraction(1, 3)),
               RatioRecord(3, 2, 0, Fraction(5, 10**7))]
    expected = tmp_path / "expected.csv"
    emit_csv(records, expected)
    assert expected.read_text().splitlines()[1] == "3,1,0,0.666667"
    for i, setting in enumerate([("rounding", decimal.ROUND_DOWN), ("trap", decimal.Inexact),
                                 ("trap", decimal.Rounded)]):
        out = tmp_path / f"{i}.csv"
        with decimal.localcontext() as ctx:
            if setting[0] == "rounding":
                ctx.rounding = setting[1]
            else:
                ctx.traps[setting[1]] = True
            assert _format_ratio(Fraction(2, 3), _csv_context()) == "0.666667"
            emit_csv(records, out)
        assert out.read_bytes() == expected.read_bytes(), setting
        assert aggregate_path(out).read_bytes() == aggregate_path(expected).read_bytes()


def _old_format(ratio):
    """The CSV's rounding as it was: in a copy of the caller's context."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        value = decimal.Decimal(ratio.numerator) / decimal.Decimal(ratio.denominator)
        return str(value.quantize(decimal.Decimal("0.000001")))


@st.composite
def csv_ratios(draw):
    """A ratio in [0, 1]: 0, 1, one over a denominator up to 2^400, or an
    exact tie at the seventh decimal."""
    kind = draw(st.sampled_from(["zero", "one", "big", "tie"]), label="kind")
    if kind in ("zero", "one"):
        return Fraction(kind == "one")
    if kind == "tie":
        return Fraction(2 * draw(st.integers(0, 10**6 - 1)) + 1, 2 * 10**6)
    den = draw(st.integers(1, 2**400), label="denominator")
    return Fraction(draw(st.integers(0, den), label="numerator"), den)


@given(st.lists(st.tuples(st.integers(3, 4), st.integers(1, 2), csv_ratios()), max_size=12))
@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
def test_csv_arithmetic_equals_the_old_expressions(drawn):
    # Rounding in the CSV's own context and means summed over the lcm of
    # the denominators give what the per-ratio localcontext and the
    # pairwise Fraction sum gave.
    records = [RatioRecord(n, k, i, ratio) for i, (n, k, ratio) in enumerate(drawn)]
    ctx = _csv_context()
    for rec in records:
        assert _format_ratio(rec.ratio, ctx) == _old_format(rec.ratio), rec.ratio
    groups = {}
    for rec in records:
        groups.setdefault((rec.n, rec.k), []).append(rec.ratio)
    old = {key: sum(ratios, Fraction(0)) / len(ratios) for key, ratios in groups.items()}
    means = mean_ratios(records)
    assert means == old
    for key, mean in means.items():
        assert type(mean) is Fraction
        assert _format_ratio(mean, ctx) == _old_format(old[key]), key
