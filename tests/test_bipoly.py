import json
import pickle
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from subtreecount import (
    BiPoly,
    NegativeCoefficient,
    ONE,
    ParseError,
    SubtreeCountError,
    Tree,
    Y,
    Z,
    ZERO,
    bipoly,
    count_all,
    count_bc_all,
    random_tree,
    ratio_sweep,
)
from subtreecount.bipoly import (
    _LINE_MIN_TERMS,
    _Line,
    _PACK_MIN_TERMS,
    _RunningSum,
    _mul_dict,
    _mul_packed,
)

from conftest import _capped_subtrees_by_size

P = BiPoly.parse

exponents = st.tuples(st.integers(0, 7), st.integers(0, 7))
polys = st.dictionaries(exponents, st.integers(1, 50), max_size=8).map(BiPoly)


def test_add_disjoint_terms():
    assert Y + Z == P("y + z")


def test_add_merges_coefficients():
    assert P("y^2*z") + P("y^2*z") == P("2*y^2*z")


def test_add_zero_identity():
    assert ZERO + Y == Y


def test_mul_distributes():
    assert P("y + z") * Y == P("y^2 + y*z")


def test_mul_one_identity():
    assert Y * ONE == Y


def test_mul_binomial_square():
    base = P("y + y*z")
    assert base * base == P("y^2 + 2*y^2*z + y^2*z^2")


def test_subtract_self_is_zero():
    a = P("4*y + 3*y^2*z")
    assert a - a == ZERO


def test_subtract_leaves_extra_terms():
    assert P("4*y + 3*y^2*z + y^3*z^2") - P("4*y + 3*y^2*z") == P("y^3*z^2")


def test_subtract_guards_against_negative():
    with pytest.raises(NegativeCoefficient):
        P("y") - P("2*y")


def test_eval_counts_is_coefficient_sum():
    assert P("3*y + 2*y^2*z + y^3*z^2").eval_counts() == 6
    assert ZERO.eval_counts() == 0
    assert P("23*y^2*z^2 + 13*y^3*z^3").eval_counts() == 36


def test_coefficient_lookup():
    a = P("11*y + 10*y^2*z")
    assert a.coefficient(1, 0) == 11
    assert a.coefficient(2, 1) == 10
    assert Y.coefficient(5, 5) == 0


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError) as raised:
        BiPoly({(-1, 0): 1})
    assert isinstance(raised.value, SubtreeCountError)
    with pytest.raises(ValueError) as raised:
        BiPoly({(0, 0): -2})
    assert isinstance(raised.value, SubtreeCountError)
    assert BiPoly({(1, 1): 0}) == ZERO  # zero coefficients are dropped


def test_canonical_text_ordering():
    a = BiPoly({(8, 7): 24, (3, 2): 1, (4, 3): 8})
    assert str(a) == "1*y^3*z^2 + 8*y^4*z^3 + 24*y^8*z^7"
    assert str(ZERO) == "0"
    assert str(P("7")) == "7"


def test_parse_rejects_garbage():
    for text in ("", "y +", "q^2", "y^-1", "1*"):
        with pytest.raises(ParseError):
            P(text)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no limit on int digits"
)
@pytest.mark.parametrize(
    "text", ["y^" + "9" * 5000, "9" * 5000 + "*y"], ids=["exponent", "coefficient"]
)
def test_parse_refuses_numbers_past_the_int_digit_limit(text):
    with pytest.raises(ParseError):
        P(text)


def test_json_round_trip_shape():
    a = P("2*y^2*z + y^3*z^2")
    records = a.to_json()
    assert records == [
        {"y": 2, "z": 1, "c": "2"},
        {"y": 3, "z": 2, "c": "1"},
    ]
    assert BiPoly.from_json(json.loads(json.dumps(records))) == a


def test_json_rejects_duplicates_and_negatives():
    with pytest.raises(ParseError):
        BiPoly.from_json([{"y": 1, "z": 0, "c": "1"}, {"y": 1, "z": 0, "c": "2"}])
    with pytest.raises(ParseError):
        BiPoly.from_json([{"y": -1, "z": 0, "c": "1"}])


def test_json_takes_only_ints_and_decimal_strings():
    # int() would truncate 1.5 and 2.9, read True as 1 and strip " 7".
    for records in (
        [{"y": 1.5, "z": 0, "c": "1"}],
        [{"y": 1, "z": 0, "c": 2.9}],
        [{"y": True, "z": 0, "c": "1"}],
        [{"y": 1, "z": 0, "c": " 7"}],
        5,
        # Undecoded JSON and a lone record, refused by their type.
        "[]",
        b"[]",
        {"y": 1, "z": 0, "c": "3"},
    ):
        with pytest.raises(ParseError):
            BiPoly.from_json(records)
    for records in ("[]", b"[]", {"y": 1, "z": 0, "c": "3"}):
        with pytest.raises(ParseError, match=f"got a {type(records).__name__}$"):
            BiPoly.from_json(records)
    assert BiPoly.from_json([{"y": "2", "z": 1, "c": 3}]) == P("3*y^2*z")


def test_big_coefficients_survive_json():
    big = 2**200 + 17
    a = BiPoly({(90, 89): big})
    assert BiPoly.from_json(a.to_json()).coefficient(90, 89) == big


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_eval_counts_is_ring_homomorphism(a, b):
    assert (a + b).eval_counts() == a.eval_counts() + b.eval_counts()
    assert (a * b).eval_counts() == a.eval_counts() * b.eval_counts()


@given(polys, polys)
def test_subtract_undoes_add(a, b):
    assert (a + b) - b == a


@given(polys)
def test_text_round_trip(a):
    assert BiPoly.parse(str(a)) == a


@given(polys)
def test_json_round_trip(a):
    assert BiPoly.from_json(a.to_json()) == a


@st.composite
def sum_operands(draw):
    """Zeros, shared and fresh, around no, one or several non-zero polys."""
    items = draw(st.lists(st.sampled_from([ZERO, BiPoly(), BiPoly({(1, 1): 0})]), max_size=4))
    for poly in draw(st.lists(polys.filter(bool), max_size=draw(st.sampled_from([1, 5])))):
        items.insert(draw(st.integers(0, len(items))), poly)
    return items


@given(sum_operands())
@example([])
@example([BiPoly(), P("2*y*z"), ZERO])
def test_sum_shares_a_lone_operand(items):
    before = [poly.terms() for poly in items]
    total = BiPoly.sum(iter(items))
    folded = ZERO
    for poly in items:
        folded = folded + poly
    assert total == folded
    nonzero = [poly for poly in items if poly]
    if len(nonzero) <= 1:
        assert total is (nonzero[0] if nonzero else ZERO)
    assert BiPoly.sum([total, *items, total]) == folded + folded + folded
    assert [poly.terms() for poly in items] == before


@given(sum_operands(), st.randoms(use_true_random=False))
def test_sum_and_add_do_not_depend_on_operand_order(items, rng):
    # Both copy the larger operand, so order sets neither result nor cost.
    before = [poly.terms() for poly in items]
    total = BiPoly.sum(items)
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert BiPoly.sum(shuffled) == total
    for a in items:
        for b in shuffled:
            assert a + b == b + a
    nonzero = [poly for poly in shuffled if poly]
    if len(nonzero) == 1:
        assert BiPoly.sum(shuffled) is nonzero[0]
        assert nonzero[0] + ZERO is nonzero[0] and ZERO + nonzero[0] is nonzero[0]
    assert [poly.terms() for poly in items] == before


class _Unwalked(dict):
    """A term dict that may be copied whole but not walked term by term."""

    def items(self):
        raise AssertionError("the operand with more terms was walked")


class _UnwalkedList(list):
    """A coefficient list that may be copied or sliced whole but not walked."""

    def __iter__(self):
        raise AssertionError("the longer coefficient list was walked")


@given(polys, polys)
def test_sum_and_add_walk_only_the_smaller_operand(a, b):
    small, big = sorted((a, b), key=lambda p: len(p.terms()))
    assume(len(small.terms()) < len(big.terms()))
    watched = BiPoly._raw(_Unwalked(big.terms()))
    expected = BiPoly(dict(Counter(small.terms()) + Counter(big.terms())))
    assert small + watched == watched + small == expected
    assert BiPoly.sum([small, watched]) == BiPoly.sum([watched, ZERO, small]) == expected



def test_shared_constants_survive_counts():
    t = random_tree(12, 5)
    count_all(t, 3)
    count_bc_all(t, 3)
    ratio_sweep(8, 2, 4, 0, "bc")
    assert (ZERO.terms(), ONE.terms(), Y.terms(), Z.terms()) == (
        {}, {(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}
    )


# Operands for the packed product: at least _PACK_MIN_TERMS terms, so
# ``*`` packs them when their rows are long enough.  Single-line operands
# keep dz - dy fixed, as plain-subtree polynomials do; 2-D ones scatter
# over a grid, as BC polynomials do.  Coefficients mix small values with
# values past 2^64.  ``packed`` runs ``_mul_packed``, which takes and gives
# rows (diagonal -> (lowest dy, coefficient list)), on term dicts.
coeffs = st.one_of(st.integers(1, 50), st.integers(2**64, 2**90))


@st.composite
def line_terms(draw, slopes=(1,)):
    """8 to 30 terms on one line dz - slope * dy = offset, with gaps."""
    slope, offset = draw(st.sampled_from(slopes)), draw(st.integers(0, 4))
    slots = draw(st.lists(st.integers(0, 40), min_size=8, max_size=30, unique=True))
    return {(dy, slope * dy + offset): draw(coeffs) for dy in slots}


@st.composite
def dense_lines(
    draw, slope, offset=st.integers(0, 4), low=st.integers(0, 30),
    size=st.integers(_LINE_MIN_TERMS, 40),
):
    """A run of terms on consecutive dy on one line of ``slope``: at least
    _LINE_MIN_TERMS of them by default, so an operation making it lists it.
    The coefficients count up from one drawn value (drawing each one would
    make drawing the slowest part of a test)."""
    offset, low, size, first = draw(offset), draw(low), draw(size), draw(coeffs)
    return {(dy, slope * dy + offset): first + i for i, dy in enumerate(range(low, low + size))}


grid_terms = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), coeffs, min_size=8, max_size=60
)
operands = st.one_of(line_terms(), grid_terms)
small_factors = st.sampled_from([{}, {(0, 0): 1}, {(3, 1): 2**70 + 1}, {(0, 2): 5}])


def rows_of(terms: dict, slope: int = 1) -> dict[int, tuple[int, list[int]]]:
    """``terms`` as rows along ``slope``, offset dz - slope * dy -> (lowest
    dy, coefficient list), however far apart the terms are (the library's
    ``_rows`` refuses sparse ones)."""
    grouped: dict[int, dict[int, int]] = {}
    for (dy, dz), c in terms.items():
        grouped.setdefault(dz - slope * dy, {})[dy] = c
    return {
        row: (min(slots), [slots.get(dy, 0) for dy in range(min(slots), max(slots) + 1)])
        for row, slots in grouped.items()
    }


def packed(a: dict, b: dict) -> dict:
    rows = _mul_packed(rows_of(a), rows_of(b))
    return {
        (low + i, low + i + row): c
        for row, (low, coeffs) in rows.items()
        for i, c in enumerate(coeffs)
        if c
    }


@given(operands, operands)
@example({(i, i): 2**64 + i for i in range(8)}, {(i, i + 1): 1 for i in range(8)})
def test_packed_product_matches_dict_product(a, b):
    expected = _mul_dict(a, b)
    assert packed(a, b) == expected
    assert (BiPoly(a) * BiPoly(b)).terms() == expected


@given(operands, small_factors)
def test_packed_product_with_zero_one_and_monomials(a, m):
    expected = _mul_dict(a, m)
    assert packed(a, m) == expected == packed(m, a)
    assert BiPoly(a) * ZERO == ZERO and BiPoly(a) * ONE == BiPoly(a)


monomials = st.dictionaries(exponents, coeffs, min_size=1, max_size=1)


@given(st.one_of(operands, st.dictionaries(exponents, coeffs, max_size=8)), monomials)
@example({(1, 0): 2**64 + 1, (0, 0): 3}, {(2, 5): 2**70 + 7})
def test_monomial_product_matches_dict_product(a, m):
    expected = _mul_dict(a, m)
    assert (BiPoly(a) * BiPoly(m)).terms() == expected
    assert (BiPoly(m) * BiPoly(a)).terms() == expected


@given(st.one_of(polys, operands.map(BiPoly)))
@example(ONE)
@example(BiPoly.one())
@example(ZERO)
def test_product_with_one_shares_the_other_operand(p):
    before = (p.terms(), ONE.terms())
    left, right = ONE * p, p * ONE
    assert left.terms() == right.terms() == _mul_dict(ONE.terms(), p.terms())
    if not p:  # the zero test comes first and answers the shared ZERO
        assert left is right is ZERO
    else:  # a p equal to ONE may come back as either operand; both are ONE
        assert left is p or (p == ONE and left is ONE)
        assert right is p
    assert (p.terms(), ONE.terms()) == before


def _count_packed(monkeypatch):
    """Record the term counts of every packed product's operands."""
    calls = []

    def counted(a, b):
        calls.append(tuple(sum(len(c) - c.count(0) for _, c in rows.values()) for rows in (a, b)))
        return _mul_packed(a, b)

    monkeypatch.setattr(bipoly, "_mul_packed", counted)
    return calls


def _count_dict_results(monkeypatch):
    """Record the term count of every dict-form result of ``+``, ``*``,
    ``BiPoly.sum`` and ``_RunningSum.total`` with _LINE_MIN_TERMS terms or more."""
    sizes = []

    def watched(operation):
        def run(*args):
            out = operation(*args)
            if out._line is None and len(out._terms) >= _LINE_MIN_TERMS:
                sizes.append(len(out._terms))
            return out

        return run

    for owner, name in ((BiPoly, "__add__"), (BiPoly, "__mul__"), (_RunningSum, "total")):
        monkeypatch.setattr(owner, name, watched(getattr(owner, name)))
    monkeypatch.setattr(BiPoly, "sum", staticmethod(watched(BiPoly.sum)))
    return sizes


def test_long_path_counts_build_no_long_dicts(monkeypatch):
    # Every row of a path lies on one line (slope 1 for plain subtrees,
    # slope 2 for BC ones), so every result past the list threshold, of a
    # fold, a sum or a product, is a list: no fold walks a term dict.
    n = 2000
    labels = [f"v{i:05d}" for i in range(1, n + 1)]
    path = Tree(labels, list(zip(labels, labels[1:])))
    sizes = _count_dict_results(monkeypatch)
    plain, bc = count_all(path, 2), count_bc_all(path, 2)
    assert sizes == []
    assert plain._line[0] == 1 and bc._line[0] == 2
    assert plain.eval_counts() == n * (n + 1) // 2
    assert bc.eval_counts() == sum(n - e for e in range(2, n, 2))


def test_mul_packs_only_long_rows(monkeypatch):
    calls = _count_packed(monkeypatch)
    line = BiPoly({(i, i + 2): i + 1 for i in range(20)})
    assert line * line == BiPoly(_mul_dict(line.terms(), line.terms()))
    assert calls == [(20, 20)]  # one diagonal: a single row along dy
    line * Z  # a monomial factor never packs
    scattered = BiPoly({(i, (7 * i) % 30): 1 for i in range(30)})
    scattered * scattered  # 9 diagonals of about 3 terms: too few pairs per row pair
    columns = BiPoly({(i % 2, i): 1 for i in range(40)})
    columns * columns  # 20 diagonals of 2 terms: too few pairs per row pair
    assert calls == [(20, 20)]
    # One diagonal whose 8 terms span 7,001 slots: far too sparse to pack.
    sparse = BiPoly({(i * 10**3, i * 10**3): 1 for i in range(8)})
    assert sparse * sparse == BiPoly(_mul_dict(sparse.terms(), sparse.terms()))
    assert calls == [(20, 20)]
    # Packed, these would need billions of slots.
    sparse = BiPoly({(i * 10**9, i * 10**9): i + 1 for i in range(8)})
    start = time.perf_counter()
    assert sparse * sparse == BiPoly(_mul_dict(sparse.terms(), sparse.terms()))
    assert time.perf_counter() - start < 1.0
    assert calls == [(20, 20)]
    # The one-row product comes back in the list form, and so does every
    # product of it with a polynomial on one dense diagonal; list times list
    # packs from _PACK_MIN_TERMS entries up, and below that runs schoolbook rows.
    square = line * line
    assert square._line is not None
    assert calls == [(20, 20)] * 2
    short = BiPoly({(i, i): i + 2 for i in range(_PACK_MIN_TERMS - 1)})
    for other in (square, Z, short, line, line * Z):
        product = square * other
        assert product._line is not None
        assert product.terms() == _mul_dict(square.terms(), other.terms())
    assert calls == [(20, 20)] * 2 + [(39, 39), (39, 20), (39, 20)]
    # Off its diagonal, or far from its span, a line falls back to the dict
    # form, and no list spans the gaps.
    del calls[:]
    start = time.perf_counter()
    for other in (sparse, BiPoly({(10**9, 10**9 + 4): 1}), scattered, square + line):
        assert (square * other).terms() == _mul_dict(square.terms(), other.terms())
        total = square + other
        assert total._line is None
        assert total.terms() == dict(Counter(square.terms()) + Counter(other.terms()))
    assert time.perf_counter() - start < 1.0
    assert calls == [(39, 59)]  # square times the two rows of square + line


def test_packed_path_is_exact_past_64_bits(monkeypatch):
    # A complete 8-ary tree: degrees reach 9, so the cap k = 8 binds, and
    # the coefficients of the packed products reach about 2^243.
    labels = [f"v{i}" for i in range(1, 301)]
    edges = [(f"v{(i - 2) // 8 + 1}", f"v{i}") for i in range(2, 301)]
    t = Tree(labels, edges)
    calls = _count_packed(monkeypatch)
    poly = count_all(t, 8)
    assert calls
    assert poly._line is not None  # the running sum kept the list form
    expected = {(a, a - 1): c for a, c in _capped_subtrees_by_size(t, 8).items()}
    assert poly.terms() == expected
    assert poly.max_coefficient() > 2**128


def test_packed_bc_counts_match_the_dict_loop(monkeypatch):
    trees = [random_tree(200, seed) for seed in (1, 2)]
    calls = _count_packed(monkeypatch)
    packed = [count_bc_all(t, 8) for t in trees]
    assert calls
    assert all(poly._line is None for poly in packed)  # BC stays on dicts
    monkeypatch.setattr(bipoly, "_PACK_MIN_TERMS", float("inf"))
    del calls[:]
    assert [count_bc_all(t, 8) for t in trees] == packed
    assert not calls



def product_kinds() -> dict[str, BiPoly]:
    """One operand of each shape that ``*`` tells apart."""
    return {
        "zero": ZERO,
        "ONE": ONE,
        "monomial": BiPoly.monomial(1, 2, 3),
        "monomial, coefficient 3": BiPoly.monomial(3, 1, 4),
        "short dict, one diagonal": BiPoly({(i, i + 1): i + 1 for i in range(3)}),
        "short dict, one diagonal, gaps": BiPoly({(i, i + 1): i + 1 for i in range(0, 10, 2)}),
        "short dict, two diagonals": BiPoly({(0, 0): 1, (1, 1): 2, (1, 2): 3, (2, 3): 4}),
        "long dense dict, one diagonal": BiPoly({(i, i + 1): i + 1 for i in range(20)}),
        "BC count (42 terms, 8 diagonals)": count_bc_all(random_tree(30, 3), 4),
        "long dict, terms 10^5 apart": BiPoly({(i * 10**5, i * 10**5): i + 1 for i in range(8)}),
        "list": _Line._of((1, -1, 1, [3, 1, 0, 2, 1, 1, 5, 1, 1, 1, 2])),
        "list, another diagonal": _Line._of((1, 2, 0, list(range(1, 13)))),
        "list, slope 2": _Line._of((2, -1, 1, [2, 1, 0, 3, 1, 1, 4, 1, 1, 2])),
        "dict past the list threshold, one diagonal": BiPoly(
            {(i, i + 1): i + 1 for i in range(_LINE_MIN_TERMS + 6)}
        ),
    }


# The stored form of each product, row = left operand and column = right
# operand in ``product_kinds`` order: L for the list form, D for the dict.
PRODUCT_FORMS = [
    "DDDDDDDDDDDDDD",
    "DDDDDDDDDDLLLD",
    "DDDDDDDDDDLLLL",
    "DDDDDDDDDDLLLL",
    "DDDDDDDDDDLLDL",
    "DDDDDDDLDDLLDL",
    "DDDDDDDDDDDDDD",
    "DDDDDLDLDDLLDL",
    "DDDDDDDDDDDDDD",
    "DDDDDDDDDDDDDD",
    "DLLLLLDLDDLLDL",
    "DLLLLLDLDDLLDL",
    "DLLLDDDDDDDDLD",
    "DDLLLLDLDDLLDL",
]


def test_every_operand_pair_keeps_its_product_terms_and_form():
    kinds = list(product_kinds().items())
    for (left, a), forms_of_a in zip(kinds, PRODUCT_FORMS, strict=True):
        for (right, b), form in zip(kinds, forms_of_a, strict=True):
            product = a * b
            assert product.terms() == _mul_dict(a.terms(), b.terms()), (left, right)
            assert ("D" if product._line is None else "L") == form, (left, right)


@st.composite
def touching_lines(draw):
    """A line's terms, and a dense, shorter run of terms on its diagonal
    whose span overlaps or touches the line's."""
    a = draw(line_terms())
    (dy, dz), = list(a)[:1]
    low, high = min(y for y, _ in a), max(y for y, _ in a)
    assume(high - low > 8)
    length = draw(st.integers(8, high - low))
    start = draw(st.integers(max(0, low - length), high + 1))
    return a, {(y, y + dz - dy): draw(coeffs) for y in range(start, start + length)}


@given(touching_lines())
def test_list_sums_walk_only_the_shorter_list(lines):
    # The list form's twin of the test above: the longer line is copied
    # whole, the shorter one (a line, or the dict it is made of) walked in.
    a, b = lines
    (diagonal, (low, coeffs)), = rows_of(a).items()
    (_, (low_b, coeffs_b)), = rows_of(b).items()
    watched = _Line._of((1, diagonal, low, _UnwalkedList(coeffs)))
    expected = dict(Counter(a) + Counter(b))
    for small in (BiPoly(b), _Line._of((1, diagonal, low_b, coeffs_b))):
        for total in (small + watched, watched + small, BiPoly.sum([watched, ZERO, small])):
            assert total._line is not None and total.terms() == expected


# The two stored forms.  A term dict on one line of slope 1 or 2 with at
# least _PACK_MIN_TERMS terms can also be held as a coefficient list
# (``_Line``); every operation must give the same terms whichever form each
# operand is in.
SPARSE_LINE = {(i * 10**9, i * 10**9): i + 1 for i in range(8)}


def forms(terms: dict) -> list[BiPoly]:
    """``terms`` in the dict form, and in the list form where it can be held
    so (short enough a span to list: not SPARSE_LINE)."""
    out = [BiPoly(terms)]
    dys = [dy for dy, _ in terms]
    for slope in (1, 2):
        offsets = {dz - slope * dy for dy, dz in terms}
        if len(offsets) == 1 and len(terms) >= _PACK_MIN_TERMS and max(dys) - min(dys) < 200:
            (offset, (low, coeffs)), = rows_of(terms, slope).items()
            out.append(_Line._of((slope, offset, low, coeffs)))
    return out


form_operands = st.one_of(
    line_terms(slopes=(1, 2)),
    dense_lines(1),
    dense_lines(2),
    grid_terms,
    st.dictionaries(exponents, coeffs, max_size=8),
    st.just(SPARSE_LINE),
)


@given(form_operands, form_operands)
@example({(i, i): 2**64 + i for i in range(8)}, {(i, i + 1): 1 for i in range(8)})
@example({(i, i + 2): 2**70 + i for i in range(12)}, SPARSE_LINE)
@example({(i, i): i + 1 for i in range(3, 30)}, {(i, i): 1 for i in range(8)})
@example({(i, 2 * i + 1): i + 1 for i in range(30)}, {(i, 2 * i + 1): 2 for i in range(20, 50)})
@example({(i, i): 1 for i in range(30)}, {(i, 2 * i): 1 for i in range(30)})  # mixed slopes
def test_both_forms_give_the_same_results(a, b):
    start = time.perf_counter()
    product, total = _mul_dict(a, b), dict(Counter(a) + Counter(b))
    twice = dict(Counter(total) + Counter(a))
    for x in forms(a):
        for y in forms(b):
            assert (x * y).terms() == product == (y * x).terms()
            assert (x + y).terms() == total == (y + x).terms()
            assert BiPoly.sum([x, ZERO, y, x]).terms() == twice
            running = _RunningSum()
            for part in (x, y, ZERO, x):
                running.add(part)
            assert running.total().terms() == twice
            assert ((x + y) - y).terms() == a
            for s in forms(total):
                assert (s - y).terms() == a and (s - x).terms() == b
            if a:
                with pytest.raises(NegativeCoefficient):
                    y - (x + y)
    for p in forms(a) + forms(b):
        assert BiPoly.sum([ZERO, p, ZERO]) is (p if p else ZERO)
    for terms in (a, b, product):
        first, *others = forms(terms)
        for other in others:
            assert other == first and first == other and hash(other) == hash(first)
            assert str(other) == str(first) and other.to_json() == first.to_json()
            assert other.eval_counts() == first.eval_counts() == sum(terms.values())
            assert other.max_coefficient() == first.max_coefficient()
            assert bool(other) and other.terms() == terms
    assert time.perf_counter() - start < 1.0


@given(st.sampled_from([1, 2]), st.data())
@example(2, None)
def test_operations_on_one_line_give_lists(slope, data):
    # A shift, a sum whose spans touch and a product of dicts on one line
    # give the dict loop's terms in the list form, whatever form each
    # operand is in; with a line of the other slope they give a dict.
    if data is None:  # a BC path's row: y^(e/2 + 1) z^e for even e
        a, b = ({(e // 2 + 1, e): 3 for e in range(2, 2 * n, 2)} for n in (30, 40))
        m, other = {(1, 2): 1}, {(i, i): 1 for i in range(30)}
    else:
        a = data.draw(dense_lines(slope))
        (low, dz), high, size = min(a), max(a)[0], data.draw(st.integers(2, 40))
        start = st.integers(max(0, low - size), high + 1)  # touching or overlapping a
        b = data.draw(dense_lines(slope, st.just(dz - slope * low), start, st.just(size)))
        m = data.draw(monomials.filter(lambda m: m != {(0, 0): 1}))
        other = data.draw(dense_lines(3 - slope))
    shifted, total, product = _mul_dict(a, m), dict(Counter(a) + Counter(b)), _mul_dict(a, b)
    mixed_total, mixed_product = dict(Counter(a) + Counter(other)), _mul_dict(a, other)
    for x in forms(a):
        for y in forms(b):
            for result, expected in (
                (x * BiPoly(m), shifted),
                (x + y, total),
                (BiPoly.sum([x, ZERO, y]), total),
                (x * y, product),
            ):
                assert result._line is not None and result.terms() == expected
        for y in forms(other):
            for result, expected in ((x + y, mixed_total), (x * y, mixed_product)):
                assert result._line is None and result.terms() == expected


def test_a_list_form_polynomial_pickles_as_a_list():
    path = Tree([f"v{i}" for i in range(31)], [(f"v{i}", f"v{i + 1}") for i in range(30)])
    poly = count_all(path, 2)
    assert type(poly) is _Line
    copy = pickle.loads(pickle.dumps(poly))
    assert type(copy) is _Line and copy._line == poly._line and copy == poly
