"""Exact sparse bivariate polynomial arithmetic.

The indeterminate ``y`` marks vertices and ``z`` marks edges, so a term
``c*y^a*z^b`` reads "c structures with a marked vertices and b edges".
Plain counts fall out by evaluating at y = z = 1, which is just the sum of
all coefficients.  Coefficients are Python ints and therefore arbitrary
precision: a star on 90 vertices has 2^89 + 89 subtrees, far past any
fixed machine width.

Values are immutable after construction and all operations return new
instances, so instances may be shared freely between concurrent runs.

Storage.  A polynomial has one of two stored forms; equality, hashing,
text, JSON, ``terms()`` and ``eval_counts()`` depend only on its terms.

* The dict form maps exponent pairs ``(dy, dz)`` to positive
  coefficients; absent pairs have coefficient zero.  Constants,
  monomials and parsed or constructed polynomials start in it, and it
  holds every result whose terms do not lie densely on one line: a BC
  generating function of a branching tree spreads over many lines, and
  anything under ``_LINE_MIN_TERMS`` terms stays a dict.
* The list form (``_Line``) holds a polynomial of at least
  ``_PACK_MIN_TERMS`` terms on one line ``dz - slope * dy = offset``,
  slope 1 or 2, as ``(slope, offset, lowest dy, coefficient list)``,
  entry i being the coefficient of ``y^(lowest + i) * z^(slope * (lowest
  + i) + offset)``.  Plain-subtree generating functions on a Tree lie on
  slope 1 (y^a z^(a-1), or y^a z^a once times an edge weight); the BC ones
  of a path, and many BC rows of other trees, on slope 2 (a BC path of e
  edges is y^(e/2+1) z^e).  Every operation hands back a list when its
  result lies on one such line: a product that comes out as one row (see
  Products), a list plus anything on its line whose span overlaps or
  touches its own (one copy of the longer list and one C-level add), a
  list times a monomial, and any term dict an operation builds (a
  monomial shift, the double loop, a dict merge, ``BiPoly.sum``,
  ``_RunningSum.total``, a difference) that has at least
  ``_LINE_MIN_TERMS`` terms on one line, at most two slots per term.
  Anything else falls back to the dict form, so no list is longer than
  its operands' lists together, or than twice its terms when made from a
  dict, whatever gaps the exponents have.  So a row that grows by one
  term per fold, as a hub's or a path's does, becomes a list once and
  stays one, and each later fold costs C-level list work, not a walk
  over a dict.  The term dict of a list-form polynomial is built only
  when something asks for its terms (text, JSON, equality, a difference,
  an operand the list form cannot take), and kept.

Products.  ``BiPoly.__mul__`` answers zero first, then ONE (by
identity: it returns the other operand).  It finishes a product of two
dicts itself when that is cheap: with a monomial (shift and scale) or
with an operand under ``_PACK_MIN_TERMS`` terms (a double loop over term
pairs).  Every other product, any with a list operand and any of two
larger dicts, takes one path, ``_mul_rows``.  There a list times a
monomial is shifted and scaled (a coefficient of 1 shares the list);
else one converter, ``_rows``, reads each operand as rows along one
slope, one row per line (a list on that slope is its one row): a list
operand's slope, or for two dicts whichever slope gives fewer row
pairs.  Two single rows with a short one run schoolbook rows, one
C-level pass over the longer list each.  Larger operands are multiplied
by Kronecker substitution, so that CPython's big integer multiplication
(Karatsuba) does the inner loop: a row is packed into one int with one
byte-aligned slot per ``dy``, every pair of rows is multiplied, and each
product is added into row ``r1 + r2`` and unpacked slot by slot; a
product of one row is a list.  Operands too sparse, or with too few term
pairs per row pair, take the double loop (see ``_PACK_MIN_TERMS``).  The
slot width is exact: coefficients are never negative, so every
coefficient of the product, and every partial sum of row products, is
at most ``eval(a) * eval(b)``, and slots of its bit length, rounded up
to whole bytes, hold it without a carry.  Which path runs depends only
on the operands' shape; all give the same terms.

Canonical text form: terms sorted by (dz, dy) ascending, each rendered as
``c*y^a*z^b`` with ``^1`` elided and zero-exponent factors dropped; the
zero polynomial renders as ``0``.  The JSON form is a list of records
``{"y": int, "z": int, "c": "<decimal string>"}`` in the same order; the
coefficient travels as a decimal string so big values survive decoders
with fixed-width integers.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Mapping

from .errors import InvalidArgument, NegativeCoefficient, ParseError

# One optional coefficient, then optional y and z factors, '*'-separated.
_TERM_RE = re.compile(
    r"^(?:(?P<c>\d+))?"
    r"(?:(?P<s1>\*?)y(?:\^(?P<dy>\d+))?)?"
    r"(?:(?P<s2>\*?)z(?:\^(?P<dz>\d+))?)?$"
)


class BiPoly:
    """Sparse polynomial in y and z with non-negative integer coefficients."""

    #: ``_line`` is None in the dict form, else see ``_Line``.
    __slots__ = ("_terms", "_line")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for key, coeff in terms.items():
                dy, dz = key
                if not (type(dy) is int and type(dz) is int):
                    raise InvalidArgument(f"exponents must be ints, got {key!r}")
                if dy < 0 or dz < 0:
                    raise InvalidArgument(f"negative exponent in {key!r}")
                if type(coeff) is not int:
                    raise InvalidArgument(f"coefficient for {key!r} is not an int")
                if coeff < 0:
                    raise InvalidArgument(f"negative coefficient for {key!r}")
                if coeff:
                    clean[(dy, dz)] = coeff
        self._terms, self._line = clean, None

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], int]) -> "BiPoly":
        # Trusted constructor: terms already canonical (no zeros, valid keys).
        out = object.__new__(cls)
        out._terms, out._line = terms, None
        return out

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls._raw({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, dy: int, dz: int) -> "BiPoly":
        return cls({(dy, dz): coeff})

    def terms(self) -> dict[tuple[int, int], int]:
        """A copy of the term dict (exponent pair -> coefficient)."""
        return dict(self._terms)

    def coefficient(self, dy: int, dz: int) -> int:
        return self._terms.get((dy, dz), 0)

    def eval_counts(self) -> int:
        """Evaluate at y = z = 1: the sum of all coefficients."""
        return sum(self._terms.values())

    def max_coefficient(self) -> int:
        return max(self._terms.values(), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        """A dict merge, or ``BiPoly.sum`` when an operand is in the list form."""
        if not isinstance(other, BiPoly):
            return NotImplemented
        if (self._line or other._line) is not None:  # either in the list form
            return BiPoly.sum((self, other))
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        return _listed(_merged(a, b))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        """Termwise difference; the subtrahend must be dominated coefficientwise.

        Raises NegativeCoefficient otherwise, which signals that the caller
        violated a monotonicity premise (a bound-k result must dominate the
        bound-(k-1) one).
        """
        if not isinstance(other, BiPoly):
            return NotImplemented
        if other._line is None and not other._terms:
            return self
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            merged = acc.get(key, 0) - coeff
            if merged < 0:
                raise NegativeCoefficient(
                    f"coefficient of y^{key[0]}*z^{key[1]} would become {merged}"
                )
            if merged:
                acc[key] = merged
            else:
                acc.pop(key, None)
        return _listed(acc)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self._line is None and not self._terms or other._line is None and not other._terms:
            return ZERO
        if self is ONE or other is ONE:  # share the other operand
            return other if self is ONE else self
        if (self._line or other._line) is not None:  # either in the list form
            return _mul_rows(self, other)
        a, b = self._terms, other._terms
        if len(a) == 1 or len(b) == 1:  # a monomial shifts and scales the other
            mono, poly = (a, b) if len(a) == 1 else (b, a)
            ((my, mz), mc), = mono.items()
            return _listed({(y + my, z + mz): c * mc for (y, z), c in poly.items()})
        if len(a) < _PACK_MIN_TERMS or len(b) < _PACK_MIN_TERMS:
            return _listed(_mul_dict(a, b))
        return _mul_rows(self, other)

    @staticmethod
    def sum(items: Iterable["BiPoly"]) -> "BiPoly":
        """Sum of many polynomials, accumulated in a single dict.

        Zero operands are skipped, and a lone non-zero operand is returned
        itself; the dict is only built once a second non-zero operand
        arrives.  The smaller of the running sum and the next operand is
        walked into a copy of the larger, so the order of the operands does
        not set the cost.  From the first list-form operand on, the rest
        is a ``_RunningSum``.
        """
        first, acc = ZERO, None
        try:  # no per-operand check: a non-BiPoly fails on its first attribute
            items = iter(items)
            for poly in items:
                if poly._line is not None:
                    total = _RunningSum()
                    total._terms = dict(first._terms) if acc is None else acc
                    total.add(poly)
                    for poly in items:
                        total.add(poly)
                    return total.total()
                terms = poly._terms
                if not terms:
                    continue
                if first is ZERO:
                    first = poly
                    continue
                if acc is None:
                    acc = dict(first._terms)
                if len(terms) > len(acc):
                    terms, acc = acc, dict(terms)
                for key, coeff in terms.items():
                    acc[key] = acc.get(key, 0) + coeff
        except (AttributeError, TypeError) as exc:
            raise InvalidArgument("BiPoly.sum takes an iterable of BiPoly") from exc
        return first if acc is None else _listed(acc)

    def _sorted_keys(self) -> list[tuple[int, int]]:
        return sorted(self._terms, key=lambda key: (key[1], key[0]))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for dy, dz in self._sorted_keys():
            factors = [str(self._terms[(dy, dz)])]
            if dy == 1:
                factors.append("y")
            elif dy > 1:
                factors.append(f"y^{dy}")
            if dz == 1:
                factors.append("z")
            elif dz > 1:
                factors.append(f"z^{dz}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self})"

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        """Parse the canonical text form (leniently: '1*' may be omitted)."""
        stripped = text.strip()
        if stripped == "0":
            return cls.zero()
        if not stripped:
            raise ParseError("empty polynomial text")
        acc: dict[tuple[int, int], int] = {}
        for chunk in stripped.split("+"):
            term = chunk.replace(" ", "")
            if not term:
                raise ParseError(f"empty term in {text!r}")
            match = _TERM_RE.match(term)
            if not match:
                raise ParseError(f"cannot parse term {term!r}")
            c, dy, dz = match.group("c", "dy", "dz")
            try:  # int() refuses more digits than sys.get_int_max_str_digits()
                coeff = int(c) if c else 1
                dy = int(dy) if dy else int("y" in term)
                dz = int(dz) if dz else int("z" in term)
            except ValueError as exc:
                raise ParseError(f"cannot parse term {term!r}: {exc}") from None
            if coeff:
                key = (dy, dz)
                acc[key] = acc.get(key, 0) + coeff
        return cls._raw(acc)

    def to_json(self) -> list[dict]:
        """JSON-ready list of term records in canonical order."""
        return [
            {"y": dy, "z": dz, "c": str(self._terms[(dy, dz)])}
            for dy, dz in self._sorted_keys()
        ]

    @classmethod
    def from_json(cls, records: Iterable[Mapping]) -> "BiPoly":
        """Inverse of ``to_json``.  Each of y, z and c must be an int (not a
        bool) or a decimal string; anything else raises ParseError."""
        # Text, bytes and a lone record iterate too, as characters, ints or keys.
        if isinstance(records, (str, bytes, bytearray, Mapping)) or not isinstance(
            records, Iterable
        ):
            raise ParseError(
                f"a JSON polynomial is a list of term records, got a {type(records).__name__}"
            )
        acc: dict[tuple[int, int], int] = {}
        for rec in records:
            try:
                dy, dz, coeff = (_json_int(rec[name]) for name in "yzc")
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad term record {rec!r}") from exc
            if dy < 0 or dz < 0 or coeff < 0:
                raise ParseError(f"negative value in term record {rec!r}")
            if (dy, dz) in acc:
                raise ParseError(f"duplicate exponent pair in {rec!r}")
            if coeff:
                acc[(dy, dz)] = coeff
        return cls._raw(acc)


# The ``_terms`` slot itself: ``_Line`` hides it behind a property and
# keeps the term dict there once built.
_TERM_SLOT = BiPoly.__dict__["_terms"]


class _Line(BiPoly):
    """The list form (see the module docstring).  ``_line`` is ``(slope,
    offset, lowest dy, coefficients)``, entry i the coefficient of
    ``y^(lowest + i) * z^(slope * (lowest + i) + offset)``: at least
    ``_PACK_MIN_TERMS`` non-zero coefficients, the first and the last of
    them non-zero."""

    __slots__ = ()

    @classmethod
    def _of(cls, line: tuple[int, int, int, list[int]]) -> "_Line":
        out = object.__new__(cls)
        out._line = line
        return out

    @property
    def _terms(self) -> dict[tuple[int, int], int]:
        """The term dict, built on first use and kept."""
        try:
            return _TERM_SLOT.__get__(self)
        except AttributeError:
            slope, offset, low, coeffs = self._line
            terms = {(dy, slope * dy + offset): c for dy, c in enumerate(coeffs, low) if c}
            _TERM_SLOT.__set__(self, terms)
            return terms

    def eval_counts(self) -> int:
        return sum(self._line[3])

    def __bool__(self) -> bool:
        return True

    def __reduce__(self):
        return _Line._of, (self._line,)


def _json_int(value: object) -> int:
    """An int, or the int a decimal string spells; TypeError otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.lstrip("-").isdigit():
        return int(value)
    raise TypeError(f"not an int or a decimal string: {value!r}")


# The lines a list may lie on: dz - slope * dy fixed.  Plain-subtree
# polynomials lie on slope 1 (y^a z^(a-1)), BC ones often on slope 2 (a
# BC path's y^(e/2+1) z^e).  A term dict made by an operation becomes a
# list from ``_LINE_MIN_TERMS`` terms on: below that, checking and
# converting cost more than the list form saves (CHANGES.md has the
# measurements).
_SLOPES = (1, 2)
_LINE_MIN_TERMS = 24


def _listed(terms: dict[tuple[int, int], int]) -> BiPoly:
    """``terms`` (canonical, now owned by the result) in the list form if
    there are at least ``_LINE_MIN_TERMS`` of them on one line, at most two
    slots per term; else in the dict form."""
    if len(terms) >= _LINE_MIN_TERMS:
        for slope in _SLOPES:
            line = _line_of(terms, slope)
            if line is not None:
                return _Line._of((slope, *line))
    out = object.__new__(BiPoly)  # BiPoly._raw, inlined: this runs once per operation
    out._terms, out._line = terms, None
    return out


def _line_of(terms: dict[tuple[int, int], int], slope: int) -> tuple[int, int, list[int]] | None:
    """``(offset, lowest dy, coefficients)`` of a non-empty term dict on one
    line ``dz - slope * dy = offset`` spanning at most two slots per term;
    else None, as soon as a term leaves the line."""
    keys = iter(terms)
    dy, dz = next(keys)
    offset, low, high = dz - slope * dy, dy, dy
    for dy, dz in keys:
        if dz - slope * dy != offset:
            return None
        if dy < low:
            low = dy
        elif dy > high:
            high = dy
    if high - low >= 2 * len(terms):
        return None
    coeffs = [0] * (high - low + 1)
    for (dy, _), coeff in terms.items():
        coeffs[dy - low] = coeff
    return offset, low, coeffs


def _merged(a: dict, b: dict) -> dict:
    """a + b as a new term dict: the smaller walked into a copy of the larger,
    so the order of the operands does not set the cost."""
    if len(a) < len(b):
        a, b = b, a
    acc = dict(a)
    for key, coeff in b.items():
        acc[key] = acc.get(key, 0) + coeff
    return acc


def _absorb(
    line: tuple[int, int, int, list[int]], poly: BiPoly, owned: bool
) -> tuple[int, int, int, list[int]] | None:
    """``line`` plus the non-zero ``poly`` as one line, if ``poly`` lies on
    it (read as ``_line_of`` reads a dict) and their spans overlap or touch;
    else None.  The shorter list is added into a copy of the longer in one
    C-level pass; ``line``'s own list is written in place when ``owned``."""
    slope, offset, low, coeffs = line
    if poly._line is not None:
        s, o, l, c = poly._line
        if s != slope or o != offset:
            return None
    else:
        row = _line_of(poly._terms, slope)
        if row is None or row[0] != offset:
            return None
        _, l, c = row
    if l > low + len(coeffs) or l + len(c) < low:
        return None
    if len(c) > len(coeffs):
        (low, coeffs), (l, c), owned = (l, c), (low, coeffs), False
    if l < low:
        coeffs, low = [0] * (low - l) + coeffs, l
    elif not owned:
        coeffs = coeffs[:]
    at, end = l - low, l - low + len(c)
    coeffs += [0] * (end - len(coeffs))
    coeffs[at:end] = map(add, coeffs[at:end], c)
    return slope, offset, low, coeffs


class _RunningSum:
    """A sum of polynomials, added to as they arrive.

    Unlike ``acc = acc + part``, adding a part costs only its own terms:
    dict-form parts go into one term dict.  List-form parts on one line
    go into one coefficient list, the first part shared until a second
    arrives; then the longer list is copied once and the shorter added
    into it, and later parts are added into that copy.
    """

    __slots__ = ("_terms", "_line", "_owned")

    def __init__(self):
        self._terms: dict[tuple[int, int], int] = {}
        self._line: _Line | None = None  # the sum of the list-form parts
        self._owned = False  # whether _line's list is this sum's own copy

    def add(self, poly: BiPoly) -> None:
        if poly._line is not None:
            if self._line is None:
                self._line = poly
                return
            line = _absorb(self._line._line, poly, self._owned)
            if line is not None:
                self._line, self._owned = _Line._of(line), True
                return
        terms = self._terms
        for key, coeff in poly._terms.items():
            terms[key] = terms.get(key, 0) + coeff

    def total(self) -> BiPoly:
        line, terms = self._line, self._terms
        if line is None:
            return _listed(dict(terms))
        if terms:
            merged = _absorb(line._line, BiPoly._raw(terms), self._owned)
            if merged is None:
                return _listed(_merged(line._terms, terms))
            line = self._line = _Line._of(merged)
            self._terms = {}
        self._owned = False  # the result holds the list now; a later add copies it
        return line


def _mul_rows(p: BiPoly, q: BiPoly) -> BiPoly:
    """p * q, neither zero nor ONE, with p or q in the list form, or with two
    dicts of ``_PACK_MIN_TERMS`` terms or more (see the module docstring)."""
    if p._line is None:
        p, q = q, p
    if q._line is None and len(q._terms) == 1:  # a list times a monomial
        slope, offset, low, coeffs = p._line
        ((my, mz), mc), = q._terms.items()
        scaled = coeffs if mc == 1 else [c * mc for c in coeffs]
        return _Line._of((slope, offset + mz - slope * my, low + my, scaled))
    # Rows along a list operand's slope; for two dicts, the fewer row pairs.
    slopes = {x._line[0] for x in (p, q) if x._line is not None} or _SLOPES
    row_pairs, slope = min((_row_count(p, s) * _row_count(q, s), s) for s in slopes)
    if row_pairs > 1:  # else the product is one row: a list
        n_p, n_q = _size(p), _size(q)
        if not n_p >= _PACK_MIN_TERMS <= n_q or n_p * n_q < _PACK_MIN_PAIRS_PER_ROW_PAIR * row_pairs:
            return _listed(_mul_dict(p._terms, q._terms))
    rows_p, rows_q = _rows(p, slope), _rows(q, slope)
    if rows_p is None or rows_q is None:
        return _listed(_mul_dict(p._terms, q._terms))
    if row_pairs == 1:
        ((dp, (lp, cp)),), ((dq, (lq, cq)),) = rows_p.items(), rows_q.items()
        if len(cp) < len(cq):
            cp, cq = cq, cp
        if len(cq) < _PACK_MIN_TERMS:  # one scaled copy of the longer list per entry
            n = len(cp)
            out = [0] * (n + len(cq) - 1)
            for i, x in enumerate(cq):
                if x:
                    row = cp if x == 1 else map(mul, cp, repeat(x))
                    out[i : i + n] = map(add, out[i : i + n], row)
            return _Line._of((slope, dp + dq, lp + lq, out))
    rows = _mul_packed(rows_p, rows_q)
    if len(rows) == 1:
        ((offset, (low, coeffs)),) = rows.items()
        return _Line._of((slope, offset, low, coeffs))
    return BiPoly._raw({
        (dy, slope * dy + row): c
        for row, (low, coeffs) in rows.items()
        for dy, c in enumerate(coeffs, low)
        if c
    })


# When to pack (``_mul_rows``).  The dict loop costs one step per
# term pair; the packed product costs a few steps per term (packing and
# unpacking) and per pair of rows.  On operands recorded from real counts
# (CHANGES.md has the table), packing lost to the dict loop whenever the
# smaller operand had fewer than 8 terms (a monomial edge weight times a
# long row is the common case) and on 2-D operands with few term pairs
# per row pair, and won above both limits.  A packed row also holds a
# slot for every exponent between its terms, so an operand packs only
# while its rows span at most two slots per term: far-apart exponents
# would cost time and memory in proportion to their gaps.  Two coefficient
# lists multiply by schoolbook rows, each one C-level pass over the longer
# list, until the shorter has ``_PACK_MIN_TERMS`` entries: on the operand
# pairs of plain counts at n = 800, packing won from about 6 entries on.
_PACK_MIN_TERMS = 8
_PACK_MIN_PAIRS_PER_ROW_PAIR = 16


def _mul_dict(a: dict, b: dict) -> dict:
    """Product of two term dicts by the double loop over term pairs."""
    if len(a) < len(b):  # fewer outer iterations
        a, b = b, a
    acc: dict[tuple[int, int], int] = {}
    for (ay, az), ac in a.items():
        for (by, bz), bc in b.items():
            key = (ay + by, az + bz)
            acc[key] = acc.get(key, 0) + ac * bc
    return acc


def _size(poly: BiPoly) -> int:
    """How many terms ``poly`` has, counted without building a term dict."""
    if poly._line is None:
        return len(poly._terms)
    coeffs = poly._line[3]
    return len(coeffs) - coeffs.count(0)


def _row_count(poly: BiPoly, slope: int) -> int:
    """How many rows ``poly`` has along ``slope``, counted without building them."""
    line = poly._line
    if line is not None and line[0] == slope:
        return 1
    return len({dz - slope * dy for dy, dz in poly._terms})


def _rows(poly: BiPoly, slope: int) -> dict[int, tuple[int, list[int]]] | None:
    """``poly`` as rows along ``slope``, offset dz - slope * dy -> (lowest dy,
    coefficient list up to its highest dy): a list on that slope is its one
    row, and any other polynomial's terms are grouped by offset, or None if
    the rows would span over two slots per term."""
    line = poly._line
    if line is not None and line[0] == slope:
        return {line[1]: (line[2], line[3])}
    grouped: dict[int, dict[int, int]] = {}
    for (dy, dz), coeff in poly._terms.items():
        grouped.setdefault(dz - slope * dy, {})[dy] = coeff
    spans = {row: (min(slots), max(slots)) for row, slots in grouped.items()}
    if sum(high - low + 1 for low, high in spans.values()) > 2 * len(poly._terms):
        return None
    rows = {}
    for row, slots in grouped.items():
        low, high = spans[row]
        coeffs = [0] * (high - low + 1)
        for slot, coeff in slots.items():
            coeffs[slot - low] = coeff
        rows[row] = (low, coeffs)
    return rows


def _mul_packed(
    rows_a: dict[int, tuple[int, list[int]]], rows_b: dict[int, tuple[int, list[int]]]
) -> dict[int, tuple[int, list[int]]]:
    """Product of two polynomials given as rows, by Kronecker substitution.

    A row maps an offset dz - slope * dy, one slope for both operands, to
    (lowest dy, coefficient list), the list non-zero at both ends; the
    product comes back the same way.  The slot width cannot carry (see the
    module docstring).
    """
    total_a = sum(sum(coeffs) for _, coeffs in rows_a.values())
    total_b = sum(sum(coeffs) for _, coeffs in rows_b.values())
    width = ((total_a * total_b).bit_length() + 7) // 8
    if not width:  # an operand is zero
        return {}
    bits = 8 * width
    packed_b = [(rb, lb, _pack(cb, width)) for rb, (lb, cb) in rows_b.items()]
    sums: dict[int, tuple[int, int]] = {}  # row -> (lowest slot, packed sum)
    for ra, (la, ca) in rows_a.items():
        va = _pack(ca, width)
        for rb, lb, vb in packed_b:
            row, lowest, value = ra + rb, la + lb, va * vb
            prev = sums.get(row)
            if prev is None:
                sums[row] = (lowest, value)
            elif lowest >= prev[0]:
                sums[row] = (prev[0], prev[1] + (value << bits * (lowest - prev[0])))
            else:
                sums[row] = (lowest, value + (prev[1] << bits * (prev[0] - lowest)))
    out = {}
    for row, (lowest, value) in sums.items():
        data = value.to_bytes(-(-value.bit_length() // bits) * width, "little")
        slices = [data[i : i + width] for i in range(0, len(data), width)]
        out[row] = (lowest, list(map(int.from_bytes, slices, repeat("little"))))
    return out


def _pack(coeffs: list[int], width: int) -> int:
    """One int holding ``coeffs`` in slots of ``width`` bytes, little-endian."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


#: Shared immutable constants; safe because instances are never mutated.
ZERO = BiPoly.zero()
ONE = BiPoly.one()
Y = BiPoly._raw({(1, 0): 1})
Z = BiPoly._raw({(0, 1): 1})


class _Ring:
    """A coefficient ring the counts run on: its zero and one, the sum of an
    iterable, a running sum (``add`` parts as they arrive, then ``total()``)
    and whether a value belongs to it."""

    __slots__ = ("zero", "one", "sum", "running_sum", "has")

    def __init__(self, zero, one, sum: Callable, running_sum: Callable, has: Callable):
        self.zero, self.one, self.sum, self.running_sum, self.has = zero, one, sum, running_sum, has


class _IntSum:
    """The running sum of plain ints."""

    __slots__ = ("_total",)

    def __init__(self):
        self._total = 0

    def add(self, part: int) -> None:
        self._total += part

    def total(self) -> int:
        return self._total


#: The generating functions' ring, and the plain ints a count needs when no
#: generating function is asked for: the same dynamic program started from
#: the unit weights 1 in place of y and z, so it computes ``eval_counts()``
#: of the BiPoly result (evaluation at y = z = 1 is a ring homomorphism).
#: ``BiPoly.sum`` is looked up on each call, so one re-bound on the class
#: (by a tracer) is the one called.
_POLYS = _Ring(ZERO, ONE, lambda items: BiPoly.sum(items), _RunningSum,
               lambda x: isinstance(x, BiPoly))
_INTS = _Ring(0, 1, sum, _IntSum, lambda x: type(x) is int)


def _ring_of(value: object) -> _Ring:
    """The ring ``value`` is taken from: plain ints for an int (no bool), else BiPoly."""
    return _INTS if type(value) is int else _POLYS
