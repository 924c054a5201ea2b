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
  coefficients; absent pairs have coefficient zero.  Every polynomial
  starts in it: constants, monomials, parsed ones, BC generating
  functions (whose terms spread over many diagonals ``dz - dy``) and
  anything under ``_PACK_MIN_TERMS`` terms.
* The list form (``_Line``) holds a polynomial of at least
  ``_PACK_MIN_TERMS`` terms on one diagonal as ``(diagonal, lowest dy,
  coefficient list)``, entry i being the coefficient of
  ``y^(lowest + i) * z^(lowest + i + diagonal)``.  Plain-subtree
  generating functions on a Tree lie on one diagonal (y^a z^(a-1), or
  y^a z^a once times an edge weight), so nearly all their large products
  and sums run on lists.  A product is a list when it comes out as one
  row (see Products); a sum is, when its list parts lie on one diagonal
  and their spans overlap or touch.  Any other combination falls back to
  the dict form, so no list is longer than its operands' lists together,
  whatever gaps the exponents have.  The term dict of a list-form
  polynomial is built only when something asks for its terms (text,
  JSON, equality, a difference, an operand the list form cannot take),
  and kept.

Products.  ``BiPoly.__mul__`` finishes a product of two dicts itself
when that is cheap: with zero, with ONE (it returns the other operand),
with a monomial (shift and scale) or with an operand under
``_PACK_MIN_TERMS`` terms (a double loop over term pairs).  Every other
product, any with a list operand and any of two larger dicts, takes one
path, ``_mul_rows``.  There a list times zero, ONE or a monomial is
shifted and scaled (a coefficient of 1 shares the list); else one
converter, ``_rows``, reads each operand as rows, one per diagonal (a
list is its one row).  Two single rows with a short one run schoolbook
rows, one C-level pass over the longer list each.  Larger operands are
multiplied by Kronecker substitution, so that CPython's big integer
multiplication (Karatsuba) does the inner loop: a row is packed into one
int with one byte-aligned slot per ``dy``, every pair of rows is
multiplied, and each product is added into row ``r1 + r2`` and unpacked
slot by slot; a product of one row is a list.  Operands too sparse, or
with too few term pairs per row pair, take the double loop (see
``_PACK_MIN_TERMS``).  The slot width is exact: coefficients are never
negative, so every coefficient of the product, and every partial sum of
row products, is at most ``eval(a) * eval(b)``, and slots of its bit
length, rounded up to whole bytes, hold it without a carry.  Which path
runs depends only on the operands' shape; all give the same terms.

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
from typing import Iterable, Mapping

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
        if not isinstance(other, BiPoly):
            return NotImplemented
        return BiPoly.sum((self, other))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        """Termwise difference; the subtrahend must be dominated coefficientwise.

        Raises NegativeCoefficient otherwise, which signals that the caller
        violated a monotonicity premise (a bound-k result must dominate the
        bound-(k-1) one).
        """
        if not isinstance(other, BiPoly):
            return NotImplemented
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
        return BiPoly._raw(acc)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        if (self._line or other._line) is not None:  # either in the list form
            return _mul_rows(self, other)
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:  # a monomial shifts and scales the other
            one = ONE._terms
            if b == one or a == one:  # ONE: share the other operand
                return self if b == one else other
            mono, other = (a, b) if len(a) == 1 else (b, a)
            ((my, mz), mc), = mono.items()
            shifted = {(y + my, z + mz): c * mc for (y, z), c in other.items()}
            return BiPoly._raw(shifted)
        if len(a) < _PACK_MIN_TERMS or len(b) < _PACK_MIN_TERMS:
            return BiPoly._raw(_mul_dict(a, b))
        return _mul_rows(self, other)

    @staticmethod
    def sum(items: Iterable["BiPoly"]) -> "BiPoly":
        """Sum of many polynomials, accumulated in a single dict.

        Zero operands are skipped, and a lone non-zero operand is returned
        itself; the dict is only built once a second non-zero operand
        arrives.  The smaller of the running sum and the next operand is
        walked into a copy of the larger, so the order of the operands does
        not set the cost.  From the first list-form operand on, the rest
        is a ``_RunningSum``.  ``a + b`` is the sum of (a, b).
        """
        first, acc = _ZERO, None
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
            if first is _ZERO:
                first = poly
                continue
            if acc is None:
                acc = dict(first._terms)
            if len(terms) > len(acc):
                terms, acc = acc, dict(terms)
            for key, coeff in terms.items():
                acc[key] = acc.get(key, 0) + coeff
        return first if acc is None else BiPoly._raw(acc)

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
        if not isinstance(records, Iterable):
            raise ParseError(f"a JSON polynomial is a list of term records, got {records!r}")
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
    """The list form (see the module docstring).  ``_line`` is ``(diagonal,
    lowest dy, coefficients)``: at least ``_PACK_MIN_TERMS`` non-zero
    coefficients, the first and the last of them non-zero."""

    __slots__ = ()

    @classmethod
    def _of(cls, line: tuple[int, int, list[int]]) -> "_Line":
        out = object.__new__(cls)
        out._line = line
        return out

    @property
    def _terms(self) -> dict[tuple[int, int], int]:
        """The term dict, built on first use and kept."""
        try:
            return _TERM_SLOT.__get__(self)
        except AttributeError:
            diagonal, low, coeffs = self._line
            terms = {(low + i, low + i + diagonal): c for i, c in enumerate(coeffs) if c}
            _TERM_SLOT.__set__(self, terms)
            return terms

    def eval_counts(self) -> int:
        return sum(self._line[2])

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


class _RunningSum:
    """A sum of polynomials, added to as they arrive.

    Unlike ``acc = acc + part``, adding a part costs only its own terms:
    dict-form parts go into one term dict.  List-form parts on one
    diagonal go into one coefficient list, the first part shared until a
    second arrives; then the longer list is copied once and the shorter
    walked into it, and later parts are walked into that copy.
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
            if self._absorb(_rows(poly)):
                return
        terms = self._terms
        for key, coeff in poly._terms.items():
            terms[key] = terms.get(key, 0) + coeff

    def _absorb(self, rows: dict[int, tuple[int, list[int]]] | None) -> bool:
        """Add a polynomial's rows (``_rows``) into ``_line`` if they are one
        row on its diagonal whose span overlaps or touches; else return False."""
        diagonal, low, coeffs = self._line._line
        if rows is None or rows.keys() != {diagonal}:
            return False
        l, c = rows[diagonal]
        if l > low + len(coeffs) or l + len(c) < low:
            return False
        owned = self._owned
        if len(c) > len(coeffs):  # walk the shorter list into a copy of the longer
            (low, coeffs), (l, c), owned = (l, c), (low, coeffs), False
        if l < low:
            coeffs, low = [0] * (low - l) + coeffs, l
        elif not owned:
            coeffs = coeffs[:]
        at, end = l - low, l - low + len(c)
        coeffs += [0] * (end - len(coeffs))
        coeffs[at:end] = map(add, coeffs[at:end], c)
        self._line, self._owned = _Line._of((diagonal, low, coeffs)), True
        return True

    def total(self) -> BiPoly:
        line, terms = self._line, self._terms
        if line is None:
            return BiPoly._raw(dict(terms))
        if terms:
            if not self._absorb(_rows(BiPoly._raw(terms))):
                merged = dict(line._terms)
                for key, coeff in terms.items():
                    merged[key] = merged.get(key, 0) + coeff
                return BiPoly._raw(merged)
            line, self._terms = self._line, {}
        self._owned = False  # the result holds the list now; a later add copies it
        return line


def _mul_rows(p: BiPoly, q: BiPoly) -> BiPoly:
    """p * q with p or q in the list form, or with two dicts of
    ``_PACK_MIN_TERMS`` terms or more (see the module docstring)."""
    if p._line is None:
        p, q = q, p
    if q._line is None and len(q._terms) <= 1:  # a list times zero, ONE or a monomial
        if not q._terms:
            return _ZERO
        diagonal, low, coeffs = p._line
        ((my, mz), mc), = q._terms.items()
        if mc == 1:
            return p if my == mz == 0 else _Line._of((diagonal + mz - my, low + my, coeffs))
        return _Line._of((diagonal + mz - my, low + my, [c * mc for c in coeffs]))
    row_pairs = _diagonals(p) * _diagonals(q)  # counted before any row is built
    if row_pairs > 1:  # else the product is one row: a list
        n_q = len(q._terms)  # a dict: p is the list if either is
        n_p = len(p._terms) if p._line is None else len(p._line[2]) - p._line[2].count(0)
        if not n_p >= _PACK_MIN_TERMS <= n_q or n_p * n_q < _PACK_MIN_PAIRS_PER_ROW_PAIR * row_pairs:
            return BiPoly._raw(_mul_dict(p._terms, q._terms))
    rows_p, rows_q = _rows(p), _rows(q)
    if rows_p is None or rows_q is None:
        return BiPoly._raw(_mul_dict(p._terms, q._terms))
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
            return _Line._of((dp + dq, lp + lq, out))
    rows = _mul_packed(rows_p, rows_q)
    if len(rows) == 1:
        ((diagonal, (low, coeffs)),) = rows.items()
        return _Line._of((diagonal, low, coeffs))
    return BiPoly._raw({
        (low + i, low + i + row): c
        for row, (low, coeffs) in rows.items()
        for i, c in enumerate(coeffs)
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


def _diagonals(poly: BiPoly) -> int:
    """How many rows ``poly`` has, counted without building them."""
    return 1 if poly._line is not None else len({dz - dy for dy, dz in poly._terms})


def _rows(poly: BiPoly) -> dict[int, tuple[int, list[int]]] | None:
    """``poly`` as rows, diagonal dz - dy -> (lowest dy, coefficient list up
    to its highest dy): a list is its one row, and a dict's terms grouped by
    diagonal, or None if the rows would span over two slots per term."""
    if poly._line is not None:
        diagonal, low, coeffs = poly._line
        return {diagonal: (low, coeffs)}
    grouped: dict[int, dict[int, int]] = {}
    for (dy, dz), coeff in poly._terms.items():
        grouped.setdefault(dz - dy, {})[dy] = coeff
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

    A row maps a diagonal dz - dy to (lowest dy, coefficient list), the
    list non-zero at both ends; the product comes back the same way.  The
    slot width cannot carry (see the module docstring).
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


_ZERO = BiPoly.zero()

#: Shared immutable constants; safe because instances are never mutated.
ZERO = _ZERO
ONE = BiPoly.one()
Y = BiPoly._raw({(1, 0): 1})
Z = BiPoly._raw({(0, 1): 1})
