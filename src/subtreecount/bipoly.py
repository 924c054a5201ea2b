"""Exact sparse bivariate polynomial arithmetic.

A polynomial is stored as a dict mapping exponent pairs ``(dy, dz)`` to
positive integer coefficients; pairs that are absent have coefficient
zero.  The indeterminate ``y`` marks vertices and ``z`` marks edges, so a
term ``c*y^a*z^b`` reads "c structures with a marked vertices and b
edges".  Plain counts fall out by evaluating at y = z = 1, which is just
the sum of all coefficients.

Coefficients are Python ints and therefore arbitrary precision: a star on
90 vertices has 2^89 + 89 subtrees, far past any fixed machine width.

Values are immutable after construction and all operations return new
instances, so instances may be shared freely between concurrent runs.

A product with a one-term operand shifts the other operand's exponents and
scales its coefficients; a product with ONE returns the other operand.
Other small products run a double loop over term pairs.  Large operands
are multiplied by Kronecker substitution, so that CPython's big integer
multiplication (Karatsuba) does the inner loop: each operand's terms are
grouped into rows, one diagonal ``dz - dy`` each (a plain-subtree
polynomial is one row), each row is packed into one int with one
byte-aligned slot per ``dy``, every pair of rows is multiplied, and each
product is added into row ``r1 + r2`` and unpacked slot by slot.  The
slot width is exact, not a guess: coefficients are never negative, so
every coefficient of the product, and every partial sum of row products,
is at most ``eval(a) * eval(b)`` (the product of the coefficient sums),
and ``ceil(bit_length(eval(a) * eval(b)) / 8)`` bytes hold it without a
carry.  Which path runs depends only on the operands' shape (see
``_PACK_MIN_TERMS``); all give the same dict.

Canonical text form: terms sorted by (dz, dy) ascending, each rendered as
``c*y^a*z^b`` with ``^1`` elided and zero-exponent factors dropped; the
zero polynomial renders as ``0``.  The JSON form is a list of records
``{"y": int, "z": int, "c": "<decimal string>"}`` in the same order; the
coefficient travels as a decimal string so big values survive decoders
with fixed-width integers.
"""

from __future__ import annotations

import re
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

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for key, coeff in terms.items():
                dy, dz = key
                if not (isinstance(dy, int) and isinstance(dz, int)):
                    raise InvalidArgument(f"exponents must be ints, got {key!r}")
                if dy < 0 or dz < 0:
                    raise InvalidArgument(f"negative exponent in {key!r}")
                if not isinstance(coeff, int):
                    raise InvalidArgument(f"coefficient for {key!r} is not an int")
                if coeff < 0:
                    raise InvalidArgument(f"negative coefficient for {key!r}")
                if coeff:
                    clean[(dy, dz)] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], int]) -> "BiPoly":
        # Trusted constructor: terms already canonical (no zeros, valid keys).
        out = object.__new__(cls)
        out._terms = terms
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
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:  # a monomial shifts and scales the other
            if b == _ONE_TERMS or a == _ONE_TERMS:  # ONE: share the other operand
                return self if b == _ONE_TERMS else other
            mono, other = (a, b) if len(a) == 1 else (b, a)
            ((my, mz), mc), = mono.items()
            shifted = {(y + my, z + mz): c * mc for (y, z), c in other.items()}
            return BiPoly._raw(shifted)
        if len(a) >= _PACK_MIN_TERMS <= len(b):
            (rows_a, slots_a), (rows_b, slots_b) = _row_shape(a), _row_shape(b)
            if (
                len(a) * len(b) >= _PACK_MIN_PAIRS_PER_ROW_PAIR * rows_a * rows_b
                and slots_a <= 2 * len(a)
                and slots_b <= 2 * len(b)
            ):
                return BiPoly._raw(_mul_packed(a, b))
        return BiPoly._raw(_mul_dict(a, b))

    @staticmethod
    def sum(items: Iterable["BiPoly"]) -> "BiPoly":
        """Sum of many polynomials, accumulated in a single dict.

        Zero operands are skipped, and a lone non-zero operand is returned
        itself; the dict is only built once a second non-zero operand
        arrives.  The smaller of the running sum and the next operand is
        walked into a copy of the larger, so the order of the operands does
        not set the cost.  ``a + b`` is the sum of (a, b).
        """
        first, acc = _ZERO, None
        for poly in items:
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
            coeff = int(match.group("c")) if match.group("c") else 1
            dy = 0
            if "y" in term:
                dy = int(match.group("dy")) if match.group("dy") else 1
            dz = 0
            if "z" in term:
                dz = int(match.group("dz")) if match.group("dz") else 1
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
        acc: dict[tuple[int, int], int] = {}
        for rec in records:
            try:
                dy, dz, coeff = int(rec["y"]), int(rec["z"]), int(rec["c"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad term record {rec!r}") from exc
            if dy < 0 or dz < 0 or coeff < 0:
                raise ParseError(f"negative value in term record {rec!r}")
            if (dy, dz) in acc:
                raise ParseError(f"duplicate exponent pair in {rec!r}")
            if coeff:
                acc[(dy, dz)] = coeff
        return cls._raw(acc)


class _RunningSum:
    """A sum of polynomials kept in one term dict, added to as they arrive.

    Unlike ``acc = acc + part``, adding a part costs only its own terms.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict[tuple[int, int], int] = {}

    def add(self, poly: BiPoly) -> None:
        terms = self._terms
        for key, coeff in poly._terms.items():
            terms[key] = terms.get(key, 0) + coeff

    def total(self) -> BiPoly:
        return BiPoly._raw(dict(self._terms))


# When to pack (``BiPoly.__mul__``).  The dict loop costs one step per
# term pair; the packed product costs a few steps per term (packing and
# unpacking) and per pair of rows.  On operands recorded from real counts
# (CHANGES.md has the table), packing lost to the dict loop whenever the
# smaller operand had fewer than 8 terms (a monomial edge weight times a
# long row is the common case) and on 2-D operands with few term pairs
# per row pair, and won above both limits.  A packed row also holds a
# slot for every exponent between its terms, so an operand packs only
# while its rows span at most two slots per term: far-apart exponents
# would cost time and memory in proportion to their gaps.
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


def _row_shape(terms: dict) -> tuple[int, int]:
    """How many rows ``terms`` falls into (see ``_packed_rows``), and how
    many slots those rows span in all."""
    rows: dict[int, list[int]] = {}
    for dy, dz in terms:
        rows.setdefault(dz - dy, []).append(dy)
    return len(rows), sum(max(slots) - min(slots) + 1 for slots in rows.values())


def _packed_rows(terms: dict, width: int) -> dict[int, tuple[int, int]]:
    """Group ``terms`` into rows and pack each row into one int.

    A row is one diagonal ``dz - dy`` and a term's slot is its ``dy``.
    Returns row -> (lowest slot, packed int), slot s of the row at bytes
    ``(s - lowest) * width`` onwards, little-endian.
    """
    rows: dict[int, dict[int, int]] = {}
    for (dy, dz), coeff in terms.items():
        rows.setdefault(dz - dy, {})[dy] = coeff
    packed = {}
    for row, slots in rows.items():
        lowest = min(slots)
        buf = bytearray((max(slots) - lowest + 1) * width)
        for slot, coeff in slots.items():
            at = (slot - lowest) * width
            buf[at : at + width] = coeff.to_bytes(width, "little")
        packed[row] = (lowest, int.from_bytes(buf, "little"))
    return packed


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of two term dicts by Kronecker substitution, row by row.

    Gives the same dict as ``_mul_dict``; the slot width cannot carry (see
    the module docstring).
    """
    width = ((sum(a.values()) * sum(b.values())).bit_length() + 7) // 8
    if not width:  # an operand is zero
        return {}
    bits = 8 * width
    rows_b = _packed_rows(b, width)
    sums: dict[int, tuple[int, int]] = {}  # row -> (lowest slot, packed sum)
    for ra, (la, va) in _packed_rows(a, width).items():
        for rb, (lb, vb) in rows_b.items():
            row, lowest, value = ra + rb, la + lb, va * vb
            prev = sums.get(row)
            if prev is None:
                sums[row] = (lowest, value)
            elif lowest >= prev[0]:
                sums[row] = (prev[0], prev[1] + (value << bits * (lowest - prev[0])))
            else:
                sums[row] = (lowest, value + (prev[1] << bits * (prev[0] - lowest)))
    acc: dict[tuple[int, int], int] = {}
    for row, (lowest, value) in sums.items():
        count = -(-value.bit_length() // bits)
        data = value.to_bytes(count * width, "little")
        for i in range(count):
            coeff = int.from_bytes(data[i * width : (i + 1) * width], "little")
            if coeff:
                slot = lowest + i
                acc[(slot, slot + row)] = coeff
    return acc


_ZERO = BiPoly.zero()
_ONE_TERMS = {(0, 0): 1}

#: Shared immutable constants; safe because instances are never mutated.
ZERO = _ZERO
ONE = BiPoly.one()
Y = BiPoly._raw({(1, 0): 1})
Z = BiPoly._raw({(0, 1): 1})
