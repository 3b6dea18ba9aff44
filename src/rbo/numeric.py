"""Exact rational scalars and small dense linear algebra.

The scalar type of the entire package is :class:`fractions.Fraction`
(arbitrary-precision numerator and positive denominator, always in lowest
terms).  Vectors and matrices are plain tuples of Fractions so they are
immutable, hashable and safe to share.  Eliminations run on rows scaled
to Python ints, by one fraction-free step (`bareiss_step`) that the LP
tableau's pivots share.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple
Matrix = tuple

_RAT_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
# Every character of a row of integer literals that int() reads as the
# grammar does: such a row skips the grammar's per-literal match.
_INT_CHARS = re.compile(r"[-0-9 \t\n\r\v\f]*")


def rat(value) -> Fraction:
    """Coerce an int, Fraction or `p/q` string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rat_parse(value)
    raise TypeError(f"cannot build a rational from {value!r}")


def rat_parse(text: str) -> Fraction:
    """Parse `p` or `p/q` (q > 0 after sign normalization) exactly.

    Rejects anything outside the integer-slash-integer grammar, in ASCII
    digits, including decimal points, exponents and zero denominators.
    """
    return Fraction(*_literal(text))


def _literal(text) -> tuple:
    """(p, q) of one `rat_parse` literal, q > 0, as written."""
    if not isinstance(text, str):
        raise TypeError(f"expected a rational string, got {text!r}")
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return int(num), int(den or 1)


def rat_parse_scaled(texts: list) -> tuple:
    """(s, ints): a list of `rat_parse` literals read straight into ints,
    as `integer_scaled` gives their values; anything but a list is a
    TypeError.  s, the lcm of the literals' q, divided by the gcd of s
    and the ints, is the least scale: 1 for a list of integers, which
    int() reads with no lcm or gcd."""
    if not isinstance(texts, list):
        raise TypeError(f"expected a list of rational strings, got {texts!r}")
    try:
        if _INT_CHARS.fullmatch("".join(texts)):
            return 1, [int(text) for text in texts]
    except (TypeError, ValueError):
        pass  # the grammar below names the first bad literal
    pairs = [_literal(text) for text in texts]
    s = lcm(*[q for _, q in pairs])
    ints = [p * (s // q) for p, q in pairs]
    g = gcd(s, *ints)
    return s // g, [c // g for c in ints]


def rat_format(value: Fraction) -> str:
    """Render as `p/q`, or just `p` for integers."""
    return str(value)


def rat_format_vector(vec) -> str:
    """Render a vector as `(p/q, ...)`."""
    return "(" + ", ".join([rat_format(v) for v in vec]) + ")"


def rat_parse_nested(data):
    """Parse nested lists of rational strings into nested tuples."""
    if isinstance(data, list):
        return tuple([rat_parse_nested(v) for v in data])
    return rat_parse(data)


def rat_format_nested(data):
    """Render nested tuples of rationals as nested lists of strings."""
    if isinstance(data, tuple):
        return [rat_format_nested(v) for v in data]
    return rat_format(data)


def as_vector(values: Iterable) -> Vector:
    return tuple([rat(v) for v in values])


def as_matrix(rows: Iterable[Iterable], width: Optional[int] = None) -> Matrix:
    """Build a rectangular tuple-of-tuples matrix.

    All rows must share one width; `width` pins the expected column count
    (required to disambiguate matrices with zero rows or zero columns).
    """
    converted = tuple([as_vector(row) for row in rows])
    if converted:
        w = len(converted[0])
        for row in converted:
            if len(row) != w:
                raise ValueError("ragged matrix: inconsistent row widths")
        if width is not None and w != width:
            raise ValueError(f"matrix width {w} != expected {width}")
    return converted


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot dimension mismatch: {len(a)} vs {len(b)}")
    total = ZERO
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


def integer_scaled(values: Sequence) -> tuple:
    """(s, [s*v for v in values] as ints), s the least integer > 0 that
    makes every value integral."""
    s = lcm(*[v.denominator for v in values])
    return s, [v.numerator * (s // v.denominator) for v in values]


def bareiss_step(rows: list, r: int, col: int, d: int) -> int:
    """Pivot the int rows on p = rows[r][col] (Bareiss 1968) in exchange
    (Tucker) form; return the new d = |p|.  Row r is taken times sign(p);
    each other row's other entries turn into (p*a - f*b) // d, f its
    entry in col, exact as each is a minor, which for p == d changes only
    rows with f != 0, on row r's support.  Column col then holds the
    variable that left: -sign*f in each other row, sign*d in row r.
    Changed rows are replaced, never written into, so copies of the row
    list keep their rows."""
    prow = rows[r]
    p, sign = prow[col], 1
    if p < 0:
        prow, p, sign = [-a for a in prow], -p, -1
    rows[r] = [*prow[:col], sign * d, *prow[col + 1:]]
    if p == d:
        support = [(j, b) for j, b in enumerate(prow) if b and j != col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                row = rows[i] = row[:]
                for j, b in support:
                    row[j] -= f * b // d
                row[col] = -sign * f
        return d
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            row = rows[i] = ([(p * a - f * b) // d for a, b in zip(row, prow)]
                             if f else [p * a // d for a in row])
            row[col] = -sign * f
    return p


def eliminate(rows: list, ncols: int) -> tuple:
    """(pivots, rows, d): fraction-free Gauss-Jordan elimination of int
    rows (lists) over their first ncols columns.  Each column with a
    nonzero below the pivot rows so far takes the first such row as the
    next pivot row, swapped up, for one `bareiss_step`.  The rows end
    as [rows | I] eliminated, times d > 0, with column pivots[i] holding
    the column of I of the row that pivot i exchanged out.
    """
    pivots, d = [], 1
    for col in range(ncols):
        found = len(pivots)
        pivot_row = next((i for i in range(found, len(rows)) if rows[i][col]),
                         None)
        if pivot_row is not None:
            rows[found], rows[pivot_row] = rows[pivot_row], rows[found]
            d = bareiss_step(rows, found, col, d)
            pivots.append(col)
    return pivots, rows, d

