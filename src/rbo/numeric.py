"""Exact rational scalars and small dense linear algebra.

The scalar type of the entire package is :class:`fractions.Fraction`
(arbitrary-precision numerator and positive denominator, always in lowest
terms).  Vectors and matrices are plain tuples of Fractions so they are
immutable, hashable and safe to share.  Eliminations scale their rows to
Python ints first and return Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple
Matrix = tuple

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


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

    Rejects anything outside the integer-slash-integer grammar, including
    decimal points, exponents and zero denominators.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a rational string, got {text!r}")
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def rat_format(value: Fraction) -> str:
    """Render as `p/q`, or just `p` for integers."""
    return str(value)


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


def gauss_solve(m: Sequence[Sequence], r: Sequence) -> Optional[Vector]:
    """Solve the square system m*v = r exactly.

    Returns the unique solution, or None when the matrix is singular.
    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on the augmented
    rows scaled to ints, with the first nonzero pivot of each column: a
    row turns into (p*row - f*prow) // d, d the previous pivot, exact as
    every entry is a minor.  Each diagonal entry ends as the determinant.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("gauss_solve requires a square matrix")
    if len(r) != n:
        raise ValueError("right-hand side dimension mismatch")
    aug = [integer_scaled(list(row) + [t])[1] for row, t in zip(m, r)]
    d = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        prow = aug[col]
        p = prow[col]
        for i, row in enumerate(aug):
            f = row[col]
            if i == col:
                continue
            if f:
                aug[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                aug[i] = [p * a // d for a in row]
        d = p
    return tuple([Fraction(aug[i][n], aug[i][i]) for i in range(n)])


def rank(m: Sequence[Sequence]) -> int:
    """The rank of a matrix with at least one row.

    Fraction-free Gaussian elimination (Bareiss 1968) on the rows scaled
    to ints: each column with a nonzero entry below the pivots found so
    far gives the next pivot, and every row below it turns into
    (p*row - f*prow) // d, d the previous pivot.
    """
    rows = [integer_scaled(row)[1] for row in m]
    found, d = 0, 1
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(found, len(rows)) if rows[i][col]),
                         None)
        if pivot_row is None:
            continue
        rows[found], rows[pivot_row] = rows[pivot_row], rows[found]
        prow = rows[found]
        p = prow[col]
        for i in range(found + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // d for a, b in zip(rows[i], prow)]
        found, d = found + 1, p
    return found
