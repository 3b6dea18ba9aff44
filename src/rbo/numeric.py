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


def _eliminate(rows: list, ncols: int) -> tuple:
    """(pivots, rows, d): fraction-free Gauss-Jordan elimination (Bareiss
    1968) of int rows over their first ncols columns.  Each column with a
    nonzero below the pivot rows so far takes the first such row as the
    next pivot row, and every other row turns into (p*row - f*prow) // d,
    d the last pivot, exact as every entry is a minor.  Pivot row i ends
    with d at column pivots[i] and 0 at the other pivot columns.
    """
    pivots, d = [], 1
    for col in range(ncols):
        found = len(pivots)
        pivot_row = next((i for i in range(found, len(rows)) if rows[i][col]),
                         None)
        if pivot_row is None:
            continue
        rows[found], rows[pivot_row] = rows[pivot_row], rows[found]
        prow = rows[found]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i == found:
                continue
            if f:
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                rows[i] = [p * a // d for a in row]
        pivots.append(col)
        d = p
    return pivots, rows, d


def gauss_solve(m: Sequence[Sequence], r: Sequence) -> Optional[Vector]:
    """Solve the square system m*v = r exactly.

    Returns the unique solution, or None when the matrix is singular,
    that is when `_eliminate` on the augmented rows scaled to ints finds
    fewer than n pivots; else v_i is row i's last entry over d.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("gauss_solve requires a square matrix")
    if len(r) != n:
        raise ValueError("right-hand side dimension mismatch")
    pivots, aug, d = _eliminate(
        [integer_scaled(list(row) + [t])[1] for row, t in zip(m, r)], n)
    if len(pivots) < n:
        return None
    return tuple([Fraction(row[n], d) for row in aug])


def span_basis(vectors: Sequence[Sequence]) -> tuple:
    """(basis, coords): the indices of the first linearly independent
    vectors, in order, and each vector's coordinates in them, so that
    vectors[j] = sum_i coords[j][i] * vectors[basis[i]]: the pivot
    columns of `_eliminate` on the vectors as int-scaled columns, and a
    column's pivot-row entries over d.
    """
    basis, rows, d = _eliminate(
        [integer_scaled(row)[1] for row in zip(*vectors)], len(vectors))
    coords = tuple([tuple([Fraction(rows[i][j], d) for i in range(len(basis))])
                    for j in range(len(vectors))])
    return tuple(basis), coords


def rank(m: Sequence[Sequence]) -> int:
    """The rank of a matrix: the number of pivots `_eliminate` finds on
    its transpose, rows scaled to ints."""
    return len(_eliminate([integer_scaled(col)[1] for col in zip(*m)],
                          len(m))[0])
