from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbo.numeric import (
    as_matrix,
    as_vector,
    dot,
    gauss_solve,
    rat_format,
    rat_parse,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)


def test_parse_reduces():
    assert rat_parse("3/6") == F(1, 2)
    assert rat_parse("-4") == F(-4)
    assert rat_parse("0/5") == 0


def test_parse_rejects_bad_literals():
    for text in ("7/0", "1.5", "2e3", "1/2/3", "", "one", "--3", "1 / 2"):
        with pytest.raises(ValueError):
            rat_parse(text)


def test_format_round_trips():
    for value in (F(1, 2), F(-4), F(0), F(22, 7)):
        assert rat_parse(rat_format(value)) == value


def test_gauss_identity():
    assert gauss_solve([[1, 0], [0, 1]], [1, 2]) == (F(1), F(2))


def test_gauss_singular_is_none():
    assert gauss_solve([[1, 1], [2, 2]], [1, 2]) is None


def test_gauss_diagonal():
    solution = gauss_solve([[2, 0], [0, 4]], [1, 1])
    assert solution == (F(1, 2), F(1, 4))
    # Plain int data stays exact: no float division.
    assert all(type(v) is F for v in solution)


def test_gauss_dimension_errors():
    with pytest.raises(ValueError):
        gauss_solve([[1, 2]], [1])
    with pytest.raises(ValueError):
        gauss_solve([[1]], [1, 2])


def test_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        as_matrix([[1, 2], [3]])


def test_matrix_width_pinning():
    assert as_matrix([], width=3) == ()
    with pytest.raises(ValueError):
        as_matrix([[1, 2]], width=3)


@given(rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_field_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@st.composite
def square_systems(draw):
    """A square rational matrix of size 1 to 5 and a right-hand side."""
    n = draw(st.integers(1, 5))
    row = st.lists(rationals, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(row)


@given(square_systems())
@settings(max_examples=60, deadline=None)
def test_gauss_solution_is_exact(system):
    rows, target = system
    m = as_matrix(rows)
    r = as_vector(target)
    solution = gauss_solve(m, r)
    if solution is not None:
        assert tuple([dot(row, solution) for row in m]) == r


def test_gauss_zero_first_pivot_swaps_rows():
    m = as_matrix([[0, 2, 1], [3, 0, 0], [0, 0, 5]])
    assert gauss_solve(m, as_vector([5, 7, 5])) == (F(7, 3), F(2), F(1))


def test_gauss_negative_pivot():
    m = as_matrix([[-2, 1], [F(1, 3), F(-3, 4)]])
    assert gauss_solve(m, as_vector([F(1, 2), 7])) \
        == (F(-177, 28), F(-85, 7))


def test_gauss_rational_multiple_row_is_singular():
    first = [F(1, 3), F(-2, 5), F(7, 2)]
    m = as_matrix([first, [1, 2, 3], [F(-3, 7) * c for c in first]])
    assert gauss_solve(m, as_vector([1, 2, 3])) is None
