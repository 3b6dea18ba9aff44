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
    span_basis,
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


def laplace_det(m):
    """The determinant by cofactor expansion along the first row."""
    if not m:
        return F(1)
    return sum([(-1) ** j * m[0][j]
                * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(len(m)) if m[0][j]], F(0))


@st.composite
def small_square_systems(draw):
    """A square matrix of size 1 to 4, often singular, and a right-hand
    side; entries are drawn from few values so that ties are common."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4)])
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[-1] = [F(-2, 3) * a for a in draw(st.sampled_from(rows))]
    return rows, draw(st.lists(rationals, min_size=n, max_size=n))


@given(small_square_systems())
@settings(max_examples=150, deadline=None)
def test_gauss_matches_cramers_rule(system):
    # None exactly when the determinant is 0; else v_j = det(m_j) / det(m),
    # m_j being m with column j replaced by the right-hand side.
    rows, target = system
    det = laplace_det(rows)
    solution = gauss_solve(as_matrix(rows), as_vector(target))
    if det == 0:
        assert solution is None
        return
    assert solution == tuple([
        laplace_det([row[:j] + [t] + row[j + 1:]
                     for row, t in zip(rows, target)]) / det
        for j in range(len(rows))])


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


@st.composite
def spanned_vectors(draw):
    """One to five vectors of length 1 to 4, each a combination of up to
    three drawn vectors, so that most lists are linearly dependent."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                         min_size=1, max_size=3))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    weights = st.lists(small, min_size=len(gens), max_size=len(gens))
    return [as_vector([sum([w * g[k] for w, g in zip(ws, gens)], F(0))
                       for k in range(n)])
            for ws in draw(st.lists(weights, min_size=1, max_size=5))]


def _gram(vectors):
    return [[dot(u, v) for v in vectors] for u in vectors]


@given(spanned_vectors())
@settings(max_examples=60, deadline=None)
def test_span_basis_is_the_first_independent_vectors(vectors):
    # The basis vectors are independent, as their Gram matrix is
    # nonsingular, and every other vector depends on the basis vectors
    # before it, as joining it to them makes the Gram matrix singular.
    basis = span_basis(vectors)
    assert list(basis) == sorted(basis)
    chosen = [vectors[j] for j in basis]
    assert gauss_solve(_gram(chosen), [0] * len(chosen)) is not None
    for i, vec in enumerate(vectors):
        if i not in basis:
            joined = [vectors[j] for j in basis if j < i] + [vec]
            assert gauss_solve(_gram(joined), [0] * len(joined)) is None


def test_span_basis_skips_dependent_vectors():
    vectors = as_matrix([[0, 0], [2, 4], [1, 2], [3, 1]])
    assert span_basis(vectors) == (1, 3)
