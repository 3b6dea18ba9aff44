from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbo import lp, numeric
from rbo.numeric import (
    as_matrix,
    as_vector,
    bareiss_step,
    dot,
    eliminate,
    integer_scaled,
    rat_format,
    rat_parse,
    rat_parse_scaled,
)
from rbo.oracle import solve_square
from helpers import polyhedron, solve, span_basis

# The test_gauss_* tests check the oracle's square solve, plain
# Gauss-Jordan on Fractions that shares no code with the integer
# elimination tested beside it; test_kernel_matches_a_fraction_gauss_jordan
# holds both to one Fraction reference.

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


def test_scaled_parse_of_zero_literals():
    # A row of integer literals, as most rows of a saved instance are, is
    # read by int(); every spelling of zero parses to 0 on either path,
    # and malformed literals keep their errors and messages.
    assert rat_parse_scaled(["0", " 0", "-0", "0/5", "00"]) == (1, [0] * 5)
    assert rat_parse_scaled(["0", "1/2", "0", "-3/4"]) == (4, [0, 2, 0, -3])
    assert rat_parse_scaled(["0"]) == (1, [0])
    for text, error, message in [
            ("0/0", ValueError, "zero denominator in rational literal: '0/0'"),
            ("+0", ValueError, "malformed rational literal: '+0'"),
            ("0.0", ValueError, "malformed rational literal: '0.0'"),
            ("0 /1", ValueError, "malformed rational literal: '0 /1'"),
            (0, TypeError, "expected a rational string, got 0")]:
        with pytest.raises(error) as err:
            rat_parse_scaled(["0", text])
        assert str(err.value) == message


# (literal, its value, or the error it raises and the error's message)
LITERALS = [
    (" 1/2", F(1, 2)), ("-0", F(0)), ("0/5", F(0)), ("00012", F(12)),
    ("2/4", F(1, 2)), ("3\xa0", F(3)),
    ("+1", ValueError, "malformed rational literal: '+1'"),
    ("1_0", ValueError, "malformed rational literal: '1_0'"),
    ("1 /2", ValueError, "malformed rational literal: '1 /2'"),
    ("0/0", ValueError, "zero denominator in rational literal: '0/0'"),
    ("1.5", ValueError, "malformed rational literal: '1.5'"),
    ("\u0661/\u0662", ValueError,
     "malformed rational literal: '\u0661/\u0662'"),
    ("\u0663", ValueError, "malformed rational literal: '\u0663'"),
    (0, TypeError, "expected a rational string, got 0"),
    ([], TypeError, "expected a rational string, got []"),
]


@pytest.mark.parametrize("entry", LITERALS,
                         ids=[repr(entry[0]) for entry in LITERALS])
def test_literal_grammar(entry):
    # The grammar is ASCII integer-slash-integer, stripped of whitespace;
    # int() would also take a sign +, an underscore and any Unicode digit,
    # so a row of integers read by int() must refuse them as the grammar
    # does.  Each literal goes alone, through rat_parse and through
    # rat_parse_scaled's integer path, and after a 1/3, through its
    # grammar path.
    text, *result = entry
    for parse in (rat_parse, lambda t: rat_parse_scaled(["7", t]),
                  lambda t: rat_parse_scaled(["1/3", t])):
        if len(result) == 2:
            with pytest.raises(result[0]) as err:
                parse(text)
            assert str(err.value) == result[1]
    if len(result) == 1:
        value = result[0]
        assert rat_parse(text) == value
        assert rat_parse_scaled(["7", text]) == integer_scaled([F(7), value])
        assert rat_parse_scaled(["1/3", text]) == integer_scaled(
            [F(1, 3), value])


@given(st.lists(st.text("-0123456789/+_ \t\n\x1c\xa0\u0663.", max_size=4),
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_scaled_parse_is_the_grammar(texts):
    # rat_parse_scaled, whichever path reads the row, accepts exactly the
    # rows whose literals rat_parse accepts, gives their values at the
    # least scale, and names the first bad literal as rat_parse does.
    values, first = [], None
    for text in texts:
        try:
            values.append(rat_parse(text))
        except ValueError as exc:
            first = first or str(exc)
    if first is None:
        assert rat_parse_scaled(texts) == integer_scaled(values)
    else:
        with pytest.raises(ValueError) as err:
            rat_parse_scaled(texts)
        assert str(err.value) == first


def test_format_round_trips():
    for value in (F(1, 2), F(-4), F(0), F(22, 7)):
        assert rat_parse(rat_format(value)) == value


def test_gauss_identity():
    assert solve_square([[1, 0], [0, 1]], [1, 2]) == (F(1), F(2))


def test_gauss_singular_is_none():
    assert solve_square([[1, 1], [2, 2]], [1, 2]) is None


def test_gauss_diagonal():
    solution = solve_square([[2, 0], [0, 4]], [1, 1])
    assert solution == (F(1, 2), F(1, 4))
    # Plain int data stays exact: no float division.
    assert all(type(v) is F for v in solution)


def test_gauss_dimension_errors():
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_square([[1]], [1, 2])


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
    solution = solve_square(m, r)
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
    solution = solve_square(as_matrix(rows), as_vector(target))
    if det == 0:
        assert solution is None
        return
    assert solution == tuple([
        laplace_det([row[:j] + [t] + row[j + 1:]
                     for row, t in zip(rows, target)]) / det
        for j in range(len(rows))])


def test_gauss_zero_first_pivot_swaps_rows():
    m = as_matrix([[0, 2, 1], [3, 0, 0], [0, 0, 5]])
    assert solve_square(m, as_vector([5, 7, 5])) == (F(7, 3), F(2), F(1))


def test_gauss_negative_pivot():
    m = as_matrix([[-2, 1], [F(1, 3), F(-3, 4)]])
    assert solve_square(m, as_vector([F(1, 2), 7])) \
        == (F(-177, 28), F(-85, 7))


def test_gauss_rational_multiple_row_is_singular():
    first = [F(1, 3), F(-2, 5), F(7, 2)]
    m = as_matrix([first, [1, 2, 3], [F(-3, 7) * c for c in first]])
    assert solve_square(m, as_vector([1, 2, 3])) is None


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
    # The basis vectors are independent, as their Gram determinant is
    # nonzero, and every other vector depends on the basis vectors
    # before it, as joining it to them makes the Gram determinant zero.
    basis = span_basis(vectors)
    assert list(basis) == sorted(basis)
    chosen = [vectors[j] for j in basis]
    assert laplace_det(_gram(chosen)) != 0
    for i, vec in enumerate(vectors):
        if i not in basis:
            joined = [vectors[j] for j in basis if j < i] + [vec]
            assert laplace_det(_gram(joined)) == 0


def test_span_basis_skips_dependent_vectors():
    vectors = as_matrix([[0, 0], [2, 4], [1, 2], [3, 1]])
    assert span_basis(vectors) == (1, 3)


def gauss_jordan(rows, ncols):
    """(pivots, rows, order): plain Gauss-Jordan elimination in Fractions
    over the first ncols columns, each pivot the first nonzero at or
    below the pivot rows so far, swapped up and divided out to 1; row i
    ends as a combination of the given rows in which the given row
    order[i] is the one that the swaps put there."""
    rows = [[F(a) for a in row] for row in rows]
    pivots, order = [], list(range(len(rows)))
    for col in range(ncols):
        k = len(pivots)
        i = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        order[k], order[i] = order[i], order[k]
        rows[k] = [a / rows[k][col] for a in rows[k]]
        for j, row in enumerate(rows):
            if j != k and row[col]:
                rows[j] = [a - row[col] * b for a, b in zip(row, rows[k])]
        pivots.append(col)
    return pivots, rows, order


@st.composite
def rational_matrices(draw):
    """A 1-to-4 by 1-to-5 matrix of rationals from few values, zero and
    negative ones among them, so that zero, negative and non-unit pivots
    are common; often one row is a multiple of another, or zero."""
    m, width = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3),
                             F(1, 2), F(-2, 3)])
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        rows[-1] = [draw(st.sampled_from([F(0), F(-1), F(3, 2)])) * a
                    for a in draw(st.sampled_from(rows[:-1]))]
    return rows


@given(rational_matrices())
@example([[F(-2), F(1), F(1, 2)], [F(1, 3), F(-3, 4), F(7)]])
@example([[F(0), F(2), F(1), F(5)], [F(3), F(0), F(0), F(7)],
          [F(0), F(0), F(5), F(5)]])
@example([[F(1), F(1), F(1)], [F(2), F(2), F(2)]])
@settings(max_examples=200, deadline=None)
def test_kernel_matches_a_fraction_gauss_jordan(rows):
    # eliminate, on the rows scaled to ints, takes the reference's pivots,
    # and every entry it returns is d > 0 times the reference's on those
    # rows joined to I: its other columns are the reference's, and pivot
    # column pivots[t], in its exchanged meaning, is the column of I for
    # the row that pivot t exchanged out.  The oracle's solve_square on
    # the leading square block, the last column the right-hand side, and
    # span_basis on the columns read the same pivots.
    width, m = len(rows[0]), len(rows)
    ncols = max(width - 1, 1)
    ints = [integer_scaled(r)[1] for r in rows]
    want_pivots, want_rows, order = gauss_jordan(
        [row + [int(i == j) for j in range(m)] for i, row in enumerate(ints)],
        ncols)
    pivots, got, d = eliminate(ints, ncols)
    assert pivots == want_pivots and d > 0
    exchanged = {col: width + order[t] for t, col in enumerate(pivots)}
    assert [[F(a, d) for a in row] for row in got] == [
        [row[exchanged.get(j, j)] for j in range(width)] for row in want_rows]
    assert span_basis(rows) == tuple(
        gauss_jordan([list(c) for c in zip(*rows)], len(rows))[0])
    n = len(rows)
    if width > n:
        square = [row[:n] for row in rows]
        target = [row[-1] for row in rows]
        want_pivots, want_rows, _ = gauss_jordan(
            [r + [t] for r, t in zip(square, target)], n)
        want = (tuple([row[-1] for row in want_rows])
                if len(want_pivots) == n else None)
        assert solve_square(square, target) == want


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_elimination_replaces_rows_and_never_writes_into_one(rows):
    # A row list copied before the steps, as a tableau copy is, keeps
    # its rows, on the unimodular steps (p = d) as on the others.
    ints = [integer_scaled(r)[1] for r in rows]
    before = [row[:] for row in ints]
    kept = ints[:]
    eliminate(ints, len(rows[0]))
    assert kept == before


def test_tableau_and_elimination_share_one_step(monkeypatch):
    # _Tableau.pivot and eliminate both go through numeric.bareiss_step.
    assert lp.bareiss_step is numeric.bareiss_step
    calls = []

    def spy(rows, r, col, d):
        calls.append((r, col))
        return bareiss_step(rows, r, col, d)

    monkeypatch.setattr(numeric, "bareiss_step", spy)
    monkeypatch.setattr(lp, "bareiss_step", spy)
    pivots, rows, d = eliminate([[2, 1, 1], [1, 3, 2]], 2)
    assert (pivots, [F(row[2], d) for row in rows]) == ([0, 1],
                                                       [F(1, 5), F(3, 5)])
    assert calls == [(0, 0), (1, 1)]
    calls.clear()
    poly = polyhedron([[1, 0], [0, 1], [-1, -1]], [1, 1, 0])
    assert solve(poly, [1, 1]).value == 2
    assert calls
