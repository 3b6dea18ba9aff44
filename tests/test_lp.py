import itertools
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbo import lp
from rbo.geometry import enumerate_vertices
from rbo.lp import (
    CERT_LOG,
    InfeasibleError,
    LpInternalError,
    LpStatus,
    Polyhedron,
    Sense,
    UnboundedError,
    check_bounded_nonempty,
    solve_lex_lp,
    solve_lp,
)
from rbo.numeric import ZERO, dot, gauss_solve

UNIT_SQUARE = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
TRIANGLE = Polyhedron([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])
SEGMENT = Polyhedron([[1], [-1]], [1, 0])
EMPTY = Polyhedron([[1], [-1]], [0, -1])
STRIP = Polyhedron([[1, 0], [-1, 0]], [1, 1])  # |v1| <= 1, v2 free
CENTRED_SQUARE = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]],
                            [1, 1, 1, 1])
# 1/2 <= v1 <= 3/2 and 1/3 <= v2 <= 2 cut by v1/2 + 2v2/3 <= 7/4: rows
# with negative right-hand sides and denominators that need scaling.
RATIONAL_BOX = Polyhedron(
    [[1, 0], [0, 1], [-1, 0], [0, -1], [F(1, 2), F(2, 3)]],
    [F(3, 2), 2, F(-1, 2), F(-1, 3), F(7, 4)])


def verify_max_certificate(poly, obj, outcome):
    assert outcome.dual is not None
    assert all(m >= 0 for m in outcome.dual)
    for j in range(poly.dim):
        assert sum(outcome.dual[i] * poly.a[i][j]
                   for i in range(poly.num_rows)) == obj[j]
    assert dot(outcome.dual, poly.rhs) == outcome.value


def test_square_max_x():
    out = solve_lp(UNIT_SQUARE, [1, 0], Sense.MAX)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    assert out.point[0] == 1
    verify_max_certificate(UNIT_SQUARE, (F(1), F(0)), out)


def test_infeasible():
    assert solve_lp(EMPTY, [1], Sense.MAX).status is LpStatus.INFEASIBLE


def test_triangle_value():
    out = solve_lp(TRIANGLE, [1, 1], Sense.MAX)
    assert out.value == 1
    verify_max_certificate(TRIANGLE, (F(1), F(1)), out)


def test_unbounded():
    ray = Polyhedron([[-1]], [0])
    assert solve_lp(ray, [1], Sense.MAX).status is LpStatus.UNBOUNDED
    assert solve_lp(ray, [1], Sense.MIN).status is LpStatus.OPTIMAL


def test_min_sense():
    out = solve_lp(UNIT_SQUARE, [1, 1], Sense.MIN)
    assert out.value == 0 and out.point == (F(0), F(0))


def test_optimal_point_is_vertex():
    # A free-variable box around the origin: the zero objective must still
    # land on one of the corners, not in the interior.
    box = Polyhedron([[1], [-1]], [1, 1])
    out = solve_lp(box, [0], Sense.MAX)
    assert out.point in ((F(1),), (F(-1),))


def _rationals(low, high):
    """Rationals in [low, high] with a denominator from 1 to 4."""
    return st.integers(1, 4).flatmap(
        lambda den: st.integers(low * den, high * den).map(
            lambda num: F(num, den)))


@st.composite
def small_polytopes(draw):
    """A box plus up to three rows through a point of the box, with an
    objective that may be zero, and a sense.  Coefficients and
    right-hand sides have denominators 1 to 4; a box whose lower bound
    is positive has a negative right-hand side, which takes phase one."""
    n = draw(st.integers(2, 3))
    lo = [draw(_rationals(-3, 1)) for _ in range(n)]
    hi = [low + draw(_rationals(0, 3)) for low in lo]
    anchor = [low + (high - low) * draw(_rationals(0, 1))
              for low, high in zip(lo, hi)]
    rows, rhs = [], []
    for j in range(n):
        unit = [int(k == j) for k in range(n)]
        rows += [unit, [-u for u in unit]]
        rhs += [hi[j], -lo[j]]
    for _ in range(draw(st.integers(0, 3))):
        row = [draw(_rationals(-3, 3)) for _ in range(n)]
        den = draw(st.integers(1, 4))
        rows.append(row)
        rhs.append(F(math.ceil(dot(row, anchor) * den)
                     + draw(st.integers(0, 2 * den)), den))
    coeffs = st.lists(_rationals(-2, 2), min_size=n, max_size=n)
    obj = draw(st.just([0] * n) | coeffs)
    return Polyhedron(rows, rhs), obj, draw(st.sampled_from(Sense))


@given(small_polytopes())
@example((CENTRED_SQUARE, [1, 0], Sense.MAX))
@example((CENTRED_SQUARE, [0, 0], Sense.MIN))
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=80, deadline=None)
def test_optimal_point_is_vertex_of_random_polytope(case):
    poly, obj, sense = case
    out = solve_lp(poly, obj, sense)
    assert out.status is LpStatus.OPTIMAL
    tight = [row for row, r in zip(poly.a, poly.rhs)
             if dot(row, out.point) == r]
    assert any(gauss_solve(square, (ZERO,) * poly.dim) is not None
               for square in itertools.combinations(tight, poly.dim))
    values = [dot(obj, v) for v in enumerate_vertices(poly)]
    best = max(values) if sense is Sense.MAX else min(values)
    assert out.value == best
    if sense is Sense.MAX:
        verify_max_certificate(poly, obj, out)
    else:
        verify_max_certificate(poly, [-c for c in obj],
                               replace(out, value=-out.value))


def test_line_coordinate_stays_at_zero():
    # The strip has no vertex; the coordinate along its line stays at 0.
    out = solve_lp(STRIP, [1, 0], Sense.MAX)
    assert out.status is LpStatus.OPTIMAL
    assert out.point == (F(1), F(0)) and out.value == 1
    verify_max_certificate(STRIP, (F(1), F(0)), out)
    assert solve_lp(STRIP, [0, 1], Sense.MAX).status is LpStatus.UNBOUNDED
    assert check_bounded_nonempty(STRIP) == (True, False)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_lp(UNIT_SQUARE, [1], Sense.MAX)


def test_lex_zero_primary_min_secondary():
    assert solve_lex_lp(SEGMENT, [0], Sense.MAX, [1], Sense.MIN) \
        == ((F(0),), 0)


def test_lex_zero_primary_max_secondary():
    assert solve_lex_lp(SEGMENT, [0], Sense.MAX, [1], Sense.MAX) \
        == ((F(1),), 1)


def test_lex_triangle_vertex_selection():
    assert solve_lex_lp(TRIANGLE, [1, 1], Sense.MAX, [1, 0], Sense.MAX) \
        == ((F(1), F(0)), 1)


def test_lex_primary_matches_plain_solve():
    cases = [
        (UNIT_SQUARE, (F(1), F(2)), (F(-1), F(0))),
        (TRIANGLE, (F(1), F(1)), (F(0), F(1))),
        (SEGMENT, (F(3),), (F(-1),)),
        (UNIT_SQUARE, (F(0), F(0)), (F(1), F(1))),
    ]
    for poly, primary, secondary in cases:
        plain = solve_lp(poly, primary, Sense.MAX)
        point, _ = solve_lex_lp(poly, primary, Sense.MAX, secondary,
                                Sense.MAX)
        assert dot(primary, point) == plain.value


@st.composite
def lex_cases(draw):
    """A small polytope, its objective as the primary, and a secondary."""
    poly, primary, _ = draw(small_polytopes())
    secondary = draw(st.lists(_rationals(-2, 2), min_size=poly.dim,
                              max_size=poly.dim))
    return poly, primary, secondary


@given(lex_cases())
@example((UNIT_SQUARE, [1, 0], [-1, 1]))
@example((CENTRED_SQUARE, [0, 0], [1, 1]))
@example((RATIONAL_BOX, [F(1, 2), F(2, 3)], [F(-3, 4), F(1, 3)]))
@settings(max_examples=60, deadline=None)
def test_lex_matches_solve_on_pinned_face(case):
    # The reference pins the primary's optimal face with two added rows
    # and solves the secondary from scratch.
    poly, primary, secondary = case
    for primary_sense, secondary_sense in itertools.product(Sense, Sense):
        best = solve_lp(poly, primary, primary_sense).value
        face = Polyhedron(poly.a + (primary, [-c for c in primary]),
                          poly.rhs + (best, -best))
        reference = solve_lp(face, secondary, secondary_sense)
        before = (CERT_LOG.verified, CERT_LOG.failures)
        point, value = solve_lex_lp(poly, primary, primary_sense,
                                    secondary, secondary_sense)
        assert (CERT_LOG.verified - before[0],
                CERT_LOG.failures - before[1]) == (2, 0)
        assert dot(primary, point) == best
        assert value == reference.value
        tight = [row for row, r in zip(poly.a, poly.rhs)
                 if dot(row, point) == r]
        assert any(gauss_solve(square, (ZERO,) * poly.dim) is not None
                   for square in itertools.combinations(tight, poly.dim))


@given(small_polytopes())
@example((CENTRED_SQUARE, [1, 0], Sense.MAX))
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=60, deadline=None)
def test_reused_polyhedron_solves_like_a_fresh_one(case):
    # One polyhedron runs phase one once and starts every solve from a
    # copy of its tableau.  Minimizing a unit objective, or maximizing a
    # negated one, makes a free column enter falling, whose negated pivot
    # row must not reach the shared rows.
    poly, obj, _ = case
    neg = [-c for c in obj]
    solves = [(obj, Sense.MAX, None), (obj, Sense.MIN, None),
              (neg, Sense.MAX, None), (obj, Sense.MAX, (neg, Sense.MIN)),
              (obj, Sense.MIN, (obj, Sense.MAX))]
    for j in range(poly.dim):
        unit = [int(k == j) for k in range(poly.dim)]
        solves += [(unit, Sense.MIN, None),
                   (neg, Sense.MIN, (unit, Sense.MIN)),
                   (unit, Sense.MAX, (neg, Sense.MAX))]
    for objective, sense, tie in solves:
        fresh = Polyhedron(poly.a, poly.rhs)
        assert (solve_lp(poly, objective, sense, tie)
                == solve_lp(fresh, objective, sense, tie))


def test_second_solve_skips_phase_one(monkeypatch):
    built, phase_one_pivots, in_phase_one = [], [], []
    init, pivot, phase_one = lp._Tableau.__init__, lp._Tableau.pivot, \
        lp._phase_one

    def counted_init(self, poly):
        built.append(poly)
        init(self, poly)

    def counted_pivot(self, row, col):
        if in_phase_one:
            phase_one_pivots.append((row, col))
        pivot(self, row, col)

    def flagged(poly):
        in_phase_one.append(poly)
        try:
            return phase_one(poly)
        finally:
            in_phase_one.pop()

    monkeypatch.setattr(lp._Tableau, "__init__", counted_init)
    monkeypatch.setattr(lp._Tableau, "pivot", counted_pivot)
    monkeypatch.setattr(lp, "_phase_one", flagged)
    # RATIONAL_BOX has negative right-hand sides, so phase one pivots.
    poly = Polyhedron(RATIONAL_BOX.a, RATIONAL_BOX.rhs)
    first = solve_lp(poly, [1, 1], Sense.MAX)
    assert len(built) == 1 and phase_one_pivots
    built.clear()
    phase_one_pivots.clear()
    assert solve_lp(poly, [1, 1], Sense.MAX) == first
    solve_lp(poly, [1, 0], Sense.MIN)
    solve_lex_lp(poly, [0, 1], Sense.MAX, [1, 0], Sense.MIN)
    assert built == [] and phase_one_pivots == []
    # The boundedness check solves one LP from poly's phase-one tableau.
    assert check_bounded_nonempty(poly) == (True, True)
    assert built == [] and phase_one_pivots == []
    # An empty polyhedron keeps its finding too.
    empty = Polyhedron(EMPTY.a, EMPTY.rhs)
    for objective, sense in [([1], Sense.MAX), ([0], Sense.MIN),
                             ([-1], Sense.MAX), ([1], Sense.MIN)]:
        assert solve_lp(empty, objective, sense).status is LpStatus.INFEASIBLE
        assert solve_lp(empty, objective, sense,
                        tie=([1], Sense.MIN)).status is LpStatus.INFEASIBLE
    assert check_bounded_nonempty(empty) == (False, True)
    with pytest.raises(InfeasibleError):
        solve_lex_lp(empty, [1], Sense.MAX, [1], Sense.MAX)
    assert len(built) == 1


@given(small_polytopes(), st.lists(st.integers(0, 99), min_size=1,
                                   max_size=6))
# RATIONAL_BOX's first row scales to [2, 0 | 3]: a pivot on its 2 from
# d = 1, then one on row 1's 2 from d = 2, takes each branch in turn.
@example((RATIONAL_BOX, [0, 0], Sense.MAX), [0, 2])
@settings(max_examples=80, deadline=None)
def test_pivot_matches_dense_bareiss(case, picks):
    # Each pick pivots a copy of the tableau on one of its nonzero
    # entries, which must leave the tableau it was copied from as it was
    # and agree with the dense update (p*row - f*prow) // d written out.
    tab = lp._Tableau(case[0])
    rows, d = [row[:] for row in tab.rows], tab.d
    for pick in picks:
        entries = [(i, j) for i, row in enumerate(rows)
                   for j in range(tab.ncols) if row[j]]
        row, col = entries[pick % len(entries)]
        prow, p = rows[row], rows[row][col]
        if p < 0:
            prow, p = [-a for a in prow], -p
        assert all((p * a - irow[col] * b) % d == 0
                   for irow in rows for a, b in zip(irow, prow))
        rows = [prow if i == row else
                [(p * a - irow[col] * b) // d for a, b in zip(irow, prow)]
                for i, irow in enumerate(rows)]
        d = p
        source, kept = tab, [row[:] for row in tab.rows]
        tab = tab.copy()
        tab.pivot(row, col)
        assert source.rows == kept
        assert (tab.rows, tab.d) == (rows, d)


@given(small_polytopes())
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=40, deadline=None)
def test_solves_leave_the_phase_one_tableau_as_it_was(case):
    # Every solve starts from a copy that shares the phase-one tableau's
    # rows, so a pivot that wrote into a row in place would show here.
    poly, obj, sense = case
    start = poly._phase_one_tableau
    kept = ([row[:] for row in start.rows], start.d, start.basis[:])
    neg = [-c for c in obj]
    for j in range(poly.dim):
        unit = [int(k == j) for k in range(poly.dim)]
        solve_lp(poly, obj, sense)
        solve_lp(poly, unit, Sense.MIN, tie=(neg, Sense.MAX))
        solve_lex_lp(poly, neg, Sense.MAX, unit, Sense.MAX)
        lp.max_value(poly, unit)
    assert (start.rows, start.d, start.basis) == kept


def _row_scales(poly):
    """The least s_i > 0 that makes row i of [a | rhs] integral."""
    return [math.lcm(*[v.denominator for v in row + (r,)])
            for row, r in zip(poly.a, poly.rhs)]


@given(small_polytopes())
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=60, deadline=None)
def test_certificate_check_rejects_altered_certificates(case):
    poly, obj, _ = case
    obj = tuple([F(c) for c in obj])
    out = solve_lp(poly, obj, Sense.MAX)
    mu = list(out.dual)
    lp._verify_certificate(poly, obj, out.value, mu)
    zero = (ZERO,) * poly.num_rows
    lp._verify_certificate(poly, (ZERO,) * poly.dim, ZERO, zero)
    altered = [(out.value + F(1, 7), mu)]
    # mu_i + 1/s_i adds row i, which has integer entries once scaled.
    for i, s in enumerate(_row_scales(poly)):
        if any(poly.a[i]):
            altered.append((out.value, mu[:i] + [mu[i] + F(1, s)]
                            + mu[i + 1:]))
    # Rows 0 and 1 are v1 <= hi and -v1 <= -lo: taking t from both keeps
    # mu^T A, and the value is moved to match, so only the sign is wrong.
    t = mu[0] + 1
    altered.append((out.value - t * (poly.rhs[0] + poly.rhs[1]),
                    [mu[0] - t, mu[1] - t] + mu[2:]))
    for value, dual in altered:
        failures = CERT_LOG.failures
        with pytest.raises(LpInternalError):
            lp._verify_certificate(poly, obj, value, dual)
        assert CERT_LOG.failures == failures + 1


def test_lex_certificate_needs_the_primary(monkeypatch):
    # On the edge v1 = 1 the secondary gains by raising v2, but over the
    # square it would rather lower v1: its own dual is negative on the
    # held row v1 <= 1, and only (-1, 1) + 1·(1, 0) has a certificate.
    checked = []
    verify = lp._verify_certificate

    def record(poly, obj, value, mu):
        checked.append((obj, value))
        verify(poly, obj, value, mu)

    monkeypatch.setattr(lp, "_verify_certificate", record)
    assert solve_lex_lp(UNIT_SQUARE, [1, 0], Sense.MAX, [-1, 1], Sense.MAX) \
        == ((F(1), F(1)), 0)
    assert checked == [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1))]


def test_lex_errors():
    with pytest.raises(InfeasibleError):
        solve_lex_lp(EMPTY, [1], Sense.MAX, [1], Sense.MAX)
    with pytest.raises(UnboundedError):
        solve_lex_lp(Polyhedron([[-1]], [0]), [1], Sense.MAX, [1], Sense.MAX)
    # The primary's optimal face of the strip is the line v1 = 1.
    with pytest.raises(UnboundedError):
        solve_lex_lp(STRIP, [1, 0], Sense.MAX, [0, 1], Sense.MAX)


def test_bounded_nonempty_triples():
    assert check_bounded_nonempty(UNIT_SQUARE) == (True, True)
    assert check_bounded_nonempty(Polyhedron([[-1]], [0])) == (True, False)
    assert check_bounded_nonempty(EMPTY) == (False, True)


@st.composite
def nonempty_polyhedra(draw):
    """Rows with small integer coefficients through a drawn anchor point,
    so the set is nonempty; it is bounded or not as the rows happen to
    fall."""
    n = draw(st.integers(1, 3))
    anchor = [draw(_rationals(-2, 2)) for _ in range(n)]
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                  max_size=n), min_size=1, max_size=6))
    rhs = [dot(row, anchor) + draw(_rationals(0, 2)) for row in rows]
    return Polyhedron(rows, rhs)


@given(nonempty_polyhedra())
@example(Polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1, 1, 1, 1]))
@example(Polyhedron([[1, 1], [-1, -1]], [1, 1]))
@settings(max_examples=120, deadline=None)
def test_boundedness_matches_coordinate_probes(poly):
    # A nonempty polyhedron is bounded exactly when no coordinate is
    # unbounded above or below.
    probes = [solve_lp(poly, [int(k == j) for k in range(poly.dim)], sense)
              for j in range(poly.dim) for sense in Sense]
    bounded = all(out.status is LpStatus.OPTIMAL for out in probes)
    assert check_bounded_nonempty(poly) == (True, bounded)


def test_determinism():
    poly = Polyhedron([[1, 1], [1, -1], [-1, 0], [0, -1], [1, 0]],
                      [2, 1, 0, 0, 1])
    first = solve_lp(poly, [1, 0], Sense.MAX)
    for _ in range(3):
        again = solve_lp(poly, [1, 0], Sense.MAX)
        assert again.point == first.point and again.dual == first.dual


def test_negative_rhs_phase_one():
    # Forces artificial variables: x >= 2 within [0, 5].
    poly = Polyhedron([[1], [-1]], [5, -2])
    out = solve_lp(poly, [-1], Sense.MAX)
    assert out.value == -2 and out.point == (F(2),)
    verify_max_certificate(poly, (F(-1),), out)


def test_redundant_equality_rows():
    # x = 1 stated twice; the dependent row must not break the dual.
    poly = Polyhedron([[1], [-1], [1], [-1]], [1, -1, 1, -1])
    out = solve_lp(poly, [1], Sense.MAX)
    assert out.value == 1
    verify_max_certificate(poly, (F(1),), out)


def test_certificate_log_counts():
    CERT_LOG.reset()
    solve_lp(UNIT_SQUARE, [1, 1], Sense.MAX)
    solve_lp(TRIANGLE, [1, 0], Sense.MIN)
    assert CERT_LOG.optimal_solves == CERT_LOG.verified == 2
    assert CERT_LOG.failures == 0
