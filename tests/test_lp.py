import itertools
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbo import lp
from rbo.lp import (
    CERT_LOG,
    InfeasibleError,
    LpInternalError,
    LpStatus,
    Polyhedron,
    Sense,
    UnboundedError,
    check_bounded_nonempty,
    is_nonempty,
)
from rbo.numeric import dot, integer_scaled
from rbo.oracle import _brute_vertices
from helpers import rational_rows, solve, solve_lex, span_basis, vertices
import reference_dual

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


def _scaled(vector):
    """A vector of rationals as `_phase_two` takes it: (S, ints)."""
    scale, ints = integer_scaled(vector)
    return scale, tuple(ints)


def _point(tab):
    """The tableau's basic point in Fractions."""
    w, d = tab.point()
    return tuple([F(x, d) for x in w])


def _dual(o, den):
    """The dual of a polyhedron's integer rows that the certificate o
    gives over D > 0: mu_r = o_r / D."""
    return tuple([F(u, den) for u in o])


def verify_max_certificate(poly, obj, outcome):
    # The certificate `_phase_two` forms for max obj, read as a Fraction
    # dual, proves the outcome's value optimal at the outcome's point.
    scale, ints = _scaled(obj)
    status, tab, [(o, c)] = lp._phase_two(poly, (scale, ints))
    assert status is LpStatus.OPTIMAL and _point(tab) == outcome.point
    assert c == [tab.d * a for a in ints]
    mu = _dual(o, scale * tab.d)
    assert all(m >= 0 for m in mu)
    a, rhs = rational_rows(poly)
    for j in range(poly.dim):
        assert sum(mu[i] * a[i][j] for i in range(poly.num_rows)) == obj[j]
    assert dot(mu, rhs) == outcome.value


def _certified(poly, objective, sense, tie=None):
    """`solve`'s outcome with the certificates `_phase_two` forms for it."""
    certs = lp._phase_two(
        poly, lp.scaled_objective(objective, sense, poly.dim),
        None if tie is None else lp.scaled_objective(*tie, poly.dim))[2]
    return solve(poly, objective, sense, tie), certs


def test_square_max_x():
    out = solve(UNIT_SQUARE, [1, 0], Sense.MAX)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    assert out.point[0] == 1
    verify_max_certificate(UNIT_SQUARE, (F(1), F(0)), out)


def test_infeasible():
    assert solve(EMPTY, [1], Sense.MAX).status is LpStatus.INFEASIBLE


def test_contains_refuses_a_point_of_the_wrong_length():
    assert UNIT_SQUARE.contains((0, 0))
    assert not UNIT_SQUARE.contains((0, 2))
    for point in [(0,), (0, 0, -100)]:
        with pytest.raises(ValueError):
            UNIT_SQUARE.contains(point)


def test_triangle_value():
    out = solve(TRIANGLE, [1, 1], Sense.MAX)
    assert out.value == 1
    verify_max_certificate(TRIANGLE, (F(1), F(1)), out)


def test_unbounded():
    ray = Polyhedron([[-1]], [0])
    assert solve(ray, [1], Sense.MAX).status is LpStatus.UNBOUNDED
    assert solve(ray, [1], Sense.MIN).status is LpStatus.OPTIMAL


def test_min_sense():
    out = solve(UNIT_SQUARE, [1, 1], Sense.MIN)
    assert out.value == 0 and out.point == (F(0), F(0))


def test_optimal_point_is_vertex():
    # A free-variable box around the origin: the zero objective must still
    # land on one of the corners, not in the interior.
    box = Polyhedron([[1], [-1]], [1, 1])
    out = solve(box, [0], Sense.MAX)
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
    out = solve(poly, obj, sense)
    assert out.status is LpStatus.OPTIMAL
    tight = [row for row, r in zip(*rational_rows(poly))
             if dot(row, out.point) == r]
    assert len(span_basis(tight)) == poly.dim
    values = [dot(obj, v) for v in vertices(poly)]
    best = max(values) if sense is Sense.MAX else min(values)
    assert out.value == best
    if sense is Sense.MAX:
        verify_max_certificate(poly, obj, out)
    else:
        verify_max_certificate(poly, [-c for c in obj],
                               replace(out, value=-out.value))


def test_line_coordinate_stays_at_zero():
    # The strip has no vertex; the coordinate along its line stays at 0.
    out = solve(STRIP, [1, 0], Sense.MAX)
    assert out.status is LpStatus.OPTIMAL
    assert out.point == (F(1), F(0)) and out.value == 1
    verify_max_certificate(STRIP, (F(1), F(0)), out)
    assert solve(STRIP, [0, 1], Sense.MAX).status is LpStatus.UNBOUNDED
    assert check_bounded_nonempty(STRIP) == (True, False)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(UNIT_SQUARE, [1], Sense.MAX)


def test_lex_zero_primary_min_secondary():
    assert solve_lex(SEGMENT, [0], Sense.MAX, [1], Sense.MIN) \
        == ((F(0),), 0)


def test_lex_zero_primary_max_secondary():
    assert solve_lex(SEGMENT, [0], Sense.MAX, [1], Sense.MAX) \
        == ((F(1),), 1)


def test_lex_triangle_vertex_selection():
    assert solve_lex(TRIANGLE, [1, 1], Sense.MAX, [1, 0], Sense.MAX) \
        == ((F(1), F(0)), 1)


def test_lex_primary_matches_plain_solve():
    cases = [
        (UNIT_SQUARE, (F(1), F(2)), (F(-1), F(0))),
        (TRIANGLE, (F(1), F(1)), (F(0), F(1))),
        (SEGMENT, (F(3),), (F(-1),)),
        (UNIT_SQUARE, (F(0), F(0)), (F(1), F(1))),
    ]
    for poly, primary, secondary in cases:
        plain = solve(poly, primary, Sense.MAX)
        point, _ = solve_lex(poly, primary, Sense.MAX, secondary,
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
        best = solve(poly, primary, primary_sense).value
        a, rhs = rational_rows(poly)
        face = Polyhedron(a + (primary, [-c for c in primary]),
                          rhs + (best, -best))
        reference = solve(face, secondary, secondary_sense)
        before = (CERT_LOG.verified, CERT_LOG.failures)
        point, value = solve_lex(poly, primary, primary_sense,
                                    secondary, secondary_sense)
        assert (CERT_LOG.verified - before[0],
                CERT_LOG.failures - before[1]) == (2, 0)
        assert dot(primary, point) == best
        assert value == reference.value
        tight = [row for row, r in zip(a, rhs) if dot(row, point) == r]
        assert len(span_basis(tight)) == poly.dim


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
        fresh = Polyhedron.from_rows(poly.rows)
        assert (_certified(poly, objective, sense, tie)
                == _certified(fresh, objective, sense, tie))


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
    poly = Polyhedron.from_rows(RATIONAL_BOX.rows)
    first = solve(poly, [1, 1], Sense.MAX)
    assert len(built) == 1 and phase_one_pivots
    built.clear()
    phase_one_pivots.clear()
    assert solve(poly, [1, 1], Sense.MAX) == first
    solve(poly, [1, 0], Sense.MIN)
    solve_lex(poly, [0, 1], Sense.MAX, [1, 0], Sense.MIN)
    assert built == [] and phase_one_pivots == []
    # The boundedness check solves one LP from poly's phase-one tableau.
    assert check_bounded_nonempty(poly) == (True, True)
    assert built == [] and phase_one_pivots == []
    # An empty polyhedron keeps its finding too.
    empty = Polyhedron.from_rows(EMPTY.rows)
    for objective, sense in [([1], Sense.MAX), ([0], Sense.MIN),
                             ([-1], Sense.MAX), ([1], Sense.MIN)]:
        assert solve(empty, objective, sense).status is LpStatus.INFEASIBLE
        assert solve(empty, objective, sense,
                        tie=([1], Sense.MIN)).status is LpStatus.INFEASIBLE
    assert check_bounded_nonempty(empty) == (False, True)
    with pytest.raises(InfeasibleError):
        solve_lex(empty, [1], Sense.MAX, [1], Sense.MAX)
    assert len(built) == 1


def _full_tableau(poly):
    """The full tableau [A | I | aux | rhs] in ints that `_Tableau`
    condenses: row i is [a_i | e_i | -1 if rhs_i < 0 | rhs_i] for
    poly's integer row i = (a_i | rhs_i), with the auxiliary column only
    when some rhs is negative."""
    n, m = poly.dim, poly.num_rows
    aux = any(ints[-1] < 0 for ints in poly.rows)
    return [[*ints[:n], *[int(k == i) for k in range(m)],
             *([-(ints[-1] < 0)] if aux else []), ints[-1]]
            for i, ints in enumerate(poly.rows)]


@given(small_polytopes(), st.lists(st.integers(0, 99), min_size=1,
                                   max_size=6))
# RATIONAL_BOX's first row scales to [2, 0 | 3]: a pivot on its 2 from
# d = 1, then one on row 1's 2 from d = 2, takes each branch in turn.
@example((RATIONAL_BOX, [0, 0], Sense.MAX), [0, 1])
@settings(max_examples=80, deadline=None)
def test_pivot_matches_dense_bareiss(case, picks):
    # Each pick pivots a copy of the condensed tableau on one of its
    # nonzero entries, which must leave the tableau it was copied from as
    # it was.  A full tableau beside it takes the same pivot by the dense
    # update (p*row - f*prow) // d written out; the condensed one must
    # be its nonbasic columns, in `nonbasic` order, and the rhs, and the
    # full one's basic columns must be d·e_i.
    tab = lp._Tableau(case[0])
    full, d = _full_tableau(case[0]), tab.d
    for pick in picks:
        entries = [(i, k) for i, row in enumerate(tab.rows)
                   for k in range(len(row) - 1) if row[k]]
        row, col = entries[pick % len(entries)]
        label = tab.nonbasic[col]
        prow, p = full[row], full[row][label]
        if p < 0:
            prow, p = [-a for a in prow], -p
        assert all((p * a - irow[label] * b) % d == 0
                   for irow in full for a, b in zip(irow, prow))
        full = [prow if i == row else
                [(p * a - irow[label] * b) // d for a, b in zip(irow, prow)]
                for i, irow in enumerate(full)]
        d = p
        source, kept = tab, [row[:] for row in tab.rows]
        tab = tab.copy()
        tab.pivot(row, col)
        assert source.rows == kept
        assert tab.d == d
        assert tab.rows == [[irow[j] for j in tab.nonbasic] + irow[-1:]
                            for irow in full]
        assert all(irow[j] == d * (i == r) for r, j in enumerate(tab.basis)
                   for i, irow in enumerate(full))


@given(small_polytopes())
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=40, deadline=None)
def test_solves_leave_the_phase_one_tableau_as_it_was(case):
    # Every solve starts from a copy that shares the rows of the
    # phase-one tableau, or of its objective's kept first-stage tableau,
    # so a pivot that wrote into a row in place would show here, and a
    # solve on a polyhedron whose kept stages are filled gives the point,
    # value and certificates of the same solve on a fresh one.
    poly, obj, sense = case
    start = poly._phase_one_tableau
    first = ([row[:] for row in start.rows], start.d, start.basis[:])
    neg = [-c for c in obj]
    solves = [(obj, sense, None)]
    for j in range(poly.dim):
        unit = [int(k == j) for k in range(poly.dim)]
        solves += [(unit, Sense.MIN, (neg, Sense.MAX)),
                   (neg, Sense.MAX, (unit, Sense.MAX)),
                   (neg, Sense.MAX, (unit, Sense.MIN)),
                   (obj, sense, (unit, Sense.MAX)),
                   (obj, sense, (unit, Sense.MIN))]
    for objective, goal, _ in solves:
        solve(poly, objective, goal)
    tableaux = [tab for tab in poly._stage_one.values() if tab]
    kept = [([row[:] for row in tab.rows], tab.d, tab.basis[:])
            for tab in tableaux]
    for objective, goal, tie in solves:
        fresh = Polyhedron.from_rows(poly.rows)
        assert (_certified(poly, objective, goal, tie)
                == _certified(fresh, objective, goal, tie))
    assert (start.rows, start.d, start.basis) == first
    assert [(tab.rows, tab.d, tab.basis) for tab in tableaux] == kept


@given(small_polytopes())
@example((STRIP, [1, 0], Sense.MAX))
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=60, deadline=None)
def test_free_columns_enter_only_in_phase_one(case):
    # Phase one leaves rank A free columns basic, as many as any basis
    # holds, and a basic free column never leaves, so no later solve or
    # tie stage pivots a free column in.
    poly, obj, sense = case
    poly = Polyhedron.from_rows(poly.rows)
    n = poly.dim
    start = poly._phase_one_tableau
    assert sum(col < n for col in start.basis) \
        == len(span_basis(rational_rows(poly)[0]))
    entered, pivot = [], lp._Tableau.pivot

    def counted(self, row, col):
        entered.append(self.nonbasic[col])
        pivot(self, row, col)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp._Tableau, "pivot", counted)
        solve(poly, obj, sense)
        for j in range(n):
            unit = [int(k == j) for k in range(n)]
            for goal in Sense:
                solve(poly, unit, goal, tie=(obj, sense))
                try:
                    solve_lex(poly, obj, sense, unit, goal)
                except UnboundedError:
                    pass
    assert all(col >= n for col in entered)


def check_duals(poly, obj, tie=None):
    """Solve max obj, then tie on its optimal face, on poly; each dual
    read off a final objective row must equal the reference k x k solve
    on its basis, and the first stage's certificate must be the kept
    tableau's row.  Returns (status, tableau, the tie stage's dual before
    the multiple of obj is added)."""
    status, tab, certs = lp._phase_two(
        poly, _scaled(obj), None if tie is None else _scaled(tie))
    if status is not LpStatus.OPTIMAL:
        return status, None, None
    first = poly._stage_one[_scaled(obj)]
    assert certs[0][0] == first.slack_costs()
    assert (_dual(certs[0][0], _scaled(obj)[0] * first.d)
            == reference_dual.dual(first, poly, obj))
    if tie is None:
        return status, tab, None
    mu_s = _dual(tab.slack_costs(), _scaled(tie)[0] * tab.d)
    assert mu_s == reference_dual.dual(tab, poly, tie)
    return status, tab, mu_s


@given(small_polytopes())
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@example((STRIP, [1, 0], Sense.MIN))
@settings(max_examples=80, deadline=None)
def test_dual_matches_the_reference_solve(case):
    poly, obj, sense = case
    scale, ints = lp.scaled_objective(obj, sense, poly.dim)
    obj = tuple([F(a, scale) for a in ints])
    ties = [None]
    for j in range(poly.dim):
        unit = tuple([F(int(k == j)) for k in range(poly.dim)])
        ties += [unit, tuple([-c for c in unit])]
    for tie in ties:
        check_duals(poly, obj, tie)


def test_dual_matches_the_reference_on_chosen_cases(monkeypatch):
    # The rows with negative right-hand sides keep their sign and share
    # one auxiliary column for phase one, -1 on exactly those rows, which
    # phase one drops.  The tableau keeps one column per nonbasic
    # variable and the rhs.
    tab = lp._Tableau(RATIONAL_BOX)
    n = RATIONAL_BOX.dim
    assert tab.nonbasic == [0, 1, n + RATIONAL_BOX.num_rows]
    assert all(len(row) == n + 2 for row in tab.rows)
    assert [row[n] for row in tab.rows] == [0, 0, -1, -1, 0]
    assert all(len(row) == n + 1
               for row in RATIONAL_BOX._phase_one_tableau.rows)
    for obj in [(F(1, 3), F(-3, 4)), (F(-1), F(-1)), (F(1, 2), F(2, 3))]:
        assert check_duals(RATIONAL_BOX, obj)[0] is LpStatus.OPTIMAL
    # A degenerate optimal vertex: three rows are tight at (1, 1) in the
    # plane, and one of their slacks stays basic at level zero.
    apex = Polyhedron([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]],
                      [1, 1, 2, 0, 0])
    _, tab, _ = check_duals(apex, (F(1), F(1)))
    assert _point(tab) == (1, 1)
    assert sum(dot(row, _point(tab)) == r
               for row, r in zip(*rational_rows(apex))) == 3
    assert sum(tab.basis[i] >= apex.dim and not tab.rows[i][-1]
               for i in range(apex.num_rows)) == 1
    # A tie stage on the unit square's face v1 = 1: maximizing v2 - v1
    # there takes -1 on the held row v1 <= 1.
    _, tab, mu_s = check_duals(UNIT_SQUARE, (F(1), F(0)), (F(-1), F(1)))
    assert min(mu_s) < 0 and _point(tab) == (1, 1)
    # A repeated objective is served from the kept first stage: only the
    # tie stage runs, and the kept dual is the reference's.
    poly = Polyhedron.from_rows(UNIT_SQUARE.rows)
    check_duals(poly, (F(1), F(0)))
    kept = dict(poly._stage_one)
    runs, run = [], lp._Tableau.run

    def counted(self, cost, allowed):
        runs.append(cost)
        return run(self, cost, allowed)

    monkeypatch.setattr(lp._Tableau, "run", counted)
    check_duals(poly, (F(1), F(0)), (F(0), F(-1)))
    assert runs == [(0, -1)]
    assert poly._stage_one == kept


def test_stage_one_keys_on_the_scale_and_the_ints():
    # (1/2, 1) and (1, 2) scale to the same ints, but they are two
    # objectives with two optimal values.
    poly = Polyhedron.from_rows(UNIT_SQUARE.rows)
    assert solve(poly, [F(1, 2), 1]).value == F(3, 2)
    assert solve(poly, [1, 2]).value == 3
    assert sorted(poly._stage_one) == [(1, (1, 2)), (2, (1, 2))]


def _first_certificate(poly, obj):
    """(o, c, point) of max obj over poly, as `solve_lp` checks them."""
    status, tab, certs = lp._phase_two(poly, _scaled(obj))
    assert status is LpStatus.OPTIMAL
    return (*certs[0], tab.point())


def _rejected(poly, o, c, point):
    failures = CERT_LOG.failures
    with pytest.raises(LpInternalError):
        lp._verify_certificate(poly, o, c, point)
    return CERT_LOG.failures == failures + 1


@given(small_polytopes())
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX))
@settings(max_examples=60, deadline=None)
def test_certificate_check_rejects_altered_certificates(case):
    poly, obj, _ = case
    o, c, (w, d) = _first_certificate(poly, obj)
    lp._verify_certificate(poly, o, c, (w, d))
    lp._verify_certificate(poly, [0] * poly.num_rows, [0] * poly.dim, (w, d))
    # A point one unit along a coordinate that c weighs has another value.
    for j, x in enumerate(w):
        if c[j]:
            assert _rejected(poly, o, c, (w[:j] + [x + d] + w[j + 1:], d))
    # o_i + 1 adds the integer row i.
    for i, row in enumerate(poly.rows):
        if any(row[:-1]):
            assert _rejected(poly, o[:i] + [o[i] + 1] + o[i + 1:], c, (w, d))
    # With row 0 repeated last, moving o_0 + 1 onto row 0 from the copy
    # keeps sum o_r ints_r whole, so only the sign is wrong.
    twin = Polyhedron.from_rows(poly.rows + poly.rows[:1])
    lp._verify_certificate(twin, o + [0], c, (w, d))
    assert _rejected(twin, [2 * o[0] + 1] + o[1:] + [-o[0] - 1], c, (w, d))


@given(small_polytopes(), st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9),
                          st.integers(-2, 2)), max_size=3))
@example((RATIONAL_BOX, [F(1, 3), F(-3, 4)], Sense.MAX), 1, [])
@settings(max_examples=120, deadline=None)
def test_integer_check_agrees_with_the_fraction_check(case, den, edits):
    # The certificate o for c at w / d, read as mu_r = o_r / D for
    # obj = c / D, is the old Fraction check's (obj, value, mu); each edit
    # adds to one entry of o, c or w, or to d.
    poly, obj, _ = case
    o, c, (w, d) = _first_certificate(poly, obj)
    parts = [o, list(c), w]
    for part, index, delta in edits:
        if part < 3:
            vec = parts[part]
            vec[index % len(vec)] += delta
        else:
            d = max(1, d + delta)
    o, c, w = parts
    mu = list(_dual(o, den))
    target = [F(x, den) for x in c]
    value = dot(target, [F(x, d) for x in w])
    accepted = reference_dual.certifies(poly, target, value, mu)
    try:
        lp._verify_certificate(poly, o, c, (w, d))
    except LpInternalError:
        assert not accepted
    else:
        assert accepted


def test_lex_certificate_needs_the_primary(monkeypatch):
    # On the edge v1 = 1 the secondary gains by raising v2, but over the
    # square it would rather lower v1: its own dual is negative on the
    # held row v1 <= 1, and only (-1, 1) + 1·(1, 0) has a certificate.
    # Each check is recorded as c and the value c·v, both over gcd(c).
    checked = []
    verify = lp._verify_certificate

    def record(poly, o, c, point):
        w, d = point
        g = math.gcd(*c)
        checked.append((tuple([F(x, g) for x in c]),
                        F(sum(a * x for a, x in zip(c, w)), g * d)))
        verify(poly, o, c, point)

    monkeypatch.setattr(lp, "_verify_certificate", record)
    assert solve_lex(UNIT_SQUARE, [1, 0], Sense.MAX, [-1, 1], Sense.MAX) \
        == ((F(1), F(1)), 0)
    assert checked == [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1))]


def test_lex_errors():
    with pytest.raises(InfeasibleError):
        solve_lex(EMPTY, [1], Sense.MAX, [1], Sense.MAX)
    with pytest.raises(UnboundedError):
        solve_lex(Polyhedron([[-1]], [0]), [1], Sense.MAX, [1], Sense.MAX)
    # The primary's optimal face of the strip is the line v1 = 1.
    with pytest.raises(UnboundedError):
        solve_lex(STRIP, [1, 0], Sense.MAX, [0, 1], Sense.MAX)


def test_bounded_nonempty_triples():
    assert check_bounded_nonempty(UNIT_SQUARE) == (True, True)
    assert check_bounded_nonempty(Polyhedron([[-1]], [0])) == (True, False)
    assert check_bounded_nonempty(EMPTY) == (False, True)


def test_boundedness_reads_only_the_integer_rows():
    # The boundedness LP maximizes minus the sum of the integer rows, as
    # `from_rows` takes them.  The ray v >= 0 has rank A = n, so its LP
    # decides it.
    for rows, found in [(RATIONAL_BOX.rows, (True, True)),
                        (((-1, 0),), (True, False)),
                        (EMPTY.rows, (False, True))]:
        assert check_bounded_nonempty(Polyhedron.from_rows(rows)) == found


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
    probes = [solve(poly, [int(k == j) for k in range(poly.dim)], sense)
              for j in range(poly.dim) for sense in Sense]
    bounded = all(out.status is LpStatus.OPTIMAL for out in probes)
    assert check_bounded_nonempty(poly) == (True, bounded)


@st.composite
def boxes_with_cuts(draw):
    """A box, as in `small_polytopes`, plus up to three rows with any
    right-hand side, negative ones included, so the set may be empty."""
    n = draw(st.integers(1, 3))
    rows, rhs = [], []
    for j in range(n):
        low = draw(_rationals(-3, 1))
        unit = [int(k == j) for k in range(n)]
        rows += [unit, [-u for u in unit]]
        rhs += [low + draw(_rationals(0, 3)), -low]
    for _ in range(draw(st.integers(0, 3))):
        rows.append([draw(_rationals(-3, 3)) for _ in range(n)])
        rhs.append(draw(_rationals(-6, 3)))
    return Polyhedron(rows, rhs)


# Phase one ends with its auxiliary column basic: on the segment v1 = 1
# of the unit square at level zero, so the auxiliary pivots out; on the
# square cut by v1 + v2 <= -1 at a positive level, so the set is empty.
AUX_AT_ZERO = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, -1, 0])
AUX_POSITIVE = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
                          [1, 1, 0, 0, -1])


@given(boxes_with_cuts())
@example(AUX_AT_ZERO)
@example(AUX_POSITIVE)
@settings(max_examples=120, deadline=None)
def test_emptiness_matches_the_brute_vertices(poly):
    # A box is bounded, so it has a point exactly when it has a vertex.
    try:
        nonempty = bool(_brute_vertices(*rational_rows(poly)))
    except ValueError:
        nonempty = False
    assert is_nonempty(poly) is nonempty
    fresh = Polyhedron.from_rows(poly.rows)
    infeasible = solve(fresh, [0] * poly.dim).status is LpStatus.INFEASIBLE
    assert infeasible is not nonempty
    fresh = Polyhedron.from_rows(poly.rows)
    assert check_bounded_nonempty(fresh) == (nonempty, True)


def test_phase_one_ends_with_the_auxiliary_at_either_level(monkeypatch):
    levels, run = [], lp._Tableau.run

    def recorded(self, cost, allowed):
        status = run(self, cost, allowed)
        aux = self.n + self.m
        if aux in self.basis:
            levels.append(self.rows[self.basis.index(aux)][-1])
        return status

    monkeypatch.setattr(lp._Tableau, "run", recorded)
    assert is_nonempty(Polyhedron.from_rows(AUX_AT_ZERO.rows))
    assert levels == [0]
    levels.clear()
    assert not is_nonempty(Polyhedron.from_rows(AUX_POSITIVE.rows))
    assert len(levels) == 1 and levels[0] > 0


def test_determinism():
    # Repeated solves, on the same polyhedron or a fresh copy, give the
    # same point and the same certificates.
    poly = Polyhedron([[1, 1], [1, -1], [-1, 0], [0, -1], [1, 0]],
                      [2, 1, 0, 0, 1])
    first = _certified(poly, [1, 0], Sense.MAX)
    for _ in range(3):
        for target in (poly, Polyhedron.from_rows(poly.rows)):
            assert _certified(target, [1, 0], Sense.MAX) == first


def test_negative_rhs_phase_one():
    # Takes the auxiliary column: x >= 2 within [0, 5].
    poly = Polyhedron([[1], [-1]], [5, -2])
    out = solve(poly, [-1], Sense.MAX)
    assert out.value == -2 and out.point == (F(2),)
    verify_max_certificate(poly, (F(-1),), out)


def test_redundant_equality_rows():
    # x = 1 stated twice; the dependent row must not break the dual.
    poly = Polyhedron([[1], [-1], [1], [-1]], [1, -1, 1, -1])
    out = solve(poly, [1], Sense.MAX)
    assert out.value == 1
    verify_max_certificate(poly, (F(1),), out)


def test_certificate_log_counts():
    before = (CERT_LOG.optimal_solves, CERT_LOG.verified, CERT_LOG.failures)
    solve(UNIT_SQUARE, [1, 1], Sense.MAX)
    solve(TRIANGLE, [1, 0], Sense.MIN)
    assert (CERT_LOG.optimal_solves - before[0],
            CERT_LOG.verified - before[1],
            CERT_LOG.failures - before[2]) == (2, 2, 0)
