"""The shadow's integer kernels against their older Fraction forms in
`reference_shadow`: the double description's start cone, and the
Fourier-Motzkin projection, on random polytopes, on the follower sets of
the QSAT formulas with p, n <= 2, and on POINT_Y."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_shadow
from rbo import geometry
from rbo.bilevel import instance_from_json
from rbo.compiler import (box_to_simplex, compile_qsat_optimistic,
                          compile_qsat_pessimistic, full_family)
from rbo.lp import Polyhedron, is_nonempty
from rbo.uncertainty import CapExceededError
from test_bilevel import POINT_Y
from test_lp import _rationals, small_polytopes


def homogenized(poly):
    """The int rows of the cone whose rays with t > 0 are poly's
    vertices, t >= 0 first, as `geometry._double_description` builds
    them."""
    n = poly.dim
    return [(0,) * n + (-1,)] + [r[:n] + (-r[n],) for r in poly.rows]


def outcome(project, poly, image):
    """repr of the projection, or the type and message of its refusal."""
    try:
        return repr(project(poly, image))
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)


def check_start_cone(rows):
    # The same basis, and each start ray a positive multiple of the
    # reference's (the new rays are primitive), in the same order.
    try:
        want = reference_shadow.start_cone(rows)
    except ValueError:
        with pytest.raises(ValueError, match="contains a line"):
            geometry._start_cone(rows)
        return
    start, rays = geometry._start_cone(rows)
    assert start == want[0]
    assert [z for _, z in rays] == [z for _, z in want[1]]
    for (ray, _), (ref, _) in zip(rays, want[1]):
        g = gcd(*ref)
        assert ray == [c // g for c in ref]


def check_projection(poly, image):
    assert (outcome(geometry.project_polytope, poly, image)
            == outcome(reference_shadow.project_polytope, poly, image))


@st.composite
def int_rows(draw):
    """One to six int rows of width 1 to 4, entries from -3 to 3, the
    last often a multiple of an earlier one, so many lack full rank."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    if len(rows) > 1 and draw(st.booleans()):
        rows[-1] = [draw(st.integers(-2, 2)) * a
                    for a in draw(st.sampled_from(rows[:-1]))]
    return [tuple(r) for r in rows]


@given(int_rows())
@settings(max_examples=150, deadline=None)
def test_start_cone_matches_the_reference_on_int_rows(rows):
    check_start_cone(rows)


@given(small_polytopes(), st.data())
@settings(max_examples=80, deadline=None)
def test_kernels_match_the_reference_on_random_polytopes(case, data):
    poly = case[0]
    image = data.draw(st.lists(
        st.lists(_rationals(-2, 2), min_size=poly.dim, max_size=poly.dim),
        min_size=1, max_size=3))
    check_start_cone(homogenized(poly))
    check_projection(poly, image)


def test_kernels_match_the_reference_on_the_pool_follower_sets():
    # Every nonempty Y(x) of every formula with p, n <= 2, compiled
    # optimistic, pessimistic and with hull uncertainty, projected under
    # the columns of its shadow as the adversary does, when its
    # uncertainty set is not a finite scan.
    projected = 0
    for formula in full_family(2, 2):
        optimistic = compile_qsat_optimistic(formula)
        for art in (optimistic, compile_qsat_pessimistic(formula),
                    box_to_simplex(optimistic)):
            inst = art.instance
            if inst.uncertainty.finite_scenarios() is not None:
                continue
            columns = inst.uncertainty.shadow().columns
            for x in inst.leader_set.candidates(inst.p):
                poly = inst.follower_polyhedron(x)
                if not is_nonempty(poly):
                    continue
                check_projection(poly, columns)
                check_start_cone(homogenized(poly))
                check_start_cone(homogenized(
                    geometry.project_polytope(poly, columns)))
                projected += 1
    assert projected > 1000


def point_y():
    inst, _ = instance_from_json(POINT_Y)
    return inst.follower_polyhedron(()), inst.uncertainty.shadow().columns


def test_projection_matches_the_reference_on_point_y():
    poly, columns = point_y()
    check_projection(poly, columns)
    assert geometry.project_polytope(poly, columns).num_rows > 1


def test_point_y_refusals_match_the_reference(monkeypatch):
    # The row cap (exit 3 from the CLI), set just below the 19 rows of
    # the largest step, and an empty Y, POINT_Y's with a coordinate z
    # outside the image held by z <= -1 and -z <= 0, whose elimination
    # leaves 0 <= -1 (exit 2), are refused alike and with one message.
    poly, columns = point_y()
    monkeypatch.setattr(geometry, "_MAX_PROJECTION_ROWS", 18)
    assert outcome(geometry.project_polytope, poly, columns) == (
        CapExceededError, "projection grew to 19 rows (cap 18)")
    check_projection(poly, columns)
    monkeypatch.undo()
    empty = Polyhedron.from_rows(
        [row[:-1] + (0, row[-1]) for row in poly.rows]
        + [(0,) * poly.dim + (1, -1), (0,) * poly.dim + (-1, 0)])
    columns = [col + (0,) for col in columns]
    assert outcome(geometry.project_polytope, empty, columns) == (
        ValueError, "projection produced an infeasible row")
    check_projection(empty, columns)


def test_an_equality_pair_found_after_a_step(monkeypatch):
    # The square [-1, 1]^2 under w = (y2 - y1, -y1 - y2): substituting y1
    # along the pair of w1 turns the pair of w2 into a new equality pair,
    # -w1 + w2 + 2·y2 = 0, and y2 is substituted along it.  The pairs are
    # kept as rows are added, not found again at each step.
    seen = []
    cheapest = geometry._cheapest

    def spy(rows, remaining, equal):
        seen.append(set(equal))
        return cheapest(rows, remaining, equal)

    monkeypatch.setattr(geometry, "_cheapest", spy)
    poly = Polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    check_projection(poly, [[-1, 1], [-1, -1]])
    assert seen == [
        {(-1, 0, -1, 1), (1, 0, 1, -1), (0, -1, -1, -1), (0, 1, 1, 1)},
        {(-1, 1, 0, 2), (1, -1, 0, -2)}]
