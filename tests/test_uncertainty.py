import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbo.geometry import enumerate_vertices
from rbo.lp import Polyhedron, is_nonempty
from rbo.numeric import dot
from rbo.uncertainty import (
    KINDS,
    MAX_SCENARIOS,
    CapExceededError,
    ConvexHull,
    DiscreteSet,
    Interval,
    ProductFinite,
)
from helpers import polyhedron


def vec(*values):
    return tuple(F(v) for v in values)


# (set, its finite scenarios or None)
CASES = {
    "interval": (Interval(vec(-1, 2, 0), vec(1, 2, 1)), None),
    "discrete": (DiscreteSet((vec(1, 2), vec(3, 4))),
                 (vec(1, 2), vec(3, 4))),
    "convex_hull": (ConvexHull((vec(0, 0), vec(2, 0), vec(0, 2))), None),
    "product_finite": (ProductFinite((vec(0, 1), vec(5))),
                       (vec(0, 5), vec(1, 5))),
    "degenerate_box": (Interval(vec(1, -2), vec(1, -2)), (vec(1, -2),)),
    "one_point_hull": (ConvexHull((vec(3, 1),)), (vec(3, 1),)),
    "coincident_hull": (ConvexHull((vec(3, 1), vec(3, 1))), (vec(3, 1),)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_uncertainty_protocol(name):
    unc, finite = CASES[name]
    doc = json.loads(json.dumps(unc.to_json()))
    assert KINDS[doc["kind"]].from_json(doc) == unc
    assert all(unc.contains(c) for c in unc.corner_samples())
    assert unc.finite_scenarios() == finite
    # The corner samples of these sets span them, so they fix exactly
    # the coordinates every member shares.
    for j in range(unc.dim):
        values = {c[j] for c in unc.corner_samples()}
        assert unc.pinned(j) == (values.pop() if len(values) == 1 else None)
    if finite is None:
        shadow = unc.shadow()
        assert all(len(col) == unc.dim for col in shadow.columns)
        for w in enumerate_vertices(shadow.directions):
            assert unc.contains(shadow.scenario(w[:-1], w[-1]))


def test_box_corner_overrun_is_a_cap_error():
    # 2^12 corners is exactly MAX_SCENARIOS; a 13th free coordinate is over.
    box = Interval([-1] * 12 + [0], [1] * 12 + [0])
    corners = box.corner_samples()
    assert len(set(corners)) == len(corners) == MAX_SCENARIOS == 2 ** 12
    assert all(box.contains(c) for c in corners)
    with pytest.raises(CapExceededError, match="2\\^13 > 4096"):
        Interval([-1] * 13, [1] * 13).corner_samples()


def fraction_directions(unc) -> Polyhedron:
    """D as the rational rows it stands for: the sub-box's e_i <= hi and
    -e_i <= -lo, the certain part's direction pinned to 1, or the simplex
    of a hull's convex weights."""
    if isinstance(unc, Interval):
        free = unc.free_indices()
        bounds = [(unc.lower[i], unc.upper[i]) for i in free]
        if any(unc.lower[i] for i in range(unc.dim) if i not in free):
            bounds.append((F(1), F(1)))
        k, rows, rhs = len(bounds), [], []
        for i, (lo, hi) in enumerate(bounds):
            unit = tuple([F(j == i) for j in range(k)])
            rows += [unit, tuple([-v for v in unit])]
            rhs += [hi, -lo]
        return polyhedron(rows, rhs)
    k = len(unc.points)
    rows = [tuple([F(-(j == i)) for j in range(k)]) for i in range(k)]
    return polyhedron(rows + [(F(1),) * k, (F(-1),) * k],
                      [F(0)] * k + [F(1), F(-1)])


fractional = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def shadowed_sets(draw):
    """A box with fractional bounds, some pinned, or a hull of fractional
    points; either has a shadow."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        lower = draw(st.lists(fractional, min_size=n, max_size=n))
        widths = st.sampled_from([F(0), F(1, 2), F(1), F(5, 3)])
        upper = [lo + w for lo, w in zip(
            lower, draw(st.lists(widths, min_size=n, max_size=n)))]
        unc = Interval(lower, upper)
    else:
        point = st.lists(fractional, min_size=n, max_size=n)
        unc = ConvexHull(draw(st.lists(point, min_size=2, max_size=4)))
    if unc.finite_scenarios() is not None:
        unc = Interval([F(-1, 3)] * n, [F(1, 2)] * n)
    return unc


# Two sets whose shadows have λ > 1: a box pinned at 2/3 and a hull.
LAMBDA_EXAMPLES = (Interval(vec(-1, F(2, 3), 0), vec(F(1, 2), F(2, 3), 1)),
                   ConvexHull((vec(F(1, 2), 0), vec(F(-1, 3), 2))))


@given(shadowed_sets(), st.lists(st.integers(-20, 20), min_size=5,
                                 max_size=5), st.integers(1, 12))
@example(LAMBDA_EXAMPLES[0], [-2, 3, 1, 0, 0], 4)
@example(LAMBDA_EXAMPLES[1], [5, -1, 0, 0, 0], 3)
@settings(max_examples=100, deadline=None)
def test_shadow_is_written_in_ints(unc, w, d):
    # D's integer rows are those polyhedron(rows, rhs) writes from its
    # rational rows, and a scenario L·s read off L's integer rows over
    # their one denominator λ is the Fraction one.
    shadow = unc.shadow()
    assert shadow.directions.rows == fraction_directions(unc).rows
    w = w[:len(shadow.columns)]
    assert shadow.scenario(w, d) == tuple(
        [dot(w, row) / d for row in zip(*shadow.columns)])
    assert all(s.shadow().int_rows[0] > 1 for s in LAMBDA_EXAMPLES)


def reference_hull_contains(hull, c) -> bool:
    """Hull membership from rational rows: D's rows, then for each
    coordinate i the rows ±(the points' coordinates i | c_i)."""
    directions = hull.shadow().directions.rows
    rows, rhs = [r[:-1] for r in directions], [r[-1] for r in directions]
    for scores, ci in zip(zip(*hull.points), c):
        rows += [scores, tuple([-v for v in scores])]
        rhs += [ci, -ci]
    return is_nonempty(polyhedron(rows, rhs))


@st.composite
def hulls_with_members(draw):
    """A hull of 1-4 fractional points in 1-3 dimensions, some drawn as a
    multiple of the sum of two others, so linearly dependent; a convex
    combination of its points with new denominators; and a shift that
    moves it off the hull, or not."""
    n = draw(st.integers(1, 3))
    point = st.lists(fractional, min_size=n, max_size=n)
    points = draw(st.lists(point, min_size=1, max_size=4))
    if len(points) < 4 and draw(st.booleans()):
        factor = draw(st.sampled_from([F(-1), F(1, 2), F(2)]))
        points.append([factor * (a + b)
                       for a, b in zip(points[0], points[-1])])
    weights = draw(st.lists(st.integers(0, 7), min_size=len(points),
                            max_size=len(points)).filter(any))
    member = tuple([sum(F(w, sum(weights)) * p[i]
                        for w, p in zip(weights, points)) for i in range(n)])
    shift = draw(st.lists(fractional, min_size=n, max_size=n))
    return ConvexHull(points), member, shift


@given(hulls_with_members())
@example((ConvexHull((vec(F(1, 2), F(1, 3)), vec(1, F(2, 3)),
                      vec(F(-1, 2), F(-1, 3)))),
          vec(F(3, 4), F(1, 2)), [F(0), F(1, 5)]))
@settings(max_examples=100, deadline=None)
def test_hull_membership_in_ints_matches_the_rational_rows(case):
    # The hull's feasibility rows in ints, s·R_i·θ = λ·k_i, decide as the
    # rational rows did: its members are in, a member moved may not be.
    hull, member, shift = case
    assert hull.contains(member) and reference_hull_contains(hull, member)
    moved = tuple([a + b for a, b in zip(member, shift)])
    assert hull.contains(moved) is reference_hull_contains(hull, moved)
