import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbo.geometry import enumerate_vertices
from rbo.lp import Polyhedron
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
        return Polyhedron(rows, rhs)
    k = len(unc.points)
    rows = [tuple([F(-(j == i)) for j in range(k)]) for i in range(k)]
    return Polyhedron(rows + [(F(1),) * k, (F(-1),) * k],
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
    # D's integer rows are those Polyhedron(rows, rhs) writes from its
    # rational rows, and a scenario L·s read off L's integer rows over
    # their one denominator λ is the Fraction one.
    shadow = unc.shadow()
    assert shadow.directions.rows == fraction_directions(unc).rows
    w = w[:len(shadow.columns)]
    assert shadow.scenario(w, d) == tuple(
        [dot(w, row) / d for row in zip(*shadow.columns)])
    assert all(s.shadow().int_rows[0] > 1 for s in LAMBDA_EXAMPLES)
