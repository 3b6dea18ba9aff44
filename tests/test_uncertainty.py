import json
from fractions import Fraction as F

import pytest

from rbo.geometry import enumerate_vertices
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
