import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbo import geometry, oracle
from rbo.geometry import (
    CapExceededError,
    enumerate_vertices,
    exposed_faces,
    project_polytope,
)
from rbo.lp import LpStatus, Polyhedron
from rbo.numeric import dot
from rbo.uncertainty import ConvexHull, Interval
from helpers import fractions, rational_rows, solve, vertices
from reference_faces import enumerate_faces, exposure_check, undominated
from test_lp import _rationals, small_polytopes

SEGMENT = Polyhedron([[1], [-1]], [1, 0])
UNIT_SQUARE = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
TRIANGLE = Polyhedron([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])


def argmax_vertices(verts, c):
    """Indices of the vertices attaining max c·v (the exposed face's)."""
    scores = [dot(c, v) for v in verts]
    best = max(scores)
    return frozenset(i for i, s in enumerate(scores) if s == best)


def tight_rows_at(poly, point):
    """The rows of poly tight at point, computed in Fractions."""
    return frozenset(i for i, row in enumerate(poly.rows)
                     if dot(row[:-1], point) == row[-1])


def vertices_and_faces(poly):
    """(vertices, faces): the vertex tuple in Fractions and the faces
    closed from the vertices' tight sets."""
    tights = vertices(poly)
    return tuple(tights), enumerate_faces(tights.values())


def brute_force_faces(poly, verts):
    """Independent oracle: the nonempty vertex sets tight on some subset
    of the rows."""
    tights = [tight_rows_at(poly, v) for v in verts]
    found = set()
    for size in range(poly.num_rows + 1):
        for subset in itertools.combinations(range(poly.num_rows), size):
            s = frozenset(subset)
            members = frozenset(i for i, t in enumerate(tights) if t >= s)
            if members:
                found.add(members)
    return found


def simplex(n):
    """{x in Q^n : x >= 0, sum(x) <= 1}, whose faces are the 2^(n+1) - 1
    nonempty subsets of its n + 1 vertices."""
    rows = [[-int(j == i) for j in range(n)] for i in range(n)] + [[1] * n]
    return Polyhedron(rows, [0] * n + [1])


def cube(k):
    """[0, 1]^k, with the rows x_i <= 1 and -x_i <= 0 in turn."""
    rows = []
    for i in range(k):
        unit = [int(j == i) for j in range(k)]
        rows += [unit, [-c for c in unit]]
    return Polyhedron(rows, [1, 0] * k)


def test_vertices_of_fixtures():
    assert len(enumerate_vertices(UNIT_SQUARE)) == 4
    assert len(enumerate_vertices(TRIANGLE)) == 3
    assert len(enumerate_vertices(SEGMENT)) == 2


def test_vertices_deduped_on_duplicate_rows():
    doubled = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]],
                         [1, 1, 0, 0, 1])
    verts = tuple(enumerate_vertices(doubled))
    # brute-force pairwise distinctness check
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            assert verts[i] != verts[j]
    assert len(verts) == 4


def test_vertex_cap():
    # The double description keeps at most CAP = 4096 rays after each
    # row: the 12-cube's 4096 vertices fit, the 13-cube's 8192 are refused.
    assert len(enumerate_vertices(cube(12))) == 2 ** 12 == geometry.CAP
    with pytest.raises(CapExceededError, match="4096 rays"):
        enumerate_vertices(cube(13))


@given(small_polytopes())
@settings(max_examples=60, deadline=None)
def test_vertices_match_the_brute_force_oracle(case):
    # Boxes of zero width make some polytopes lower-dimensional.  Each
    # vertex carries exactly the rows tight at it.
    poly = case[0]
    tights = vertices(poly)
    assert tuple(tights) \
        == tuple(oracle._brute_vertices(*rational_rows(poly)))
    for v, tight in tights.items():
        assert tight == tight_rows_at(poly, v)


def test_empty_poly_has_no_vertices():
    with pytest.raises(ValueError):
        enumerate_vertices(Polyhedron([[1], [-1]], [0, -1]))


def test_hypercube_vertex_counts():
    for k in range(1, 5):
        assert len(enumerate_vertices(cube(k))) == 2 ** k


@pytest.mark.parametrize("poly,expected", [
    (SEGMENT, 3), (UNIT_SQUARE, 9), (TRIANGLE, 7)])
def test_face_counts(poly, expected):
    verts, faces = vertices_and_faces(poly)
    assert len(faces) == expected
    assert set(faces) == brute_force_faces(poly, verts)


def test_face_closure_invariant():
    # A face holds every vertex tight on all the rows its vertices share.
    verts, faces = vertices_and_faces(TRIANGLE)
    tights = [tight_rows_at(TRIANGLE, v) for v in verts]
    for face in faces:
        shared = frozenset.intersection(*(tights[i] for i in face))
        assert face == {i for i, t in enumerate(tights) if t >= shared}


@given(small_polytopes())
@settings(max_examples=60, deadline=None)
def test_faces_match_the_brute_force_oracle(case):
    poly = case[0]
    verts, faces = vertices_and_faces(poly)
    assert faces == sorted(brute_force_faces(poly, verts),
                           key=lambda f: (len(f), sorted(f)))


def test_face_lattice_at_the_budget():
    # CAP = 4096 faces are allowed: the 11-simplex has 4095.
    poly = simplex(11)
    assert len(vertices_and_faces(poly)[1]) == 2 ** 12 - 1


def test_face_lattice_over_the_budget():
    # The 12-simplex has 8191 faces and is refused.
    poly = simplex(12)
    with pytest.raises(CapExceededError, match="4096 faces"):
        vertices_and_faces(poly)


def test_exposure_segment_upper_vertex():
    verts, faces = vertices_and_faces(SEGMENT)
    box = Interval((F(-1),), (F(1),))
    one = verts.index((F(1),))
    assert frozenset([one]) in faces
    assert exposure_check(frozenset([one]), verts,
                          box.shadow().directions) == (F(1),)


def test_exposure_unreachable_vertex():
    verts, faces = vertices_and_faces(SEGMENT)
    zero = verts.index((F(0),))
    assert frozenset([zero]) in faces
    box = Interval((F(1),), (F(2),))
    assert exposure_check(frozenset([zero]), verts,
                          box.shadow().directions) is None


def test_exposure_full_face_zero_objective():
    verts, faces = vertices_and_faces(SEGMENT)
    full = faces[-1]
    assert len(full) == 2
    box = Interval((F(-1),), (F(1),))
    assert exposure_check(full, verts, box.shadow().directions) == (F(0),)


def test_exposure_rejects_wrong_dimension():
    verts, faces = vertices_and_faces(SEGMENT)
    square = Interval((F(-1), F(-1)), (F(1), F(1))).shadow().directions
    with pytest.raises(ValueError, match="direction dimension 2"):
        exposure_check(faces[0], verts, square)


def test_exposure_round_trip_square():
    verts, faces = vertices_and_faces(UNIT_SQUARE)
    box = Interval((F(-1), F(-1)), (F(1), F(1)))
    for face in faces:
        s = exposure_check(face, verts, box.shadow().directions)
        if s is not None:
            assert argmax_vertices(verts, s) == face


def test_grid_scan_covers_exposable_faces():
    # Every argmax set hit by a scenario grid must be an exposable face.
    verts, faces = vertices_and_faces(TRIANGLE)
    box = Interval((F(-1), F(-1)), (F(1), F(1)))
    exposable = {f for f in faces
                 if exposure_check(f, verts, box.shadow().directions)
                 is not None}
    grid = [F(k, 4) for k in range(-4, 5)]
    for c in itertools.product(grid, repeat=2):
        assert argmax_vertices(verts, c) in exposable


def fraction_faces(verts, directions, upward):
    """`exposed_faces` as a list of (face, s), each s in Fractions."""
    return [(face, fractions(*s))
            for face, s in exposed_faces(verts, directions, upward).items()]


# The unit square's vertices (0, 0), (0, 1), (1, 0), (1, 1) under the
# directions s = (-1 + 3l, 2 - 3l), 0 <= l <= 1: (0, 1) wins up to
# l = 1/3, where the top edge ties, then (1, 1) up to l = 2/3, where the
# right edge ties, then (1, 0).
SEGMENT_OF_DIRECTIONS = Polyhedron([[1, 1], [-1, -1], [1, 0], [-1, 0]],
                                   [1, -1, 2, 1])


def test_exposed_faces_of_a_direction_segment():
    # Upward, the three vertices; no vertex of Q exposes (1, 1) alone, so
    # its direction is the mean of the two edges' vertices of Q.
    # Downward, the two edges, the right one first.
    verts = tuple(enumerate_vertices(UNIT_SQUARE))
    points = tuple(vertices(UNIT_SQUARE))
    assert fraction_faces(verts, SEGMENT_OF_DIRECTIONS, True) \
        == [(frozenset([1]), (F(-1), F(2))), (frozenset([2]), (F(2), F(-1))),
            (frozenset([3]), (F(1, 2), F(1, 2)))]
    assert fraction_faces(verts, SEGMENT_OF_DIRECTIONS, False) \
        == [(frozenset([2, 3]), (F(1), F(0))),
            (frozenset([1, 3]), (F(0), F(1)))]
    for upward in (True, False):
        for face, s in fraction_faces(verts, SEGMENT_OF_DIRECTIONS, upward):
            assert SEGMENT_OF_DIRECTIONS.contains(s)
            assert argmax_vertices(points, s) == face


def test_exposed_faces_are_not_bounded_by_their_closure(monkeypatch):
    # The simplex D = {s >= -1, sum(s) <= 1} holds 0 inside, so it
    # exposes all 27 faces of the 3-cube, from a double description of
    # fewer rays.  A cap of 26 bounds the rays only: upward the scan takes
    # the 8 vertices, downward the whole cube, which s = 0 exposes.
    verts = tuple(enumerate_vertices(cube(3)))
    directions = Polyhedron([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
                            [1, 1, 1, 1])
    monkeypatch.setattr(geometry, "CAP", 26)
    assert list(exposed_faces(verts, directions, True)) \
        == [frozenset([i]) for i in range(8)]
    assert fraction_faces(verts, directions, False) \
        == [(frozenset(range(8)), (F(0),) * 3)]


@st.composite
def direction_polytopes(draw, dim):
    """D in dim coordinates: a box with lower < upper in each, which may
    miss 0, or the simplex of convex weights of a hull of dim points."""
    if draw(st.booleans()):
        lower = [draw(_rationals(-2, 1)) for _ in range(dim)]
        upper = [lo + draw(_rationals(1, 2)) for lo in lower]
        return Interval(lower, upper).shadow().directions
    return ConvexHull([[F(i)] for i in range(dim)]).shadow().directions


@given(small_polytopes(), st.data())
@settings(max_examples=60, deadline=None)
def test_exposed_faces_match_the_exposure_lp(case, data):
    # Each way, the faces from one double description are the minimal or
    # maximal faces of the whole lattice that an exposure LP finds
    # exposable, in the scan's order, and each direction lies in D and
    # exposes exactly its face.
    poly = case[0]
    tights = vertices(poly)
    points = tuple(tights)
    directions = data.draw(direction_polytopes(poly.dim))
    exposable = [f for f in enumerate_faces(tights.values())
                 if exposure_check(f, points, directions) is not None]
    verts = tuple(enumerate_vertices(poly))
    for upward in (True, False):
        faces = fraction_faces(verts, directions, upward)
        assert [face for face, _ in faces] == undominated(exposable, upward)
        for face, s in faces:
            assert directions.contains(s)
            assert argmax_vertices(points, s) == face


def test_projection_diagonal_score():
    image = project_polytope(UNIT_SQUARE, [[1, 1]])
    assert set(vertices(image)) == {(F(0),), (F(2),)}


def test_projection_preserves_extremes():
    # Project the triangle onto each axis and onto a skew direction; the
    # image extremes must match direct LP optima.
    from rbo.lp import Sense

    for direction in ((F(1), F(0)), (F(0), F(1)), (F(2), F(-1))):
        image = project_polytope(TRIANGLE, [direction])
        lo = min(v[0] for v in vertices(image))
        hi = max(v[0] for v in vertices(image))
        assert hi == solve(TRIANGLE, direction, Sense.MAX).value
        assert lo == solve(TRIANGLE, direction, Sense.MIN).value


def test_projection_of_flat_image():
    # Image coordinates are linearly dependent: the image is a flat segment.
    image = project_polytope(SEGMENT, [[1], [2]])
    assert set(vertices(image)) == {(F(0), F(0)), (F(1), F(2))}


def test_projection_of_empty_polyhedron_is_refused():
    image = project_polytope(Polyhedron([[1], [-1]], [0, -1]), [[1]])
    with pytest.raises(ValueError, match="no vertices found"):
        enumerate_vertices(image)


def test_projection_row_cap(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_PROJECTION_ROWS", 1)
    with pytest.raises(CapExceededError, match="cap 1"):
        project_polytope(UNIT_SQUARE, [[1, 1]])


def draw_image(data, dim):
    """One or two image rows of width dim, drawn from data."""
    return [data.draw(st.lists(_rationals(-2, 2), min_size=dim,
                               max_size=dim), label="image row")
            for _ in range(data.draw(st.integers(1, 2)))]


def _extreme(w, others):
    """Whether w is no convex combination of others, by one LP over the
    weights l >= 0 with sum(l) = 1 and sum(l_i o_i) = w."""
    if not others:
        return True
    eqs = [list(col) + [-c] for col, c in zip(zip(*others), w)]
    eqs.append([1] * len(others) + [-1])
    rows = eqs + [[-c for c in r] for r in eqs] + [
        [-(i == j) for i in range(len(others))] + [0]
        for j in range(len(others))]
    out = solve(Polyhedron([r[:-1] for r in rows],
                              [-r[-1] for r in rows]), [0] * len(others))
    return out.status is LpStatus.INFEASIBLE


@given(small_polytopes(), st.data())
@settings(max_examples=60, deadline=None)
def test_projection_is_the_image_of_the_vertices(case, data):
    # The image of a polytope is the hull of its vertices' images: every
    # image lies in the projection, whose vertices are the extreme images.
    poly = case[0]
    image = draw_image(data, poly.dim)
    shadow = project_polytope(poly, image)
    for row in shadow.rows:
        assert all(type(c) is int for c in row) and math.gcd(*row) == 1
    images = {tuple([dot(t, v) for t in image]) for v in vertices(poly)}
    assert all(shadow.contains(w) for w in images)
    assert set(vertices(shadow)) == {
        w for w in images if _extreme(w, images - {w})}
