import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbo import geometry
from rbo.geometry import (
    CapExceededError,
    argmax_vertices,
    enumerate_faces,
    enumerate_vertices,
    exposure_check,
    project_polytope,
    tight_rows_at,
)
from rbo.lp import Polyhedron
from rbo.numeric import dot
from rbo.uncertainty import Interval
from test_lp import _rationals, small_polytopes

SEGMENT = Polyhedron([[1], [-1]], [1, 0])
UNIT_SQUARE = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
TRIANGLE = Polyhedron([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])


def brute_force_faces(poly, vset):
    """Independent oracle: iterate all row subsets, close tight sets."""
    tights = [tight_rows_at(poly, v) for v in vset.vertices]
    found = {}
    for size in range(poly.num_rows + 1):
        for subset in itertools.combinations(range(poly.num_rows), size):
            s = frozenset(subset)
            members = frozenset(i for i, t in enumerate(tights) if t >= s)
            if members and members not in found:
                found[members] = frozenset.intersection(
                    *(tights[i] for i in members))
    return found


def test_vertices_of_fixtures():
    assert len(enumerate_vertices(UNIT_SQUARE)) == 4
    assert len(enumerate_vertices(TRIANGLE)) == 3
    assert len(enumerate_vertices(SEGMENT)) == 2


def test_vertices_deduped_on_duplicate_rows():
    doubled = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]],
                         [1, 1, 0, 0, 1])
    verts = enumerate_vertices(doubled).vertices
    # brute-force pairwise distinctness check
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            assert verts[i] != verts[j]
    assert len(verts) == 4


def test_vertex_cap():
    with pytest.raises(CapExceededError):
        enumerate_vertices(UNIT_SQUARE, cap=3)


def test_empty_poly_has_no_vertices():
    with pytest.raises(ValueError):
        enumerate_vertices(Polyhedron([[1], [-1]], [0, -1]))


def test_hypercube_vertex_counts():
    for k in range(1, 5):
        rows, rhs = [], []
        for i in range(k):
            row = [0] * k
            row[i] = 1
            rows.append(list(row))
            rhs.append(1)
            rows.append([-c for c in row])
            rhs.append(0)
        assert len(enumerate_vertices(Polyhedron(rows, rhs))) == 2 ** k


@pytest.mark.parametrize("poly,expected", [
    (SEGMENT, 3), (UNIT_SQUARE, 9), (TRIANGLE, 7)])
def test_face_counts(poly, expected):
    vset = enumerate_vertices(poly)
    faces = enumerate_faces(poly, vset)
    assert len(faces) == expected
    oracle = brute_force_faces(poly, vset)
    assert {f.vertex_indices for f in faces} == set(oracle)
    for face in faces:
        assert face.tight_rows == oracle[face.vertex_indices]


def test_face_closure_invariant():
    vset = enumerate_vertices(TRIANGLE)
    tights = [tight_rows_at(TRIANGLE, v) for v in vset.vertices]
    for face in enumerate_faces(TRIANGLE, vset):
        members = frozenset(i for i, t in enumerate(tights)
                            if t >= face.tight_rows)
        assert members == face.vertex_indices


def test_exposure_segment_upper_vertex():
    vset = enumerate_vertices(SEGMENT)
    faces = enumerate_faces(SEGMENT, vset)
    box = Interval((F(-1),), (F(1),))
    one = vset.vertices.index((F(1),))
    face = next(f for f in faces if f.vertex_indices == frozenset([one]))
    cert = exposure_check(face, vset, box.shadow().directions)
    assert cert is not None
    assert cert.c == (F(1),) and cert.margin == 1


def test_exposure_unreachable_vertex():
    vset = enumerate_vertices(SEGMENT)
    faces = enumerate_faces(SEGMENT, vset)
    zero = vset.vertices.index((F(0),))
    face = next(f for f in faces if f.vertex_indices == frozenset([zero]))
    box = Interval((F(1),), (F(2),))
    assert exposure_check(face, vset, box.shadow().directions) is None


def test_exposure_full_face_zero_objective():
    vset = enumerate_vertices(SEGMENT)
    faces = enumerate_faces(SEGMENT, vset)
    full = next(f for f in faces if len(f.vertex_indices) == 2)
    box = Interval((F(-1),), (F(1),))
    cert = exposure_check(full, vset, box.shadow().directions)
    assert cert is not None and cert.c == (F(0),)


def test_exposure_rejects_wrong_dimension():
    vset = enumerate_vertices(SEGMENT)
    faces = enumerate_faces(SEGMENT, vset)
    square = Interval((F(-1), F(-1)), (F(1), F(1))).shadow().directions
    with pytest.raises(ValueError, match="direction dimension 2"):
        exposure_check(faces[0], vset, square)


def test_exposure_round_trip_square():
    vset = enumerate_vertices(UNIT_SQUARE)
    box = Interval((F(-1), F(-1)), (F(1), F(1)))
    for face in enumerate_faces(UNIT_SQUARE, vset):
        cert = exposure_check(face, vset, box.shadow().directions)
        if cert is not None:
            assert argmax_vertices(vset, cert.c) == face.vertex_indices


def test_grid_scan_covers_exposable_faces():
    # Every argmax set hit by a scenario grid must be an exposable face.
    vset = enumerate_vertices(TRIANGLE)
    box = Interval((F(-1), F(-1)), (F(1), F(1)))
    faces = enumerate_faces(TRIANGLE, vset)
    exposable = {f.vertex_indices for f in faces
                 if exposure_check(f, vset, box.shadow().directions)
                 is not None}
    grid = [F(k, 4) for k in range(-4, 5)]
    for c in itertools.product(grid, repeat=2):
        assert argmax_vertices(vset, c) in exposable


def test_projection_diagonal_score():
    image = project_polytope(UNIT_SQUARE, [[1, 1]])
    verts = enumerate_vertices(image).vertices
    assert set(verts) == {(F(0),), (F(2),)}


def test_projection_preserves_extremes():
    # Project the triangle onto each axis and onto a skew direction; the
    # image extremes must match direct LP optima.
    from rbo.lp import Sense, solve_lp

    for direction in ((F(1), F(0)), (F(0), F(1)), (F(2), F(-1))):
        image = project_polytope(TRIANGLE, [direction])
        lo = min(v[0] for v in enumerate_vertices(image).vertices)
        hi = max(v[0] for v in enumerate_vertices(image).vertices)
        assert hi == solve_lp(TRIANGLE, direction, Sense.MAX).value
        assert lo == solve_lp(TRIANGLE, direction, Sense.MIN).value


def test_projection_of_flat_image():
    # Image coordinates are linearly dependent: the image is a flat segment.
    image = project_polytope(SEGMENT, [[1], [2]])
    verts = set(enumerate_vertices(image).vertices)
    assert verts == {(F(0), F(0)), (F(1), F(2))}


def test_projection_of_empty_polyhedron_is_refused():
    with pytest.raises(ValueError,
                       match="projection produced an infeasible row"):
        project_polytope(Polyhedron([[1], [-1]], [0, -1]), [[1]])


def test_projection_row_cap(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_PROJECTION_ROWS", 1)
    with pytest.raises(CapExceededError, match="cap 1"):
        project_polytope(UNIT_SQUARE, [[1, 1]])


@given(small_polytopes(), st.data())
@settings(max_examples=60, deadline=None)
def test_projection_is_the_image_of_the_vertices(case, data):
    # The image of a polytope is the hull of its vertices' images: every
    # image lies in the projection and every projection vertex is one.
    # A projection of more than 60 rows is refused by the row cap: the
    # LP prune of a few hundred rows runs for many minutes.
    poly = case[0]
    image = [data.draw(st.lists(_rationals(-2, 2), min_size=poly.dim,
                                max_size=poly.dim), label="image row")
             for _ in range(data.draw(st.integers(1, 2)))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_MAX_PROJECTION_ROWS", 60)
        try:
            shadow = project_polytope(poly, image)
        except CapExceededError:
            return
    for row in shadow.a:
        assert all(c.denominator == 1 for c in row)
        assert math.gcd(*[c.numerator for c in row]) == 1
    images = {tuple([dot(t, v) for t in image])
              for v in enumerate_vertices(poly).vertices}
    assert all(shadow.contains(w) for w in images)
    assert set(enumerate_vertices(shadow).vertices) <= images
