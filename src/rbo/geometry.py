"""Polytope vertex enumeration, face lattices and exposure certificates.

A face is identified by its vertex set together with the canonical set of
constraint rows tight on all of its vertices.  Faces are generated by
closing the vertex tight-sets under pairwise join (intersection of tight
sets), which yields exactly the nonempty faces of a bounded polyhedron,
including the polytope itself.

`exposure_check` decides whether some direction in a polytope D has a
given face as its exact argmax set, by maximizing the strict separation
margin with an LP; a face is exposable iff the optimal margin is positive.

`project_polytope` computes exact images of polytopes under linear maps
by Fourier-Motzkin elimination on primitive integer rows (int
coefficients with gcd 1, one Fraction rhs), deduplicated at every step,
and a final LP-based redundancy prune; the bilevel adversary runs the
face machinery on such low-dimensional images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd
from typing import Optional, Sequence

from .lp import LpStatus, Polyhedron, Sense, solve_lp
from .numeric import (ONE, ZERO, Fraction, as_matrix, as_vector, dot,
                      gauss_solve, integer_scaled)
from .uncertainty import CapExceededError

DEFAULT_CAP = 2 ** 22
_MAX_PROJECTION_ROWS = 4000


@dataclass(frozen=True)
class VertexSet:
    """Distinct vertices of a bounded polyhedron, in sorted order."""

    vertices: tuple

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Face:
    """A nonempty face: its vertices and its canonical tight rows."""

    vertex_indices: frozenset
    tight_rows: frozenset


@dataclass(frozen=True)
class ExposureCertificate:
    """A direction c whose argmax set is exactly one face.

    c scores all face vertices equally and beats every other vertex by at
    least `margin` > 0.
    """

    c: tuple
    margin: Fraction


def tight_rows_at(poly: Polyhedron, point: Sequence) -> frozenset:
    return frozenset(i for i in range(poly.num_rows)
                     if dot(poly.a[i], point) == poly.rhs[i])


def enumerate_vertices(poly: Polyhedron, cap: int = DEFAULT_CAP) -> VertexSet:
    """All vertices of a bounded nonempty polyhedron.

    Every n-subset of rows is solved as an equality system; nonsingular,
    feasible solutions are vertices.  Duplicates coming from degenerate
    vertices collapse into one entry.
    """
    m, n = poly.num_rows, poly.dim
    if m < n:
        raise ValueError(f"{m} rows cannot pin {n} coordinates; "
                         "the polyhedron is unbounded")
    if comb(m, n) > cap:
        raise CapExceededError(
            f"vertex enumeration needs C({m},{n}) subsets, cap is {cap}")
    found = set()
    a = poly.a
    rhs = poly.rhs
    for subset in itertools.combinations(range(m), n):
        system = [a[i] for i in subset]
        target = [rhs[i] for i in subset]
        point = gauss_solve(system, target)
        if point is None or point in found:
            continue
        feasible = True
        for i in range(m):
            if dot(a[i], point) > rhs[i]:
                feasible = False
                break
        if feasible:
            found.add(point)
    if not found:
        raise ValueError("no vertices found; polyhedron is empty or unbounded")
    return VertexSet(tuple(sorted(found)))


def enumerate_faces(poly: Polyhedron, vset: VertexSet) -> list:
    """All nonempty faces, from single vertices up to the full polytope.

    Join closure: the join of two faces has the intersection of their
    tight rows; its vertex set is every vertex tight on that intersection,
    and its canonical tight set is re-derived from those vertices.
    DEFAULT_CAP bounds the number of join operations attempted.
    """
    verts = vset.vertices
    tights = [tight_rows_at(poly, v) for v in verts]
    universe = frozenset(range(len(verts)))

    def close(tight: frozenset) -> Face:
        members = frozenset(i for i in universe if tights[i] >= tight)
        canonical = frozenset.intersection(*[tights[i] for i in members])
        return Face(members, canonical)

    faces = {}
    queue = []
    for i in range(len(verts)):
        face = Face(frozenset([i]), tights[i])
        faces[face.vertex_indices] = face
        queue.append(face)
    work = 0
    while queue:
        current = queue.pop()
        for other in list(faces.values()):
            work += 1
            if work > DEFAULT_CAP:
                raise CapExceededError(
                    f"face join budget {DEFAULT_CAP} exceeded")
            joined = close(current.tight_rows & other.tight_rows)
            if joined.vertex_indices not in faces:
                faces[joined.vertex_indices] = joined
                queue.append(joined)
    return sorted(faces.values(),
                  key=lambda f: (len(f.vertex_indices),
                                 sorted(f.vertex_indices)))


def argmax_vertices(vset: VertexSet, c: Sequence) -> frozenset:
    """Indices of the vertices attaining max c·v (the exposed face's verts)."""
    scores = [dot(c, v) for v in vset.vertices]
    best = max(scores)
    return frozenset(i for i, s in enumerate(scores) if s == best)


def exposure_check(face: Face, vset: VertexSet,
                   directions: Polyhedron) -> Optional[ExposureCertificate]:
    """Find a direction s in D = {s : G·s <= h} exposing exactly `face`.

    Solves max eps subject to G·s <= h, s·v = t on the face vertices and
    s·u <= t - eps off the face (eps capped at 1 so the LP stays bounded);
    the face is exposable iff the optimum has eps > 0, and the certificate
    is that optimum's s.
    """
    verts = vset.vertices
    q = len(verts[0])
    if directions.dim != q:
        raise ValueError(
            f"direction dimension {directions.dim} != vertex dim {q}")

    # Variables: s (q), t, eps.
    rows = [list(g) + [ZERO, ZERO] for g in directions.a]
    for i in sorted(face.vertex_indices):  # s·v = t
        rows += [list(verts[i]) + [-ONE, ZERO],
                 [-c for c in verts[i]] + [ONE, ZERO]]
    for i, u in enumerate(verts):  # s·u <= t - eps
        if i not in face.vertex_indices:
            rows.append(list(u) + [-ONE, ONE])
    rhs = list(directions.rhs) + [ZERO] * (len(rows) - directions.num_rows)
    eps_row = [ZERO] * (q + 1) + [ONE]
    rows.append(eps_row)  # eps <= 1, which keeps the LP bounded
    rhs.append(ONE)

    outcome = solve_lp(Polyhedron(rows, rhs), eps_row, Sense.MAX)
    if outcome.status is not LpStatus.OPTIMAL or outcome.value <= 0:
        return None
    return ExposureCertificate(outcome.point[:q], outcome.value)


def _add_row(rows, coeffs, rhs):
    """Add coeffs·w <= rhs (int coeffs, Fraction rhs), divided by the gcd
    of its coefficients, to rows, a dict from primitive coefficient tuples
    to their least rhs.  A zero row is dropped, or refused when its rhs is
    negative."""
    g = gcd(*coeffs)
    if not g:
        if rhs < 0:
            raise ValueError("projection produced an infeasible row")
        return
    if g > 1:
        coeffs = [c // g for c in coeffs]
        rhs /= g
    coeffs = tuple(coeffs)
    old = rows.get(coeffs)
    if old is None or rhs < old:
        rows[coeffs] = rhs


def _lp_prune(rows):
    """Remove rows implied by the others (exact redundancy test)."""
    rows = sorted(rows)
    kept = list(rows)
    idx = 0
    while idx < len(kept):
        if len(kept) <= 1:
            break
        coeffs, rhs = kept[idx]
        others = kept[:idx] + kept[idx + 1:]
        poly = Polyhedron([c for c, _ in others], [r for _, r in others])
        probe = solve_lp(poly, coeffs, Sense.MAX)
        if probe.status is LpStatus.OPTIMAL and probe.value <= rhs:
            kept.pop(idx)
        else:
            idx += 1
    return kept


def project_polytope(poly: Polyhedron, image_rows) -> Polyhedron:
    """Exact image {T v : v in poly} of a bounded nonempty polyhedron.

    Auxiliary coordinates w = T v are appended, then the original
    variables are eliminated one by one (Fourier-Motzkin), preferring the
    variable with the fewest positive*negative row pairs.  Each row is a
    tuple of ints with gcd 1 and a Fraction rhs, deduplicated to its
    tightest rhs in first-seen order: every input row is scaled to ints
    once, and eliminating var from pc (pc[var] = a > 0) and mc (mc[var]
    = -b < 0) gives (b·pc + a·mc) / gcd(a, b), a positive multiple of
    pc / a + mc / b.  A final LP pass on the rows as Fractions reduces
    the result to an irredundant description, which keeps downstream
    vertex enumeration combinatorially small.
    """
    image = as_matrix(image_rows, poly.dim)
    q = len(image)
    if q == 0:
        raise ValueError("projection needs at least one image row")
    rows = {}
    for coeffs, rhs in zip(poly.a, poly.rhs):
        scale, ints = integer_scaled(coeffs)
        _add_row(rows, [0] * q + ints, rhs * scale)
    for k in range(q):
        scale, ints = integer_scaled(image[k])
        plus = [0] * q + [-c for c in ints]
        plus[k] = scale
        _add_row(rows, plus, ZERO)
        _add_row(rows, [-c for c in plus], ZERO)

    remaining = list(range(q, q + poly.dim))
    while remaining:
        counts = {}
        for var in remaining:
            pos = sum(1 for c in rows if c[var] > 0)
            neg = sum(1 for c in rows if c[var] < 0)
            counts[var] = pos * neg
        var = min(remaining, key=lambda v: (counts[v], v))
        plus, minus, keep = [], [], {}
        for coeffs, rhs in rows.items():
            cv = coeffs[var]
            if cv > 0:
                plus.append((coeffs, rhs))
            elif cv < 0:
                minus.append((coeffs, rhs))
            else:
                keep[coeffs] = rhs
        rows = keep
        for pc, pr in plus:
            a = pc[var]
            for mc, mr in minus:
                b = -mc[var]
                g = gcd(a, b)
                pf, mf = b // g, a // g
                _add_row(rows, [pf * x + mf * y for x, y in zip(pc, mc)],
                         pf * pr + mf * mr)
        if len(rows) > _MAX_PROJECTION_ROWS:
            raise CapExceededError(f"projection grew to {len(rows)} rows "
                                   f"(cap {_MAX_PROJECTION_ROWS})")
        remaining.remove(var)

    final = _lp_prune([(as_vector(c[:q]), r) for c, r in rows.items()])
    if not final:
        raise ValueError("projection came out unconstrained")
    return Polyhedron([c for c, _ in final], [r for _, r in final])
