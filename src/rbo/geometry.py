"""Polytope vertex enumeration, face lattices and exposing directions.

`enumerate_vertices` gives each vertex with the set of rows tight at it,
from the double description method on the rows scaled to ints, with no
LP.  A face is the frozenset of its vertex indices.  The intersections of
the vertices' tight sets are exactly the canonical tight sets of the
nonempty faces of a bounded polyhedron, the polytope itself included
(Kaibel & Pfetsch 2002), so `enumerate_faces` closes them in one pass
over those sets.

`exposure_check` decides whether some direction in a polytope D has a
given face as its exact argmax set, by maximizing the strict separation
margin with an LP; a face is exposable iff the optimal margin is positive.

`project_polytope` computes exact images of polytopes under linear maps
by Fourier-Motzkin elimination on primitive integer rows (int
coefficients with gcd 1, one Fraction rhs), deduplicated at every step
and solved along equality pairs; the bilevel adversary runs the face
machinery on such low-dimensional images, whose redundant rows change
no vertex and no face.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt
from typing import Collection, Optional

from .lp import LpStatus, Polyhedron, Sense, solve_lp
from .numeric import (ONE, ZERO, as_matrix, gauss_solve, integer_scaled,
                      span_basis)
from .uncertainty import CapExceededError

DEFAULT_CAP = 2 ** 22
_MAX_PROJECTION_ROWS = 4000


def _double_description(poly: Polyhedron) -> list:
    """[(v, tight)] for each vertex v of poly, tight the frozenset of the
    rows tight at v, by the double description method in ints (Motzkin
    et al. 1953; Fukuda & Prodon 1996) on the cone {(z, t) : a·z <= b·t,
    t >= 0} of the rows scaled to ints: its rays with t > 0 are the
    vertices.  The start is the simplicial cone of the first linearly
    independent rows, t >= 0 first: ray j solves the basis rows' system
    with -1 in row j and 0 elsewhere.  Each further row keeps the rays on
    its side and joins each pair across it that is adjacent, as no other
    ray is tight on all the rows both are.  A ray is primitive ints and a
    bitmask of its tight rows.  More than isqrt(DEFAULT_CAP) = 2048 rays
    after any row raise CapExceededError.
    """
    n = poly.dim
    rows = [(0,) * n + (-1,)] + [r[:n] + (-r[n],)
                                 for r in poly._scaled_rows[1]]
    basis = span_basis(rows)
    if len(basis) <= n:
        raise ValueError("the polyhedron contains a line; it has no vertex")
    start = sum(1 << i for i in basis)
    rays = [(integer_scaled(gauss_solve([rows[i] for i in basis],
                                        [-(i == j) for i in basis]))[1],
             start & ~(1 << j)) for j in basis]
    cap = isqrt(DEFAULT_CAP)
    for k, row in enumerate(rows):
        if start >> k & 1:
            continue
        sides = [(sum(a * b for a, b in zip(row, r)), r, z) for r, z in rays]
        joined = [(r, z if s else z | 1 << k) for s, r, z in sides if s <= 0]
        plus = [x for x in sides if x[0] > 0]
        minus = [x for x in sides if x[0] < 0]
        for (sp, p, zp), (sq, q, zq) in itertools.product(plus, minus):
            z = zp & zq
            if (z.bit_count() >= n - 1
                    and sum(t & z == z for _, t in rays) == 2):
                w = [sp * b - sq * a for a, b in zip(p, q)]
                g = gcd(*w)
                joined.append(([c // g for c in w], z | 1 << k))
        rays = joined
        if len(rays) > cap:
            raise CapExceededError(f"double description exceeds {cap} rays")
    verts = [(tuple([Fraction(c, r[n]) for c in r[:n]]),
              frozenset(i for i in range(poly.num_rows) if z >> i + 1 & 1))
             for r, z in rays if r[n]]
    if not verts:
        raise ValueError("no vertices found; polyhedron is empty or unbounded")
    return verts


def enumerate_vertices(poly: Polyhedron) -> dict:
    """{v: tight} for each vertex v of a bounded nonempty polyhedron, in
    sorted vertex order, tight the frozenset of the rows tight at v
    (`_double_description`)."""
    return dict(sorted(_double_description(poly)))


def enumerate_faces(tights: Collection) -> list:
    """All nonempty faces of a polytope, as frozensets of vertex indices,
    from its vertices' tight-row sets in vertex order, sorted by size and
    then by sorted indices: single vertices first, the polytope last.

    `closed` gathers every intersection of vertex tight sets: each pass
    meets one vertex's set with all gathered so far.  Each intersection
    is the canonical tight set of one face, whose vertices are those
    tight on it.  A lattice of more than isqrt(DEFAULT_CAP) = 2048 faces
    raises CapExceededError.
    """
    closed = set(tights)
    cap = isqrt(DEFAULT_CAP)
    for t in tights:
        closed |= {t & c for c in closed}
        if len(closed) > cap:
            raise CapExceededError(f"face lattice exceeds {cap} faces")
    faces = [frozenset(i for i, u in enumerate(tights) if u >= c)
             for c in closed]
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def exposure_check(face: frozenset, verts: tuple,
                   directions: Polyhedron) -> Optional[tuple]:
    """A direction s in D = {s : G·s <= h} exposing exactly `face`, a set
    of indices into `verts`, or None when no direction in D does.

    Solves max eps subject to G·s <= h, s·v = t on the face vertices and
    s·u <= t - eps off the face (eps capped at 1 so the LP stays bounded);
    the face is exposable iff the optimum has eps > 0, and s is that
    optimum's.
    """
    q = len(verts[0])
    if directions.dim != q:
        raise ValueError(
            f"direction dimension {directions.dim} != vertex dim {q}")

    # Variables: s (q), t, eps.
    rows = [list(g) + [ZERO, ZERO] for g in directions.a]
    for i in sorted(face):  # s·v = t
        rows += [list(verts[i]) + [-ONE, ZERO],
                 [-c for c in verts[i]] + [ONE, ZERO]]
    for i, u in enumerate(verts):  # s·u <= t - eps
        if i not in face:
            rows.append(list(u) + [-ONE, ONE])
    rhs = list(directions.rhs) + [ZERO] * (len(rows) - directions.num_rows)
    eps_row = [ZERO] * (q + 1) + [ONE]
    rows.append(eps_row)  # eps <= 1, which keeps the LP bounded
    rhs.append(ONE)

    outcome = solve_lp(Polyhedron(rows, rhs), eps_row, Sense.MAX)
    if outcome.status is not LpStatus.OPTIMAL or outcome.value <= 0:
        return None
    return outcome.point[:q]


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


def _pairs(rows, var):
    """(count, pairs): the row pairs whose combinations eliminate var.
    With an equality pair, a row c with c[var] > 0 and the row -c with
    the opposite rhs, only the pairs holding c or -c, which substitute
    var along it; otherwise every pair of a row with a positive and a
    row with a negative coefficient."""
    plus = [c for c in rows if c[var] > 0]
    minus = [c for c in rows if c[var] < 0]
    for c in plus:
        e = tuple([-x for x in c])
        if rows.get(e) == -rows[c]:
            pairs = ([(c, m) for m in minus if m != e]
                     + [(p, e) for p in plus if p != c])
            return len(pairs), pairs
    return len(plus) * len(minus), itertools.product(plus, minus)


def project_polytope(poly: Polyhedron, image_rows) -> Polyhedron:
    """Exact image {T v : v in poly} of a bounded nonempty polyhedron, its
    rows sorted; some of them may be redundant.

    Auxiliary coordinates w = T v are appended, as q equality pairs, then
    the original variables are eliminated one by one (Fourier-Motzkin),
    preferring the variable whose step combines the fewest row pairs
    (`_pairs`): along an equality pair a step substitutes the variable,
    one new row for each other row that holds it.  Each row is a tuple of ints with gcd 1
    and a Fraction rhs, deduplicated to its tightest rhs in first-seen
    order: every input row is scaled to ints once, and eliminating var
    from pc (pc[var] = a > 0) and mc (mc[var] = -b < 0) gives
    (b·pc + a·mc) / gcd(a, b), a positive multiple of pc / a + mc / b.
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
        steps = {var: _pairs(rows, var) for var in remaining}
        var = min(remaining, key=lambda v: (steps[v][0], v))
        kept = {c: r for c, r in rows.items() if not c[var]}
        for pc, mc in steps[var][1]:
            a, b = pc[var], -mc[var]
            g = gcd(a, b)
            pf, mf = b // g, a // g
            _add_row(kept, [pf * x + mf * y for x, y in zip(pc, mc)],
                     pf * rows[pc] + mf * rows[mc])
        rows = kept
        if len(rows) > _MAX_PROJECTION_ROWS:
            raise CapExceededError(f"projection grew to {len(rows)} rows "
                                   f"(cap {_MAX_PROJECTION_ROWS})")
        remaining.remove(var)

    # Every eliminated coefficient is 0 now, so the first q identify a row.
    rows = sorted([(c[:q], r) for c, r in rows.items()])
    return Polyhedron([c for c, _ in rows], [r for _, r in rows])
