"""Polytope vertex enumeration, face lattices and exposing directions.

A face is the frozenset of its vertex indices.  The intersections of the
vertices' tight-row sets are exactly the canonical tight sets of the
nonempty faces of a bounded polyhedron, the polytope itself included
(Kaibel & Pfetsch 2002), so one pass over the vertices closes them.

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
from math import comb, gcd, isqrt
from typing import Optional, Sequence

from .lp import LpStatus, Polyhedron, Sense, max_value, solve_lp
from .numeric import (ONE, ZERO, as_matrix, as_vector, dot, gauss_solve,
                      integer_scaled)
from .uncertainty import CapExceededError

DEFAULT_CAP = 2 ** 22
_MAX_PROJECTION_ROWS = 4000


def tight_rows_at(poly: Polyhedron, point: Sequence) -> frozenset:
    return frozenset(i for i in range(poly.num_rows)
                     if dot(poly.a[i], point) == poly.rhs[i])


def enumerate_vertices(poly: Polyhedron) -> tuple:
    """All vertices of a bounded nonempty polyhedron, in sorted order.

    Every n-subset of rows is solved as an equality system; nonsingular,
    feasible solutions are vertices.  Duplicates coming from degenerate
    vertices collapse into one entry.
    """
    m, n = poly.num_rows, poly.dim
    if m < n:
        raise ValueError(f"{m} rows cannot pin {n} coordinates; "
                         "the polyhedron is unbounded")
    if comb(m, n) > DEFAULT_CAP:
        raise CapExceededError(f"vertex enumeration needs C({m},{n}) "
                               f"subsets, cap is {DEFAULT_CAP}")
    found = set()
    a = poly.a
    rhs = poly.rhs
    for subset in itertools.combinations(range(m), n):
        system = [a[i] for i in subset]
        target = [rhs[i] for i in subset]
        point = gauss_solve(system, target)
        if point is not None and point not in found and poly.contains(point):
            found.add(point)
    if not found:
        raise ValueError("no vertices found; polyhedron is empty or unbounded")
    return tuple(sorted(found))


def enumerate_faces(poly: Polyhedron, verts: tuple) -> list:
    """All nonempty faces, as frozensets of vertex indices, sorted by size
    and then by sorted indices: single vertices first, the polytope last.

    `closed` gathers every intersection of vertex tight sets: each pass
    meets one vertex's set with all gathered so far.  Each intersection
    is the canonical tight set of one face, whose vertices are those
    tight on it.  A lattice of more than isqrt(DEFAULT_CAP) = 2048 faces
    raises CapExceededError.
    """
    tights = [tight_rows_at(poly, v) for v in verts]
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
        value = max_value(poly, coeffs)
        if value is not None and value <= rhs:
            kept.pop(idx)
        else:
            idx += 1
    return kept


def project_polytope(poly: Polyhedron, image_rows,
                     pruned: Optional[dict] = None) -> Polyhedron:
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

    `pruned`, when given, maps the frozenset of eliminated rows to their
    pruned polyhedron: a hit skips the LP pass, and a miss is added.
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

    # Every eliminated coefficient is 0 now, so the first q identify a row.
    eliminated = frozenset([(c[:q], r) for c, r in rows.items()])
    if pruned is None:
        pruned = {}
    if eliminated not in pruned:
        final = _lp_prune([(as_vector(c), r) for c, r in eliminated])
        if not final:
            raise ValueError("projection came out unconstrained")
        pruned[eliminated] = Polyhedron([c for c, _ in final],
                                        [r for _, r in final])
    return pruned[eliminated]
