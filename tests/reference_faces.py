"""Reference face machinery for the tests: the whole face lattice, closed
from the vertices' tight sets, an exposure LP for one face, and the
minimal or maximal members of a face list.  The solver takes its exposed
faces from `geometry.exposed_faces` instead; these independent
computations check it."""

from typing import Collection, Optional

from rbo.geometry import CAP
from rbo.lp import LpStatus, Polyhedron, Sense
from rbo.numeric import ONE, ZERO
from rbo.uncertainty import CapExceededError
from helpers import rational_rows, solve


def enumerate_faces(tights: Collection) -> list:
    """All nonempty faces of a polytope, as frozensets of vertex indices,
    from its vertices' tight-row sets in vertex order, sorted by size and
    then by sorted indices: single vertices first, the polytope last.

    `closed` gathers every intersection of vertex tight sets: each pass
    meets one vertex's set with all gathered so far.  Each intersection
    is the canonical tight set of one face, whose vertices are those
    tight on it.  A lattice of more than `geometry.CAP` faces raises
    CapExceededError.
    """
    closed = set(tights)
    for t in tights:
        closed |= {t & c for c in closed}
        if len(closed) > CAP:
            raise CapExceededError(f"face lattice exceeds {CAP} faces")
    faces = [frozenset(i for i, u in enumerate(tights) if u >= c)
             for c in closed]
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def undominated(faces: list, upward: bool) -> list:
    """The minimal faces of `faces`, a list sorted by size and then by
    sorted indices, in that order when upward; else the maximal ones, in
    the reverse order."""
    order = faces if upward else faces[::-1]
    return [f for f in order
            if not any(g < f if upward else f < g for g in faces)]


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
    lhs, h = rational_rows(directions)
    rows = [list(g) + [ZERO, ZERO] for g in lhs]
    for i in sorted(face):  # s·v = t
        rows += [list(verts[i]) + [-ONE, ZERO],
                 [-c for c in verts[i]] + [ONE, ZERO]]
    for i, u in enumerate(verts):  # s·u <= t - eps
        if i not in face:
            rows.append(list(u) + [-ONE, ONE])
    rhs = list(h) + [ZERO] * (len(rows) - directions.num_rows)
    eps_row = [ZERO] * (q + 1) + [ONE]
    rows.append(eps_row)  # eps <= 1, which keeps the LP bounded
    rhs.append(ONE)

    outcome = solve(Polyhedron(rows, rhs), eps_row, Sense.MAX)
    if outcome.status is not LpStatus.OPTIMAL or outcome.value <= 0:
        return None
    return outcome.point[:q]
