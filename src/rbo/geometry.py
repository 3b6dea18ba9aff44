"""Polytope vertex enumeration, exposed faces and exact projection.

`enumerate_vertices` gives each vertex with the set of rows tight at it,
from the double description method on the polyhedron's integer rows,
every vertex v as the ints (d·v | d) over one common denominator d.  A
face is the frozenset of its vertex indices.  `exposed_faces` gives the
minimal or the maximal faces that directions in a polytope D expose as
their exact argmax sets, in the bilevel adversary's scan order, each
with one such direction in ints, from a second double description: that
of the epigraph of the support function over D.

`project_polytope` computes exact images of polytopes under linear maps
by Fourier-Motzkin elimination on rows of ints, the rhs included,
deduplicated on their primitive coefficients at every step and solved
along equality pairs; the bilevel adversary takes the exposed faces of
such low-dimensional images, whose redundant rows change no vertex and
no face.  Both eliminations run in ints (`numeric.eliminate` starts the
double description), nothing here builds a Fraction, and nothing here
solves an LP.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .lp import Polyhedron
from .numeric import as_matrix, eliminate, integer_scaled
from .uncertainty import CapExceededError

CAP = 4096  # rays held by one double description after any row
_MAX_PROJECTION_ROWS = 4000


def _start_cone(rows: list) -> tuple:
    """(start, rays): a bitmask of the first linearly independent int
    rows, which must span their width, and the simplicial cone's rays,
    ray j solving the basis rows' system with -1 in row j and 0
    elsewhere, primitive and with the bitmask of its tight rows.  One
    elimination of [R^T | I] gives both: its pivot columns are the
    basis, and pivot row t ends in -d times ray t, d > 0."""
    m, width = len(rows), len(rows[0])
    basis, inverse, _ = eliminate(
        [list(col) + [int(i == j) for j in range(width)]
         for i, col in enumerate(zip(*rows))], m)
    if len(basis) < width:
        raise ValueError("the polyhedron contains a line; it has no vertex")
    start = sum(1 << i for i in basis)
    rays = []
    for j, row in zip(basis, inverse):
        g = gcd(*row[m:])
        rays.append(([-c // g for c in row[m:]], start & ~(1 << j)))
    return start, rays


def _double_description(poly: Polyhedron) -> list:
    """[(v, tight)] for each vertex v of poly, as the ints (d·v | d) for
    d the least common denominator of all vertices, tight the frozenset
    of the rows tight at v, by the double description method in ints
    (Motzkin et al. 1953; Fukuda & Prodon 1996) on the cone {(z, t) :
    a·z <= b·t, t >= 0} of poly's integer rows: its rays with t > 0
    are the vertices.  The start is the simplicial cone of the first
    linearly independent rows, t >= 0 first (`_start_cone`).  Each
    further row keeps the rays on its side and joins each pair across it
    that is adjacent, as no other ray is tight on all the rows both are.
    A ray is primitive ints and a bitmask of its tight rows.  More than
    CAP rays after any row raise CapExceededError.
    """
    n = poly.dim
    rows = [(0,) * n + (-1,)] + [r[:n] + (-r[n],) for r in poly.rows]
    start, rays = _start_cone(rows)
    for k, row in enumerate(rows):
        if start >> k & 1:
            continue
        sides = [(sum(a * b for a, b in zip(row, r)), r, z) for r, z in rays]
        joined = [(r, z if s else z | 1 << k) for s, r, z in sides if s <= 0]
        plus = [x for x in sides if x[0] > 0]
        minus = [x for x in sides if x[0] < 0]
        for (sp, p, zp), (sq, q, zq) in itertools.product(plus, minus):
            z = zp & zq
            if z.bit_count() < n - 1:
                continue
            # p and q are tight on z, and adjacent when no third ray is,
            # so the count stops at a third.
            common = (1 for _, t in rays if t & z == z)
            if next(itertools.islice(common, 2, None), None) is None:
                w = [sp * b - sq * a for a, b in zip(p, q)]
                g = gcd(*w)
                joined.append(([c // g for c in w], z | 1 << k))
        rays = joined
        if len(rays) > CAP:
            raise CapExceededError(f"double description exceeds {CAP} rays")
    rays = [(r, z) for r, z in rays if r[n]]
    if not rays:
        raise ValueError("no vertices found; polyhedron is empty or unbounded")
    # A ray is primitive, so r[n] is its vertex's least denominator.
    d = lcm(*[r[n] for r, _ in rays])
    return [(tuple([c * (d // r[n]) for c in r]),
             frozenset(i for i in range(poly.num_rows) if z >> i + 1 & 1))
            for r, z in rays]


def enumerate_vertices(poly: Polyhedron) -> dict:
    """{(d·v | d): tight} for each vertex v of a bounded nonempty
    polyhedron, d > 0 the least common denominator of all its vertices,
    tight the frozenset of the rows tight at v (`_double_description`).
    One d for all keys sorts them in sorted vertex order."""
    return dict(sorted(_double_description(poly)))


def exposed_faces(verts: tuple, directions: Polyhedron,
                  upward: bool) -> dict:
    """{face: (w, d)} for the faces of the polytope conv(verts) that the
    adversary's scan solves, in its order, verts being the keys of
    `enumerate_vertices`, a face the frozenset of its indices into verts
    and w / d, w ints and d > 0, a direction s in D = {s : G·s <= h}
    whose exact argmax set it is: upward the minimal exposable faces, by
    size and then by sorted indices, downward the maximal ones in the
    reverse order.  Shadow faces G ⊆ F have nested follower argmax sets,
    so G's optimistic outcome is at most F's and its pessimistic one at
    least F's: the first minimum is the one over every exposable face.

    One double description of Q = {(s, t) : v·s <= t for each v in
    verts, G·s <= h}, the epigraph of the support function over D
    (Rockafellar 1970, §13), which is pointed as D is bounded; each v is
    taken as its key's d·v, which scales t alone.  At a point of Q in
    the relative interior of one of its faces, the tight vertex rows are
    exactly the argmax of s over verts, so the exposable faces are the
    nonempty intersections of the vertex-row parts of Q's vertices
    (Ziegler 1995, §7.1).  The maximal ones are the maximal parts; the
    minimal ones are the meets F_i of the parts that hold i with F_j =
    F_i for each j in F_i, as every face holding i contains F_i.  A
    face's s is the first sorted vertex of Q whose part is exactly the
    face, or else the mean of the vertices of Q whose part contains it,
    which lies in the relative interior of the face's cell.
    """
    k = len(verts)
    vertices = enumerate_vertices(Polyhedron.from_rows(
        [v[:-1] + (-1, 0) for v in verts]
        + [g[:-1] + (0, g[-1]) for g in directions.rows]))
    d = next(iter(vertices))[-1]  # every vertex of Q is over it
    cells = [(frozenset(i for i in tight if i < k), point[:-2])
             for point, tight in vertices.items()]
    parts = {part for part, _ in cells}
    if upward:
        meets = {}
        for part in parts:
            for i in part:
                meets[i] = meets.get(i, part) & part
        chosen = {f for f in meets.values()
                  if all(meets[j] == f for j in f)}
    else:
        chosen = {f for f in parts if not any(f < g for g in parts)}
    faces = {}
    for face in sorted(chosen, key=lambda f: (len(f), sorted(f)),
                       reverse=not upward):
        exact = next(((s, d) for part, s in cells if part == face), None)
        if exact is None:
            inside = [s for part, s in cells if part >= face]
            exact = (tuple([sum(c) for c in zip(*inside)]), d * len(inside))
        faces[face] = exact
    return faces


def _add_row(rows, row, equal):
    """Add row, int coefficients then the rhs, to rows, a dict from
    primitive coefficient tuples to rows with those coefficients up to a
    factor g > 0, each row divided by the gcd of all its entries.  Of two
    rows with one key, the one with the least rhs / g stays.  A zero row
    is dropped, or refused when its rhs is negative.  `equal` holds the
    keys of rows' equality pairs, rows under opposite keys whose rhs / g
    are opposite too (compared by cross-multiplying); a key that row
    adds or tightens is checked again, with its opposite."""
    g = gcd(*row[:-1])
    if not g:
        if row[-1] < 0:
            raise ValueError("projection produced an infeasible row")
        return
    h = gcd(g, row[-1])
    if h > 1:
        row = tuple([c // h for c in row])
        g //= h
    key = row[:-1] if g == 1 else tuple([c // g for c in row[:-1]])
    old = rows.get(key)
    if old is None or row[-1] * gcd(*old[:-1]) < old[-1] * g:
        rows[key] = row
        opposite = tuple([-c for c in key])
        e = rows.get(opposite)
        if e is not None and row[-1] * gcd(*e[:-1]) == -e[-1] * g:
            equal |= {key, opposite}
        else:
            equal -= {key, opposite}


def _cheapest(rows, remaining, equal):
    """(var, pairs): of the variables in `remaining`, the one whose
    elimination combines the fewest row pairs (the least on a tie), and
    those pairs, given `equal`, the keys of rows' equality pairs
    (`_add_row`).  A variable that an equality pair holds is
    substituted along the first such r with r[var] > 0: only the pairs
    holding r or e, p + m - 2 of them for p rows positive and m negative
    on var.  Any other variable takes all p·m pairs of a row positive and
    a row negative on it.  The keys' columns give p and m, as a key has
    its row's signs."""
    columns = list(zip(*rows))

    def count(var):
        col = columns[var]
        p = sum([x > 0 for x in col])
        m = sum([x < 0 for x in col])
        return p + m - 2 if any(c[var] for c in equal) else p * m

    var = min(remaining, key=lambda v: (count(v), v))
    plus = [(c, r) for c, r in rows.items() if r[var] > 0]
    minus = [r for r in rows.values() if r[var] < 0]
    for c, r in plus:
        if c in equal:
            e = rows[tuple([-x for x in c])]
            return var, ([(r, m) for m in minus if m is not e]
                         + [(p, e) for _, p in plus if p is not r])
    return var, itertools.product([r for _, r in plus], minus)


def project_polytope(poly: Polyhedron, image_rows) -> Polyhedron:
    """Exact image {T v : v in poly} of a bounded nonempty polyhedron, its
    rows sorted; some of them may be redundant.

    Auxiliary coordinates w = T v are appended, as q equality pairs, then
    the original variables are eliminated one by one (Fourier-Motzkin),
    preferring the variable whose step combines the fewest row pairs
    (`_cheapest`): along an equality pair a step substitutes the variable,
    one new row for each other row that holds it; the equality pairs are
    kept as the rows change (`_add_row`).  Each row is a tuple of ints,
    the rhs last, starting from poly's integer rows, and
    deduplicated on its primitive coefficients to its tightest rhs in
    first-seen order (`_add_row`): eliminating var from pr (pr[var] = a
    > 0) and mr (mr[var] = -b < 0) gives (b·pr + a·mr) / gcd(a, b).  The
    returned polyhedron takes the final rows as they are
    (`Polyhedron.from_rows`), so no Fraction is built.
    """
    image = as_matrix(image_rows, poly.dim)
    q = len(image)
    if q == 0:
        raise ValueError("projection needs at least one image row")
    rows, equal = {}, set()
    for ints in poly.rows:
        _add_row(rows, (0,) * q + ints, equal)
    for k in range(q):
        scale, ints = integer_scaled(image[k])
        plus = [0] * q + [-c for c in ints] + [0]
        plus[k] = scale
        _add_row(rows, tuple(plus), equal)
        _add_row(rows, tuple([-c for c in plus]), equal)

    remaining = list(range(q, q + poly.dim))
    while remaining:
        var, pairs = _cheapest(rows, remaining, equal)
        kept = {c: r for c, r in rows.items() if not r[var]}
        equal = {c for c in equal if c in kept}  # -c is kept with c
        for pr, mr in pairs:
            a, b = pr[var], -mr[var]
            g = gcd(a, b)
            pf, mf = b // g, a // g
            _add_row(kept, tuple([pf * x + mf * y for x, y in zip(pr, mr)]),
                     equal)
        rows = kept
        if len(rows) > _MAX_PROJECTION_ROWS:
            raise CapExceededError(f"projection grew to {len(rows)} rows "
                                   f"(cap {_MAX_PROJECTION_ROWS})")
        remaining.remove(var)

    # Every eliminated coefficient is 0 now, so the first q identify a row.
    return Polyhedron.from_rows([r[:q] + r[-1:]
                                 for _, r in sorted(rows.items())])
