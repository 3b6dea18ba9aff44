"""Reference shadow kernels for the tests: the double description's start
cone from `span_basis` and one square solve per ray (the oracle's
`solve_square`), Fourier-Motzkin projection on primitive int rows
with one Fraction rhs each, and the elimination order's choice with a
generator pass per sign and variable.  The solver reads its start cone
off one integer elimination (`geometry._start_cone`), projects on rows of
ints, the rhs included, and counts each column's signs in one pass;
these older computations check it."""

import itertools
from math import gcd

from rbo import geometry
from rbo.lp import Polyhedron
from rbo.numeric import ZERO, as_matrix, integer_scaled
from rbo.oracle import solve_square
from rbo.uncertainty import CapExceededError
from helpers import polyhedron, rational_rows, span_basis


def start_cone(rows: list) -> tuple:
    """(start, rays) as `geometry._start_cone` gives them: the bitmask of
    the basis of the rows, and for each basis row j the solution of the
    basis rows' system with -1 in row j, scaled to ints, with the bitmask
    of its tight rows."""
    basis = span_basis(rows)
    if len(basis) < len(rows[0]):
        raise ValueError("the polyhedron contains a line; it has no vertex")
    start = sum(1 << i for i in basis)
    square = [rows[i] for i in basis]
    return start, [(integer_scaled(solve_square(
        square, [-(i == j) for i in basis]))[1], start & ~(1 << j))
        for j in basis]


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
    """(count, pairs): the row pairs whose combinations eliminate var,
    only those along an equality pair when there is one."""
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
    """`geometry.project_polytope` with Fraction right-hand sides: each
    input row scaled to ints on its coefficients alone, under the same
    row cap `geometry._MAX_PROJECTION_ROWS`."""
    image = as_matrix(image_rows, poly.dim)
    q = len(image)
    if q == 0:
        raise ValueError("projection needs at least one image row")
    rows = {}
    for coeffs, rhs in zip(*rational_rows(poly)):
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
        cap = geometry._MAX_PROJECTION_ROWS
        if len(rows) > cap:
            raise CapExceededError(f"projection grew to {len(rows)} rows "
                                   f"(cap {cap})")
        remaining.remove(var)

    rows = sorted([(c[:q], r) for c, r in rows.items()])
    return polyhedron([c for c, _ in rows], [r for _, r in rows])


def cheapest(rows, remaining, equal):
    """`geometry._cheapest` with each count a generator pass over a
    column: for each variable, its p rows positive and m negative, and
    whether an equality pair holds it."""
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
