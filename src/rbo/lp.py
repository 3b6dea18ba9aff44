"""Exact simplex over rational data.

Linear programs are stated on a :class:`Polyhedron` {v : A v <= rhs} with
free variables.  The solver is a textbook two-phase full-tableau simplex
with Bland's pivot rule (smallest index), which terminates under
degeneracy and is deterministic for fixed input.  It pivots on integer
rows (Bareiss 1968); Fractions appear only in the point, value and dual.
Free variables keep one column each and never leave the basis once they
enter; at the end the nonbasic ones are pivoted in along the optimal
face, so an optimal point is a vertex whenever the polyhedron has one.
`max_value`, for callers that read only the optimum, stops before that.

Phase one runs once per polyhedron: a :class:`Polyhedron` keeps its rows
scaled to ints and its tableau after phase one (or the finding that it
is empty) for as long as it lives, and every solve on it starts from a
shallow copy of that tableau, whose pivots copy a row before they write
into it.  Bland's rule sees the same tableau each time, so a reused
polyhedron gives the same point, value and dual as a fresh one.  A
caller that solves on one feasible set many times keeps one polyhedron
for it: `RobustBilevelInstance.follower_polyhedron` gives one Y(x) per
leader x for the instance's lifetime.

A lexicographic solve (a tie objective) continues from the first
objective's optimal tableau: the slacks of the rows that carry a
positive first dual stay out of the basis, which keeps the second stage
on the optimal face without added rows or a second phase one.

Every optimal solve produces a dual certificate mu (for the maximization
form) with mu >= 0, mu^T A = obj and mu^T rhs = value, and a tie stage a
second one for the tie objective plus a multiple of the first; each is
verified exactly on the spot, on the polyhedron's integer rows, and a
global counter keeps score so test suites can assert that no solve ever
went uncertified.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .numeric import (
    ZERO,
    Fraction,
    as_matrix,
    as_vector,
    dot,
    gauss_solve,
    integer_scaled,
    rank,
)


class LpError(Exception):
    """Base class for solver errors."""


class InfeasibleError(LpError):
    pass


class UnboundedError(LpError):
    pass


class LpInternalError(LpError):
    """An exact invariant of the solver failed; indicates a bug."""


class Sense(Enum):
    MAX = "max"
    MIN = "min"


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class CertificateLog:
    """Running tally of dual-certificate checks, for test assertions."""

    optimal_solves: int = 0
    verified: int = 0
    failures: int = 0

    def reset(self) -> None:
        self.optimal_solves = 0
        self.verified = 0
        self.failures = 0


CERT_LOG = CertificateLog()


@dataclass(frozen=True)
class Polyhedron:
    """Feasible set {v in R^n : a·v <= rhs row by row}.

    Two things are computed on first use and kept for the object's
    lifetime: the rows scaled to ints, and the tableau after phase one.
    Every solve on one polyhedron shares them, so the emptiness probe
    and each scenario of one Y(x) run phase one once between them.
    """

    a: tuple
    rhs: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a))
        object.__setattr__(self, "rhs", as_vector(self.rhs))
        if len(self.a) < 1:
            raise ValueError("polyhedron needs at least one row")
        if len(self.a) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        if len(self.a[0]) < 1:
            raise ValueError("polyhedron needs at least one column")

    @property
    def num_rows(self) -> int:
        return len(self.a)

    @property
    def dim(self) -> int:
        return len(self.a[0])

    def contains(self, point: Sequence) -> bool:
        return all(dot(row, point) <= r for row, r in zip(self.a, self.rhs))

    @cached_property
    def _scaled_rows(self) -> tuple:
        """(scales, rows): row i of [a | rhs] times s_i, the least int
        > 0 that makes it integral, as a tuple of ints."""
        scales, rows = [], []
        for row, r in zip(self.a, self.rhs):
            s, ints = integer_scaled(row + (r,))
            scales.append(s)
            rows.append(tuple(ints))
        return tuple(scales), tuple(rows)

    @cached_property
    def _phase_one_tableau(self) -> Optional["_Tableau"]:
        """The tableau after phase one, or None when the set is empty.

        Solves start from a copy (`_Tableau.copy`) and never change it.
        """
        return _phase_one(self)


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    point: Optional[tuple] = None
    value: Optional[Fraction] = None
    dual: Optional[tuple] = None


class _Tableau:
    """Dense fraction-free simplex tableau over [A|I](v, s) = rhs.

    The n columns of v are free and kept whole; the m slack columns s are
    nonnegative.  Rows with negative rhs are sign-flipped so the tableau's
    rhs stays >= 0; those rows get an artificial column for the phase-one
    basis.  Row i is scaled once to ints by the least s_i > 0, its slack
    and artificial entries kept at +-1 (a positive column scaling, which
    Bland's rule does not see).  The true tableau is rows / d, one d > 0,
    with the rhs last in each row; a pivot on p sets each other row to
    (p*row - f*prow) // d, exact as every entry is a minor (Bareiss), and
    d to p.  Most pivots are unimodular, p = d: then a row with f = 0
    stays as it is, and a row with f != 0 changes only on prow's support,
    by (f*prow[j]) // d, which d divides as it divides p*row[j] -
    f*prow[j].  A running phase keeps its objective row last.  A free
    column that enters on a positive reduced cost enters falling: its
    ratio test reads the column times -1, and its pivot entry is
    negative, so `pivot` takes the pivot row times -1, which keeps d > 0
    and leaves every other row as rising on the column times -1 would.
    Once basic, a free column never leaves: its row takes no part in a
    ratio test, and its value may be negative.  The structural part
    [A|I] has full row rank, so no row of the tableau is zero on it:
    every artificial left in the basis at level zero after phase one
    pivots out, and phase two and the dual see structural columns only.
    """

    def __init__(self, poly: Polyhedron):
        m, n = poly.num_rows, poly.dim
        self.m, self.n = m, n
        self.num_structural = n + m
        art_rows = [i for i in range(m) if poly.rhs[i] < 0]
        self.art_cols = {i: n + m + k for k, i in enumerate(art_rows)}
        self.ncols = n + m + len(art_rows)
        self.rows = []
        for i, ints in enumerate(poly._scaled_rows[1]):
            sign = -1 if ints[-1] < 0 else 1
            row = [sign * a for a in ints[:n]] + [0] * (self.ncols - n)
            row.append(sign * ints[-1])
            row[n + i] = sign
            if sign < 0:
                row[self.art_cols[i]] = 1
            self.rows.append(row)
        self.d = 1
        self.basis = [self.art_cols.get(i, n + i) for i in range(m)]

    def copy(self) -> "_Tableau":
        """A tableau that pivots apart from this one.  The rows are shared:
        `pivot` replaces a row, or copies it before it writes into it, and
        never writes into a row in place."""
        twin = copy.copy(self)
        twin.rows = self.rows[:]
        twin.basis = self.basis[:]
        return twin

    def pivot(self, row: int, col: int) -> None:
        rows = self.rows
        prow = rows[row]
        p, d = prow[col], self.d
        if p < 0:
            # A falling free column, or an artificial's pivot-out after
            # phase one: negating the pivot row's equation keeps d > 0.
            prow = rows[row] = [-a for a in prow]
            p = -p
        if p == d:
            support = [j for j, b in enumerate(prow) if b]
            for i, irow in enumerate(rows):
                f = irow[col]
                if f and i != row:
                    irow = rows[i] = irow[:]
                    for j in support:
                        irow[j] -= f * prow[j] // d
        else:
            for i, irow in enumerate(rows):
                if i == row:
                    continue
                f = irow[col]
                if f:
                    rows[i] = [(p * a - f * b) // d
                               for a, b in zip(irow, prow)]
                else:
                    rows[i] = [p * a // d for a in irow]
            self.d = p
        self.basis[row] = col

    def leaving_row(self, col: int, sign: int = 1) -> int:
        """Bland's ratio test over the rows whose basic column is not free;
        -1 when no such row bounds the column's rise (sign 1) or fall
        (sign -1).  Ratios share the denominator d, so they compare by
        cross-multiplying."""
        leave, best_b, best_coef = -1, 0, 1
        basis = self.basis
        for i in range(self.m):
            row = self.rows[i]
            coef = sign * row[col]
            if coef > 0 and basis[i] >= self.n:
                lhs, rhs = row[-1] * best_coef, best_b * coef
                if (leave < 0 or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[leave])):
                    leave, best_b, best_coef = i, row[-1], coef
        return leave

    def run(self, cost: Sequence, allowed: Sequence) -> LpStatus:
        """Bland-rule phase driver maximizing cost over the current basis;
        a cost shorter than a row is 0 on the columns past its end.

        Of the slack and artificial columns, only those in `allowed`
        (ascending) may enter; free columns always may.  The objective row
        is the reduced costs times d and times the cost's integer scale,
        so its signs are the true ones.  The entering order is the one a
        split v = v+ - v- would give: free columns with a negative reduced
        cost, rising, then free columns with a positive one, falling, then
        the allowed columns.
        """
        n, rows = self.n, self.rows
        cost = integer_scaled(cost)[1] + [0] * (self.ncols - len(cost))
        obj = [-self.d * c for c in cost] + [0]
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                obj = [o + cb * a for o, a in zip(obj, rows[i])]
        rows.append(obj)
        try:
            while True:
                obj = rows[-1]
                enter = next((j for j in range(n) if obj[j] < 0), -1)
                if enter < 0:
                    enter = next((j for j in range(n) if obj[j] > 0), -1)
                if enter < 0:
                    enter = next((j for j in allowed if obj[j] < 0), -1)
                if enter < 0:
                    return LpStatus.OPTIMAL
                leave = self.leaving_row(enter, -1 if obj[enter] > 0 else 1)
                if leave < 0:
                    return LpStatus.UNBOUNDED
                self.pivot(leave, enter)
        finally:
            rows.pop()

    def point(self) -> tuple:
        """The basic solution's v, nonbasic free columns at 0."""
        w = [0] * self.ncols
        for i in range(self.m):
            w[self.basis[i]] = self.rows[i][-1]
        return tuple([Fraction(w[j], self.d) for j in range(self.n)])

    def dual(self, poly: Polyhedron, obj: Sequence) -> tuple:
        """The optimal basis's dual mu for obj, one entry per row.

        A basic slack forces its row's mu to 0, so only the k rows whose
        slack is nonbasic carry mu, k the number of basic free columns j:
        sum_r mu_r a[r][j] = obj[j].  With row r of a equal to ints_r / s_r
        (`Polyhedron._scaled_rows`), the k x k system is solved in ints,
        sum_r nu_r ints_r[j] = obj[j], and mu_r = s_r nu_r.  A nonbasic
        free column has reduced cost 0 at an optimum, so mu^T A = obj whole.
        """
        n = self.n
        scales, ints = poly._scaled_rows
        free_cols = [col for col in self.basis if col < n]
        carriers = sorted(set(range(self.m))
                          - {col - n for col in self.basis if col >= n})
        nu = gauss_solve([[ints[r][j] for r in carriers] for j in free_cols],
                         [obj[j] for j in free_cols])
        if nu is None:
            raise LpInternalError("singular optimal basis")
        mu = [ZERO] * self.m
        for r, v in zip(carriers, nu):
            mu[r] = scales[r] * v
        return tuple(mu)


def _phase_one(poly: Polyhedron) -> Optional[_Tableau]:
    """poly's tableau at a feasible basis with no artificial in it, or
    None when poly is empty."""
    tab = _Tableau(poly)
    if not tab.art_cols:
        return tab
    art_set = set(tab.art_cols.values())
    scales = poly._scaled_rows[0]
    phase1_cost = [0] * tab.ncols
    for i, col in tab.art_cols.items():
        phase1_cost[col] = Fraction(-1, scales[i])
    status = tab.run(phase1_cost, range(tab.n, tab.ncols))
    if status is not LpStatus.OPTIMAL:
        raise LpInternalError("phase one cannot be unbounded")
    if any(tab.rows[i][-1] for i in range(tab.m)
           if tab.basis[i] in art_set):
        return None
    # Pivot the zero-level artificials out on their first nonzero
    # structural entry, which the full row rank guarantees.
    for i in range(tab.m):
        if tab.basis[i] in art_set:
            tab.pivot(i, next(j for j in range(tab.num_structural)
                              if tab.rows[i][j]))
    return tab


def _phase_two(poly: Polyhedron, obj: Sequence,
               tie: Optional[Sequence] = None):
    """Phase two for max obj·v over poly, then, given a tie objective,
    max tie·v over obj's optimal face.

    Returns (status, tableau, certs).  certs pairs objectives with their
    dual certificates at the tableau's basic point: (obj, mu), then for a
    tie stage (tie + t·obj, mu_2).  The status is UNBOUNDED when obj is,
    or the tie objective is on obj's optimal face.

    Phase two starts from a copy of poly's tableau after phase one, which
    poly computes on its first solve and keeps; so every solve after the
    first on one polyhedron builds no tableau and runs no phase one.

    The tie stage continues from obj's optimal tableau.  For any optimal
    dual mu, obj's optimal face is poly with every slack r with mu_r > 0
    held at 0, so the tie stage lets only the free columns and the other
    slacks enter: no row is added and no phase one runs.  Its dual mu_s
    may be negative on the held rows; mu_2 = mu_s + t·mu with the least
    t >= 0 that makes it nonnegative certifies (tie + t·obj)·v over poly,
    which with the first certificate proves the point lex-optimal.
    """
    n, m = poly.dim, poly.num_rows
    start = poly._phase_one_tableau
    if start is None:
        return LpStatus.INFEASIBLE, None, []
    tab = start.copy()

    if tab.run(obj, range(n, n + m)) is LpStatus.UNBOUNDED:
        return LpStatus.UNBOUNDED, None, []
    mu = tab.dual(poly, obj)
    certs = [(obj, mu)]
    if tie is not None:
        face = [n + r for r in range(m) if not mu[r]]
        if tab.run(tie, face) is LpStatus.UNBOUNDED:
            return LpStatus.UNBOUNDED, None, []
        mu_s = tab.dual(poly, tie)
        t = max([-s / u for s, u in zip(mu_s, mu) if s < 0], default=ZERO)
        if t:
            tie = tuple([s + t * c if c else s for s, c in zip(tie, obj)])
            mu_s = tuple([s + t * u if u else s for s, u in zip(mu_s, mu)])
        certs.append((tie, mu_s))
    return LpStatus.OPTIMAL, tab, certs


def _solve_max(poly: Polyhedron, obj: Sequence,
               tie: Optional[Sequence] = None):
    """`_phase_two`, then every nonbasic free column pivoted in.

    Returns (status, point, certs), certs as `_phase_two` gives them.
    The optimal point is a vertex whenever poly has one.
    """
    n = poly.dim
    status, tab, certs = _phase_two(poly, obj, tie)
    if status is not LpStatus.OPTIMAL:
        return status, None, []

    # Every nonbasic free column now has reduced cost 0 for obj and tie,
    # so pivoting it in keeps both values.  A tight row that bounds it
    # either way takes it in place, so a vertex never moves; else it moves
    # along the optimal face until a slack row turns tight.  A column
    # that no slack row bounds either way spans a line of poly and stays
    # out at 0.
    basic = set(tab.basis)
    for j in range(n):
        if j in basic:
            continue
        tight = [i for i in range(tab.m) if tab.basis[i] >= n
                 and not tab.rows[i][-1] and tab.rows[i][j]]
        if tight:
            leave = min(tight, key=tab.basis.__getitem__)
        else:
            leave = tab.leaving_row(j)
            if leave < 0:
                leave = tab.leaving_row(j, -1)
        if leave >= 0:
            tab.pivot(leave, j)

    return LpStatus.OPTIMAL, tab.point(), certs


def _verify_certificate(poly: Polyhedron, obj: Sequence, value: Fraction,
                        mu: Sequence) -> None:
    """Check mu >= 0, mu^T A = obj and mu^T rhs = value on poly's data.

    Row i of [A | rhs] is ints_i / s_i, so with nu_i = mu_i / s_i over one
    common denominator D the check is sum (D nu_i) ints_i = D (obj | value)
    in ints.
    """
    CERT_LOG.optimal_solves += 1
    scales, rows = poly._scaled_rows
    terms = [(u.numerator, u.denominator * s, row)
             for u, s, row in zip(mu, scales, rows) if u]
    den = lcm(*[q for _, q, _ in terms])
    combo = [0] * (poly.dim + 1)
    for num, q, row in terms:
        f = num * (den // q)
        combo = [c + f * a for c, a in zip(combo, row)]
    target = list(obj) + [value]
    ok = (len(mu) == poly.num_rows and all(num > 0 for num, _, _ in terms)
          and all(c * t.denominator == den * t.numerator
                  for c, t in zip(combo, target)))
    if not ok:
        CERT_LOG.failures += 1
        raise LpInternalError("dual certificate check failed")
    CERT_LOG.verified += 1


def solve_lp(poly: Polyhedron, obj, sense: Sense = Sense.MAX,
             tie=None) -> LpOutcome:
    """Exact LP solve; an optimal point is a vertex of the polyhedron
    whenever it has one.  When the polyhedron contains a line instead,
    the free columns that span it stay at 0.

    The returned dual always certifies the maximization form: for a MIN
    solve it certifies max (-obj) = -value.

    With tie = (objective, sense), the point is also optimal for that
    objective over obj's optimal face, and value and dual stay obj's; the
    status is UNBOUNDED also when the tie objective is unbounded there.
    """
    obj = _internal(obj, sense, poly.dim)
    if tie is not None:
        tie = _internal(*tie, poly.dim)
    status, point, certs = _solve_max(poly, obj, tie)
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status=status)
    for cost, mu in certs:
        _verify_certificate(poly, cost, dot(cost, point), mu)
    value = dot(obj, point)
    if sense is Sense.MIN:
        value = -value
    return LpOutcome(LpStatus.OPTIMAL, point, value, certs[0][1])


def max_value(poly: Polyhedron, obj) -> Optional[Fraction]:
    """max obj·v over poly, or None when poly is empty or obj unbounded.

    The value is read at phase two's basic point, where its certificate
    is checked; unlike `solve_lp`, no free column is pivoted in after
    phase two, since no point is returned.
    """
    obj = _internal(obj, Sense.MAX, poly.dim)
    status, tab, certs = _phase_two(poly, obj)
    if status is not LpStatus.OPTIMAL:
        return None
    value = dot(obj, tab.point())
    _verify_certificate(poly, obj, value, certs[0][1])
    return value


def _internal(obj, sense: Sense, dim: int) -> tuple:
    """obj as the vector to maximize."""
    obj = as_vector(obj)
    if len(obj) != dim:
        raise ValueError(f"objective dimension {len(obj)} != {dim}")
    return obj if sense is Sense.MAX else tuple([-c for c in obj])


def solve_lex_lp(poly: Polyhedron, primary, primary_sense: Sense,
                 secondary, secondary_sense: Sense) -> tuple:
    """Optimize `secondary` over the primary objective's optimal face.

    Returns (point, value), value the secondary objective's at the point.
    One `solve_lp` with `secondary` as its tie objective: the second stage
    runs on the first stage's optimal tableau, with the slacks of the rows
    that carry a positive primary dual kept out of the basis.  Both stages'
    certificates are checked at the returned point, the first of them
    proving that it attains the primary's optimum.
    """
    out = solve_lp(poly, primary, primary_sense,
                   tie=(secondary, secondary_sense))
    if out.status is LpStatus.INFEASIBLE:
        raise InfeasibleError("lexicographic solve on an empty polyhedron")
    if out.status is LpStatus.UNBOUNDED:
        raise UnboundedError("the primary objective is unbounded, or the "
                             "secondary on the primary's optimal face")
    return out.point, dot(as_vector(secondary), out.point)


def is_nonempty(poly: Polyhedron) -> bool:
    """Whether poly has a point, read from its phase-one tableau.  The
    tableau's basic point is checked to lie in poly."""
    tab = poly._phase_one_tableau
    if tab is None:
        return False
    if not poly.contains(tab.point()):
        raise LpInternalError("phase one ended outside the polyhedron")
    return True


def check_bounded_nonempty(poly: Polyhedron):
    """Return (nonempty, bounded); an empty set counts as bounded.

    With rank A = n, a recession direction d != 0 of poly has A d <= 0
    and A d != 0, so (-1^T A) d > 0: a nonempty poly is bounded exactly
    when max (-1^T A) v over it is finite (Schrijver 1986, section 8.2).
    That certified LP starts from poly's phase-one tableau.
    """
    if not is_nonempty(poly):
        return False, True
    if rank(poly.a) < poly.dim:
        return True, False
    obj = [-sum(col) for col in zip(*poly.a)]
    return True, max_value(poly, obj) is not None
