"""Exact simplex over rational data.

Linear programs are stated on a :class:`Polyhedron` {v : A v <= rhs} with
free variables, which is its integer rows: those of [A | rhs], each
times a positive factor that makes it integral.  The solver is a
textbook two-phase simplex, on a condensed tableau, with Bland's pivot
rule (smallest label), which terminates under degeneracy and is
deterministic for fixed input.  It pivots on integer rows (Bareiss 1968)
and checks its certificates in ints.  Objectives come scaled to ints
(`scaled_objective`), so a caller that solves one objective on many
polyhedra scales it once; a solve returns its status and its point as
ints over one denominator.  Fractions appear only in the secondary's
value that `solve_lex_lp` returns.
Free variables keep one column each.  Phase one ends by pivoting in
every free column that a row bounds, and a basic free column never
leaves, so every later basis has a vertex as its basic point whenever
the polyhedron has one, and no later solve pivots a free column in.

Phase one runs once per polyhedron, and phase two once per objective: a
:class:`Polyhedron` keeps its tableau after phase one (or the finding
that it is empty) and, for each objective solved on it, the optimal
tableau (or the finding that the objective is unbounded) for as long as
it lives.  Solves pivot only shallow copies of a kept tableau, whose
pivots copy a row before they write into it.  Bland's rule sees the
same tableau each time, so a reused polyhedron gives the same point and
certificates as a fresh one.
A caller that solves on one feasible set many times keeps one polyhedron
for it: `RobustBilevelInstance.follower_polyhedron` gives one Y(x) per
leader x for the instance's lifetime, so both modes' follower solves and
the replay of one scenario share its first stage.

A lexicographic solve (a tie objective) continues from the first
objective's optimal tableau: the slacks of the rows that carry a
positive first dual stay out of the basis, which keeps the second stage
on the optimal face without added rows or a second phase one.

Every optimal solve produces a dual certificate in ints: the final
objective row's slack part o, with o >= 0 and sum_r o_r ints_r = (c |
c·w / d) at the basic point v = w / d, for c the objective times S d
(S its scale, d the tableau's denominator) and ints_r the polyhedron's
integer row r.  Then mu_r = o_r / (S d) is a dual of those rows, with
mu >= 0 and sum_r mu_r ints_r = (obj | obj·v).  A tie stage forms a
second certificate for the tie objective plus a multiple of the first.
`_verify_certificate` checks each one on the spot, before the solve
returns an optimal outcome; the certificate itself is not returned.  A
global counter keeps score so test suites can assert that no solve ever
went uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .numeric import (
    Fraction,
    as_matrix,
    as_vector,
    bareiss_step,
    integer_scaled,
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


CERT_LOG = CertificateLog()


class Polyhedron:
    """Feasible set {v in R^n : a·v <= rhs row by row}.

    It is its rows in ints, `rows`: row i of [a | rhs] times a positive
    factor, a tuple of ints with the rhs last.  `Polyhedron(a, rhs)`
    writes rows given as rationals at their least integer scale;
    `from_rows` takes rows of ints as given, as
    `RobustBilevelInstance.follower_polyhedron` and the geometry write
    them.

    Two more things are computed on first use and kept for the object's
    lifetime: the tableau after phase one, and each objective's first
    stage.  Every solve on one polyhedron shares them, so the emptiness
    probe and each scenario of one Y(x) run phase one once between them,
    and each scenario's first stage runs once whatever tie objectives
    follow it.
    """

    def __init__(self, a, rhs):
        a, rhs = as_matrix(a), as_vector(rhs)
        if len(a) < 1:
            raise ValueError("polyhedron needs at least one row")
        if len(a) != len(rhs):
            raise ValueError("row/rhs count mismatch")
        if len(a[0]) < 1:
            raise ValueError("polyhedron needs at least one column")
        self.rows = tuple([tuple(integer_scaled(row + (r,))[1])
                           for row, r in zip(a, rhs)])
        self.num_rows, self.dim = len(a), len(a[0])

    @classmethod
    def from_rows(cls, rows: Sequence) -> "Polyhedron":
        """The polyhedron whose rows of [a | rhs] are rows, tuples of
        ints, times positive factors."""
        poly = cls.__new__(cls)
        poly.rows = rows = tuple(rows)
        poly.num_rows, poly.dim = len(rows), len(rows[0]) - 1
        return poly

    def __repr__(self) -> str:
        return f"Polyhedron.from_rows({self.rows!r})"

    def contains(self, point: Sequence) -> bool:
        point = as_vector(point)
        if len(point) != self.dim:
            raise ValueError(f"point dimension {len(point)} != {self.dim}")
        d, w = integer_scaled(point)
        return self._holds(w, d)

    def _holds(self, w: Sequence, d: int) -> bool:
        """Whether the point w / d, w ints and d > 0, satisfies every row:
        ints_r·(w | -d) <= 0 on the integer rows."""
        return all(sum(map(mul, row, w)) <= row[-1] * d
                   for row in self.rows)

    @cached_property
    def _phase_one_tableau(self) -> Optional["_Tableau"]:
        """The tableau after phase one, or None when the set is empty.

        Solves start from a copy (`_Tableau.copy`) and never change it.
        """
        return _phase_one(self)

    @cached_property
    def _stage_one(self) -> dict:
        """{obj scaled to ints, (S, ints): the tableau at obj's optimum,
        or () for an unbounded obj}, filled by `_phase_two`, which pivots
        only copies of a kept tableau."""
        return {}


class _Tableau:
    """Condensed fraction-free simplex tableau over [A|I](v, s) = rhs.

    Labels 0 to n - 1 name v's free columns, n to n + m - 1 the slacks.
    Row i holds `basis[i]`; as in lrs (Avis 2000), only the nonbasic
    variables keep a column, labelled by `nonbasic`, with the rhs last
    (each basic column of the full tableau is d·e_i).  Row i starts as
    the polyhedron's integer row i, its slack basic at 1 (a column
    scaling that Bland's rule does not see).  When some rhs is
    negative, one auxiliary, label n + m (Chvatal 1983, ch. 3), holds -1
    on exactly those rows; phase one drives it to 0 and drops it.  The
    true tableau is rows / d, one d > 0; a pivot is one exchange
    `bareiss_step`, which replaces the rows it changes, so a copy's
    pivots leave shared rows be.
    A running phase keeps its objective row last.  A free column that
    enters on a positive reduced cost enters falling: its ratio test
    reads the column times -1, and its pivot entry is negative, so the
    step takes the pivot row times -1, which keeps d > 0 and leaves every
    other row as rising on the column times -1 would.
    Once basic, a free column never leaves: its row takes no part in a
    ratio test, and its value may be negative.  Phase one ends with every
    free column that a row bounds basic, so later phases enter slacks
    only.  The structural part [A|I] has full row rank, so no row of the
    tableau is zero on it: an auxiliary left in the basis at level zero
    after phase one pivots out, so every later tableau has n + 1 columns.
    """

    def __init__(self, poly: Polyhedron):
        m, n = poly.num_rows, poly.dim
        self.m, self.n = m, n
        aux = any(ints[-1] < 0 for ints in poly.rows)
        self.nonbasic = [*range(n)] + [n + m] * aux
        self.rows = [[*ints[:n], -(ints[-1] < 0), ints[-1]] if aux
                     else [*ints] for ints in poly.rows]
        self.d = 1
        self.basis = [n + i for i in range(m)]

    def copy(self) -> "_Tableau":
        """A tableau that pivots apart from this one.  The rows are shared:
        `pivot` replaces a row, or copies it before it writes into it, and
        never writes into a row in place."""
        twin = _Tableau.__new__(_Tableau)
        twin.m, twin.n, twin.d = self.m, self.n, self.d
        twin.rows, twin.basis = self.rows[:], self.basis[:]
        twin.nonbasic = self.nonbasic[:]
        return twin

    def pivot(self, row: int, col: int) -> None:
        self.d = bareiss_step(self.rows, row, col, self.d)
        self.basis[row], self.nonbasic[col] = \
            self.nonbasic[col], self.basis[row]

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
        """Run one Bland-rule phase maximizing cost, ints (an objective
        times its scale S > 0) by label, 0 on the labels past its end.

        Of the slack and auxiliary labels, only those in `allowed` may
        enter; free columns always may.  The objective row is the reduced
        costs times d and times S, so its signs are the true ones; the
        run keeps its last one as `obj`.
        The entering label is the least in the first tier that a split
        v = v+ - v- would give: free columns with a negative reduced
        cost, rising, then free ones with a positive one, falling, then
        the allowed columns.
        """
        n, rows, labels = self.n, self.rows, self.nonbasic
        cost = [*cost] + [0] * (self.n + self.m + 1 - len(cost))
        obj = [-self.d * cost[j] for j in labels] + [0]
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                obj = [o + cb * a for o, a in zip(obj, rows[i])]
        rows.append(obj)
        try:
            while True:
                obj = rows[-1]
                eligible = [(j >= n or o > 0, j, k)
                            for k, (j, o) in enumerate(zip(labels, obj))
                            if o < 0 and j in allowed or j < n and o]
                if not eligible:
                    return LpStatus.OPTIMAL
                enter = min(eligible)[2]
                leave = self.leaving_row(enter, -1 if obj[enter] > 0 else 1)
                if leave < 0:
                    return LpStatus.UNBOUNDED
                self.pivot(leave, enter)
        finally:
            self.obj = rows.pop()

    def slack_costs(self) -> list:
        """o: the last objective row at each slack label, 0 where basic."""
        o = [0] * (self.n + self.m)
        for j, a in zip(self.nonbasic, self.obj):
            o[j] = a
        return o[self.n:]

    def point(self) -> tuple:
        """The basic solution's v as (w, d), v = w / d with w ints,
        nonbasic free columns at 0."""
        n, w = self.n, [0] * self.n
        for row, col in zip(self.rows, self.basis):
            if col < n:
                w[col] = row[-1]
        return w, self.d


def _phase_one(poly: Polyhedron) -> Optional[_Tableau]:
    """poly's tableau at a feasible basis with the auxiliary out of it
    and rank A free columns basic, or None when poly is empty.

    With some rhs negative, the auxiliary enters on the row of least rhs
    (the first on a tie), which leaves every rhs >= 0, and a run
    maximizes minus it.  poly is empty exactly when it ends basic at a
    positive level; at level zero it pivots out on its row's nonzero
    entry of least label.  Once it is nonbasic, its column goes.

    The last step pivots each nonbasic free column in: a tight row with a
    nonzero entry takes it in place; else the point moves by Bland's
    ratio test, rising or else falling, until a slack row turns tight.
    A column that no row bounds either way spans a line of poly and
    stays out at 0.  The basic point is then a vertex whenever poly has
    one, and since a basic free column never leaves, so is every later
    basis's.
    """
    tab = _Tableau(poly)
    n, m, rows, labels = tab.n, tab.m, tab.rows, tab.nonbasic
    if n + m in labels:
        tab.pivot(min(range(m), key=lambda i: rows[i][-1]), n)
        if tab.run([0] * (n + m) + [-1], range(n, n + m + 1)) \
                is not LpStatus.OPTIMAL:
            raise LpInternalError("phase one cannot be unbounded")
        if n + m in tab.basis:
            i = tab.basis.index(n + m)
            if rows[i][-1]:
                return None
            tab.pivot(i, min((k for k, a in enumerate(rows[i][:-1]) if a),
                             key=labels.__getitem__))
        k = labels.index(n + m)
        del labels[k]
        rows[:] = [row[:k] + row[k + 1:] for row in rows]
    for j in sorted(set(range(n)).difference(tab.basis)):
        col = labels.index(j)
        tight = [i for i in range(m) if tab.basis[i] >= n
                 and not rows[i][-1] and rows[i][col]]
        if tight:
            leave = min(tight, key=tab.basis.__getitem__)
        else:
            leave = tab.leaving_row(col)
            if leave < 0:
                leave = tab.leaving_row(col, -1)
        if leave >= 0:
            tab.pivot(leave, col)
    return tab


def _phase_two(poly: Polyhedron, obj: tuple, tie: Optional[tuple] = None):
    """Phase two for max obj·v over poly, then, given a tie objective,
    max tie·v over obj's optimal face; obj and tie as (S, ints), as
    `scaled_objective` gives them.

    Returns (status, tableau, certs): certs pairs each stage's
    certificate o with the objective it certifies, c, for
    `_verify_certificate` at the tableau's basic point: (o, c) for obj,
    then for a tie stage (o_2, c_2) for tie + t·obj.  A stage's o is its
    final objective row's slack part.  Row r is [ints_r | e_r], poly's
    integer row r and its slack, so o_r / (S·d), d the stage's
    denominator, is the dual mu_r of that row (Chvatal 1983, ch. 10);
    c = S·d·obj = d·ints in ints.  The status is UNBOUNDED when obj
    is, or the tie objective is on obj's optimal face.

    Phase two runs once per objective on one polyhedron, from a copy of
    poly's phase-one tableau, and its result is kept in `poly._stage_one`
    under obj's (S, ints).  A later solve of obj, with any tie objective
    or none, starts from obj's optimal tableau, copied when a tie stage
    pivots on; the caller still checks both certificates at its point.

    The tie stage continues from obj's optimal tableau.  For any optimal
    dual mu, obj's optimal face is poly with every slack r with mu_r > 0
    held at 0, so the tie stage lets only the free columns and the other
    slacks enter: no row is added and no phase one runs.  Its dual may be
    negative on the held rows; adding t·mu with the least t >= 0 that
    makes it nonnegative certifies (tie + t·obj)·v over poly, which with
    the first certificate proves the point lex-optimal.  In ints that is
    o_2 = t_d·o_s + t_n·o and c_2 = t_d·c_s + t_n·c, with t_n / t_d the
    largest -o_s[r] / o[r], compared by cross-multiplying.
    """
    n, m = poly.dim, poly.num_rows
    start = poly._phase_one_tableau
    if start is None:
        return LpStatus.INFEASIBLE, None, []
    known = poly._stage_one
    tab = known.get(obj)
    if tab is None:
        tab = start.copy()
        if tab.run(obj[1], range(n, n + m)) is not LpStatus.OPTIMAL:
            tab = ()
        known[obj] = tab
    if not tab:
        return LpStatus.UNBOUNDED, None, []
    o = tab.slack_costs()
    c = [tab.d * a for a in obj[1]]
    certs = [(o, c)]
    if tie is not None:
        tab = tab.copy()
        if tab.run(tie[1], {n + r for r in range(m) if not o[r]}) \
                is LpStatus.UNBOUNDED:
            return LpStatus.UNBOUNDED, None, []
        o_s = tab.slack_costs()
        c_s = [tab.d * a for a in tie[1]]
        t_n, t_d = 0, 1
        for a, b in zip(o_s, o):
            if a < 0 < b and -a * t_d > t_n * b:
                t_n, t_d = -a, b
        if t_n:
            o_s = [t_d * a + t_n * b for a, b in zip(o_s, o)]
            c_s = [t_d * a + t_n * b for a, b in zip(c_s, c)]
        certs.append((o_s, c_s))
    return LpStatus.OPTIMAL, tab, certs


def _verify_certificate(poly: Polyhedron, o: Sequence, c: Sequence,
                        point: tuple) -> None:
    """Check the dual certificate o for max c·v at the point v = w / d,
    point = (w, d), on poly's integer rows: o >= 0 and sum_r o_r ints_r
    = (c | c·w / d), ints_r poly's row r.  Then for any D > 0, mu_r =
    o_r / D has mu >= 0 and sum_r mu_r ints_r = (c | c·v) / D, so v is
    optimal.
    """
    CERT_LOG.optimal_solves += 1
    rows = poly.rows
    w, d = point
    combo = [0] * (poly.dim + 1)
    for u, row in zip(o, rows):
        if u:
            combo = [x + u * a for x, a in zip(combo, row)]
    ok = (len(o) == len(rows) and min(o) >= 0 and combo[:-1] == list(c)
          and d * combo[-1] == sum(map(mul, c, w)))
    if not ok:
        CERT_LOG.failures += 1
        raise LpInternalError("dual certificate check failed")
    CERT_LOG.verified += 1


def scaled_objective(obj, sense: Sense, dim: int) -> tuple:
    """obj as the vector to maximize, scaled to ints: (S, ints), the ints
    negated for MIN.  The one form in which the solves take objectives."""
    obj = as_vector(obj)
    if len(obj) != dim:
        raise ValueError(f"objective dimension {len(obj)} != {dim}")
    scale, ints = integer_scaled(obj)
    return scale, tuple(ints if sense is Sense.MAX else [-a for a in ints])


def solve_lp(poly: Polyhedron, obj: tuple, tie: Optional[tuple] = None
             ) -> tuple:
    """Exact solve of max obj·v over poly, obj as `scaled_objective`
    gives it (a MIN objective comes negated).  Returns (status, point):
    when optimal, the point, as ints (w, d), v = w / d, is the optimal
    tableau's basic point, a vertex of the polyhedron whenever it has one
    (`_phase_one`); when the polyhedron contains a line instead, the free
    columns that span it stay at 0.  Its certificate is checked before it
    is returned.  Otherwise the point is None.

    With a tie objective, in the same form, the point is also optimal for
    it over obj's optimal face, with a second certificate checked; the
    status is UNBOUNDED also when the tie objective is unbounded there.
    """
    status, tab, certs = _phase_two(poly, obj, tie)
    if status is not LpStatus.OPTIMAL:
        return status, None
    point = tab.point()
    for o, c in certs:
        _verify_certificate(poly, o, c, point)
    return status, point


def solve_lex_lp(poly: Polyhedron, primary: tuple,
                 secondary: tuple) -> tuple:
    """Maximize `secondary` over the primary objective's optimal face,
    both as `scaled_objective` gives them.

    Returns ((w, d), value): the point v = w / d in ints, and
    secondary·v, read off w without building v.  One `solve_lp` with
    `secondary` as its tie objective: the second stage runs on the first
    stage's optimal tableau, with the slacks of the rows that carry a
    positive primary dual kept out of the basis.  Both stages'
    certificates are checked at the returned point, the first of them
    proving that it attains the primary's optimum.
    """
    status, point = solve_lp(poly, primary, tie=secondary)
    if status is LpStatus.INFEASIBLE:
        raise InfeasibleError("lexicographic solve on an empty polyhedron")
    if status is LpStatus.UNBOUNDED:
        raise UnboundedError("the primary objective is unbounded, or the "
                             "secondary on the primary's optimal face")
    (scale, ints), (w, d) = secondary, point
    return point, Fraction(sum(map(mul, ints, w)), scale * d)


def is_nonempty(poly: Polyhedron) -> bool:
    """Whether poly has a point, read from its phase-one tableau.  The
    tableau's basic point is checked to lie in poly, on its integer rows
    (`Polyhedron._holds`)."""
    tab = poly._phase_one_tableau
    if tab is None:
        return False
    if not poly._holds(*tab.point()):
        raise LpInternalError("phase one ended outside the polyhedron")
    return True


def check_bounded_nonempty(poly: Polyhedron):
    """Return (nonempty, bounded); an empty set counts as bounded.

    With rank A = n, a recession direction d != 0 of poly has A d <= 0
    and A d != 0, so any positive row weights s give (-s^T A) d > 0: a
    nonempty poly is bounded exactly when max (-s^T A) v over it is
    finite (Schrijver 1986, section 8.2).  The weights are the factors
    that make the rows integral, so the objective is minus the sum of
    the integer rows.  Rank A (its basic free columns) and that LP use
    poly's phase one.
    """
    if not is_nonempty(poly):
        return False, True
    n = poly.dim
    if sum(col < n for col in poly._phase_one_tableau.basis) < n:
        return True, False
    obj = tuple([-sum(col) for col in zip(*poly.rows)][:n])
    return True, solve_lp(poly, (1, obj))[0] is LpStatus.OPTIMAL
