"""Exact simplex over rational data.

Linear programs are stated on a :class:`Polyhedron` {v : A v <= rhs} with
free variables.  The solver is a textbook two-phase full-tableau simplex
with Bland's pivot rule (smallest index), which terminates under
degeneracy and is deterministic for fixed input.  Free variables are
split into positive and negative parts internally.

Every optimal solve produces a dual certificate mu (for the maximization
form) with mu >= 0, mu^T A = obj and mu^T rhs = value; the certificate is
verified exactly on the spot and a global counter keeps score so test
suites can assert that no solve ever went uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .numeric import (
    ONE,
    ZERO,
    Fraction,
    as_matrix,
    as_vector,
    dot,
    gauss_solve,
    nullspace_vector,
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
    """Feasible set {v in R^n : a·v <= rhs row by row}."""

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

    def with_rows(self, extra_rows, extra_rhs) -> "Polyhedron":
        return Polyhedron(self.a + as_matrix(extra_rows, self.dim),
                          self.rhs + as_vector(extra_rhs))


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    point: Optional[tuple] = None
    value: Optional[Fraction] = None
    dual: Optional[tuple] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


@dataclass(frozen=True)
class LexOutcome:
    """Result of a two-stage lexicographic solve.

    `value` is the secondary objective's value on the returned point;
    the primary stage's optimum is kept alongside.
    """

    point: tuple
    value: Fraction
    primary_value: Fraction


class _Tableau:
    """Dense simplex tableau over the equality form [A|-A|I]w = b.

    Rows with negative rhs are sign-flipped so b >= 0 holds throughout;
    those rows get an artificial variable for the phase-one basis.  The
    structural part [A|-A|I] has full row rank, so no row of the tableau
    is zero on it: every artificial left in the basis at level zero after
    phase one pivots out, and phase two and the dual see structural
    columns only.
    """

    def __init__(self, poly: Polyhedron):
        m, n = poly.num_rows, poly.dim
        self.m, self.n = m, n
        self.num_structural = 2 * n + m
        self.sign = [ONE if poly.rhs[i] >= 0 else -ONE for i in range(m)]
        self.rows = []
        self.b = []
        art_rows = [i for i in range(m) if self.sign[i] < 0]
        self.art_cols = {i: self.num_structural + k
                         for k, i in enumerate(art_rows)}
        self.ncols = self.num_structural + len(art_rows)
        for i in range(m):
            s = self.sign[i]
            coeffs = [s * c for c in poly.a[i]] + [-s * c for c in poly.a[i]]
            coeffs += [s if j == i else ZERO for j in range(m)]
            coeffs += [ONE if self.art_cols.get(i) == self.num_structural + k
                       else ZERO for k in range(len(art_rows))]
            self.rows.append(coeffs)
            self.b.append(s * poly.rhs[i])
        self.basis = [self.art_cols.get(i, 2 * n + i) for i in range(m)]

    def pivot(self, row: int, col: int) -> None:
        prow = self.rows[row]
        inv = 1 / prow[col]
        if inv != 1:
            for j in range(self.ncols):
                if prow[j]:
                    prow[j] *= inv
            self.b[row] *= inv
        for i in range(self.m):
            if i == row:
                continue
            factor = self.rows[i][col]
            if factor:
                irow = self.rows[i]
                for j in range(self.ncols):
                    if prow[j]:
                        irow[j] -= factor * prow[j]
                self.b[i] -= factor * self.b[row]
        self.basis[row] = col

    def run(self, cost: Sequence, allowed_cols: int) -> LpStatus:
        """Bland-rule phase driver maximizing cost over the current basis."""
        obj = [-c for c in cost]
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                rowi = self.rows[i]
                for j in range(self.ncols):
                    if rowi[j]:
                        obj[j] += cb * rowi[j]
        while True:
            enter = -1
            for j in range(allowed_cols):
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return LpStatus.OPTIMAL
            leave = -1
            best_ratio = None
            for i in range(self.m):
                coef = self.rows[i][enter]
                if coef > 0:
                    ratio = self.b[i] / coef
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio
                                and self.basis[i] < self.basis[leave])):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return LpStatus.UNBOUNDED
            prow = self.rows[leave]
            factor = obj[enter] / prow[enter]
            for j in range(self.ncols):
                if prow[j]:
                    obj[j] -= factor * prow[j]
            self.pivot(leave, enter)


def _solve_max(poly: Polyhedron, obj: Sequence):
    """Two-phase simplex for max obj·v over poly.

    Returns (status, point, value, mu) with mu the exact dual certificate.
    """
    n = poly.dim
    tab = _Tableau(poly)

    if tab.art_cols:
        art_set = set(tab.art_cols.values())
        phase1_cost = [ZERO] * tab.ncols
        for col in art_set:
            phase1_cost[col] = -ONE
        status = tab.run(phase1_cost, tab.ncols)
        if status is not LpStatus.OPTIMAL:
            raise LpInternalError("phase one cannot be unbounded")
        infeasibility = sum((tab.b[i] for i in range(tab.m)
                             if tab.basis[i] in art_set), ZERO)
        if infeasibility != 0:
            return LpStatus.INFEASIBLE, None, None, None
        # Pivot the zero-level artificials out on their first nonzero
        # structural entry, which the full row rank guarantees.
        for i in range(tab.m):
            if tab.basis[i] in art_set:
                tab.pivot(i, next(j for j in range(tab.num_structural)
                                  if tab.rows[i][j]))

    cost = [ZERO] * tab.ncols
    for j in range(n):
        cost[j] = obj[j]
        cost[n + j] = -obj[j]
    status = tab.run(cost, tab.num_structural)
    if status is LpStatus.UNBOUNDED:
        return LpStatus.UNBOUNDED, None, None, None

    w = [ZERO] * tab.ncols
    for i in range(tab.m):
        w[tab.basis[i]] = tab.b[i]
    point = tuple(w[j] - w[n + j] for j in range(n))
    value = dot(obj, point)

    # Dual certificate: solve B^T y = c_B against the original column data,
    # then undo the row sign flips.
    bt = []
    cb = []
    for i in range(tab.m):
        col = tab.basis[i]
        if col < n:
            column = [tab.sign[r] * poly.a[r][col] for r in range(tab.m)]
        elif col < 2 * n:
            column = [-tab.sign[r] * poly.a[r][col - n] for r in range(tab.m)]
        else:
            k = col - 2 * n
            column = [tab.sign[k] if r == k else ZERO for r in range(tab.m)]
        bt.append(column)
        cb.append(cost[col])
    y = gauss_solve(bt, cb)
    if y is None:
        raise LpInternalError("singular optimal basis")
    mu = tuple(tab.sign[r] * y[r] for r in range(tab.m))
    return LpStatus.OPTIMAL, point, value, mu


def _verify_certificate(poly: Polyhedron, obj: Sequence, value: Fraction,
                        mu: Sequence) -> None:
    CERT_LOG.optimal_solves += 1
    ok = all(m >= 0 for m in mu)
    if ok:
        for j in range(poly.dim):
            combo = sum((mu[i] * poly.a[i][j] for i in range(poly.num_rows)
                         if mu[i]), ZERO)
            if combo != obj[j]:
                ok = False
                break
    if ok and dot(mu, poly.rhs) != value:
        ok = False
    if not ok:
        CERT_LOG.failures += 1
        raise LpInternalError("dual certificate check failed")
    CERT_LOG.verified += 1


def _purify_to_vertex(poly: Polyhedron, point: tuple, obj: Sequence) -> tuple:
    """Walk within the optimal face until n independent rows are tight.

    The split-variable simplex can stop at a non-vertex of the original
    polyhedron; each step moves along a direction that keeps all tight
    rows and the objective fixed until a new row becomes tight, so the
    tight rank strictly increases and the walk ends at a vertex.
    """
    n = poly.dim
    v = list(point)
    while True:
        tight = [poly.a[i] for i in range(poly.num_rows)
                 if dot(poly.a[i], v) == poly.rhs[i]]
        z = nullspace_vector(tight + [tuple(obj)], n)
        if z is None:
            return tuple(v)
        step = None
        for i in range(poly.num_rows):
            az = dot(poly.a[i], z)
            if az > 0:
                slack = poly.rhs[i] - dot(poly.a[i], v)
                t = slack / az
                if step is None or t < step:
                    step = t
        if step is None:
            raise LpInternalError("purification found a free ray; "
                                  "polyhedron is unbounded")
        for j in range(n):
            if z[j]:
                v[j] += step * z[j]


def solve_lp(poly: Polyhedron, obj, sense: Sense = Sense.MAX,
             purify: bool = True) -> LpOutcome:
    """Exact LP solve; optimal points are vertices of the polyhedron.

    The returned dual always certifies the maximization form: for a MIN
    solve it certifies max (-obj) = -value.
    """
    obj = as_vector(obj)
    if len(obj) != poly.dim:
        raise ValueError(f"objective dimension {len(obj)} != {poly.dim}")
    internal = obj if sense is Sense.MAX else tuple(-c for c in obj)
    status, point, value, mu = _solve_max(poly, internal)
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status=status)
    _verify_certificate(poly, internal, value, mu)
    if purify:
        point = _purify_to_vertex(poly, point, internal)
        if dot(internal, point) != value:
            raise LpInternalError("purification changed the optimum")
    if sense is Sense.MIN:
        value = -value
    return LpOutcome(LpStatus.OPTIMAL, point, value, mu)


def solve_lex_lp(poly: Polyhedron, primary, primary_sense: Sense,
                 secondary, secondary_sense: Sense) -> LexOutcome:
    """Optimize `secondary` over the primary objective's optimal face.

    The optimal face is pinned by appending the equality primary·v = v*
    as a pair of inequalities.
    """
    first = solve_lp(poly, primary, primary_sense, purify=False)
    if first.status is LpStatus.INFEASIBLE:
        raise InfeasibleError("lexicographic solve on an empty polyhedron")
    if first.status is LpStatus.UNBOUNDED:
        raise UnboundedError("primary objective is unbounded")
    primary = as_vector(primary)
    face = poly.with_rows(
        [primary, tuple(-c for c in primary)],
        [first.value, -first.value],
    )
    second = solve_lp(face, secondary, secondary_sense)
    if not second.is_optimal:
        raise LpInternalError("secondary stage lost feasibility")
    if dot(primary, second.point) != first.value:
        raise LpInternalError("lexicographic point left the optimal face")
    return LexOutcome(point=second.point, value=second.value,
                      primary_value=first.value)


def is_nonempty(poly: Polyhedron) -> bool:
    """Whether poly has a point: one LP with a zero objective."""
    probe = solve_lp(poly, (ZERO,) * poly.dim, Sense.MAX, purify=False)
    return probe.status is LpStatus.OPTIMAL


def check_bounded_nonempty(poly: Polyhedron):
    """Return (nonempty, bounded); an empty set counts as bounded."""
    if not is_nonempty(poly):
        return False, True
    for j in range(poly.dim):
        unit = tuple(ONE if k == j else ZERO for k in range(poly.dim))
        for sense in (Sense.MAX, Sense.MIN):
            if solve_lp(poly, unit, sense, purify=False).status \
                    is LpStatus.UNBOUNDED:
                return True, False
    return True, True
