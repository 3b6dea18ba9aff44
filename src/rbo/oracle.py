"""Independent brute-force references for validating the solvers.

Nothing here reuses the simplex, its integer elimination, the face
machinery or the bilevel solver logic: follower responses come from
basic solutions of Y(x) found by plain Gauss-Jordan on Fractions, and
leader/adversary loops are plain nested enumeration.  The only shared
code is the rational arithmetic itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .bilevel import Mode, RobustBilevelInstance, solve_robust
from .compiler import Formula, evaluate
from .numeric import Fraction, as_vector, dot
from .uncertainty import CapExceededError


MAX_ORACLE_VARS = 22
MAX_ORACLE_WORK = 10 ** 6


@dataclass(frozen=True)
class OracleVerdict:
    expected: Fraction
    actual: Fraction
    agree: bool
    witness: str


def _check_vars(formula: Formula) -> None:
    total = formula.p + formula.n
    if total > MAX_ORACLE_VARS:
        raise CapExceededError(f"{total} variables exceed the "
                               f"{MAX_ORACLE_VARS}-var cap")


def sat_oracle(formula: Formula) -> bool:
    """Exhaustive satisfiability over all variables, leader ones included."""
    _check_vars(formula)
    for bits in itertools.product((0, 1), repeat=formula.p + formula.n):
        if evaluate(formula, bits[:formula.p], bits[formula.p:]):
            return True
    return False


def qsat_oracle(formula: Formula) -> bool:
    """Exhaustive check of: some x makes f(x, y) = 1 for every y."""
    _check_vars(formula)
    for x_bits in itertools.product((0, 1), repeat=formula.p):
        if all(evaluate(formula, x_bits, y_bits)
               for y_bits in itertools.product((0, 1), repeat=formula.n)):
            return True
    return False


def robust_single_level_oracle(x_set, scenarios):
    """max over X of min over scenarios of c·x, by full enumeration."""
    x_vectors = [as_vector(v) for v in x_set]
    scenario_rows = [as_vector(c) for c in scenarios]
    if not x_vectors or not scenario_rows:
        raise ValueError("oracle needs a nonempty X and scenario list")
    if len(x_vectors) * len(scenario_rows) > MAX_ORACLE_WORK:
        raise CapExceededError("X x scenarios product exceeds the oracle cap")
    best = None
    for x in x_vectors:
        worst = min(dot(c, x) for c in scenario_rows)
        if best is None or worst > best:
            best = worst
    return best


def solve_square(m, r):
    """The unique solution of the square system m v = r, by Gauss-Jordan
    elimination on Fractions, or None when m is singular."""
    n = len(m)
    if len(r) != n or any(len(row) != n for row in m):
        raise ValueError("solve_square needs an n x n matrix and n values")
    rows = [[*map(Fraction, row), Fraction(t)] for row, t in zip(m, r)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        prow = [a / rows[pivot][col] for a in rows[pivot]]
        rows[pivot], rows[col] = rows[col], prow
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, prow)]
    return tuple([row[n] for row in rows])


def _brute_vertices(rows, rhs):
    """All vertices of {v : rows v <= rhs} by raw subset enumeration."""
    m = len(rows)
    n = len(rows[0])
    if m < n or comb(m, n) > MAX_ORACLE_WORK:
        raise CapExceededError(
            f"brute vertex enumeration needs C({m},{n}) subsets, "
            f"cap {MAX_ORACLE_WORK}")
    vertices = set()
    for subset in itertools.combinations(range(m), n):
        point = solve_square([rows[i] for i in subset],
                             [rhs[i] for i in subset])
        if point is None or point in vertices:
            continue
        if all(dot(rows[i], point) <= rhs[i] for i in range(m)):
            vertices.add(point)
    if not vertices:
        raise ValueError("no vertices; set is empty or unbounded")
    return sorted(vertices)


def _brute_follower_value(inst: RobustBilevelInstance, x, c, mode: Mode):
    """Leader value of the follower's response, recomputed from vertices.

    The follower's optimum is attained on a face whose extreme points are
    polytope vertices, so scanning vertices reproduces the lexicographic
    tie-breaking exactly.  Y(x)'s rows are built here, in Fractions, from
    the instance's stored integer rows alone.
    """
    lhs = [[Fraction(a, t) for a in row] for t, row, _, _ in inst.rows]
    shifted = [Fraction(b, t) + dot(lead, x) / t
               for t, _, lead, b in inst.rows]
    vertices = _brute_vertices(lhs, shifted)
    best = max(dot(c, v) for v in vertices)
    scores = [dot(inst.leader_obj, v) for v in vertices
              if dot(c, v) == best]
    return max(scores) if mode is Mode.OPTIMISTIC else min(scores)


def cross_validate(inst: RobustBilevelInstance, mode: Mode) -> OracleVerdict:
    """Compare solve_robust against an independent reference computation.

    The reference re-solves the instance with plain loops over the
    leader set's candidates and the uncertainty set's `corner_samples`.
    A finite set (`finite_scenarios` is not None) is sampled whole, so
    the value is exact and must agree.  A box's corners or a hull's
    points are members of a continuous set, which can only over-estimate
    the adversary's min, so the sampled value is a certified upper
    bound; `agree` still reports exact equality, which specific
    constructions are known to achieve.
    """
    actual = solve_robust(inst, mode).value
    unc = inst.uncertainty
    scenarios = unc.corner_samples()
    expected = None
    for x in inst.leader_set.candidates(inst.p):
        worst = None
        for c in scenarios:
            value = _brute_follower_value(inst, x, c, mode)
            if worst is None or value < worst:
                worst = value
        if expected is None or worst > expected:
            expected = worst
    agree = expected == actual
    if unc.finite_scenarios() is None and expected < actual:
        witness = (f"sampled bound {expected} fell below the exact value "
                   f"{actual}: the bound property is violated")
    elif agree:
        witness = "values agree exactly"
    else:
        witness = f"reference value {expected} != solver value {actual}"
    return OracleVerdict(expected=expected, actual=actual, agree=agree,
                         witness=witness)
