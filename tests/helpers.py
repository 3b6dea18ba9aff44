"""Helpers that only the tests call: a rank reference, instance rows
from dense rational rows, a polyhedron's rows, points and vertices in
Fractions, the formula file writer, the relaxed leader's fractional spot
check, and the LP solves on rational objectives that the LP tests state
their cases in."""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from rbo import bilevel, geometry, lp
from rbo.compiler import Formula, formula_to_text
from rbo.numeric import eliminate, integer_scaled

SPOT_SAMPLES = 100
SPOT_DENOMINATOR = 16


def span_basis(vectors) -> tuple:
    """The indices of the first linearly independent vectors, in order:
    the pivot columns of `eliminate` on the vectors as int-scaled
    columns.  Its length is the rank of the vectors, a reference
    independent of the simplex."""
    return tuple(eliminate([integer_scaled(row)[1] for row in zip(*vectors)],
                           len(vectors))[0])


def int_rows(lhs, leader_mat, rhs) -> tuple:
    """The instance rows of dense rational rows lhs·y <= leader_mat·x +
    rhs, as `int_row` writes sparse ones."""
    if not len(lhs) == len(leader_mat) == len(rhs):
        raise bilevel.InstanceError("row counts of A, B and b differ")
    rows = []
    for a, lead, b in zip(lhs, leader_mat, rhs):
        t, ints = integer_scaled((*a, *lead, b))
        rows.append((t, tuple(ints[:len(a)]), tuple(ints[len(a):-1]),
                     ints[-1]))
    return tuple(rows)


def rational_rows(poly) -> tuple:
    """(a, rhs) in Fractions: the rows of [a | rhs] that poly holds, its
    integer rows, each a positive multiple of the row it was given."""
    return (tuple([tuple([Fraction(c) for c in row[:-1]])
                   for row in poly.rows]),
            tuple([Fraction(row[-1]) for row in poly.rows]))


def fractions(w, d) -> tuple:
    """The point w / d, w ints and d > 0, in Fractions."""
    return tuple([Fraction(c, d) for c in w])


def vertices(poly) -> dict:
    """`geometry.enumerate_vertices` with each vertex in Fractions."""
    return {fractions(w[:-1], w[-1]): tight
            for w, tight in geometry.enumerate_vertices(poly).items()}


def formula_file_text(formula: Formula) -> str:
    return (f"p={formula.p} n={formula.n}\n"
            f"{formula_to_text(formula)}\n")


@dataclass(frozen=True)
class Solved:
    """An LP's status and, when optimal, its point and obj's value there,
    in Fractions."""

    status: lp.LpStatus
    point: Optional[tuple] = None
    value: Optional[Fraction] = None


def solve(poly, obj, sense=lp.Sense.MAX, tie=None) -> Solved:
    """`lp.solve_lp` on rational objectives, tie = (objective, sense);
    the value is obj's in its own sense."""
    scale, ints = lp.scaled_objective(obj, sense, poly.dim)
    status, point = lp.solve_lp(poly, (scale, ints), None if tie is None
                                else lp.scaled_objective(*tie, poly.dim))
    if status is not lp.LpStatus.OPTIMAL:
        return Solved(status)
    w, d = point
    value = Fraction(sum(a * x for a, x in zip(ints, w)), scale * d)
    return Solved(status, tuple([Fraction(a, d) for a in w]),
                  -value if sense is lp.Sense.MIN else value)


def solve_lex(poly, primary, primary_sense, secondary, secondary_sense):
    """`lp.solve_lex_lp` on rational objectives: (point in Fractions,
    the secondary's value in its own sense)."""
    (w, d), value = lp.solve_lex_lp(
        poly, lp.scaled_objective(primary, primary_sense, poly.dim),
        lp.scaled_objective(secondary, secondary_sense, poly.dim))
    return (tuple([Fraction(a, d) for a in w]),
            -value if secondary_sense is lp.Sense.MIN else value)


def spot_check_relaxed(inst, binary_value, mode, seed: int = 0):
    """Deterministic fractional-leader sampler for relaxed instances.

    Draws SPOT_SAMPLES seeded points of the grid with step
    1/SPOT_DENOMINATOR from [0,1]^p and checks that none beats the
    binary optimum.  A cheap sound bound is tried first: the adversary's
    min over the corner scenarios of the uncertainty set dominates the
    true adversary value, so if even that bound stays below the binary
    optimum the sample passes; otherwise the exact adversary runs.

    Returns None when all samples pass, else a witness (x, exact value).
    """
    assert isinstance(inst.leader_set, bilevel.RelaxedBox)
    samples = [lp.scaled_objective(c, lp.Sense.MAX, inst.n)
               for c in inst.uncertainty.corner_samples()]
    rng = random.Random(seed)
    for _ in range(SPOT_SAMPLES):
        x = tuple([Fraction(rng.randint(0, SPOT_DENOMINATOR),
                            SPOT_DENOMINATOR) for _ in range(inst.p)])
        poly = inst.follower_polyhedron(x)
        bound = None
        for c in samples:
            value = bilevel._respond(inst, poly, c, mode)[1]
            if bound is None or value < bound:
                bound = value
            if bound <= binary_value:
                break  # the min over scenarios can only be lower
        # Nothing reuses the bound's first stages; dropping them keeps
        # the instance's memory to one phase-one tableau per sample.
        poly._stage_one.clear()
        if bound <= binary_value:
            continue
        _, exact = bilevel.adversary_geometric(inst, x, mode)
        if exact > binary_value:
            return (x, exact)
    return None
