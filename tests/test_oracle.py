import itertools
from fractions import Fraction as F

import pytest

from rbo.bilevel import AllBinary, Mode, RobustBilevelInstance, solve_robust
from rbo.compiler import (
    compile_qsat_optimistic,
    compile_single_level_robust,
    parse_formula,
)
from rbo.numeric import ONE, ZERO
from rbo.oracle import (
    Reference,
    cross_validate,
    qsat_oracle,
    robust_single_level_oracle,
    sat_oracle,
)
from rbo.uncertainty import CapExceededError, DiscreteSet, Interval


def test_sat_oracle_examples():
    assert sat_oracle(parse_formula("(or y1 (not y1))", 0, 1)) is True
    assert sat_oracle(parse_formula("(and y1 (not y1))", 0, 1)) is False
    assert sat_oracle(parse_formula("(and (or y1 y2) (not y1))", 0, 2)) is True


def test_sat_oracle_cap():
    # 23 variables, one over MAX_ORACLE_VARS: refused before enumerating.
    with pytest.raises(CapExceededError):
        sat_oracle(parse_formula("y1", 0, 23))


def test_qsat_oracle_examples():
    assert qsat_oracle(parse_formula("(or x1 y1)", 1, 1)) is True
    assert qsat_oracle(parse_formula("y1", 0, 1)) is False
    xor = parse_formula("(or (and x1 (not y1)) (and (not x1) y1))", 1, 1)
    assert qsat_oracle(xor) is False


def test_robust_single_level_examples():
    assert robust_single_level_oracle([(0,), (1,)], [(1,), (-1,)]) == 0
    assert robust_single_level_oracle([(1, 1)], [(1, 0), (0, 1)]) == 1
    square = [(a, b) for a in (0, 1) for b in (0, 1)]
    assert robust_single_level_oracle(square, [(1, -1), (-1, 1)]) == 0


def test_cross_validate_discrete_agrees():
    inst = RobustBilevelInstance(
        p=1, n=2,
        lhs=((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE)),
        leader_mat=((ONE,), (ZERO,), (ZERO,), (ZERO,)),
        rhs=(ONE, ONE, ZERO, ZERO),
        leader_obj=(ONE, F(-1)),
        leader_set=AllBinary(),
        uncertainty=DiscreteSet(((F(1), F(1)), (F(-1), F(2)))))
    # GRID_SAMPLE samples a finite set whole, so it is exact there too.
    for mode, reference in itertools.product(Mode, Reference):
        verdict = cross_validate(inst, mode, reference)
        assert verdict.agree, verdict.witness
        assert verdict.expected == verdict.actual


def test_cross_validate_discrete_on_embedding():
    art = compile_single_level_robust([(0,), (1,)], [(1,), (-2,)])
    verdict = cross_validate(art.instance, Mode.OPTIMISTIC,
                             Reference.DISCRETE_ENUMERATION)
    assert verdict.agree


def test_cross_validate_requires_matching_kind():
    art = compile_qsat_optimistic(parse_formula("y1", 0, 1))
    with pytest.raises(ValueError):
        cross_validate(art.instance, Mode.OPTIMISTIC,
                       Reference.DISCRETE_ENUMERATION)


def test_grid_sample_bound_and_compiled_equality():
    # Box corners are a subset of the box, so the sampled min over them can
    # only overestimate the adversary's min; on this compiled instance the
    # corner scenarios are known to be exactly worst-case.
    art = compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1))
    verdict = cross_validate(art.instance, Mode.OPTIMISTIC,
                             Reference.GRID_SAMPLE)
    assert verdict.expected >= verdict.actual
    assert verdict.agree, verdict.witness


def test_grid_sample_strict_bound_case():
    # Flat triangle conv{(0,0), (1,0), (1/2,1/10)} with d = (0,-1): only
    # scenarios with |c1| < 1/5 expose the apex, so the box corners
    # c1 = +-1 miss the adversary's true optimum and the sampled bound is
    # strictly loose.
    inst = RobustBilevelInstance(
        p=0, n=2,
        lhs=((ZERO, -ONE), (F(-1, 5), ONE), (F(1, 5), ONE)),
        leader_mat=((), (), ()),
        rhs=(ZERO, ZERO, F(1, 5)),
        leader_obj=(ZERO, F(-1)),
        leader_set=AllBinary(),
        uncertainty=Interval((F(-1), F(1)), (F(1), F(1))))
    verdict = cross_validate(inst, Mode.OPTIMISTIC, Reference.GRID_SAMPLE)
    assert verdict.actual == F(-1, 10)
    assert verdict.expected == 0
    assert verdict.expected >= verdict.actual
    assert not verdict.agree
    assert solve_robust(inst, Mode.OPTIMISTIC).value == verdict.actual
