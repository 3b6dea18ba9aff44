from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbo.bilevel import (
    AllBinary,
    ExplicitList,
    Mode,
    RobustBilevelInstance,
    solve_robust,
)
from rbo.compiler import (
    compile_qsat_optimistic,
    compile_single_level_robust,
    parse_formula,
)
from rbo.numeric import ONE, ZERO
from rbo.oracle import (
    cross_validate,
    qsat_oracle,
    robust_single_level_oracle,
    sat_oracle,
)
from rbo.uncertainty import (
    CapExceededError,
    ConvexHull,
    DiscreteSet,
    Interval,
    ProductFinite,
)
from helpers import int_rows
from test_lp import _rationals


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
        rows=int_rows(
            ((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE)),
            ((ONE,), (ZERO,), (ZERO,), (ZERO,)), (ONE, ONE, ZERO, ZERO)),
        leader_obj=(ONE, F(-1)),
        leader_set=AllBinary(),
        uncertainty=DiscreteSet(((F(1), F(1)), (F(-1), F(2)))))
    for mode in Mode:
        verdict = cross_validate(inst, mode)
        assert verdict.agree, verdict.witness
        assert verdict.expected == verdict.actual


def test_cross_validate_discrete_on_embedding():
    art = compile_single_level_robust([(0,), (1,)], [(1,), (-2,)])
    verdict = cross_validate(art.instance, Mode.OPTIMISTIC)
    assert verdict.agree


@st.composite
def finite_instances(draw):
    """Instances whose Y(x) holds 0 and lies in the box [-1, 1]^n for
    every x in [0, 1]^p: box rows, plus up to two rows whose right-hand
    side covers their leader part's most negative value.  The leaders
    are all binary vectors or an explicit list; the uncertainty set is
    of one finite kind: a scenario list, a product grid, a box with no
    free coordinate or a hull whose points coincide."""
    p, n = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    vector = st.lists(_rationals(-2, 2), min_size=n, max_size=n).map(tuple)
    lhs, leader_mat, rhs = [], [], []
    for j in range(n):
        unit = [int(k == j) for k in range(n)]
        lhs += [unit, [-u for u in unit]]
        leader_mat += [[0] * p, [0] * p]
        rhs += [1, 1]
    for _ in range(draw(st.integers(0, 2))):
        lead = draw(st.lists(_rationals(-2, 2), min_size=p, max_size=p))
        lhs.append(draw(vector))
        leader_mat.append(lead)
        rhs.append(draw(_rationals(0, 2)) - sum(min(0, b) for b in lead))
    kind = draw(st.sampled_from(["discrete", "product", "interval", "hull"]))
    point = draw(vector)
    if kind == "discrete":
        uncertainty = DiscreteSet(draw(st.lists(vector, min_size=1,
                                                max_size=3)))
    elif kind == "product":
        values = st.lists(_rationals(-2, 2), min_size=1, max_size=2)
        uncertainty = ProductFinite([draw(values) for _ in range(n)])
    elif kind == "interval":
        uncertainty = Interval(point, point)
    else:
        uncertainty = ConvexHull([point] * draw(st.integers(1, 3)))
    if draw(st.booleans()):
        leader_set = AllBinary()
    else:
        binary = st.tuples(*[st.sampled_from([ZERO, ONE])] * p)
        leader_set = ExplicitList(draw(st.lists(binary, min_size=1,
                                                max_size=3)))
    return RobustBilevelInstance(
        p=p, n=n, rows=int_rows(lhs, leader_mat, rhs),
        leader_obj=draw(vector), leader_set=leader_set,
        uncertainty=uncertainty)


@given(finite_instances())
@settings(max_examples=100, deadline=None)
def test_cross_validate_is_exact_on_every_finite_kind(inst):
    assert inst.uncertainty.finite_scenarios() is not None
    for mode in Mode:
        verdict = cross_validate(inst, mode)
        assert verdict.agree, verdict.witness


def test_grid_sample_bound_and_compiled_equality():
    # Box corners are a subset of the box, so the sampled min over them can
    # only overestimate the adversary's min; on this compiled instance the
    # corner scenarios are known to be exactly worst-case.
    art = compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1))
    verdict = cross_validate(art.instance, Mode.OPTIMISTIC)
    assert verdict.expected >= verdict.actual
    assert verdict.agree, verdict.witness


def test_grid_sample_strict_bound_case():
    # Flat triangle conv{(0,0), (1,0), (1/2,1/10)} with d = (0,-1): only
    # scenarios with |c1| < 1/5 expose the apex, so the box corners
    # c1 = +-1 miss the adversary's true optimum and the sampled bound is
    # strictly loose.
    inst = RobustBilevelInstance(
        p=0, n=2,
        rows=int_rows(((ZERO, -ONE), (F(-1, 5), ONE), (F(1, 5), ONE)),
                      ((), (), ()), (ZERO, ZERO, F(1, 5))),
        leader_obj=(ZERO, F(-1)),
        leader_set=AllBinary(),
        uncertainty=Interval((F(-1), F(1)), (F(1), F(1))))
    verdict = cross_validate(inst, Mode.OPTIMISTIC)
    assert verdict.actual == F(-1, 10)
    assert verdict.expected == 0
    assert verdict.expected >= verdict.actual
    assert not verdict.agree
    assert solve_robust(inst, Mode.OPTIMISTIC).value == verdict.actual
