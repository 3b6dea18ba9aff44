"""Acceptance suite: oracle-equivalence sweeps at desk scale.

Every comparison is exact rational equality (zero tolerance).  Each
criterion prints one PASS line on success; a failed assertion marks the
criterion failed.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
from fractions import Fraction as F
from functools import lru_cache

from rbo import geometry
from rbo.bilevel import (
    AllBinary,
    Mode,
    RobustBilevelInstance,
    adversary_geometric,
    follower_response,
    solve_robust,
    spot_check_relaxed,
)
from rbo.compiler import (
    And,
    FollowerVar,
    Formula,
    LeaderVar,
    Not,
    Or,
    atomic_term_count,
    box_to_simplex,
    compile_qsat_optimistic,
    compile_qsat_pessimistic,
    compile_single_level_robust,
    formula_to_text,
    full_family,
    random_formula,
    relax_leader,
)
from rbo.lp import CERT_LOG, Polyhedron, Sense, solve_lex_lp, solve_lp
from rbo.numeric import ONE, ZERO, dot
from rbo.oracle import (
    Reference,
    cross_validate,
    qsat_oracle,
    robust_single_level_oracle,
    sat_oracle,
)
from rbo.uncertainty import DiscreteSet, Interval

SEED = 31415
NUM_RANDOM_FORMULAS = 100


@lru_cache(maxsize=1)
def formula_pool():
    """Criterion-1 instance family: exhaustive members plus seeded randoms."""
    pool = list(full_family(2, 2))
    rng = random.Random(SEED)
    for _ in range(NUM_RANDOM_FORMULAS):
        p = rng.randint(0, 2)
        n = rng.randint(0, 2)
        if p + n == 0:
            n = 1
        pool.append(random_formula(rng, p, n, max_leaves=9))
    return pool


@lru_cache(maxsize=1)
def optimistic_results():
    """(formula, artifacts, report, truth) for the whole pool."""
    results = []
    for formula in formula_pool():
        truth = 1 if qsat_oracle(formula) else 0
        art = compile_qsat_optimistic(formula)
        report = solve_robust(art.instance, Mode.OPTIMISTIC)
        results.append((formula, art, report, truth))
    return results


def substituted_negation(formula, x_bits):
    """not f(x, .) over follower variables only, for the sat oracle.

    Leader variables become constant gadgets over one fresh follower
    variable, which leaves satisfiability untouched.
    """
    fresh = FollowerVar(formula.n + 1)
    true_node = Or(fresh, Not(fresh))
    false_node = And(fresh, Not(fresh))

    def walk(node):
        if isinstance(node, LeaderVar):
            return true_node if x_bits[node.index - 1] else false_node
        if isinstance(node, FollowerVar):
            return node
        if isinstance(node, Not):
            return Not(walk(node.child))
        if isinstance(node, And):
            return And(walk(node.left), walk(node.right))
        return Or(walk(node.left), walk(node.right))

    return Formula(Not(walk(formula.root)), 0, formula.n + 1)


def test_criterion_1_qsat_reduction_optimistic():
    mismatches = []
    for formula, art, report, truth in optimistic_results():
        if report.value != truth:
            mismatches.append((formula_to_text(formula), report.value, truth))
    assert not mismatches, mismatches
    count = len(optimistic_results())
    print(f"\nACCEPTANCE 1: PASS - optimistic reduction exact on {count} "
          f"formulas (exhaustive family + {NUM_RANDOM_FORMULAS} random)")


def test_criterion_2_qsat_reduction_pessimistic():
    mismatches = []
    pool = formula_pool()
    for formula in pool:
        truth = 1 if qsat_oracle(formula) else 0
        art = compile_qsat_pessimistic(formula)
        value = solve_robust(art.instance, Mode.PESSIMISTIC).value
        if value != truth:
            mismatches.append((formula_to_text(formula), value, truth))
    assert not mismatches, mismatches

    # Deviation gadget: any scenario with an interior coefficient pins
    # (y_i, ydev_i) to (1/2, 1/2) and costs the adversary at least M/2.
    sampled = [f for f in pool if f.n >= 1][:20]
    assert len(sampled) == 20
    for formula in sampled:
        art = compile_qsat_pessimistic(formula)
        inst = art.instance
        scenario = [ZERO] * inst.n
        interior = []
        for i in range(formula.n):
            scenario[i] = ZERO if i % 2 == 0 else F(1, 2)
            interior.append(i)
        for i in range(formula.n):
            scenario[art.column_of(f"ydev{i + 1}")] = ONE
        for x_bits in itertools.product((0, 1), repeat=formula.p):
            x = tuple(F(b) for b in x_bits)
            for mode in Mode:
                y, value = follower_response(inst, x, scenario, mode)
                for i in interior:
                    assert y[i] == F(1, 2)
                    assert y[art.column_of(f"ydev{i + 1}")] == F(1, 2)
                assert value >= art.big_m / 2
    print(f"\nACCEPTANCE 2: PASS - pessimistic reduction exact on "
          f"{len(pool)} formulas; half-half deviation points verified on "
          f"{len(sampled)} instances")


def test_criterion_3_leader_relaxation():
    checked = 0
    sampled = 0
    for formula, art, report, truth in optimistic_results():
        relaxed = relax_leader(art)
        value = solve_robust(relaxed.instance, Mode.OPTIMISTIC).value
        assert value == report.value, formula_to_text(formula)
        checked += 1
        if formula.p >= 1:
            witness = spot_check_relaxed(
                relaxed.instance, value, Mode.OPTIMISTIC,
                seed=SEED + checked)
            assert witness is None, (formula_to_text(formula), witness)
            sampled += 1
    print(f"\nACCEPTANCE 3: PASS - relaxation preserves all {checked} "
          f"values; 100 fractional samples per instance on {sampled} "
          f"instances never beat the binary optimum")


def test_criterion_4_adversary_complement_of_sat():
    checked = 0
    for formula, art, report, truth in optimistic_results():
        for x, adversary_value in report.trace:
            x_bits = tuple(int(b) for b in x)
            tautology = not sat_oracle(substituted_negation(formula, x_bits))
            assert adversary_value == (1 if tautology else 0), \
                (formula_to_text(formula), x_bits, adversary_value)
            checked += 1
    print(f"\nACCEPTANCE 4: PASS - adversary value matched the "
          f"complement-of-sat oracle on {checked} (formula, x) pairs")


def test_criterion_5_single_level_embedding():
    rng = random.Random(SEED + 5)
    for case in range(100):
        p = rng.randint(1, 4)
        codes = list(range(2 ** p))
        rng.shuffle(codes)
        chosen = sorted(codes[:rng.randint(1, min(6, len(codes)))])
        x_set = [tuple((code >> i) & 1 for i in range(p)) for code in chosen]
        scenarios = [tuple(F(rng.randint(-12, 12), 4) for _ in range(p))
                     for _ in range(rng.randint(1, 3))]
        want = robust_single_level_oracle(x_set, scenarios)
        art = compile_single_level_robust(x_set, scenarios)
        optimistic = solve_robust(art.instance, Mode.OPTIMISTIC).value
        pessimistic = solve_robust(art.instance, Mode.PESSIMISTIC).value
        assert optimistic == want, (case, x_set, scenarios)
        assert pessimistic == want, (case, x_set, scenarios)
    print("\nACCEPTANCE 5: PASS - single-level embedding matched the "
          "enumeration oracle on 100 seeded cases, both conventions")


def _random_discrete_instance(rng):
    n = rng.randint(1, 3)
    p = rng.randint(0, 3)
    rows, leader_rows, rhs = [], [], []
    for i in range(n):
        row = [ZERO] * n
        row[i] = ONE
        rows.append(list(row))
        leader_rows.append([ZERO] * p)
        rhs.append(F(rng.randint(1, 3)))
        rows.append([-c for c in row])
        leader_rows.append([ZERO] * p)
        rhs.append(F(rng.randint(0, 1)))
    anchor = [F(rng.randint(0, 2), 2) for _ in range(n)]
    while len(rows) < 6:
        coeffs = [F(rng.randint(-2, 2)) for _ in range(n)]
        if not any(coeffs):
            continue
        leader = [F(rng.randint(-1, 1)) for _ in range(p)]
        worst_shift = sum(min(ZERO, l) for l in leader)
        rows.append(coeffs)
        leader_rows.append(leader)
        rhs.append(dot(coeffs, anchor) + F(rng.randint(0, 4), 2) - worst_shift)
    scenarios = tuple(tuple(F(rng.randint(-6, 6), 2) for _ in range(n))
                      for _ in range(rng.randint(1, 4)))
    return RobustBilevelInstance(
        p=p, n=n, lhs=tuple(tuple(r) for r in rows),
        leader_mat=tuple(tuple(r) for r in leader_rows), rhs=tuple(rhs),
        leader_obj=tuple(F(rng.randint(-4, 4), 2) for _ in range(n)),
        leader_set=AllBinary(p), uncertainty=DiscreteSet(scenarios))


def test_criterion_6_discrete_enumeration_and_scaling():
    rng = random.Random(SEED + 6)
    for case in range(100):
        inst = _random_discrete_instance(rng)
        for mode in Mode:
            verdict = cross_validate(inst, mode,
                                     Reference.DISCRETE_ENUMERATION)
            assert verdict.agree, (case, mode, verdict.witness)

    # Linear scaling: the doubled list repeats every scenario, so the
    # adversary must certify exactly twice as many optimal LPs.
    rng = random.Random(SEED + 66)
    base = None
    while base is None or len(base.uncertainty.scenarios) < 4:
        base = _random_discrete_instance(rng)
    doubled = RobustBilevelInstance(
        p=base.p, n=base.n, lhs=base.lhs, leader_mat=base.leader_mat,
        rhs=base.rhs, leader_obj=base.leader_obj, leader_set=base.leader_set,
        uncertainty=DiscreteSet(base.uncertainty.scenarios * 2))
    x = tuple(F(0) for _ in range(base.p))

    def lp_work(inst):
        before = CERT_LOG.optimal_solves
        adversary_geometric(inst, x, Mode.OPTIMISTIC)
        return CERT_LOG.optimal_solves - before

    single = lp_work(base)
    double = lp_work(doubled)
    assert single > 0 and double == 2 * single, (single, double)
    print(f"\nACCEPTANCE 6: PASS - 100 discrete instances matched the "
          f"independent enumeration in both modes; doubling |U| doubled "
          f"the adversary's certified LPs ({single} -> {double})")


def test_criterion_7_box_to_simplex_preserves_values():
    checked = 0
    for formula, art, report, truth in optimistic_results():
        simplex = box_to_simplex(art)
        value = solve_robust(simplex.instance, Mode.OPTIMISTIC).value
        assert value == report.value, formula_to_text(formula)
        checked += 1
    print(f"\nACCEPTANCE 7: PASS - simplex hull swap preserved the exact "
          f"value on all {checked} instances")


def test_criterion_8_lp_certificates_and_lex_consistency():
    # The running suites above route every LP through the certificate
    # check; seed a couple of fresh solves in case this test runs alone.
    square = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
    cases = [
        (square, (F(1), F(2)), (F(-1), F(1))),
        (square, (F(0), F(0)), (F(1), F(1))),
        (Polyhedron([[1, 1], [-1, 0], [0, -1]], [1, 0, 0]),
         (F(1), F(1)), (F(1), F(0))),
        (Polyhedron([[1], [-1]], [1, 0]), (F(3),), (F(-1),)),
    ]
    for poly, primary, secondary in cases:
        plain = solve_lp(poly, primary, Sense.MAX)
        lex = solve_lex_lp(poly, primary, Sense.MAX, secondary, Sense.MAX)
        assert lex.primary_value == plain.value
    assert CERT_LOG.optimal_solves > 0
    assert CERT_LOG.failures == 0
    assert CERT_LOG.verified == CERT_LOG.optimal_solves
    print(f"\nACCEPTANCE 8: PASS - {CERT_LOG.verified} optimal LP solves, "
          f"every one carried an exact verified dual certificate; "
          f"lexicographic primaries matched plain solves")


def test_criterion_9_face_fixtures_and_exposure_round_trip():
    fixtures = [
        (Polyhedron([[1], [-1]], [1, 0]), 3,
         Interval((F(-2),), (F(2),))),
        (Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0]), 9,
         Interval((F(-2), F(-2)), (F(2), F(2)))),
        (Polyhedron([[1, 1], [-1, 0], [0, -1]], [1, 0, 0]), 7,
         Interval((F(-2), F(-2)), (F(2), F(2)))),
    ]
    exposed_total = 0
    for poly, expected_count, box in fixtures:
        vset = geometry.enumerate_vertices(poly)
        faces = geometry.enumerate_faces(poly, vset)
        assert len(faces) == expected_count
        for face in faces:
            cert = geometry.exposure_check(face, vset,
                                           box.shadow().directions)
            if cert is None:
                continue
            assert geometry.argmax_vertices(vset, cert.c) \
                == face.vertex_indices
            exposed_total += 1
    assert exposed_total > 0
    print(f"\nACCEPTANCE 9: PASS - fixtures produced 3/9/7 faces and "
          f"{exposed_total} exposure certificates round-tripped through "
          f"the argmax check")
