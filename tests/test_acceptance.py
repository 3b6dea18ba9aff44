"""Acceptance suite: oracle-equivalence sweeps at desk scale.

Every comparison is exact rational equality (zero tolerance).  Each
criterion prints one PASS line on success; a failed assertion marks the
criterion failed.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from rbo import geometry
from rbo.bilevel import (
    AllBinary,
    Mode,
    RobustBilevelInstance,
    adversary_geometric,
    follower_response,
    solve_robust,
)
from rbo.compiler import (
    And,
    FollowerVar,
    Formula,
    LeaderVar,
    Not,
    Or,
    compile_qsat_optimistic,
    compile_qsat_pessimistic,
    formula_to_text,
    random_formula,
    relax_leader,
)
from rbo.lp import CERT_LOG, Polyhedron, Sense
from rbo.numeric import ONE, ZERO, dot
from rbo.oracle import (
    cross_validate,
    qsat_oracle,
    robust_single_level_oracle,
    sat_oracle,
)
from rbo.uncertainty import CapExceededError, DiscreteSet, Interval
from reference_faces import enumerate_faces, exposure_check, undominated
from helpers import (fractions, int_rows, solve, solve_lex,
                     spot_check_relaxed, vertices)
from test_geometry import argmax_vertices
import report_ledger

SEED = report_ledger.SEED
NUM_RANDOM_FORMULAS = report_ledger.NUM_RANDOM_FORMULAS
formula_pool = report_ledger.formula_pool


def _cert_counts() -> tuple:
    return CERT_LOG.optimal_solves, CERT_LOG.verified, CERT_LOG.failures


@pytest.fixture(autouse=True)
def certified():
    """Each acceptance test's own LP solves all carry verified
    certificates: the CERT_LOG counts it adds show no failure and every
    optimal solve verified.  The test may read those counts so far
    (solves, verified, failures) by calling the fixture's value.  Deltas
    keep this independent of the tests run before, some of which
    provoke certificate failures on purpose."""
    before = _cert_counts()

    def added():
        return tuple([now - then for now, then in zip(_cert_counts(), before)])

    yield added
    solves, verified, failures = added()
    assert failures == 0 and verified == solves, added()


@lru_cache(maxsize=1)
def optimistic_results():
    """(formula, artifacts, report, truth) for the whole pool; the reports
    are the ledger's."""
    pool = report_ledger.solve_all()[0]
    return [(formula, compile_qsat_optimistic(formula),
             reports["optimistic", "plain", "optimistic"],
             1 if qsat_oracle(formula) else 0)
            for formula, reports in zip(formula_pool(), pool)]


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
    for formula, reports in zip(pool, report_ledger.solve_all()[0]):
        truth = 1 if qsat_oracle(formula) else 0
        value = reports["pessimistic", "plain", "pessimistic"].value
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
            scenario[art.var_map.index(f"ydev{i + 1}")] = ONE
        for x_bits in itertools.product((0, 1), repeat=formula.p):
            x = tuple(F(b) for b in x_bits)
            for mode in Mode:
                y, value = follower_response(inst, x, scenario, mode)
                for i in interior:
                    assert y[i] == F(1, 2)
                    assert y[art.var_map.index(f"ydev{i + 1}")] == F(1, 2)
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
    cases = report_ledger.single_level_cases()
    for case, ((x_set, scenarios), reports) in enumerate(
            zip(cases, report_ledger.solve_all()[1])):
        want = robust_single_level_oracle(x_set, scenarios)
        for mode in Mode:
            assert reports[mode.value].value == want, \
                (case, mode, x_set, scenarios)
    print(f"\nACCEPTANCE 5: PASS - single-level embedding matched the "
          f"enumeration oracle on {len(cases)} seeded cases, both "
          f"conventions")


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
        p=p, n=n, rows=int_rows(rows, leader_rows, rhs),
        leader_obj=tuple(F(rng.randint(-4, 4), 2) for _ in range(n)),
        leader_set=AllBinary(), uncertainty=DiscreteSet(scenarios))


def test_criterion_6_discrete_enumeration_and_scaling():
    rng = random.Random(SEED + 6)
    for case in range(100):
        inst = _random_discrete_instance(rng)
        for mode in Mode:
            verdict = cross_validate(inst, mode)
            assert verdict.agree, (case, mode, verdict.witness)

    # Linear scaling: the doubled list repeats every scenario, so the
    # adversary must certify exactly twice as many optimal LPs.
    rng = random.Random(SEED + 66)
    base = None
    while base is None or len(base.uncertainty.scenarios) < 4:
        base = _random_discrete_instance(rng)
    doubled = RobustBilevelInstance(
        p=base.p, n=base.n, rows=base.rows, leader_obj=base.leader_obj,
        leader_set=base.leader_set,
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
    pool = report_ledger.solve_all()[0]
    for (formula, _, report, _), reports in zip(optimistic_results(), pool):
        value = reports["optimistic", "simplex", "optimistic"].value
        assert value == report.value, formula_to_text(formula)
        checked += 1
    print(f"\nACCEPTANCE 7: PASS - simplex hull swap preserved the exact "
          f"value on all {checked} instances")


def test_criterion_8_lp_certificates_and_lex_consistency(certified):
    # Every acceptance test's LPs go through the certificate check (the
    # `certified` fixture); these solves are criterion 8's own.
    square = Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
    cases = [
        (square, (F(1), F(2)), (F(-1), F(1))),
        (square, (F(0), F(0)), (F(1), F(1))),
        (Polyhedron([[1, 1], [-1, 0], [0, -1]], [1, 0, 0]),
         (F(1), F(1)), (F(1), F(0))),
        (Polyhedron([[1], [-1]], [1, 0]), (F(3),), (F(-1),)),
    ]
    for poly, primary, secondary in cases:
        plain = solve(poly, primary, Sense.MAX)
        point, _ = solve_lex(poly, primary, Sense.MAX, secondary, Sense.MAX)
        assert dot(primary, point) == plain.value
    solves, verified, failures = certified()
    assert solves > 0 and failures == 0 and verified == solves
    print(f"\nACCEPTANCE 8: PASS - {verified} optimal LP solves, "
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
        tights = vertices(poly)
        verts = tuple(tights)
        faces = enumerate_faces(tights.values())
        assert len(faces) == expected_count
        exposed = []
        for face in faces:
            s = exposure_check(face, verts, box.shadow().directions)
            if s is None:
                continue
            assert argmax_vertices(verts, s) == face
            exposed.append(face)
        for upward in (True, False):
            faces = geometry.exposed_faces(
                tuple(geometry.enumerate_vertices(poly)),
                box.shadow().directions, upward)
            assert list(faces) == undominated(exposed, upward)
            for face, (w, d) in faces.items():
                s = fractions(w, d)
                assert box.shadow().directions.contains(s)
                assert argmax_vertices(verts, s) == face
        exposed_total += len(exposed)
    assert exposed_total > 0
    print(f"\nACCEPTANCE 9: PASS - fixtures produced 3/9/7 faces and "
          f"{exposed_total} exposure certificates round-tripped through "
          f"the argmax check")


def test_reports_match_the_ledger():
    # The pool's and criterion 5's 2,312 reports, by `repr`, against the
    # digests in report_ledger.json; a deliberate change re-pins it with
    # `PYTHONPATH=src python tests/report_ledger.py`.
    pinned = json.loads(report_ledger.LEDGER.read_text(encoding="utf-8"))
    current = report_ledger.ledger(*report_ledger.solve_all())
    assert current["failures"] == 0
    assert not report_ledger.moved(pinned, current), \
        report_ledger.moved(pinned, current)
    print(f"\nLEDGER: PASS - {current['reports']} reports and "
          f"{current['certified']} certified LPs as pinned")


def test_qsat_ladder_past_the_pool():
    # The paper's hard case past the pool's n <= 2: the first
    # random_formula draw of Random(7) for p = 2 and each n = 3..6, in
    # each compile's own mode.  The pessimistic shadow has n + 1
    # dimensions, and every case solves to the oracle's value; none is
    # refused at a work cap.  At the frontier the optimistic compile
    # solves n = 7, whose Q has 2,188 vertices, and refuses n = 8 at
    # geometry.CAP; CI runs the slower pessimistic n = 7 and n = 8.
    def draw(n):
        return random_formula(random.Random(7), 2, n, max_leaves=12)

    for n in range(3, 7):
        formula = draw(n)
        truth = 1 if qsat_oracle(formula) else 0
        for compile_qsat, mode in ((compile_qsat_optimistic, Mode.OPTIMISTIC),
                                   (compile_qsat_pessimistic,
                                    Mode.PESSIMISTIC)):
            report = solve_robust(compile_qsat(formula).instance, mode)
            assert report.value == truth, (n, mode)
    formula = draw(7)
    report = solve_robust(compile_qsat_optimistic(formula).instance,
                          Mode.OPTIMISTIC)
    assert report.value == (1 if qsat_oracle(formula) else 0) == 1
    with pytest.raises(CapExceededError, match=f"{geometry.CAP} rays"):
        solve_robust(compile_qsat_optimistic(draw(8)).instance,
                     Mode.OPTIMISTIC)
    print("\nLADDER: PASS - p = 2, n = 3..6 solved in both compiles, "
          "n = 7 in the optimistic one, each equal to the QSAT oracle; "
          "n = 8 refused at the cap")
