import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rbo import bilevel, geometry, lp
from rbo.bilevel import (
    AllBinary,
    ExplicitList,
    InstanceError,
    Mode,
    RelaxedBox,
    RobustBilevelInstance,
    adversary_geometric,
    follower_response,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    solve_robust,
    validate_instance,
)
from rbo.cli import main
from rbo.compiler import (
    FollowerVar,
    Formula,
    box_to_simplex,
    compile_qsat_optimistic,
    compile_qsat_pessimistic,
    compile_single_level_robust,
    parse_formula,
    relax_leader,
)
from rbo.lp import CERT_LOG
from rbo.numeric import ONE, ZERO, dot, integer_scaled
from rbo.uncertainty import (
    ConvexHull,
    DiscreteSet,
    Interval,
    ProductFinite,
    Shadow,
)
from helpers import (
    fractions,
    int_rows,
    polyhedron,
    rational_rows,
    spot_check_relaxed,
    vertices,
)
from reference_faces import enumerate_faces, exposure_check
from test_geometry import argmax_vertices
from test_lp import _rationals, small_polytopes


def segment_instance(uncertainty, mode=Mode.OPTIMISTIC):
    """p = 0, follower set [0, 1], leader objective d = y."""
    return RobustBilevelInstance(
        p=0, n=1, rows=int_rows(((ONE,), (-ONE,)), ((), ()), (ONE, ZERO)),
        leader_obj=(ONE,), leader_set=AllBinary(),
        uncertainty=uncertainty, mode_default=mode)


BOX = Interval((F(-1),), (F(1),))


def solve_one_scenario(inst, c, mode):
    """The leader optimum for one fixed scenario c: a one-scenario set."""
    return solve_robust(replace(inst, uncertainty=DiscreteSet((c,))), mode)


def test_follower_aligned_objective():
    inst = segment_instance(BOX)
    for mode in Mode:
        y, value = follower_response(inst, (), (F(1),), mode)
        assert y == (F(1),) and value == 1


def test_follower_full_face_tie():
    inst = segment_instance(BOX)
    _, value = follower_response(inst, (), (F(0),), Mode.OPTIMISTIC)
    assert value == 1
    _, value = follower_response(inst, (), (F(0),), Mode.PESSIMISTIC)
    assert value == 0


def test_follower_pessimistic_gadget_half_half():
    art = compile_qsat_pessimistic(Formula(FollowerVar(1), 0, 1))
    inst = art.instance
    c = [ZERO] * inst.n
    c[art.var_map.index("ydev1")] = ONE
    for mode in Mode:
        y, value = follower_response(inst, (), c, mode)
        assert y[art.var_map.index("y1")] == F(1, 2)
        assert y[art.var_map.index("ydev1")] == F(1, 2)
        assert value >= art.big_m / 2


def test_adversary_discrete_examples():
    inst = segment_instance(DiscreteSet(((F(1),), (F(-1),))))
    c, value = adversary_geometric(inst, (), Mode.OPTIMISTIC)
    assert value == 0 and c == (F(-1),)
    inst = segment_instance(DiscreteSet(((F(1),),)))
    assert adversary_geometric(inst, (), Mode.OPTIMISTIC)[1] == 1
    inst = segment_instance(DiscreteSet(((F(0),),)))
    assert adversary_geometric(inst, (), Mode.PESSIMISTIC)[1] == 0


def test_adversary_geometric_examples():
    inst = segment_instance(BOX)
    c, value = adversary_geometric(inst, (), Mode.OPTIMISTIC)
    assert value == 0 and c == (F(-1),)
    inst = segment_instance(Interval((F(1),), (F(2),)))
    for mode in Mode:
        _, value = adversary_geometric(inst, (), mode)
        assert value == 1


def test_adversary_geometric_qsat_witness():
    # For a yes-instance's witness x the adversary cannot push below 1.
    formula = parse_formula("(or x1 y1)", 1, 1)
    inst = compile_qsat_optimistic(formula).instance
    _, value = adversary_geometric(inst, (F(1),), Mode.OPTIMISTIC)
    assert value == 1
    _, value = adversary_geometric(inst, (F(0),), Mode.OPTIMISTIC)
    assert value == 0


def test_adversary_product_finite():
    inst = segment_instance(ProductFinite(((F(-1), F(1)),)))
    c, value = adversary_geometric(inst, (), Mode.OPTIMISTIC)
    assert value == 0 and c == (F(-1),)


def test_adversary_product_cap():
    # A 2^13 grid, twice uncertainty.MAX_SCENARIOS.
    grid = ProductFinite((tuple([F(k) for k in range(2 ** 13)]),))
    with pytest.raises(geometry.CapExceededError, match="8192"):
        adversary_geometric(segment_instance(grid), (), Mode.OPTIMISTIC)


def test_adversary_hull():
    inst = segment_instance(ConvexHull(((F(-1),), (F(1),))))
    _, value = adversary_geometric(inst, (), Mode.OPTIMISTIC)
    assert value == 0


def test_single_scenario_kinds_agree():
    # A box with no free coordinate, a one-point hull and a hull whose
    # points coincide hold a single scenario; each must solve exactly
    # like the one-scenario DiscreteSet.
    inst = compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1)).instance
    for c in (inst.uncertainty.lower, (ZERO, ZERO)):
        for mode in Mode:
            reports = [solve_robust(replace(inst, uncertainty=unc), mode)
                       for unc in (Interval(c, c), ConvexHull((c,)),
                                   ConvexHull((c, c)), DiscreteSet((c,)))]
            assert reports[0] == reports[1] == reports[2] == reports[3]


def test_solve_certain_examples():
    inst = segment_instance(Interval((F(1),), (F(1),)))
    report = solve_one_scenario(inst, (F(1),), Mode.OPTIMISTIC)
    assert report.value == 1
    sat = parse_formula("(or x1 (not x1))", 1, 0)
    art = compile_qsat_optimistic(sat)
    c = tuple(art.instance.uncertainty.lower)
    assert solve_one_scenario(art.instance, c, Mode.OPTIMISTIC).value == 1
    unsat = parse_formula("(and x1 (not x1))", 1, 0)
    art = compile_qsat_optimistic(unsat)
    c = tuple(art.instance.uncertainty.lower)
    assert solve_one_scenario(art.instance, c, Mode.OPTIMISTIC).value == 0


def test_solve_robust_qsat_examples():
    yes = parse_formula("(or x1 y1)", 1, 1)
    report = solve_robust(compile_qsat_optimistic(yes).instance,
                          Mode.OPTIMISTIC)
    assert report.value == 1 and report.leader_x == (F(1),)
    no = Formula(FollowerVar(1), 0, 1)
    assert solve_robust(compile_qsat_optimistic(no).instance,
                        Mode.OPTIMISTIC).value == 0


def test_solve_report_consistency():
    inst = segment_instance(BOX)
    report = solve_robust(inst, Mode.OPTIMISTIC)
    assert report.value == dot(inst.leader_obj, report.follower_y)
    assert len(report.trace) == 1
    assert inst.uncertainty.contains(report.worst_scenario)


def test_leader_tie_break_lexicographic():
    # Both leader choices give value 0; the report must pick x = (0,).
    inst = RobustBilevelInstance(
        p=1, n=1,
        rows=int_rows(((ONE,), (-ONE,)), ((ZERO,), (ZERO,)), (ONE, ZERO)),
        leader_obj=(ONE,), leader_set=AllBinary(),
        uncertainty=DiscreteSet(((F(-1),),)))
    report = solve_robust(inst, Mode.OPTIMISTIC)
    assert report.leader_x == (F(0),)


def test_optimistic_dominates_pessimistic():
    instances = [
        segment_instance(BOX),
        compile_qsat_optimistic(parse_formula("(or y1 y2)", 0, 2)).instance,
    ]
    scenarios = [(F(0),), (F(1),), (F(-1),)]
    for inst in instances:
        for x in inst.leader_set.candidates(inst.p):
            for c in scenarios:
                full = list(c) + [ZERO] * (inst.n - 1)
                _, opt = follower_response(inst, x, full, Mode.OPTIMISTIC)
                _, pes = follower_response(inst, x, full, Mode.PESSIMISTIC)
                assert opt >= pes


def test_discrete_superset_monotonicity():
    small = DiscreteSet(((F(1),),))
    large = DiscreteSet(((F(1),), (F(-1),)))
    v_small = solve_robust(segment_instance(small), Mode.OPTIMISTIC).value
    v_large = solve_robust(segment_instance(large), Mode.OPTIMISTIC).value
    assert v_large <= v_small


def test_robust_never_beats_certain():
    inst = segment_instance(BOX)
    robust = solve_robust(inst, Mode.OPTIMISTIC).value
    for c in ((F(-1),), (F(0),), (F(1),), (F(1, 2),)):
        assert robust <= solve_one_scenario(inst, c, Mode.OPTIMISTIC).value


def test_box_vertex_discretization_on_compiled():
    # On compiled instances the box adversary needs only corner scenarios.
    for text, p, n in (("(or x1 y1)", 1, 1), ("(and y1 (not y2))", 0, 2)):
        art = compile_qsat_optimistic(parse_formula(text, p, n))
        inst = art.instance
        corners = DiscreteSet(inst.uncertainty.corner_samples())
        twin = RobustBilevelInstance(
            p=inst.p, n=inst.n, rows=inst.rows, leader_obj=inst.leader_obj,
            leader_set=inst.leader_set, uncertainty=corners)
        for mode in Mode:
            assert (solve_robust(inst, mode).value
                    == solve_robust(twin, mode).value)


LATTICE_SQUARE = RobustBilevelInstance(
    p=0, n=2,
    rows=int_rows(
        ((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE), (ONE, ONE)),
        ((), (), (), (), ()), (ONE, ONE, ZERO, ZERO, F(3, 2))),
    leader_obj=(F(2), F(-1)), leader_set=AllBinary(),
    uncertainty=Interval((F(-1), F(0)), (F(1), F(1))))


@st.composite
def shadow_instances(draw):
    """A bounded Y from `small_polytopes`, a leader objective, and a box
    with a free coordinate or a hull of two or three points, both in the
    dimension of Y; the leader set is {()}."""
    poly, _, _ = draw(small_polytopes())
    n = poly.dim
    entries = st.lists(_rationals(-2, 2), min_size=n, max_size=n)
    if draw(st.booleans()):
        lower = draw(entries)
        upper = [lo + draw(_rationals(0, 2)) for lo in lower]
        upper[0] = lower[0] + draw(_rationals(1, 2))
        unc = Interval(lower, upper)
    else:
        unc = ConvexHull(draw(st.lists(entries, min_size=2, max_size=3)))
    a, rhs = rational_rows(poly)
    return RobustBilevelInstance(
        p=0, n=n, rows=int_rows(a, ((),) * poly.num_rows, rhs),
        leader_obj=draw(entries), leader_set=AllBinary(),
        uncertainty=unc)


def direct_face_lattice(inst, mode):
    """The adversary's value from the exposable faces of Y itself: a face
    is exposable when some s in D gives c = L·s with exactly that face as
    c's argmax over Y, and its outcome is the best (optimistic) or worst
    (pessimistic) leader score over its vertices."""
    tights = vertices(inst.follower_polyhedron(()))
    verts = tuple(tights)
    shadow = inst.uncertainty.shadow()
    images = tuple([tuple([dot(col, v) for col in shadow.columns])
                    for v in verts])
    best = None
    for face in enumerate_faces(tights.values()):
        if exposure_check(face, images, shadow.directions) is None:
            continue
        scores = [dot(inst.leader_obj, verts[i]) for i in face]
        outcome = max(scores) if mode is Mode.OPTIMISTIC else min(scores)
        if best is None or outcome < best:
            best = outcome
    return best


def unpruned_shadow_scan(inst, mode):
    """(face, value) of the first minimum over every exposable shadow
    face, from the vertices up (optimistic) or from the whole shadow down
    (pessimistic), with no face skipped; each face's direction comes from
    an exposure LP."""
    shadow = inst.uncertainty.shadow()
    image = geometry.project_polytope(inst.follower_polyhedron(()),
                                      shadow.columns)
    tights = vertices(image)
    verts = tuple(tights)
    faces = enumerate_faces(tights.values())
    if mode is Mode.PESSIMISTIC:
        faces.reverse()
    best = None
    for face in faces:
        s = exposure_check(face, verts, shadow.directions)
        if s is None:
            continue
        c = shadow.scenario(s, 1)
        _, value = follower_response(inst, (), c, mode)
        if best is None or value < best[1]:
            best = (face, value)
    return best


def scenario_face(inst, c):
    """The shadow face a scenario c = L·s exposes: as c·y = s·(Lᵀ·y), it
    holds the shadow vertices whose preimages among Y's vertices score
    highest under c."""
    poly = inst.follower_polyhedron(())
    columns = inst.uncertainty.shadow().columns
    score = {tuple([dot(col, y) for col in columns]): dot(c, y)
             for y in vertices(poly)}
    verts = vertices(geometry.project_polytope(poly, columns))
    return argmax_vertices([(score[w],) for w in verts], (ONE,))


def check_against_references(inst):
    """The pruned shadow adversary agrees with the direct computation on
    the face lattice of Y(x), which no projection or pruning touches,
    and its scenario exposes the first minimum face of the unpruned scan
    of the shadow under all q columns of L."""
    for mode in Mode:
        c, value = adversary_geometric(inst, (), mode)
        assert value == direct_face_lattice(inst, mode)
        assert (scenario_face(inst, c), value) \
            == unpruned_shadow_scan(inst, mode)


@given(shadow_instances())
@example(LATTICE_SQUARE)
@settings(max_examples=40, deadline=None)
def test_geometric_matches_direct_face_lattice(inst):
    check_against_references(inst)


@st.composite
def dependent_hull_instances(draw):
    """`shadow_instances` with a hull of linearly dependent points, not
    all equal: n + 1 points in R^n, or one or two points plus a copy of
    the first or the zero point."""
    inst = draw(shadow_instances())
    n = inst.n
    entries = st.lists(_rationals(-2, 2), min_size=n, max_size=n).map(tuple)
    extra = draw(st.sampled_from(["spanning", "repeated", "zero"]))
    if extra == "spanning":
        points = draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
    else:
        points = draw(st.lists(entries, min_size=1, max_size=2))
        points.insert(draw(st.integers(0, len(points))),
                      points[0] if extra == "repeated" else (ZERO,) * n)
    assume(len(set(points)) > 1)
    return replace(inst, uncertainty=ConvexHull(points))


@given(dependent_hull_instances())
@settings(max_examples=40, deadline=None)
def test_dependent_hull_matches_direct_face_lattice(inst):
    # The shadow is flat: its q coordinates are linearly dependent.
    check_against_references(inst)


# Y(x) is the single point (-1, 1, -2, -2), held by a box of width 0 in
# every coordinate plus three slack rows, under a hull of five points.
# Its projection stays within the 4,000-row cap only through
# substitution along the box's equality pairs: pairwise elimination alone
# reaches 4,786 rows.
POINT_Y = json.loads("""{"p": 0, "n": 4,
  "A": [["1","0","0","0"],["-1","0","0","0"],["0","1","0","0"],
        ["0","-1","0","0"],["0","0","1","0"],["0","0","-1","0"],
        ["0","0","0","1"],["0","0","0","-1"],["-1","1","-3","0"],
        ["-2","1","-11/4","-2"],["1","-11/4","-3","-1"]],
  "B": [[],[],[],[],[],[],[],[],[],[],[]],
  "b": ["-1","1","1","-1","-2","2","-2","2","9","29/2","21/4"],
  "d": ["-2","-1/3","1","3/2"], "leader_set": {"kind": "all_binary"},
  "uncertainty": {"kind": "convex_hull", "points": [
    ["2","2/3","-3/2","1/2"],["2","2","2","3/2"],["1/2","3/2","-2/3","-1"],
    ["-3/2","2/3","1/2","1/4"],["-2","-3/4","-4/3","5/4"]]}}""")


def test_point_follower_set_projects_to_a_point():
    inst, _ = instance_from_json(POINT_Y)
    shadow = geometry.project_polytope(inst.follower_polyhedron(()),
                                       inst.uncertainty.shadow().columns)
    assert len(geometry.enumerate_vertices(shadow)) == 1
    for mode in Mode:
        assert solve_robust(inst, mode).value == F(-10, 3)
    check_against_references(inst)


# The unit square, whose sorted vertices are (0, 0), (0, 1), (1, 0) and
# (1, 1), under the box [-1, 1]^2: the shadow is the square itself.
SQUARE_IN_A_BOX = RobustBilevelInstance(
    p=0, n=2,
    rows=int_rows(((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE)),
                  ((), (), (), ()), (ONE, ONE, ZERO, ZERO)),
    leader_obj=(ONE, F(-1)), leader_set=AllBinary(),
    uncertainty=Interval((-ONE, -ONE), (ONE, ONE)))


def scans(inst, mode):
    """The directions of each of the mode's entries in `inst._scans`."""
    return [[wd for wd, _ in scan] for (m, _), scan in inst._scans.items()
            if m is mode]


def test_face_scan_skips_dominated_faces():
    # Every face of the square is exposable: the optimistic scan takes
    # the four vertices, and the pessimistic scan only the whole square,
    # which s = 0 exposes.
    inst = replace(SQUARE_IN_A_BOX)
    verts = tuple(vertices(inst.follower_polyhedron(())))
    adversary_geometric(inst, (), Mode.OPTIMISTIC)
    [taken] = scans(inst, Mode.OPTIMISTIC)
    assert [argmax_vertices(verts, fractions(w, d)) for w, d in taken] \
        == [frozenset([i]) for i in range(4)]
    adversary_geometric(inst, (), Mode.PESSIMISTIC)
    [taken] = scans(inst, Mode.PESSIMISTIC)
    assert [fractions(w, d) for w, d in taken] == [(ZERO, ZERO)]


@pytest.mark.parametrize("faces", [
    {frozenset([0]): ((1, 1), 1)},         # exposes (1, 1) instead
    {frozenset(range(4)): ((2, 0), 2)},    # exposes the right edge
    {frozenset([1, 3]): ((0, 4), 2)}])     # the top edge, from outside D
def test_face_scan_checks_each_direction(monkeypatch, faces):
    # A direction outside D, or whose argmax over the shadow's vertices
    # is not its face, breaks the scan's invariant.
    monkeypatch.setattr(geometry, "exposed_faces", lambda *args: faces)
    with pytest.raises(bilevel.SolverInvariantError, match="does not expose"):
        adversary_geometric(replace(SQUARE_IN_A_BOX), (), Mode.OPTIMISTIC)


# Y(x) = [0, 1]^2 plus the row y1 + y2 <= 3 + x1, redundant at both x1;
# x2's column is zero, so leaders pair up on Y(x).  The box [-1, 1]^2
# makes the shadow Y(x) itself: two elimination outputs, one pruned shadow.
SHARED_SHADOW = RobustBilevelInstance(
    p=2, n=2,
    rows=int_rows(
        ((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE), (ONE, ONE)),
        ((ZERO, ZERO),) * 4 + ((ONE, ZERO),), (ONE, ONE, ZERO, ZERO, F(3))),
    leader_obj=(ONE, F(-1)),
    leader_set=AllBinary(), uncertainty=Interval((-ONE, -ONE), (ONE, ONE)))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_memo_scans_each_distinct_shadow_once(monkeypatch):
    # Four leaders, two distinct Y(x), one shadow, the unit square, whose
    # two projections differ in a redundant row: the scan memo keys on a
    # projection's rows, so per mode each projection's vertices are
    # enumerated and its exposed faces found, from one more double
    # description, and each scan takes the faces of
    # test_face_scan_skips_dominated_faces.  The scenario L·s is built
    # in Fractions only for each distinct Y(x)'s reported direction.
    projected = _count_calls(monkeypatch, geometry, "project_polytope")
    enumerated = _count_calls(monkeypatch, geometry, "enumerate_vertices")
    exposed = _count_calls(monkeypatch, geometry, "exposed_faces")
    described = _count_calls(monkeypatch, geometry, "_double_description")
    taken = _count_calls(monkeypatch, Shadow, "scenario")
    for mode, faces in ((Mode.OPTIMISTIC, 4), (Mode.PESSIMISTIC, 1)):
        for calls in (projected, enumerated, exposed, described, taken):
            calls.clear()
        inst = replace(SHARED_SHADOW)
        solve_robust(inst, mode)
        assert len(projected) == 2 and len(inst._scans) == 2
        assert len(enumerated) == len(described) == 4
        assert len(exposed) == 2
        assert [len(scan) for scan in scans(inst, mode)] == [faces] * 2
        assert len(taken) == 2


def test_leaders_with_equal_rows_share_one_polyhedron(monkeypatch):
    # x2's column of B is zero, so (0, 0) and (0, 1) have one Y(x), and
    # (1, 0) and (1, 1) another: two polyhedra, two phase ones and two
    # adversary entries for four leaders.
    inst = replace(SHARED_SHADOW)
    phase_ones = _count_calls(monkeypatch, lp, "_phase_one")
    solve_robust(inst, Mode.OPTIMISTIC)
    first, second, third, fourth = [inst.follower_polyhedron(x) for x in
                                    inst.leader_set.candidates(inst.p)]
    assert first is second and third is fourth and first is not third
    assert [poly for poly, in phase_ones] == [first, third]
    assert list(inst._adversaries) == [(Mode.OPTIMISTIC, first),
                                       (Mode.OPTIMISTIC, third)]


def test_memo_enumerates_each_projection_once(monkeypatch):
    # Y(x) = {0 <= y1 <= 1, 0 <= y2 <= 1 + x1}: the two Y(x) differ, but
    # the box pins c2 to 0, so both project onto y1 as [0, 1], one set of
    # rows.  Two projections, one vertex enumeration of the shadow and
    # one of the epigraph of `exposed_faces`.
    inst = RobustBilevelInstance(
        p=1, n=2,
        rows=int_rows(((ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)),
                      ((ZERO,), (ZERO,), (ONE,), (ZERO,)),
                      (ONE, ZERO, ONE, ZERO)),
        leader_obj=(ONE, ONE), leader_set=AllBinary(),
        uncertainty=Interval((-ONE, ZERO), (ONE, ZERO)))
    projected = _count_calls(monkeypatch, geometry, "project_polytope")
    enumerated = _count_calls(monkeypatch, geometry, "enumerate_vertices")
    report = solve_robust(inst, Mode.OPTIMISTIC)
    assert inst.follower_polyhedron((ZERO,)) \
        is not inst.follower_polyhedron((ONE,))
    assert len(projected) == 2 and len(enumerated) == 2
    assert report.value == 2 and report.leader_x == (ONE,)


# Box and hull instances whose L has fractional entries, so the scan's
# common denominator λ exceeds 1, and compiled QSAT instances.
SCANNED = [
    replace(SQUARE_IN_A_BOX,
            uncertainty=Interval((F(-1, 2), F(1, 3)), (F(2, 3), F(1, 3)))),
    replace(SQUARE_IN_A_BOX, uncertainty=ConvexHull(
        ((F(1, 2), F(-1)), (F(-2, 3), F(1, 4)), (ZERO, F(3, 5))))),
    replace(SHARED_SHADOW, uncertainty=ConvexHull(
        ((F(1, 3), ONE), (F(-1), F(5, 6)), (F(1, 3), ONE)))),
    compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1)).instance,
    compile_qsat_pessimistic(parse_formula("(and x1 (not y1))", 1, 1))
    .instance,
    box_to_simplex(compile_qsat_optimistic(
        parse_formula("(or (not x1) y1)", 1, 1))).instance,
]


@pytest.mark.parametrize("inst", SCANNED, ids=range(len(SCANNED)))
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_scan_objectives_are_the_scaled_scenarios(inst, mode):
    # The scan scales each scenario L·s to ints straight from its
    # direction s = w / d, with no Fraction: the ints are those of
    # `scaled_objective(L·s)`, and the scenario reported is L·s of the
    # first direction whose outcome is least.
    inst = replace(inst)
    shadow = inst.uncertainty.shadow()
    for x in inst.leader_set.candidates(inst.p):
        c, value = adversary_geometric(inst, x, mode)
        poly = inst.follower_polyhedron(x)
        scan = inst._scans[
            (mode, geometry.project_polytope(poly, shadow.columns).rows)]
        for (w, d), obj in scan:
            assert obj == lp.scaled_objective(shadow.scenario(w, d),
                                              lp.Sense.MAX, inst.n)
        outcomes = [bilevel._respond(inst, poly, obj, mode)[1]
                    for _, obj in scan]
        assert c == shadow.scenario(*scan[outcomes.index(min(outcomes))][0])
        assert follower_response(inst, x, c, mode)[1] == value


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("distinct", [1, 2], ids=["one-y", "two-y"])
def test_memo_solves_each_finite_y_once(monkeypatch, distinct, size):
    # The paper's discrete case in counts: the adversary solves one
    # follower LP per scenario on each distinct Y(x), |U| x (distinct
    # Y(x)) in all, and the replay adds one.  Y(x) = {0 <= y <= 1 + s·x1}:
    # with s = 0 the two leaders share Y(x) through a zero column of B,
    # so the second leader's scenarios come from the memo; with s = 1
    # they do not.  The |U| scenarios are distinct, and for |U| > 1 some
    # are negative, which sends the follower to y = 0.
    scenarios = tuple([(F(2 * k + 1 - size, size),) for k in range(size)])
    inst = RobustBilevelInstance(
        p=1, n=1,
        rows=int_rows(((ONE,), (-ONE,)), ((F(distinct - 1),), (ZERO,)),
                      (ONE, ZERO)),
        leader_obj=(ONE,), leader_set=AllBinary(),
        uncertainty=DiscreteSet(scenarios))
    solved = _count_calls(monkeypatch, bilevel, "solve_lex_lp")
    report = solve_robust(inst, Mode.OPTIMISTIC)
    leaders = [x for x, _ in report.trace]
    assert len({inst.follower_polyhedron(x) for x in leaders}) == distinct
    if size > 1:
        assert [value for _, value in report.trace] == [ZERO, ZERO]
    assert len(solved) == size * distinct + 1


def _count_stage_ones(monkeypatch):
    """The costs of the tableau runs of a first stage, the only runs
    that may enter every slack column and no artificial one."""
    costs = []
    run = lp._Tableau.run

    def counted(self, cost, allowed):
        if allowed == range(self.n, self.n + self.m):
            costs.append(cost)
        return run(self, cost, allowed)

    monkeypatch.setattr(lp._Tableau, "run", counted)
    return costs


def test_one_tableau_per_leader_across_modes(monkeypatch):
    # Y(x) is one polyhedron for the instance's lifetime, so both modes'
    # scenario LPs and both replays start from one phase-one tableau, and
    # each scenario's first stage on Y(x) runs once for all of them.
    x_set = [(0, 1), (1, 0), (1, 1)]
    scenarios = [(1, -2), (F(1, 2), 3)]
    fresh = {mode: solve_robust(compile_single_level_robust(
        x_set, scenarios).instance, mode) for mode in Mode}
    built = _count_calls(monkeypatch, lp._Tableau, "__init__")
    solved = _count_calls(monkeypatch, bilevel, "solve_lex_lp")
    stage_ones = _count_stage_ones(monkeypatch)
    inst = compile_single_level_robust(x_set, scenarios).instance
    assert {mode: solve_robust(inst, mode) for mode in Mode} == fresh
    assert len(built) == len(x_set)
    # Each mode solves every scenario at every leader, then replays one.
    assert len(solved) == 2 * (len(x_set) * len(scenarios) + 1)
    assert len(stage_ones) == len({(id(poly), c) for poly, c, *_ in solved}) \
        == len(x_set) * len(scenarios)


def test_objectives_are_scaled_once_per_instance(monkeypatch):
    # Both modes over k leaders scale each of the s scenarios once, each
    # mode's tie objective once and each replay's scenario once: s + 4
    # scalings, where scaling per LP would take 2 per follower LP.
    x_set = [(0, 1), (1, 0), (1, 1)]
    scenarios = [(1, -2), (F(1, 2), 3), (-1, F(3, 4))]
    inst = compile_single_level_robust(x_set, scenarios).instance
    scaled = _count_calls(monkeypatch, bilevel, "scaled_objective")
    solved = _count_calls(monkeypatch, bilevel, "solve_lex_lp")
    for mode in Mode:
        solve_robust(inst, mode)
    assert len(solved) == 2 * (len(x_set) * len(scenarios) + 1)
    assert len(scaled) == len(scenarios) + 2 + 2


@given(small_polytopes(), st.data())
@settings(max_examples=60, deadline=None)
def test_lex_value_is_the_secondary_at_the_fraction_point(case, data):
    # _respond reads the leader's value off solve_lex_lp's integer point
    # (w, d), and follower_response alone turns the point into y = w / d
    # in Fractions: y must be that point, the value d·y there, and y must
    # lie in Y, in both tie senses.
    poly, c, _ = case
    d = data.draw(st.lists(_rationals(-2, 2), min_size=poly.dim,
                           max_size=poly.dim))
    a, rhs = rational_rows(poly)
    inst = RobustBilevelInstance(
        p=0, n=poly.dim, rows=int_rows(a, ((),) * poly.num_rows, rhs),
        leader_obj=d, leader_set=AllBinary(),
        uncertainty=DiscreteSet((tuple(c),)))
    lex, solved = bilevel.solve_lex_lp, []

    def spy(*args):
        solved.append(lex(*args))
        return solved[-1]

    for mode in Mode:
        solved.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bilevel, "solve_lex_lp", spy)
            y, value = follower_response(inst, (), c, mode)
        [(w, den)] = solved
        assert y == fractions(w, den) and value == dot(d, y)
        assert poly._holds(w, den)


def test_load_and_solve_run_one_phase_one_per_leader(tmp_path, monkeypatch):
    # Validation's emptiness probes and the solve share each distinct Y(x).
    path = tmp_path / "instance.json"
    save_instance(path, compile_qsat_pessimistic(
        parse_formula("(or x1 (and (not x2) y1))", 2, 1)).instance)
    phase_ones = _count_calls(monkeypatch, lp, "_phase_one")
    inst, _ = load_instance(path)
    solve_robust(inst)
    follower_sets = list(dict.fromkeys([
        inst.follower_polyhedron(x)
        for x in inst.leader_set.candidates(inst.p)]))
    assert [poly for poly, in phase_ones if poly in follower_sets] \
        == follower_sets


@st.composite
def leader_shadow_instances(draw):
    """`shadow_instances` with one or two binary leaders that raise
    right-hand sides, so Y(x) contains the bounded Y(0); a zero column
    of B makes leaders share Y(x)."""
    inst = draw(shadow_instances())
    a, rhs = rational_rows(inst.follower_polyhedron(()))
    p = draw(st.integers(1, 2))
    shift = st.sampled_from([ZERO, F(1, 2), ONE])
    mat = [[draw(shift) for _ in range(p)] for _ in range(len(inst.rows))]
    return replace(inst, p=p, rows=int_rows(a, mat, rhs),
                   leader_set=AllBinary())


@given(leader_shadow_instances())
@example(SHARED_SHADOW)
@settings(max_examples=25, deadline=None)
def test_memo_matches_fresh_adversaries(inst):
    leaders = inst.leader_set.candidates(inst.p)
    for mode in Mode:
        fresh = [adversary_geometric(replace(inst), x, mode) for x in leaders]
        assert solve_robust(inst, mode).trace == tuple(
            [(x, value) for x, (_, value) in zip(leaders, fresh)])
        assert [adversary_geometric(inst, x, mode) for x in leaders] == fresh


@st.composite
def leader_row_instances(draw):
    """(inst, x, (A, B, b)): rows [A | B | b] with denominators 1 to 4,
    the instance built from them, and a leader that is binary, from an
    explicit list, or on the spot check's grid of sixteenths.
    `follower_polyhedron` does not check membership, so a fractional x
    goes with binary leaders: a relaxed set would need the deviation
    penalty's rows."""
    p, n, m = draw(st.integers(0, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 4))

    def rows(width):
        row = st.lists(_rationals(-3, 3), min_size=width, max_size=width)
        return draw(st.lists(row, min_size=m, max_size=m))

    kind = draw(st.sampled_from(["binary", "explicit", "sixteenths"]))
    binary = st.tuples(*[st.sampled_from([ZERO, ONE])] * p)
    if kind == "explicit":
        leader_set = ExplicitList(draw(st.lists(binary, min_size=1)))
        x = draw(st.sampled_from(leader_set.candidates(p)))
    elif kind == "binary":
        leader_set, x = AllBinary(), draw(binary)
    else:
        sixteenths = st.integers(0, 16).map(lambda k: F(k, 16))
        leader_set, x = AllBinary(), draw(st.tuples(*[sixteenths] * p))
    data = (rows(n), rows(p), [r[0] for r in rows(1)])
    inst = RobustBilevelInstance(
        p=p, n=n, rows=int_rows(*data), leader_obj=[ONE] * n,
        leader_set=leader_set, uncertainty=Interval((ZERO,) * n, (ONE,) * n))
    return inst, x, data


# x = 3/16 against B = 1/2 scales row 1 by 32, which A takes too.
SIXTEENTHS_ROWS = ([[1], [F(-2, 3)]], [[F(1, 2)], [F(-3, 4)]], [0, F(1, 6)])


@given(leader_row_instances())
@example((RobustBilevelInstance(
    p=1, n=1, rows=int_rows(*SIXTEENTHS_ROWS), leader_obj=[1],
    leader_set=AllBinary(), uncertainty=Interval((0,), (1,))),
    (F(3, 16),), SIXTEENTHS_ROWS))
@settings(max_examples=150, deadline=None)
def test_follower_rows_are_the_scaled_fraction_rows(case):
    # Y(x)'s integer rows, written from the instance's, are those that
    # integer_scaled gives the rows of [A | b + B·x] it was built from.
    inst, x, (lhs, lead, rhs) = case
    lhs = tuple([tuple(row) for row in lhs])
    shifted = tuple([r + dot(row, x) for r, row in zip(rhs, lead)])
    poly = inst.follower_polyhedron(x)
    assert poly.rows == polyhedron(lhs, shifted).rows == tuple(
        [tuple(integer_scaled(row + (r,))[1]) for row, r in zip(lhs, shifted)])


def respell(text: str, how: str) -> str:
    """The literal text written another way with the same value:
    non-reduced as 2p/2q, zero-padded, or padded with whitespace."""
    num, _, den = text.partition("/")
    sign, num = ("-", num[1:]) if num.startswith("-") else ("", num)
    if how == "non-reduced":
        return f"{sign}{2 * int(num)}/{2 * int(den or 1)}"
    if how == "zero-padded":
        return f"{sign}00{num}" + (f"/00{den}" if den else "")
    return f" {text}\t"


@given(leader_row_instances(),
       st.sampled_from([None, "non-reduced", "zero-padded", "space-padded"]))
@settings(max_examples=100, deadline=None)
def test_reader_gives_the_instance_rows(case, how):
    # A document's A, B and b are read, one call per row, into the rows
    # that int_row writes, however their literals are spelled.
    inst = case[0]
    doc = instance_to_json(inst)
    if how is not None:
        for key in ("A", "B"):
            doc[key] = [[respell(t, how) for t in row] for row in doc[key]]
        doc["b"] = [respell(t, how) for t in doc["b"]]
    assert bilevel._rows_from_json(doc) == inst.rows


def test_reader_refuses_unequal_row_counts():
    doc = instance_to_json(segment_instance(BOX))
    for key in ("A", "B", "b"):
        short = {**doc, key: doc[key][:-1]}
        with pytest.raises(InstanceError,
                           match="row counts of A, B and b differ"):
            bilevel._rows_from_json(short)


def test_validation_accepts_and_rejects():
    validate_instance(segment_instance(BOX))
    empty = RobustBilevelInstance(
        p=0, n=1, rows=int_rows(((ONE,), (-ONE,)), ((), ()), (ZERO, -ONE)),
        leader_obj=(ONE,), leader_set=AllBinary(),
        uncertainty=BOX)
    with pytest.raises(InstanceError):
        validate_instance(empty)
    unbounded = RobustBilevelInstance(
        p=0, n=1, rows=int_rows(((-ONE,),), ((),), (ZERO,)),
        leader_obj=(ONE,), leader_set=AllBinary(), uncertainty=BOX)
    with pytest.raises(InstanceError):
        validate_instance(unbounded)


def test_validation_decides_boundedness_once(monkeypatch):
    # Y(x) = {0 <= y <= 1 + x1 + x2}: emptiness at every x is read from
    # Y(x)'s phase one, and boundedness at the first x from a rank check
    # and one certified LP from that phase one's tableau.
    lhs = ((ONE,), (-ONE,))
    inst = RobustBilevelInstance(
        p=2, n=1,
        rows=int_rows(lhs, ((ONE, ONE), (ZERO, ZERO)), (ONE, ZERO)),
        leader_obj=(ONE,), leader_set=AllBinary(), uncertainty=BOX)
    phase_ones = []
    phase_one = lp._phase_one

    def counted(poly):
        phase_ones.append(poly)
        return phase_one(poly)

    monkeypatch.setattr(lp, "_phase_one", counted)
    before = CERT_LOG.verified
    validate_instance(inst)
    assert CERT_LOG.verified - before == 1
    # x = (0, 1) and x = (1, 0) share Y(x) = {0 <= y <= 2}.
    assert len(phase_ones) == 3
    empty_late = replace(inst, rows=int_rows(
        lhs, ((F(-2), F(-2)), (ZERO, ZERO)), (F(3), ZERO)))
    with pytest.raises(InstanceError, match=r"empty for x=\(1, 1\)"):
        validate_instance(empty_late)


def test_leader_set_validation():
    with pytest.raises(InstanceError):
        ExplicitList(((F(1, 2),),))
    with pytest.raises(InstanceError, match="leader vector arity != p"):
        RobustBilevelInstance(
            p=1, n=1, rows=int_rows(((ONE,),), ((ZERO,),), (ONE,)),
            leader_obj=(ONE,), leader_set=ExplicitList(((ONE, ZERO),)),
            uncertainty=BOX)


def test_explicit_leader_enumeration_sorted():
    inst = RobustBilevelInstance(
        p=2, n=1,
        rows=int_rows(((ONE,), (-ONE,)), ((ZERO, ZERO), (ZERO, ZERO)),
                      (ONE, ZERO)),
        leader_obj=(ONE,),
        leader_set=ExplicitList(((F(1), F(0)), (F(0), F(1)))),
        uncertainty=BOX)
    assert inst.leader_set.candidates(inst.p) == [(F(0), F(1)), (F(1), F(0))]


def test_json_round_trip_identity(tmp_path):
    art = compile_qsat_pessimistic(parse_formula("(or x1 y1)", 1, 1))
    path = tmp_path / "instance.json"
    save_instance(path, art.instance, var_map=art.var_map, big_m=art.big_m)
    loaded, meta = load_instance(path)
    assert meta["var_map"] == list(art.var_map)
    assert meta["M"] == art.big_m
    again = tmp_path / "again.json"
    save_instance(again, loaded, var_map=meta["var_map"], big_m=meta["M"])
    assert json.loads(path.read_text()) == json.loads(again.read_text())
    reloaded, _ = load_instance(again)
    assert reloaded == loaded


def test_saved_instance_is_not_one_entry_per_line(tmp_path):
    inst = compile_qsat_pessimistic(parse_formula("(or x1 y1)", 1, 1)).instance
    path = tmp_path / "instance.json"
    save_instance(path, inst)
    entries = len(inst.rows) * (inst.n + inst.p + 1)
    assert len(path.read_text().splitlines()) < entries


def test_json_rejects_malformed():
    with pytest.raises(InstanceError):
        instance_from_json({"p": 1})
    for key, value, message in [
            ("uncertainty", {"kind": "mystery"},
             "unknown uncertainty kind 'mystery'"),
            ("leader_set", {"kind": "mystery"},
             "unknown leader set kind 'mystery'"),
            ("leader_set", "all_binary",
             "leader_set must be a JSON object, got 'all_binary'"),
            ("leader_set", {"kind": "explicit"},
             "malformed instance document: 'vectors'")]:
        doc = instance_to_json(segment_instance(BOX))
        doc[key] = value
        with pytest.raises(InstanceError, match=message):
            instance_from_json(doc)


@pytest.mark.parametrize("key,value", [
    ("p", 0.5), ("p", "0"), ("n", 1.0), ("n", True), ("p", -1), ("n", -1)])
def test_json_sizes_must_be_integers(key, value):
    # Each of these converts with int(), but none is a JSON integer >= 0.
    doc = instance_to_json(segment_instance(BOX))
    doc[key] = value
    with pytest.raises(InstanceError,
                       match=f"{key} must be a JSON integer >= 0"):
        instance_from_json(doc)


def test_scenario_membership():
    box = Interval((F(-1), F(0)), (F(1), F(1)))
    assert box.contains((F(0), F(1, 2)))
    assert not box.contains((F(2), F(0)))
    hull = ConvexHull(((F(0), F(0)), (F(2), F(0)), (F(0), F(2))))
    assert hull.contains((F(1), F(1)))
    assert hull.contains((F(1, 2), F(1, 2)))
    assert not hull.contains((F(2), F(2)))
    grid = ProductFinite(((F(0), F(1)), (F(5),)))
    assert grid.contains((F(1), F(5)))
    assert not grid.contains((F(1), F(4)))


# Y(x) = {0 <= y <= 2x, y <= 2 - 2x} with c = d = 1 over x in [0, 1]:
# both binary leaders give 0, but x = 1/2 reaches 1, so binary
# enumeration without the deviation penalty would report a wrong 0.
# Built over binary leaders, since it cannot be built relaxed.
UNPENALIZED_RELAXED = RobustBilevelInstance(
    p=1, n=1, rows=int_rows([[-1], [1], [1]], [[0], [2], [-2]], [0, 0, 2]),
    leader_obj=[1], leader_set=AllBinary(),
    uncertainty=Interval([1], [1]))


def _relaxed_doc(inst):
    """inst's JSON document with the relaxed leader set in its place."""
    return {**instance_to_json(inst), "leader_set": RelaxedBox().to_json()}


def test_relaxed_leader_without_penalty_is_refused(tmp_path, capsys):
    inst = UNPENALIZED_RELAXED
    assert follower_response(inst, (F(1, 2),), (1,), Mode.OPTIMISTIC) \
        == ((F(1),), F(1))
    assert solve_robust(inst).value == 0
    with pytest.raises(InstanceError):
        replace(inst, leader_set=RelaxedBox())
    doc = _relaxed_doc(inst)
    with pytest.raises(InstanceError):
        instance_from_json(doc)
    path = tmp_path / "relaxed.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _relaxed_or():
    return relax_leader(compile_qsat_optimistic(
        parse_formula("(or x1 y1)", 1, 1)))


@pytest.mark.parametrize("tamper", [
    lambda inst: replace(inst, leader_obj=inst.leader_obj[:-1] + (ONE,)),
    # The last row's b raised to 2: (t, L, B, b) -> (t, L, B, 2t).
    lambda inst: replace(inst, rows=inst.rows[:-1] + (
        inst.rows[-1][:3] + (2 * inst.rows[-1][0],),)),
    # The first row's A all ones, so it meets every dev_i: L -> (t, ..., t).
    lambda inst: replace(inst, rows=(
        (inst.rows[0][0], (inst.rows[0][0],) * inst.n, *inst.rows[0][2:]),
        *inst.rows[1:])),
    lambda inst: replace(inst, uncertainty=Interval(
        inst.uncertainty.lower[:-1] + (ZERO,),
        inst.uncertainty.upper[:-1] + (ONE,))),
    lambda inst: replace(inst, uncertainty=DiscreteSet(
        [inst.uncertainty.lower, inst.uncertainty.lower[:-1] + (F(2),)])),
])
def test_relaxed_leader_penalty_is_checked(tamper):
    inst = _relaxed_or().instance
    assert solve_robust(inst).value == 1
    assert solve_robust(box_to_simplex(_relaxed_or()).instance).value == 1
    assert instance_from_json(instance_to_json(inst))[0] == inst
    with pytest.raises(InstanceError):
        tamper(inst)
    binary = tamper(replace(inst, leader_set=AllBinary()))
    with pytest.raises(InstanceError):
        instance_from_json(_relaxed_doc(binary))


def test_spot_check_drops_the_corner_bounds_first_stages():
    # Each sample's Y(x) stays in the memo with its phase-one tableau,
    # but the first stages of its corner bound go once the bound is
    # decided.
    inst = _relaxed_or().instance
    value = solve_robust(inst, Mode.OPTIMISTIC).value
    assert spot_check_relaxed(inst, value, Mode.OPTIMISTIC) is None
    sampled = [poly for x, poly in inst._polyhedra.items()
               if any(c.denominator > 1 for c in x)]
    assert sampled and all(
        poly._phase_one_tableau is not None and not poly._stage_one
        for poly in sampled)
