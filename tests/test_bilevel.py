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
    enumerate_leader,
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
from rbo.numeric import ONE, ZERO, dot, rank
from rbo.uncertainty import (
    ConvexHull,
    DiscreteSet,
    Interval,
    ProductFinite,
)
from test_lp import _rationals, small_polytopes


def segment_instance(uncertainty, mode=Mode.OPTIMISTIC):
    """p = 0, follower set [0, 1], leader objective d = y."""
    return RobustBilevelInstance(
        p=0, n=1, lhs=((ONE,), (-ONE,)), leader_mat=((), ()),
        rhs=(ONE, ZERO), leader_obj=(ONE,), leader_set=AllBinary(0),
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
    c[art.column_of("ydev1")] = ONE
    for mode in Mode:
        y, value = follower_response(inst, (), c, mode)
        assert y[art.column_of("y1")] == F(1, 2)
        assert y[art.column_of("ydev1")] == F(1, 2)
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
        p=1, n=1, lhs=((ONE,), (-ONE,)), leader_mat=((ZERO,), (ZERO,)),
        rhs=(ONE, ZERO), leader_obj=(ONE,), leader_set=AllBinary(1),
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
        for x in enumerate_leader(inst):
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
            p=inst.p, n=inst.n, lhs=inst.lhs, leader_mat=inst.leader_mat,
            rhs=inst.rhs, leader_obj=inst.leader_obj,
            leader_set=inst.leader_set, uncertainty=corners)
        for mode in Mode:
            assert (solve_robust(inst, mode).value
                    == solve_robust(twin, mode).value)


LATTICE_SQUARE = RobustBilevelInstance(
    p=0, n=2,
    lhs=((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE), (ONE, ONE)),
    leader_mat=((), (), (), (), ()), rhs=(ONE, ONE, ZERO, ZERO, F(3, 2)),
    leader_obj=(F(2), F(-1)), leader_set=AllBinary(0),
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
    return RobustBilevelInstance(
        p=0, n=n, lhs=poly.a, leader_mat=((),) * poly.num_rows,
        rhs=poly.rhs, leader_obj=draw(entries), leader_set=AllBinary(0),
        uncertainty=unc)


def direct_face_lattice(inst, mode):
    """The adversary's value from the exposable faces of Y itself: a face
    is exposable when some s in D gives c = L·s with exactly that face as
    c's argmax over Y, and its outcome is the best (optimistic) or worst
    (pessimistic) leader score over its vertices."""
    poly = inst.follower_polyhedron(())
    verts = geometry.enumerate_vertices(poly)
    shadow = inst.uncertainty.shadow()
    images = tuple([tuple([dot(col, v) for col in shadow.columns])
                    for v in verts])
    best = None
    for face in geometry.enumerate_faces(poly, verts):
        if geometry.exposure_check(face, images, shadow.directions) is None:
            continue
        scores = [dot(inst.leader_obj, verts[i]) for i in face]
        outcome = max(scores) if mode is Mode.OPTIMISTIC else min(scores)
        if best is None or outcome < best:
            best = outcome
    return best


def unpruned_shadow_scan(inst, mode):
    """(c, value) of the first minimum over every exposable shadow face,
    from the vertices up (optimistic) or from the whole shadow down
    (pessimistic), with no face skipped."""
    shadow = inst.uncertainty.shadow()
    image = geometry.project_polytope(inst.follower_polyhedron(()),
                                      shadow.columns)
    verts = geometry.enumerate_vertices(image)
    faces = geometry.enumerate_faces(image, verts)
    if mode is Mode.PESSIMISTIC:
        faces.reverse()
    best = None
    for face in faces:
        s = geometry.exposure_check(face, verts, shadow.directions)
        if s is None:
            continue
        c = shadow.scenario(s)
        _, value = follower_response(inst, (), c, mode)
        if best is None or value < best[1]:
            best = (c, value)
    return best


def check_against_references(inst):
    """The pruned shadow adversary agrees with the direct computation on
    the face lattice of Y(x), which no projection or pruning touches,
    and reports the first minimum of the unpruned scan of the shadow
    under all q columns of L.  As in test_geometry, a projection of more
    than 60 rows is refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_MAX_PROJECTION_ROWS", 60)
        try:
            geometry.project_polytope(inst.follower_polyhedron(()),
                                      inst.uncertainty.shadow().columns)
        except geometry.CapExceededError:
            return
    for mode in Mode:
        c, value = adversary_geometric(inst, (), mode)
        assert value == direct_face_lattice(inst, mode)
        assert (c, value) == unpruned_shadow_scan(inst, mode)


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
    # The scan runs on the shadow under a basis of L's columns, of lower
    # dimension than the q-dimensional references.
    check_against_references(inst)


def test_face_scan_skips_dominated_faces(monkeypatch):
    # On the unit square with the box [-1, 1]^2 every face is exposable:
    # the optimistic scan stops at the four vertices, and the pessimistic
    # scan at the whole square, which s = 0 exposes.
    inst = RobustBilevelInstance(
        p=0, n=2, lhs=((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE)),
        leader_mat=((), (), (), ()), rhs=(ONE, ONE, ZERO, ZERO),
        leader_obj=(ONE, F(-1)), leader_set=AllBinary(0),
        uncertainty=Interval((-ONE, -ONE), (ONE, ONE)))
    checked = []
    exposure_check = geometry.exposure_check

    def counted(face, verts, directions):
        s = exposure_check(face, verts, directions)
        checked.append((face, s is not None))
        return s

    monkeypatch.setattr(geometry, "exposure_check", counted)
    adversary_geometric(inst, (), Mode.OPTIMISTIC)
    assert sorted(checked) == [(frozenset([i]), True) for i in range(4)]
    checked.clear()
    adversary_geometric(inst, (), Mode.PESSIMISTIC)
    for k, (verts, _) in enumerate(checked):
        assert not any(verts <= g for g, exposed in checked[:k] if exposed)
    assert checked == [(frozenset(range(4)), True)]


# Y(x) = [0, 1]^2 plus the row y1 + y2 <= 3 + x1, redundant at both x1;
# x2's column is zero, so leaders pair up on Y(x).  The box [-1, 1]^2
# makes the shadow Y(x) itself: two elimination outputs, one pruned shadow.
SHARED_SHADOW = RobustBilevelInstance(
    p=2, n=2,
    lhs=((ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE), (ONE, ONE)),
    leader_mat=((ZERO, ZERO),) * 4 + ((ONE, ZERO),),
    rhs=(ONE, ONE, ZERO, ZERO, F(3)), leader_obj=(ONE, F(-1)),
    leader_set=AllBinary(2), uncertainty=Interval((-ONE, -ONE), (ONE, ONE)))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_memo_scans_each_distinct_shadow_once(monkeypatch):
    # Four leaders, two distinct Y(x), one shadow: a single scan of the
    # square per mode, as in test_face_scan_skips_dominated_faces.
    projected = _count_calls(monkeypatch, geometry, "project_polytope")
    enumerated = _count_calls(monkeypatch, geometry, "enumerate_vertices")
    checked = _count_calls(monkeypatch, geometry, "exposure_check")
    for mode, faces in ((Mode.OPTIMISTIC, 4), (Mode.PESSIMISTIC, 1)):
        for calls in (projected, enumerated, checked):
            calls.clear()
        solve_robust(replace(SHARED_SHADOW), mode)
        assert len(projected) == 2
        assert len(enumerated) == 1
        assert len(checked) == faces


def test_hull_shadow_has_the_rank_of_its_columns(monkeypatch):
    # The simplex covering the one free coordinate has the points (-1, 0)
    # and (1, 0), which are linearly dependent, so vertex enumeration runs
    # on a shadow of dimension q - 1 = 1.
    inst = box_to_simplex(compile_qsat_optimistic(
        parse_formula("(or x1 y1)", 1, 1))).instance
    columns = inst.uncertainty.shadow().columns
    assert rank(columns) == len(columns) - 1 == 1
    enumerated = _count_calls(monkeypatch, geometry, "enumerate_vertices")
    for mode in Mode:
        solve_robust(inst, mode)
    assert enumerated
    assert all(poly.dim == 1 for poly, in enumerated)


def test_memo_solves_each_finite_y_once(monkeypatch):
    # Two leaders share Y(x) through a zero column of B, so the second
    # leader's k scenarios come from the memo; the replay adds one LP.
    scenarios = ((F(1),), (F(-1),), (F(1, 2),))
    inst = RobustBilevelInstance(
        p=1, n=1, lhs=((ONE,), (-ONE,)), leader_mat=((ZERO,), (ZERO,)),
        rhs=(ONE, ZERO), leader_obj=(ONE,), leader_set=AllBinary(1),
        uncertainty=DiscreteSet(scenarios))
    solved = _count_calls(monkeypatch, bilevel, "solve_lex_lp")
    report = solve_robust(inst, Mode.OPTIMISTIC)
    assert report.trace == (((F(0),), ZERO), ((F(1),), ZERO))
    assert len(solved) == len(scenarios) + 1


def test_memo_prunes_each_distinct_elimination_once(monkeypatch):
    pruned = _count_calls(monkeypatch, geometry, "_lp_prune")
    inst = replace(SHARED_SHADOW)
    for mode in Mode:
        solve_robust(inst, mode)
    assert len(pruned) == 2
    assert pruned[0][0] != pruned[1][0]


def test_one_tableau_per_leader_across_modes(monkeypatch):
    # Y(x) is one polyhedron for the instance's lifetime, so both modes'
    # scenario LPs and both replays start from one phase-one tableau.
    built = _count_calls(monkeypatch, lp._Tableau, "__init__")
    x_set = [(0, 1), (1, 0), (1, 1)]
    inst = compile_single_level_robust(
        x_set, [(1, -2), (F(1, 2), 3)]).instance
    for mode in Mode:
        solve_robust(inst, mode)
    assert len(built) == len(x_set)


def test_load_and_solve_run_one_phase_one_per_leader(tmp_path, monkeypatch):
    # Validation's emptiness probes and the solve share each Y(x).
    path = tmp_path / "instance.json"
    save_instance(path, compile_qsat_pessimistic(
        parse_formula("(or x1 (and (not x2) y1))", 2, 1)).instance)
    phase_ones = _count_calls(monkeypatch, lp, "_phase_one")
    inst, _ = load_instance(path)
    solve_robust(inst)
    assert len([poly for poly, in phase_ones if poly.a == inst.lhs]) \
        == len(enumerate_leader(inst))


@st.composite
def leader_shadow_instances(draw):
    """`shadow_instances` with one or two binary leaders that raise
    right-hand sides, so Y(x) contains the bounded Y(0); a zero column
    of B makes leaders share Y(x)."""
    inst = draw(shadow_instances())
    p = draw(st.integers(1, 2))
    shift = st.sampled_from([ZERO, F(1, 2), ONE])
    mat = [[draw(shift) for _ in range(p)] for _ in range(inst.num_rows)]
    return replace(inst, p=p, leader_mat=mat, leader_set=AllBinary(p))


@given(leader_shadow_instances())
@example(SHARED_SHADOW)
@settings(max_examples=25, deadline=None)
def test_memo_matches_fresh_adversaries(inst):
    # A projection of more than 60 rows is refused, as above.
    leaders = enumerate_leader(inst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_MAX_PROJECTION_ROWS", 60)
        try:
            for x in leaders:
                geometry.project_polytope(inst.follower_polyhedron(x),
                                          inst.uncertainty.shadow().columns)
        except geometry.CapExceededError:
            return
    for mode in Mode:
        fresh = [adversary_geometric(replace(inst), x, mode) for x in leaders]
        assert solve_robust(inst, mode).trace == tuple(
            [(x, value) for x, (_, value) in zip(leaders, fresh)])
        assert [adversary_geometric(inst, x, mode) for x in leaders] == fresh


def test_validation_accepts_and_rejects():
    validate_instance(segment_instance(BOX))
    empty = RobustBilevelInstance(
        p=0, n=1, lhs=((ONE,), (-ONE,)), leader_mat=((), ()),
        rhs=(ZERO, -ONE), leader_obj=(ONE,), leader_set=AllBinary(0),
        uncertainty=BOX)
    with pytest.raises(InstanceError):
        validate_instance(empty)
    unbounded = RobustBilevelInstance(
        p=0, n=1, lhs=((-ONE,),), leader_mat=((),), rhs=(ZERO,),
        leader_obj=(ONE,), leader_set=AllBinary(0), uncertainty=BOX)
    with pytest.raises(InstanceError):
        validate_instance(unbounded)


def test_validation_decides_boundedness_once(monkeypatch):
    # Y(x) = {0 <= y <= 1 + x1 + x2}: emptiness at every x is read from
    # Y(x)'s phase one, and boundedness at the first x from a rank check
    # and one certified LP from that phase one's tableau.
    inst = RobustBilevelInstance(
        p=2, n=1, lhs=((ONE,), (-ONE,)),
        leader_mat=((ONE, ONE), (ZERO, ZERO)), rhs=(ONE, ZERO),
        leader_obj=(ONE,), leader_set=AllBinary(2), uncertainty=BOX)
    phase_ones = []
    phase_one = lp._phase_one

    def counted(poly):
        phase_ones.append(poly)
        return phase_one(poly)

    monkeypatch.setattr(lp, "_phase_one", counted)
    before = CERT_LOG.verified
    validate_instance(inst)
    assert CERT_LOG.verified - before == 1
    assert len(phase_ones) == 2 ** inst.p
    empty_late = replace(inst, leader_mat=((F(-2), F(-2)), (ZERO, ZERO)),
                         rhs=(F(3), ZERO))
    with pytest.raises(InstanceError, match=r"empty for x=\(1, 1\)"):
        validate_instance(empty_late)


def test_leader_set_validation():
    with pytest.raises(InstanceError):
        ExplicitList(((F(1, 2),),))
    with pytest.raises(InstanceError):
        RobustBilevelInstance(
            p=1, n=1, lhs=((ONE,),), leader_mat=((ZERO,),), rhs=(ONE,),
            leader_obj=(ONE,), leader_set=AllBinary(2), uncertainty=BOX)


def test_explicit_leader_enumeration_sorted():
    inst = RobustBilevelInstance(
        p=2, n=1, lhs=((ONE,), (-ONE,)),
        leader_mat=((ZERO, ZERO), (ZERO, ZERO)), rhs=(ONE, ZERO),
        leader_obj=(ONE,),
        leader_set=ExplicitList(((F(1), F(0)), (F(0), F(1)))),
        uncertainty=BOX)
    assert enumerate_leader(inst) == [(F(0), F(1)), (F(1), F(0))]


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
    entries = inst.num_rows * (inst.n + inst.p + 1)
    assert len(path.read_text().splitlines()) < entries


def test_json_rejects_malformed():
    with pytest.raises(InstanceError):
        instance_from_json({"p": 1})
    doc = instance_to_json(segment_instance(BOX))
    doc["uncertainty"]["kind"] = "mystery"
    with pytest.raises(InstanceError):
        instance_from_json(doc)


@pytest.mark.parametrize("key,value", [
    ("p", 0.5), ("p", "0"), ("n", 1.0), ("n", True)])
def test_json_sizes_must_be_integers(key, value):
    # Each of these converts with int(), but none is a JSON integer.
    doc = instance_to_json(segment_instance(BOX))
    doc[key] = value
    with pytest.raises(InstanceError, match=f"{key} must be a JSON integer"):
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
UNPENALIZED_RELAXED = RobustBilevelInstance(
    p=1, n=1, lhs=[[-1], [1], [1]], leader_mat=[[0], [2], [-2]],
    rhs=[0, 0, 2], leader_obj=[1], leader_set=RelaxedBox(1),
    uncertainty=Interval([1], [1]))


def test_relaxed_leader_without_penalty_is_refused(tmp_path, capsys):
    inst = UNPENALIZED_RELAXED
    assert follower_response(inst, (F(1, 2),), (1,), Mode.OPTIMISTIC) \
        == ((F(1),), F(1))
    with pytest.raises(InstanceError):
        solve_robust(inst)
    doc = instance_to_json(inst)
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
    lambda inst: replace(inst, rhs=inst.rhs[:-1] + (F(2),)),
    lambda inst: replace(inst, lhs=((ONE,) * inst.n,) + inst.lhs[1:]),
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
    with pytest.raises(InstanceError):
        solve_robust(tamper(inst))
    with pytest.raises(InstanceError):
        instance_from_json(instance_to_json(tamper(inst)))
