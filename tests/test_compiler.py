import itertools
import random
from fractions import Fraction as F

import pytest

from rbo.bilevel import (
    AllBinary,
    Mode,
    RelaxedBox,
    RobustBilevelInstance,
    SolveReport,
    enumerate_leader,
    follower_response,
    instance_to_json,
    solve_robust,
)
from rbo.compiler import (
    And,
    CompilationArtifacts,
    FollowerVar,
    Formula,
    FormulaSyntaxError,
    LeaderVar,
    Not,
    Or,
    atomic_term_count,
    big_m_for,
    box_to_simplex,
    compile_qsat_optimistic,
    compile_qsat_pessimistic,
    compile_single_level_robust,
    evaluate,
    exhaustive_family,
    formula_file_text,
    formula_to_text,
    full_family,
    linearize,
    parse_formula,
    parse_formula_file,
    random_formula,
    relax_leader,
)
from rbo import lp
from rbo.geometry import project_polytope
from rbo.lp import Polyhedron, Sense, solve_lp
from rbo.numeric import ONE, ZERO, rat_parse_nested
from rbo.oracle import robust_single_level_oracle
from rbo.uncertainty import ConvexHull, DiscreteSet, Interval


def test_parse_examples():
    f = parse_formula("(or x1 y1)", 1, 1)
    assert f.root == Or(LeaderVar(1), FollowerVar(1))
    g = parse_formula("(not (and x1 x2))", 2, 0)
    assert g.root == Not(And(LeaderVar(1), LeaderVar(2)))


def test_parse_rejects_out_of_range():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("y3", 0, 2)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x1", 0, 1)


def test_parse_error_positions():
    try:
        parse_formula("(and x1\n  z9)", 1, 0)
    except FormulaSyntaxError as err:
        assert err.line == 2 and err.column == 3
    else:
        pytest.fail("expected a syntax error")
    for text in ("", "(and x1)", "(or x1 x1 x1)", "(xor x1 x1)", "x1 y1"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text, 2, 2)


def test_formula_file_round_trip():
    f = parse_formula("(and (or x1 y1) (not y1))", 1, 1)
    text = formula_file_text(f)
    assert parse_formula_file(text) == f
    with pytest.raises(FormulaSyntaxError):
        parse_formula_file("q=1\nx1")


def test_atomic_term_counts():
    assert atomic_term_count(parse_formula("(or x1 y1)", 1, 1)) == 2
    assert atomic_term_count(
        parse_formula("(and (or x1 y1) (not y1))", 1, 1)) == 3
    assert atomic_term_count(parse_formula("x1", 1, 0)) == 1
    assert big_m_for(parse_formula("x1", 1, 0)) == 3


def expected_gate_values(formula, x_bits, y_bits):
    """Subterm values in the builder's gate order (post-order walk)."""
    values = []

    def walk(node):
        if isinstance(node, LeaderVar):
            return x_bits[node.index - 1]
        if isinstance(node, FollowerVar):
            return y_bits[node.index - 1]
        if isinstance(node, Not):
            result = 1 - walk(node.child)
        elif isinstance(node, And):
            result = walk(node.left) & walk(node.right)
        else:
            result = walk(node.left) | walk(node.right)
        values.append(result)
        return result

    walk(formula.root)
    return values


def forced_gate_values(art, x_bits, y_bits):
    """Feasible gate ranges once x and the original y block are pinned."""
    inst = art.instance
    poly = inst.follower_polyhedron([F(b) for b in x_bits])
    n_y = art.original_y_count()
    extra_rows = []
    extra_rhs = []
    for j in range(n_y):
        row = [ZERO] * inst.n
        row[j] = ONE
        extra_rows.append(list(row))
        extra_rhs.append(F(y_bits[j]))
        extra_rows.append([-c for c in row])
        extra_rhs.append(F(-y_bits[j]))
    pinned = poly.with_rows(extra_rows, extra_rhs)
    forced = []
    for col, name in enumerate(art.var_map):
        if not name.startswith("g"):
            continue
        unit = [ZERO] * inst.n
        unit[col] = ONE
        hi = solve_lp(pinned, unit, Sense.MAX).value
        lo = solve_lp(pinned, unit, Sense.MIN).value
        assert lo == hi, f"gate {name} not forced at x={x_bits} y={y_bits}"
        forced.append(hi)
    return forced


@pytest.mark.parametrize("text,p,n", [
    ("(and (or x1 y1) (not y1))", 1, 1),
    ("(or (and x1 (not x2)) (and y1 y2))", 2, 2),
    ("(not (or (and x1 y1) (and (not x2) (or y2 x3))))", 3, 3),
])
def test_linearization_forces_gates(text, p, n):
    formula = parse_formula(text, p, n)
    art = compile_qsat_optimistic(formula)
    for bits in itertools.product((0, 1), repeat=p + n):
        x_bits, y_bits = bits[:p], bits[p:]
        expected = expected_gate_values(formula, x_bits, y_bits)
        assert forced_gate_values(art, x_bits, y_bits) == expected


def test_linearize_shapes():
    circuit = linearize(parse_formula("(and (or x1 y1) (not y1))", 1, 1))
    assert [g.split(":")[1] for g in circuit.gate_names] == \
        ["or", "not", "and"]
    assert circuit.output == ("y", 3)


def test_compile_optimistic_shape():
    art = compile_qsat_optimistic(Formula(FollowerVar(1), 0, 1))
    inst = art.instance
    assert art.var_map == ("y1",)
    assert inst.uncertainty == Interval((F(-1),), (F(1),))
    assert inst.leader_obj == (F(1),)
    art = compile_qsat_optimistic(parse_formula("(or y1 (not y1))", 0, 1))
    unc = art.instance.uncertainty
    assert unc.lower[0] == -1 and unc.upper[0] == 1
    assert all(unc.lower[j] == unc.upper[j] == 0
               for j in range(1, art.instance.n))
    assert art.instance.leader_obj[art.column_of("g2:or")] == 1


def test_var_map_covers_every_column():
    for formula in (parse_formula("(or x1 y1)", 1, 1),
                    parse_formula("(and y1 y2)", 0, 2)):
        for art in (compile_qsat_optimistic(formula),
                    compile_qsat_pessimistic(formula)):
            assert len(art.var_map) == art.instance.n
            assert len(set(art.var_map)) == art.instance.n
            assert art.big_m >= 3
            assert art.big_m >= atomic_term_count(formula)


def test_compile_values_match_quantifier_oracle():
    cases = [
        ("y1", 0, 1, 0),
        ("(or y1 (not y1))", 0, 1, 1),
        ("(or x1 y1)", 1, 1, 1),
        ("(and x1 (not x1))", 1, 0, 0),
        ("(or x1 (not x1))", 1, 0, 1),
    ]
    for text, p, n, want in cases:
        formula = parse_formula(text, p, n)
        opt = compile_qsat_optimistic(formula)
        assert solve_robust(opt.instance, Mode.OPTIMISTIC).value == want
        pes = compile_qsat_pessimistic(formula)
        assert solve_robust(pes.instance, Mode.PESSIMISTIC).value == want


def test_pessimistic_gadget_intervals():
    art = compile_qsat_pessimistic(parse_formula("(or y1 y2)", 0, 2))
    inst = art.instance
    for name in ("ydev1", "ydev2"):
        col = art.column_of(name)
        assert inst.uncertainty.lower[col] == 1
        assert inst.uncertainty.upper[col] == 1
        assert inst.leader_obj[col] == art.big_m


def test_relax_leader_keeps_value():
    formula = parse_formula("(or x1 y1)", 1, 1)
    art = compile_qsat_optimistic(formula)
    base = solve_robust(art.instance, Mode.OPTIMISTIC).value
    relaxed = relax_leader(art)
    assert isinstance(relaxed.instance.leader_set, RelaxedBox)
    assert solve_robust(relaxed.instance, Mode.OPTIMISTIC).value == base == 1


def test_relax_leader_dev_forcing_at_binary_x():
    relaxed = relax_leader(
        compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1)))
    inst = relaxed.instance
    col = relaxed.column_of("xdev1")
    for x in ((F(0),), (F(1),)):
        c = tuple(inst.uncertainty.lower)
        y, _ = follower_response(inst, x, c, Mode.OPTIMISTIC)
        assert y[col] == 0


def test_relax_fractional_x_forces_deviation():
    relaxed = relax_leader(
        compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1)))
    inst = relaxed.instance
    col = relaxed.column_of("xdev1")
    c = tuple(inst.uncertainty.lower)
    y, _ = follower_response(inst, (F(1, 4),), c, Mode.OPTIMISTIC)
    assert y[col] == F(1, 4)


def test_single_level_embedding_examples():
    art = compile_single_level_robust([(0,), (1,)], [(1,), (-1,)])
    assert solve_robust(art.instance, Mode.OPTIMISTIC).value == 0
    art = compile_single_level_robust([(1, 0), (0, 1)], [(1, 0), (0, 1)])
    want = robust_single_level_oracle([(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert solve_robust(art.instance, Mode.OPTIMISTIC).value == want == 0
    art = compile_single_level_robust([(0,), (1,)], [(1,)])
    assert solve_robust(art.instance, Mode.OPTIMISTIC).value == 1


def test_single_level_unique_follower_optimum():
    art = compile_single_level_robust([(1, 1)], [(1, 0), (0, 1)])
    inst = art.instance
    assert isinstance(inst.uncertainty, DiscreteSet)
    for j, scenario in enumerate(inst.uncertainty.scenarios):
        y_opt, v_opt = follower_response(inst, (F(1), F(1)), scenario,
                                         Mode.OPTIMISTIC)
        y_pes, v_pes = follower_response(inst, (F(1), F(1)), scenario,
                                         Mode.PESSIMISTIC)
        assert y_opt == y_pes and v_opt == v_pes
        for k in range(len(inst.uncertainty.scenarios)):
            z_val = y_opt[art.column_of(f"z{k + 1}")]
            assert z_val == (1 if k == j else 0)


def test_box_to_simplex_points():
    art = compile_qsat_optimistic(Formula(FollowerVar(1), 0, 1))
    simp = box_to_simplex(art)
    assert simp.instance.uncertainty == ConvexHull(((F(-1),), (F(1),)))
    assert solve_robust(simp.instance, Mode.OPTIMISTIC).value == 0

    art2 = compile_qsat_optimistic(parse_formula("(and y1 y2)", 0, 2))
    simp2 = box_to_simplex(art2)
    y_parts = [pt[:2] for pt in simp2.instance.uncertainty.points]
    assert y_parts == [(F(-1), F(-1)), (F(3), F(-1)), (F(-1), F(3))]
    certain = [pt[2:] for pt in simp2.instance.uncertainty.points]
    assert all(part == certain[0] for part in certain)


def test_box_to_simplex_value_preserved():
    for text, p, n in (("y1", 0, 1), ("(or x1 y1)", 1, 1),
                       ("(or y1 (not y2))", 0, 2)):
        art = compile_qsat_optimistic(parse_formula(text, p, n))
        box_value = solve_robust(art.instance, Mode.OPTIMISTIC).value
        hull_value = solve_robust(box_to_simplex(art).instance,
                                  Mode.OPTIMISTIC).value
        assert box_value == hull_value


def test_box_to_simplex_rejects_wrong_shape():
    art = compile_single_level_robust([(0,), (1,)], [(1,)])
    with pytest.raises(ValueError):
        box_to_simplex(art)
    art = compile_qsat_optimistic(Formula(FollowerVar(1), 0, 1))
    with pytest.raises(ValueError):
        box_to_simplex(box_to_simplex(art))


def test_family_generator_is_deterministic():
    first = [(formula_to_text(f), f.p, f.n) for f in full_family(2, 2)]
    second = [(formula_to_text(f), f.p, f.n) for f in full_family(2, 2)]
    assert first == second
    assert len(first) == len(set(first))
    sizes = {atomic_term_count(f) for f in full_family(2, 2)}
    assert max(sizes) == 7 and 1 in sizes


def test_exhaustive_family_spans_arity():
    fam = exhaustive_family(1, 1)
    texts = {formula_to_text(f) for f in fam}
    assert "x1" in texts and "(not y1)" in texts
    assert "(and x1 y1)" in texts and "(or y1 x1)" in texts


def test_random_formula_reproducible():
    a = [formula_to_text(random_formula(random.Random(5), 2, 2, 9))
         for _ in range(5)]
    b = [formula_to_text(random_formula(random.Random(5), 2, 2, 9))
         for _ in range(5)]
    assert a == b
    for text in a:
        f = parse_formula(text, 2, 2)
        assert atomic_term_count(f) <= 9


def test_evaluate_matches_python_semantics():
    formula = parse_formula("(or (and x1 (not y1)) y2)", 1, 2)
    for bits in itertools.product((0, 1), repeat=3):
        x, y = bits[:1], bits[1:]
        want = (x[0] and not y[0]) or y[1]
        assert evaluate(formula, x, y) == int(want)


# Full `instance_to_json` documents of nine compilations.  Every LP the
# solvers build inherits this row and column order, and Bland's rule makes
# each tie-break depend on it, so a reordering must show up here.  The
# "gates" and "copy" formulas cover every gate kind over leader and
# follower operands, a repeated operand and the leader-leaf copy gate.
PINNED_LAYOUTS = {
    "optimistic": {
        "p": 1,
        "n": 2,
        "A": [
            ["1", "0"],
            ["-1", "0"],
            ["0", "-1"],
            ["1", "-1"],
            ["-1", "1"],
            ["0", "1"],
        ],
        "B": [["0"], ["0"], ["-1"], ["0"], ["1"], ["0"]],
        "b": ["1", "0", "0", "0", "0", "1"],
        "d": ["0", "1"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["-1", "0"],
            "upper": ["1", "0"],
        },
        "mode_default": "optimistic",
        "var_map": ["y1", "g1:or"],
        "M": "3",
    },
    "pessimistic": {
        "p": 1,
        "n": 3,
        "A": [
            ["1", "0", "0"],
            ["-1", "0", "0"],
            ["0", "-1", "0"],
            ["1", "-1", "0"],
            ["-1", "1", "0"],
            ["0", "1", "0"],
            ["0", "0", "-1"],
            ["-1", "0", "1"],
            ["1", "0", "1"],
        ],
        "B": [["0"], ["0"], ["-1"], ["0"], ["1"], ["0"], ["0"], ["0"], ["0"]],
        "b": ["1", "0", "0", "0", "0", "1", "0", "0", "1"],
        "d": ["0", "1", "3"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["-1", "0", "1"],
            "upper": ["1", "0", "1"],
        },
        "mode_default": "pessimistic",
        "var_map": ["y1", "g1:or", "ydev1"],
        "M": "3",
    },
    "relaxed": {
        "p": 1,
        "n": 3,
        "A": [
            ["1", "0", "0"],
            ["-1", "0", "0"],
            ["0", "-1", "0"],
            ["1", "-1", "0"],
            ["-1", "1", "0"],
            ["0", "1", "0"],
            ["0", "0", "-1"],
            ["0", "0", "1"],
            ["0", "0", "1"],
        ],
        "B": [["0"], ["0"], ["-1"], ["0"], ["1"], ["0"], ["0"], ["1"], ["-1"]],
        "b": ["1", "0", "0", "0", "0", "1", "0", "0", "1"],
        "d": ["0", "1", "-3"],
        "leader_set": {"kind": "relaxed_box"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["-1", "0", "1"],
            "upper": ["1", "0", "1"],
        },
        "mode_default": "optimistic",
        "var_map": ["y1", "g1:or", "xdev1"],
        "M": "3",
    },
    "simplex": {
        "p": 1,
        "n": 2,
        "A": [
            ["1", "0"],
            ["-1", "0"],
            ["0", "-1"],
            ["1", "-1"],
            ["-1", "1"],
            ["0", "1"],
        ],
        "B": [["0"], ["0"], ["-1"], ["0"], ["1"], ["0"]],
        "b": ["1", "0", "0", "0", "0", "1"],
        "d": ["0", "1"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "convex_hull",
            "points": [["-1", "0"], ["1", "0"]],
        },
        "mode_default": "optimistic",
        "var_map": ["y1", "g1:or"],
        "M": "3",
    },
    "single_level": {
        "p": 1,
        "n": 5,
        "A": [
            ["0", "-1", "0", "0", "0"],
            ["0", "0", "-1", "0", "0"],
            ["0", "1", "1", "0", "0"],
            ["0", "-1", "-1", "0", "0"],
            ["0", "0", "0", "-1", "0"],
            ["0", "1", "0", "-1", "0"],
            ["0", "0", "0", "1", "0"],
            ["0", "-1", "0", "1", "0"],
            ["0", "0", "0", "0", "-1"],
            ["0", "0", "1", "0", "-1"],
            ["0", "0", "0", "0", "1"],
            ["0", "0", "-1", "0", "1"],
            ["1", "0", "0", "-1", "1"],
            ["-1", "0", "0", "1", "-1"],
        ],
        "B": [["0"], ["0"], ["0"], ["0"], ["0"], ["-1"], ["1"], ["0"], ["0"],
              ["-1"], ["1"], ["0"], ["0"], ["0"]],
        "b": ["0", "0", "1", "-1", "0", "1", "0", "0", "0", "1", "0", "0", "0",
              "0"],
        "d": ["1", "0", "0", "0", "0"],
        "leader_set": {"kind": "explicit", "vectors": [["0"], ["1"]]},
        "uncertainty": {
            "kind": "discrete",
            "scenarios": [
                ["0", "1", "0", "0", "0"],
                ["0", "0", "1", "0", "0"],
            ],
        },
        "mode_default": "optimistic",
        "var_map": ["y", "z1", "z2", "u1_1", "u2_1"],
    },
    "gates_optimistic": {
        "p": 1,
        "n": 4,
        "A": [
            ["1", "0", "0", "0"],
            ["-1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "-1", "0", "0"],
            ["1", "0", "-1", "0"],
            ["1", "0", "-1", "0"],
            ["-2", "0", "1", "0"],
            ["0", "0", "1", "0"],
            ["0", "-1", "0", "1"],
            ["0", "0", "-1", "1"],
            ["0", "1", "1", "-1"],
            ["0", "0", "0", "-1"],
        ],
        "B": [["0"], ["0"], ["-1"], ["1"], ["0"], ["0"], ["0"], ["0"], ["0"],
              ["0"], ["0"], ["0"]],
        "b": ["1", "0", "1", "-1", "0", "0", "0", "1", "0", "0", "1", "0"],
        "d": ["0", "0", "0", "1"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["-1", "0", "0", "0"],
            "upper": ["1", "0", "0", "0"],
        },
        "mode_default": "optimistic",
        "var_map": ["y1", "g1:not", "g2:or", "g3:and"],
        "M": "3",
    },
    "gates_pessimistic": {
        "p": 1,
        "n": 5,
        "A": [
            ["1", "0", "0", "0", "0"],
            ["-1", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0"],
            ["0", "-1", "0", "0", "0"],
            ["1", "0", "-1", "0", "0"],
            ["1", "0", "-1", "0", "0"],
            ["-2", "0", "1", "0", "0"],
            ["0", "0", "1", "0", "0"],
            ["0", "-1", "0", "1", "0"],
            ["0", "0", "-1", "1", "0"],
            ["0", "1", "1", "-1", "0"],
            ["0", "0", "0", "-1", "0"],
            ["0", "0", "0", "0", "-1"],
            ["-1", "0", "0", "0", "1"],
            ["1", "0", "0", "0", "1"],
        ],
        "B": [["0"], ["0"], ["-1"], ["1"], ["0"], ["0"], ["0"], ["0"], ["0"],
              ["0"], ["0"], ["0"], ["0"], ["0"], ["0"]],
        "b": ["1", "0", "1", "-1", "0", "0", "0", "1", "0", "0", "1", "0", "0",
              "0", "1"],
        "d": ["0", "0", "0", "1", "3"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["-1", "0", "0", "0", "1"],
            "upper": ["1", "0", "0", "0", "1"],
        },
        "mode_default": "pessimistic",
        "var_map": ["y1", "g1:not", "g2:or", "g3:and", "ydev1"],
        "M": "3",
    },
    "copy_optimistic": {
        "p": 1,
        "n": 1,
        "A": [
            ["1"],
            ["-1"],
        ],
        "B": [["1"], ["-1"]],
        "b": ["0", "0"],
        "d": ["1"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["0"],
            "upper": ["0"],
        },
        "mode_default": "optimistic",
        "var_map": ["g1:copy"],
        "M": "3",
    },
    "copy_pessimistic": {
        "p": 1,
        "n": 1,
        "A": [
            ["1"],
            ["-1"],
        ],
        "B": [["1"], ["-1"]],
        "b": ["0", "0"],
        "d": ["1"],
        "leader_set": {"kind": "all_binary"},
        "uncertainty": {
            "kind": "interval",
            "lower": ["0"],
            "upper": ["0"],
        },
        "mode_default": "pessimistic",
        "var_map": ["g1:copy"],
        "M": "3",
    },
}


def _or_x1_y1():
    return parse_formula("(or x1 y1)", 1, 1)


def _gates():
    return parse_formula("(and (not x1) (or y1 y1))", 1, 1)


def _copy():
    return parse_formula("x1", 1, 0)


LAYOUT_BUILDERS = {
    "optimistic": lambda: compile_qsat_optimistic(_or_x1_y1()),
    "pessimistic": lambda: compile_qsat_pessimistic(_or_x1_y1()),
    "relaxed": lambda: relax_leader(compile_qsat_optimistic(_or_x1_y1())),
    "simplex": lambda: box_to_simplex(compile_qsat_optimistic(_or_x1_y1())),
    "single_level": lambda: compile_single_level_robust(
        [(0,), (1,)], [(1,), (-1,)]),
    "gates_optimistic": lambda: compile_qsat_optimistic(_gates()),
    "gates_pessimistic": lambda: compile_qsat_pessimistic(_gates()),
    "copy_optimistic": lambda: compile_qsat_optimistic(_copy()),
    "copy_pessimistic": lambda: compile_qsat_pessimistic(_copy()),
}


@pytest.mark.parametrize("name", list(PINNED_LAYOUTS))
def test_compiled_layout_is_pinned(name):
    art = LAYOUT_BUILDERS[name]()
    doc = instance_to_json(art.instance, art.var_map, art.big_m)
    assert doc == PINNED_LAYOUTS[name]


# Every field of each layout's SolveReport, as rational strings:
# leader_x, value, worst_scenario, follower_y and the trace of
# (x, adversary value) pairs.  They fix the solvers' tie-breaks.
PINNED_REPORTS = {
    ("optimistic", "optimistic"):
        [["1"], "1", ["-1", "0"], ["0", "1"], [[["0"], "0"], [["1"], "1"]]],
    ("optimistic", "pessimistic"):
        [["1"], "1", ["0", "0"], ["0", "1"], [[["0"], "0"], [["1"], "1"]]],
    ("pessimistic", "optimistic"):
        [["1"], "5/2", ["0", "0", "1"], ["1/2", "1", "1/2"],
         [[["0"], "2"], [["1"], "5/2"]]],
    ("pessimistic", "pessimistic"):
        [["1"], "1", ["1", "0", "1"], ["1", "1", "0"],
         [[["0"], "0"], [["1"], "1"]]],
    ("relaxed", "optimistic"):
        [["1"], "1", ["-1", "0", "1"], ["0", "1", "0"],
         [[["0"], "0"], [["1"], "1"]]],
    ("relaxed", "pessimistic"):
        [["1"], "1", ["0", "0", "1"], ["0", "1", "0"],
         [[["0"], "0"], [["1"], "1"]]],
    ("simplex", "optimistic"):
        [["1"], "1", ["1", "0"], ["1", "1"], [[["0"], "0"], [["1"], "1"]]],
    ("simplex", "pessimistic"):
        [["1"], "1", ["0", "0"], ["0", "1"], [[["0"], "0"], [["1"], "1"]]],
    ("single_level", "optimistic"):
        [["0"], "0", ["0", "1", "0", "0", "0"], ["0", "1", "0", "0", "0"],
         [[["0"], "0"], [["1"], "-1"]]],
    ("single_level", "pessimistic"):
        [["0"], "0", ["0", "1", "0", "0", "0"], ["0", "1", "0", "0", "0"],
         [[["0"], "0"], [["1"], "-1"]]],
}


@pytest.mark.parametrize("name,mode", list(PINNED_REPORTS))
def test_solve_report_is_pinned(name, mode):
    report = solve_robust(LAYOUT_BUILDERS[name]().instance, Mode(mode))
    assert report == SolveReport(*rat_parse_nested(PINNED_REPORTS[name, mode]))


# The shadow of Y(x) at the first leader, as rows [coefficients..., rhs]
# in the order project_polytope returns them.  Vertex and face
# enumeration and the exposure LPs start from this list, so their pivot
# paths and tie-breaks hold only while it does.
PINNED_PROJECTIONS = {
    "optimistic": [["-1", "0"], ["1", "1"]],
    "pessimistic": [["-1", "1", "0"], ["0", "-1", "0"], ["1", "1", "1"]],
    "relaxed": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "1", "0"],
                ["1", "0", "1"]],
    "simplex": [["-1", "-1", "0"], ["0", "1", "1"], ["1", "0", "0"],
                ["1", "1", "0"]],
}


@pytest.mark.parametrize("name", list(PINNED_PROJECTIONS))
def test_shadow_projection_is_pinned(name):
    inst = LAYOUT_BUILDERS[name]().instance
    poly = inst.follower_polyhedron(enumerate_leader(inst)[0])
    shadow = project_polytope(poly, inst.uncertainty.shadow().columns)
    rows = tuple([row + (r,) for row, r in zip(shadow.a, shadow.rhs)])
    assert rows == rat_parse_nested(PINNED_PROJECTIONS[name])


# On the unit square c = d = (1, 0) makes the whole edge y1 = 1 the
# follower's argmax in both stages.
TIE_SQUARE = RobustBilevelInstance(
    p=1, n=2, lhs=[[1, 0], [0, 1], [-1, 0], [0, -1]],
    leader_mat=[[0]] * 4, rhs=[1, 1, 0, 0], leader_obj=[1, 0],
    leader_set=AllBinary(1), uncertainty=Interval((1, 0), (1, 0)))


def test_follower_tie_on_an_edge_is_pinned():
    # The response is the edge's vertex (1, 0).
    for mode in Mode:
        assert follower_response(TIE_SQUARE, (0,), (1, 0), mode) \
            == ((F(1), F(0)), F(1))


# Simplex pivots (`_Tableau.pivot` calls) for each layout's solve_robust
# and for the tie square's follower response, with the follower's tie
# stage continuing on the first stage's tableau and every solve on one
# Y(x) starting from its phase-one tableau.  A change to Bland's choices,
# the row scaling or the stages changes a count.
PINNED_PIVOTS = {
    ("optimistic", "optimistic"): 20, ("optimistic", "pessimistic"): 15,
    ("pessimistic", "optimistic"): 43, ("pessimistic", "pessimistic"): 50,
    ("relaxed", "optimistic"): 29, ("relaxed", "pessimistic"): 20,
    ("simplex", "optimistic"): 36, ("simplex", "pessimistic"): 27,
    ("single_level", "optimistic"): 32, ("single_level", "pessimistic"): 30,
    ("gates_optimistic", "optimistic"): 30,
    ("gates_optimistic", "pessimistic"): 17,
    ("gates_pessimistic", "optimistic"): 52,
    ("gates_pessimistic", "pessimistic"): 53,
    ("copy_optimistic", "optimistic"): 7,
    ("copy_optimistic", "pessimistic"): 5,
    ("copy_pessimistic", "optimistic"): 7,
    ("copy_pessimistic", "pessimistic"): 5,
    ("square", "optimistic"): 2, ("square", "pessimistic"): 2,
}
# Tableaux built (`_Tableau.__init__` calls): one for each polyhedron
# solved, so a solve that stops reusing its polyhedron's phase one raises
# a count.  The modes differ, as the shadow face scan skips different
# faces in each and builds no exposure LP for a skipped face.  The
# instance's memo builds no prune or exposure LP for a shadow already
# scanned, and no LP at all for a Y(x) already solved.
PINNED_TABLEAUX = {
    ("optimistic", "optimistic"): 7, ("optimistic", "pessimistic"): 6,
    ("pessimistic", "optimistic"): 13, ("pessimistic", "pessimistic"): 13,
    ("relaxed", "optimistic"): 9, ("relaxed", "pessimistic"): 8,
    ("simplex", "optimistic"): 11, ("simplex", "pessimistic"): 10,
    ("single_level", "optimistic"): 3, ("single_level", "pessimistic"): 3,
    ("gates_optimistic", "optimistic"): 7,
    ("gates_optimistic", "pessimistic"): 6,
    ("gates_pessimistic", "optimistic"): 13,
    ("gates_pessimistic", "pessimistic"): 13,
    ("copy_optimistic", "optimistic"): 3,
    ("copy_optimistic", "pessimistic"): 3,
    ("copy_pessimistic", "optimistic"): 3,
    ("copy_pessimistic", "pessimistic"): 3,
    ("square", "optimistic"): 1, ("square", "pessimistic"): 1,
}


def test_pivot_path_is_pinned(monkeypatch):
    calls, built = [], []
    pivot, init = lp._Tableau.pivot, lp._Tableau.__init__

    def counted(self, row, col):
        calls.append((row, col))
        pivot(self, row, col)

    def counted_init(self, poly):
        built.append(poly)
        init(self, poly)

    monkeypatch.setattr(lp._Tableau, "pivot", counted)
    monkeypatch.setattr(lp._Tableau, "__init__", counted_init)
    counts = {}
    for name in LAYOUT_BUILDERS:
        for mode in Mode:
            instance = LAYOUT_BUILDERS[name]().instance
            calls.clear()
            built.clear()
            solve_robust(instance, mode)
            counts[name, mode.value] = len(calls)
            assert len(built) == PINNED_TABLEAUX[name, mode.value]
    for mode in Mode:
        calls.clear()
        built.clear()
        follower_response(TIE_SQUARE, (0,), (1, 0), mode)
        counts["square", mode.value] = len(calls)
        assert len(built) == PINNED_TABLEAUX["square", mode.value]
    assert counts == PINNED_PIVOTS
