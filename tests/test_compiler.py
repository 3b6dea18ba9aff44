import gc
import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbo.bilevel import (
    AllBinary,
    Mode,
    RelaxedBox,
    RobustBilevelInstance,
    SolveReport,
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
from rbo.lp import Sense
from rbo.numeric import ONE, ZERO, rat_parse_nested
from rbo.oracle import robust_single_level_oracle
from rbo.uncertainty import ConvexHull, DiscreteSet, Interval
from helpers import (formula_file_text, int_rows, polyhedron, rational_rows,
                     solve)


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


_GAP = st.text(alphabet=" \t\n", min_size=1, max_size=4)


@st.composite
def spaced_formulas(draw):
    """A random formula, its printed tokens, and one whitespace run before
    the first token and after each token."""
    p = draw(st.integers(0, 2))
    n = draw(st.integers(0 if p else 1, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    formula = random_formula(rng, p, n, draw(st.integers(1, 9)))
    text = formula_to_text(formula)
    tokens = text.replace("(", "( ").replace(")", " )").split()
    gaps = draw(st.lists(_GAP, min_size=len(tokens) + 1,
                         max_size=len(tokens) + 1))
    return formula, tokens, gaps


def _spaced(tokens, gaps):
    """tokens[k] followed by gaps[k], for each k."""
    return "".join([tok + gap for tok, gap in zip(tokens, gaps)])


@given(spaced_formulas())
@settings(max_examples=60, deadline=None)
def test_parse_ignores_the_whitespace_between_tokens(case):
    formula, tokens, gaps = case
    text = gaps[0] + _spaced(tokens, gaps[1:])
    assert parse_formula(text, formula.p, formula.n) == formula


@given(spaced_formulas(), st.data())
@settings(max_examples=60, deadline=None)
def test_parse_error_points_at_the_bad_token(case, data):
    formula, tokens, gaps = case
    k = data.draw(st.integers(0, len(tokens)))
    head = gaps[0] + _spaced(tokens[:k], gaps[1:k + 1])
    i = len(head)
    text = head + "z9" + data.draw(_GAP) + _spaced(tokens[k:], gaps[k + 1:])
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text, formula.p, formula.n)
    assert (err.value.line, err.value.column) == \
        (text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i))


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
    n_y = len(y_bits)
    rows, rhs = map(list, rational_rows(poly))
    for j in range(n_y):
        row = [ZERO] * inst.n
        row[j] = ONE
        rows.append(list(row))
        rhs.append(F(y_bits[j]))
        rows.append([-c for c in row])
        rhs.append(F(-y_bits[j]))
    pinned = polyhedron(rows, rhs)
    forced = []
    for col, name in enumerate(art.var_map):
        if not name.startswith("g"):
            continue
        unit = [ZERO] * inst.n
        unit[col] = ONE
        hi = solve(pinned, unit, Sense.MAX).value
        lo = solve(pinned, unit, Sense.MIN).value
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
    assert art.instance.leader_obj[art.var_map.index("g2:or")] == 1


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
        col = art.var_map.index(name)
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
    col = relaxed.var_map.index("xdev1")
    for x in ((F(0),), (F(1),)):
        c = tuple(inst.uncertainty.lower)
        y, _ = follower_response(inst, x, c, Mode.OPTIMISTIC)
        assert y[col] == 0


def test_relax_fractional_x_forces_deviation():
    relaxed = relax_leader(
        compile_qsat_optimistic(parse_formula("(or x1 y1)", 1, 1)))
    inst = relaxed.instance
    col = relaxed.var_map.index("xdev1")
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
            z_val = y_opt[art.var_map.index(f"z{k + 1}")]
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


@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("compile_qsat", [compile_qsat_optimistic,
                                          compile_qsat_pessimistic])
def test_box_to_simplex_reads_the_box_not_the_names(compile_qsat, relax):
    art = compile_qsat(_or_x1_y1())
    if relax:
        art = relax_leader(art)
    renamed = replace(art, var_map=tuple(
        [f"c{j}" for j in range(len(art.var_map))]))
    assert box_to_simplex(renamed).instance == box_to_simplex(art).instance


@pytest.mark.parametrize("lower,upper", [
    ((0, -1), (0, 1)),   # the free column is not the leading one
    ((0, 0), (1, 0)),    # the free column is not [-1,1]
])
def test_box_to_simplex_rejects_other_boxes(lower, upper):
    art = compile_qsat_optimistic(_or_x1_y1())
    box = replace(art.instance, uncertainty=Interval(lower, upper))
    with pytest.raises(ValueError, match="not a \\[-1,1\\] interval"):
        box_to_simplex(replace(art, instance=box))


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


def test_formula_walks_leave_nothing_for_gc():
    # A recursive closure is a cycle that only gc frees; the walks behind
    # evaluate and formula_to_text build none, so 1,000 calls of each with
    # gc off leave nothing for a collection to find.
    formula = parse_formula("(or (and x1 (not y1)) y2)", 1, 2)
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            evaluate(formula, (1,), (0, 1))
            formula_to_text(formula)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


# The shadow of Y(x) under all q columns of L at the first leader, as
# integer rows [coefficients..., rhs] in the order project_polytope
# returns them, redundant ones included.  The scan memo keys on these
# rows; the face order and the directions depend only on their sorted
# vertices, which no redundant row moves, so the pivot paths and
# tie-breaks hold while the vertices do.  The simplex layout's shadow is
# flat: its hull points (-1, 0) and (1, 0) are linearly dependent.
PINNED_PROJECTIONS = {
    "optimistic": [["-1", "0"], ["1", "1"]],
    "pessimistic": [["-1", "0", "0"], ["-1", "1", "0"], ["0", "-1", "0"],
                    ["1", "0", "1"], ["1", "1", "1"]],
    "relaxed": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "1", "0"],
                ["1", "0", "1"]],
    "simplex": [["-1", "-1", "0"], ["-1", "0", "1"], ["1", "0", "0"],
                ["1", "1", "0"]],
}


@pytest.mark.parametrize("name", list(PINNED_PROJECTIONS))
def test_shadow_projection_is_pinned(name):
    inst = LAYOUT_BUILDERS[name]().instance
    poly = inst.follower_polyhedron(inst.leader_set.candidates(inst.p)[0])
    shadow = project_polytope(poly, inst.uncertainty.shadow().columns)
    assert shadow.rows == tuple([tuple([int(c) for c in row])
                                 for row in PINNED_PROJECTIONS[name]])


# On the unit square c = d = (1, 0) makes the whole edge y1 = 1 the
# follower's argmax in both stages.
TIE_SQUARE = RobustBilevelInstance(
    p=1, n=2,
    rows=int_rows([[1, 0], [0, 1], [-1, 0], [0, -1]], [[0]] * 4, [1, 1, 0, 0]),
    leader_obj=[1, 0],
    leader_set=AllBinary(), uncertainty=Interval((1, 0), (1, 0)))


def test_follower_tie_on_an_edge_is_pinned():
    # The response is the edge's vertex (1, 0).
    for mode in Mode:
        assert follower_response(TIE_SQUARE, (0,), (1, 0), mode) \
            == ((F(1), F(0)), F(1))


# Simplex pivots (`_Tableau.pivot` calls) for each layout's solve_robust
# and for the tie square's follower response.  Each Y(x) pivots its free
# columns in once, at the end of its phase one; every solve on it starts
# from that tableau, where only slacks enter, the follower's tie stage
# continues on the first stage's tableau, and the replay's tie stage
# starts from the first-stage tableau that Y(x) kept from the
# adversary's solve of the worst scenario.  A change to Bland's choices,
# the row scaling or the stages changes a count.
PINNED_PIVOTS = {
    ("optimistic", "optimistic"): 12, ("optimistic", "pessimistic"): 10,
    ("pessimistic", "optimistic"): 14, ("pessimistic", "pessimistic"): 19,
    ("relaxed", "optimistic"): 18, ("relaxed", "pessimistic"): 14,
    ("simplex", "optimistic"): 12, ("simplex", "pessimistic"): 10,
    ("single_level", "optimistic"): 27, ("single_level", "pessimistic"): 28,
    ("gates_optimistic", "optimistic"): 15,
    ("gates_optimistic", "pessimistic"): 14,
    ("gates_pessimistic", "optimistic"): 18,
    ("gates_pessimistic", "pessimistic"): 25,
    ("copy_optimistic", "optimistic"): 6,
    ("copy_optimistic", "pessimistic"): 5,
    ("copy_pessimistic", "optimistic"): 6,
    ("copy_pessimistic", "pessimistic"): 5,
    ("square", "optimistic"): 3, ("square", "pessimistic"): 3,
}
# sha256 of repr of the (row, entering label) list of those pivots, so
# a change that keeps each count but takes another path fails too.
PINNED_PIVOT_PATHS = {
    ("optimistic", "optimistic"):
        "b41bc4ace4a7b9017af4c849b53a66d7a32b109e9ed818849a940daf00b7cc4f",
    ("optimistic", "pessimistic"):
        "3f804c0de9c994dcd246add331b52b1902c044b15be23aacef7819b54f6a52fc",
    ("pessimistic", "optimistic"):
        "12b1b00b07258227048bb74becdec0b27b6d4fdffed60809dd200b6caf58705b",
    ("pessimistic", "pessimistic"):
        "0122d2f29d40d08dbcf46778070c1087ab16ee731a10116ccc6ee395df77b4b3",
    ("relaxed", "optimistic"):
        "fcf0860bed1224bceae7c86f44320d998d63144b43ee2729633cdcee3bb1c5d2",
    ("relaxed", "pessimistic"):
        "06db0d975c98194fcbd68ad56def8587a243d6f3800fae27d281e86ff0e18d4f",
    ("simplex", "optimistic"):
        "9b56ad0c962460c0b8b3db3f50d6768ce2c74c84143ae8133a38c6f75ea15468",
    ("simplex", "pessimistic"):
        "3f804c0de9c994dcd246add331b52b1902c044b15be23aacef7819b54f6a52fc",
    ("single_level", "optimistic"):
        "2eff91f19e6ecf628a58e7707f5145f84c6e1914a9d85972f1a5d752a7ea01b7",
    ("single_level", "pessimistic"):
        "09de622e5f928fa012617be9d773055e97c60f14a71a2ff517f8680051266aa9",
    ("gates_optimistic", "optimistic"):
        "531baf5e4203da9caa48f1080d60e2f8011dde5616c24ddd9a92ead31293294a",
    ("gates_optimistic", "pessimistic"):
        "ce4113ec2d3dfc04bfee61336b83bd12c1132a587fcaafa0998a8e50161fdf0d",
    ("gates_pessimistic", "optimistic"):
        "d931d6ebdd81dbcb396ccbde0b8cebdebf5c3972ba34575dda3b4a080c7dd34e",
    ("gates_pessimistic", "pessimistic"):
        "8f771cbf9f3b91a4f6c5f7b7fcfa10f0b1c66b7c6dcbc56a6c0aed471a236f8d",
    ("copy_optimistic", "optimistic"):
        "46a76064ed4b3eaaf31b1f16a79eef91e92889ca4fa6e16960fa42a1cfa9deca",
    ("copy_optimistic", "pessimistic"):
        "00a3bcaddbe54c2eceb336f3bfe215b9c6dcbcd56b6ca7ff0eaeefb9df86623e",
    ("copy_pessimistic", "optimistic"):
        "46a76064ed4b3eaaf31b1f16a79eef91e92889ca4fa6e16960fa42a1cfa9deca",
    ("copy_pessimistic", "pessimistic"):
        "00a3bcaddbe54c2eceb336f3bfe215b9c6dcbcd56b6ca7ff0eaeefb9df86623e",
    ("square", "optimistic"):
        "89ce6a4ceef89ed93347c791badbebf7e38bf6e7456d114e14872d17ee49f77d",
    ("square", "pessimistic"):
        "89ce6a4ceef89ed93347c791badbebf7e38bf6e7456d114e14872d17ee49f77d",
}
# Tableaux built (`_Tableau.__init__` calls): one for each polyhedron
# solved, so a solve that stops reusing its polyhedron's phase one raises
# a count.  The shadow's projection, its vertices and its exposed faces
# take no LP, so every layout builds one tableau for each Y(x) in either
# mode.  The instance's memo builds no LP at all for a Y(x) already
# solved, and no second tableau for one Y(x): the replay solves on its
# leader's.
PINNED_TABLEAUX = {
    ("optimistic", "optimistic"): 2, ("optimistic", "pessimistic"): 2,
    ("pessimistic", "optimistic"): 2, ("pessimistic", "pessimistic"): 2,
    ("relaxed", "optimistic"): 2, ("relaxed", "pessimistic"): 2,
    ("simplex", "optimistic"): 2, ("simplex", "pessimistic"): 2,
    ("single_level", "optimistic"): 2, ("single_level", "pessimistic"): 2,
    ("gates_optimistic", "optimistic"): 2,
    ("gates_optimistic", "pessimistic"): 2,
    ("gates_pessimistic", "optimistic"): 2,
    ("gates_pessimistic", "pessimistic"): 2,
    ("copy_optimistic", "optimistic"): 2,
    ("copy_optimistic", "pessimistic"): 2,
    ("copy_pessimistic", "optimistic"): 2,
    ("copy_pessimistic", "pessimistic"): 2,
    ("square", "optimistic"): 1, ("square", "pessimistic"): 1,
}


def _digest(calls):
    return hashlib.sha256(repr(calls).encode()).hexdigest()


def test_pivot_path_is_pinned(monkeypatch):
    calls, built = [], []
    pivot, init = lp._Tableau.pivot, lp._Tableau.__init__

    def counted(self, row, col):
        calls.append((row, self.nonbasic[col]))
        pivot(self, row, col)

    def counted_init(self, poly):
        built.append(poly)
        init(self, poly)

    monkeypatch.setattr(lp._Tableau, "pivot", counted)
    monkeypatch.setattr(lp._Tableau, "__init__", counted_init)
    counts, paths = {}, {}
    for name in LAYOUT_BUILDERS:
        for mode in Mode:
            instance = LAYOUT_BUILDERS[name]().instance
            calls.clear()
            built.clear()
            solve_robust(instance, mode)
            counts[name, mode.value] = len(calls)
            paths[name, mode.value] = _digest(calls)
            assert len(built) == PINNED_TABLEAUX[name, mode.value]
    for mode in Mode:
        calls.clear()
        built.clear()
        # A fresh copy, as TIE_SQUARE keeps its Y(x) once solved on.
        follower_response(replace(TIE_SQUARE), (0,), (1, 0), mode)
        counts["square", mode.value] = len(calls)
        paths["square", mode.value] = _digest(calls)
        assert len(built) == PINNED_TABLEAUX["square", mode.value]
    assert counts == PINNED_PIVOTS
    assert paths == PINNED_PIVOT_PATHS
