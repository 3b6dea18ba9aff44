"""Boolean formulas and the reductions into robust bilevel instances.

Formulas are ASTs over leader variables x1..xp and follower variables
y1..yn with negation and bivariate and/or.  The circuit is linearized
gate by gate into [0,1] variables; at binary inputs the gate constraints
pin every gate to its Boolean value.

Every compiler writes a constraint row as one sparse triple (follower
coefficients, leader coefficients, const), two dicts keyed by column
plus a rational, meaning follower·y <= leader·x + const; `_dense_rows`
turns the triples into the instance's lhs, leader_mat and rhs.  Gate
rows, the copy gate's included, are written through `_row` from their
(coefficient, column) terms.

Compilers provided here:

* `compile_qsat_optimistic` / `compile_qsat_pessimistic`: quantified
  satisfiability as a robust bilevel instance over the box [-1,1]^n
  (gates ride along with pinned zero objective coefficients; the
  pessimistic variant adds per-coordinate deviation penalties so that
  only extreme scenarios are ever worthwhile for the adversary).
* `relax_leader`: drops leader integrality, adding penalized deviation
  columns that force binary leader optima.
* `compile_single_level_robust`: embeds a robust single-level linear
  problem over scenarios into the bilevel form, one simplex-weight
  column per scenario plus product-linearization columns.
* `box_to_simplex`: swaps the [-1,1]^n box for the simplex spanned by
  -e and -e + 2n e_k, extended by the certain coordinates.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .bilevel import (
    AllBinary,
    ExplicitList,
    Mode,
    RelaxedBox,
    RobustBilevelInstance,
)
from .numeric import ONE, ZERO, Fraction, as_vector
from .uncertainty import ConvexHull, DiscreteSet, Interval


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class LeaderVar:
    index: int  # 1-based


@dataclass(frozen=True)
class FollowerVar:
    index: int  # 1-based


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


Node = Union[LeaderVar, FollowerVar, Not, And, Or]


@dataclass(frozen=True)
class Formula:
    root: Node
    p: int
    n: int


def evaluate(formula: Formula, x_bits: Sequence[int],
             y_bits: Sequence[int]) -> int:
    """Boolean value of the formula at a binary assignment."""
    if len(x_bits) != formula.p or len(y_bits) != formula.n:
        raise ValueError("assignment arity mismatch")

    def walk(node: Node) -> int:
        if isinstance(node, LeaderVar):
            return 1 if x_bits[node.index - 1] else 0
        if isinstance(node, FollowerVar):
            return 1 if y_bits[node.index - 1] else 0
        if isinstance(node, Not):
            return 1 - walk(node.child)
        if isinstance(node, And):
            return walk(node.left) & walk(node.right)
        return walk(node.left) | walk(node.right)

    return walk(formula.root)


def _leaf_count(node: Node) -> int:
    # Not a closure: a recursive closure is a cycle only gc frees.
    if isinstance(node, (LeaderVar, FollowerVar)):
        return 1
    if isinstance(node, Not):
        return _leaf_count(node.child)
    return _leaf_count(node.left) + _leaf_count(node.right)


def atomic_term_count(formula: Formula) -> int:
    """Number of variable occurrences (leaves) in the AST."""
    return _leaf_count(formula.root)


def big_m_for(formula: Formula) -> Fraction:
    """Deviation penalty weight: at least 3 and at least the leaf count."""
    return Fraction(max(3, atomic_term_count(formula)))


def formula_to_text(formula: Formula) -> str:
    def walk(node: Node) -> str:
        if isinstance(node, LeaderVar):
            return f"x{node.index}"
        if isinstance(node, FollowerVar):
            return f"y{node.index}"
        if isinstance(node, Not):
            return f"(not {walk(node.child)})"
        op = "and" if isinstance(node, And) else "or"
        return f"({op} {walk(node.left)} {walk(node.right)})"

    return walk(formula.root)


# ---------------------------------------------------------------------------
# Parsing.

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_VAR_RE = re.compile(r"^([xy])([0-9]+)$")


def _tokenize(text: str):
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        tokens.append((match.group(0), line, pos - line_start + 1))
        pos = match.end()
    return tokens


# Deepest nesting the parser accepts, well under the recursion limit: the
# parser and every walk over a formula (`evaluate`, `_leaf_count`,
# `formula_to_text`, `_emit`) recurse once per level.
MAX_NESTING = 500


def parse_formula(text: str, p: int, n: int) -> Formula:
    """Parse `(and e e) | (or e e) | (not e) | xI | yJ` with index checks."""
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1, 1)
    index = 0

    def peek():
        return tokens[index] if index < len(tokens) else (None, tokens[-1][1],
                                                          tokens[-1][2] + 1)

    def parse_expr(depth: int) -> Node:
        nonlocal index
        tok, line, col = peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", line, col)
        index += 1
        if tok == ")":
            raise FormulaSyntaxError("unexpected ')'", line, col)
        if tok == "(":
            if depth == MAX_NESTING:
                raise FormulaSyntaxError(
                    f"nested deeper than {MAX_NESTING}", line, col)
            op, op_line, op_col = peek()
            if op not in ("and", "or", "not"):
                raise FormulaSyntaxError(
                    f"expected and/or/not, found {op!r}", op_line, op_col)
            index += 1
            if op == "not":
                child = parse_expr(depth + 1)
                node: Node = Not(child)
            else:
                left = parse_expr(depth + 1)
                right = parse_expr(depth + 1)
                node = And(left, right) if op == "and" else Or(left, right)
            close, cl, cc = peek()
            if close != ")":
                raise FormulaSyntaxError("expected ')'", cl, cc)
            index += 1
            return node
        match = _VAR_RE.match(tok)
        if not match:
            raise FormulaSyntaxError(f"unexpected token {tok!r}", line, col)
        kind, num = match.group(1), int(match.group(2))
        if num < 1:
            raise FormulaSyntaxError("variable indices start at 1", line, col)
        if kind == "x":
            if num > p:
                raise FormulaSyntaxError(
                    f"x{num} out of range (p={p})", line, col)
            return LeaderVar(num)
        if num > n:
            raise FormulaSyntaxError(f"y{num} out of range (n={n})", line, col)
        return FollowerVar(num)

    root = parse_expr(0)
    if index != len(tokens):
        tok, line, col = tokens[index]
        raise FormulaSyntaxError(f"trailing input {tok!r}", line, col)
    return Formula(root, p, n)


_HEADER_RE = re.compile(r"^\s*p\s*=\s*([0-9]+)\s+n\s*=\s*([0-9]+)\s*$")


def parse_formula_file(text: str) -> Formula:
    """Read the `p=<int> n=<int>` header line plus one s-expression."""
    lines = text.splitlines()
    if not lines:
        raise FormulaSyntaxError("empty formula file", 1, 1)
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise FormulaSyntaxError("expected header 'p=<int> n=<int>'", 1, 1)
    p, n = int(match.group(1)), int(match.group(2))
    body = "\n" + "\n".join(lines[1:])
    return parse_formula(body, p, n)


def formula_file_text(formula: Formula) -> str:
    return (f"p={formula.p} n={formula.n}\n"
            f"{formula_to_text(formula)}\n")


# ---------------------------------------------------------------------------
# Linearization.


@dataclass
class LinearizedCircuit:
    """Gate rows of one formula.

    Rows are sparse row triples (module docstring).  `output` points at
    the column carrying the formula's value; a formula that is literally
    one leader variable has no follower column and reports ("x", i).
    """

    gate_names: list
    rows: list
    output: tuple


def _row(terms, const: Fraction) -> tuple:
    """The row triple of sum(coefficient * column) <= const, the terms
    being (coefficient, ("y"|"x", index)) pairs; leader terms move to the
    right-hand side."""
    fol, led = {}, {}
    for coeff, (kind, idx) in terms:
        side, sign = (fol, ONE) if kind == "y" else (led, -ONE)
        side[idx] = side.get(idx, ZERO) + sign * coeff
    return fol, led, const


def _emit(node: Node, n: int, gate_names: list, rows: list) -> tuple:
    """The column of node's value; a gate gets column n + its number.

    Appends the gate names and rows of node's subterms, children first.
    Not a closure, for the reason `_leaf_count` gives.
    """
    if isinstance(node, LeaderVar):
        return ("x", node.index - 1)
    if isinstance(node, FollowerVar):
        return ("y", node.index - 1)
    if isinstance(node, Not):
        a = _emit(node.child, n, gate_names, rows)
        kind = "not"
    else:
        a = _emit(node.left, n, gate_names, rows)
        b = _emit(node.right, n, gate_names, rows)
        kind = "and" if isinstance(node, And) else "or"
    g = ("y", n + len(gate_names))
    gate_names.append(f"g{len(gate_names) + 1}:{kind}")
    if kind == "not":
        rows += [_row([(ONE, g), (ONE, a)], ONE),     # g <= 1 - a
                 _row([(-ONE, a), (-ONE, g)], -ONE)]  # g >= 1 - a
    elif kind == "and":
        rows += [_row([(ONE, g), (-ONE, a)], ZERO),              # g <= a
                 _row([(ONE, g), (-ONE, b)], ZERO),              # g <= b
                 _row([(ONE, a), (ONE, b), (-ONE, g)], ONE),     # g >= a+b-1
                 _row([(-ONE, g)], ZERO)]                        # g >= 0
    else:
        rows += [_row([(ONE, a), (-ONE, g)], ZERO),              # g >= a
                 _row([(ONE, b), (-ONE, g)], ZERO),              # g >= b
                 _row([(ONE, g), (-ONE, a), (-ONE, b)], ZERO),   # g <= a+b
                 _row([(ONE, g)], ONE)]                          # g <= 1
    return g


def linearize(formula: Formula) -> LinearizedCircuit:
    """Gate constraints for the formula over x, y and [0,1] gate columns.

    At binary x, y the constraints force each gate to the Boolean value of
    its subterm.
    """
    gate_names, rows = [], []
    output = _emit(formula.root, formula.n, gate_names, rows)
    return LinearizedCircuit(gate_names, rows, output)


# ---------------------------------------------------------------------------
# Compilation into instances.


@dataclass(frozen=True)
class CompilationArtifacts:
    """A compiled instance plus bookkeeping for its follower columns; M is
    the penalty constant, None for a compiler without penalty columns."""

    instance: RobustBilevelInstance
    var_map: tuple
    big_m: Optional[Fraction]

    def column_of(self, name: str) -> int:
        return self.var_map.index(name)

    def original_y_count(self) -> int:
        count = 0
        for name in self.var_map:
            if re.match(r"^y[0-9]+$", name):
                count += 1
            else:
                break
        return count


def _dense_rows(rows, n_total: int, p: int):
    """Dense (lhs, leader_mat, rhs) tuples of sparse row triples."""
    lhs = tuple([tuple([fol.get(j, ZERO) for j in range(n_total)])
                 for fol, _, _ in rows])
    leader = tuple([tuple([led.get(i, ZERO) for i in range(p)])
                    for _, led, _ in rows])
    return lhs, leader, tuple([const for _, _, const in rows])


def _compile_qsat(formula: Formula, mode: Mode) -> CompilationArtifacts:
    circuit = linearize(formula)
    gate_names = list(circuit.gate_names)
    n_y = formula.n
    rows = []
    for j in range(n_y):
        rows.append(({j: ONE}, {}, ONE))    # y_j <= 1
        rows.append(({j: -ONE}, {}, ZERO))  # y_j >= 0
    rows += circuit.rows
    output = circuit.output
    if output[0] == "x":
        # Degenerate leaf-only formula over a leader variable: add one
        # pass-through gate so the value lives in a follower column.
        gate = ("y", n_y + len(gate_names))
        gate_names.append(f"g{len(gate_names) + 1}:copy")
        rows += [_row([(ONE, gate), (-ONE, output)], ZERO),  # g <= x
                 _row([(ONE, output), (-ONE, gate)], ZERO)]  # g >= x
        output = gate

    var_map = [f"y{j + 1}" for j in range(n_y)] + gate_names

    big_m = big_m_for(formula)
    n_gates = len(gate_names)
    lower = [-ONE] * n_y + [ZERO] * n_gates
    upper = [ONE] * n_y + [ZERO] * n_gates
    d = [ZERO] * (n_y + n_gates)
    d[output[1]] = ONE

    if mode is Mode.PESSIMISTIC:
        for i in range(n_y):
            dev_idx = len(var_map)
            var_map.append(f"ydev{i + 1}")
            rows.append(({dev_idx: -ONE}, {}, ZERO))        # dev >= 0
            rows.append(({dev_idx: ONE, i: -ONE}, {}, ZERO))  # dev <= y_i
            rows.append(({dev_idx: ONE, i: ONE}, {}, ONE))    # dev <= 1 - y_i
            d.append(big_m)
            lower.append(ONE)
            upper.append(ONE)

    n_total = len(var_map)
    lhs, leader_mat, rhs = _dense_rows(rows, n_total, formula.p)
    inst = RobustBilevelInstance(
        p=formula.p,
        n=n_total,
        lhs=lhs,
        leader_mat=leader_mat,
        rhs=rhs,
        leader_obj=d,
        leader_set=AllBinary(formula.p),
        uncertainty=Interval(tuple(lower), tuple(upper)),
        mode_default=mode,
    )
    return CompilationArtifacts(inst, tuple(var_map), big_m)


def compile_qsat_optimistic(formula: Formula) -> CompilationArtifacts:
    """Robust bilevel instance whose optimistic value is 1 iff the
    exists-forall formula is true (0 otherwise)."""
    return _compile_qsat(formula, Mode.OPTIMISTIC)


def compile_qsat_pessimistic(formula: Formula) -> CompilationArtifacts:
    """As optimistic, plus per-coordinate deviation columns with penalty
    weight M and a certain objective coefficient of 1, which keep the
    pessimistic follower honest on fractional points."""
    return _compile_qsat(formula, Mode.PESSIMISTIC)


def relax_leader(art: CompilationArtifacts) -> CompilationArtifacts:
    """Relax leader integrality; penalized deviation columns keep binary
    leaders optimal."""
    inst = art.instance
    if not isinstance(inst.uncertainty, Interval):
        raise ValueError("leader relaxation expects a box-uncertainty "
                         "compilation")
    if isinstance(inst.leader_set, RelaxedBox):
        raise ValueError("leader set is already relaxed")
    p = inst.p
    n_old = inst.n
    rows = []
    for i in range(p):
        dev = n_old + i
        rows.append(({dev: -ONE}, {}, ZERO))        # dev >= 0
        rows.append(({dev: ONE}, {i: ONE}, ZERO))   # dev <= x_i
        rows.append(({dev: ONE}, {i: -ONE}, ONE))   # dev <= 1 - x_i
    lhs, leader_mat, rhs = _dense_rows(rows, n_old + p, p)
    pad = (ZERO,) * p
    devs = (ONE,) * p
    inst2 = replace(
        inst,
        n=n_old + p,
        lhs=tuple([row + pad for row in inst.lhs]) + lhs,
        leader_mat=inst.leader_mat + leader_mat,
        rhs=inst.rhs + rhs,
        leader_obj=inst.leader_obj + (-art.big_m,) * p,
        leader_set=RelaxedBox(p),
        uncertainty=Interval(inst.uncertainty.lower + devs,
                             inst.uncertainty.upper + devs),
    )
    var_map = art.var_map + tuple([f"xdev{i + 1}" for i in range(p)])
    return CompilationArtifacts(inst2, var_map, art.big_m)


def box_to_simplex(art: CompilationArtifacts) -> CompilationArtifacts:
    """Replace the [-1,1]^k box on the original follower coordinates with
    the simplex spanned by -e and -e + 2k e_j, certain entries appended.

    The simplex contains the box, and the instance's value is unchanged.
    """
    inst = art.instance
    unc = inst.uncertainty
    if not isinstance(unc, Interval):
        raise ValueError("box-to-simplex expects interval uncertainty")
    n_y = art.original_y_count()
    for j in range(n_y):
        if unc.lower[j] != -ONE or unc.upper[j] != ONE:
            raise ValueError(f"column {j} is not a [-1,1] interval")
    for j in range(n_y, inst.n):
        if unc.lower[j] != unc.upper[j]:
            raise ValueError(f"column {j} is not certain")
    certain = tuple([unc.lower[j] for j in range(n_y, inst.n)])
    points = []
    base = [-ONE] * n_y
    points.append(tuple(base) + certain)
    for j in range(n_y):
        spike = list(base)
        spike[j] += 2 * n_y
        points.append(tuple(spike) + certain)
    inst2 = replace(inst, uncertainty=ConvexHull(tuple(points)))
    return CompilationArtifacts(inst2, art.var_map, art.big_m)


def compile_single_level_robust(x_set, scenarios) -> CompilationArtifacts:
    """Embed max_x min_j c_j·x over binary x into the bilevel form.

    Follower columns: a value column y, one simplex weight z_j per
    scenario, and product columns u_{j,i} linearizing x_i z_j.  Scenario
    j of the new-discrete set is the unit vector on z_j, zero elsewhere;
    under it the follower's unique optimum has z = e_j and y = c_j·x.
    """
    x_vectors = tuple([as_vector(v) for v in x_set])
    if not x_vectors:
        raise ValueError("leader set is empty")
    p = len(x_vectors[0])
    scenario_rows = tuple([as_vector(c) for c in scenarios])
    if not scenario_rows:
        raise ValueError("need at least one scenario")
    if any(len(c) != p for c in scenario_rows):
        raise ValueError("scenario dimension differs from leader arity")
    m_s = len(scenario_rows)

    var_map = ["y"] + [f"z{j + 1}" for j in range(m_s)]
    y_col = 0

    def z_col(j):
        return 1 + j

    rows = [({z_col(j): -ONE}, {}, ZERO) for j in range(m_s)]  # z_j >= 0
    z_sum = {z_col(j): ONE for j in range(m_s)}
    rows.append((z_sum, {}, ONE))                               # sum z <= 1
    rows.append(({k: -v for k, v in z_sum.items()}, {}, -ONE))  # sum z >= 1
    value = {y_col: ONE}  # y - sum c_{j,i} u_{j,i} = 0, filled below
    for j in range(m_s):
        for i in range(p):
            u, z = len(var_map), z_col(j)
            var_map.append(f"u{j + 1}_{i + 1}")
            rows.append(({u: -ONE}, {}, ZERO))                # u >= 0
            rows.append(({u: -ONE, z: ONE}, {i: -ONE}, ONE))  # u >= x + z - 1
            rows.append(({u: ONE}, {i: ONE}, ZERO))           # u <= x_i
            rows.append(({u: ONE, z: -ONE}, {}, ZERO))        # u <= z_j
            value[u] = -scenario_rows[j][i]
    rows.append((value, {}, ZERO))
    rows.append(({k: -v for k, v in value.items()}, {}, ZERO))
    n_total = len(var_map)
    lhs, leader_mat, rhs = _dense_rows(rows, n_total, p)

    d = [ZERO] * n_total
    d[y_col] = ONE
    tilde = []
    for j in range(m_s):
        scen = [ZERO] * n_total
        scen[z_col(j)] = ONE
        tilde.append(tuple(scen))
    inst = RobustBilevelInstance(
        p=p,
        n=n_total,
        lhs=lhs,
        leader_mat=leader_mat,
        rhs=rhs,
        leader_obj=d,
        leader_set=ExplicitList(x_vectors),
        uncertainty=DiscreteSet(tuple(tilde)),
        mode_default=Mode.OPTIMISTIC,
    )
    return CompilationArtifacts(inst, tuple(var_map), None)


# ---------------------------------------------------------------------------
# Formula generators for verification sweeps.


def exhaustive_family(p: int, n: int) -> list:
    """Deterministic formula family for one (p, n) arity pair.

    Exhaustive layers: every plain or negated single variable, and every
    ordered pair of plain variables under both binary connectives; topped
    up with fixed deeper shapes (majority, parity, nested chains) whose
    leaves cycle through the variables, reaching seven leaves.
    """
    variables = [LeaderVar(i + 1) for i in range(p)]
    variables += [FollowerVar(j + 1) for j in range(n)]
    if not variables:
        return []
    formulas = []
    for v in variables:
        formulas.append(Formula(v, p, n))
        formulas.append(Formula(Not(v), p, n))
    for a in variables:
        for b in variables:
            formulas.append(Formula(And(a, b), p, n))
            formulas.append(Formula(Or(a, b), p, n))

    def cyc(i: int) -> Node:
        return variables[i % len(variables)]

    structured = [
        Or(And(cyc(0), cyc(1)), And(cyc(2), cyc(3))),
        Or(And(cyc(0), cyc(1)),
           Or(And(cyc(0), cyc(2)), And(cyc(1), cyc(2)))),
        Or(And(cyc(0), Not(cyc(1))), And(Not(cyc(0)), cyc(1))),
        Or(And(cyc(0), cyc(1)),
           And(cyc(2), Or(And(cyc(3), cyc(4)), And(cyc(5), cyc(6))))),
    ]
    formulas.extend(Formula(node, p, n) for node in structured)
    return formulas


def full_family(max_p: int = 2, max_n: int = 2) -> list:
    """The exhaustive family across all arities up to (max_p, max_n)."""
    formulas = []
    for p in range(max_p + 1):
        for n in range(max_n + 1):
            if p == 0 and n == 0:
                continue
            formulas.extend(exhaustive_family(p, n))
    return formulas


def random_formula(rng: random.Random, p: int, n: int,
                   max_leaves: int) -> Formula:
    """Seeded random AST with at most max_leaves variable occurrences."""
    if p + n == 0:
        raise ValueError("need at least one variable")

    def leaf() -> Node:
        idx = rng.randrange(p + n)
        node: Node = (LeaderVar(idx + 1) if idx < p
                      else FollowerVar(idx + 1 - p))
        if rng.random() < 0.25:
            node = Not(node)
        return node

    def build(budget: int) -> Node:
        if budget <= 1:
            return leaf()
        roll = rng.random()
        if roll < 0.25:
            return leaf()
        if roll < 0.4:
            return Not(build(budget))
        left_budget = rng.randint(1, budget - 1)
        left = build(left_budget)
        right = build(budget - left_budget)
        return (And(left, right) if rng.random() < 0.5
                else Or(left, right))

    return Formula(build(max_leaves), p, n)
