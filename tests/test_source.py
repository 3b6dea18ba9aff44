import ast
from pathlib import Path

import rbo

MODULES = sorted(Path(rbo.__file__).parent.glob("*.py"))


def _tuples_from_generators(tree):
    """Lines that build a tuple from a generator expression: tuple(<gen>)
    or a *<gen> argument."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and node.args and isinstance(node.args[0], ast.GeneratorExp)):
            lines.append(node.lineno)
        lines += [arg.lineno for arg in node.args
                  if isinstance(arg, ast.Starred)
                  and isinstance(arg.value, ast.GeneratorExp)]
    return lines


def test_no_tuple_is_built_from_a_generator():
    # CPython sizes such a tuple at 10 slots and resizes it; freed, it joins
    # a per-length free list that only a full collection empties, so RSS grows.
    found = {path.name: _tuples_from_generators(ast.parse(path.read_text()))
             for path in MODULES}
    assert len(found) >= 8
    assert {name: lines for name, lines in found.items() if lines} == {}


def _fraction_calls(tree):
    """{qualified name of the enclosing def: lines} of each Fraction(...)
    call, '' for a call outside any def."""
    calls = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "Fraction"):
                calls.setdefault(scope, []).append(child.lineno)
            visit(child, scope)

    visit(tree, "")
    return calls


def test_lp_builds_fractions_only_for_the_lex_value():
    # The LP kernel pivots and certifies in ints, and a polyhedron is its
    # integer rows; a Fraction is built only for the value that
    # `solve_lex_lp` hands its callers.
    path = Path(rbo.__file__).parent / "lp.py"
    calls = _fraction_calls(ast.parse(path.read_text()))
    assert set(calls) <= {"solve_lex_lp"}


def test_oracle_reads_only_stored_instance_data():
    # The reference stays independent of the solver code: it imports
    # neither the LP kernel nor the geometry, and of an instance it reads
    # only stored data, never a view that solver code computes.
    tree = ast.parse((Path(rbo.__file__).parent / "oracle.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert imported.isdisjoint({"lp", "geometry", "rbo.lp", "rbo.geometry"})
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("rbo") for alias in node.names)]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "inst"}
    assert read <= {"p", "n", "rows", "leader_obj", "leader_set",
                    "uncertainty"}


def test_the_shadow_path_builds_fractions_only_for_scenarios():
    # The geometry works in ints alone.  The adversary's shadow scan
    # checks each direction in ints, so of the calls it makes only
    # `Shadow.scenario` builds Fractions: L·s for the follower's LPs.
    package = Path(rbo.__file__).parent
    assert _fraction_calls(ast.parse((package / "geometry.py").read_text())) \
        == {}
    tree = ast.parse((package / "bilevel.py").read_text())
    scan = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_shadow_scenarios")
    called = {node.func.id if isinstance(node.func, ast.Name)
              else node.func.attr
              for node in ast.walk(scan) if isinstance(node, ast.Call)}
    assert "scenario" in called
    assert called.isdisjoint({"Fraction", "as_vector", "dot", "integer_scaled",
                              "rat", "rat_parse"})
    assert not [node for node in ast.walk(scan) if isinstance(node, ast.Div)]
