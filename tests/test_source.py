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
