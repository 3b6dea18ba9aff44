import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbo
from rbo import bilevel, compiler, lp
from rbo.bilevel import Mode, instance_to_json, load_instance, solve_robust
from rbo.cli import build_parser, main
from rbo.compiler import (
    MAX_FOLLOWER_VARS,
    MAX_NESTING,
    FormulaSyntaxError,
    compile_single_level_robust,
    evaluate,
    formula_to_text,
    parse_formula,
)


def write_formula(tmp_path, text):
    path = tmp_path / "formula.txt"
    path.write_text(text)
    return str(path)


def test_compile_and_solve_pipeline(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out]) == 0
    printed = capsys.readouterr().out
    assert "M = 3" in printed and "y1" in printed and "g1:or" in printed

    assert main(["solve", out]) == 0
    printed = capsys.readouterr().out
    assert "value: 1" in printed
    assert "leader x: (1)" in printed


def test_round_trip_matches_in_memory(tmp_path, capsys):
    formula_text = "p=1 n=1\n(and (or x1 y1) (not y1))\n"
    formula = write_formula(tmp_path, formula_text)
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out,
                 "--mode", "pessimistic"]) == 0
    capsys.readouterr()
    loaded, meta = load_instance(out)
    art = __import__("rbo.compiler", fromlist=["compile_qsat_pessimistic"]) \
        .compile_qsat_pessimistic(parse_formula("(and (or x1 y1) (not y1))",
                                                1, 1))
    assert loaded == art.instance
    assert meta["var_map"] == list(art.var_map)
    assert (solve_robust(loaded, Mode.PESSIMISTIC).value
            == solve_robust(art.instance, Mode.PESSIMISTIC).value)


def test_pessimistic_compile_reports_dev_columns(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=0 n=1\ny1\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out,
                 "--mode", "pessimistic"]) == 0
    printed = capsys.readouterr().out
    assert "ydev1" in printed and "M = 3" in printed


def test_simplex_uncertainty_flag(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=0 n=2\n(and y1 y2)\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out,
                 "--simplex-uncertainty"]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "inst.json").read_text())
    assert doc["uncertainty"]["kind"] == "convex_hull"
    assert [pt[:2] for pt in doc["uncertainty"]["points"]] == \
        [["-1", "-1"], ["3", "-1"], ["-1", "3"]]


def test_adversary_command(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    main(["compile-qsat", formula, "-o", out])
    capsys.readouterr()
    assert main(["adversary", out, "--x", "0"]) == 0
    printed = capsys.readouterr().out
    assert "adversary value: 0" in printed
    assert main(["adversary", out, "--x", "1"]) == 0
    printed = capsys.readouterr().out
    assert "adversary value: 1" in printed


def test_follower_command_and_outside_warning(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    main(["compile-qsat", formula, "-o", out])
    capsys.readouterr()
    assert main(["follower", out, "--x", "0", "--c", "0,0",
                 "--mode", "pessimistic"]) == 0
    captured = capsys.readouterr()
    assert "leader value: 0" in captured.out
    assert main(["follower", out, "--x", "0", "--c", "5,0"]) == 0
    captured = capsys.readouterr()
    assert "outside the uncertainty set" in captured.err
    # The leader set is all_binary: x = 1/2 lies outside it, x = 1 not.
    assert main(["adversary", out, "--x", "1/2"]) == 0
    captured = capsys.readouterr()
    assert "adversary value: 1/2" in captured.out
    assert "warning: leader vector lies outside the leader set" \
        in captured.err
    assert main(["adversary", out, "--x", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_follower_scenario_of_the_wrong_length_is_only_an_error(
        tmp_path, capsys):
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    main(["compile-qsat", formula, "-o", out])
    capsys.readouterr()
    assert main(["follower", out, "--x", "0", "--c", "1"]) == 2
    assert capsys.readouterr().err \
        == "error: scenario has dimension 1 != 2\n"


def test_negative_scenario_is_passed_with_equals(tmp_path, capsys):
    # argparse takes "-1,0" after a space for an unknown option.
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    main(["compile-qsat", formula, "-o", out])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["follower", out, "--x", "0", "--c", "-1,0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["follower", out, "--x", "0", "--c=-1,0",
                 "--mode", "pessimistic"]) == 0
    assert "leader value: 0" in capsys.readouterr().out


def test_leader_warning_follows_the_leader_set(tmp_path, capsys):
    # An explicit list warns on a binary vector it does not list; a
    # relaxed box takes a fractional one without a word.
    spec = tmp_path / "rs.json"
    spec.write_text(json.dumps({"X": [[0, 0], [1, 1]],
                                "scenarios": [["1", "0"]]}))
    listed = str(tmp_path / "rs_inst.json")
    main(["compile-rs", str(spec), "-o", listed])
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    relaxed = str(tmp_path / "relaxed.json")
    main(["compile-qsat", formula, "-o", relaxed, "--relax-leader"])
    capsys.readouterr()
    for path, x, warned in [(listed, "1,1", False), (listed, "0,1", True),
                            (relaxed, "1/2", False)]:
        assert main(["adversary", path, "--x", x]) == 0
        assert ("outside the leader set" in capsys.readouterr().err) \
            == warned


def test_decimal_flag(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=0 n=1\ny1\n")
    out = str(tmp_path / "inst.json")
    main(["compile-qsat", formula, "-o", out, "--mode", "pessimistic"])
    capsys.readouterr()
    assert main(["follower", out, "--x", "", "--c", "0,1", "--decimal"]) == 0
    printed = capsys.readouterr().out
    assert "(approx)" in printed
    assert "1/2" in printed and "0.5" in printed
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    main(["compile-qsat", formula, "-o", out])
    capsys.readouterr()
    assert main(["solve", out, "--decimal"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "leader x: (1) ~= (1) (approx)" in printed
    assert "worst scenario: (-1, 0) ~= (-1, 0) (approx)" in printed


def test_compile_rs_command(tmp_path, capsys):
    spec = tmp_path / "rs.json"
    spec.write_text(json.dumps({"X": [[0], [1]],
                                "scenarios": [["1"], ["-1"]]}))
    out = str(tmp_path / "rs_inst.json")
    assert main(["compile-rs", str(spec), "-o", out]) == 0
    capsys.readouterr()
    assert main(["solve", out]) == 0
    printed = capsys.readouterr().out
    assert "value: 0" in printed


def test_compile_rs_writes_the_artifact(tmp_path, capsys):
    spec = tmp_path / "rs.json"
    spec.write_text(json.dumps({"X": [[0], [1]],
                                "scenarios": [["1"], ["-1"]]}))
    out = tmp_path / "rs_inst.json"
    assert main(["compile-rs", str(spec), "-o", str(out)]) == 0
    capsys.readouterr()
    art = compile_single_level_robust([(0,), (1,)], [(1,), (-1,)])
    assert (json.loads(out.read_text())
            == instance_to_json(art.instance, art.var_map, art.big_m))


@pytest.mark.parametrize("spec", [
    [], {"X": 5, "scenarios": [[1]]},
    {"X": ["01", "10"], "scenarios": [[1, -1]]},
    {"X": "01", "scenarios": [[1]]},
    {"X": [{"1": 0}], "scenarios": [[1]]},
    {"X": [[1]], "scenarios": "1"},
])
def test_compile_rs_malformed_spec(tmp_path, capsys, spec):
    path = tmp_path / "rs.json"
    path.write_text(json.dumps(spec))
    out = str(tmp_path / "rs_inst.json")
    assert main(["compile-rs", str(path), "-o", out]) == 2
    assert single_error_line(capsys)


def test_every_option_has_help():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if action.dest == "command").choices
    for name, command in [("rbo", parser)] + sorted(commands.items()):
        for action in command._actions:
            if action.option_strings and action.dest != "help":
                assert action.help, (name, action.option_strings)


def test_verify_suites_pass(capsys):
    assert main(["verify", "--suite", "all", "--max-p", "1", "--max-n", "1",
                 "--random-count", "2"]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed.replace("0 failed", "")


def test_verify_fails_on_a_wrong_value(monkeypatch, capsys):
    # An oracle that calls every formula false fails each true one.
    monkeypatch.setattr("rbo.oracle.qsat_oracle", lambda formula: False)
    assert main(["verify", "--suite", "qsat", "--max-p", "1", "--max-n",
                 "1", "--random-count", "0"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "36 passed, 28 failed, 0 skipped"


@pytest.mark.parametrize("flag", ["--max-p", "--max-n", "--random-count"])
def test_verify_refuses_a_negative_count(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main(["verify", flag, "-1"])
    assert stop.value.code == 2
    assert (f"argument {flag}: '-1' is not an integer >= 0"
            in capsys.readouterr().err)


def test_demo(capsys):
    assert main(["demo"]) == 0
    printed = capsys.readouterr().out
    assert "robust value 1" in printed


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p=1 n=1\n(zzz x1)\n")
    out = str(tmp_path / "ignored.json")
    assert main(["compile-qsat", str(bad), "-o", out]) == 2
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_parser_survives_a_failed_parse(tmp_path, capsys):
    # main builds its parser once per process; after a parse that exits
    # 2, a solve prints what it prints in a fresh process.
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out]) == 0
    for bad in (["solve", out, "--mode", "neither"], ["solve"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["solve", out, "--decimal"]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(rbo.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "rbo.cli", "solve", out, "--decimal"],
        capture_output=True, text=True, env=env, check=True)
    assert capsys.readouterr().out == fresh.stdout
    assert build_parser() is build_parser()


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # 2^21 leader vectors: one more bit than bilevel.MAX_LEADER_BITS.  The
    # compiler refuses such a file, so it is written by hand here.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "p": 21, "n": 1, "A": [["1"], ["-1"]], "B": [["0"] * 21] * 2,
        "b": ["1", "0"], "d": ["1"], "leader_set": {"kind": "all_binary"},
        "uncertainty": {"kind": "interval", "lower": ["-1"],
                        "upper": ["1"]}}))
    assert main(["solve", str(path)]) == 3
    assert "2^21" in capsys.readouterr().err


def test_compile_refuses_a_leader_set_no_solve_loads(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=21 n=1\n(or x1 y1)\n")
    out = tmp_path / "inst.json"
    assert main(["compile-qsat", formula, "-o", str(out)]) == 3
    assert ("leader enumeration over 2^21 vectors exceeds 2^20"
            in capsys.readouterr().err)
    assert not out.exists()


def test_compile_refuses_too_many_follower_variables(tmp_path, capsys,
                                                     monkeypatch):
    # At the bound a formula compiles in both modes; one follower
    # variable over it is refused before the circuit or any row is built.
    out = tmp_path / "inst.json"
    formula = write_formula(tmp_path, f"p=0 n={MAX_FOLLOWER_VARS}\ny1\n")
    for mode in ("optimistic", "pessimistic"):
        assert main(["compile-qsat", formula, "-o", str(out),
                     "--mode", mode]) == 0
    out.unlink()
    monkeypatch.setattr(compiler, "linearize", None)
    formula = write_formula(tmp_path,
                            f"p=0 n={MAX_FOLLOWER_VARS + 1}\ny1\n")
    for mode in ("optimistic", "pessimistic"):
        assert main(["compile-qsat", formula, "-o", str(out),
                     "--mode", mode]) == 3
        assert (f"{MAX_FOLLOWER_VARS + 1} follower variables exceed "
                f"{MAX_FOLLOWER_VARS}" in capsys.readouterr().err)
    assert not out.exists()


def test_malformed_instance_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"p": 1, "n": 1}))
    assert main(["solve", str(path)]) == 2


def compiled_instance(tmp_path, capsys):
    formula = write_formula(tmp_path, "p=1 n=1\n(or x1 y1)\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out]) == 0
    capsys.readouterr()
    return out


def single_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("path,value", [
    (("b", 0), 1),                        # a JSON number, not a string
    (("leader_set",), "all_binary"),      # not an object
    (("uncertainty",), "interval"),       # not an object
    (("uncertainty", "lower", 0), -1),    # a JSON number, not a string
    (("p",), 1.5),                        # not a JSON integer
    (("var_map",), "abc"),                # not a list of n strings
    (("b", 0), ["1"]),                    # a list, not a string
    (("A", 0, 0), ["1"]),                 # a list, not a string
])
def test_malformed_instance_values(tmp_path, capsys, path, value):
    out = compiled_instance(tmp_path, capsys)
    with open(out) as handle:
        doc = json.load(handle)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with open(out, "w") as handle:
        json.dump(doc, handle)
    assert main(["solve", out]) == 2
    assert single_error_line(capsys)


@pytest.mark.parametrize("key,value,message", [
    ("leader_set", {"kind": "explicit", "vectors": [["2"]]},
     "non-binary leader vector (2)"),
    ("b", ["-1", "0", "0", "0", "0", "1"], "Y(x) is empty for x=(0)"),
])
def test_vector_errors_are_rational(tmp_path, capsys, key, value, message):
    out = compiled_instance(tmp_path, capsys)
    with open(out) as handle:
        doc = json.load(handle)
    doc[key] = value
    with open(out, "w") as handle:
        json.dump(doc, handle)
    assert main(["solve", out]) == 2
    err = capsys.readouterr().err
    assert message in err and "Fraction(" not in err


@pytest.mark.parametrize("where", [None, "leader_set", "uncertainty"])
def test_unknown_keys_are_refused(tmp_path, capsys, where):
    # A misspelled mode_default used to fall back to optimistic and
    # report 5/2; a field that a kind does not declare was ignored.
    formula = write_formula(tmp_path, "p=1 n=1\n(or (not x1) y1)\n")
    out = tmp_path / "inst.json"
    assert main(["compile-qsat", formula, "-o", str(out),
                 "--mode", "pessimistic"]) == 0
    assert main(["solve", str(out)]) == 0
    assert "mode: pessimistic\nvalue: 1\n" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    if where is None:
        key = "mode_defualt"
        doc[key] = doc.pop("mode_default")
    else:
        key = "foo"
        doc[where][key] = 1
    out.write_text(json.dumps(doc))
    assert main(["solve", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: unknown key {key!r}")


def _json_values():
    """Any JSON value: null, bool, int, string, list or object."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6)


def _paths(value, path=()):
    """The path of value and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _paths(child, path + (key,))


def _mutated(doc, data):
    """doc with one key of an object deleted or added, or one value at any
    depth, doc itself included, replaced by a random JSON value."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    objects = [path for path in paths if isinstance(_at(doc, path), dict)]
    how = data.draw(st.sampled_from(["delete", "add", "replace"]))
    if how == "delete":
        target = _at(doc, data.draw(st.sampled_from(
            [path for path in objects if _at(doc, path)])))
        del target[data.draw(st.sampled_from(sorted(target)))]
        return doc
    if how == "add":
        path = data.draw(st.sampled_from(objects)) + (
            data.draw(st.text(max_size=6)),)
    else:
        path = data.draw(st.sampled_from(paths))
    value = data.draw(_json_values())
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _exit_contract(argv):
    """Run main(argv): it must exit 0, 2 or 3 without raising, and a
    nonzero exit writes exactly one error: line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error:")


def _saved(art):
    """The document that save_instance writes for a compiled artifact."""
    return instance_to_json(art.instance, art.var_map, art.big_m)


SAVED_DOCS = (
    _saved(compiler.compile_qsat_pessimistic(
        parse_formula("(or (not x1) y1)", 1, 1))),
    _saved(compile_single_level_robust([(0, 1), (1, 0), (1, 1)],
                                       [(1, -2), (-1, 1)])),
)
RS_SPEC = {"X": [[0, 1], [1, 0], [1, 1]], "scenarios": [[1, -2], [-1, 1]]}
FUZZ_EXAMPLES = 40  # per loader; both take about 1 s of tier-1 time


@given(doc=st.sampled_from(SAVED_DOCS), data=st.data())
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
def test_solve_keeps_its_exit_contract_on_mutated_documents(
        tmp_path_factory, doc, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_instance.json"
    path.write_text(json.dumps(_mutated(doc, data)))
    _exit_contract(["solve", str(path)])


@given(data=st.data())
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
def test_compile_rs_keeps_its_exit_contract_on_mutated_specs(
        tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed_spec.json"
    path.write_text(json.dumps(_mutated(RS_SPEC, data)))
    _exit_contract(["compile-rs", str(path), "-o", str(base / "rs.json")])


@pytest.mark.parametrize("command", [
    ["adversary", "--x", "5"],
    ["follower", "--x", "5", "--c", "1,0"],
])
def test_leader_with_empty_follower_set(tmp_path, capsys, command):
    out = compiled_instance(tmp_path, capsys)
    assert main([command[0], out] + command[1:]) == 2
    assert capsys.readouterr().err == "error: Y(x) is empty for x=(5)\n"


@pytest.mark.parametrize("lhs,rhs", [
    ([["-1"]], ["0"]),                          # rank A = n: y1 >= 0
    ([["1", "0"], ["-1", "0"]], ["1", "0"]),    # rank A < n: y2 is free
])
def test_unbounded_follower_set_is_refused(tmp_path, capsys, lhs, rhs):
    n = len(lhs[0])
    doc = {"p": 0, "n": n, "A": lhs, "B": [[] for _ in lhs], "b": rhs,
           "d": ["1"] + ["0"] * (n - 1), "leader_set": {"kind": "all_binary"},
           "uncertainty": {"kind": "interval", "lower": ["0"] * n,
                           "upper": ["1"] * n}}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "error: Y(x) is unbounded for x=()\n"


def _failed_certificate(*args):
    raise lp.LpInternalError("dual certificate check failed")


def _wrong_adversary_value(inst, x, mode):
    return inst.uncertainty.lower, F(7)


def _point_outside(tableau):
    return [10 ** 9] * tableau.n, 1


@pytest.mark.parametrize("module,name,fake", [
    (lp, "_verify_certificate", _failed_certificate),
    (lp._Tableau, "point", _point_outside),
    (bilevel, "adversary_geometric", _wrong_adversary_value),
])
def test_broken_invariant_exit_code(tmp_path, capsys, monkeypatch, module,
                                    name, fake):
    out = compiled_instance(tmp_path, capsys)
    monkeypatch.setattr(module, name, fake)
    assert main(["solve", out]) == 4
    assert single_error_line(capsys)


def _nested_not(depth):
    return "(not " * depth + "y1" + ")" * depth


@pytest.mark.parametrize("command,text", [
    ("compile-qsat", "p=0 n=1\n" + _nested_not(3000) + "\n"),
    ("solve", "[" * 100000 + "]" * 100000),
    ("compile-rs", "[" * 100000 + "]" * 100000),
    ("solve", '{"p": 1, "n": 1, "A": ' + "[" * 900 + "]" * 900 + "}"),
], ids=["formula", "instance", "spec", "instance-field"])
def test_deeply_nested_input_is_refused(tmp_path, capsys, command, text):
    path = tmp_path / "deep.txt"
    path.write_text(text)
    out = str(tmp_path / "out.json")
    args = [command, str(path)] + (["-o", out] if command != "solve" else [])
    assert main(args) == 2
    assert single_error_line(capsys)


def test_formula_at_the_nesting_limit_compiles(tmp_path, capsys):
    text = _nested_not(MAX_NESTING)
    formula = parse_formula(text, 0, 1)
    assert formula_to_text(formula) == text
    assert evaluate(formula, (), (1,)) == 1 - MAX_NESTING % 2
    path = write_formula(tmp_path, "p=0 n=1\n" + text + "\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", path, "-o", out]) == 0
    assert f"g{MAX_NESTING}:not" in capsys.readouterr().out
    deeper = "(not " + text + ")"
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(deeper, 0, 1)
    assert err.value.column == 5 * MAX_NESTING + 1
