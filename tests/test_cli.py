import json
from fractions import Fraction as F

import pytest

from rbo import bilevel, lp
from rbo.bilevel import Mode, instance_to_json, load_instance, solve_robust
from rbo.cli import build_parser, main
from rbo.compiler import (
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


@pytest.mark.parametrize("spec", [[], {"X": 5, "scenarios": [[1]]}])
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


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # 2^21 leader vectors: one more bit than bilevel.MAX_LEADER_BITS.
    formula = write_formula(tmp_path, "p=21 n=1\n(or x21 y1)\n")
    out = str(tmp_path / "inst.json")
    assert main(["compile-qsat", formula, "-o", out]) == 0
    capsys.readouterr()
    assert main(["solve", out]) == 3
    assert "2^21" in capsys.readouterr().err


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
    return (F(10 ** 9),) * tableau.n


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
