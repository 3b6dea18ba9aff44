"""Command-line front end: compile, solve, inspect and verify instances.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 work cap
exceeded, 4 a broken internal invariant (a failed dual certificate or
replay check, which means a bug in rbo).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import bilevel, compiler, oracle
from .bilevel import InstanceError, Mode, SolverInvariantError
from .geometry import CapExceededError
from .lp import LpError, LpInternalError, is_nonempty
from .numeric import rat_format, rat_format_vector, rat_parse

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_BUG = 4

DEFAULT_SEED = 20240


def _fmt(value, decimal: bool) -> str:
    text = rat_format(value)
    if decimal:
        text += f" ~= {float(value):.6g} (approx)"
    return text


def _fmt_vec(vec, decimal: bool) -> str:
    text = rat_format_vector(vec)
    if decimal and vec:
        approx = ", ".join([f"{float(v):.6g}" for v in vec])
        text += f" ~= ({approx}) (approx)"
    return text


def _count(text: str) -> int:
    """argparse type of a count flag: a decimal integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return int(text)


def _parse_vector(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple([rat_parse(part) for part in text.split(",")])


def _load(args):
    """The instance file's instance and the mode to solve it in."""
    inst, _ = bilevel.load_instance(args.instance)
    mode = inst.mode_default if args.mode is None else Mode(args.mode)
    return inst, mode


def _leader(inst, text: str):
    """The leader vector given on the command line, refused when its Y(x)
    is empty: validation covers only the instance's own leader set.  One
    outside that set is kept, with a warning."""
    x = _parse_vector(text)
    if not is_nonempty(inst.follower_polyhedron(x)):
        raise InstanceError(f"Y(x) is empty for x={rat_format_vector(x)}")
    ls = inst.leader_set
    if isinstance(ls, bilevel.ExplicitList):
        inside = x in ls.vectors
    elif isinstance(ls, bilevel.RelaxedBox):
        inside = all(0 <= v <= 1 for v in x)
    else:
        inside = all(v in (0, 1) for v in x)
    if not inside:
        print("warning: leader vector lies outside the leader set",
              file=sys.stderr)
    return x


def _compile_qsat(formula, mode: Mode):
    if mode is Mode.PESSIMISTIC:
        return compiler.compile_qsat_pessimistic(formula)
    return compiler.compile_qsat_optimistic(formula)


def _cmd_compile_qsat(args) -> int:
    with open(args.formula, "r", encoding="utf-8") as handle:
        formula = compiler.parse_formula_file(handle.read())
    art = _compile_qsat(formula, Mode(args.mode or "optimistic"))
    if args.relax_leader:
        art = compiler.relax_leader(art)
    if args.simplex_uncertainty:
        art = compiler.box_to_simplex(art)
    return _write_compiled(args.output, art)


def _write_compiled(path, art) -> int:
    """Save a compiled instance (with its M, if any) and list its columns."""
    bilevel.save_instance(path, art.instance, var_map=art.var_map,
                          big_m=art.big_m)
    print(f"wrote {path}")
    if art.big_m is not None:
        print(f"M = {rat_format(art.big_m)}")
    print("columns:")
    for idx, name in enumerate(art.var_map):
        print(f"  [{idx}] {name}")
    return EXIT_OK


def _cmd_compile_rs(args) -> int:
    doc = bilevel.read_json(args.spec)
    try:
        x_set = [tuple([rat_parse(str(v)) for v in vec]) for vec in doc["X"]]
        scenarios = [tuple([rat_parse(str(v)) for v in vec])
                     for vec in doc["scenarios"]]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in the input document")
    except TypeError as exc:
        raise ValueError(f"malformed input document: {exc}")
    art = compiler.compile_single_level_robust(x_set, scenarios)
    return _write_compiled(args.output, art)


def _cmd_solve(args) -> int:
    inst, mode = _load(args)
    report = bilevel.solve_robust(inst, mode)
    print(f"mode: {mode.value}")
    print(f"value: {_fmt(report.value, args.decimal)}")
    print(f"leader x: {_fmt_vec(report.leader_x, args.decimal)}")
    print(f"worst scenario: {_fmt_vec(report.worst_scenario, args.decimal)}")
    print(f"follower y: {_fmt_vec(report.follower_y, args.decimal)}")
    return EXIT_OK


def _cmd_adversary(args) -> int:
    inst, mode = _load(args)
    x = _leader(inst, args.x)
    c_star, value = bilevel.adversary_geometric(inst, x, mode)
    print(f"mode: {mode.value}")
    print(f"adversary value: {_fmt(value, args.decimal)}")
    print(f"worst scenario: {_fmt_vec(c_star, args.decimal)}")
    return EXIT_OK


def _cmd_follower(args) -> int:
    inst, mode = _load(args)
    x = _leader(inst, args.x)
    c = _parse_vector(args.c)
    if not inst.uncertainty.contains(c):
        print("warning: scenario lies outside the uncertainty set",
              file=sys.stderr)
    y, value = bilevel.follower_response(inst, x, c, mode)
    print(f"mode: {mode.value}")
    print(f"leader value: {_fmt(value, args.decimal)}")
    print(f"follower y: {_fmt_vec(y, args.decimal)}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    text = "p=1 n=1\n(or x1 y1)\n"
    formula = compiler.parse_formula_file(text)
    print("formula file:")
    print(text)
    for mode in Mode:
        art = _compile_qsat(formula, mode)
        report = bilevel.solve_robust(art.instance, mode)
        print(f"{mode.value}: columns {', '.join(art.var_map)}; "
              f"M = {rat_format(art.big_m)}")
        print(f"  robust value {rat_format(report.value)} at "
              f"x = {_fmt_vec(report.leader_x, False)}, "
              f"worst scenario {_fmt_vec(report.worst_scenario, False)}")
    print("a leader picking x1 = 1 makes the formula true for every y1, "
          "so both conventions report value 1")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification sweeps.


def _report(case: str, ok: bool, lines: list) -> None:
    lines.append(("PASS" if ok else "FAIL") + f" {case}")


def _suite_qsat(args, lines: list) -> None:
    rng = random.Random(args.seed)
    formulas = compiler.full_family(args.max_p, args.max_n)
    for _ in range(args.random_count):
        p = rng.randint(0, args.max_p)
        n = rng.randint(0, args.max_n)
        if p + n == 0:
            n = 1
        formulas.append(compiler.random_formula(rng, p, n, max_leaves=9))
    for idx, formula in enumerate(formulas):
        want = 1 if oracle.qsat_oracle(formula) else 0
        label = compiler.formula_to_text(formula)
        for mode in Mode:
            case = f"qsat[{idx}] {mode.value} {label}"
            try:
                art = _compile_qsat(formula, mode)
                got = bilevel.solve_robust(art.instance, mode).value
            except CapExceededError as exc:
                lines.append(f"SKIP {case} ({exc})")
                continue
            _report(case, got == want, lines)


def _suite_single_level(args, lines: list) -> None:
    rng = random.Random(args.seed + 1)
    for idx in range(args.random_count):
        p = rng.randint(1, 4)
        pool = list(range(2 ** p))
        rng.shuffle(pool)
        chosen = sorted(pool[:rng.randint(1, min(6, len(pool)))])
        x_set = [tuple([(code >> i) & 1 for i in range(p)]) for code in chosen]
        m_s = rng.randint(1, 3)
        scenarios = [tuple([rat_parse(f"{rng.randint(-12, 12)}/4")
                            for _ in range(p)]) for _ in range(m_s)]
        want = oracle.robust_single_level_oracle(x_set, scenarios)
        art = compiler.compile_single_level_robust(x_set, scenarios)
        case = f"single-level[{idx}] p={p} |X|={len(x_set)} m={m_s}"
        got_opt = bilevel.solve_robust(art.instance, Mode.OPTIMISTIC).value
        got_pes = bilevel.solve_robust(art.instance, Mode.PESSIMISTIC).value
        _report(case, got_opt == want and got_pes == want, lines)


def _suite_hull(args, lines: list) -> None:
    formulas = compiler.full_family(args.max_p, min(args.max_n, 2))
    for idx, formula in enumerate(formulas):
        label = compiler.formula_to_text(formula)
        case = f"hull[{idx}] {label}"
        try:
            art = compiler.compile_qsat_optimistic(formula)
            box_value = bilevel.solve_robust(art.instance,
                                             Mode.OPTIMISTIC).value
            simplex = compiler.box_to_simplex(art)
            hull_value = bilevel.solve_robust(simplex.instance,
                                              Mode.OPTIMISTIC).value
        except CapExceededError as exc:
            lines.append(f"SKIP {case} ({exc})")
            continue
        _report(case, box_value == hull_value, lines)


def _cmd_verify(args) -> int:
    lines: list = []
    if args.suite in ("qsat", "all"):
        _suite_qsat(args, lines)
    if args.suite in ("single-level", "all"):
        _suite_single_level(args, lines)
    if args.suite in ("hull", "all"):
        _suite_hull(args, lines)
    for line in lines:
        print(line)
    failures = sum(1 for line in lines if line.startswith("FAIL"))
    skips = sum(1 for line in lines if line.startswith("SKIP"))
    passes = sum(1 for line in lines if line.startswith("PASS"))
    print(f"{passes} passed, {failures} failed, {skips} skipped")
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


_VECTOR_HELP = {"--x": "comma-separated leader vector",
                "--c": "comma-separated scenario; one that starts with a "
                       "minus sign needs '=', as in --c=-1,0"}


def _instance_command(sub, name, func, help_text, vectors=()) -> None:
    """A subcommand on one instance file: the file, the required vector
    flags, --mode and --decimal."""
    c = sub.add_parser(name, help=help_text)
    c.add_argument("instance", help="instance JSON file")
    for flag in vectors:
        c.add_argument(flag, required=True, help=_VECTOR_HELP[flag])
    c.add_argument("--mode", choices=["optimistic", "pessimistic"],
                   default=None,
                   help="tie-breaking convention (defaults to the "
                        "instance's own)")
    c.add_argument("--decimal", action="store_true",
                   help="append approximate decimal renderings")
    c.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbo",
        description="exact solvers for robust bilevel linear optimization "
                    "with an uncertain follower objective")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile-qsat",
                       help="compile a formula file into an instance")
    c.add_argument("formula", help="formula file")
    c.add_argument("-o", "--output", required=True,
                   help="instance JSON file to write")
    c.add_argument("--mode", choices=["optimistic", "pessimistic"],
                   default="optimistic",
                   help="tie-breaking convention the reduction targets")
    c.add_argument("--relax-leader", action="store_true",
                   help="relax leader integrality via penalty columns")
    c.add_argument("--simplex-uncertainty", action="store_true",
                   help="swap the box for its covering simplex")
    c.set_defaults(func=_cmd_compile_qsat)

    c = sub.add_parser("compile-rs",
                       help="embed a robust single-level problem "
                            "(JSON with fields X, scenarios)")
    c.add_argument("spec", help="JSON file with fields X and scenarios")
    c.add_argument("-o", "--output", required=True,
                   help="instance JSON file to write")
    c.set_defaults(func=_cmd_compile_rs)

    _instance_command(sub, "solve", _cmd_solve, "solve the robust problem")
    _instance_command(sub, "adversary", _cmd_adversary,
                      "worst scenario for a fixed leader choice", ("--x",))
    _instance_command(sub, "follower", _cmd_follower,
                      "follower response for fixed x and scenario c",
                      ("--x", "--c"))

    c = sub.add_parser("verify", help="run oracle-equivalence sweeps")
    c.add_argument("--suite",
                   choices=["qsat", "single-level", "hull", "all"],
                   default="all", help="which sweep to run")
    c.add_argument("--max-p", type=_count, default=1,
                   help="max leader variables in the formula family")
    c.add_argument("--max-n", type=_count, default=1,
                   help="max follower variables in the formula family")
    c.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the random cases")
    c.add_argument("--random-count", type=_count, default=10,
                   help="random formulas and single-level cases to add")
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("demo", help="compile and solve a tiny example")
    c.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (LpInternalError, SolverInvariantError) as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return EXIT_BUG
    except (ValueError, LpError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
