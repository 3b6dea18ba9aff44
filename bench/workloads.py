"""Benchmark inputs, set-up and oracle-checked ops for the four workloads.

An op is one instance taken through its full user path.  Every input
comes from the seed alone.  The qsat workloads start from the acceptance
pool (`full_family(2, 2)` plus 100 `random_formula(rng, p, n,
max_leaves=9)` formulas, seed 31415); single-level starts from the cases
of acceptance criterion 5.  The seed turns each instance into an
isomorphic copy: variables are renamed and the operands of connectives
swapped (qsat), or coordinates and scenarios permuted (single-level).
Values and instance sizes stay the same; column order, and so the
simplex's pivot path and the saved files, change.  Op costs span
three orders of magnitude, so drawing fresh formulas per seed moved the
median op time by a third from seed to seed; isomorphic copies keep the
seed from moving the figures more than the code does.

Ops run in a low-discrepancy order over the pool sorted by shape, so the
first k ops are an even sample of the pool for any k.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from rbo import bilevel, cli, compiler, oracle
from rbo.bilevel import Mode
from rbo.compiler import And, FollowerVar, Formula, LeaderVar, Not, Or
from rbo.lp import CERT_LOG
from rbo.numeric import rat_parse

WORKLOADS = ("qsat-opt", "qsat-pess-cli", "hull-swap", "single-level")

ACCEPTANCE_SEED = 31415       # tests/test_acceptance.py SEED
NUM_RANDOM_FORMULAS = 100     # random part of the acceptance pool
NUM_SINGLE_LEVEL = 100        # cases in acceptance criterion 5

# Seeds used while the benchmark was tuned, and one kept back for
# re-checking a claimed gain on a seed nothing was tuned on.
DEVELOPMENT_SEEDS = (1, 2, 3, 4, 5)
HELD_OUT_SEED = 271828


@dataclass(frozen=True)
class Op:
    """One instance: `run` returns the values compared with `expected`."""

    label: str
    run: Callable[[], tuple]
    expected: tuple


@dataclass
class Prepared:
    ops: list
    oracle_s: float


# ---------------------------------------------------------------------------
# Inputs.


def acceptance_pool(seed: int) -> list:
    """The acceptance suite's formula pool, built from `seed`."""
    pool = list(compiler.full_family(2, 2))
    rng = random.Random(seed)
    for _ in range(NUM_RANDOM_FORMULAS):
        p = rng.randint(0, 2)
        n = rng.randint(0, 2)
        if p + n == 0:
            n = 1
        pool.append(compiler.random_formula(rng, p, n, max_leaves=9))
    return pool


def formula_shape(formula) -> tuple:
    """(p, n, binary connectives, negations) of a formula."""
    connectives = negations = 0
    stack = [formula.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            negations += 1
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            connectives += 1
            stack.extend((node.left, node.right))
    return formula.p, formula.n, connectives, negations


def qsat_pool(seed: int) -> list:
    """The acceptance pool in spread order, as isomorphic copies."""
    pool = sorted(acceptance_pool(ACCEPTANCE_SEED),
                  key=lambda f: (f.n, formula_shape(f)[2], f.p,
                                 formula_shape(f)[3],
                                 compiler.formula_to_text(f)))
    rng = random.Random(seed)
    return [relabel_formula(pool[i], rng) for i in spread_order(len(pool))]


def relabel_formula(formula, rng: random.Random):
    """Rename variables and swap connective operands at random."""
    xs = rng.sample(range(1, formula.p + 1), formula.p)
    ys = rng.sample(range(1, formula.n + 1), formula.n)

    def walk(node):
        if isinstance(node, LeaderVar):
            return LeaderVar(xs[node.index - 1])
        if isinstance(node, FollowerVar):
            return FollowerVar(ys[node.index - 1])
        if isinstance(node, Not):
            return Not(walk(node.child))
        left, right = walk(node.left), walk(node.right)
        if rng.random() < 0.5:
            left, right = right, left
        return type(node)(left, right)

    return Formula(walk(formula.root), formula.p, formula.n)


def single_level_cases(seed: int) -> list:
    """Criterion 5's (X, scenarios) cases in spread order, with
    coordinates and scenarios permuted by the seed."""
    rng = random.Random(ACCEPTANCE_SEED + 5)
    cases = []
    for _ in range(NUM_SINGLE_LEVEL):
        p = rng.randint(1, 4)
        codes = list(range(2 ** p))
        rng.shuffle(codes)
        chosen = sorted(codes[:rng.randint(1, min(6, len(codes)))])
        x_set = [tuple((code >> i) & 1 for i in range(p)) for code in chosen]
        scenarios = [tuple(Fraction(rng.randint(-12, 12), 4)
                           for _ in range(p))
                     for _ in range(rng.randint(1, 3))]
        cases.append((x_set, scenarios))
    cases.sort(key=lambda c: (len(c[1]), len(c[0][0]), len(c[0])))
    rng = random.Random(seed)
    out = []
    for i in spread_order(len(cases)):
        x_set, scenarios = cases[i]
        perm = rng.sample(range(len(x_set[0])), len(x_set[0]))
        out.append(([tuple(x[j] for j in perm) for x in x_set],
                    rng.sample([tuple(c[j] for j in perm)
                                for c in scenarios], len(scenarios))))
    return out


def spread_order(count: int) -> list:
    """Bit-reversal permutation of range(count): every prefix is spread
    evenly over the sorted input."""
    bits = max(1, (count - 1).bit_length())
    order = (int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < count]


# ---------------------------------------------------------------------------
# Ops.  Calls go through module attributes, so traced wrappers see them.


def _solve_value(inst, mode) -> Fraction:
    return bilevel.solve_robust(inst, mode).value


def _cli_solve(path: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", path])
    if code != 0:
        raise RuntimeError(f"rbo solve exited {code}: {err.getvalue()}")
    for line in out.getvalue().splitlines():
        if line.startswith("value: "):
            return (rat_parse(line[len("value: "):]),)
    raise RuntimeError("rbo solve printed no value line")


def prepare(workload: str, seed: int, workdir: Optional[str] = None,
            limit: Optional[int] = None,
            formulas: Optional[list] = None) -> Prepared:
    """Build the first `limit` ops of one run.

    `workdir` holds the instance files that qsat-pess-cli saves;
    `formulas` replaces the seed's qsat pool.
    """
    if workload == "single-level":
        cases = single_level_cases(seed)[:limit]
        t0 = time.perf_counter()
        refs = [oracle.robust_single_level_oracle(x, s) for x, s in cases]
        oracle_s = time.perf_counter() - t0

        def single_level(x_set, scenarios):
            inst = compiler.compile_single_level_robust(x_set,
                                                        scenarios).instance
            return (_solve_value(inst, Mode.OPTIMISTIC),
                    _solve_value(inst, Mode.PESSIMISTIC))

        ops = [Op(f"single-level p={len(x[0])} |X|={len(x)} m={len(s)}",
                  lambda x=x, s=s: single_level(x, s), (ref, ref))
               for (x, s), ref in zip(cases, refs)]
        return Prepared(ops, oracle_s)

    if formulas is None:
        formulas = qsat_pool(seed)
    formulas = formulas[:limit]
    t0 = time.perf_counter()
    refs = [Fraction(int(oracle.qsat_oracle(f))) for f in formulas]
    oracle_s = time.perf_counter() - t0
    ops = []
    for idx, (formula, ref) in enumerate(zip(formulas, refs)):
        label = f"{workload} {compiler.formula_to_text(formula)}"
        if workload == "qsat-opt":
            run = lambda f=formula: (_solve_value(
                compiler.compile_qsat_optimistic(f).instance,
                Mode.OPTIMISTIC),)
        elif workload == "hull-swap":
            run = lambda f=formula: (_solve_value(
                compiler.box_to_simplex(
                    compiler.compile_qsat_optimistic(f)).instance,
                Mode.OPTIMISTIC),)
        elif workload == "qsat-pess-cli":
            art = compiler.compile_qsat_pessimistic(formula)
            path = os.path.join(workdir, f"inst{idx:04d}.json")
            bilevel.save_instance(path, art.instance, var_map=art.var_map,
                                  big_m=art.big_m)
            run = lambda path=path: _cli_solve(path)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        ops.append(Op(label, run, (ref,)))
    return Prepared(ops, oracle_s)


def cert_snapshot() -> tuple:
    return CERT_LOG.optimal_solves, CERT_LOG.verified, CERT_LOG.failures


def run_op(op: Op) -> tuple:
    """Run one op; returns (seconds, error message or None)."""
    before = cert_snapshot()
    start = time.perf_counter()
    try:
        got = op.run()
    except Exception as exc:  # an op that raises is a counted failure
        return time.perf_counter() - start, f"{op.label}: raised {exc!r}"
    seconds = time.perf_counter() - start
    solves, verified, failures = (b - a for a, b in
                                  zip(before, cert_snapshot()))
    if got != op.expected:
        return seconds, f"{op.label}: got {got}, oracle says {op.expected}"
    if failures or verified != solves:
        return seconds, (f"{op.label}: {failures} certificate failures, "
                         f"{verified} of {solves} optimal LPs verified")
    return seconds, None
