"""The acceptance pool's solve reports, pinned as a ledger of digests.

Each pool formula is compiled four ways (the optimistic and pessimistic
QSAT compiles, and `relax_leader` and `box_to_simplex` of the optimistic
one), and each compile is solved in both modes; each single-level case
of acceptance criterion 5 is solved in both modes.  That is 2,312
reports.  The ledger keeps a short sha256 over the `repr`s of the
reports of each formula and each case, taken in one fixed order, and
one over each variant's reports across the pool, so a mismatch names
both the formulas and the variants that moved.  It also keeps how many
optimal LPs the solves certified and how many certificates failed.

Re-pin it from the repository root with

    PYTHONPATH=src python tests/report_ledger.py
"""

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

from rbo.bilevel import Mode, solve_robust
from rbo.compiler import (
    box_to_simplex,
    compile_qsat_optimistic,
    compile_qsat_pessimistic,
    compile_single_level_robust,
    formula_to_text,
    full_family,
    random_formula,
    relax_leader,
)
from rbo.lp import CERT_LOG

LEDGER = Path(__file__).with_name("report_ledger.json")
SEED = 31415
NUM_RANDOM_FORMULAS = 100
NUM_SINGLE_LEVEL = 100

# (compile, variant) in ledger order; each is solved in both modes.
VARIANTS = (("optimistic", "plain"), ("optimistic", "relaxed"),
            ("optimistic", "simplex"), ("pessimistic", "plain"))


@lru_cache(maxsize=1)
def formula_pool() -> tuple:
    """Criterion-1 instance family: exhaustive members plus seeded randoms."""
    pool = list(full_family(2, 2))
    rng = random.Random(SEED)
    for _ in range(NUM_RANDOM_FORMULAS):
        p = rng.randint(0, 2)
        n = rng.randint(0, 2)
        if p + n == 0:
            n = 1
        pool.append(random_formula(rng, p, n, max_leaves=9))
    return tuple(pool)


@lru_cache(maxsize=1)
def single_level_cases() -> tuple:
    """Criterion 5's (X, scenarios) cases."""
    rng = random.Random(SEED + 5)
    cases = []
    for _ in range(NUM_SINGLE_LEVEL):
        p = rng.randint(1, 4)
        codes = list(range(2 ** p))
        rng.shuffle(codes)
        chosen = sorted(codes[:rng.randint(1, min(6, len(codes)))])
        x_set = [tuple((code >> i) & 1 for i in range(p)) for code in chosen]
        scenarios = [tuple(F(rng.randint(-12, 12), 4) for _ in range(p))
                     for _ in range(rng.randint(1, 3))]
        cases.append((x_set, scenarios))
    return tuple(cases)


def _compiles(formula) -> list:
    optimistic = compile_qsat_optimistic(formula)
    return [optimistic, relax_leader(optimistic), box_to_simplex(optimistic),
            compile_qsat_pessimistic(formula)]


@lru_cache(maxsize=1)
def solve_all() -> tuple:
    """(pool, single, certified, failures): pool[i][(compile, variant,
    mode)] is formula i's report, single[k][mode] case k's, each
    instance compiled afresh and solved in ledger order; the counts are
    the certificate log's over these solves."""
    verified, failures = CERT_LOG.verified, CERT_LOG.failures
    pool = []
    for formula in formula_pool():
        reports = {}
        for (compile_, variant), art in zip(VARIANTS, _compiles(formula)):
            for mode in Mode:
                reports[compile_, variant, mode.value] = solve_robust(
                    art.instance, mode)
        pool.append(reports)
    single = []
    for x_set, scenarios in single_level_cases():
        inst = compile_single_level_robust(x_set, scenarios).instance
        single.append({mode.value: solve_robust(inst, mode) for mode in Mode})
    return (pool, single, CERT_LOG.verified - verified,
            CERT_LOG.failures - failures)


def _digest(reports) -> str:
    text = "\n".join([repr(report) for report in reports])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def ledger(pool, single, certified: int, failures: int) -> dict:
    """The ledger document of `solve_all`'s results."""
    columns = {}
    for reports in pool + single:
        for key, report in reports.items():
            columns.setdefault("/".join(key) if isinstance(key, tuple)
                               else f"single_level/{key}", []).append(report)
    return {
        "pool": [[f"p={formula.p} n={formula.n} {formula_to_text(formula)}",
                  _digest(reports.values())]
                 for formula, reports in zip(formula_pool(), pool)],
        "single_level": [_digest(reports.values()) for reports in single],
        "variants": {key: _digest(reports)
                     for key, reports in columns.items()},
        "reports": sum(len(reports) for reports in pool + single),
        "certified": certified,
        "failures": failures,
    }


def moved(pinned: dict, current: dict) -> list:
    """One line per formula, case, variant or count that differs."""
    lines = []
    for i, (old, new) in enumerate(zip(pinned["pool"], current["pool"])):
        if old != new:
            lines.append(f"pool formula {i} {new[0]}")
    for k, (old, new) in enumerate(zip(pinned["single_level"],
                                       current["single_level"])):
        if old != new:
            lines.append(f"single-level case {k}")
    for key, digest in current["variants"].items():
        if pinned["variants"].get(key) != digest:
            lines.append(f"variant {key}")
    for key in ("reports", "certified", "failures"):
        if pinned[key] != current[key]:
            lines.append(f"{key}: {pinned[key]} -> {current[key]}")
    return lines


def write(doc: dict) -> None:
    """The ledger file, one formula, case or variant per line."""
    parts = []
    for key, value in doc.items():
        if isinstance(value, dict):
            items = [f"{json.dumps(k)}: {json.dumps(v)}"
                     for k, v in value.items()]
            value = "{\n  " + ",\n  ".join(items) + "\n }"
        elif isinstance(value, list):
            items = [json.dumps(v) for v in value]
            value = "[\n  " + ",\n  ".join(items) + "\n ]"
        else:
            value = json.dumps(value)
        parts.append(f" {json.dumps(key)}: {value}")
    LEDGER.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    doc = ledger(*solve_all())
    write(doc)
    print(f"wrote {LEDGER}: {doc['reports']} reports, "
          f"{doc['certified']} certified LPs, {doc['failures']} failures",
          file=sys.stderr)
