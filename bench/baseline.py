"""Full-pool reconciliation of the traced counters with the ROADMAP baseline.

    python3 bench/baseline.py

For each qsat workload in turn, runs one untraced and one traced pass
over the whole acceptance pool (seed 31415, 264 formulas, in pool order)
and writes bench/baseline.json with the counters, the host-corrected
pass times (see run.py), the machine and the commit read from git.
Takes about ten minutes on a 2-core machine; run nothing else
meanwhile.  The committed file also carries a hand-written
"reconciliation" note on the recorded run; a new run drops it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run

# ROADMAP "Baseline" table: (LP solves, wall seconds) per row.
ROADMAP = {
    "qsat-opt": {"lp_solves": 11634, "wall_s": 28.9},
    "qsat-pess-cli": {"lp_solves": 23845, "wall_s": 120.9,
                      "validate_lp_solves": 7601, "validate_wall_s": 35.7},
    "hull-swap": {"lp_solves": 20141, "wall_s": 68.9},
}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    run.import_code_under_test()
    import tracing
    import workloads

    pool = workloads.acceptance_pool(workloads.ACCEPTANCE_SEED)
    record = {
        "what": "one untraced and one traced pass over the full acceptance "
                "pool per qsat workload, one workload at a time",
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2_installed": importlib.util.find_spec("gmpy2") is not None,
        "flint_installed": importlib.util.find_spec("flint") is not None,
        "seeds": {"development": list(workloads.DEVELOPMENT_SEEDS),
                  "held_out": workloads.HELD_OUT_SEED,
                  "acceptance_pool": workloads.ACCEPTANCE_SEED},
        "formulas": len(pool),
        "workloads": {},
    }
    failed = False
    for workload in ROADMAP:
        metrics, attempted, errors = run.traced_run(
            workload, workloads.ACCEPTANCE_SEED, limit=len(pool),
            formulas=pool)
        failed |= bool(errors)
        counts = {name: metrics[name] for name in tracing.DETERMINISTIC}
        record["workloads"][workload] = {
            "roadmap": ROADMAP[workload],
            "lp_calls": metrics["lp.solve_lp.calls"],
            "lp_certified": metrics["lp.certified"],
            "untraced_s": round(metrics["trace.untraced_s"], 2),
            "traced_s": round(metrics["trace.traced_s"], 2),
            "ops_failed": len(errors),
            "counters": counts,
        }
        print(workload, json.dumps(record["workloads"][workload]),
              flush=True)
    path = Path(__file__).with_name("baseline.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
