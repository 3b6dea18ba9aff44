"""rbo benchmark: oracle-checked solves, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the code under test is imported from
`src/`.  One process, one thread, a closed loop with one client: each
op starts when the previous one has finished.  Workloads (see
workloads.py): qsat-opt, qsat-pess-cli, hull-swap, single-level;
`--workload all` runs them one after another, each in a child process
of its own (so peak_rss_mb is that workload's) that ends in its own
result line.

--trace 0 sets up five times (median reported as setup_s), then times
whole passes over the drawn ops and starts no op once S seconds have
passed and one pass is done; an unfinished pass is checked but not
timed.  It reports ops_per_s, op_p50_ms, op_tail_ms, setup_s and
peak_rss_mb, with times corrected for host speed (see
REFERENCE_KERNEL_S; the summary also prints them raw).  Each instance
is reduced to its median time over the timed passes; op_p50_ms is the
median of those and op_tail_ms the one with ten beyond it, so the tail
percentile depends only on the workload's instance count (the summary
prints it), not on how many passes fit in S seconds.  error_rate is
printed in the summary and carried as failed/attempted.

--trace 1 runs one pass untraced and then one pass with wrappers on
rbo's public functions, writes the spans to
.bench_out/trace-<workload>-<seed>.json and reports per-layer metrics.

Every op is checked against rbo.oracle and the certificate log.  The
last line of stdout is one JSON object; the exit code is 1 when an op
failed or a wrapper never fired, 2 when the code under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# Instances a timed run draws: one pass over them takes 12 to 25 seconds
# on a shared 2-core 2.1 GHz Xeon VM with Python 3.11, longer than the
# run length, so a run is usually one pass.  Only whole passes are timed,
# so a run weighs the same instances equally however fast the code is.
# A traced run takes half of them.
RUN_OPS = {"qsat-opt": 160, "qsat-pess-cli": 40, "hull-swap": 64,
           "single-level": 64}

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# Host-speed correction.  Other tenants slow a shared VM's CPU by up to
# 2x for seconds at a time, and rbo's exact arithmetic slows with them.
# A fixed Fraction kernel (the tableau update a - f*b) is timed, with
# the garbage collector off, before the first and after every op or
# set-up.  Each time is scaled by REFERENCE_KERNEL_S over the median of
# the kernel samples nearest it (up to three on either side), so times
# read as on a host where the kernel takes 1.6 ms, and one preempted
# kernel sample cannot move them.  Over repeated passes of one fixed
# list of single-level ops, raw pass times varied with a 16% coefficient
# of variation and corrected ones with 5%.
REFERENCE_KERNEL_S = 0.0016
KERNEL_WINDOW = 3
_F, _B = Fraction(5, 11), Fraction(2, 9)


def kernel_s() -> float:
    """Seconds the calibration kernel takes right now."""
    gc.disable()
    try:
        start = time.perf_counter()
        a = Fraction(3, 7)
        for _ in range(600):
            a = a - _F * _B if a > 0 else a + _F
        return time.perf_counter() - start
    finally:
        gc.enable()


def corrected(raw: list, kernels: list) -> list:
    """Host-corrected `raw` times; raw[i] ran between kernels[i] and [i+1]."""
    return [seconds * REFERENCE_KERNEL_S / statistics.median(
                kernels[max(0, i + 1 - KERNEL_WINDOW):i + 1 + KERNEL_WINDOW])
            for i, seconds in enumerate(raw)]


def import_code_under_test():
    """Import rbo from this checkout's src/, never from elsewhere."""
    if not (SRC / "rbo" / "__init__.py").is_file():
        raise ImportError(f"no rbo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rbo

    if not Path(rbo.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rbo imported from {rbo.__file__}, not {SRC}")


def setup(workload: str, seed: int, limit=None, formulas=None):
    """Generate inputs, references and files, then warm up on one op."""
    from workloads import prepare, run_op

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    prepared = prepare(workload, seed, workdir, limit or RUN_OPS[workload],
                       formulas)
    run_op(prepared.ops[0])
    return prepared, workdir


def tail_sample(ordered: list) -> tuple:
    """(value, percentile) of the highest sample with ten beyond it."""
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], 100 * (index + 1) / len(ordered)


def timed_pass(ops, deadline=None, tracer=None) -> tuple:
    """Run ops in order, timing the calibration kernel after each.

    Starts no op once the perf_counter `deadline` has passed.  Returns
    (host-corrected seconds per op, raw seconds per op, errors).
    """
    from workloads import run_op

    raw, errors, kernels = [], [], [kernel_s()]
    for index, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.op = index
        elapsed, error = run_op(op)
        kernels.append(kernel_s())
        raw.append(elapsed)
        if error:
            errors.append(error)
    return corrected(raw, kernels), raw, errors


def measure(workload: str, seed: int, seconds: float) -> tuple:
    setups, kernels, workdirs = [], [kernel_s()], []
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prepared, workdir = setup(workload, seed)
            setups.append(time.perf_counter() - start)
            kernels.append(kernel_s())
            workdirs.append(workdir)
        ops = prepared.ops
        passes, raw_passes, errors, attempted = [], [], [], 0
        start = time.perf_counter()
        while True:
            times, raw_times, pass_errors = timed_pass(
                ops, start + seconds if passes else None)
            attempted += len(times)
            errors += pass_errors
            if len(times) < len(ops):
                break
            passes.append(times)
            raw_passes.append(raw_times)
            wall = time.perf_counter() - start
            if wall >= seconds:
                break
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    total = sum(map(sum, passes))
    per_op = sorted(map(statistics.median, zip(*passes)))
    raw_per_op = sorted(map(statistics.median, zip(*raw_passes)))
    tail, tail_pct = tail_sample(per_op)
    metrics = {
        "ops_per_s": len(ops) * len(passes) / total,
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail,
        "setup_s": statistics.median(corrected(setups, kernels)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_total = sum(map(sum, raw_passes))
    print(f"workload {workload}  seed {seed}  {len(ops)} instances  "
          f"{len(passes)} passes  measured {wall:.2f} s; "
          f"host-corrected, raw in brackets")
    print(f"  ops_per_s    {metrics['ops_per_s']:.4f} 1/s  "
          f"[{len(ops) * len(passes) / raw_total:.4f}]  "
          f"({len(ops) * len(passes)} ops)")
    print(f"  op_p50_ms    {metrics['op_p50_ms']:.3f} ms  "
          f"[{1000 * statistics.median(raw_per_op):.3f}]  "
          f"(per-instance medians)")
    print(f"  op_tail_ms   {metrics['op_tail_ms']:.3f} ms  "
          f"[{1000 * tail_sample(raw_per_op)[0]:.3f}]  (p{tail_pct:.1f} "
          f"of {len(ops)} per-instance medians)")
    print(f"  error_rate   {len(errors) / attempted:.4f} ratio  "
          f"({len(errors)} of {attempted})")
    print(f"  setup_s      {metrics['setup_s']:.4f} s  (median of "
          f"{SETUP_REPEATS}, raw: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
    return metrics, attempted, errors


def traced_run(workload: str, seed: int, limit=None, spans_path=None,
               formulas=None):
    """Untraced then traced pass over the same ops; per-layer metrics.

    Returns (metrics, ops attempted, errors).  Errors include wrappers that
    never fired on a workload that needs them.  The metrics also hold the
    two pass times, as trace.untraced_s and trace.traced_s.
    """
    from tracing import Tracer, coverage_errors, layer_metrics
    from workloads import cert_snapshot, prepare

    limit = limit or RUN_OPS[workload] // 2
    tracer = Tracer()
    workdirs = []
    try:
        prepared, workdir = setup(workload, seed, limit, formulas)
        workdirs.append(workdir)
        times, _, errors = timed_pass(prepared.ops)
        untraced = sum(times)

        tracer.install()
        workdirs.append(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        tracer.active = True
        ops = prepare(workload, seed, workdirs[-1], limit, formulas).ops
        before = cert_snapshot()
        start = time.perf_counter()
        times, _, traced_errors = timed_pass(ops, tracer=tracer)
        traced = sum(times)
        errors += traced_errors
        tracer.active = False
        after = cert_snapshot()
    finally:
        tracer.active = False
        tracer.uninstall()
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    errors += coverage_errors(tracer, workload)
    metrics = layer_metrics(tracer.spans)
    metrics["lp.certified"] = after[1] - before[1]
    metrics["lp.cert_failures"] = after[2] - before[2]
    metrics["oracle.reference_s"] = prepared.oracle_s
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    if spans_path is not None:
        spans_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "ops": len(ops),
            "sites": tracer.sites, "absent": tracer.absent,
            "fields": ["function", "start_s", "end_s", "parent", "op",
                       "size"],
            "spans": [[k, s - start, e - start, p, o, z]
                      for k, s, e, p, o, z in tracer.spans]}))
    print(f"workload {workload}  seed {seed}  traced {len(ops)} ops")
    for key, sites in tracer.sites.items():
        print(f"  wrapped {key} at {', '.join(sites)}")
    for key in tracer.absent:
        print(f"  absent  {key} (reported as 0)")
    return metrics, 2 * len(ops), errors


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Run one workload and print its summary and result line."""
    if trace:
        from tracing import PER_LAYER

        spans_path = OUT / f"trace-{workload}-{seed}.json"
        values, attempted, errors = traced_run(workload, seed,
                                               spans_path=spans_path)
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            print(f"  {name:44s} {values[name]} {unit}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, attempted, errors = measure(workload, seed, seconds)
        units = END_TO_END_UNITS
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 1 if errors else 0


def main(argv=None) -> int:
    try:
        import_code_under_test()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after "
                             "another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    codes = []
    for workload in WORKLOADS:
        sys.stdout.flush()
        codes.append(subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
