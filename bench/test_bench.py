"""Checks of the benchmark itself: `python3 -m pytest bench`."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_code_under_test()

import rbo.compiler  # noqa: E402
import rbo.geometry  # noqa: E402
import rbo.lp  # noqa: E402
import rbo.numeric  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {"qsat-opt": 6, "qsat-pess-cli": 3, "hull-swap": 5,
         "single-level": 4}
SEED = 3


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run.traced_run(w, SEED, limit=SMALL[w]) for _ in range(2)]
            for w in workloads.WORKLOADS}


def test_counters_repeat_for_a_seed(traced_twice):
    for workload, runs in traced_twice.items():
        (first, _, errors1), (second, _, errors2) = runs
        assert not errors1 and not errors2, (workload, errors1, errors2)
        for name in tracing.DETERMINISTIC:
            assert first[name] == second[name], (workload, name)


def test_layers_fire_where_expected(traced_twice):
    metrics = {w: runs[0][0] for w, runs in traced_twice.items()}
    for workload, values in metrics.items():
        assert values["lp.solve_lp.calls.follower"] > 0
        assert values["lp.cert_failures"] == 0
        assert (values["lp.solve_lp.calls.validate"] > 0) == (
            workload == "qsat-pess-cli")
    geometry = [name for name, _ in tracing.PER_LAYER
                if name.startswith("geometry.")]
    assert all(metrics["single-level"][name] == 0 for name in geometry)
    assert metrics["hull-swap"]["lp.solve_lp.calls.prune"] > 0
    assert metrics["qsat-pess-cli"]["lp.solve_lp.calls.exposure"] > 0


def test_wrappers_are_removed_after_a_traced_run(traced_twice):
    for module, name in ((rbo.lp, "solve_lp"), (rbo.geometry, "solve_lp"),
                         (rbo.numeric, "gauss_solve")):
        assert not hasattr(getattr(module, name), "__wrapped__")


def test_inputs_come_from_the_seed_alone():
    texts = [rbo.compiler.formula_to_text(f) for f in
             workloads.qsat_pool(SEED)]
    again = [rbo.compiler.formula_to_text(f) for f in
             workloads.qsat_pool(SEED)]
    other = workloads.qsat_pool(SEED + 1)
    assert texts == again
    assert texts != [rbo.compiler.formula_to_text(f) for f in other]
    assert sorted(map(workloads.formula_shape, workloads.qsat_pool(SEED))) \
        == sorted(map(workloads.formula_shape, other))
    assert workloads.single_level_cases(SEED) == \
        workloads.single_level_cases(SEED)
    assert workloads.single_level_cases(SEED) != \
        workloads.single_level_cases(SEED + 1)


def test_wrong_or_raising_op_is_a_failure():
    op = workloads.prepare("qsat-opt", SEED, limit=1).ops[0]
    assert workloads.run_op(op)[1] is None
    wrong = workloads.Op(op.label, op.run, (op.expected[0] + 1,))
    assert "oracle says" in workloads.run_op(wrong)[1]

    def boom():
        raise ValueError("broken")

    assert "raised" in workloads.run_op(workloads.Op("x", boom, ()))[1]


def test_absent_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(rbo.numeric, "nullspace_vector")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["rbo.numeric.nullspace_vector"]
    metrics, _, errors = run.traced_run("single-level", SEED, limit=2)
    assert not errors
    assert metrics["numeric.nullspace_vector.calls"] == 0


def test_missed_binding_site_fails_the_run(monkeypatch):
    install = tracing.Tracer.install

    def install_but_miss(self):
        install(self)
        for module, attr, original in self._patches:
            if attr == "enumerate_faces":
                setattr(module, attr, original)

    monkeypatch.setattr(tracing.Tracer, "install", install_but_miss)
    _, _, errors = run.traced_run("qsat-opt", SEED, limit=3)
    assert any("enumerate_faces" in e for e in errors), errors


def test_tail_sample_has_ten_samples_beyond_it():
    ordered = list(range(100))
    value, percentile = run.tail_sample(ordered)
    assert value == 89 and percentile == 90
    assert len([x for x in ordered if x > value]) == 10


def test_one_slow_kernel_sample_does_not_move_the_correction():
    kernels = [run.REFERENCE_KERNEL_S] * 5
    kernels[2] *= 5
    assert run.corrected([1.0] * 4, kernels) == [1.0] * 4


def test_fails_without_the_code_under_test(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qsat-opt", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
