"""Outside-in tracing of rbo's public functions, and the per-layer metrics.

Modules bind functions by name (`from .lp import solve_lp`), so a wrapper
is installed at every binding site: every module of the package whose
globals hold the original function object.  The oracle module is left
alone; it must stay independent of the code under test and only runs
during set-up.  A function that no longer exists is reported as absent
instead of failing the run.

Each call of a wrapped function records one span: the function's key,
start and end (perf_counter seconds), the index of the nearest wrapped
parent span, the op id, and a size attribute read off the result.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# Modules scanned for binding sites.  rbo.oracle is deliberately absent.
SCANNED_MODULES = ("rbo.numeric", "rbo.uncertainty", "rbo.lp", "rbo.geometry",
                   "rbo.bilevel", "rbo.compiler", "rbo.cli")

QSAT = ("qsat-opt", "qsat-pess-cli", "hull-swap")
ALL = QSAT + ("single-level",)


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and how it is reported."""

    module: str
    name: str
    group: str                       # per-layer metric prefix
    expected_on: tuple               # workloads on which it must fire
    size: Optional[Callable] = None  # result -> number summed per group

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


TARGETS = (
    Target("rbo.lp", "solve_lp", "lp.solve_lp", ALL),
    Target("rbo.lp", "solve_lex_lp", "lp.solve_lex_lp", ALL),
    Target("rbo.lp", "check_bounded_nonempty", "lp.check_bounded_nonempty",
           ("qsat-pess-cli",)),
    Target("rbo.numeric", "gauss_solve", "numeric.gauss_solve", ALL),
    Target("rbo.numeric", "nullspace_vector", "numeric.nullspace_vector",
           ALL),
    Target("rbo.geometry", "project_polytope", "geometry.project_polytope",
           QSAT, lambda poly: poly.num_rows),
    Target("rbo.geometry", "enumerate_vertices",
           "geometry.enumerate_vertices", QSAT, len),
    Target("rbo.geometry", "enumerate_faces", "geometry.enumerate_faces",
           QSAT, len),
    Target("rbo.geometry", "exposure_check", "geometry.exposure_check", QSAT,
           lambda cert: 0 if cert is None else 1),
    Target("rbo.bilevel", "solve_robust", "bilevel.solve_robust", ALL,
           lambda report: len(report.trace)),
    Target("rbo.bilevel", "adversary_geometric", "bilevel.adversary", QSAT),
    Target("rbo.bilevel", "adversary_discrete", "bilevel.adversary",
           ("single-level",)),
    Target("rbo.bilevel", "follower_response", "bilevel.follower_response",
           ALL),
    Target("rbo.bilevel", "validate_instance", "bilevel.validate_instance",
           ("qsat-pess-cli",)),
    Target("rbo.bilevel", "instance_from_json", "bilevel.instance_from_json",
           ("qsat-pess-cli",)),
    Target("rbo.compiler", "compile_qsat_optimistic", "compiler.compile",
           ("qsat-opt", "hull-swap")),
    Target("rbo.compiler", "compile_qsat_pessimistic", "compiler.compile",
           ("qsat-pess-cli",)),
    Target("rbo.compiler", "box_to_simplex", "compiler.compile",
           ("hull-swap",)),
    Target("rbo.compiler", "compile_single_level_robust", "compiler.compile",
           ("single-level",)),
    Target("rbo.cli", "main", "cli.main", ("qsat-pess-cli",)),
)

# Which wrapped parent an LP or elimination call is attributed to.
LP_CALLERS = {
    "rbo.lp.solve_lex_lp": "follower",
    "rbo.geometry.exposure_check": "exposure",
    "rbo.geometry.project_polytope": "prune",
    "rbo.lp.check_bounded_nonempty": "validate",
}
GAUSS_CALLERS = {
    "rbo.lp.solve_lp": "dual",
    "rbo.geometry.enumerate_vertices": "vertex",
}

# Per-layer metrics in output order, with units.  self_s excludes the
# time of wrapped child spans; ms_per_call is inclusive wall time per LP.
COUNT, SECONDS = "count", "s"
PER_LAYER = (
    [("lp.solve_lp.calls", COUNT), ("lp.solve_lp.self_s", SECONDS),
     ("lp.solve_lp.ms_per_call", "ms")]
    + [(f"lp.solve_lp.calls.{c}", COUNT) for c in LP_CALLERS.values()]
    + [(f"lp.solve_lp.self_s.{c}", SECONDS) for c in LP_CALLERS.values()]
    + [("lp.solve_lex_lp.calls", COUNT),
       ("lp.check_bounded_nonempty.calls", COUNT),
       ("lp.certified", COUNT), ("lp.cert_failures", COUNT)]
    + [(f"numeric.gauss_solve.{k}.{c}", COUNT if k == "calls" else SECONDS)
       for c in GAUSS_CALLERS.values() for k in ("calls", "self_s")]
    + [("numeric.nullspace_vector.calls", COUNT),
       ("numeric.nullspace_vector.self_s", SECONDS),
       ("geometry.project_polytope.calls", COUNT),
       ("geometry.project_polytope.self_s", SECONDS),
       ("geometry.project_polytope.rows_out", COUNT),
       ("geometry.enumerate_vertices.calls", COUNT),
       ("geometry.enumerate_vertices.self_s", SECONDS),
       ("geometry.enumerate_vertices.vertices", COUNT),
       ("geometry.enumerate_faces.calls", COUNT),
       ("geometry.enumerate_faces.self_s", SECONDS),
       ("geometry.enumerate_faces.faces", COUNT),
       ("geometry.exposure_check.calls", COUNT),
       ("geometry.exposure_check.self_s", SECONDS),
       ("geometry.exposure_check.exposable_ratio", "ratio"),
       ("bilevel.solve_robust.self_s", SECONDS),
       ("bilevel.leaders", COUNT),
       ("bilevel.adversary.calls", COUNT),
       ("bilevel.adversary.self_s", SECONDS),
       ("bilevel.follower_response.calls", COUNT),
       ("bilevel.follower_response.self_s", SECONDS),
       ("bilevel.validate_instance.self_s", SECONDS),
       ("bilevel.instance_from_json.self_s", SECONDS),
       ("compiler.compile.self_s", SECONDS),
       ("cli.main.self_s", SECONDS),
       ("oracle.reference_s", SECONDS),
       ("trace.overhead_ratio", "ratio")]
)

# Names of the counters that must repeat exactly for a fixed seed.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER if unit == COUNT) + (
    "geometry.exposure_check.exposable_ratio",)


@dataclass
class Tracer:
    """Span recorder; wrappers record only while `active` is set."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    op: int = -1
    active: bool = False
    sites: dict = field(default_factory=dict)    # key -> [module names]
    absent: list = field(default_factory=list)   # keys not found
    _patches: list = field(default_factory=list)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, key, size = self.spans, self.stack, target.key, \
            target.size

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        return traced

    def install(self) -> None:
        """Patch every binding site of every target that exists."""
        modules = [importlib.import_module(m) for m in SCANNED_MODULES]
        for target in TARGETS:
            home = importlib.import_module(target.module)
            original = getattr(home, target.name, None)
            if original is None:
                self.absent.append(target.key)
                continue
            wrapper = self.wrap(target, original)
            self.sites[target.key] = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
                        self.sites[target.key].append(
                            f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def coverage_errors(tracer: Tracer, workload: str) -> list:
    """Targets that exist but never fired where the workload needs them."""
    fired = {span[0] for span in tracer.spans}
    return [f"{t.key} is wrapped at {tracer.sites[t.key]} but never fired "
            f"on {workload}; a binding site was missed"
            for t in TARGETS
            if workload in t.expected_on and t.key in tracer.sites
            and t.key not in fired]


def layer_metrics(spans: list) -> dict:
    """Counts and self times per layer, from spans of the traced run."""
    by_key = {t.key: t for t in TARGETS}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out = {name: 0 for name, _ in PER_LAYER}
    lp_wall = 0.0
    group_size = {}
    for idx, (key, start, end, parent, _op, size) in enumerate(spans):
        group = by_key[key].group
        self_s = end - start - child_time[idx]
        parent_key = spans[parent][0] if parent >= 0 else None
        out[f"{group}.self_s"] = out.get(f"{group}.self_s", 0) + self_s
        out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + 1
        if size is not None:
            group_size[group] = group_size.get(group, 0) + size
        if key == "rbo.lp.solve_lp":
            lp_wall += end - start
            caller = LP_CALLERS.get(parent_key)
            if caller:
                out[f"lp.solve_lp.calls.{caller}"] += 1
                out[f"lp.solve_lp.self_s.{caller}"] += self_s
        elif key == "rbo.numeric.gauss_solve":
            caller = GAUSS_CALLERS.get(parent_key)
            if caller:
                out[f"numeric.gauss_solve.calls.{caller}"] += 1
                out[f"numeric.gauss_solve.self_s.{caller}"] += self_s
    calls = out["lp.solve_lp.calls"]
    out["lp.solve_lp.ms_per_call"] = 1000 * lp_wall / calls if calls else 0
    out["geometry.project_polytope.rows_out"] = group_size.get(
        "geometry.project_polytope", 0)
    out["geometry.enumerate_vertices.vertices"] = group_size.get(
        "geometry.enumerate_vertices", 0)
    out["geometry.enumerate_faces.faces"] = group_size.get(
        "geometry.enumerate_faces", 0)
    checks = out["geometry.exposure_check.calls"]
    out["geometry.exposure_check.exposable_ratio"] = (
        group_size.get("geometry.exposure_check", 0) / checks if checks else 0)
    out["bilevel.leaders"] = group_size.get("bilevel.solve_robust", 0)
    names = {name for name, _ in PER_LAYER}
    return {k: v for k, v in out.items() if k in names}
