"""Robust bilevel instances and their exact desk-scale solvers.

The model: a leader picks x from a binary (or relaxed) set, an adversary
picks the follower's objective c from an uncertainty set, the follower
maximizes c·y over Y(x) = {y : lhs·y <= leader_mat·x + rhs}, and the
leader scores leader_obj·y.  The leader maximizes, the adversary
minimizes, and follower ties are broken for (optimistic) or against
(pessimistic) the leader via a lexicographic LP.

Finite scenario sets, a box with no free coordinate and a one-point hull
among them, are handled by enumeration.  Other box and hull uncertainty
U = L·D runs the face/exposure machinery on an exact low-dimensional
linear image ("shadow") of Y(x) under Lᵀ (see `rbo.uncertainty`): one
image coordinate per genuinely uncertain objective coordinate, plus one
for the certain part's score, or one per hull point.  Scenarios agreeing
on the shadow induce the same follower argmax set, so enumerating
exposable shadow faces enumerates every possible adversary outcome
exactly, at desk scale, even when Y(x) itself has far too many faces to
enumerate; each outcome is then read off the follower's lexicographic
response at the face's certificate scenario.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Union

from . import geometry
from .geometry import CapExceededError
from .lp import (
    Polyhedron,
    Sense,
    check_bounded_nonempty,
    is_nonempty,
    solve_lex_lp,
)
from .numeric import (
    ONE,
    ZERO,
    Fraction,
    as_matrix,
    as_vector,
    dot,
    rat_format,
    rat_format_nested,
    rat_parse,
    rat_parse_nested,
)
from .uncertainty import KINDS, UncertaintySet


class Mode(Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class InstanceError(ValueError):
    """The instance data violates the model's standing assumptions."""


class SolverInvariantError(RuntimeError):
    """An exact invariant of the solver failed; indicates a bug."""


@dataclass(frozen=True)
class AllBinary:
    p: int


@dataclass(frozen=True)
class ExplicitList:
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors",
                           tuple([as_vector(v) for v in self.vectors]))
        if not self.vectors:
            raise InstanceError("explicit leader set is empty")
        for v in self.vectors:
            if any(x != 0 and x != 1 for x in v):
                raise InstanceError(f"non-binary leader vector {v}")


@dataclass(frozen=True)
class RelaxedBox:
    """Leader ranges over [0,1]^p; solved by binary enumeration, which the
    deviation-penalty construction makes exact (the instance must carry
    it, see `_check_relaxed_penalty`), plus a fractional spot-check
    sampler."""

    p: int


LeaderSet = Union[AllBinary, ExplicitList, RelaxedBox]


@dataclass(frozen=True)
class Caps:
    """Work budgets for the exhaustive parts of the solvers (the vertex,
    face and projection budgets are `rbo.geometry` constants)."""

    leader_bits: int = 20
    grid_points: int = 4096


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class RobustBilevelInstance:
    """All data of one robust bilevel problem.

    Follower feasible set: Y(x) = {y in R^n : lhs y <= leader_mat x + rhs}.
    The leader's objective is leader_obj·y over the follower's response.
    """

    p: int
    n: int
    lhs: tuple
    leader_mat: tuple
    rhs: tuple
    leader_obj: tuple
    leader_set: LeaderSet
    uncertainty: UncertaintySet
    mode_default: Mode = Mode.OPTIMISTIC

    def __post_init__(self):
        object.__setattr__(self, "lhs", as_matrix(self.lhs, self.n))
        object.__setattr__(self, "leader_mat",
                           as_matrix(self.leader_mat, self.p))
        object.__setattr__(self, "rhs", as_vector(self.rhs))
        object.__setattr__(self, "leader_obj", as_vector(self.leader_obj))
        if self.n < 1:
            raise InstanceError("need at least one follower variable")
        m = len(self.lhs)
        if m < 1:
            raise InstanceError("need at least one constraint row")
        if len(self.leader_mat) != m or len(self.rhs) != m:
            raise InstanceError("row counts of lhs/leader_mat/rhs differ")
        if len(self.leader_obj) != self.n:
            raise InstanceError("leader objective length != n")
        if self.uncertainty.dim != self.n:
            raise InstanceError(
                f"uncertainty dimension {self.uncertainty.dim} != n={self.n}")
        ls = self.leader_set
        if isinstance(ls, (AllBinary, RelaxedBox)) and ls.p != self.p:
            raise InstanceError("leader set arity != p")
        if isinstance(ls, ExplicitList):
            for v in ls.vectors:
                if len(v) != self.p:
                    raise InstanceError("leader vector arity != p")

    @property
    def num_rows(self) -> int:
        return len(self.lhs)

    def follower_polyhedron(self, x: Sequence) -> Polyhedron:
        x = as_vector(x)
        if len(x) != self.p:
            raise InstanceError(f"leader vector has arity {len(x)} != {self.p}")
        shifted = tuple([self.rhs[i] + dot(self.leader_mat[i], x)
                         for i in range(self.num_rows)])
        return Polyhedron(self.lhs, shifted)

    @cached_property
    def _memo(self) -> dict:
        """The adversary's results on this instance, kept for its
        lifetime; see `_adversary` for the entries."""
        return {}


@dataclass(frozen=True)
class SolveReport:
    leader_x: tuple
    value: Fraction
    worst_scenario: tuple
    follower_y: tuple
    trace: tuple


def enumerate_leader(inst: RobustBilevelInstance,
                     caps: Caps = DEFAULT_CAPS):
    """Leader candidates in lexicographic order (binary for relaxed sets)."""
    ls = inst.leader_set
    if isinstance(ls, ExplicitList):
        return sorted(ls.vectors)
    if ls.p > caps.leader_bits:
        raise CapExceededError(
            f"leader enumeration over 2^{ls.p} vectors exceeds "
            f"2^{caps.leader_bits}")
    return [tuple([Fraction(b) for b in bits])
            for bits in itertools.product((0, 1), repeat=ls.p)]


def _check_relaxed_penalty(inst: RobustBilevelInstance) -> None:
    """Refuse a relaxed leader set without `relax_leader`'s penalty.

    Binary enumeration is exact for x in [0,1]^p only through the
    deviation penalty: the last p follower columns are dev_i, met only in
    the last 3p rows, which read -dev_i <= 0, dev_i <= x_i and
    dev_i <= 1 - x_i for each i in turn; every dev_i has the leader weight
    -M < 0 and the certain objective coefficient 1.  The follower then
    sets dev_i = min(x_i, 1 - x_i), and a fractional x pays M for it.
    That M is large enough is the penalty argument's premise, which this
    does not check.
    """
    if not isinstance(inst.leader_set, RelaxedBox):
        return
    p, n = inst.p, inst.n
    k = inst.num_rows - 3 * p
    devs = range(n - p, n)

    def unit(i, width, value=ONE):
        return tuple([value if j == i else ZERO for j in range(width)])

    rows = []
    for i, dev in enumerate(devs):
        rows += [(unit(dev, n, -ONE), (ZERO,) * p, ZERO),
                 (unit(dev, n), unit(i, p), ZERO),
                 (unit(dev, n), unit(i, p, -ONE), ONE)]
    weights = {inst.leader_obj[j] for j in devs}
    if not (k >= 0 and n > p
            and list(zip(inst.lhs[k:], inst.leader_mat[k:],
                         inst.rhs[k:])) == rows
            and not any(row[j] for row in inst.lhs[:k] for j in devs)
            and len(weights) <= 1 and all(w < 0 for w in weights)
            and all(inst.uncertainty.pinned(j) == ONE for j in devs)):
        raise InstanceError(
            "a relaxed leader set needs relax_leader's deviation penalty "
            "on the last p follower columns")


def validate_instance(inst: RobustBilevelInstance,
                      caps: Caps = DEFAULT_CAPS) -> None:
    """Check Y(x) nonempty and bounded for every enumerable leader choice.

    A nonempty Y(x) has the recession cone {d : lhs·d <= 0} whatever x is,
    so boundedness is decided at the first leader and every later one
    needs only the emptiness probe.
    """
    for k, x in enumerate(enumerate_leader(inst, caps)):
        poly = inst.follower_polyhedron(x)
        if k == 0:
            nonempty, bounded = check_bounded_nonempty(poly)
        else:
            nonempty = is_nonempty(poly)
        if not nonempty:
            raise InstanceError(f"Y(x) is empty for x={x}")
        if not bounded:
            raise InstanceError(f"Y(x) is unbounded for x={x}")


def follower_response(inst: RobustBilevelInstance, x: Sequence, c: Sequence,
                      mode: Mode):
    """Follower's optimal y under scenario c, tie-broken per mode.

    Returns (y, leader value).  Optimistic picks the argmax point with the
    largest leader score, pessimistic the smallest.
    """
    c = as_vector(c)
    if len(c) != inst.n:
        raise InstanceError(f"scenario has dimension {len(c)} != {inst.n}")
    return _respond(inst, inst.follower_polyhedron(x), c, mode)


def _respond(inst: RobustBilevelInstance, poly: Polyhedron, c: Sequence,
             mode: Mode):
    """`follower_response` on poly = Y(x), which keeps its phase one for
    the next scenario."""
    tie_sense = Sense.MAX if mode is Mode.OPTIMISTIC else Sense.MIN
    lex = solve_lex_lp(poly, c, Sense.MAX, inst.leader_obj, tie_sense)
    return lex.point, lex.value


def adversary_geometric(inst: RobustBilevelInstance, x: Sequence, mode: Mode,
                        caps: Caps = DEFAULT_CAPS):
    """Worst scenario over any uncertainty set.  Returns (c*, value).

    Finite sets, a box with no free coordinate and a one-point hull among
    them, are scanned scenario by scenario.  Other boxes and hulls,
    U = L·D, go through the faces of the shadow of Y(x) under Lᵀ: the
    certificate direction s of each exposable face pins the follower to
    that face's argmax set, and the leader outcome there comes from the
    follower's lexicographic response at the scenario L·s.  Both share
    the instance memo's (mode, caps, Y(x).rhs) entry, see `_adversary`.
    """
    return _adversary(inst, inst.follower_polyhedron(x), mode, caps)


def _adversary(inst: RobustBilevelInstance, poly: Polyhedron, mode: Mode,
               caps: Caps):
    """`adversary_geometric` on poly = Y(x): the projection and every
    scenario's follower LP use this one polyhedron.

    Shadow faces G ⊆ F have nested follower argmax sets, so G's
    optimistic outcome is at most F's and its pessimistic outcome at
    least F's.  The scan solves only the faces no exposable face already
    found dominates: optimistic mode goes up from the vertices, in
    `enumerate_faces` order, and skips every face containing an exposable
    one; pessimistic mode goes down from the whole shadow, in the reverse
    order, and skips every face inside an exposable one.  A skipped face
    can never be a strictly smaller minimum than the face that dominates
    it, and that face comes first, so the result is the first minimum of
    the unpruned scan in the same order.

    Leaders of one instance mostly share their shadow, so the work is
    kept in `inst._memo` for the instance's lifetime, under three kinds
    of key: (mode, caps, Y(x).rhs) holds the result (c*, value), for
    finite sets too, as Y(x) has the instance's lhs; the elimination
    rows before the prune hold the pruned shadow (see
    `geometry.project_polytope`); and (mode, shadow polytope) holds the
    scan's scenarios, so vertex and face enumeration and the exposure LPs
    run once for each distinct shadow and mode.  Only the follower LPs on
    a new Y(x) run again, each with its certificate checked.
    """
    memo = inst._memo
    key = (mode, caps, poly.rhs)
    if key not in memo:
        scenarios = inst.uncertainty.finite_scenarios(caps.grid_points)
        if scenarios is None:
            scenarios = _shadow_scenarios(inst, poly, mode)
        if not scenarios:
            raise SolverInvariantError(
                "the adversary found no scenario; the shadow set is broken")
        # min keeps the first scenario of the smallest outcome.
        memo[key] = min([(c, _respond(inst, poly, c, mode)[1])
                         for c in scenarios], key=lambda pair: pair[1])
    return memo[key]


def _shadow_scenarios(inst: RobustBilevelInstance, poly: Polyhedron,
                      mode: Mode) -> list:
    """The certificate scenarios of the undominated exposable faces of the
    shadow of poly = Y(x), in `_adversary`'s scan order."""
    memo = inst._memo
    shadow = inst.uncertainty.shadow()
    shadow_poly = geometry.project_polytope(poly, shadow.columns, memo)
    key = (mode, shadow_poly)
    if key in memo:
        return memo[key]
    vset = geometry.enumerate_vertices(shadow_poly)
    faces = geometry.enumerate_faces(shadow_poly, vset)
    upward = mode is Mode.OPTIMISTIC
    if not upward:
        faces.reverse()
    exposed, scenarios = [], []
    for face in faces:
        verts = face.vertex_indices
        if any(verts >= g if upward else verts <= g for g in exposed):
            continue
        cert = geometry.exposure_check(face, vset, shadow.directions)
        if cert is not None:
            exposed.append(verts)
            scenarios.append(shadow.scenario(cert.c))
    memo[key] = scenarios
    return scenarios


def solve_robust(inst: RobustBilevelInstance, mode: Optional[Mode] = None,
                 caps: Caps = DEFAULT_CAPS) -> SolveReport:
    """Max over leader choices of the adversary's min; exact throughout.

    Every leader goes through `adversary_geometric`, whatever the
    uncertainty set; a solve for one fixed scenario c is a solve over
    DiscreteSet((c,)).  Ties between leader choices resolve to the
    lexicographically smallest x; adversary ties to the first minimum in
    canonical order: finite sets in scenario order, shadow faces from the
    vertices up (`enumerate_faces` order) when optimistic and from the
    whole shadow down (the reverse) when pessimistic, see `_adversary`.
    The report's value is cross-checked by replaying the worst scenario
    through the follower's lexicographic LP.
    """
    _check_relaxed_penalty(inst)
    if mode is None:
        mode = inst.mode_default
    best = None
    trace = []
    for x in enumerate_leader(inst, caps):
        c_star, value = adversary_geometric(inst, x, mode, caps)
        trace.append((x, value))
        if best is None or value > best[1]:
            best = (x, value, c_star)
    x_star, value, c_star = best
    y_star, replay = follower_response(inst, x_star, c_star, mode)
    if replay != value:
        raise SolverInvariantError(
            f"adversary value {value} disagrees with follower replay "
            f"{replay}; solver invariant broken")
    return SolveReport(leader_x=x_star, value=value, worst_scenario=c_star,
                       follower_y=y_star, trace=tuple(trace))


SPOT_SAMPLES = 100
SPOT_DENOMINATOR = 16


def spot_check_relaxed(inst: RobustBilevelInstance, binary_value: Fraction,
                       mode: Mode, caps: Caps = DEFAULT_CAPS,
                       seed: int = 0) -> Optional[tuple]:
    """Deterministic fractional-leader sampler for relaxed instances.

    Draws SPOT_SAMPLES seeded points of the grid with step
    1/SPOT_DENOMINATOR from [0,1]^p and checks that none beats the
    binary optimum.  A cheap sound bound is tried first: the adversary's
    min over the corner scenarios of the uncertainty set dominates the
    true adversary value, so if even that bound stays below the binary
    optimum the sample passes; otherwise the exact adversary runs.

    Returns None when all samples pass, else a witness (x, exact value).
    """
    if not isinstance(inst.leader_set, RelaxedBox):
        raise InstanceError("spot check applies to relaxed leader sets")
    unc = inst.uncertainty
    sample_scenarios = unc.corner_samples(caps.grid_points)
    finite = unc.finite_scenarios(caps.grid_points) is not None
    rng = random.Random(seed)
    for _ in range(SPOT_SAMPLES):
        x = tuple([Fraction(rng.randint(0, SPOT_DENOMINATOR),
                            SPOT_DENOMINATOR) for _ in range(inst.p)])
        poly = inst.follower_polyhedron(x)
        bound = None
        for c in sample_scenarios:
            value = _respond(inst, poly, c, mode)[1]
            if bound is None or value < bound:
                bound = value
            if bound <= binary_value:
                break  # the min over scenarios can only be lower
        if bound <= binary_value:
            continue
        if finite:
            return (x, bound)  # the bound is already exact for finite sets
        _, exact = _adversary(inst, poly, mode, caps)
        if exact > binary_value:
            return (x, exact)
    return None


# ---------------------------------------------------------------------------
# JSON interchange.


def _kind_of(data, what: str):
    if not isinstance(data, dict):
        raise InstanceError(f"{what} must be a JSON object, got {data!r}")
    return data.get("kind")


def _leader_set_to_json(ls: LeaderSet) -> dict:
    if isinstance(ls, AllBinary):
        return {"kind": "all_binary"}
    if isinstance(ls, RelaxedBox):
        return {"kind": "relaxed_box"}
    return {"kind": "explicit", "vectors": rat_format_nested(ls.vectors)}


def _leader_set_from_json(data: dict, p: int) -> LeaderSet:
    kind = _kind_of(data, "leader_set")
    if kind == "all_binary":
        return AllBinary(p)
    if kind == "relaxed_box":
        return RelaxedBox(p)
    if kind == "explicit":
        return ExplicitList(rat_parse_nested(data["vectors"]))
    raise InstanceError(f"unknown leader set kind {kind!r}")


def _uncertainty_from_json(data: dict) -> UncertaintySet:
    kind = _kind_of(data, "uncertainty")
    if kind not in KINDS:
        raise InstanceError(f"unknown uncertainty kind {kind!r}")
    return KINDS[kind].from_json(data)


def instance_to_json(inst: RobustBilevelInstance,
                     var_map: Optional[Sequence[str]] = None,
                     big_m: Optional[Fraction] = None) -> dict:
    doc = {
        "p": inst.p,
        "n": inst.n,
        "A": rat_format_nested(inst.lhs),
        "B": rat_format_nested(inst.leader_mat),
        "b": rat_format_nested(inst.rhs),
        "d": rat_format_nested(inst.leader_obj),
        "leader_set": _leader_set_to_json(inst.leader_set),
        "uncertainty": inst.uncertainty.to_json(),
        "mode_default": inst.mode_default.value,
    }
    if var_map is not None:
        doc["var_map"] = list(var_map)
    if big_m is not None:
        doc["M"] = rat_format(big_m)
    return doc


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:  # a bool is an int to isinstance
        raise InstanceError(f"{key} must be a JSON integer, got {value!r}")
    return value


def instance_from_json(doc: dict):
    """Parse the interchange document; returns (instance, metadata)."""
    try:
        p = _json_int(doc, "p")
        n = _json_int(doc, "n")
        inst = RobustBilevelInstance(
            p=p,
            n=n,
            lhs=rat_parse_nested(doc["A"]),
            leader_mat=rat_parse_nested(doc["B"]),
            rhs=rat_parse_nested(doc["b"]),
            leader_obj=rat_parse_nested(doc["d"]),
            leader_set=_leader_set_from_json(doc["leader_set"], p),
            uncertainty=_uncertainty_from_json(doc["uncertainty"]),
            mode_default=Mode(doc.get("mode_default", "optimistic")),
        )
        meta = {}
        if "var_map" in doc:
            meta["var_map"] = list(doc["var_map"])
        if "M" in doc:
            meta["M"] = rat_parse(doc["M"])
    except (KeyError, TypeError, RecursionError) as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc
    _check_relaxed_penalty(inst)
    return inst, meta


def save_instance(path, inst: RobustBilevelInstance,
                  var_map: Optional[Sequence[str]] = None,
                  big_m: Optional[Fraction] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_json(inst, var_map, big_m), handle, indent=1)
        handle.write("\n")


def read_json(path):
    """The JSON document in a file; nesting too deep to decode is refused."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise InstanceError(
                f"{path}: JSON document nested too deeply") from exc


def load_instance(path, caps: Caps = DEFAULT_CAPS):
    inst, meta = instance_from_json(read_json(path))
    validate_instance(inst, caps)
    return inst, meta
