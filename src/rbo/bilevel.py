"""Robust bilevel instances and their exact desk-scale solvers.

The model: a leader picks x from a binary (or relaxed) set, an adversary
picks the follower's objective c from an uncertainty set, the follower
maximizes c·y over Y(x) = {y : A·y <= B·x + b}, and the leader scores
leader_obj·y.  The leader maximizes, the adversary minimizes, and
follower ties are broken for (optimistic) or against (pessimistic) the
leader via a lexicographic LP.

Finite scenario sets, a box with no free coordinate and a hull whose
points all coincide among them, are handled by enumeration.  Other box
and hull uncertainty U = L·D takes the exposed faces of an exact
low-dimensional linear image ("shadow") of Y(x) under Lᵀ (see
`rbo.uncertainty`): L has one column per genuinely uncertain objective
coordinate, plus one for the certain part's score, or one per hull point.
Scenarios agreeing on the shadow induce the same follower argmax set, so
enumerating exposable shadow faces enumerates every possible adversary
outcome exactly, at desk scale, even when Y(x) itself has far too many
faces to enumerate; each outcome is then read off the follower's
lexicographic response at the face's scenario.  When the columns of L
are linearly dependent, as a hull's points often are, the shadow is
flat.

Leader sets follow the uncertainty sets' protocol (`LeaderSet`); the
arity p is the instance's, and only an explicit list's vectors carry it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from . import geometry
from .lp import (
    Polyhedron,
    Sense,
    check_bounded_nonempty,
    is_nonempty,
    scaled_objective,
    solve_lex_lp,
)
from .numeric import (
    Fraction,
    as_vector,
    integer_scaled,
    rat_format,
    rat_format_nested,
    rat_format_vector,
    rat_parse,
    rat_parse_nested,
    rat_parse_scaled,
)
from .uncertainty import KINDS, CapExceededError, Kind, UncertaintySet


class Mode(Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class InstanceError(ValueError):
    """The instance data violates the model's standing assumptions."""


class SolverInvariantError(RuntimeError):
    """An exact invariant of the solver failed; indicates a bug."""


MAX_LEADER_BITS = 20


def check_leader_bits(p: int) -> None:
    """Refuse binary leader enumeration over more than MAX_LEADER_BITS."""
    if p > MAX_LEADER_BITS:
        raise CapExceededError(
            f"leader enumeration over 2^{p} vectors exceeds "
            f"2^{MAX_LEADER_BITS}")


class LeaderSet(Kind):
    """The protocol of every kind in `LEADER_KINDS`: `candidates(p)`, the
    leader vectors in the order the solver takes them, and `contains(x)`,
    exact membership of a vector of length p."""


@dataclass(frozen=True)
class AllBinary(LeaderSet):
    kind = "all_binary"

    def candidates(self, p: int) -> list:
        check_leader_bits(p)
        return [tuple([Fraction(b) for b in bits])
                for bits in itertools.product((0, 1), repeat=p)]

    def contains(self, x: tuple) -> bool:
        return all(v in (0, 1) for v in x)


@dataclass(frozen=True)
class RelaxedBox(AllBinary):
    """Leader ranges over [0,1]^p; solved by binary enumeration, which the
    deviation-penalty construction makes exact (the instance must carry
    it, see `_check_relaxed_penalty`)."""

    kind = "relaxed_box"

    def contains(self, x: tuple) -> bool:
        return all(0 <= v <= 1 for v in x)


@dataclass(frozen=True)
class ExplicitList(LeaderSet):
    kind = "explicit"
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors",
                           tuple([as_vector(v) for v in self.vectors]))
        if not self.vectors:
            raise InstanceError("explicit leader set is empty")
        for v in self.vectors:
            if any(x != 0 and x != 1 for x in v):
                raise InstanceError(
                    f"non-binary leader vector {rat_format_vector(v)}")

    def candidates(self, p: int) -> list:
        return sorted(self.vectors)

    def contains(self, x: tuple) -> bool:
        return x in self.vectors


LEADER_KINDS = {cls.kind: cls for cls in (AllBinary, ExplicitList, RelaxedBox)}


@dataclass(frozen=True)
class RobustBilevelInstance:
    """All data of one robust bilevel problem.

    Follower feasible set: Y(x) = {y in R^n : A y <= B x + b}, with A, B
    and b named as in the JSON document.  The leader's objective is
    leader_obj·y over the follower's response.  Its data are its rows in
    ints, the one copy of [A | B | b]: `rows` holds (t_i, L_i, B_i, b_i)
    for each row i, row i of [A | B | b] times t_i, the least int > 0 that
    makes it integral, split into its three parts, as `int_row` writes
    them from sparse rows and `instance_from_json` from a document.
    """

    p: int
    n: int
    rows: tuple
    leader_obj: tuple
    leader_set: LeaderSet
    uncertainty: UncertaintySet
    mode_default: Mode = Mode.OPTIMISTIC

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "leader_obj", as_vector(self.leader_obj))
        if self.n < 1:
            raise InstanceError("need at least one follower variable")
        if not self.rows:
            raise InstanceError("need at least one constraint row")
        if any(t < 1 or len(lhs) != self.n or len(lead) != self.p
               for t, lhs, lead, _ in self.rows):
            raise InstanceError("a row's widths differ from n and p")
        if len(self.leader_obj) != self.n:
            raise InstanceError("leader objective length != n")
        if self.uncertainty.dim != self.n:
            raise InstanceError(
                f"uncertainty dimension {self.uncertainty.dim} != n={self.n}")
        if isinstance(self.leader_set, ExplicitList) and any(
                len(v) != self.p for v in self.leader_set.vectors):
            raise InstanceError("leader vector arity != p")
        _check_relaxed_penalty(self)
        # Kept for the instance's lifetime, see `adversary_geometric`.
        for memo in ("_polyhedra", "_distinct", "_adversaries", "_scans"):
            object.__setattr__(self, memo, {})

    def follower_polyhedron(self, x: Sequence) -> Polyhedron:
        """Y(x), one `Polyhedron` per distinct Y(x) for the instance's
        lifetime (kept in `_polyhedra` under x, and in `_distinct` under
        its integer rows, so leaders with equal rows share one), so every
        solve on Y(x) shares one tableau build and one phase one:
        validation's, both modes' adversaries and the replay; and each
        objective's first stage.

        Its rows are written in ints from `rows`: with x = X / q, row i
        of [A | b + B·x] is (q·L_i | q·b_i + B_i·X) / (t_i·q), taken at
        its least scale, divided by the gcd of t_i·q and its ints, so a
        fractional x gives each row at its least integer scale; with
        t_i·q = 1 that gcd is 1, and the row is (L_i | b_i + B_i·X).
        """
        x = as_vector(x)
        if len(x) != self.p:
            raise InstanceError(
                f"leader vector has arity {len(x)} != {self.p}")
        poly = self._polyhedra.get(x)
        if poly is None:
            q, xs = integer_scaled(x)
            rows = []
            for t, lhs, lead, b in self.rows:
                rhs = q * b + sum(map(mul, lead, xs))
                if t * q == 1:
                    rows.append((*lhs, rhs))
                    continue
                row = [q * a for a in lhs] + [rhs]
                g = gcd(t * q, *row)
                rows.append(tuple([a // g for a in row]))
            poly = Polyhedron(rows)
            poly = self._polyhedra[x] = self._distinct.setdefault(
                poly.rows, poly)
        return poly

    @cached_property
    def _ties(self) -> dict:
        """Each mode's tie objective, the leader's, scaled to ints once:
        maximized when optimistic, minimized when pessimistic."""
        return {mode: scaled_objective(self.leader_obj, sense, self.n)
                for mode, sense in ((Mode.OPTIMISTIC, Sense.MAX),
                                    (Mode.PESSIMISTIC, Sense.MIN))}

    @cached_property
    def _finite_objectives(self) -> Optional[list]:
        """(c, c scaled to ints) for each scenario of a finite uncertainty
        set, in its order, scaled once; None for any other set."""
        scenarios = self.uncertainty.finite_scenarios()
        if scenarios is None:
            return None
        return [(c, scaled_objective(c, Sense.MAX, self.n))
                for c in scenarios]

    @cached_property
    def _shadow(self):
        """The uncertainty set's `Shadow`, taken once."""
        return self.uncertainty.shadow()


def int_row(follower: dict, leader: dict, const, n: int, p: int) -> tuple:
    """The instance row (t, L, B, b) of follower·y <= leader·x + const,
    the coefficients ints or rationals keyed by column, read off the
    entries given: the row times t, the least int > 0 that makes it
    integral, as `RobustBilevelInstance.rows` holds it."""
    t = lcm(*[v.denominator for v in (*follower.values(), *leader.values())],
            const.denominator)
    lhs, lead = [0] * n, [0] * p
    for part, entries in ((lhs, follower), (lead, leader)):
        for j, v in entries.items():
            part[j] = v.numerator * (t // v.denominator)
    return (t, tuple(lhs), tuple(lead),
            const.numerator * (t // const.denominator))


@dataclass(frozen=True)
class SolveReport:
    leader_x: tuple
    value: Fraction
    worst_scenario: tuple
    follower_y: tuple
    trace: tuple


def _check_relaxed_penalty(inst: RobustBilevelInstance) -> None:
    """Refuse a relaxed leader set without `relax_leader`'s penalty; run
    as each instance is built, so no relaxed instance lacks it.

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
    k = len(inst.rows) - 3 * p
    devs = range(n - p, n)

    def unit(i, width, value=1):
        return tuple([value if j == i else 0 for j in range(width)])

    rows = []
    for i, dev in enumerate(devs):
        rows += [(1, unit(dev, n, -1), (0,) * p, 0),
                 (1, unit(dev, n), unit(i, p), 0),
                 (1, unit(dev, n), unit(i, p, -1), 1)]
    weights = {inst.leader_obj[j] for j in devs}
    if not (k >= 0 and n > p and list(inst.rows[k:]) == rows
            and not any(lhs[j] for _, lhs, _, _ in inst.rows[:k]
                        for j in devs)
            and len(weights) <= 1 and all(w < 0 for w in weights)
            and all(inst.uncertainty.pinned(j) == 1 for j in devs)):
        raise InstanceError(
            "a relaxed leader set needs relax_leader's deviation penalty "
            "on the last p follower columns")


def validate_instance(inst: RobustBilevelInstance) -> None:
    """Check Y(x) nonempty and bounded for every enumerable leader choice.

    A nonempty Y(x) has the recession cone {d : A·d <= 0} whatever x is,
    so boundedness is decided at the first leader and every later one
    needs only the emptiness probe.
    """
    for k, x in enumerate(inst.leader_set.candidates(inst.p)):
        poly = inst.follower_polyhedron(x)
        if k == 0:
            nonempty, bounded = check_bounded_nonempty(poly)
        else:
            nonempty = is_nonempty(poly)
        if not nonempty:
            raise InstanceError(f"Y(x) is empty for x={rat_format_vector(x)}")
        if not bounded:
            raise InstanceError(
                f"Y(x) is unbounded for x={rat_format_vector(x)}")


def follower_response(inst: RobustBilevelInstance, x: Sequence, c: Sequence,
                      mode: Mode):
    """Follower's optimal y under scenario c, tie-broken per mode.

    Returns (y, leader value).  Optimistic picks the argmax point with the
    largest leader score, pessimistic the smallest.  The one caller that
    reads y in Fractions: the replay and `rbo follower`.
    """
    c = as_vector(c)
    if len(c) != inst.n:
        raise InstanceError(f"scenario has dimension {len(c)} != {inst.n}")
    (w, d), value = _respond(inst, inst.follower_polyhedron(x),
                             scaled_objective(c, Sense.MAX, inst.n), mode)
    return tuple([Fraction(a, d) for a in w]), value


def _respond(inst: RobustBilevelInstance, poly: Polyhedron, c: tuple,
             mode: Mode):
    """`follower_response` on poly = Y(x), which keeps its phase one for
    the next scenario, to the scenario c as `scaled_objective` gives it;
    y comes as ints (w, d), y = w / d, and the leader's value leader_obj·y
    as tie·w / (S·d), (S, tie) the mode's tie objective, negated when
    pessimistic, as that tie is the leader's objective negated."""
    scale, ints = tie = inst._ties[mode]
    w, d = point = solve_lex_lp(poly, c, tie)
    value = Fraction(sum(map(mul, ints, w)), scale * d)
    return point, value if mode is Mode.OPTIMISTIC else -value


def adversary_geometric(inst: RobustBilevelInstance, x: Sequence, mode: Mode):
    """Worst scenario over any uncertainty set.  Returns (c*, value).

    Finite sets, a box with no free coordinate and a hull whose points
    all coincide among them, are scanned scenario by scenario.  Other
    boxes and hulls, U = L·D, go through the faces of the shadow of Y(x)
    under Lᵀ: the direction s of each exposable face pins the follower
    to that face's argmax set, and the leader outcome there comes from
    the follower's lexicographic response at the scenario L·s.

    A hull's points are often linearly dependent; the shadow is then
    flat, and its vertices and faces are found as for any other polytope.

    The faces the scan solves, their order and their directions come
    from `geometry.exposed_faces`, with no LP.  Each direction is checked
    exactly before use: it lies in D, and its argmax over the shadow's
    vertices is its face.

    Leaders of one instance mostly share their shadow, so the work is
    kept for the instance's lifetime: `inst._polyhedra` and
    `inst._distinct` give leaders with equal Y(x) rows one polyhedron;
    `inst._adversaries` holds the result (c*, value) under (mode, Y(x)),
    for finite sets too; and `inst._scans` holds the scan's directions,
    each with its scenario's objective in ints, under (mode, the
    projection's sorted integer rows), so the shadow's vertices and
    exposed faces are found once for each distinct projection and mode.
    A polytope's faces do not depend on redundant rows, so the
    projection's rows need not be irredundant.  Only the projection and
    the follower LPs on a new Y(x) run again, each LP with its
    certificates checked; Y(x) keeps each scenario's first stage, so the
    other mode and the replay run only tie stages.  The scenario L·s is
    built in Fractions only for the direction reported.
    """
    poly = inst.follower_polyhedron(x)
    memo = inst._adversaries
    key = (mode, poly)
    if key not in memo:
        scenarios = inst._finite_objectives
        finite = scenarios is not None
        if not finite:
            scenarios = _shadow_scenarios(inst, poly, mode)
        if not scenarios:
            raise SolverInvariantError(
                "the adversary found no scenario; the shadow set is broken")
        # min keeps the first scenario of the smallest outcome.
        c, value = min([(c, _respond(inst, poly, obj, mode)[1])
                        for c, obj in scenarios], key=lambda pair: pair[1])
        memo[key] = (c if finite else inst._shadow.scenario(*c)), value
    return memo[key]


def _shadow_scenarios(inst: RobustBilevelInstance, poly: Polyhedron,
                      mode: Mode) -> list:
    """((w, d), L·s scaled to ints) for the directions s = w / d of the
    faces of the shadow of poly = Y(x) that `geometry.exposed_faces`
    gives for the mode, in its order.  Each direction is checked in ints:
    w·v over the shadow's vertices, each v its key (d_v·v | d_v), one
    positive factor d·d_v off the true score, so the argmax is the same.
    L·s is rows·w / (d·λ) (`Shadow.int_rows`), so `scaled_objective`'s
    ints are (d·λ / g, rows·w / g) for g = gcd(d·λ, rows·w)."""
    shadow = inst._shadow
    image = geometry.project_polytope(poly, shadow.columns)
    memo = inst._scans
    key = (mode, image.rows)
    if key in memo:
        return memo[key]
    scale, lrows = shadow.int_rows
    verts = tuple(geometry.enumerate_vertices(image))
    faces = geometry.exposed_faces(verts, shadow.directions,
                                   mode is Mode.OPTIMISTIC)
    scenarios = []
    for face, (w, d) in faces.items():
        # zip stops at w's end, before each v's last entry, d_v.
        scores = [sum(map(mul, w, v)) for v in verts]
        top = max(scores)
        if not (shadow.directions._holds(w, d) and face == frozenset(
                i for i, score in enumerate(scores) if score == top)):
            raise SolverInvariantError(
                f"direction {rat_format_vector(w)} / {d} does not expose "
                "its face")
        ints = [sum(map(mul, w, row)) for row in lrows]
        g = gcd(d * scale, *ints)
        scenarios.append(((w, d), (d * scale // g,
                                   tuple([a // g for a in ints]))))
    memo[key] = scenarios
    return scenarios


def solve_robust(inst: RobustBilevelInstance,
                 mode: Optional[Mode] = None) -> SolveReport:
    """Max over leader choices of the adversary's min; exact throughout.

    Every leader goes through `adversary_geometric`, whatever the
    uncertainty set; a solve for one fixed scenario c is a solve over
    DiscreteSet((c,)).  Ties between leader choices resolve to the
    lexicographically smallest x; adversary ties to the first minimum in
    canonical order: finite sets in scenario order, shadow faces in
    `geometry.exposed_faces`'s order.  The report's value is cross-checked
    by replaying the worst scenario through the follower's lexicographic
    LP, which starts from the first stage Y(x*) kept for that scenario:
    it recomputes the tie stage and checks both certificates again.
    """
    if mode is None:
        mode = inst.mode_default
    best = None
    trace = []
    for x in inst.leader_set.candidates(inst.p):
        c_star, value = adversary_geometric(inst, x, mode)
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


# ---------------------------------------------------------------------------
# JSON interchange.


# The keys of an instance document; `instance_from_json` refuses others.
DOCUMENT_KEYS = ("p", "n", "A", "B", "b", "d", "leader_set", "uncertainty",
                 "mode_default", "var_map", "M")


def _refuse_unknown_keys(data: dict, known: Sequence, where: str) -> None:
    """Refuse the first key of the JSON object data that is not known, so
    a misspelled key is an error rather than a silent default."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise InstanceError(f"unknown key {unknown[0]!r} in {where}")


def _kind_from_json(doc: dict, key: str, kinds: dict) -> Kind:
    """The member of `kinds` that the object doc[key] names by its kind;
    a field the kind does not declare is refused."""
    data = doc[key]
    if not isinstance(data, dict):
        raise InstanceError(f"{key} must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in kinds:  # a list is unhashable
        raise InstanceError(f"unknown {key.replace('_', ' ')} kind {kind!r}")
    cls = kinds[kind]
    _refuse_unknown_keys(data, ["kind", *[f.name for f in fields(cls)]], key)
    return cls.from_json(data)


def instance_to_json(inst: RobustBilevelInstance,
                     var_map: Optional[Sequence[str]] = None,
                     big_m: Optional[Fraction] = None) -> dict:
    # The rows are sparse, so a zero entry is written without a Fraction.
    doc = {
        "p": inst.p,
        "n": inst.n,
        "A": [[rat_format(Fraction(a, t)) if a else "0" for a in lhs]
              for t, lhs, _, _ in inst.rows],
        "B": [[rat_format(Fraction(a, t)) if a else "0" for a in lead]
              for t, _, lead, _ in inst.rows],
        "b": [rat_format(Fraction(b, t)) if b else "0"
              for t, _, _, b in inst.rows],
        "d": rat_format_nested(inst.leader_obj),
        "leader_set": inst.leader_set.to_json(),
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
    if type(value) is not int or value < 0:  # a bool is an int to isinstance
        raise InstanceError(
            f"{key} must be a JSON integer >= 0, got {value!r}")
    return value


def _rows_from_json(doc: dict) -> tuple:
    """The instance rows of the document's A, B and b, as `int_row`
    writes them: each row [A_i | B_i | b_i] read straight into ints at
    its least scale by one `rat_parse_scaled`, split at len(A_i)."""
    lhs, lead, rhs = [doc[key] for key in ("A", "B", "b")]
    if not all(isinstance(part, list) for part in (lhs, lead, rhs)):
        raise TypeError("A, B and b must be JSON lists")
    if not len(lhs) == len(lead) == len(rhs):
        raise InstanceError("row counts of A, B and b differ")
    rows = []
    for a, l, b in zip(lhs, lead, rhs):
        if not (isinstance(a, list) and isinstance(l, list)):
            raise TypeError(f"rows of A and B must be JSON lists, got {a!r} "
                            f"and {l!r}")
        t, ints = rat_parse_scaled(a + l + [b])
        rows.append((t, tuple(ints[:len(a)]), tuple(ints[len(a):-1]),
                     ints[-1]))
    return tuple(rows)


def instance_from_json(doc: dict):
    """Parse the interchange document; returns (instance, metadata)."""
    if not isinstance(doc, dict):
        raise InstanceError("an instance document must be a JSON object")
    _refuse_unknown_keys(doc, DOCUMENT_KEYS, "the instance document")
    try:
        inst = RobustBilevelInstance(
            p=_json_int(doc, "p"),
            n=_json_int(doc, "n"),
            rows=_rows_from_json(doc),
            leader_obj=rat_parse_nested(doc["d"]),
            leader_set=_kind_from_json(doc, "leader_set", LEADER_KINDS),
            uncertainty=_kind_from_json(doc, "uncertainty", KINDS),
            mode_default=Mode(doc.get("mode_default", "optimistic")),
        )
        meta = {}
        if "var_map" in doc:
            var_map = doc["var_map"]
            if not (isinstance(var_map, list) and len(var_map) == inst.n
                    and all(isinstance(name, str) for name in var_map)):
                raise InstanceError(
                    f"var_map must be a list of {inst.n} strings")
            meta["var_map"] = var_map
        if "M" in doc:
            meta["M"] = rat_parse(doc["M"])
    except (AttributeError, KeyError, TypeError, RecursionError) as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc
    return inst, meta


def save_instance(path, inst: RobustBilevelInstance,
                  var_map: Optional[Sequence[str]] = None,
                  big_m: Optional[Fraction] = None) -> None:
    """Write the interchange document, one top-level key per line."""
    doc = instance_to_json(inst, var_map, big_m)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join([
            f"{json.dumps(key)}: {json.dumps(value)}"
            for key, value in doc.items()]) + "\n}\n")


def read_json(path):
    """The JSON document in a file; nesting too deep to decode is refused."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise InstanceError(
                f"{path}: JSON document nested too deeply") from exc


def load_instance(path):
    inst, meta = instance_from_json(read_json(path))
    validate_instance(inst)
    return inst, meta
