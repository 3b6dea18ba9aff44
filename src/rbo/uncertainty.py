"""Uncertainty sets for the follower's objective vector.

Four kinds are supported: coordinate boxes, explicit finite scenario
lists, convex hulls of finitely many points, and coordinatewise products
of finite value sets.  All entries are exact rationals.

The solvers see a set only through the protocol of `UncertaintySet`, so
a new kind (budgeted uncertainty, say) is one dataclass plus its entry in
`KINDS`.  It must provide:

* `kind`, its JSON tag, and `dim`, the length of a scenario;
* `finite_scenarios()`: every scenario, in canonical order, when the
  set is finite (a box with no free coordinate and a hull whose points
  all coincide count), else None;
* `shadow()`, when `finite_scenarios` gives None: a `Shadow` (L, D) with
  U = L·D for a polytope D = {s : G·s <= h} of low dimension, given by
  its rows; the exposed faces are found over D directly, so a new
  convex kind needs no other geometry;
* `_contains(c)`: exact membership of a vector of the right length;
* `pinned(j)`: the value every member has in coordinate j, or None;
* `corner_samples()`, when the default (the finite scenarios) does not
  apply: finitely many members whose minimum over follower outcomes
  bounds the adversary from above;
* one dataclass field per JSON field, each a nested tuple of rationals,
  which `to_json` and `from_json` translate; these two come from `Kind`,
  which the leader-set kinds of `rbo.bilevel` share.

MAX_SCENARIOS bounds how many scenarios a method may generate from a
product grid or from box corners.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .lp import Polyhedron, is_nonempty
from .numeric import (
    ONE,
    ZERO,
    as_matrix,
    as_vector,
    dot,
    rat_format_nested,
    rat_parse_nested,
)


class CapExceededError(Exception):
    """A combinatorial enumeration would exceed its work budget."""


MAX_SCENARIOS = 4096


@dataclass(frozen=True)
class Shadow:
    """U = L·D, with the q columns of L kept as `columns` and the direction
    polytope D = {s : G·s <= h} kept as `directions`.

    Two scenarios that agree on Lᵀ·y induce the same follower argmax, so
    the adversary works on the image of Y(x) under the rows `columns`
    (that is, Lᵀ) and picks its directions s from D.  The columns may be
    linearly dependent, as a hull's points often are; the image is then
    flat.
    """

    columns: tuple
    directions: Polyhedron

    def scenario(self, w: Sequence, d: int) -> tuple:
        """The scenario L·s of a direction s = w / d in D, d > 0."""
        return tuple([dot(w, row) / d for row in zip(*self.columns)])


def _identity(k: int) -> tuple:
    return tuple([tuple([ONE if j == i else ZERO for j in range(k)])
                  for i in range(k)])


def _opposite(row) -> tuple:
    return tuple([-v for v in row])


def _shared(values: Sequence):
    """The one value of a nonempty sequence, or None if it has several."""
    return values[0] if len(set(values)) == 1 else None


class Kind:
    """A dataclass written to JSON as its `kind` tag and its fields, each
    a nested tuple of rationals: uncertainty and leader-set kinds."""

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for f in fields(self):
            doc[f.name] = rat_format_nested(getattr(self, f.name))
        return doc

    @classmethod
    def from_json(cls, data: dict) -> "Kind":
        return cls(*[rat_parse_nested(data[f.name]) for f in fields(cls)])


class UncertaintySet(Kind):
    """The protocol every uncertainty kind implements (module docstring)."""

    def contains(self, c: Sequence) -> bool:
        """Exact membership test of a vector in the uncertainty set."""
        c = as_vector(c)
        return len(c) == self.dim and self._contains(c)

    def corner_samples(self) -> tuple:
        return self.finite_scenarios()


@dataclass(frozen=True)
class Interval(UncertaintySet):
    """Box [lower_1, upper_1] x ... x [lower_n, upper_n]."""

    kind = "interval"
    lower: tuple
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))
        if len(self.lower) != len(self.upper):
            raise ValueError("interval bound dimensions differ")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("interval has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def free_indices(self) -> tuple:
        return tuple([i for i in range(self.dim)
                      if self.lower[i] != self.upper[i]])

    def finite_scenarios(self) -> Optional[tuple]:
        return None if self.free_indices() else (self.lower,)

    def shadow(self) -> Shadow:
        """One column per free coordinate, plus the certain part when it is
        nonzero, paired with the direction pinned to 1; D is the sub-box
        lower <= s <= upper, written as the rows e_i and -e_i."""
        free = self.free_indices()
        base = tuple([ZERO if i in free else self.lower[i]
                      for i in range(self.dim)])
        columns = [tuple([ONE if j == i else ZERO for j in range(self.dim)])
                   for i in free]
        bounds = [(self.lower[i], self.upper[i]) for i in free]
        if any(base):
            columns.append(base)
            bounds.append((ONE, ONE))
        rows, rhs = [], []
        for unit, (lo, hi) in zip(_identity(len(bounds)), bounds):
            rows += [unit, _opposite(unit)]
            rhs += [hi, -lo]
        return Shadow(tuple(columns), Polyhedron(rows, rhs))

    def _contains(self, c: tuple) -> bool:
        return all(lo <= ci <= hi
                   for lo, ci, hi in zip(self.lower, c, self.upper))

    def pinned(self, j: int):
        return self.lower[j] if self.lower[j] == self.upper[j] else None

    def corner_samples(self) -> tuple:
        """Every corner of the box, its fixed coordinates pinned."""
        free = self.free_indices()
        if 2 ** len(free) > MAX_SCENARIOS:
            raise CapExceededError(
                f"too many box corners: 2^{len(free)} > {MAX_SCENARIOS}")
        corners = [self.lower]
        for i in free:
            corners = [c[:i] + (v,) + c[i + 1:] for c in corners
                       for v in (self.lower[i], self.upper[i])]
        return tuple(corners)


@dataclass(frozen=True)
class DiscreteSet(UncertaintySet):
    """Explicit finite list of scenario vectors."""

    kind = "discrete"
    scenarios: tuple

    def __post_init__(self):
        object.__setattr__(self, "scenarios", as_matrix(self.scenarios))
        if not self.scenarios:
            raise ValueError(
                "discrete uncertainty needs at least one scenario")

    @property
    def dim(self) -> int:
        return len(self.scenarios[0])

    def finite_scenarios(self) -> tuple:
        return self.scenarios

    def _contains(self, c: tuple) -> bool:
        return c in self.scenarios

    def pinned(self, j: int):
        return _shared([c[j] for c in self.scenarios])


@dataclass(frozen=True)
class ConvexHull(UncertaintySet):
    """Convex hull of finitely many explicitly listed points."""

    kind = "convex_hull"
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", as_matrix(self.points))
        if not self.points:
            raise ValueError("convex hull needs at least one point")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def finite_scenarios(self) -> Optional[tuple]:
        """The one point of a hull whose points all coincide, else None."""
        return self.points[:1] if len(set(self.points)) == 1 else None

    def shadow(self) -> Shadow:
        """One column per point; D is the standard simplex of convex
        weights: -θ <= 0, then sum θ <= 1 and -sum θ <= -1."""
        k = len(self.points)
        rows = tuple([_opposite(unit) for unit in _identity(k)])
        rows += ((ONE,) * k, (-ONE,) * k)
        rhs = (ZERO,) * k + (ONE, -ONE)
        return Shadow(self.points, Polyhedron(rows, rhs))

    def _contains(self, c: tuple) -> bool:
        """Feasibility of convex weights θ in D with sum θ_i·point_i = c."""
        directions = self.shadow().directions.rows
        rows, rhs = [r[:-1] for r in directions], [r[-1] for r in directions]
        for scores, ci in zip(zip(*self.points), c):
            rows += [scores, _opposite(scores)]
            rhs += [ci, -ci]
        return is_nonempty(Polyhedron(rows, rhs))

    def corner_samples(self) -> tuple:
        return self.points

    def pinned(self, j: int):
        return _shared([c[j] for c in self.points])


@dataclass(frozen=True)
class ProductFinite(UncertaintySet):
    """Coordinatewise product of finite value sets (uncorrelated choice)."""

    kind = "product_finite"
    choices: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "choices", tuple([as_vector(c) for c in self.choices]))
        if any(len(c) == 0 for c in self.choices):
            raise ValueError("every coordinate needs at least one value")

    @property
    def dim(self) -> int:
        return len(self.choices)

    def finite_scenarios(self) -> tuple:
        size = math.prod(len(c) for c in self.choices)
        if size > MAX_SCENARIOS:
            raise CapExceededError(f"product grid of {size} "
                                   f"scenarios exceeds {MAX_SCENARIOS}")
        return tuple(itertools.product(*self.choices))

    def _contains(self, c: tuple) -> bool:
        return all(ci in vals for ci, vals in zip(c, self.choices))

    def pinned(self, j: int):
        return _shared(self.choices[j])


KINDS = {cls.kind: cls
         for cls in (Interval, DiscreteSet, ConvexHull, ProductFinite)}
