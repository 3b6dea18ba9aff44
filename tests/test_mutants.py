"""Committed mutants: each test breaks one runtime guard's invariant with
a monkeypatch and checks that the guard refuses, with its exception type
and its message.  No other test reaches these guards, so a change that
dropped one would otherwise pass unnoticed."""

import pytest

from rbo import bilevel, geometry, lp
from rbo.bilevel import (
    AllBinary,
    Mode,
    RobustBilevelInstance,
    SolverInvariantError,
    adversary_geometric,
    save_instance,
    solve_robust,
)
from rbo.cli import main
from rbo.lp import LpInternalError, LpStatus, Polyhedron, is_nonempty
from rbo.uncertainty import Interval
from helpers import int_rows


def segment():
    """Y = [0, 1] with d = y under the box c in [-1, 1], which has a free
    coordinate, so the adversary scans the shadow's faces: its worst
    scenario c = -1 sends the follower to y = 0, worth 0.  A fresh
    instance each time, as an instance keeps its scans."""
    return RobustBilevelInstance(
        p=0, n=1, rows=int_rows([[1], [-1]], [[], []], [1, 0]),
        leader_obj=[1], leader_set=AllBinary(),
        uncertainty=Interval([-1], [1]))


def test_phase_one_that_ends_unbounded_is_refused(monkeypatch):
    # x >= 1 has a negative right-hand side, so phase one runs a phase.
    monkeypatch.setattr(lp._Tableau, "run",
                        lambda self, cost, allowed: LpStatus.UNBOUNDED)
    with pytest.raises(LpInternalError) as err:
        is_nonempty(Polyhedron([[1], [-1]], [2, -1]))
    assert str(err.value) == "phase one cannot be unbounded"


def test_phase_one_point_outside_the_polyhedron_is_refused(monkeypatch):
    point = lp._Tableau.point

    def moved(self):
        w, d = point(self)
        return [w[0] + 2 * d] + w[1:], d

    monkeypatch.setattr(lp._Tableau, "point", moved)
    with pytest.raises(LpInternalError) as err:
        is_nonempty(Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]],
                               [1, 1, 0, 0]))
    assert str(err.value) == "phase one ended outside the polyhedron"


def test_shadow_scan_with_no_face_is_refused(monkeypatch):
    monkeypatch.setattr(geometry, "exposed_faces", lambda *args: {})
    with pytest.raises(SolverInvariantError) as err:
        adversary_geometric(segment(), (), Mode.OPTIMISTIC)
    assert str(err.value) == \
        "the adversary found no scenario; the shadow set is broken"


def _replay_off_by_one(monkeypatch):
    respond = bilevel.follower_response

    def off_by_one(inst, x, c, mode):
        y, value = respond(inst, x, c, mode)
        return y, value + 1

    monkeypatch.setattr(bilevel, "follower_response", off_by_one)


REPLAY_MESSAGE = ("adversary value 0 disagrees with follower replay 1; "
                  "solver invariant broken")


def test_replay_that_disagrees_is_refused(monkeypatch):
    _replay_off_by_one(monkeypatch)
    with pytest.raises(SolverInvariantError) as err:
        solve_robust(segment(), Mode.OPTIMISTIC)
    assert str(err.value) == REPLAY_MESSAGE


def test_replay_that_disagrees_exits_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "segment.json"
    save_instance(path, segment())
    _replay_off_by_one(monkeypatch)
    assert main(["solve", str(path)]) == 4
    assert capsys.readouterr().err == \
        f"error: internal invariant broken: {REPLAY_MESSAGE}\n"
