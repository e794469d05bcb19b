"""A simulator round: clean verdict, a stalled simulation reported as a
problem, and wall-clock figures normalised by the host slowdown."""

from __future__ import annotations

import dataclasses

from perfbench import common, simbench
from repro.core.errors import SimulationError

SMALL = dataclasses.replace(simbench.SIM_GEANT, round_ops=200)


def test_clean_round_has_no_problems():
    setup = simbench.set_up(SMALL)
    round_ = simbench.run_round(SMALL, setup, seed=1)
    assert round_.problems == []
    assert round_.answered == round_.ops == 200
    assert round_.slowdown > 0


def test_stalled_simulation_is_a_problem_not_a_crash(monkeypatch):
    setup = simbench.set_up(SMALL)

    def stall(self, max_steps=1_000_000):
        raise SimulationError("step budget exhausted")

    monkeypatch.setattr(simbench.StampedCluster, "run_until_quiescent", stall)
    round_ = simbench.run_round(SMALL, setup, seed=1)
    assert any("did not finish" in problem for problem in round_.problems)
    assert any("unanswered" in problem for problem in round_.problems)


def test_goodput_is_scaled_to_reference_speed(monkeypatch):
    monkeypatch.setattr(simbench, "host_slowdown", lambda: 2.0)
    setup = simbench.set_up(SMALL)
    round_ = simbench.run_round(SMALL, setup, seed=1)
    assert round_.slowdown == 2.0
    assert simbench._goodput(round_) == 2.0 * round_.answered / round_.wall


def test_host_slowdown_is_positive():
    assert common.host_slowdown() > 0
