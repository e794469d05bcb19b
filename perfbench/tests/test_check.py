"""The benchmark's linear-time check agrees with ``ConsistencyChecker``.

Each case builds one execution and compares the two checkers' verdicts
and the exact ``(replica, update)`` pairs they flag: on clean short runs
of both simulator configurations the benchmark uses and of a two-node
live cluster, on a protocol too weak for its share graph, and on clean
traces with an injected violation (one apply moved ahead of its
dependency; one apply dropped).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence

import pytest

from perfbench.check import check_convergence, check_events
from repro.baselines.incident_only import incident_only_factory
from repro.core.causal import HappenedBefore
from repro.core.consistency import ConsistencyChecker
from repro.core.protocol import EventKind, ReplicaEvent
from repro.core.share_graph import ShareGraph
from repro.net.runtime import LiveCluster
from repro.placement import AvailabilityAwarePlacement, PlacementSpec
from repro.sim.cluster import Cluster, edge_indexed_factory
from repro.sim.delays import UniformDelay
from repro.sim.engine import BatchingConfig
from repro.sim.topologies import figure5_placement, pairwise_clique_placement
from repro.sim.workloads import poisson_workload, run_open_loop, single_writer_workload
from repro.topo.datasets import geant_like

Events = Dict[Any, Sequence[ReplicaEvent]]


def geant_graph() -> ShareGraph:
    spec = PlacementSpec.make(
        geant_like(), num_replicas=14, num_registers=32,
        replication_factor=3, capacity=10,
    )
    return AvailabilityAwarePlacement().place(spec, seed=0).share_graph


def sim_events(graph: ShareGraph, seed: int, rate: float, duration: float,
               factory=edge_indexed_factory, schedule=single_writer_workload,
               **cluster_kwargs) -> Events:
    cluster = Cluster(graph, replica_factory=factory, seed=seed, **cluster_kwargs)
    workload = schedule(graph, rate=rate, duration=duration, seed=seed)
    run_open_loop(cluster, workload, check=False)
    return cluster.events_by_replica()


def assert_same_verdict(graph: ShareGraph, events: Events) -> Any:
    reference = ConsistencyChecker(graph).check(events)
    linear = check_events(graph, events)
    assert linear.is_safe == reference.is_safe
    assert linear.is_live == reference.is_live
    assert linear.safety == {
        (v.replica_id, v.applied.uid) for v in reference.safety_violations
    }
    assert linear.liveness == {
        (v.replica_id, v.update.uid) for v in reference.liveness_violations
    }
    assert not linear.unordered
    return linear


@pytest.fixture(scope="module")
def geant_events():
    graph = geant_graph()
    delays = AvailabilityAwarePlacement().place(PlacementSpec.make(
        geant_like(), num_replicas=14, num_registers=32,
        replication_factor=3, capacity=10,
    ), seed=0).delay_model(jitter=0.2)
    events = sim_events(
        graph, seed=3, rate=0.5, duration=1500.0, delay_model=delays,
        batching=BatchingConfig(max_messages=16, max_delay=2.0),
    )
    return graph, events


@pytest.fixture(scope="module")
def clique_events():
    graph = ShareGraph.from_placement(pairwise_clique_placement(5))
    events = sim_events(graph, seed=5, rate=2.0, duration=150.0,
                        delay_model=UniformDelay(1.0, 200.0))
    return graph, events


def test_clean_geant_run_agrees(geant_events):
    graph, events = geant_events
    report = assert_same_verdict(graph, events)
    assert report.is_causally_consistent
    assert report.checked_updates > 150


def test_clean_clique_backlog_run_agrees(clique_events):
    graph, events = clique_events
    report = assert_same_verdict(graph, events)
    assert report.is_causally_consistent


def test_too_weak_protocol_agrees():
    """Incident-only timestamps miss Figure 5's loop edges: under a
    multi-writer schedule real violations appear."""
    graph = ShareGraph.from_placement(figure5_placement())
    events = sim_events(graph, seed=0, rate=1.0, duration=150.0,
                        factory=incident_only_factory, schedule=poisson_workload,
                        delay_model=UniformDelay(1.0, 300.0))
    report = assert_same_verdict(graph, events)
    assert not report.is_safe


def _dependent_pair(events: Events):
    """A replica and two consecutive APPLY positions whose first update
    happened before the second."""
    relation = HappenedBefore.from_events(events)
    for rid, trace in events.items():
        for k in range(len(trace) - 1):
            first, second = trace[k], trace[k + 1]
            if (first.kind is EventKind.APPLY and second.kind is EventKind.APPLY
                    and relation.happened_before(first.update.uid, second.update.uid)):
                return rid, k
    raise AssertionError("no causally dependent consecutive applies in the trace")


def test_apply_moved_ahead_of_its_dependency(clique_events):
    graph, events = clique_events
    rid, k = _dependent_pair(events)
    trace: List[ReplicaEvent] = list(events[rid])
    trace[k], trace[k + 1] = trace[k + 1], trace[k]
    injected = dict(events)
    injected[rid] = trace
    report = assert_same_verdict(graph, injected)
    assert not report.is_safe
    assert (rid, trace[k].update.uid) in report.safety


@pytest.mark.parametrize("which", ["geant", "clique"])
def test_apply_dropped(which, geant_events, clique_events):
    graph, events = geant_events if which == "geant" else clique_events
    rid, k = _dependent_pair(events)
    dropped = events[rid][k]
    injected = dict(events)
    injected[rid] = [e for i, e in enumerate(events[rid]) if i != k]
    report = assert_same_verdict(graph, injected)
    assert not report.is_live
    assert (rid, dropped.update.uid) in report.liveness


def test_live_run_agrees(tmp_path):
    graph = geant_graph()
    workload = single_writer_workload(graph, rate=1.0, duration=400.0, seed=4)
    with LiveCluster(graph, nodes=2, durable_dir=str(tmp_path)) as cluster:
        result = cluster.run_open_loop(workload, time_scale=0.0)
    report = assert_same_verdict(graph, result.events_by_replica())
    assert report.is_causally_consistent
    last_written = {
        a.operation.register: a.operation.value
        for a in workload.arrivals if a.operation.kind == "write"
    }
    assert check_convergence(graph, result.final_state(), last_written) == []


def test_convergence_flags_a_stale_replica(clique_events):
    graph, events = clique_events
    register = sorted(graph.placement.registers)[0]
    holders = graph.replicas_storing(register)
    final = {r: {rid: None for rid in graph.replicas_storing(r)}
             for r in graph.placement.registers}
    final[register] = {holders[0]: "new", holders[1]: "old"}
    problems = check_convergence(graph, final, {register: "new"})
    assert len(problems) == 1 and repr(register) in problems[0]


def test_unissued_apply_is_unordered(clique_events):
    graph, events = clique_events
    rid = next(r for r, trace in events.items()
               if any(e.kind is EventKind.APPLY for e in trace))
    apply = next(e for e in events[rid] if e.kind is EventKind.APPLY)
    ghost = dataclasses.replace(apply.update, seq=10**6)
    injected = dict(events)
    injected[rid] = list(events[rid]) + [dataclasses.replace(apply, update=ghost)]
    report = check_events(graph, injected)
    assert report.unordered == [(rid, ghost.uid)]
    assert not report.is_causally_consistent
