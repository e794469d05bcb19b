"""The simulator workloads: ``sim-geant`` and ``sim-clique-backlog``.

Both are open loop: a single-writer Poisson schedule (every register has
one writer) is put on the event kernel up front and the simulator works it
off as fast as it can.  A run is a sequence of *rounds*, one per
``--seconds``, each a fresh cluster fed a fixed-size schedule derived from
``(seed, round)``.  Only the drive of the kernel (scheduling the arrivals
plus ``run_until_quiescent``) is timed; set-up, the correctness check and
the byte-accounting replay are not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.protocol import CausalReplica
from repro.core.replica import EdgeIndexedReplica
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import TimestampGraph
from repro.obs.analyze import assemble_spans, complete_chains, stage_breakdown
from repro.placement import AvailabilityAwarePlacement, PlacementResult, PlacementSpec
from repro.sim import engine
from repro.sim.cluster import Cluster
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.engine import BatchingConfig, SimulationHost
from repro.sim.topologies import pairwise_clique_placement
from repro.sim.workloads import single_writer_workload
from repro.topo.datasets import geant_like

from .check import check_convergence, check_events
from .common import Outcome, host_slowdown, mid, percentile, ratio, rss_mb
from .spans import SpanRecorder


@dataclass(frozen=True)
class SimSpec:
    """One simulator workload's fixed parameters."""

    #: Arrivals per round (the stated op count of one goodput sample).
    round_ops: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    #: Offered load in ops per simulated millisecond.
    rate: float
    write_fraction: float
    batching: Optional[BatchingConfig]
    wire_accounting: bool
    #: Builds ``(share graph, delay model)``; timed as part of set-up.
    build: Callable[[], Tuple[ShareGraph, DelayModel]]


def geant_placement() -> PlacementResult:
    """The availability-aware placement of the GEANT-like map: 14 replicas,
    32 registers, rf 3, capacity 10 (``sim-geant`` and ``live-saturate``)."""
    spec = PlacementSpec.make(
        geant_like(), num_replicas=14, num_registers=32,
        replication_factor=3, capacity=10,
    )
    return AvailabilityAwarePlacement().place(spec, seed=0)


def _geant() -> Tuple[ShareGraph, DelayModel]:
    result = geant_placement()
    return result.share_graph, result.delay_model(jitter=0.2)


def _clique() -> Tuple[ShareGraph, DelayModel]:
    graph = ShareGraph.from_placement(pairwise_clique_placement(8))
    return graph, UniformDelay(1.0, 200.0)


SIM_GEANT = SimSpec(
    round_ops=10_000, setups=15, rate=2.0, write_fraction=1.0,
    batching=BatchingConfig(max_messages=16, max_delay=2.0),
    wire_accounting=True, build=_geant,
)
SIM_CLIQUE_BACKLOG = SimSpec(
    round_ops=12_000, setups=3, rate=12.0, write_fraction=0.9,
    batching=None, wire_accounting=False, build=_clique,
)


class StampedCluster(Cluster):
    """A :class:`Cluster` that stamps the wall time around every client op.

    Every op of an unpaced round is due when the round starts; the stamps
    give each op's lag (due → submitted) and latency (due → answered).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.submitted_at: List[float] = []
        self.answered_at: List[float] = []

    def submit_operation(self, operation: Any) -> Any:
        self.submitted_at.append(time.perf_counter())
        result = super().submit_operation(operation)
        self.answered_at.append(time.perf_counter())
        return result


@dataclass
class Setup:
    graph: ShareGraph
    delay_model: DelayModel
    timestamp_graphs: Dict[Any, TimestampGraph]
    seconds: float
    #: :func:`host_slowdown` around the set-up.
    slowdown: float


def set_up(spec: SimSpec) -> Setup:
    """Share graph, delay model and a full cluster build (timestamp graphs)."""
    slowdown = host_slowdown()
    started = time.perf_counter()
    graph, delay_model = spec.build()
    cluster = Cluster(
        graph, delay_model=delay_model, batching=spec.batching,
        wire_accounting=spec.wire_accounting,
    )
    elapsed = time.perf_counter() - started
    slowdown = (slowdown + host_slowdown()) / 2
    return Setup(
        graph=graph,
        delay_model=delay_model,
        timestamp_graphs={
            rid: replica.timestamp_graph for rid, replica in cluster.replicas.items()
        },
        seconds=elapsed,
        slowdown=slowdown,
    )


@dataclass
class Round:
    """What one round measured; the cluster itself is dropped."""

    ops: int
    wall: float
    #: :func:`host_slowdown` around the timed drive.
    slowdown: float
    lag_ms: List[float]
    op_ms: List[float]
    visibility_ms: List[float]
    applies: int
    answered: int
    messages: int
    batches: int
    batched: int
    header_bytes: int
    timestamp_bytes: int
    payload_bytes: int
    delta_frames: int
    full_frames: int
    pending_peak: int
    duplicates: int
    known_uids_max: int
    rss_mb: float
    problems: List[str] = field(default_factory=list)
    trace_events: List[Any] = field(default_factory=list)


def _schedule(spec: SimSpec, graph: ShareGraph, seed: int) -> List[Any]:
    duration = 1.2 * spec.round_ops / spec.rate + 50.0
    workload = single_writer_workload(
        graph, rate=spec.rate, duration=duration,
        write_fraction=spec.write_fraction, seed=seed,
    )
    return list(workload.arrivals[:spec.round_ops])


def _round_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def run_round(spec: SimSpec, setup: Setup, seed: int,
              lifecycle: bool = False, wire_accounting: Optional[bool] = None) -> Round:
    """Build a fresh cluster from the cached timestamp graphs, drive one
    schedule to quiescence (timed), then check the execution (untimed)."""
    graphs = setup.timestamp_graphs

    def factory(graph: ShareGraph, rid: Any) -> CausalReplica:
        return EdgeIndexedReplica(graph, rid, timestamp_graph=graphs[rid])

    cluster = StampedCluster(
        setup.graph, replica_factory=factory, delay_model=setup.delay_model,
        seed=seed, batching=spec.batching,
        wire_accounting=spec.wire_accounting if wire_accounting is None else wire_accounting,
    )
    if lifecycle:
        cluster.enable_tracing()
    arrivals = _schedule(spec, setup.graph, seed)

    problems: List[str] = []
    slowdown = host_slowdown()
    started = time.perf_counter()
    for arrival in arrivals:
        cluster.schedule_arrival_at(arrival.time, arrival.operation)
    try:
        cluster.run_until_quiescent(max_steps=100 * len(arrivals) + 10_000)
    except SimulationError as exc:
        problems.append(f"simulation did not finish: {exc}")
    wall = time.perf_counter() - started
    slowdown = (slowdown + host_slowdown()) / 2

    memory = rss_mb()
    metrics = cluster.metrics
    stats = cluster.network.stats
    answered = len(cluster.answered_at) - metrics.rejected_operations
    if answered != len(arrivals):
        problems.append(f"{len(arrivals) - answered} of {len(arrivals)} ops unanswered")
    report = check_events(setup.graph, cluster.events_by_replica())
    if not report.is_causally_consistent:
        problems.append(f"causal consistency violated: {report.summary()}")
    last_written = {
        a.operation.register: a.operation.value
        for a in arrivals if a.operation.kind == "write"
    }
    final_state = {
        register: cluster.values(register)
        for register in setup.graph.placement.registers
    }
    problems.extend(check_convergence(setup.graph, final_state, last_written))
    replicas = cluster.replicas.values()
    return Round(
        ops=len(arrivals),
        wall=wall,
        slowdown=slowdown,
        lag_ms=[(t - started) * 1e3 for t in cluster.submitted_at],
        op_ms=[(t - started) * 1e3 for t in cluster.answered_at],
        visibility_ms=list(metrics.apply_latencies),
        applies=metrics.applies,
        answered=answered,
        messages=stats.messages_sent,
        batches=stats.batches_sent,
        batched=stats.batched_messages_sent,
        header_bytes=stats.header_bytes_sent,
        timestamp_bytes=stats.timestamp_bytes_sent,
        payload_bytes=stats.payload_bytes_sent,
        delta_frames=stats.delta_frames_sent,
        full_frames=stats.full_frames_sent,
        pending_peak=max(metrics.max_pending.values(), default=0),
        duplicates=sum(r.duplicates_ignored for r in replicas),
        known_uids_max=max(len(r.known_update_ids()) for r in replicas),
        rss_mb=memory,
        problems=problems,
        trace_events=list(cluster.tracer.events) if lifecycle else [],
    )


def run_rounds(spec: SimSpec, setup: Setup, seed: int, count: int,
               first: int = 0, lifecycle: bool = False) -> List[Round]:
    """``count`` rounds: rounds ``first, first+1, …`` of the seed."""
    return [
        run_round(spec, setup, _round_seed(seed, first + k), lifecycle=lifecycle)
        for k in range(count)
    ]


def _bytes_source(spec: SimSpec, setup: Setup, seed: int,
                  rounds: List[Round]) -> List[Round]:
    """Rounds whose traffic was byte-accounted.

    A workload without wire accounting replays its first round's schedule
    with accounting switched on, outside the timed window; the replay uses
    the same seed, so it carries the identical message stream.
    """
    if spec.wire_accounting:
        return rounds
    return [run_round(spec, setup, _round_seed(seed, 0), wire_accounting=True)]


def _problems(rounds: List[Round]) -> List[str]:
    return [problem for r in rounds for problem in r.problems]


def _failed(rounds: List[Round]) -> int:
    return sum(r.ops - r.answered for r in rounds)


def end_to_end(spec: SimSpec, seed: int, seconds: int) -> Outcome:
    """The untraced run: ``spec.setups`` set-ups, then one round per second."""
    setups = [set_up(spec) for _ in range(spec.setups)]
    setup = setups[-1]
    rounds = run_rounds(spec, setup, seed, max(1, seconds))
    accounted = _bytes_source(spec, setup, seed, rounds)
    ops = sum(r.ops for r in rounds)
    messages = sum(r.messages for r in accounted)
    wire_bytes = sum(r.header_bytes + r.timestamp_bytes + r.payload_bytes for r in accounted)
    values = {
        "setup_s": mid(s.seconds / s.slowdown for s in setups),
        "goodput_ops_s": mid(_goodput(r) for r in rounds),
        "op_p50_ms": mid(percentile(r.op_ms, 0.50) / r.slowdown for r in rounds),
        "op_p99_ms": mid(percentile(r.op_ms, 0.99) / r.slowdown for r in rounds),
        # Simulated time, which does not depend on the host.
        "visibility_p50_ms": mid(percentile(r.visibility_ms, 0.50) for r in rounds),
        "visibility_p99_ms": mid(percentile(r.visibility_ms, 0.99) for r in rounds),
        "ts_bytes_per_msg": ratio(sum(r.timestamp_bytes for r in accounted), messages),
        "wire_bytes_per_apply": ratio(wire_bytes, sum(r.applies for r in accounted)),
        "answered_ops_frac": ratio(sum(r.answered for r in rounds), ops),
        "client_lag_p99_ms": mid(percentile(r.lag_ms, 0.99) / r.slowdown for r in rounds),
        "peak_rss_mb": max(r.rss_mb for r in rounds),
    }
    problems = _problems(rounds)
    if accounted is not rounds:
        problems += _problems(accounted)
    slowdown = mid([s.slowdown for s in setups] + [r.slowdown for r in rounds])
    return Outcome(values, ops, _failed(rounds), problems, slowdown)


def _goodput(r: Round) -> float:
    """Ops answered per second of the round, at reference host speed."""
    return r.answered * r.slowdown / r.wall


def _patch_hot_path(spans: SpanRecorder) -> None:
    spans.patch(SimulationHost, "step", "sim.engine.step")
    spans.patch(engine, "encode_batch", "wire.batch.encode")
    spans.patch(CausalReplica, "write", "core.protocol.write")
    spans.patch(CausalReplica, "receive", "core.protocol.receive")
    spans.patch(CausalReplica, "receive_many", "core.protocol.receive")
    spans.patch(CausalReplica, "apply_ready", "core.protocol.apply")
    spans.patch(CausalReplica, "apply_batch", "core.protocol.apply")


def per_layer(spec: SimSpec, seed: int, seconds: int, span_path: str) -> Outcome:
    """The traced run: an untraced reference half, then a traced half."""
    with SpanRecorder() as setup_spans:
        setup_spans.patch(TimestampGraph, "build", "core.timestamp_graph.build")
        setup_spans.patch(AvailabilityAwarePlacement, "place", "placement.place")
        setup = set_up(spec)
    half = max(1, seconds // 2)
    reference = run_rounds(spec, setup, seed, half)
    spans = SpanRecorder()
    try:
        _patch_hot_path(spans)
        traced = run_rounds(spec, setup, seed, half, first=half, lifecycle=True)
    finally:
        spans.restore()
    accounted = _bytes_source(spec, setup, seed, traced)
    spans.write(span_path)

    table = spans.table()
    setup_table = setup_spans.table()

    def total(name: str, key: str = "total_s", source: Any = table) -> float:
        return source.get(name, {}).get(key, 0.0)

    ops = sum(r.ops for r in traced)
    kops = ops / 1000.0
    frames = sum(r.batched for r in traced)
    chains = complete_chains(assemble_spans(
        event for r in traced for event in r.trace_events
    ))
    pending_wait = stage_breakdown(chains)["pending wait"]
    messages = sum(r.messages for r in accounted)
    applies = sum(r.applies for r in traced)
    values = {
        "placement.place_s": total("placement.place", source=setup_table),
        "core.timestamp_graph.build_s": total("core.timestamp_graph.build", source=setup_table),
        "sim.engine.events": ratio(total("sim.engine.step", "calls"), ops),
        "sim.engine.self_s": ratio(total("sim.engine.step", "self_s"), kops),
        "sim.engine.msgs_per_batch": ratio(frames, sum(r.batches for r in traced)),
        "wire.batch.encode_calls": ratio(total("wire.batch.encode", "calls"), ops),
        "wire.batch.encode_s": ratio(total("wire.batch.encode"), kops),
        "wire.batch.encode_us_per_frame": ratio(total("wire.batch.encode") * 1e6, frames),
        "wire.channel.delta_frac": ratio(
            sum(r.delta_frames for r in accounted),
            sum(r.delta_frames + r.full_frames for r in accounted),
        ),
        "wire.header_bytes_per_msg": ratio(sum(r.header_bytes for r in accounted), messages),
        "wire.payload_bytes_per_msg": ratio(sum(r.payload_bytes for r in accounted), messages),
        "core.protocol.write_s": ratio(total("core.protocol.write"), kops),
        "core.protocol.receive_s": ratio(total("core.protocol.receive"), kops),
        "core.protocol.receive_dups": sum(r.duplicates for r in traced),
        "core.protocol.apply_s": ratio(total("core.protocol.apply", "self_s"), kops),
        "core.protocol.applied_per_call": ratio(applies, total("core.protocol.apply", "calls")),
        "core.protocol.pending_peak": max(r.pending_peak for r in traced),
        "core.protocol.pending_wait_p50_ms": pending_wait.p50,
        "core.protocol.pending_wait_p99_ms": pending_wait.p99,
        "core.protocol.known_uids_max": max(r.known_uids_max for r in traced),
        "trace.overhead_frac": 1.0 - ratio(
            mid(_goodput(r) for r in traced), mid(_goodput(r) for r in reference),
        ),
    }
    problems = _problems(reference) + _problems(traced)
    if accounted is not traced:
        problems += _problems(accounted)
    rounds = reference + traced
    return Outcome(values, sum(r.ops for r in rounds), _failed(rounds), problems,
                   mid(r.slowdown for r in rounds))
