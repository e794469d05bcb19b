"""The live workload: ``live-saturate``.

It deploys the ``sim-geant`` share graph (14 replicas) on two
multi-tenant :class:`~repro.net.node.LiveNode` processes with the WAL on,
driven by this process over one control link per node.  The load generator
calls ``ControlLink.submit_op`` itself and stamps each op's *due* time, so a
generator that falls behind shows up as lag and as latency instead of
being hidden.

A run is a sequence of *rounds*, one per ``--seconds``: each fires a
fixed-size single-writer schedule unpaced (every op of a round is due when
the round starts) and drains the cluster.  The rounds are spread over
:data:`DEPLOYMENTS` fresh deployments, so every round starts from a cluster
that has handled at most a few rounds before it, and every deployment's
start-up is one ``setup_s`` sample.

Set-up, collection and the correctness check are outside the timed window.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.resource_tracker
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.protocol import EventKind
from repro.core.share_graph import ShareGraph
from repro.net import frames
from repro.net.runtime import ControlLink, LiveCluster, LiveRunResult, LiveRuntimeError
from repro.obs.analyze import assemble_spans, complete_chains, stage_breakdown
from repro.placement import AvailabilityAwarePlacement
from repro.sim.workloads import single_writer_workload

from .check import check_convergence, check_events
from .common import OUT_DIR, Outcome, host_slowdown, mid, peak_rss_mb, percentile, ratio
from .simbench import geant_placement
from .spans import SpanRecorder

#: Node processes hosting the 14 replicas.
NODES = 2
#: Ops per round, all due when the round starts.
ROUND_OPS = 5_000
#: Deployments per run; ``setup_s`` is the median of their start-ups.
DEPLOYMENTS = 5
#: Seconds to wait for the last reply of a round before counting the rest
#: as unanswered.
REPLY_TIMEOUT = 30.0
DRAIN_TIMEOUT = 60.0
#: Telemetry push interval and STATS poll interval of the traced run.
TELEMETRY_INTERVAL = 0.1
STATS_INTERVAL = 0.1


@dataclass
class Deployment:
    cluster: LiveCluster
    graph: ShareGraph
    durable_dir: str
    setup_s: float
    #: :func:`host_slowdown` around the start-up.
    slowdown: float

    def node_pids(self) -> List[int]:
        return [child.pid for child in multiprocessing.active_children()
                if child.name.startswith("repro-node-")]

    def durable_bytes(self) -> int:
        total = 0
        for directory, _, files in os.walk(self.durable_dir):
            for name in files:
                total += os.path.getsize(os.path.join(directory, name))
        return total

    def close(self) -> None:
        try:
            self.cluster.stop()
        finally:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


def deploy(tag: str, tracing: bool = False) -> Deployment:
    """Place, build and start a cluster; the timed set-up."""
    durable_dir = str(OUT_DIR / f"wal-{os.getpid()}-{tag}")
    shutil.rmtree(durable_dir, ignore_errors=True)
    slowdown = host_slowdown()
    started = time.perf_counter()
    graph = geant_placement().share_graph
    cluster = LiveCluster(
        graph, nodes=NODES, durable_dir=durable_dir, tracing=tracing,
        telemetry_interval=TELEMETRY_INTERVAL if tracing else 0.0,
    )
    try:
        cluster.start()
    except BaseException:
        cluster.stop()
        shutil.rmtree(durable_dir, ignore_errors=True)
        raise
    elapsed = time.perf_counter() - started
    return Deployment(cluster, graph, durable_dir, elapsed, (slowdown + host_slowdown()) / 2)


@dataclass
class Drive:
    """One timed round: submit a schedule unpaced, await the replies, drain."""

    ops: int
    wall: float
    #: :func:`host_slowdown` around the round.
    slowdown: float
    answered: int
    #: Start and end of the round on the cluster clock (the clock issue
    #: and apply times use).
    started: float
    ended: float
    #: Per op: due → submitted, ms.
    lag_ms: List[float]
    #: Per answered op: due → answered, ms.
    op_ms: List[float]
    last_written: Dict[Any, Any]
    stats_peaks: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _operations(graph: ShareGraph, count: int, seed: int) -> List[Any]:
    """The first ``count`` ops of a seeded single-writer schedule."""
    workload = single_writer_workload(
        graph, rate=1.0, duration=1.2 * count + 50.0, write_fraction=1.0, seed=seed,
    )
    return [arrival.operation for arrival in workload.arrivals[:count]]


def drive(deployment: Deployment, operations: List[Any],
          poll_stats: bool = False) -> Drive:
    """Submit ``operations``, all due now, then await the replies and drain."""
    cluster = deployment.cluster
    links: Dict[Any, ControlLink] = {
        rid: cluster.link(rid) for rid in deployment.graph.replica_ids
    }
    expected = {id(link): len(link.op_replies) for link in links.values()}
    records: List[Tuple[int, ControlLink, float]] = []
    peaks = {"send_queue": 0, "unacked": 0}
    next_poll = 0.0
    clock = time.perf_counter
    slowdown = host_slowdown()
    started = time.time() - cluster.clock_origin
    due = clock()
    for operation in operations:
        if poll_stats and clock() >= next_poll:
            for stats, _, _ in cluster.poll_stats().values():
                for name in peaks:
                    peaks[name] = max(peaks[name], getattr(stats, name))
            next_poll = clock() + STATS_INTERVAL
        link = links[operation.replica_id]
        op_id = cluster.next_op_id()
        submitted = clock()
        link.submit_op(op_id, operation.replica_id, operation.kind,
                       operation.register, operation.value)
        expected[id(link)] += 1
        records.append((op_id, link, submitted))
    deadline = time.monotonic() + REPLY_TIMEOUT
    while time.monotonic() < deadline and any(
        len(link.op_replies) < expected[id(link)] for link in links.values()
    ):
        time.sleep(0.001)
    problems: List[str] = []
    try:
        cluster.drain(timeout=DRAIN_TIMEOUT, poll_interval=0.01)
    except LiveRuntimeError as exc:
        problems.append(f"cluster did not drain: {exc}")
    wall = clock() - due
    ended = time.time() - cluster.clock_origin
    slowdown = (slowdown + host_slowdown()) / 2

    lag_ms: List[float] = []
    op_ms: List[float] = []
    answered = 0
    for op_id, link, submitted in records:
        reply = link.op_replies.get(op_id)
        lag_ms.append((submitted - due) * 1e3)
        if reply is not None and reply[1] == frames.OP_OK:
            answered += 1
            op_ms.append((submitted + reply[0] - due) * 1e3)
    last_written = {op.register: op.value for op in operations if op.kind == "write"}
    return Drive(len(operations), wall, slowdown, answered, started, ended,
                 lag_ms, op_ms, last_written, peaks, problems)


def verify(deployment: Deployment, result: LiveRunResult, drives: List[Drive]) -> List[str]:
    """Causal consistency, single-writer convergence, every op answered."""
    problems = [problem for d in drives for problem in d.problems]
    unanswered = sum(d.ops - d.answered for d in drives)
    if unanswered:
        problems.append(f"{unanswered} of {sum(d.ops for d in drives)} ops unanswered")
    report = check_events(deployment.graph, result.events_by_replica())
    if not report.is_causally_consistent:
        problems.append(f"causal consistency violated: {report.summary()}")
    last_written: Dict[Any, Any] = {}
    for d in drives:
        last_written.update(d.last_written)
    problems.extend(check_convergence(deployment.graph, result.final_state(), last_written))
    return problems


@dataclass
class Window:
    """A deployment's rounds plus what was collected after them."""

    deployment: Deployment
    drives: List[Drive]
    result: LiveRunResult
    node_peak_rss_mb: float
    durable_bytes: int
    problems: List[str]

    @property
    def ops(self) -> int:
        return sum(d.ops for d in self.drives)

    @property
    def answered(self) -> int:
        return sum(d.answered for d in self.drives)

    def visibility_ms(self) -> List[List[float]]:
        """Issue → remote apply ms (raw), one list per round that issued it."""
        samples = _visibility(self.result)
        return [
            [ms for t, ms in samples if d.started <= t <= d.ended] for d in self.drives
        ]


def _visibility(result: LiveRunResult) -> List[Tuple[float, float]]:
    """``(issue time s, issue → remote apply ms)`` for every remote apply."""
    issued: Dict[Any, float] = {}
    for report in result.reports.values():
        issued.update(report["issue_times"])
    return [
        (issued[uid], (applied_at - issued[uid]) * 1e3)
        for rid, report in result.reports.items()
        for uid, applied_at in report["apply_times"].items()
        if uid[0] != rid and uid in issued
    ]


def measure(deployment: Deployment, seed: int, rounds: List[int],
            poll_stats: bool = False) -> Window:
    """Drive the given rounds of the seed, then collect and verify
    (untimed); closes the deployment."""
    try:
        drives = [
            drive(deployment, _operations(deployment.graph, ROUND_OPS, seed * 1009 + k),
                  poll_stats)
            for k in rounds
        ]
        result = deployment.cluster.collect()
        memory = peak_rss_mb(deployment.node_pids())
        durable = deployment.durable_bytes()
    finally:
        deployment.close()
    return Window(deployment, drives, result, memory, durable,
                  verify(deployment, result, drives))


def _wire(result: LiveRunResult) -> Dict[str, int]:
    totals = {"messages": 0, "batches": 0, "header": 0, "timestamp": 0, "payload": 0}
    for book in result.channel_wire_stats().values():
        totals["messages"] += book.messages
        totals["batches"] += book.batches
        totals["header"] += book.header_bytes
        totals["timestamp"] += book.timestamp_bytes
        totals["payload"] += book.payload_bytes
    return totals


def end_to_end(seed: int, seconds: int) -> Outcome:
    """The untraced run: one round per second, spread over
    :data:`DEPLOYMENTS` deployments."""
    count = max(1, seconds)
    windows = [
        measure(deploy(f"setup{k}"), seed, list(range(k, count, DEPLOYMENTS)))
        for k in range(DEPLOYMENTS)
    ]
    drives = [d for w in windows for d in w.drives]
    visibility = [
        (d, ms) for w in windows for d, ms in zip(w.drives, w.visibility_ms())
    ]
    books = [_wire(w.result) for w in windows]
    wire = {name: sum(book[name] for book in books) for name in books[0]}
    applies = sum(w.result.metrics.applies for w in windows)
    ops = sum(w.ops for w in windows)
    answered = sum(w.answered for w in windows)
    values = {
        "setup_s": mid(w.deployment.setup_s / w.deployment.slowdown for w in windows),
        "goodput_ops_s": mid(_goodput(d) for d in drives),
        "op_p50_ms": mid(percentile(d.op_ms, 0.50) / d.slowdown for d in drives),
        "op_p99_ms": mid(percentile(d.op_ms, 0.99) / d.slowdown for d in drives),
        "visibility_p50_ms": mid(percentile(ms, 0.50) / d.slowdown for d, ms in visibility),
        "visibility_p99_ms": mid(percentile(ms, 0.99) / d.slowdown for d, ms in visibility),
        "ts_bytes_per_msg": ratio(wire["timestamp"], wire["messages"]),
        "wire_bytes_per_apply": ratio(
            wire["header"] + wire["timestamp"] + wire["payload"], applies,
        ),
        "answered_ops_frac": ratio(answered, ops),
        "client_lag_p99_ms": mid(percentile(d.lag_ms, 0.99) / d.slowdown for d in drives),
        "peak_rss_mb": mid(w.node_peak_rss_mb for w in windows),
    }
    slowdown = mid([w.deployment.slowdown for w in windows] + [d.slowdown for d in drives])
    return Outcome(values, ops, ops - answered, [p for w in windows for p in w.problems],
                   slowdown)


def per_layer(seed: int, seconds: int, span_path: str) -> Outcome:
    """An untraced reference deployment, then a traced one, each running
    half of the run's rounds."""
    half = max(1, seconds // 2)
    reference = measure(deploy("reference"), seed, list(range(half)))
    spans = SpanRecorder()
    try:
        spans.patch(AvailabilityAwarePlacement, "place", "placement.place")
        spans.patch(LiveCluster, "start", "net.runtime.start")
        spans.patch(LiveCluster, "drain", "net.runtime.drain")
        spans.patch(ControlLink, "submit_op", "net.client.submit_op")
        traced = measure(deploy("traced", tracing=True), seed,
                         list(range(half, 2 * half)), poll_stats=True)
    finally:
        spans.restore()
    spans.write(span_path)
    table = spans.table()

    def per_call(name: str) -> float:
        row = table.get(name)
        return ratio(row["total_s"], row["calls"]) if row else 0.0

    result = traced.result
    ops = traced.ops
    wire = _wire(result)
    chains = complete_chains(assemble_spans(result.trace_events()))
    hops = stage_breakdown(chains)
    counters = [report["counters"] for report in result.reports.values()]
    delta = sum(c["delta_frames"] for c in counters)
    full = sum(c["full_frames"] for c in counters)
    transport = [report["transport"] for report in result.node_reports.values()]
    gauges = {"repro_node_send_queue_depth": 0.0, "repro_node_unacked": 0.0}
    for stream in result.telemetry.values():
        for _, _, samples in stream:
            for name, _, value in samples:
                if name in gauges:
                    gauges[name] = max(gauges[name], value)
    peaks = {
        name: max(d.stats_peaks.get(name, 0) for d in traced.drives)
        for name in ("send_queue", "unacked")
    }
    known = max(
        sum(1 for e in report["events"] if e.kind in (EventKind.ISSUE, EventKind.APPLY))
        for report in result.reports.values()
    )
    values = {
        "placement.place_s": per_call("placement.place"),
        "net.runtime.start_s": per_call("net.runtime.start"),
        "wire.channel.delta_frac": ratio(delta, delta + full),
        "wire.header_bytes_per_msg": ratio(wire["header"], wire["messages"]),
        "wire.payload_bytes_per_msg": ratio(wire["payload"], wire["messages"]),
        "core.protocol.receive_dups": sum(
            report["duplicates_ignored"] for report in result.reports.values()
        ),
        "core.protocol.pending_peak": max(result.metrics.max_pending.values(), default=0),
        "core.protocol.pending_wait_p50_ms": hops["pending wait"].p50 * 1e3,
        "core.protocol.pending_wait_p99_ms": hops["pending wait"].p99 * 1e3,
        "core.protocol.known_uids_max": known,
        "net.client.submit_us_per_op": per_call("net.client.submit_op") * 1e6,
        "net.node.issue_to_send_p99_ms": hops["issue→send"].p99 * 1e3,
        "net.node.batch_wait_p99_ms": hops["batch window"].p99 * 1e3,
        "net.hop_p99_ms": hops["transport"].p99 * 1e3,
        "net.node.send_queue_peak": max(
            peaks["send_queue"], gauges["repro_node_send_queue_depth"]
        ),
        "net.node.unacked_peak": max(peaks["unacked"], gauges["repro_node_unacked"]),
        "net.node.msgs_per_batch": ratio(wire["messages"], wire["batches"]),
        "net.wal.records_per_op": ratio(sum(t["wal_records"] for t in transport), ops),
        "net.wal.bytes_per_op": ratio(traced.durable_bytes, ops),
        "net.wal.compactions": sum(t["wal_compactions"] for t in transport),
        "net.runtime.drain_s": mid(spans.durations("net.runtime.drain")),
        "trace.overhead_frac": 1.0 - ratio(
            mid(_goodput(d) for d in traced.drives), mid(_goodput(d) for d in reference.drives),
        ),
    }
    both = (reference, traced)
    attempted = sum(w.ops for w in both)
    answered = sum(w.answered for w in both)
    return Outcome(values, attempted, attempted - answered,
                   reference.problems + traced.problems,
                   mid(d.slowdown for w in both for d in w.drives))


def _goodput(d: Drive) -> float:
    """Ops answered per second of the round, at reference host speed."""
    return d.answered * d.slowdown / d.wall


def stop_helper_processes() -> None:
    """Stop the resource-tracker process ``multiprocessing`` started for the
    clusters' queues and wait for it, so a run leaves no process behind.

    Called once every cluster is gone (their queues unregister from the
    tracker when collected).  ``_stop`` is the interpreter's own shutdown
    hook for the tracker; it is a no-op when none is running.
    """
    gc.collect()
    tracker = multiprocessing.resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
