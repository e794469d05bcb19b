"""One live node: an asyncio process hosting many replicas over TCP.

A :class:`LiveNode` hosts a set of :class:`~repro.core.protocol.CausalReplica`
*tenants* — the paper's algorithm by default — behind a single listener, and
decouples the logical communication graph from the physical one:

* **one peer stream per ordered node pair**: instead of one TCP connection
  per directed share-graph edge, a node opens exactly one connection to
  each peer node it has traffic for and multiplexes every channel between
  replicas on the two nodes onto it.  A :class:`~repro.wire.batch.MessageBatch`
  envelope already names its channel ``(sender, destination)``, so frames
  from many channels interleave with no extra tag; the receiver
  demultiplexes by destination replica.  FD count drops from O(|E|) to
  O(hosts²);
* **per-channel FIFO, batching and delta chains, preserved per tag**: each
  channel keeps its own bounded send queue (backpressure), batching window
  (flushed by count or wall-clock deadline) and outstanding set; the
  per-stream :class:`~repro.wire.channel.ChannelDeltaEncoder` keys its
  timestamp chains by channel, and a reconnect resets *all* chains on that
  stream — the multiplexed reading of the simulator's channel epochs;
* **intra-node short-circuit**: a channel between two tenants of the same
  node never touches a socket or a codec — the copy goes straight through
  the in-process batch-apply path (:meth:`LiveNodeHost.deliver`) and acks
  synchronously;
* **ack + resend reliability** mirroring
  :class:`~repro.sim.engine.ReliabilityConfig`: ACK/SYNC frames ride the
  peer stream tagged with the replica they speak for; unacknowledged
  messages are re-offered after ``resend_timeout`` seconds and on every
  reconnect, and duplicate suppression keeps delivery exactly-once;
* **log-structured durability** (:mod:`repro.net.wal`): with a
  ``durable_dir`` configured every state change appends one O(delta)
  record to the tenant's write-ahead log — client writes and reads as
  replayable operations, delivered batches as wire frames, acks as
  sent-log prunes — with periodic compaction into a checkpoint.  A
  SIGKILLed node replays checkpoint + log tail and resyncs over the
  ``SYNC`` exchange, exactly like a simulated crash.

Each tenant keeps its own :class:`LiveNodeHost` (the shared
:class:`~repro.core.host.ReplicaHost` surface), so metrics, event traces
and the consistency check are per-replica and the simulator stays the
executable spec.

Nodes are normally spawned by :class:`~repro.net.runtime.LiveCluster`; the
module-level :func:`node_main` is the process entry point.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import ReproError
from ..core.host import ReplicaHost
from ..core.protocol import CausalReplica, UpdateId, UpdateMessage
from ..core.registers import Register, ReplicaId
from ..core.replica import EdgeIndexedReplica
from ..core.share_graph import ShareGraph
from ..sim.engine import BatchingConfig, ChannelWireStats, ReliabilityConfig
from ..wire.batch import MessageBatch, decode_batch, encode_batch
from ..wire.channel import ChannelDeltaDecoder, ChannelDeltaEncoder
from ..wire.primitives import WireFormatError
from . import frames
from . import wal as wal_records
from .framing import StreamDecoder, encode_frame
from .wal import ReplicaWAL, WalCheckpoint

Channel = Tuple[ReplicaId, ReplicaId]
Address = Tuple[str, int]
#: Node identifiers are atoms (ints or short strings), like replica ids.
NodeId = Any


def _id_order(value: Any) -> Tuple[bool, Any]:
    """Deterministic sort key for mixed int/str atom identifiers."""
    return (isinstance(value, str), value)


def edge_indexed_factory(graph: ShareGraph, replica_id: ReplicaId) -> CausalReplica:
    """The default live factory: the paper's edge-indexed algorithm."""
    return EdgeIndexedReplica(graph, replica_id)


#: Every channel's batching window, in wall-clock units: it flushes at
#: ``max_messages`` or after ``max_delay`` *seconds*, whichever first.
BATCHING = BatchingConfig(max_messages=16, max_delay=0.002)
#: Ack + resend parameters, in seconds (the live reading of the same
#: contract the simulator's transport enforces in simulated units).
RELIABILITY = ReliabilityConfig(resend_timeout=1.0, max_retries=8)
#: Bound of each per-channel send queue (the backpressure limit).
SEND_QUEUE_LIMIT = 4096
#: Reconnect backoff in seconds: doubled per failed attempt, up to the max.
RECONNECT_BACKOFF = 0.05
RECONNECT_BACKOFF_MAX = 1.0


@dataclass(frozen=True)
class NodeConfig:
    """Everything one node process needs to boot (picklable for spawn)."""

    node_id: NodeId
    share_graph: ShareGraph
    #: The replicas this node hosts.
    replica_ids: Tuple[ReplicaId, ...]
    #: Cluster-wide placement: replica id → hosting node id.  Replicas
    #: absent from the map are assumed to live on a node named after them
    #: (the single-tenant default).
    replica_nodes: Mapping[ReplicaId, NodeId] = field(default_factory=dict)
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    #: Initial peer-node address map; updated at runtime by ``ADDR`` frames
    #: and stream hellos (a restarted peer announces its new port).
    peers: Mapping[NodeId, Address] = field(default_factory=dict)
    replica_factory: Callable[[ShareGraph, ReplicaId], CausalReplica] = (
        edge_indexed_factory
    )
    #: Directory for per-replica checkpoint + WAL files; ``None`` runs
    #: diskless (no crash recovery).
    durable_dir: Optional[str] = None
    #: Compact a tenant's log into a checkpoint once it exceeds this size.
    wal_compact_bytes: int = 1 << 18
    #: Wall-clock epoch all host times are measured from (the launcher's
    #: start time, shared by every node so latencies compose).
    clock_origin: float = 0.0
    #: Record the message-lifecycle trace (issue/send/wire/deliver/apply
    #: stamps, wall time relative to ``clock_origin``); off by default —
    #: the untraced hot path pays one ``is not None`` check per hook.
    tracing: bool = False
    #: Push a ``TELEMETRY`` frame (queue depths, wire-byte counters,
    #: transport footprint, WAL counters) over every open control
    #: connection each interval; ``0`` disables.
    telemetry_interval: float = 0.0


class LiveNodeHost(ReplicaHost):
    """The :class:`~repro.core.host.ReplicaHost` of one live tenant.

    One replica per host, wall-clock time (seconds since the cluster's
    ``clock_origin``).  A multi-tenant node keeps one host per tenant so
    metrics, issue books and traces stay per-replica; the launcher
    stitches them back into a cluster-wide view at report collection.

    The optional ``at`` arguments pin an operation to a recorded time —
    the WAL replay path re-executes logged operations at their original
    stamps, regenerating the identical event trace.
    """

    def __init__(self, share_graph: ShareGraph, replica: CausalReplica,
                 clock_origin: float = 0.0) -> None:
        super().__init__(share_graph)
        self.replica = replica
        self._replicas = {replica.replica_id: replica}
        self._clock_origin = clock_origin or time.time()
        self._time_override: Optional[float] = None

    @property
    def now(self) -> float:
        """Seconds since the cluster's shared clock origin (wall clock)."""
        if self._time_override is not None:
            return self._time_override
        return time.time() - self._clock_origin

    def _replica_map(self) -> Mapping[ReplicaId, CausalReplica]:
        return self._replicas

    # ------------------------------------------------------------------
    # Client operations (the live counterpart of Cluster.write/read)
    # ------------------------------------------------------------------
    def perform_write(self, register: Register, value: Any,
                      at: Optional[float] = None):
        """Apply a write locally; returns ``(update, outgoing messages)``."""
        self._time_override = at
        try:
            messages = self.replica.write(register, value, sim_time=self.now)
            self._record_operation("write")
            update = self.replica.applied[-1]
            self._note_issue(update)
        finally:
            self._time_override = None
        return update, messages

    def perform_read(self, register: Register,
                     at: Optional[float] = None) -> Any:
        """Serve a read from the local copy."""
        self._time_override = at
        try:
            self._record_operation("read")
            return self.replica.read(register, sim_time=self.now)
        finally:
            self._time_override = None

    def deliver(self, messages: List[UpdateMessage],
                at: Optional[float] = None):
        """Buffer a received batch and run one apply pass (as the sim does)."""
        self._time_override = at
        try:
            return self._apply_batch(self.replica, messages)
        finally:
            self._time_override = None


class _Tenant:
    """One hosted replica's complete per-replica state.

    Everything that was per-node before multi-tenancy is per-tenant now:
    the replica, its host (metrics/trace/issue books), the durable
    sent-log + outbox totals, the first-receipt streams, counters, wire
    books and the write-ahead log.
    """

    def __init__(self, node: "LiveNode", replica_id: ReplicaId) -> None:
        config = node.config
        graph = config.share_graph
        self.replica_id = replica_id
        self.replica = config.replica_factory(graph, replica_id)
        self.host = LiveNodeHost(graph, self.replica,
                                 clock_origin=node.clock_origin)
        #: Durable per-destination outbox, mirrored from the simulator's
        #: transport sent-log (PR 2); the SYNC exchange re-sends from it.
        #: Pruned on ack — an acked update is durable at its receiver.
        self.sent_log: Dict[ReplicaId, Dict[UpdateId, UpdateMessage]] = {}
        #: Total updates ever logged per destination (survives pruning and
        #: crashes; the launcher's drain books compare this against the
        #: receiver's first-receipt count).
        self.outbox_total: Dict[ReplicaId, int] = {}
        #: First-receipt uid stream per incoming channel (differential data).
        self.streams: Dict[Channel, List[UpdateId]] = {}
        #: Wall-relative apply time per uid (cross-node latency joins).
        self.apply_times: Dict[UpdateId, float] = {}
        self.counters: Dict[str, int] = {
            "ops_done": 0, "issued": 0, "enqueued": 0, "sent": 0,
            "received": 0, "delivered": 0, "duplicates": 0,
            "retransmissions": 0, "resyncs": 0,
            "delta_frames": 0, "full_frames": 0,
        }
        #: Byte-accurate per-channel outgoing wire books, fed by every
        #: stream flush — the live mirror of the simulator's
        #: ``NetworkStats.per_channel``.  Intra-node channels ship no
        #: bytes and never appear here.
        self.wire_stats: Dict[Channel, ChannelWireStats] = {}
        self.tracer: Optional[Any] = None
        if config.tracing:
            from ..obs.trace import TraceRecorder
            self.tracer = TraceRecorder()
            self.host.tracer = self.tracer
        self.wal: Optional[ReplicaWAL] = None
        if config.durable_dir:
            self.wal = ReplicaWAL(config.durable_dir, replica_id,
                                  compact_bytes=config.wal_compact_bytes)
        self.recovered = False

    # ------------------------------------------------------------------
    # Wire accounting
    # ------------------------------------------------------------------
    def account_wire(self, channel: Channel, sizes: Any, messages: int) -> None:
        """Book one flushed batch into the per-channel wire statistics."""
        self.wire_stats.setdefault(channel, ChannelWireStats()).add(
            sizes, messages, batches=1
        )
        self.counters["delta_frames"] += sizes.delta_frames
        self.counters["full_frames"] += sizes.full_frames

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def note_acked(self, destination: ReplicaId, uids: List[UpdateId],
                   log: bool = True) -> None:
        """Prune acked updates from the sent-log (and make it durable)."""
        book = self.sent_log.get(destination)
        if not book:
            return
        pruned = [uid for uid in uids if book.pop(uid, None) is not None]
        if pruned and log and self.wal is not None:
            self.wal.append(
                wal_records.W_ACK,
                wal_records.encode_ack_record(destination, pruned),
            )

    def checkpoint_state(self) -> WalCheckpoint:
        return WalCheckpoint(
            replica=self.replica.snapshot(),
            sent_log=self.sent_log,
            outbox_total=self.outbox_total,
            streams=self.streams,
            apply_times=self.apply_times,
            issue_times=dict(self.host._issue_times),
        )

    def maybe_compact(self) -> None:
        if self.wal is not None and self.wal.should_compact():
            self.wal.checkpoint(self.checkpoint_state())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def telemetry_samples(self) -> List[Tuple[str, tuple, float]]:
        me = (("replica", str(self.replica_id)),)
        samples: List[Tuple[str, tuple, float]] = [
            (f"repro_node_{name}_total", me, float(value))
            for name, value in sorted(self.counters.items())
        ]
        samples.append((
            "repro_node_pending_depth", me, float(self.replica.pending_count()),
        ))
        for (src, dst), book in sorted(self.wire_stats.items()):
            channel_labels = (("dst", str(dst)), ("src", str(src)))
            samples.append((
                "repro_node_wire_messages_total", channel_labels,
                float(book.messages)))
            samples.append((
                "repro_node_wire_batches_total", channel_labels,
                float(book.batches)))
            samples.append((
                "repro_node_wire_timestamp_bytes_total", channel_labels,
                float(book.timestamp_bytes)))
            samples.append((
                "repro_node_wire_payload_bytes_total", channel_labels,
                float(book.payload_bytes)))
        return samples

    def report(self) -> Dict[str, Any]:
        """The per-replica report the launcher folds into the cluster view."""
        return {
            "replica_id": self.replica_id,
            "events": tuple(self.replica.events),
            "store": dict(self.replica.store),
            "streams": {
                channel: list(uids) for channel, uids in self.streams.items()
            },
            "metrics": self.host.metrics,
            "issue_times": dict(self.host._issue_times),
            "apply_times": dict(self.apply_times),
            "duplicates_ignored": self.replica.duplicates_ignored,
            "metadata_size": self.replica.metadata_size(),
            "counters": dict(self.counters),
            "recovered": self.recovered,
            "wire_stats": dict(self.wire_stats),
            "trace": list(self.tracer.events) if self.tracer is not None else [],
        }


class _ChannelState:
    """One channel's slice of a peer stream: FIFO queue, window, reliability."""

    __slots__ = ("channel", "queue", "inflight", "outstanding", "window",
                 "deadline", "seq")

    def __init__(self, channel: Channel, queue_limit: int) -> None:
        self.channel = channel
        self.queue: "asyncio.Queue[UpdateMessage]" = asyncio.Queue(
            maxsize=queue_limit
        )
        #: Uids somewhere between enqueue and ack (queue, open window, or
        #: outstanding).  The SYNC resync skips these: a message already on
        #: its way must not be re-offered just because the peer's known-set
        #: predates it.
        self.inflight: set = set()
        #: uid -> (message, last send wall time, attempts).
        self.outstanding: Dict[UpdateId, Tuple[UpdateMessage, float, int]] = {}
        self.window: List[UpdateMessage] = []
        self.deadline = 0.0
        self.seq = 0


class _PeerStream:
    """The sending half of one ordered node pair.

    Owns the single TCP connection to ``peer``, the per-channel states
    multiplexed onto it, the stream-wide delta encoder (keyed by channel
    internally; ``reset()`` on a fresh connection restarts every chain —
    the per-stream epoch), the reconnect loop and the ACK/SYNC reply
    reader.  One send-loop task drains every channel — tasks scale with
    node pairs, not share-graph edges.
    """

    def __init__(self, node: "LiveNode", peer: NodeId) -> None:
        self.node = node
        self.peer = peer
        self.channels: Dict[Channel, _ChannelState] = {}
        self.encoder = ChannelDeltaEncoder()
        #: Channels with queued messages, in arrival order (dict-as-ordered-set).
        self._dirty: Dict[Channel, None] = {}
        self._wake = asyncio.Event()
        self.connected = False

    def channel_state(self, channel: Channel) -> _ChannelState:
        state = self.channels.get(channel)
        if state is None:
            state = _ChannelState(channel, SEND_QUEUE_LIMIT)
            self.channels[channel] = state
        return state

    async def enqueue(self, message: UpdateMessage) -> None:
        """Join the channel's FIFO stream (blocks when saturated)."""
        channel = (message.sender, message.destination)
        state = self.channel_state(channel)
        tenant = self.node.tenants[message.sender]
        tenant.counters["enqueued"] += 1
        state.inflight.add(message.update.uid)
        if tenant.tracer is not None:
            tenant.tracer.record("send", message.update.uid,
                                 channel[0], channel[1], self.node.now)
        await state.queue.put(message)
        self._dirty[channel] = None
        self._wake.set()

    def offer(self, message: UpdateMessage) -> bool:
        """Non-blocking enqueue for retransmissions; ``False`` when full."""
        channel = (message.sender, message.destination)
        state = self.channel_state(channel)
        try:
            state.queue.put_nowait(message)
        except asyncio.QueueFull:
            return False
        state.inflight.add(message.update.uid)
        self._dirty[channel] = None
        self._wake.set()
        return True

    # ------------------------------------------------------------------
    # The stream task
    # ------------------------------------------------------------------
    async def run(self) -> None:
        backoff = RECONNECT_BACKOFF
        while not self.node.stopping.is_set():
            address = self.node.addresses.get(self.peer)
            if address is None:
                await asyncio.sleep(backoff)
                continue
            try:
                reader, writer = await asyncio.open_connection(*address)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, RECONNECT_BACKOFF_MAX)
                continue
            backoff = RECONNECT_BACKOFF
            self.connected = True
            # A fresh connection is a fresh byte stream: every channel's
            # delta chain and batch sequence restart, exactly like a
            # post-crash sim epoch — one reset covers all chains because
            # the encoder keys them per channel.
            self.encoder.reset()
            for state in self.channels.values():
                state.seq = 0
            reply_task = asyncio.create_task(self._read_replies(reader))
            try:
                writer.write(encode_frame(
                    frames.HELLO,
                    frames.encode_hello(self.node.node_id, self.node.port),
                ))
                await writer.drain()
                # Unacked survivors of the previous connection go first (the
                # stream they rode died with that connection).
                for state in self.channels.values():
                    for uid in sorted(state.outstanding):
                        message, _, _ = state.outstanding[uid]
                        self.offer(message)
                await self._send_loop(writer)
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                self.connected = False
                reply_task.cancel()
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass

    async def _send_loop(self, writer: asyncio.StreamWriter) -> None:
        # Windows still filled when the previous connection died hold
        # messages that are neither queued nor outstanding: adopt them, or
        # their (long past) deadlines never fire.
        open_windows: Dict[Channel, _ChannelState] = {
            channel: state for channel, state in self.channels.items()
            if state.window
        }
        while True:
            stopping = self.node.stopping.is_set()
            # Pull queued messages into their channel windows; a full
            # window flushes immediately.
            while self._dirty:
                channel = next(iter(self._dirty))
                del self._dirty[channel]
                state = self.channels[channel]
                while True:
                    try:
                        message = state.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if not state.window:
                        state.deadline = time.monotonic() + BATCHING.max_delay
                        open_windows[channel] = state
                    state.window.append(message)
                    if len(state.window) >= BATCHING.max_messages:
                        await self._flush(writer, state)
                        open_windows.pop(channel, None)
            # Flush expired (or closing) windows.
            now = time.monotonic()
            for channel in list(open_windows):
                state = open_windows[channel]
                if stopping or state.deadline <= now:
                    await self._flush(writer, state)
                    del open_windows[channel]
            if stopping and not self._dirty and not open_windows:
                if all(state.queue.empty() for state in self.channels.values()):
                    return
                continue
            # Sleep until new traffic or the earliest window deadline.
            timeout = None
            if open_windows:
                soonest = min(s.deadline for s in open_windows.values())
                timeout = max(0.0, soonest - time.monotonic())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    async def _flush(self, writer: asyncio.StreamWriter,
                     state: _ChannelState) -> None:
        window = state.window
        if not window:
            return
        src, dst = state.channel
        batch = MessageBatch(
            sender=src, destination=dst, seq=state.seq, messages=tuple(window),
        )
        state.seq += 1
        tenant = self.node.tenants[src]
        data, sizes = encode_batch(
            batch, encoder=self.encoder, codec=tenant.replica.wire_codec()
        )
        tenant.account_wire(state.channel, sizes, messages=len(window))
        now = time.time()
        for message in window:
            uid = message.update.uid
            attempts = state.outstanding.get(uid, (None, 0.0, 0))[2]
            state.outstanding[uid] = (message, now, attempts + 1)
        tenant.counters["sent"] += len(window)
        if tenant.tracer is not None:
            flushed_at = self.node.now
            for message in window:
                tenant.tracer.record("wire", message.update.uid, src, dst,
                                     flushed_at)
        # The window empties before the write: on a mid-write connection
        # error its messages are already in ``outstanding`` and will be
        # re-offered by the reconnect path.
        state.window = []
        writer.write(encode_frame(frames.BATCH, data))
        await writer.drain()

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        """Consume ACK/SYNC frames flowing back on the stream."""
        decoder = StreamDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for kind, payload in decoder.feed(chunk):
                    if kind == frames.ACK:
                        destination, uids = frames.decode_tagged_uids(payload)
                        self._handle_ack(destination, uids)
                    elif kind == frames.SYNC:
                        destination, known = frames.decode_tagged_uids(payload)
                        await self.node.resync(destination, set(known), self)
        except (OSError, ConnectionError, WireFormatError,
                asyncio.CancelledError):
            return

    def _handle_ack(self, destination: ReplicaId,
                    uids: List[UpdateId]) -> None:
        # An update's issuer is its sender (direct multicast, no
        # forwarding), so the uid itself names the channel.
        by_source: Dict[ReplicaId, List[UpdateId]] = {}
        for uid in uids:
            source = uid[0]
            state = self.channels.get((source, destination))
            if state is not None:
                state.outstanding.pop(uid, None)
                state.inflight.discard(uid)
            by_source.setdefault(source, []).append(uid)
        for source, acked in by_source.items():
            tenant = self.node.tenants.get(source)
            if tenant is not None:
                # Acked ⇒ durable at the receiver: prune the sent-log copy
                # (resync filters by the receiver's known set anyway, and
                # the drain books ride outbox_total).
                tenant.note_acked(destination, acked)

    def retransmit_due(self) -> None:
        """Re-offer every outstanding message older than the resend timeout."""
        now = time.time()
        for state in self.channels.values():
            for uid in list(state.outstanding):
                message, sent_at, attempts = state.outstanding[uid]
                if now - sent_at < RELIABILITY.resend_timeout:
                    continue
                if attempts > RELIABILITY.max_retries:
                    # Resend timers give up; the SYNC exchange on the next
                    # reconnect is the recovery of last resort.
                    continue
                if self.offer(message):
                    source = state.channel[0]
                    self.node.tenants[source].counters["retransmissions"] += 1
                    state.outstanding[uid] = (message, now, attempts)

    def queued(self) -> int:
        return sum(state.queue.qsize() for state in self.channels.values())

    def unacked(self) -> int:
        return sum(len(state.outstanding) for state in self.channels.values())


class LiveNode:
    """One live node process: listener, tenants, peer streams, durability."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.node_id = config.node_id
        self.clock_origin = config.clock_origin or time.time()
        self.tenants: Dict[ReplicaId, _Tenant] = {
            rid: _Tenant(self, rid) for rid in config.replica_ids
        }
        self.addresses: Dict[NodeId, Address] = dict(config.peers)
        self.addresses.pop(self.node_id, None)
        self.peer_streams: Dict[NodeId, _PeerStream] = {}
        self.stopping = asyncio.Event()
        self.port: int = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: List[asyncio.Task] = []
        #: Control-connection writers subscribed to TELEMETRY pushes.
        self._telemetry_writers: List[asyncio.StreamWriter] = []
        self._inbound_connections = 0
        self._control_connections = 0
        self._recover()

    @property
    def now(self) -> float:
        return time.time() - self.clock_origin

    def _hosting_node(self, replica_id: ReplicaId) -> NodeId:
        return self.config.replica_nodes.get(replica_id, replica_id)

    # ------------------------------------------------------------------
    # Recovery (checkpoint + WAL replay)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        if not self.config.durable_dir:
            return
        for rid in sorted(self.tenants, key=_id_order):
            self._recover_tenant(self.tenants[rid])
        # Phase 2: re-deliver intra-node copies that never became durable
        # at their co-hosted destination (the crash window between the
        # sender's WRITE record and the receiver's DELIVER record).  The
        # wire path's analogue is the SYNC exchange on reconnect; the
        # short-circuit path settles it here, at boot.  Copies already
        # delivered are deduplicated and merely re-acked.
        for src in sorted(self.tenants, key=_id_order):
            tenant = self.tenants[src]
            for destination in sorted(tenant.sent_log, key=_id_order):
                if destination not in self.tenants:
                    continue
                book = tenant.sent_log[destination]
                for uid in list(book):
                    message = book.get(uid)
                    if message is not None:
                        self._deliver_intra(tenant, message)

    def _recover_tenant(self, tenant: _Tenant) -> None:
        checkpoint, records = tenant.wal.load()
        if checkpoint is not None:
            tenant.replica.restore(checkpoint.replica)
            tenant.sent_log = checkpoint.sent_log
            tenant.outbox_total = checkpoint.outbox_total
            tenant.streams = checkpoint.streams
            tenant.apply_times = checkpoint.apply_times
            tenant.host._issue_times.update(checkpoint.issue_times)
        if checkpoint is not None or records:
            tenant.recovered = True
        for kind, payload in records:
            if kind == wal_records.W_WRITE:
                register, value, at = wal_records.decode_write_record(payload)
                # Replay is deterministic: the replica derives the uid and
                # the outgoing copies from durable state, so re-executing
                # the write at its recorded time regenerates both exactly.
                update, messages = tenant.host.perform_write(
                    register, value, at=at
                )
                tenant.counters["issued"] += 1
                tenant.counters["ops_done"] += 1
                tenant.apply_times[update.uid] = at
                for message in messages:
                    book = tenant.sent_log.setdefault(message.destination, {})
                    book[message.update.uid] = message
                    tenant.outbox_total[message.destination] = (
                        tenant.outbox_total.get(message.destination, 0) + 1
                    )
            elif kind == wal_records.W_READ:
                register, at = wal_records.decode_read_record(payload)
                tenant.host.perform_read(register, at=at)
                tenant.counters["ops_done"] += 1
            elif kind == wal_records.W_DELIVER:
                received_at, batch = wal_records.decode_deliver_record(payload)
                self._deliver(tenant, batch.channel, list(batch.messages),
                              received_at=received_at, log=False)
            elif kind == wal_records.W_ACK:
                destination, uids = wal_records.decode_ack_record(payload)
                tenant.note_acked(destination, uids, log=False)

    # ------------------------------------------------------------------
    # Delivery (shared by the wire path, the short-circuit and replay)
    # ------------------------------------------------------------------
    def _deliver(self, tenant: _Tenant, channel: Channel,
                 messages: List[UpdateMessage],
                 received_at: Optional[float] = None,
                 log: bool = True) -> List[UpdateMessage]:
        """First-receipt bookkeeping, WAL append, batch apply.

        ``log=False`` is the replay path: the record being replayed is
        already in the log, and times come from it, not the clock.
        """
        if received_at is None:
            received_at = self.now
        counters = tenant.counters
        replica = tenant.replica
        fresh: List[UpdateMessage] = []
        # Uids first received in this call: the replica buffers them only
        # after the loop, so repeats inside one batch are caught here.
        fresh_uids: set = set()
        for message in messages:
            uid = message.update.uid
            counters["received"] += 1
            if uid in fresh_uids or replica.holds_update(uid):
                counters["duplicates"] += 1
                continue
            fresh_uids.add(uid)
            tenant.streams.setdefault(channel, []).append(uid)
            counters["delivered"] += 1
            fresh.append(message)
            if tenant.tracer is not None:
                tenant.tracer.record("deliver", uid, channel[0], channel[1],
                                     received_at)
        if not fresh:
            return fresh
        if log and tenant.wal is not None:
            # Ack (and apply) only after the receipt is durable: the WAL
            # record carries the fresh messages as standalone wire frames.
            record_batch = MessageBatch(
                sender=channel[0], destination=channel[1], seq=0,
                messages=tuple(fresh),
            )
            tenant.wal.append(
                wal_records.W_DELIVER,
                wal_records.encode_deliver_record(
                    received_at, record_batch, tenant.replica.wire_codec()
                ),
            )
        if log:
            applied = tenant.host.deliver(fresh)
            applied_at = self.now
        else:
            applied = tenant.host.deliver(fresh, at=received_at)
            applied_at = received_at
        for update in applied:
            tenant.apply_times[update.uid] = applied_at
        if log:
            tenant.maybe_compact()
        return fresh

    def _deliver_intra(self, src_tenant: _Tenant,
                       message: UpdateMessage) -> None:
        """The short-circuit: co-hosted delivery with no socket, no codec."""
        uid = message.update.uid
        src, destination = message.sender, message.destination
        counters = src_tenant.counters
        counters["enqueued"] += 1
        counters["sent"] += 1
        if src_tenant.tracer is not None:
            now = self.now
            src_tenant.tracer.record("send", uid, src, destination, now)
            src_tenant.tracer.record("wire", uid, src, destination, now)
        self._deliver(self.tenants[destination], (src, destination), [message])
        # The short-circuit acks synchronously: the copy is durable at its
        # receiver the moment _deliver returns.
        src_tenant.note_acked(destination, [uid])

    # ------------------------------------------------------------------
    # The process main loop
    # ------------------------------------------------------------------
    async def serve(self, on_ready: Optional[Callable[[int], None]] = None) -> None:
        """Run the node until a SHUTDOWN frame (or cancellation)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.listen_host,
            port=self.config.listen_port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(self.port)
        peers = set()
        graph = self.config.share_graph
        for rid in self.tenants:
            for neighbour in graph.neighbors(rid):
                peer = self._hosting_node(neighbour)
                if peer != self.node_id:
                    peers.add(peer)
        for peer in sorted(peers, key=_id_order):
            self._start_stream(peer)
        self._tasks.append(asyncio.create_task(self._retransmit_loop()))
        if self.config.telemetry_interval > 0:
            self._tasks.append(asyncio.create_task(self._telemetry_loop()))
        try:
            await self.stopping.wait()
        finally:
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._server.close()
            await self._server.wait_closed()
            for tenant in self.tenants.values():
                if tenant.wal is not None:
                    tenant.wal.close()

    def _start_stream(self, peer: NodeId) -> _PeerStream:
        stream = _PeerStream(self, peer)
        self.peer_streams[peer] = stream
        self._tasks.append(asyncio.create_task(stream.run()))
        return stream

    def _stream_for(self, replica_id: ReplicaId) -> _PeerStream:
        peer = self._hosting_node(replica_id)
        stream = self.peer_streams.get(peer)
        if stream is None:
            stream = self._start_stream(peer)
        return stream

    async def _retransmit_loop(self) -> None:
        interval = max(RELIABILITY.resend_timeout / 2, 0.05)
        while not self.stopping.is_set():
            await asyncio.sleep(interval)
            for stream in self.peer_streams.values():
                stream.retransmit_due()

    # ------------------------------------------------------------------
    # Telemetry (live metrics export)
    # ------------------------------------------------------------------
    def telemetry_samples(self) -> List[Tuple[str, tuple, float]]:
        """One flat metrics sample: per-tenant counters plus the node's
        transport footprint (open sockets/streams) and WAL counters.

        The shape :func:`repro.obs.registry.fold_samples` consumes —
        ``(name, sorted label items, value)``; cumulative families carry
        the ``_total`` suffix, instantaneous ones are gauges.
        """
        samples: List[Tuple[str, tuple, float]] = []
        for rid in sorted(self.tenants, key=_id_order):
            samples.extend(self.tenants[rid].telemetry_samples())
        me = (("node", str(self.node_id)),)
        streams = self.peer_streams.values()
        samples.append((
            "repro_node_send_queue_depth", me,
            float(sum(stream.queued() for stream in streams)),
        ))
        samples.append((
            "repro_node_unacked", me,
            float(sum(stream.unacked() for stream in streams)),
        ))
        samples.append((
            "repro_node_peer_streams", me, float(len(self.peer_streams)),
        ))
        samples.append((
            "repro_node_open_streams", me,
            float(sum(1 for stream in streams if stream.connected)),
        ))
        samples.append((
            "repro_node_inbound_connections", me,
            float(self._inbound_connections),
        ))
        wals = [t.wal for t in self.tenants.values() if t.wal is not None]
        samples.append((
            "repro_node_wal_bytes", me,
            float(sum(w.wal_bytes for w in wals)),
        ))
        samples.append((
            "repro_node_wal_records_total", me,
            float(sum(w.records_appended for w in wals)),
        ))
        samples.append((
            "repro_node_wal_compactions_total", me,
            float(sum(w.compactions for w in wals)),
        ))
        return samples

    async def _telemetry_loop(self) -> None:
        """Push a TELEMETRY frame to every subscribed control connection."""
        interval = self.config.telemetry_interval
        while not self.stopping.is_set():
            await asyncio.sleep(interval)
            await self._push_telemetry()

    async def _push_telemetry(self) -> None:
        if not self._telemetry_writers:
            return
        frame = encode_frame(frames.TELEMETRY, frames.encode_telemetry_payload(
            self.now, self.node_id, self.telemetry_samples()
        ))
        alive: List[asyncio.StreamWriter] = []
        for writer in self._telemetry_writers:
            if writer.is_closing():
                continue
            try:
                writer.write(frame)
                await writer.drain()
            except (OSError, ConnectionError):
                continue
            alive.append(writer)
        self._telemetry_writers = alive

    # ------------------------------------------------------------------
    # Resync (the live anti-entropy exchange)
    # ------------------------------------------------------------------
    async def resync(self, destination: ReplicaId, known: set,
                     stream: _PeerStream) -> None:
        """Re-send every sent-log entry ``destination`` does not hold.

        Triggered by the peer node's ``SYNC`` frame (one per hosted
        replica) on every (re)established stream; mirrors
        :meth:`~repro.sim.engine.Transport.resync` exactly — same inputs
        (the receiver's durable uid set), same source (the sender's durable
        outbox), same delivery path (the channel's normal FIFO queue).
        """
        for src in sorted(self.tenants, key=_id_order):
            tenant = self.tenants[src]
            book = tenant.sent_log.get(destination)
            if not book:
                continue
            state = stream.channels.get((src, destination))
            inflight = state.inflight if state is not None else set()
            missing = [
                message for uid, message in book.items()
                if uid not in known and uid not in inflight
            ]
            if missing:
                tenant.counters["resyncs"] += 1
            for message in missing:
                await stream.enqueue(message)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        decoder = StreamDecoder()
        state: Dict[str, Any] = {"peer": None, "decoder": None, "control": False}
        self._inbound_connections += 1
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for kind, payload in decoder.feed(chunk):
                    await self._handle_frame(kind, payload, writer, state)
                    if self.stopping.is_set():
                        return
        except WireFormatError:
            # A corrupt or misaligned stream: drop the connection (the
            # peer's reconnect + resync path recovers), keep the node up.
            return
        except (OSError, ConnectionError):
            return
        except asyncio.CancelledError:
            # Loop teardown while blocked in read(): finish quietly — the
            # connection is closed in the finally block either way.
            return
        finally:
            self._inbound_connections -= 1
            if state["control"]:
                self._control_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _handle_frame(self, kind: int, payload: bytes,
                            writer: asyncio.StreamWriter,
                            state: Dict[str, Any]) -> None:
        if kind == frames.HELLO:
            peer, port = frames.decode_hello(payload)
            state["peer"] = peer
            # One decoder per inbound connection: its delta chains are
            # keyed by channel, mirroring the sender's stream encoder.
            state["decoder"] = ChannelDeltaDecoder()
            # The peer listens on the host it dialled from, at the port it
            # announced — so a restarted peer's new address propagates with
            # its first frame.
            peername = writer.get_extra_info("peername")
            peer_host = peername[0] if peername else self.config.listen_host
            self.addresses[peer] = (peer_host, port)
            # Offer the anti-entropy exchange, once per hosted replica
            # with traffic from the connecting node: tell it what each
            # tenant holds durably; it re-sends the rest.
            graph = self.config.share_graph
            for rid in sorted(self.tenants, key=_id_order):
                tenant = self.tenants[rid]
                if any(self._hosting_node(nb) == peer
                       for nb in graph.neighbors(rid)):
                    writer.write(encode_frame(
                        frames.SYNC,
                        frames.encode_tagged_uids(
                            rid, sorted(tenant.replica.known_update_ids())
                        ),
                    ))
            await writer.drain()
        elif kind == frames.BATCH:
            await self._handle_batch(payload, writer, state)
        elif kind == frames.CONTROL_HELLO:
            state["control"] = True
            self._control_connections += 1
            if self.config.telemetry_interval > 0:
                self._telemetry_writers.append(writer)
        elif kind == frames.ADDR:
            node_id, host, port = frames.decode_addr(payload)
            if node_id != self.node_id:
                self.addresses[node_id] = (host, port)
        elif kind == frames.OP:
            await self._handle_op(payload, writer)
        elif kind == frames.STATS_REQ:
            writer.write(encode_frame(frames.STATS, self._stats_payload()))
            await writer.drain()
        elif kind == frames.REPORT_REQ:
            # Final telemetry sample ahead of the report, on the same
            # stream: FIFO ordering lands it before the REPORT reply the
            # launcher blocks on, so even a run shorter than one sampling
            # interval exports its end-of-run counters.
            if self.config.telemetry_interval > 0:
                writer.write(encode_frame(
                    frames.TELEMETRY, frames.encode_telemetry_payload(
                        self.now, self.node_id, self.telemetry_samples(),
                    )))
            writer.write(encode_frame(frames.REPORT, pickle.dumps(
                self.report(), protocol=pickle.HIGHEST_PROTOCOL
            )))
            await writer.drain()
        elif kind == frames.SHUTDOWN:
            self.stopping.set()
        # Unknown kinds are ignored: wire-compatible newer launchers may
        # probe; dropping beats crashing a live node.

    async def _handle_batch(self, payload: bytes, writer: asyncio.StreamWriter,
                            state: Dict[str, Any]) -> None:
        batch, _ = decode_batch(payload, decoder=state["decoder"])
        tenant = self.tenants.get(batch.destination)
        if tenant is None:
            # Misrouted (stale placement at the sender): drop; its resend
            # gives up after max_retries and resync corrects the books.
            return
        uids = [message.update.uid for message in batch.messages]
        self._deliver(tenant, batch.channel, list(batch.messages))
        # Ack after the WAL append inside _deliver: an ack promises the
        # update survives a crash.  Duplicates are re-acked so a
        # retransmitting sender settles.
        writer.write(encode_frame(
            frames.ACK, frames.encode_tagged_uids(batch.destination, uids)
        ))
        await writer.drain()

    async def _handle_op(self, payload: bytes,
                         writer: asyncio.StreamWriter) -> None:
        op_id, replica_id, kind, register, value = frames.decode_op(payload)
        tenant = self.tenants.get(replica_id)
        status = frames.OP_OK
        reply_value: Any = None
        messages: List[UpdateMessage] = []
        issued_at = self.now
        if tenant is None:
            status = frames.OP_REJECTED
        else:
            try:
                # Validation raises *before* any state mutates (the replica
                # checks register membership first), so a rejection is
                # always a clean no-op.  Infrastructure failures after the
                # mutation (WAL I/O, codec bugs) deliberately propagate
                # instead of masquerading as rejections — the connection
                # drops, the client sees an unanswered op, and the durable
                # trace still tells the truth about what was applied.
                if kind == "write":
                    update, messages = tenant.host.perform_write(
                        register, value, at=issued_at
                    )
                else:
                    reply_value = tenant.host.perform_read(
                        register, at=issued_at
                    )
                    if tenant.wal is not None:
                        # The READ trace event is durable state too.
                        tenant.wal.append(
                            wal_records.W_READ,
                            wal_records.encode_read_record(register, issued_at),
                        )
                        tenant.maybe_compact()
            except ReproError:
                status = frames.OP_REJECTED
                messages = []
        if status == frames.OP_OK and kind == "write":
            tenant.counters["issued"] += 1
            tenant.apply_times[update.uid] = issued_at
            for message in messages:
                book = tenant.sent_log.setdefault(message.destination, {})
                book[message.update.uid] = message
                tenant.outbox_total[message.destination] = (
                    tenant.outbox_total.get(message.destination, 0) + 1
                )
            if tenant.wal is not None:
                # One O(delta) record instead of a whole-state snapshot:
                # replaying the write at its recorded time regenerates the
                # update, its uid and every outgoing copy.
                tenant.wal.append(
                    wal_records.W_WRITE,
                    wal_records.encode_write_record(register, value, issued_at),
                )
                tenant.maybe_compact()
            local = [m for m in messages if m.destination in self.tenants]
            remote = [m for m in messages if m.destination not in self.tenants]
            for message in local:
                self._deliver_intra(tenant, message)
            for message in remote:
                await self._stream_for(message.destination).enqueue(message)
        if tenant is not None:
            tenant.counters["ops_done"] += 1
        writer.write(encode_frame(
            frames.OP_REPLY, frames.encode_op_reply(op_id, status, reply_value)
        ))
        await writer.drain()

    # ------------------------------------------------------------------
    # Harness surface
    # ------------------------------------------------------------------
    def _stats_payload(self) -> bytes:
        totals = {
            "ops_done": 0, "issued": 0, "enqueued": 0, "sent": 0,
            "received": 0, "delivered": 0, "duplicates": 0,
            "retransmissions": 0, "resyncs": 0,
        }
        applied = pending = 0
        outbox: Dict[Channel, int] = {}
        inbox: Dict[Channel, int] = {}
        for rid, tenant in self.tenants.items():
            for name in totals:
                totals[name] += tenant.counters[name]
            applied += len(tenant.replica.applied)
            pending += tenant.replica.pending_count()
            for destination, count in tenant.outbox_total.items():
                outbox[(rid, destination)] = count
            for channel, uids in tenant.streams.items():
                inbox[channel] = len(uids)
        streams = self.peer_streams.values()
        stats = frames.NodeStats(
            applied=applied,
            pending=pending,
            send_queue=sum(stream.queued() for stream in streams),
            unacked=sum(stream.unacked() for stream in streams),
            **totals,
        )
        # The progress books are derived from durable state (outbox
        # counters / first-receipt streams), so drain detection survives
        # SIGKILLs and sent-log pruning alike.
        return frames.encode_stats_payload(stats, outbox, inbox)

    def report(self) -> Dict[str, Any]:
        """The end-of-run report: per-tenant reports + transport footprint."""
        wals = [t.wal for t in self.tenants.values() if t.wal is not None]
        return {
            "node_id": self.node_id,
            "tenants": {
                rid: tenant.report() for rid, tenant in self.tenants.items()
            },
            "transport": {
                "peer_streams": len(self.peer_streams),
                "open_streams": sum(
                    1 for s in self.peer_streams.values() if s.connected
                ),
                "inbound_connections": self._inbound_connections,
                "control_connections": self._control_connections,
                "wal_bytes": sum(w.wal_bytes for w in wals),
                "wal_records": sum(w.records_appended for w in wals),
                "wal_compactions": sum(w.compactions for w in wals),
            },
        }


def _install_uvloop() -> bool:
    """Install uvloop's event-loop policy when opted in and available.

    ``REPRO_UVLOOP=1`` requests uvloop (the ``repro[uvloop]`` extra); the
    default — and any environment where uvloop is not importable — stays on
    the stdlib event loop, so the opt-in can never break a deployment.
    """
    if os.environ.get("REPRO_UVLOOP", "") in ("", "0"):
        return False
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


def node_main(config: NodeConfig, ready_queue: Any) -> None:
    """Process entry point: run one node, reporting its port when bound."""
    _install_uvloop()
    node = LiveNode(config)

    def on_ready(port: int) -> None:
        ready_queue.put((config.node_id, port))

    asyncio.run(node.serve(on_ready))
