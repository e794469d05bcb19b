"""The unified discrete-event simulation kernel.

Both simulated architectures of the paper — the peer-to-peer deployment of
Figure 1a (:class:`~repro.sim.cluster.Cluster`) and the client–server
deployment of Figure 1b (:class:`~repro.clientserver.cluster.ClientServerCluster`)
— are thin protocol adapters over the machinery in this module:

* a typed event queue (:class:`EventKernel`) holding message deliveries,
  timers and open-loop client arrivals, popped in global time order;
* a :class:`Transport` that samples per-message delays from a pluggable
  :class:`~repro.sim.delays.DelayModel`, supports the adversarial
  hold/release channel control used by the necessity experiments, and keeps
  the traffic statistics (:class:`NetworkStats`);
* a :class:`SimulationHost` base class providing the drive loop —
  :meth:`~SimulationHost.step`, :meth:`~SimulationHost.run_until_quiescent`
  with a cross-replica apply fixpoint — and the unified run metrics
  (:class:`RunMetrics`: throughput over time, latency percentiles,
  per-replica queue depths) shared by the metrics module, the evaluation
  harness and the benchmarks.

The host-agnostic half of the old ``SimulationHost`` — replica bookkeeping,
metric recording, event-trace collection and consistency checking — lives in
:class:`repro.core.host.ReplicaHost`, which the live asyncio runtime
(:mod:`repro.net`) shares; this module re-exports those names
(:class:`RunMetrics`, :class:`LatencySummary`, :func:`throughput_timeline`,
:class:`QueueDepthSample`, :class:`QueueDepthStats`, :class:`FaultRecord`)
so existing imports keep working.

Hosts plug in by implementing :meth:`SimulationHost._replica_map` (who owns
which replica id) and :meth:`SimulationHost.submit_operation` (how a client
operation addressed to a replica is executed), plus optional hooks for
architecture-specific work after a delivery or at quiescence.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from ..core.errors import ConfigurationError, SimulationError
from ..core.host import (
    FaultRecord,
    LatencySummary,
    QueueDepthSample,
    QueueDepthStats,
    ReplicaHost,
    RunMetrics,
    throughput_timeline,
)
from ..core.protocol import UpdateId, UpdateMessage
from ..core.registers import ReplicaId
from ..core.share_graph import ShareGraph
from ..wire.batch import MessageBatch, encode_batch
from ..wire.channel import ChannelDeltaEncoder
from ..wire.frames import WireSizes, message_wire_sizes
from .delays import Channel, DelayModel, UniformDelay

__all__ = [
    "ArrivalEvent",
    "BatchDeliveryEvent",
    "BatchingConfig",
    "ChannelWireStats",
    "DeliveryEvent",
    "EventKernel",
    "FaultEvent",
    "FaultRecord",
    "Firing",
    "LatencySummary",
    "NetworkStats",
    "QueueDepthSample",
    "QueueDepthStats",
    "ReconfigEvent",
    "ReliabilityConfig",
    "ReplicaHost",
    "RunMetrics",
    "SimulationHost",
    "TimerEvent",
    "Transport",
    "throughput_timeline",
]


# ======================================================================
# Events
# ======================================================================
# All event classes are slotted: a long open-loop run schedules millions of
# them, and the per-instance ``__dict__`` would dominate the heap.

@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """A message arriving at its destination replica."""

    message: UpdateMessage
    sent_at: float


@dataclass(frozen=True, slots=True)
class BatchDeliveryEvent:
    """A whole per-channel message batch arriving as one kernel event.

    ``sent_at`` is the flush (wire) time; ``sent_times`` records when each
    contained message entered the batching window, so per-message latency
    accounting includes the window wait.  ``epoch`` is the channel's stream
    epoch at encode time: a crash severs the channel's byte stream (the
    peer's decoder state dies with it), and a batch from a stale epoch is
    discarded on arrival exactly as a broken TCP connection would drop its
    in-flight data — its contents come back via retransmission/resync.
    """

    batch: MessageBatch
    sent_at: float
    sent_times: Tuple[float, ...]
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class TimerEvent:
    """A scheduled callback, e.g. a metrics sampler.

    The callback is invoked as ``callback(host, time)`` when the event
    fires.
    """

    callback: Callable[["SimulationHost", float], None]
    tag: str = ""


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """An open-loop client operation arriving at its scheduled time.

    ``operation`` is opaque to the kernel; the host's
    :meth:`SimulationHost.submit_operation` interprets it (normally a
    :class:`~repro.sim.workloads.Operation`).
    """

    operation: Any


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """A scheduled fault action (crash, restart, partition, heal, …).

    Faults are first-class kernel events so a fault schedule replays
    deterministically against the rest of the event stream.  The action is
    invoked as ``action(host, time)`` when the event fires; the
    :class:`~repro.sim.faults.FaultInjector` builds these from a declarative
    :class:`~repro.sim.faults.FaultSchedule`.
    """

    action: Callable[["SimulationHost", float], None]
    kind: str = ""


@dataclass(frozen=True, slots=True)
class ReconfigEvent:
    """A scheduled reconfiguration step (window open, epoch commit).

    Like faults, reconfigurations are first-class kernel events, so a
    membership-change schedule replays deterministically against the rest
    of the event stream.  The action is invoked as ``action(host, time)``;
    the :class:`~repro.sim.reconfig.ReconfigManager` builds these from a
    declarative :class:`~repro.sim.reconfig.ReconfigSchedule`.
    """

    action: Callable[["SimulationHost", float], None]
    kind: str = ""


Event = Any  # DeliveryEvent | BatchDeliveryEvent | TimerEvent | ArrivalEvent | FaultEvent | ReconfigEvent

#: Tie-break order for events scheduled at the same instant: faults first
#: (a crash at time t suppresses a delivery at time t), then
#: reconfiguration steps (a commit at time t flushes a delivery scheduled
#: at time t into the old epoch), then deliveries (so arrivals and samplers
#: observe the freshest replica state), then arrivals, then timers.
_EVENT_PRIORITY: Dict[type, int] = {
    FaultEvent: 0,
    ReconfigEvent: 1,
    DeliveryEvent: 2,
    BatchDeliveryEvent: 2,
    ArrivalEvent: 3,
    TimerEvent: 4,
}


@dataclass(frozen=True, slots=True)
class Firing:
    """One event popped from the kernel."""

    time: float
    event: Event


class EventKernel:
    """A priority queue of typed events sharing one simulated clock.

    Events fire in ``(time, priority, insertion order)`` order, so two runs
    that schedule the same events observe identical executions — the basis
    of every same-seed determinism guarantee in the simulator.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, event: Event) -> None:
        """Schedule ``event`` to fire at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time} < now ({self.now})"
            )
        priority = _EVENT_PRIORITY.get(type(event), 5)
        heapq.heappush(self._heap, (time, priority, next(self._counter), event))

    def schedule_after(self, delay: float, event: Event) -> None:
        """Schedule ``event`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative event delay: {delay}")
        self.schedule_at(self.now + delay, event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def has_events(self) -> bool:
        """``True`` while any event remains scheduled."""
        return bool(self._heap)

    def pending_events(self) -> int:
        """Total scheduled, not-yet-fired events."""
        return len(self._heap)

    def pending_of(self, event_type: Type) -> int:
        """Scheduled events of one type (linear scan; for tests/metrics)."""
        return sum(1 for entry in self._heap if isinstance(entry[3], event_type))

    def peek_time(self) -> Optional[float]:
        """The firing time of the next event, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    def extract(self, predicate: Callable[[Event], bool]) -> List[Event]:
        """Remove every scheduled event matching ``predicate`` from the queue.

        Returns the extracted events in their would-have-fired order
        (time, priority, insertion), without advancing the clock.  Used by
        the reconfiguration commit to flush the old epoch's in-flight
        deliveries at the epoch boundary; determinism is preserved because
        the extraction order is the firing order.
        """
        matched: List[Tuple[float, int, int, Event]] = []
        kept: List[Tuple[float, int, int, Event]] = []
        for entry in self._heap:
            if predicate(entry[3]):
                matched.append(entry)
            else:
                kept.append(entry)
        if matched:
            heapq.heapify(kept)
            self._heap = kept
        return [entry[3] for entry in sorted(matched)]

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def next_event(self) -> Optional[Firing]:
        """Pop the earliest event, advancing the simulated clock."""
        if not self._heap:
            return None
        time, _, _, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("simulation time went backwards")
        self.now = time
        return Firing(time=time, event=event)


# ======================================================================
# Transport
# ======================================================================

@dataclass
class ChannelWireStats:
    """Byte-accurate per-channel traffic accounting (wire accounting on)."""

    messages: int = 0
    batches: int = 0
    header_bytes: int = 0
    timestamp_bytes: int = 0
    payload_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All bytes put on this channel."""
        return self.header_bytes + self.timestamp_bytes + self.payload_bytes

    def add(self, sizes: WireSizes, messages: int, batches: int = 0) -> None:
        """Fold one encoded frame/envelope into this channel's book."""
        self.messages += messages
        self.batches += batches
        self.header_bytes += sizes.header_bytes
        self.timestamp_bytes += sizes.timestamp_bytes
        self.payload_bytes += sizes.payload_bytes


@dataclass
class NetworkStats:
    """Aggregate traffic statistics maintained by the transport."""

    messages_sent: int = 0
    messages_delivered: int = 0
    metadata_counters_sent: int = 0
    payload_messages_sent: int = 0
    metadata_only_messages_sent: int = 0
    total_latency: float = 0.0
    #: Message copies the (lossy) channel discarded before delivery.
    messages_dropped: int = 0
    #: Extra copies injected by a duplicating channel.
    messages_duplicated: int = 0
    #: Copies re-sent by the ack/resend reliability layer.
    retransmissions: int = 0
    #: Deliveries discarded because the destination replica was crashed.
    messages_lost_to_crash: int = 0
    #: Frames rejected at delivery because their epoch tag predates the
    #: receiver's configuration (dynamic membership; content recovery is
    #: the retransmission/resync layers' job).
    messages_rejected_stale_epoch: int = 0
    #: Bytes of membership-change announcements broadcast by the
    #: reconfiguration coordinator (the membership codec's frames).
    reconfig_bytes_sent: int = 0
    # -- wire layer ------------------------------------------------------
    #: Batches flushed onto the wire, and the messages they carried.
    batches_sent: int = 0
    batched_messages_sent: int = 0
    #: Whole batches discarded by a lossy channel fate.
    batches_dropped: int = 0
    #: Byte-accurate split of the traffic (populated when wire accounting
    #: is enabled): envelope/identity bytes vs. timestamp-frame bytes vs.
    #: payload-value bytes.
    header_bytes_sent: int = 0
    timestamp_bytes_sent: int = 0
    payload_bytes_sent: int = 0
    #: What the timestamp frames would have cost without delta encoding.
    timestamp_bytes_full: int = 0
    #: Timestamp frames shipped as per-channel deltas vs. in full.
    delta_frames_sent: int = 0
    full_frames_sent: int = 0
    #: Per-channel byte breakdown, keyed by (sender, destination).
    per_channel: Dict[Channel, ChannelWireStats] = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency over all delivered messages."""
        if not self.messages_delivered:
            return 0.0
        return self.total_latency / self.messages_delivered

    @property
    def bytes_sent(self) -> int:
        """Total bytes put on the wire (header + timestamp + payload)."""
        return self.header_bytes_sent + self.timestamp_bytes_sent + self.payload_bytes_sent

    @property
    def timestamp_delta_savings(self) -> float:
        """Fraction of full-encoding timestamp bytes saved by delta frames."""
        if not self.timestamp_bytes_full:
            return 0.0
        return 1.0 - self.timestamp_bytes_sent / self.timestamp_bytes_full

    def account_wire(self, channel: Channel, sizes: WireSizes,
                     messages: int, batches: int = 0) -> None:
        """Fold one encoded frame/envelope into the aggregate and per-channel books."""
        self.header_bytes_sent += sizes.header_bytes
        self.timestamp_bytes_sent += sizes.timestamp_bytes
        self.payload_bytes_sent += sizes.payload_bytes
        self.timestamp_bytes_full += sizes.timestamp_bytes_full
        self.delta_frames_sent += sizes.delta_frames
        self.full_frames_sent += sizes.full_frames
        self.per_channel.setdefault(channel, ChannelWireStats()).add(
            sizes, messages, batches
        )


@dataclass(frozen=True)
class BatchingConfig:
    """Parameters of the transport's per-channel batching window.

    With batching enabled, every message sent on a (sender, destination)
    channel joins that channel's open window; the window is flushed as one
    :class:`~repro.wire.batch.MessageBatch` — delivered as a *single*
    kernel event — when it reaches ``max_messages`` or when its
    ``max_delay`` kernel-time deadline (armed by the first message) fires,
    whichever comes first.

    Batched channels behave like one FIFO byte stream per channel (batches
    on a channel never overtake each other), which is what makes the
    cross-batch timestamp delta encoding sound: every flushed frame is
    delta-encoded against the channel's previous one.  Enabling batching
    implies wire accounting: every flush is encoded through
    :mod:`repro.wire` and booked into :class:`NetworkStats` in real bytes.

    The simulator reads ``max_delay`` in kernel time units; the live
    runtime (:mod:`repro.net.node`) reads it in wall-clock seconds.
    """

    max_messages: int = 16
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_messages < 1:
            raise ConfigurationError("batching max_messages must be at least 1")
        if self.max_delay < 0:
            raise ConfigurationError("batching max_delay must be non-negative")


@dataclass(frozen=True)
class ReliabilityConfig:
    """Parameters of the transport's ack + resend-timer reliability layer.

    With the layer enabled, every non-parked send arms a resend timer; an
    actual delivery acknowledges the message (after ``ack_delay``), and an
    unacknowledged message is retransmitted up to ``max_retries`` times.
    The final attempt bypasses the loss sampler (the channel is fair-lossy),
    so a lossy/duplicating channel still delivers every message to a live
    destination — the protocol layer's duplicate suppression then restores
    the paper's exactly-once delivery assumption end to end.
    """

    resend_timeout: float = 30.0
    max_retries: int = 8
    ack_delay: float = 0.0


class Transport:
    """Point-to-point channels over an event kernel.

    Samples a delay for every message from the :class:`DelayModel` and
    schedules the corresponding :class:`DeliveryEvent`.  Channels are
    reliable and non-FIFO by default, with three fault-subsystem extensions
    (all inert unless enabled):

    * channels can be held (parking all traffic) and released, as the
      adversarial schedules of the necessity experiments require, and the
      replica set can be *partitioned* into isolated groups — a parked
      message flies once **both** its explicit hold is released and no
      partition separates its endpoints;
    * lossy/duplicating delay-model wrappers
      (:class:`~repro.sim.delays.LossyDelay`,
      :class:`~repro.sim.delays.DuplicatingDelay`) are honoured per send,
      with an ack + resend-timer reliability layer
      (:meth:`enable_reliability`) restoring at-least-once delivery;
    * a durable per-destination sent-log (:meth:`enable_sent_log`) supports
      the crash-recovery anti-entropy exchange (:meth:`resync`).

    Every :class:`SimulationHost` owns exactly one, as ``host.network``.
    """

    def __init__(
        self,
        kernel: EventKernel,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.delay_model = delay_model or UniformDelay()
        self.rng = random.Random(seed)
        self.stats = NetworkStats()
        #: Multiplier applied to every sampled latency (latency-spike faults).
        self.delay_factor: float = 1.0
        self._held_channels: Set[Channel] = set()
        self._held_messages: List[Tuple[float, UpdateMessage]] = []
        #: Parked batches: (flush time, per-message send times, batch, epoch).
        self._held_batches: List[Tuple[float, Tuple[float, ...], MessageBatch, int]] = []
        self._partition_groups: Optional[Tuple[FrozenSet[ReplicaId], ...]] = None
        self._partition_lookup: Dict[ReplicaId, int] = {}
        self._reliability: Optional[ReliabilityConfig] = None
        #: Unacknowledged tracked messages: (uid, destination) -> (sent_at, message).
        self._outstanding: Dict[Tuple[UpdateId, ReplicaId], Tuple[float, UpdateMessage]] = {}
        self._acked: Set[Tuple[UpdateId, ReplicaId]] = set()
        #: Messages already delivered whose (delayed) ack has not fired yet;
        #: still in ``_outstanding``, but they need no re-delivery.
        self._pending_acks: Set[Tuple[UpdateId, ReplicaId]] = set()
        #: Per-destination durable outbox (crash resync); None = disabled.
        self._sent_log: Optional[Dict[ReplicaId, Dict[UpdateId, Tuple[float, UpdateMessage]]]] = None
        # -- wire layer ------------------------------------------------
        self._batching: Optional[BatchingConfig] = None
        self._wire_accounting: bool = False
        #: Per-channel timestamp delta chains of the batched streams.
        self._delta_encoder = ChannelDeltaEncoder()
        #: Resolves a message to its family codec via the sending replica;
        #: installed by the host once the replicas exist.
        self._codec_resolver: Optional[Callable[[UpdateMessage], Any]] = None
        #: Open batching windows: channel -> [(send time, message), …].
        self._open_batches: Dict[Channel, List[Tuple[float, UpdateMessage]]] = {}
        #: Per-channel flush sequence numbers and deadline-timer generations.
        self._batch_seq: Dict[Channel, int] = {}
        self._flush_generation: Dict[Channel, int] = {}
        #: Last scheduled batch-arrival time per channel (the FIFO clamp).
        self._last_batch_arrival: Dict[Channel, float] = {}
        #: Per-channel stream epoch, bumped when a crash severs the stream
        #: (see :class:`BatchDeliveryEvent`).
        self._channel_epoch: Dict[Channel, int] = {}
        #: The attached :class:`~repro.obs.trace.TraceRecorder`, if any;
        #: ``None`` on the untraced fast path.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # Fault-subsystem configuration
    # ------------------------------------------------------------------
    def enable_reliability(self, config: Optional[ReliabilityConfig] = None) -> None:
        """Turn on the ack + resend-timer layer (idempotent)."""
        self._reliability = config or ReliabilityConfig()

    # ------------------------------------------------------------------
    # Wire-layer configuration
    # ------------------------------------------------------------------
    def enable_wire_accounting(self) -> None:
        """Book every sent message/batch into the byte-accurate statistics.

        Off by default: the fault-free fast path then never touches the
        codecs.  Enabling batching turns this on implicitly.
        """
        self._wire_accounting = True

    def enable_batching(self, config: BatchingConfig) -> None:
        """Turn on per-channel batching windows (implies wire accounting)."""
        self._batching = config
        self._wire_accounting = True

    def set_codec_resolver(
        self, resolver: Optional[Callable[[UpdateMessage], Any]]
    ) -> None:
        """Install the message → family-codec resolver (host-provided)."""
        self._codec_resolver = resolver

    def _codec_for(self, message: UpdateMessage) -> Any:
        if self._codec_resolver is None:
            return None
        return self._codec_resolver(message)

    def _account_single(self, message: UpdateMessage) -> None:
        """Book one standalone (full-frame) envelope, if accounting is on.

        Used by the unbatched send path and by every retransmission/resync
        re-send, so ``NetworkStats`` byte totals cover *all* copies put on
        the wire — per-channel message counts therefore include
        retransmitted copies.
        """
        if not self._wire_accounting:
            return
        sizes = message_wire_sizes(message, codec=self._codec_for(message))
        self.stats.account_wire(
            (message.sender, message.destination), sizes, messages=1
        )

    def enable_sent_log(self) -> None:
        """Start retaining every sent message per destination (idempotent).

        Required by :meth:`resync`; off by default so fault-free runs keep
        no per-message state.
        """
        if self._sent_log is None:
            self._sent_log = {}

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: UpdateMessage, delay: Optional[float] = None) -> None:
        """Inject a message; it will be delivered after its sampled delay.

        ``delay`` overrides the delay model for this single message (used by
        scripted adversarial schedules); such messages bypass the batching
        window, exactly as an out-of-band control message would.
        """
        self.stats.messages_sent += 1
        self.stats.metadata_counters_sent += message.metadata_size
        if message.payload:
            self.stats.payload_messages_sent += 1
        else:
            self.stats.metadata_only_messages_sent += 1

        if self._sent_log is not None:
            destination_log = self._sent_log.setdefault(message.destination, {})
            destination_log[message.update.uid] = (self.kernel.now, message)

        if self.tracer is not None:
            self.tracer.record("send", message.update.uid, message.sender,
                               message.destination, self.kernel.now)

        if self._batching is not None and delay is None:
            self._enqueue_for_batch(message)
            return

        channel = (message.sender, message.destination)
        # Unbatched messages ship as standalone envelopes with full
        # timestamp frames (delta frames need the per-channel FIFO stream
        # only the batching transport provides).  No window means the copy
        # hits the wire immediately: its ``wire`` stamp equals its ``send``.
        if self.tracer is not None:
            self.tracer.record("wire", message.update.uid, message.sender,
                               message.destination, self.kernel.now)
        self._account_single(message)
        if self._blocked(channel):
            self._held_messages.append((self.kernel.now, message))
            return
        self._transmit(message, sent_at=self.kernel.now, delay=delay)

    def send_all(self, messages: Iterable[UpdateMessage]) -> None:
        """Send a batch of messages."""
        for message in messages:
            self.send(message)

    # ------------------------------------------------------------------
    # Per-channel batching windows
    # ------------------------------------------------------------------
    def _enqueue_for_batch(self, message: UpdateMessage) -> None:
        """Add a message to its channel's open window, flushing when full."""
        channel = (message.sender, message.destination)
        window = self._open_batches.setdefault(channel, [])
        window.append((self.kernel.now, message))
        if len(window) >= self._batching.max_messages:
            self._flush_channel(channel)
            return
        if len(window) == 1:
            # First message arms the kernel-time flush deadline.  The
            # generation guard makes a stale timer (window already flushed
            # by count) a no-op without unscheduling anything.
            generation = self._flush_generation.get(channel, 0)

            def fire(host: "SimulationHost", time: float,
                     channel=channel, generation=generation) -> None:
                if self._flush_generation.get(channel, 0) == generation:
                    self._flush_channel(channel)

            self.kernel.schedule_after(
                self._batching.max_delay, TimerEvent(callback=fire, tag="batch-flush")
            )

    def _flush_channel(self, channel: Channel) -> None:
        """Close a channel's window and put the batch on the wire."""
        window = self._open_batches.pop(channel, None)
        if not window:
            return
        self._flush_generation[channel] = self._flush_generation.get(channel, 0) + 1
        seq = self._batch_seq.get(channel, 0)
        self._batch_seq[channel] = seq + 1
        sent_times = tuple(sent_at for sent_at, _ in window)
        batch = MessageBatch(
            sender=channel[0],
            destination=channel[1],
            seq=seq,
            messages=tuple(message for _, message in window),
        )
        # Encoding happens exactly once, at flush, in send order — the
        # sender side of the per-channel FIFO stream the delta frames
        # assume.  A parked batch has already consumed its encoder state.
        epoch = self._channel_epoch.get(channel, 0)
        _, sizes = encode_batch(
            batch,
            encoder=self._delta_encoder,
            codec=self._codec_for(batch.messages[0]),
        )
        self.stats.batches_sent += 1
        self.stats.batched_messages_sent += len(batch.messages)
        self.stats.account_wire(channel, sizes, messages=len(batch.messages), batches=1)
        if self.tracer is not None:
            for message in batch.messages:
                self.tracer.record("wire", message.update.uid, channel[0],
                                   channel[1], self.kernel.now)
        if self._reliability is not None:
            for sent_at, message in window:
                self._track(message, sent_at)
        if self._blocked(channel):
            self._held_batches.append((self.kernel.now, sent_times, batch, epoch))
            return
        self._transmit_batch(batch, sent_times, sent_at=self.kernel.now, epoch=epoch)

    def flush_open_batches(self) -> None:
        """Force-flush every open window (epoch boundary)."""
        for channel in list(self._open_batches):
            self._flush_channel(channel)

    @property
    def open_batch_messages(self) -> int:
        """Messages waiting in not-yet-flushed batching windows."""
        return sum(len(window) for window in self._open_batches.values())

    def _transmit_batch(self, batch: MessageBatch, sent_times: Tuple[float, ...],
                        sent_at: float, epoch: int = 0,
                        force: bool = False) -> None:
        """Sample the channel fate for a flushed batch and schedule it."""
        if force:
            copies = 1
        else:
            copies = self.delay_model.fate(batch.messages[0], self.rng)
        if copies <= 0:
            # The whole envelope is lost; with the reliability layer on the
            # per-message resend timers recover the contents as singles
            # (full frames).  The channel's delta stream restarts so the
            # next flushed frame never chains through bytes the receiver
            # cannot have — every delivered delta frame stays decodable.
            self.stats.batches_dropped += 1
            self.stats.messages_dropped += len(batch.messages)
            self._delta_encoder.reset(batch.channel)
            return
        if copies > 1:
            self.stats.messages_duplicated += (copies - 1) * len(batch.messages)
        for _ in range(copies):
            self._schedule_batch(batch, sent_times, sent_at=sent_at, epoch=epoch)

    def _schedule_batch(self, batch: MessageBatch, sent_times: Tuple[float, ...],
                        sent_at: float, epoch: int = 0) -> None:
        """Schedule a batch delivery, clamped to per-channel FIFO order.

        Batches on one channel model a single byte stream (one TCP
        connection): a later batch never overtakes an earlier one, however
        the delays are sampled.
        """
        latency = self.delay_model.delay(batch.messages[0], self.rng) * self.delay_factor
        if latency < 0:
            raise SimulationError(f"negative message delay: {latency}")
        arrival = max(
            self.kernel.now + latency,
            self._last_batch_arrival.get(batch.channel, 0.0),
        )
        self._last_batch_arrival[batch.channel] = arrival
        self.kernel.schedule_at(
            arrival,
            BatchDeliveryEvent(
                batch=batch, sent_at=sent_at, sent_times=sent_times, epoch=epoch
            ),
        )

    def _transmit(self, message: UpdateMessage, sent_at: float,
                  delay: Optional[float] = None, force: bool = False) -> None:
        """First wire attempt: put on the wire, arm the reliability layer."""
        self._put_on_wire(message, sent_at=sent_at, delay=delay, force=force)
        if self._reliability is not None:
            self._track(message, sent_at)

    def _put_on_wire(self, message: UpdateMessage, sent_at: float,
                     delay: Optional[float] = None, force: bool = False) -> None:
        """Sample the channel fate and schedule the resulting copies.

        ``force=True`` bypasses the loss/duplication sampler (used by the
        final retransmission attempt and by scripted-delay sends).
        """
        if delay is not None or force:
            copies = 1
        else:
            copies = self.delay_model.fate(message, self.rng)
        if copies <= 0:
            self.stats.messages_dropped += 1
            return
        if copies > 1:
            self.stats.messages_duplicated += copies - 1
        for _ in range(copies):
            self._schedule(message, sent_at=sent_at, delay=delay)

    def _schedule(self, message: UpdateMessage, sent_at: float,
                  delay: Optional[float] = None) -> None:
        if delay is None:
            latency = self.delay_model.delay(message, self.rng) * self.delay_factor
        else:
            latency = delay
        if latency < 0:
            raise SimulationError(f"negative message delay: {latency}")
        self.kernel.schedule_after(latency, DeliveryEvent(message, sent_at=sent_at))

    def _note_message_delivered(self, message: UpdateMessage, sent_at: float,
                                time: float) -> None:
        """Per-message delivery bookkeeping shared by singles and batches."""
        self.stats.messages_delivered += 1
        self.stats.total_latency += time - sent_at
        if self._reliability is not None:
            key = (message.update.uid, message.destination)
            if self._reliability.ack_delay > 0 and key not in self._acked:
                self._pending_acks.add(key)

                def ack(host: "SimulationHost", ack_time: float, key=key) -> None:
                    self._acknowledge(key)
                self.kernel.schedule_after(
                    self._reliability.ack_delay, TimerEvent(callback=ack, tag="ack")
                )
            else:
                self._acknowledge(key)

    def record_delivery(self, event: DeliveryEvent, time: float) -> None:
        """Account for one fired :class:`DeliveryEvent` in the statistics."""
        self._note_message_delivered(event.message, event.sent_at, time)
        if self.tracer is not None:
            message = event.message
            self.tracer.record("deliver", message.update.uid, message.sender,
                               message.destination, time)

    def record_batch_delivery(self, event: BatchDeliveryEvent, time: float) -> None:
        """Account for every message of a delivered batch.

        Each message's latency runs from when it entered the batching
        window, so the window wait is part of the measured delivery latency
        (the cost side of the batching trade-off).
        """
        for message, sent_at in zip(event.batch.messages, event.sent_times):
            self._note_message_delivered(message, sent_at, time)
        if self.tracer is not None:
            for message in event.batch.messages:
                self.tracer.record("deliver", message.update.uid,
                                   message.sender, message.destination, time)

    def note_lost_delivery(self, event: DeliveryEvent) -> None:
        """Account for a delivery discarded because its destination is down.

        The message is deliberately *not* acknowledged: with the reliability
        layer on it will be retransmitted, and the crash-recovery resync
        covers it otherwise.
        """
        self.stats.messages_lost_to_crash += 1

    def note_lost_batch(self, event: BatchDeliveryEvent) -> None:
        """Account for a whole batch discarded at a crashed destination.

        The crash severs the channel's byte stream: the epoch bump makes
        every batch still in flight on this channel stale (it dies on
        arrival, like in-flight data of a broken TCP connection), and the
        delta encoder restarts so frames flushed after this point go full
        until a new chain builds up.  Content recovery is the
        retransmission/resync layer's job — those paths re-send full-frame
        singles — so every batch that *is* delivered chains only through
        delivered predecessors.
        """
        channel = event.batch.channel
        self.stats.messages_lost_to_crash += len(event.batch.messages)
        if event.epoch == self._channel_epoch.get(channel, 0):
            # A live-stream batch hit a crashed peer the fault layer had
            # not already severed (hosts without a FaultInjector); cut the
            # stream here.  A batch from an already-severed epoch must not
            # bump again — the successor stream is live.
            self._sever_channel(channel)

    def _sever_channel(self, channel: Channel) -> None:
        self._channel_epoch[channel] = self._channel_epoch.get(channel, 0) + 1
        self._delta_encoder.reset(channel)

    def sever_streams(self, replica_id: ReplicaId) -> None:
        """Sever the batched streams broken by a replica crash.

        Called by the fault layer at crash time.  Channels *into* the
        crashed replica lose their receiver-side decoder state, so their
        epoch is bumped: in-flight batches become stale (they die on
        arrival, and resync/retransmission recover the contents) and
        post-crash flushes start fresh delta chains.  Channels *out of*
        the crashed replica only lose the sender-side encoder state —
        batches already in flight to live peers remain decodable (the
        receivers' state is intact and FIFO order holds), so only the
        encoder chain restarts: the crashed sender's next post-restart
        flush goes full.  A no-op without batching.
        """
        if self._batching is None:
            return
        for channel in set(self._batch_seq) | set(self._open_batches):
            if channel[1] == replica_id:
                self._sever_channel(channel)
            elif channel[0] == replica_id:
                self._delta_encoder.reset(channel)

    def batch_is_stale(self, event: BatchDeliveryEvent) -> bool:
        """``True`` when the batch's stream epoch predates a crash cut."""
        return event.epoch != self._channel_epoch.get(event.batch.channel, 0)

    # ------------------------------------------------------------------
    # Dynamic membership support
    # ------------------------------------------------------------------
    def take_outstanding(self) -> List[Tuple[float, UpdateMessage]]:
        """Claim every unacknowledged tracked message, in deterministic order.

        The reconfiguration flush delivers these directly at the epoch
        boundary; they are acknowledged here (before delivery) so pending
        retransmission timers become no-ops and no old-epoch copy survives
        into the new configuration.  Messages already delivered and merely
        awaiting a delayed ack are acknowledged without being returned —
        re-delivering them would double-count delivery statistics.
        """
        out = [
            self._outstanding[key]
            for key in sorted(self._outstanding)
            if key not in self._pending_acks
        ]
        for key in list(self._outstanding):
            self._acknowledge(key)
        return out

    def take_held_messages(self) -> List[Tuple[float, UpdateMessage]]:
        """Claim every parked (held/partitioned) single message (epoch flush)."""
        held = self._held_messages
        self._held_messages = []
        return held

    def take_held_batches(
        self,
    ) -> List[Tuple[float, Tuple[float, ...], MessageBatch, int]]:
        """Claim every parked batch (epoch flush)."""
        held = self._held_batches
        self._held_batches = []
        return held

    def restart_delta_streams(self) -> None:
        """Reset every channel's timestamp delta chain (epoch boundary).

        After a migration, the last-shipped timestamp on each channel is
        indexed by the retired configuration's edges; the next frame on
        every channel must go full.
        """
        self._delta_encoder.reset()

    def forget_replica(self, replica_id: ReplicaId) -> None:
        """Garbage-collect all per-replica transport state (a *leave*).

        Drops the leaver's sent-log outbox, reliability tracking, batching
        stream state and delta chains; aggregate statistics are preserved
        (they describe the past, which the leave does not rewrite).
        """
        if self._sent_log is not None:
            self._sent_log.pop(replica_id, None)
        for key in [k for k in self._outstanding if k[1] == replica_id]:
            del self._outstanding[key]
        self._acked = {k for k in self._acked if k[1] != replica_id}
        self._pending_acks = {k for k in self._pending_acks if k[1] != replica_id}
        stale_channels = {
            channel
            for book in (self._batch_seq, self._open_batches)
            for channel in book
            if replica_id in channel
        }
        for book in (
            self._batch_seq,
            self._flush_generation,
            self._last_batch_arrival,
            self._channel_epoch,
        ):
            for channel in [c for c in book if replica_id in c]:
                del book[channel]
        for channel in stale_channels:
            self._delta_encoder.reset(channel)

    def note_stale_batch(self, event: BatchDeliveryEvent) -> None:
        """Discard a batch whose stream was severed while it was in flight.

        Counted with the crash losses (the crash is what killed it); the
        epoch is *not* bumped again — batches flushed after the cut belong
        to the new stream and must keep flowing.
        """
        self.stats.messages_lost_to_crash += len(event.batch.messages)

    # ------------------------------------------------------------------
    # Ack + resend-timer reliability layer
    # ------------------------------------------------------------------
    def _acknowledge(self, key: Tuple[UpdateId, ReplicaId]) -> None:
        self._acked.add(key)
        self._outstanding.pop(key, None)
        self._pending_acks.discard(key)

    def _track(self, message: UpdateMessage, sent_at: float) -> None:
        key = (message.update.uid, message.destination)
        if key in self._acked or key in self._outstanding:
            return
        self._outstanding[key] = (sent_at, message)
        self._arm_retry(key, attempt=1)

    def _arm_retry(self, key: Tuple[UpdateId, ReplicaId], attempt: int) -> None:
        def fire(host: "SimulationHost", time: float,
                 key=key, attempt=attempt) -> None:
            self._retry(key, attempt)

        self.kernel.schedule_after(
            self._reliability.resend_timeout,
            TimerEvent(callback=fire, tag="retransmit"),
        )

    def _retry(self, key: Tuple[UpdateId, ReplicaId], attempt: int) -> None:
        if key in self._acked or key not in self._outstanding:
            return
        sent_at, message = self._outstanding[key]
        channel = (message.sender, message.destination)
        if self._blocked(channel):
            # Hand the copy to the partition/hold buffer: it is delivered
            # unconditionally on release/heal, so the timer chain can stop.
            self._held_messages.append((sent_at, message))
            del self._outstanding[key]
            return
        self.stats.retransmissions += 1
        self._account_single(message)
        final = attempt >= self._reliability.max_retries
        self._put_on_wire(message, sent_at=sent_at, force=final)
        if final:
            del self._outstanding[key]
        else:
            self._arm_retry(key, attempt + 1)

    # ------------------------------------------------------------------
    # Crash-recovery anti-entropy
    # ------------------------------------------------------------------
    def resync(self, destination: ReplicaId,
               known: Set[UpdateId]) -> List[UpdateId]:
        """Re-send every logged message to ``destination`` it does not know.

        The anti-entropy half of crash recovery: the restarted replica
        reports the update ids it holds (applied + pending, from its durable
        snapshot) and the transport re-sends the rest from its sent-log,
        through the normal delay/partition path.  Requires
        :meth:`enable_sent_log` to have been on while the messages were
        originally sent.  Returns the re-sent update ids in send order.
        """
        if self._sent_log is None:
            raise SimulationError(
                "resync requires the transport sent-log; call enable_sent_log() "
                "(the FaultInjector does this on construction)"
            )
        missing: List[UpdateId] = []
        for uid, (sent_at, message) in self._sent_log.get(destination, {}).items():
            if uid in known:
                continue
            missing.append(uid)
            self.stats.retransmissions += 1
            self._account_single(message)
            channel = (message.sender, message.destination)
            if self._blocked(channel):
                self._held_messages.append((self.kernel.now, message))
            else:
                self._transmit(message, sent_at=self.kernel.now)
        return missing

    # ------------------------------------------------------------------
    # Adversarial channel control: holds and partitions
    # ------------------------------------------------------------------
    def _blocked(self, channel: Channel) -> bool:
        return channel in self._held_channels or self._crosses_partition(channel)

    def _crosses_partition(self, channel: Channel) -> bool:
        if self._partition_groups is None:
            return False
        lookup = self._partition_lookup
        # Replicas in no listed group form one implicit "rest" island (-1).
        return lookup.get(channel[0], -1) != lookup.get(channel[1], -1)

    def hold(self, sender: ReplicaId, destination: ReplicaId) -> None:
        """Park all current and future traffic on one directed channel."""
        self._held_channels.add((sender, destination))

    def release(self, sender: ReplicaId, destination: ReplicaId) -> None:
        """Release a held channel; parked messages are scheduled from *now*.

        A released message still crossing an active partition stays parked
        until :meth:`heal`.
        """
        self._held_channels.discard((sender, destination))
        self._flush_parked()

    def release_all(self) -> None:
        """Release every held channel."""
        self._held_channels.clear()
        self._flush_parked()

    def partition(self, *groups: Iterable[ReplicaId]) -> None:
        """Split the replicas into isolated groups (replacing any partition).

        Messages crossing group boundaries — in either direction — are
        parked exactly like held-channel traffic and fly on :meth:`heal`.
        Replicas not named in any group form one additional island together.
        Messages parked under the previous partition whose endpoints the
        new one reunites are re-scheduled immediately.
        """
        cleaned = tuple(frozenset(g) for g in groups if g)
        self._partition_groups = cleaned or None
        self._partition_lookup = {
            rid: index for index, group in enumerate(cleaned) for rid in group
        }
        self._flush_parked()

    def heal(self) -> None:
        """Dissolve the partition; parked cross-partition traffic flies.

        Explicitly held channels stay held: their messages remain parked
        until :meth:`release`.
        """
        self._partition_groups = None
        self._partition_lookup = {}
        self._flush_parked()

    @property
    def partitioned(self) -> bool:
        """``True`` while a partition is active."""
        return self._partition_groups is not None

    def _flush_parked(self) -> None:
        """Re-schedule every parked message/batch whose channel is now unblocked."""
        still_parked: List[Tuple[float, UpdateMessage]] = []
        for sent_at, message in self._held_messages:
            if self._blocked((message.sender, message.destination)):
                still_parked.append((sent_at, message))
            else:
                self._schedule(message, sent_at=sent_at)
        self._held_messages = still_parked
        still_parked_batches: List[Tuple[float, Tuple[float, ...], MessageBatch, int]] = []
        for sent_at, sent_times, batch, epoch in self._held_batches:
            if self._blocked(batch.channel):
                still_parked_batches.append((sent_at, sent_times, batch, epoch))
            else:
                self._schedule_batch(batch, sent_times, sent_at=sent_at, epoch=epoch)
        self._held_batches = still_parked_batches

    @property
    def held_count(self) -> int:
        """Number of messages currently parked on held or partitioned channels."""
        return len(self._held_messages) + sum(
            len(batch.messages) for _, _, batch, _ in self._held_batches
        )


# ======================================================================
# The shared host
# ======================================================================

class SimulationHost(ReplicaHost):
    """Base class for every simulated deployment driven by the kernel.

    The host-agnostic surface — replica bookkeeping, metric recording,
    event traces and consistency checking — comes from
    :class:`~repro.core.host.ReplicaHost` (shared with the live runtime);
    this class adds the simulated half: the event loop over the
    :class:`EventKernel`, quiescence detection with a cross-replica apply
    fixpoint, and the kernel-time scheduling helpers.

    Parameters
    ----------
    share_graph:
        The register placement / share graph of the system.
    delay_model:
        Assigns a latency to every message (default: ``UniformDelay(1, 10)``).
    seed:
        Seed for the transport's private random generator; two hosts built
        with the same seed and fed the same operations behave identically.
    batching:
        Optionally a :class:`BatchingConfig`: messages then ride
        per-channel batching windows delivered as single kernel events,
        with the wire-format byte accounting implied (see the
        ``repro.wire`` package).
    wire_accounting:
        Book every sent message into byte-accurate :class:`NetworkStats`
        even without batching.

    The host owns one :class:`EventKernel` (``kernel``) and one
    :class:`Transport` over it (``network``).
    """

    def __init__(
        self,
        share_graph: ShareGraph,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        batching: Optional[BatchingConfig] = None,
        wire_accounting: bool = False,
    ) -> None:
        super().__init__(share_graph)
        self.kernel = EventKernel()
        self.network = Transport(self.kernel, delay_model=delay_model, seed=seed)
        if batching is not None:
            self.network.enable_batching(batching)
        elif wire_accounting:
            self.network.enable_wire_accounting()
        # Each replica family registers its timestamp codec; the byte
        # accounting resolves a message's codec through its sender.
        self.network.set_codec_resolver(self._codec_for_message)
        #: Time of the last delivery/arrival processed (timers excluded), so
        #: a trailing metrics sampler does not inflate reported makespans.
        self.last_activity_time: float = 0.0
        # Arrivals are serviced iteratively: a blocking operation that steps
        # the kernel can pop further ArrivalEvents, which are deferred onto
        # this queue (with their firing time, so the queueing wait counts
        # towards their operation latency) instead of being submitted
        # reentrantly — unbounded recursion on long arrival backlogs
        # otherwise.
        self._arrival_backlog: "deque[Tuple[float, Any]]" = deque()
        self._servicing_arrivals = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.kernel.now

    def submit_operation(self, operation: "Any") -> Any:
        """Execute one client operation (a :class:`~repro.sim.workloads.Operation`).

        Every simulated host implements this, which is what lets one
        workload — closed-loop replay or open-loop arrivals — drive either
        architecture.
        """
        raise NotImplementedError

    def _codec_for_message(self, message: UpdateMessage) -> Any:
        replica = self._replica_map().get(message.sender)
        return replica.wire_codec() if replica is not None else None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_tracing(self, recorder: Optional[Any] = None) -> Any:
        """Attach a message-lifecycle :class:`~repro.obs.trace.TraceRecorder`.

        One recorder covers host and transport, so every stage of every
        op — issue, send, wire, deliver, apply — lands in one event list
        (simulated-time stamps).  Returns the recorder.  Tracing is off by
        default; untraced runs pay a single ``is not None`` check per hook.
        """
        if recorder is None:
            from ..obs.trace import TraceRecorder
            recorder = TraceRecorder()
        self.tracer = recorder
        self.network.tracer = recorder
        return recorder

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule_timer(
        self,
        delay: float,
        callback: Callable[["SimulationHost", float], None],
        tag: str = "",
    ) -> None:
        """Fire ``callback(host, time)`` after ``delay`` simulated time units."""
        self.kernel.schedule_after(delay, TimerEvent(callback=callback, tag=tag))

    def schedule_fault_at(
        self,
        time: float,
        action: Callable[["SimulationHost", float], None],
        kind: str = "",
    ) -> None:
        """Schedule a fault action at absolute simulated time ``time``."""
        self.kernel.schedule_at(time, FaultEvent(action=action, kind=kind))

    def schedule_reconfig_at(
        self,
        time: float,
        action: Callable[["SimulationHost", float], None],
        kind: str = "",
    ) -> None:
        """Schedule a reconfiguration step at absolute simulated time ``time``."""
        self.kernel.schedule_at(time, ReconfigEvent(action=action, kind=kind))

    def schedule_arrival(self, delay: float, operation: "Any") -> None:
        """Schedule an open-loop client operation ``delay`` units from now."""
        self.kernel.schedule_after(delay, ArrivalEvent(operation=operation))

    def schedule_arrival_at(self, time: float, operation: "Any") -> None:
        """Schedule an open-loop client operation at absolute time ``time``."""
        self.kernel.schedule_at(time, ArrivalEvent(operation=operation))

    def busy(self) -> bool:
        """``True`` while the run has work left: scheduled events, or
        arrivals deferred onto the service backlog (which are no longer
        kernel events).  Self-rescheduling timers should key off this, not
        off the kernel alone."""
        return self.kernel.has_events() or bool(self._arrival_backlog)

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next scheduled event (delivery, fault, timer or arrival).

        Returns ``False`` when nothing remained scheduled.
        """
        firing = self.kernel.next_event()
        if firing is None:
            return False
        event = firing.event
        if isinstance(event, DeliveryEvent):
            self.last_activity_time = firing.time
            if self.replica_down(event.message.destination):
                # The destination is crashed: the delivery is lost (it is
                # re-sent by the retransmission layer or the restart resync).
                self.network.note_lost_delivery(event)
            else:
                self.network.record_delivery(event, firing.time)
                self._deliver(event.message)
        elif isinstance(event, BatchDeliveryEvent):
            self.last_activity_time = firing.time
            if self.replica_down(event.batch.destination):
                # The whole envelope is lost with its crashed destination;
                # retransmission/resync recover the contents.
                self.network.note_lost_batch(event)
            elif self.network.batch_is_stale(event):
                # The stream was severed (crash) while this batch was in
                # flight; it dies like a broken connection's data.
                self.network.note_stale_batch(event)
            else:
                self.network.record_batch_delivery(event, firing.time)
                self._deliver_batch(event.batch)
        elif isinstance(event, TimerEvent):
            event.callback(self, firing.time)
        elif isinstance(event, ArrivalEvent):
            self.last_activity_time = firing.time
            self._handle_arrival(event.operation)
        elif isinstance(event, FaultEvent):
            event.action(self, firing.time)
        elif isinstance(event, ReconfigEvent):
            event.action(self, firing.time)
        else:  # pragma: no cover - future event types
            raise SimulationError(f"unknown event type {type(event).__name__}")
        return True

    def _accepts_epoch(self, message: UpdateMessage) -> bool:
        """Epoch admission control: reject frames from retired configurations.

        The commit flush completes the old epoch before the new one
        installs, so in supported schedules no live frame ever arrives
        stale — this check is the wire contract's safety net (a stale
        frame's metadata indexes a configuration that no longer exists and
        must not reach the predicate).  Rejections are counted, and content
        recovery is the retransmission/resync layers' responsibility.
        """
        if message.epoch == self.epoch:
            return True
        self.network.stats.messages_rejected_stale_epoch += 1
        return False

    def _deliver(self, message: UpdateMessage) -> None:
        if not self._accepts_epoch(message):
            return
        replica = self._replica(message.destination)
        replica.receive(message)
        self._apply_ready(replica)
        self._after_delivery(replica)

    def _deliver_batch(self, batch: "MessageBatch") -> None:
        """Hand a whole batch to its destination, then run one apply pass.

        The vectorized delivery path: one kernel event per batch, one
        :meth:`~repro.core.host.ReplicaHost._apply_batch` call buffering
        every contained message and draining the pending index in a single
        sweep — equivalent to per-message ``receive`` + ``apply_ready`` by
        construction (they share the drain loop).
        """
        accepted = [m for m in batch.messages if self._accepts_epoch(m)]
        if not accepted:
            return
        replica = self._replica(batch.destination)
        self._apply_batch(replica, accepted)
        self._after_delivery(replica)

    def _handle_arrival(self, operation: "Any") -> None:
        self._arrival_backlog.append((self.now, operation))
        if self._servicing_arrivals:
            # Reached from inside another arrival's (blocking) submit; the
            # outer service loop will pick this operation up in order.
            return
        self._servicing_arrivals = True
        try:
            while self._arrival_backlog:
                arrived_at, next_operation = self._arrival_backlog.popleft()
                self.submit_operation(next_operation)
                self.metrics.operation_latencies.append(self.now - arrived_at)
        finally:
            self._servicing_arrivals = False

    def run_until_quiescent(self, max_steps: int = 1_000_000) -> int:
        """Fire scheduled events until none remain; returns events fired.

        Held channels are *not* released automatically; the adversarial
        experiments release them explicitly.  After the queue drains, a
        *cross-replica fixpoint* re-runs every replica's apply loop (and the
        architecture's quiescent hook) until no replica makes progress: one
        replica's apply or serve can unblock another's buffered update, and
        a serve can even emit new messages — in which case the drain loop
        resumes.  Raises :class:`~repro.core.errors.SimulationError` if the
        step budget is exhausted, which would indicate a livelock in the
        protocol under test.
        """
        steps = 0
        while True:
            while self.kernel.has_events():
                if steps >= max_steps:
                    raise SimulationError(
                        f"run_until_quiescent exceeded {max_steps} steps"
                    )
                self.step()
                steps += 1
            self._apply_fixpoint()
            if not self.kernel.has_events():
                return steps

    def _apply_fixpoint(self) -> bool:
        """Apply/serve across all replicas until globally stable."""
        any_progress = False
        progress = True
        while progress:
            progress = False
            for replica in self._replica_map().values():
                if self.replica_down(replica.replica_id):
                    continue
                if self._apply_ready(replica, force=True):
                    progress = True
                if self._quiescent_hook(replica):
                    progress = True
            any_progress = any_progress or progress
        return any_progress

    # ------------------------------------------------------------------
    # Simulator-specific introspection
    # ------------------------------------------------------------------
    def total_metadata_counters_sent(self) -> int:
        """Total counters shipped inside update messages so far."""
        return self.network.stats.metadata_counters_sent
