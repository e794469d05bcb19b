"""Linear-time causal-consistency check for runs on a static share graph.

:class:`repro.core.consistency.ConsistencyChecker` materialises the full
transitive closure of ``↪`` (quadratic in the number of updates) and
rescans it per query, which caps how long a checked run can be.  This
module reaches the same verdict from *per-issuer dependency vectors*:

* An update's causal past, restricted to one issuer ``j``, is a prefix of
  ``j``'s issue sequence, because each issue happens after all of its
  issuer's earlier issues.  So the whole past of ``u`` is one vector
  ``D(u)`` with ``D(u)[j]`` = the highest sequence number of ``j`` that
  happened before ``u``.
* ``D(u)`` is the element-wise maximum over everything the issuer had
  issued or applied before issuing ``u``.  The traces are replayed in any
  order that respects "issued before applied", keeping a running vector
  per replica.
* Safety at replica ``i``: when ``i`` issues or applies ``u``, every update
  ``(j, s)`` with ``s <= D(u)[j]`` on a register stored at ``i`` must
  already be applied there.  Per ``(i, j)`` the check keeps the sequence
  number of the first such update *not yet* applied at ``i``, so the test
  is one comparison per issuer.
* Liveness: at the end every update is applied at every replica storing
  its register.

This is exact for a static share graph, which is all the benchmark runs.
The cost is ``O(R)`` per issue/apply event for ``R`` replicas, instead of a
closure over all updates.  Violations are reported as ``(replica, uid)``
pairs: the issue/apply events that ran ahead of a dependency, and the
updates a replica never applied.  These are the pairs
``ConsistencyChecker`` reports via ``SafetyViolation.replica_id`` /
``.applied`` and ``LivenessViolation.replica_id`` / ``.update``, which is
what the cross-check tests compare.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import ge
from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.protocol import EventKind, ReplicaEvent
from repro.core.share_graph import ShareGraph

UpdateId = Tuple[Any, int]
Flag = Tuple[Any, UpdateId]

_ISSUE = EventKind.ISSUE
_APPLY = EventKind.APPLY


@dataclass
class LinearReport:
    """The verdict of :func:`check_events`."""

    #: ``(replica, uid)`` of every issue/apply that ran ahead of one of its
    #: causal dependencies stored at that replica.
    safety: Set[Flag] = field(default_factory=set)
    #: ``(replica, uid)`` of every update never applied at a replica that
    #: stores its register.
    liveness: Set[Flag] = field(default_factory=set)
    #: Applies that no replay order can place after their issue (an update
    #: applied but never issued, or a cycle); any entry fails the check.
    unordered: List[Flag] = field(default_factory=list)
    checked_events: int = 0
    checked_updates: int = 0

    @property
    def is_safe(self) -> bool:
        return not self.safety and not self.unordered

    @property
    def is_live(self) -> bool:
        return not self.liveness

    @property
    def is_causally_consistent(self) -> bool:
        return self.is_safe and self.is_live

    def summary(self) -> str:
        return (
            f"{self.checked_events} issue/apply events over "
            f"{self.checked_updates} updates: {len(self.safety)} unsafe, "
            f"{len(self.liveness)} missing, {len(self.unordered)} unordered"
        )


def check_events(
    share_graph: ShareGraph,
    events_by_replica: Mapping[Any, Sequence[ReplicaEvent]],
) -> LinearReport:
    """Check one execution's per-replica traces for safety and liveness."""
    report = LinearReport()
    replicas = sorted(set(share_graph.replica_ids) | set(events_by_replica), key=repr)
    index = {rid: k for k, rid in enumerate(replicas)}
    width = len(replicas)
    stored = {
        rid: share_graph.registers_at(rid) if rid in share_graph.placement.replica_ids
        else frozenset()
        for rid in replicas
    }
    traces = {
        rid: [e for e in events if e.update is not None
              and (e.kind is _ISSUE or e.kind is _APPLY)]
        for rid, events in events_by_replica.items()
    }

    # Pass 1: per (issuer, replica) the ascending sequence numbers of the
    # issuer's updates the replica must apply (their register is stored
    # there).  An issuer's trace lists its issues in sequence order, so
    # the sort below only guards against a reordered trace.
    must_apply: Dict[Tuple[Any, Any], List[int]] = {}
    owners: Dict[Any, List[Any]] = {}
    for trace in traces.values():
        for event in trace:
            if event.kind is not _ISSUE:
                continue
            update = event.update
            report.checked_updates += 1
            holders = owners.get(update.register)
            if holders is None:
                holders = owners[update.register] = [
                    rid for rid in replicas if update.register in stored[rid]
                ]
            for rid in holders:
                must_apply.setdefault((update.issuer, rid), []).append(update.seq)
    for seqs in must_apply.values():
        seqs.sort()

    # Per replica i: next_missing[i][j] is the sequence number of issuer j's
    # first update that i must apply but has not (infinity when none).
    sentinel = float("inf")
    cursor: Dict[Tuple[Any, Any], int] = {}
    next_missing: Dict[Any, List[float]] = {}
    applied: Dict[Any, Set[UpdateId]] = {rid: set() for rid in replicas}
    for rid in replicas:
        row = [sentinel] * width
        for issuer in replicas:
            seqs = must_apply.get((issuer, rid))
            if seqs:
                row[index[issuer]] = seqs[0]
                cursor[(issuer, rid)] = 0
        next_missing[rid] = row

    def mark_applied(rid: Any, uid: UpdateId) -> None:
        applied[rid].add(uid)
        issuer, seq = uid
        row = next_missing[rid]
        column = index[issuer]
        if row[column] != seq:
            return
        seqs = must_apply[(issuer, rid)]
        done = applied[rid]
        position = cursor[(issuer, rid)]
        while position < len(seqs) and (issuer, seqs[position]) in done:
            position += 1
        cursor[(issuer, rid)] = position
        row[column] = seqs[position] if position < len(seqs) else sentinel

    # Pass 2: replay the traces.  deps[uid] is the strict dependency vector
    # (the past of ``uid`` without ``uid`` itself).
    deps: Dict[UpdateId, List[int]] = {}
    running = {rid: [0] * width for rid in replicas}
    position = {rid: 0 for rid in traces}
    waiting: Dict[UpdateId, List[Any]] = {}
    ready = deque(traces)
    while ready:
        rid = ready.popleft()
        trace = traces[rid]
        vector = running[rid]
        row = next_missing[rid]
        here = stored[rid]
        k = position[rid]
        while k < len(trace):
            event = trace[k]
            update = event.update
            uid = update.uid
            if event.kind is _ISSUE:
                dep = list(vector)
                deps[uid] = dep
            else:
                dep = deps.get(uid)
                if dep is None:
                    waiting.setdefault(uid, []).append(rid)
                    break
                vector[:] = map(max, vector, dep)
            report.checked_events += 1
            if update.register in here and any(map(ge, dep, row)):
                report.safety.add((rid, uid))
            column = index[uid[0]]
            if vector[column] < uid[1]:
                vector[column] = uid[1]
            mark_applied(rid, uid)
            if event.kind is _ISSUE:
                for woken in waiting.pop(uid, ()):
                    ready.append(woken)
            k += 1
        position[rid] = k
    for rid, trace in traces.items():
        if position[rid] < len(trace):
            report.unordered.append((rid, trace[position[rid]].update.uid))

    for (issuer, rid), seqs in must_apply.items():
        if rid not in traces:
            continue
        done = applied[rid]
        for seq in seqs[cursor[(issuer, rid)]:]:
            if (issuer, seq) not in done:
                report.liveness.add((rid, (issuer, seq)))
    return report


def check_convergence(
    share_graph: ShareGraph,
    final_state: Mapping[Any, Mapping[Any, Any]],
    last_written: Mapping[Any, Any],
) -> List[str]:
    """Single-writer convergence: every replica storing a register holds the
    value of the register's last scheduled write (``None`` if never written).

    ``final_state`` maps register → replica → value.  Returns one message
    per disagreeing register (empty when every register converged).
    """
    problems = []
    for register in sorted(share_graph.placement.registers):
        expected = last_written.get(register)
        values = final_state.get(register, {})
        for rid in share_graph.replicas_storing(register):
            if values.get(rid) != expected:
                problems.append(
                    f"register {register!r} at replica {rid!r}: "
                    f"{values.get(rid)!r} != last write {expected!r}"
                )
                break
    return problems
