"""The per-copy work-cycle protocol every real engine runs.

In the paper every transparent filter copy runs one protocol, whatever
carries its buffers: per unit of work ``init`` -> ``handle``/``flush`` ->
``finalize``, copy-set queues shared by the copies of a filter on one host,
end-of-work (EOW) markers and demand-driven (DD) acknowledgments.  This
module is that protocol, once.  :class:`~repro.engines.threaded.ThreadedEngine`
(one thread per copy) and the process copy runtime of
:mod:`repro.engines.pool` (one process per copy, behind ``ProcessEngine``
and ``WarmPool``) both run :func:`_execute_cycle` over a small transport
port:

- **queues**: a :class:`_CopySetQueue` takes its bounded queue, lock and
  per-producer EOW flags from a ``multiprocessing`` context, or from the
  threaded engine's ``queue``/``threading`` stand-in with the same calls;
- **acks**: a consumer acknowledges with ``ack_queues[producer].put(msg)``.
  Between processes that is a ``SimpleQueue`` drained by a thread in the
  producer; between threads it calls :func:`_apply_ack` on the producer's
  writers directly.  Both end in :func:`_apply_ack`;
- **codec**: with a :class:`~repro.core.buffer.BufferCodec` payloads cross
  as encoded envelopes (shared-memory segments under a pickle header); with
  ``codec=None`` the :class:`~repro.core.buffer.DataBuffer` itself travels
  by reference — no encode, no copy.

End-of-work travels in band: each finishing producer enqueues one
``(_EOW, cid)`` marker behind its own data, so per-producer FIFO order
guarantees the consumer that pulls the final marker has seen every buffer.
A copy that fails keeps taking part in the close protocol (it still
announces end-of-work and drains its input, acking and releasing), so one
failed cycle never blocks its neighbours.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.buffer import BufferCodec, DataBuffer, EncodedBuffer
from repro.core.filter import Filter, FilterContext
from repro.core.instrument import RunMetrics
from repro.core.policies import Target
from repro.core.tracing import Tracer
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.graph import FilterGraph, FilterSpec
    from repro.core.placement import Placement

#: Queue sentinels; compared by equality because identity does not survive
#: pickling across a process boundary.
_STOP = "__repro_eow_stop__"
_EOW = "__repro_eow_marker__"

#: Envelopes this process has encoded but not yet queued, by ``id``.
_IN_HAND: "dict[int, EncodedBuffer]" = {}


class _Copy(NamedTuple):
    """One transparent copy of a run, globally numbered by ``cid``."""

    cid: int
    spec: "FilterSpec"
    host: str
    copy_index: int
    copies_on_host: int
    total: int  # copies of the filter over all hosts
    set_idx: int  # which of the filter's copy sets it belongs to

    @property
    def label(self) -> str:
        return f"{self.spec.name}@{self.host}#{self.copy_index}"


def _copy_plan(graph: "FilterGraph", placement: "Placement") -> list[_Copy]:
    """Every copy of a placed graph, in copy-id order."""
    plan: list[_Copy] = []
    for name, spec in graph.filters.items():
        total = placement.total_copies(name)
        for set_idx, cs in enumerate(placement.copysets(name)):
            for copy_index in range(cs.copies):
                plan.append(
                    _Copy(len(plan), spec, cs.host, copy_index, cs.copies,
                          total, set_idx)
                )
    return plan


class _CopySetQueue:
    """Bounded queue for all copies of a filter on one host, for one slot.

    End-of-work travels *through the data path*: ``mp.Queue.put`` hands the
    item to a feeder thread asynchronously, so an out-of-band announcement
    could overtake the announcing producer's still-in-flight data and lose
    buffers.  Instead each finishing producer enqueues one ``(_EOW, cid)``
    marker behind its own data, consumers flag distinct producers in a
    shared byte array, and the consumer that pulls the final marker — at
    which point every producer's data has necessarily been pulled — fans
    one ``_STOP`` out to each sibling copy and stops itself.

    ``ctx`` supplies ``Queue``, ``Array`` and ``Lock``: a
    ``multiprocessing`` context, or the threaded engine's stand-in.
    """

    def __init__(self, ctx, copies: int, expected_eow: int, capacity: int,
                 producers: int):
        self.queue = ctx.Queue(maxsize=capacity)
        self.copies = copies
        self.expected_eow = expected_eow
        self._eow_from = ctx.Array("b", producers, lock=False)  # by cid
        self._lock = ctx.Lock()

    def put(self, item: Any) -> None:
        """Enqueue one item (blocks when the queue is full)."""
        self.queue.put(item)

    def producer_finished(self, cid: int) -> None:
        """Announce producer ``cid``'s end-of-work, behind all its data."""
        self.queue.put((_EOW, cid))

    def on_eow(self, cid: int) -> bool:
        """Count one pulled marker; True when this was the final one.

        A second marker from the same producer (the process runtime
        announcing on behalf of a crashed copy that had in fact announced)
        is ignored, so it can never stand in for a slower sibling's.
        """
        with self._lock:
            if self._eow_from[cid]:
                return False
            self._eow_from[cid] = 1
            return sum(self._eow_from) == self.expected_eow

    def finish(self) -> None:
        """Stop the sibling copies (the finisher breaks on its own)."""
        for _ in range(self.copies - 1):
            self.queue.put(_STOP)

    def reset(self) -> None:
        """Rearm the end-of-work flags for a new unit of work.

        Only valid once the previous cycle has fully drained (every copy
        pulled its ``STOP`` or the final marker) — the pool runtime
        recycles each slot's queues this way instead of allocating per
        cycle.
        """
        with self._lock:
            self._eow_from[:] = bytes(len(self._eow_from))

    def qsize(self) -> int:
        """Approximate depth, or -1 where the platform cannot tell."""
        try:
            return self.queue.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return -1


@dataclass(frozen=True)
class _Wiring:
    """What every copy of one run shares: its queues, acks and codec."""

    #: filter -> copy set -> slot -> queue
    copysets: "dict[str, list[list[_CopySetQueue]]]"
    copyset_hosts: "dict[str, list[str]]"  # filter -> host of each copy set
    ack_queues: list  # by producer cid: anything with put(msg), or None
    policy_for: Callable
    codec: "BufferCodec | None"


def _build_copysets(
    ctx, graph: "FilterGraph", placement: "Placement", nslots: int,
    capacity: int, producers: int,
) -> "tuple[dict[str, list[list[_CopySetQueue]]], dict[str, list[str]]]":
    """One copy-set queue per (filter, host, slot), and each set's host."""
    copysets: dict[str, list[list[_CopySetQueue]]] = {}
    hosts: dict[str, list[str]] = {}
    for name, spec in graph.filters.items():
        # A producer sends one marker per stream into this filter, each
        # behind all its data, so only its first counts: one per producer.
        expected = sum(
            placement.total_copies(src) for src in {s.src for s in spec.inputs}
        )
        sets = placement.copysets(name)
        copysets[name] = [
            [
                _CopySetQueue(ctx, cs.copies, expected, capacity, producers)
                for _ in range(nslots)
            ]
            for cs in sets
        ]
        hosts[name] = [cs.host for cs in sets]
    return copysets, hosts


class _WireEnvelope:
    """One stream buffer on the wire between two copies."""

    __slots__ = (
        "cycle", "stream", "producer", "target_index", "sent_at",
        "needs_ack", "payload",
    )

    def __init__(self, cycle, stream, producer, target_index, sent_at,
                 needs_ack, payload):
        self.cycle = cycle
        self.stream = stream
        self.producer = producer  # global copy id of the sender
        self.target_index = target_index
        self.sent_at = sent_at
        self.needs_ack = needs_ack
        self.payload = payload  # EncodedBuffer, or the DataBuffer (no codec)

    def __getstate__(self):
        return tuple(getattr(self, s) for s in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)


def _release(payload: Any) -> None:
    """Free an undelivered payload's shared memory (none by reference)."""
    if isinstance(payload, EncodedBuffer):
        BufferCodec.release_encoded(payload)


def _ack_and_release(item: _WireEnvelope, ack_queues) -> None:
    """Discard one in-flight envelope: acknowledge it, then free it.

    The single helper behind every abandon path — the process runtime's
    sweep of dead copy sets, and every copy's crash drain — so none can
    skip the ``ack_queues[...] is not None`` guard (filters whose outputs
    need no acks have no ack queue) or leak the envelope's shared-memory
    segments.  The ack reopens DD/RATE windows so producers blocked on the
    abandoned consumer wake up and finish.
    """
    if item.needs_ack and ack_queues[item.producer] is not None:
        ack_queues[item.producer].put(
            (item.cycle, item.stream, item.target_index, item.sent_at)
        )
    _release(item.payload)


def _drain_input_discarding(my_queue: _CopySetQueue, ack_queues) -> None:
    """Crash-path consumer loop: keep the close protocol alive, discard data.

    Every data item is acked-and-released through :func:`_ack_and_release`;
    markers are still counted (and the final one fanned out) so sibling
    copies and upstream producers never block on the failed copy.
    """
    while True:
        item_in = my_queue.queue.get()
        if item_in == _STOP:
            return
        if type(item_in) is tuple:  # (_EOW, cid)
            if my_queue.on_eow(item_in[1]):
                my_queue.finish()
                return
            continue
        _ack_and_release(item_in, ack_queues)


class _Writer:
    """Producer-side router for one (copy, cycle, stream) triple.

    Acknowledgments arrive through :func:`_apply_ack`, from whichever
    thread the transport delivers them on.
    """

    def __init__(self, host, policy, copyset_queues, hosts, label, clock,
                 tracer, codec, producer_cid, cycle, stream):
        self.policy = policy
        self.copyset_queues = copyset_queues
        self.label = label
        self.clock = clock
        self.tracer = tracer
        self.codec = codec
        self.producer_cid = producer_cid
        self.cycle = cycle
        self.stream = stream
        self.targets = [
            Target(i, h, q.copies, local=(h == host))
            for i, (h, q) in enumerate(zip(hosts, copyset_queues))
        ]
        policy.bind(self.targets)
        self._cond = threading.Condition()

    def send(self, buffer: DataBuffer) -> Target:
        """Route one buffer (encoded first under a codec); blocks while DD
        windows are full."""
        if self.codec is None:
            payload: Any = buffer
        else:
            payload = self.codec.encode(buffer)
            _IN_HAND[id(payload)] = payload
        try:
            with self._cond:
                target = self.policy.route(buffer.tags)
                if target is None:
                    if self.tracer:
                        self.tracer.record(
                            self.clock(), self.label, "blocked", "start"
                        )
                    while target is None:
                        self._cond.wait()
                        target = self.policy.route(buffer.tags)
                    if self.tracer:
                        self.tracer.record(
                            self.clock(), self.label, "blocked", "end"
                        )
                self.policy.on_sent(target)
            needs_ack = self.policy.needs_ack
            envelope = _WireEnvelope(
                self.cycle, self.stream, self.producer_cid,
                target.index if needs_ack else -1,
                self.clock(), needs_ack, payload,
            )
            self.copyset_queues[target.index].put(envelope)
        except BaseException:
            # Abandoned mid-send — typically interrupted while blocked on a
            # full DD window.  The segments already exist (encode runs
            # first) and no consumer will ever see the envelope, so the
            # sender must release them or they leak past process exit.
            _release(payload)
            raise
        finally:
            _IN_HAND.pop(id(payload), None)
        return target

    def deliver_ack(self, target_index: int, sent_at: float) -> None:
        """Apply a consumer acknowledgment and wake blocked senders."""
        with self._cond:
            self.policy.on_ack(self.targets[target_index])
            self._cond.notify_all()
        if self.tracer:
            now = self.clock()
            self.tracer.record(now, self.label, "ack", f"{now - sent_at:.9f}")


def _apply_ack(writers_by_cycle: "dict[int, dict[str, _Writer]]", msg) -> None:
    """Apply one ``(cycle, stream, target_index, sent_at)`` ack.

    ``writers_by_cycle`` is the producer copy's; an ack for a cycle whose
    writers are gone (a recycled pool slot) is dropped harmlessly.
    """
    k, stream, target_index, sent_at = msg
    writer = writers_by_cycle.get(k, {}).get(stream)
    if writer is not None:
        writer.deliver_ack(target_index, sent_at)


@dataclass
class _CycleReport:
    """One copy's measurements for one unit of work."""

    buffers_in: int = 0
    buffers_out: int = 0
    busy_time: float = 0.0
    finished_at: float = 0.0
    #: (stream, src_host, dst_host) -> [buffers, bytes]
    stream_records: dict = field(default_factory=dict)
    ack_messages: int = 0
    result: Any = None
    has_result: bool = False
    error: str | None = None


def _build_filter(spec: "FilterSpec") -> "tuple[Filter | None, str | None]":
    """Build one copy's filter instance, or say why it failed."""
    try:
        return spec.factory(), None
    except BaseException as exc:  # noqa: BLE001 - reported per cycle
        return None, f"filter {spec.name!r} failed to build: {exc!r}"


def _execute_cycle(
    *,
    copy: _Copy,
    k: int,
    slot: int,
    uow: Any,
    instance: "Filter | None",
    build_error: "str | None",
    wiring: _Wiring,
    tracer: "Tracer | None",
    clock: "Callable[[], float]",
    writers_by_cycle: "dict[int, dict[str, _Writer]]",
) -> _CycleReport:
    """Run one unit of work through one copy.

    The whole cycle protocol lives here — writers, init/handle/flush/
    finalize, end-of-work announcement, crash drain.  ``k`` is the global
    cycle number and ``slot`` the copy-set queues it runs in.
    """
    spec, host, label = copy.spec, copy.host, copy.label
    codec, copysets = wiring.codec, wiring.copysets
    my_queue = copysets[spec.name][copy.set_idx][slot]
    out_queues = {
        st.name: [sets[slot] for sets in copysets[st.dst]]
        for st in spec.outputs
    }
    cycle = _CycleReport()
    announced = False
    input_done = False
    try:
        if instance is None:
            raise EngineError(
                build_error or f"filter {spec.name!r} failed to build"
            )
        writers = {
            st.name: _Writer(
                host,
                wiring.policy_for(st.name)(),
                out_queues[st.name],
                wiring.copyset_hosts[st.dst],
                label=label,
                clock=clock,
                tracer=tracer,
                codec=codec,
                producer_cid=copy.cid,
                cycle=k,
                stream=st.name,
            )
            for st in spec.outputs
        }
        writers_by_cycle[k] = writers

        def write_fn(stream, buffer, _w=writers, _c=cycle):
            target = _w[stream].send(buffer)
            _c.buffers_out += 1
            key = (stream, host, target.host)
            entry = _c.stream_records.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += buffer.nbytes
            if tracer:
                tracer.record(
                    clock(), label, "send", f"{stream}->{target.host}"
                )

        ctx = FilterContext(
            filter_name=spec.name,
            host=host,
            copy_index=copy.copy_index,
            copies_on_host=copy.copies_on_host,
            total_copies=copy.total,
            output_streams=[st.name for st in spec.outputs],
            write_fn=write_fn,
            uow=uow,
        )
        instance.init(ctx)
        busy = 0.0
        if spec.inputs:
            while True:
                item_in = my_queue.queue.get()
                if item_in == _STOP:
                    input_done = True
                    break
                if type(item_in) is tuple:  # (_EOW, cid)
                    if my_queue.on_eow(item_in[1]):
                        my_queue.finish()
                        input_done = True
                        break
                    continue
                wire: _WireEnvelope = item_in
                cycle.buffers_in += 1
                if tracer:
                    tracer.record(clock(), label, "recv", wire.stream)
                    depth = my_queue.qsize()
                    if depth >= 0:
                        tracer.sample_queue(
                            clock(), f"{spec.name}@{host}", depth
                        )
                if wire.needs_ack:
                    cycle.ack_messages += 1
                    wiring.ack_queues[wire.producer].put(
                        (wire.cycle, wire.stream, wire.target_index,
                         wire.sent_at)
                    )
                if codec is None:
                    buffer, lease = wire.payload, None
                else:
                    buffer, lease = codec.decode(wire.payload)
                t0 = time.perf_counter()
                if tracer:
                    tracer.record(clock(), label, "compute", "start")
                try:
                    instance.handle(ctx, buffer)
                finally:
                    # Always, even when handle() raises: the lease holds the
                    # decoded shared-memory segment, and an abandoned one
                    # survives process exit.
                    if lease is not None:
                        lease.release()
                busy += time.perf_counter() - t0
                if tracer:
                    tracer.record(clock(), label, "compute", "end")
        t0 = time.perf_counter()
        if tracer:
            tracer.record(clock(), label, "flush", "start")
        instance.flush(ctx)
        busy += time.perf_counter() - t0
        if tracer:
            tracer.record(clock(), label, "flush", "end")
        cycle.busy_time = busy
        instance.finalize(ctx)
        for st in spec.outputs:
            for q in out_queues[st.name]:
                q.producer_finished(copy.cid)
        announced = True
        if not spec.outputs:
            value = getattr(instance, "result", lambda: None)()
            if value is not None:
                cycle.result = value
                cycle.has_result = True
        if tracer:
            tracer.record(clock(), label, "done", f"cycle={k}")
    except BaseException:  # noqa: BLE001 - surfaced via the report
        cycle.error = f"{label} cycle {k}: {traceback.format_exc()}"
        # Keep participating in the close protocol so upstream puts never
        # block on a dead consumer.  Skipped if our part of the stream
        # already closed (error after the loop).
        if spec.inputs and not input_done:
            _drain_input_discarding(my_queue, wiring.ack_queues)
    finally:
        if not announced:
            for st in spec.outputs:
                for q in out_queues[st.name]:
                    try:
                        q.producer_finished(copy.cid)
                    except BaseException:
                        pass
        cycle.finished_at = clock()
    return cycle


def _fold_reports(
    reports: "Iterable[tuple[int, _CycleReport]]",
    plan: "list[_Copy]",
    ack_nbytes: int,
    time_offset: float = 0.0,
) -> "tuple[RunMetrics, list[str]]":
    """Fold one cycle's ``(cid, report)`` pairs into its metrics and errors.

    Copies fold in copy-id order whatever order they reported in, so
    ``RunMetrics.copies`` and multi-sink result lists read the same on
    every engine.  ``time_offset`` rebases report times onto the cycle's
    origin: a pooled query's makespan then reads as its latency.
    """
    metrics = RunMetrics()
    metrics.ack_nbytes = ack_nbytes
    errors: list[str] = []
    for cid, cycle in sorted(reports, key=lambda r: r[0]):
        copy = plan[cid]
        stats = metrics.new_copy(copy.spec.name, copy.host, copy.copy_index)
        stats.buffers_in = cycle.buffers_in
        stats.buffers_out = cycle.buffers_out
        stats.busy_time = cycle.busy_time
        stats.finished_at = cycle.finished_at - time_offset
        for (stream, src, dst), (count, nbytes) in sorted(
            cycle.stream_records.items()
        ):
            ss = metrics.streams[stream]
            ss.buffers += count
            ss.bytes += nbytes
            ss.by_route[(src, dst)] = ss.by_route.get((src, dst), 0) + count
            ss.by_dst_host[dst] = ss.by_dst_host.get(dst, 0) + count
        metrics.ack_messages += cycle.ack_messages
        metrics.ack_bytes += cycle.ack_messages * ack_nbytes
        if cycle.has_result:
            if metrics.result is None:
                metrics.result = cycle.result
            elif isinstance(metrics.result, list):
                metrics.result.append(cycle.result)
            else:
                metrics.result = [metrics.result, cycle.result]
        if cycle.error:
            errors.append(cycle.error)
    metrics.makespan = max(
        (c.finished_at for c in metrics.copies), default=0.0
    )
    return metrics, errors


def _copy_failure(metrics: list, errors: list[str]) -> EngineError:
    """The one error a failed run raises: every unit's metrics (partial
    for a failed cycle, ``None`` for one that never ran) and every error."""
    return EngineError(
        f"filter copy failed: {errors[0]}", metrics=metrics, errors=errors
    )
