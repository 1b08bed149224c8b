"""Process-parallel execution engine: real filters, one process per copy.

Each transparent copy becomes one OS process, so filter compute runs
genuinely in parallel on multicore hosts — the paper's transparent-copy
speedups become measurable instead of GIL-serialised (contrast
:class:`repro.engines.threaded.ThreadedEngine`, which keeps the same
protocol but shares one interpreter).

There is one process runtime: :class:`ProcessEngine` is a *one-shot warm
pool*.  ``run_cycles(uows)`` opens the pool runtime of
:mod:`repro.engines.pool` with one slot per unit of work, submits every
unit, collects the per-cycle metrics and closes the pool before returning;
:class:`~repro.engines.pool.WarmPool` keeps the same runtime open across
queries.  This module holds the per-cycle protocol the runtime's workers
execute, mirroring the threaded engine:

- **copy-set queues** are bounded ``multiprocessing.Queue`` objects shared
  by all copies of a filter on one "host"; end-of-work markers are counted
  once per producer in shared memory and fan out one ``STOP`` per copy;
- **writer policies** (RR / WRR / DD / RATE) run unchanged inside each
  producer process; DD/RATE acknowledgments travel *back* over a per-copy
  control queue (``multiprocessing.SimpleQueue``) and are applied by an
  ack-drain thread inside the producer, which also wakes writers blocked on
  full windows;
- **payloads** cross process boundaries through the shared
  :class:`repro.core.buffer.BufferCodec`: large NumPy arrays ride
  ``multiprocessing.shared_memory`` segments (zero-copy attach on the
  consumer side) under a small pickle header, so scalar blocks, triangle
  soups and z-buffer slabs never serialise through a pipe;
- **observability** feeds the same :class:`~repro.core.tracing.Tracer` /
  :class:`~repro.core.instrument.RunMetrics` layer: every worker records
  events and counters per cycle and ships them to the parent, where they
  merge into one wall-clock trace — ``repro trace`` and
  ``RunMetrics.validate`` work unchanged.

Crash contract: when a worker dies, the surviving copies finish their
in-flight cycles (the runtime announces end-of-work on the dead copy's
behalf and acks-and-releases traffic aimed at copy sets with no live
member), each such cycle fails with the dead copy's "exit code N" error,
and only then does the pool retire its survivors — no shared-memory
segment or process outlives it.  If the survivors stop reporting for the
runtime's recovery limit (10 s), they are terminated and the in-flight
cycles fail the same way.

The engine needs the ``fork`` start method (the default): filter factories
are typically closures over datasets and cameras, which fork inherits for
free.  On platforms without fork construct with ``start_method="spawn"``
and a fully picklable graph, or fall back to the threaded engine.

Payload lifetime contract: an input buffer's arrays are shared-memory views
valid only during ``handle`` (the engine releases the lease when the
callback returns, as DataCutter recycles stream buffers).  Filters that
retain payload data must copy it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.core.buffer import BufferCodec, DataBuffer, EncodedBuffer
from repro.core.filter import Filter, FilterContext
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Target, make_policy_factory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, emit_analysis_events, validate_run_setup
from repro.errors import EngineError

__all__ = ["ProcessEngine"]

#: Queue sentinels; compared by equality because identity does not survive
#: pickling across a process boundary.
_STOP = "__repro_eow_stop__"
_EOW = "__repro_eow_marker__"

#: Envelopes this process has encoded but not yet queued, by ``id``.
_IN_HAND: "dict[int, EncodedBuffer]" = {}


def _release_in_hand_and_die(signum, _frame) -> None:
    """Worker SIGTERM handler: free unqueued envelopes, then die of it.

    A producer terminated while blocked on a full queue or DD window holds
    an encoded envelope no consumer will see; its segments would outlive
    the process.
    """
    for encoded in list(_IN_HAND.values()):
        BufferCodec.release_encoded(encoded)
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


class _SharedCopySetQueue:
    """Bounded cross-process queue for all copies of a filter on one host.

    End-of-work travels *through the data path*: ``mp.Queue.put`` hands the
    item to a feeder thread asynchronously, so an out-of-band announcement
    (a bare shared counter, as the threaded engine uses) could overtake the
    announcing producer's still-in-flight data and lose buffers.  Instead
    each finishing producer enqueues one ``(_EOW, cid)`` marker behind its
    own data (per-producer FIFO holds), consumers count distinct producers
    in shared memory, and the consumer that pulls the final marker — at
    which point every producer's data has necessarily been pulled — fans
    one ``_STOP`` out to each sibling copy and stops itself.
    """

    def __init__(self, mp_ctx, copies: int, expected_eow: int, capacity: int,
                 producers: int):
        self.queue = mp_ctx.Queue(maxsize=capacity)
        self.copies = copies
        self.expected_eow = expected_eow
        self._eow_seen = mp_ctx.Value("i", 0, lock=False)
        self._eow_from = mp_ctx.Array("b", producers, lock=False)  # by cid
        self._lock = mp_ctx.Lock()

    def put(self, item: Any) -> None:
        """Enqueue one item (blocks when the queue is full)."""
        self.queue.put(item)

    def producer_finished(self, cid: int) -> None:
        """Announce producer ``cid``'s end-of-work, behind all its data."""
        self.queue.put((_EOW, cid))

    def on_eow(self, cid: int) -> bool:
        """Count one pulled marker; True when this was the final one.

        A second marker from the same producer (the parent announcing on
        behalf of a crashed copy that had in fact announced) is ignored,
        so it can never stand in for a slower sibling's.
        """
        with self._lock:
            if self._eow_from[cid]:
                return False
            self._eow_from[cid] = 1
            self._eow_seen.value += 1
            return self._eow_seen.value == self.expected_eow

    def finish(self) -> None:
        """Stop the sibling copies (the finisher breaks on its own)."""
        for _ in range(self.copies - 1):
            self.queue.put(_STOP)

    def reset(self) -> None:
        """Rearm the end-of-work counter for a new unit of work.

        Only valid once the previous cycle has fully drained (every copy
        pulled its ``STOP`` or the final marker) — the pool runtime
        recycles each slot's queues this way instead of allocating per
        cycle.
        """
        with self._lock:
            self._eow_seen.value = 0
            self._eow_from[:] = bytes(len(self._eow_from))

    def qsize(self) -> int:
        """Approximate depth, or -1 where the platform cannot tell."""
        try:
            return self.queue.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return -1


def _ack_and_release(item: "_WireEnvelope", ack_queues) -> None:
    """Discard one in-flight envelope: acknowledge it, then free it.

    The single helper behind every abandon path — the parent's sweep of
    dead copy sets and final drain, and the worker's crash drain — so none
    can skip the ``ack_queues[...] is not None`` guard (filters whose
    outputs need no acks have no control queue) or leak the envelope's
    shared-memory segments.  The ack reopens DD/RATE windows so producers blocked on the
    abandoned consumer wake up and finish.
    """
    if item.needs_ack and ack_queues[item.producer] is not None:
        ack_queues[item.producer].put(
            (item.cycle, item.stream, item.target_index, item.sent_at)
        )
    BufferCodec.release_encoded(item.encoded)


def _drain_input_discarding(my_queue: "_SharedCopySetQueue", ack_queues) -> None:
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


class _WireEnvelope:
    """One stream buffer on the wire between two copies."""

    __slots__ = (
        "cycle", "stream", "producer", "target_index", "sent_at",
        "needs_ack", "encoded",
    )

    def __init__(self, cycle, stream, producer, target_index, sent_at,
                 needs_ack, encoded):
        self.cycle = cycle
        self.stream = stream
        self.producer = producer  # global copy id of the sender
        self.target_index = target_index
        self.sent_at = sent_at
        self.needs_ack = needs_ack
        self.encoded = encoded  # repro.core.buffer.EncodedBuffer

    def __getstate__(self):
        return tuple(getattr(self, s) for s in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)


class _Writer:
    """Producer-side router for one (copy, cycle, stream) triple.

    Identical decision logic to the threaded engine's writer; the only
    difference is that acknowledgments arrive via :meth:`deliver_ack`
    called from the owning process's ack-drain thread instead of directly
    from the consumer.
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
        """Encode and route one buffer; blocks while DD windows are full."""
        encoded = self.codec.encode(buffer)
        _IN_HAND[id(encoded)] = encoded
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
                self.clock(), needs_ack, encoded,
            )
            self.copyset_queues[target.index].put(envelope)
        except BaseException:
            # Abandoned mid-send — typically interrupted while blocked on a
            # full DD window.  The segments already exist (encode runs
            # first) and no consumer will ever see the envelope, so the
            # sender must release them or they leak past process exit.
            BufferCodec.release_encoded(encoded)
            raise
        finally:
            _IN_HAND.pop(id(encoded), None)
        return target

    def deliver_ack(self, target_index: int, sent_at: float) -> None:
        """Apply a consumer acknowledgment and wake blocked senders."""
        with self._cond:
            self.policy.on_ack(self.targets[target_index])
            self._cond.notify_all()
        if self.tracer:
            now = self.clock()
            self.tracer.record(now, self.label, "ack", f"{now - sent_at:.9f}")


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


def _fold_cycle(
    metrics: RunMetrics,
    cycle: _CycleReport,
    filter_name: str,
    host: str,
    copy_index: int,
    ack_nbytes: int,
    time_offset: float = 0.0,
) -> "str | None":
    """Fold one copy's cycle report into a :class:`RunMetrics`.

    ``time_offset`` rebases worker timestamps (runtime clock) onto a
    per-query origin so a pooled query's makespan reads as its latency;
    the one-shot ``ProcessEngine.run_cycles`` passes 0 (call-start origin).
    Returns the cycle's error string, if any.
    """
    stats = metrics.new_copy(filter_name, host, copy_index)
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
    return cycle.error


def _execute_cycle(
    *,
    spec,
    host: str,
    copy_index: int,
    copies_on_host: int,
    total: int,
    cid: int,
    k: int,
    uow,
    instance: "Filter | None",
    build_error: "str | None",
    my_queue: _SharedCopySetQueue,
    out_queues: "dict[str, list[_SharedCopySetQueue]]",
    out_hosts: "dict[str, list[str]]",
    policy_for,
    codec: BufferCodec,
    ack_queues,
    tracer: "Tracer | None",
    clock,
    label: str,
    writers_by_cycle: "dict[int, dict[str, _Writer]]",
) -> _CycleReport:
    """Run one unit of work through one copy, inside its worker process.

    The whole cycle protocol lives here — writers, init/handle/flush/
    finalize, end-of-work announcement, crash drain.  ``k`` is the global
    cycle number; ``my_queue``/``out_queues`` are the runtime's slot
    ``k % nslots``.
    """
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
                policy_for(st.name)(),
                out_queues[st.name],
                out_hosts[st.name],
                label=label,
                clock=clock,
                tracer=tracer,
                codec=codec,
                producer_cid=cid,
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
            copy_index=copy_index,
            copies_on_host=copies_on_host,
            total_copies=total,
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
                    ack_queues[wire.producer].put(
                        (wire.cycle, wire.stream, wire.target_index,
                         wire.sent_at)
                    )
                buffer, lease = codec.decode(wire.encoded)
                t0 = time.perf_counter()
                if tracer:
                    tracer.record(clock(), label, "compute", "start")
                try:
                    instance.handle(ctx, buffer)
                finally:
                    # Always, even when handle() raises: the lease holds the
                    # decoded shared-memory segment, and an abandoned one
                    # survives process exit.
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
                q.producer_finished(cid)
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
            _drain_input_discarding(my_queue, ack_queues)
    finally:
        if not announced:
            for st in spec.outputs:
                for q in out_queues[st.name]:
                    try:
                        q.producer_finished(cid)
                    except BaseException:
                        pass
        cycle.finished_at = clock()
    return cycle


class ProcessEngine(Engine):
    """Execute a filter graph with real filters and one process per copy.

    Parameters mirror :class:`repro.engines.threaded.ThreadedEngine`
    (graph, placement, writer policy, queue capacity, ack accounting,
    tracer); additionally:

    ``codec``
        The :class:`~repro.core.buffer.BufferCodec` moving payloads between
        processes (default: shared memory for arrays >= 64 KiB).
    ``start_method``
        ``multiprocessing`` start method; default ``"fork"`` (required for
        closure factories — see the module docstring).
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        policy_overrides: dict[str, str | PolicyFactory] | None = None,
        queue_capacity: int = 8,
        ack_nbytes: int = DEFAULT_ACK_BYTES,
        tracer: "Tracer | None" = None,
        codec: "BufferCodec | None" = None,
        start_method: str | None = None,
        deep_analysis: bool = True,
    ):
        self._default_factory = self._resolve(policy)
        self._stream_factories = {
            name: self._resolve(p) for name, p in (policy_overrides or {}).items()
        }
        self.codec = codec or BufferCodec()
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "process",
            policy_for=self._policy_for, codec=self.codec,
            deep=deep_analysis,
        )
        start_method = start_method or "fork"
        if start_method not in multiprocessing.get_all_start_methods():
            raise EngineError(
                f"start method {start_method!r} unavailable on this platform "
                f"(have {multiprocessing.get_all_start_methods()}); the "
                f"process engine needs fork for closure factories — use the "
                f"threaded engine instead"
            )
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.ack_nbytes = ack_nbytes
        self.tracer = tracer
        self.start_method = start_method

    @staticmethod
    def _resolve(policy: str | PolicyFactory) -> PolicyFactory:
        if callable(policy):
            return policy
        return make_policy_factory(policy)

    def _policy_for(self, stream: str) -> PolicyFactory:
        return self._stream_factories.get(stream, self._default_factory)

    def run(self) -> RunMetrics:
        """Execute one unit of work; blocks until all copies finish."""
        return self.run_cycles([None])[0]

    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Run consecutive units of work through persistent filter copies.

        The work-cycle protocol of ``ThreadedEngine.run_cycles``, with each
        copy a worker process: one filter instance per copy, one
        ``init``/``handle``/``flush``/``finalize`` pass per unit of work,
        cycles pipelining freely.  Runs as a one-shot warm pool — one slot
        per unit of work, every unit submitted at once, the pool closed on
        return — with makespans and trace times measured from the start of
        the call.  Returns one :class:`RunMetrics` per unit of work.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        from repro.engines.pool import _CopyRuntime

        tracer = self.tracer
        if tracer is not None and not tracer.clock:
            tracer.clock = "wall"
        emit_analysis_events(tracer, self._analysis_report, 0.0)
        # The units of work reach the workers through fork, as arguments.
        runtime = _CopyRuntime(self, nslots=len(uows), uows=uows)
        try:
            return runtime.run_batch([None] * len(uows), tracer, rebase=False)
        finally:
            runtime.close()
