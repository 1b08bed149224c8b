"""Threaded execution engine: run real filters locally.

Each transparent copy becomes a Python thread; streams are bounded
``queue.Queue`` objects shared per copy set, exactly mirroring the simulated
engine's structure (shared per-host queue, writer policies, end-of-work
markers, DD acknowledgments).  Placement host names are treated as labels —
all threads run in this process — so the same graph/placement objects drive
both engines.

This engine exists for *correctness* and for the runnable examples (it
renders real images).  Scheduling/throughput conclusions come from the
simulated engine: the GIL serialises NumPy-light Python work and would
distort them (see DESIGN.md).
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable
from typing import Any

from repro.core.buffer import BufferCodec, DataBuffer
from repro.core.filter import Filter, FilterContext
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Target, make_policy_factory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, emit_analysis_events, validate_run_setup
from repro.errors import EngineError

__all__ = ["ThreadedEngine"]

_STOP = object()


class _CopySetQueue:
    """Shared bounded queue for all copies of a filter on one 'host'."""

    def __init__(self, copies: int, expected_eow: int, capacity: int):
        self.queue: queue.Queue = queue.Queue(maxsize=capacity)
        self.copies = copies
        self.expected_eow = expected_eow
        self._eow_seen = 0
        self._lock = threading.Lock()

    def put(self, item: Any) -> None:
        """Enqueue one item (blocks when the queue is full)."""
        self.queue.put(item)

    def producer_finished(self) -> None:
        """Count one upstream end-of-work marker; close when all arrived."""
        with self._lock:
            self._eow_seen += 1
            if self._eow_seen > self.expected_eow:
                raise EngineError("more EOW markers than producers")
            if self._eow_seen == self.expected_eow:
                for _ in range(self.copies):
                    self.queue.put(_STOP)


class _Writer:
    """Thread-safe producer-side router for one (copy, stream) pair."""

    def __init__(
        self,
        host: str,
        policy,
        copysets: list[_CopySetQueue],
        hosts: list[str],
        label: str = "",
        clock: "Callable[[], float] | None" = None,
        tracer: "Tracer | None" = None,
    ):
        self.policy = policy
        self.copysets = copysets
        self.label = label or host
        self.clock = clock or time.monotonic
        self.tracer = tracer
        targets = [
            Target(i, h, cs.copies, local=(h == host))
            for i, (h, cs) in enumerate(zip(hosts, copysets))
        ]
        policy.bind(targets)
        self._cond = threading.Condition()

    def send(self, envelope: "_Envelope") -> Target:
        """Route one envelope via the policy; blocks while windows are full."""
        with self._cond:
            target = self.policy.route(envelope.tags)
            if target is None:
                # All windows full: the writer stalls until an ack returns.
                if self.tracer:
                    self.tracer.record(self.clock(), self.label, "blocked", "start")
                while target is None:
                    self._cond.wait()
                    target = self.policy.route(envelope.tags)
                if self.tracer:
                    self.tracer.record(self.clock(), self.label, "blocked", "end")
            self.policy.on_sent(target)
        envelope.writer = self if self.policy.needs_ack else None
        envelope.target = target if self.policy.needs_ack else None
        envelope.sent_at = self.clock()
        self.copysets[target.index].put(envelope)
        return target

    def deliver_ack(self, envelope: "_Envelope") -> None:
        """Apply a consumer acknowledgment and wake blocked senders."""
        with self._cond:
            self.policy.on_ack(envelope.target)
            self._cond.notify_all()
        if self.tracer:
            # Round-trip latency: producer send to ack delivery.
            now = self.clock()
            self.tracer.record(
                now, self.label, "ack", f"{now - envelope.sent_at:.9f}"
            )


class _Envelope:
    __slots__ = (
        "buffer", "encoded", "stream", "tags", "writer", "target", "sent_at",
    )

    def __init__(self, buffer: DataBuffer, stream: str):
        self.buffer = buffer
        self.encoded = None  # EncodedBuffer when the engine runs a codec
        self.stream = stream
        # Kept separately: write_fn may null .buffer after codec encode,
        # but content-routed policies still need the tags at send time.
        self.tags = buffer.tags
        self.writer: _Writer | None = None
        self.target: Target | None = None
        self.sent_at = 0.0


class ThreadedEngine(Engine):
    """Execute a filter graph with real filters and one thread per copy.

    Parameters mirror :class:`repro.engines.simulated.SimulatedEngine`;
    every filter needs a ``factory`` building a
    :class:`repro.core.filter.Filter`.  Source filters (no input streams)
    receive no ``handle`` calls; they generate all their output from
    ``flush`` via ``ctx.write``.

    ``ack_nbytes`` is the nominal wire size of one DD acknowledgment
    (``RunMetrics.ack_bytes`` accounting, matching the simulated engine);
    ``tracer`` is an optional :class:`repro.core.tracing.Tracer` that
    records the unified event schema (recv / compute / send / ack / flush /
    done / blocked) with wall-clock timestamps relative to run start.

    ``codec`` optionally routes every stream buffer through a
    :class:`repro.core.buffer.BufferCodec` encode/decode round trip — the
    same wire format the process engine uses.  Threads share an address
    space so this is pure overhead in production, but it proves a pipeline
    is codec-clean (all payloads serialisable) before moving it to
    :class:`repro.engines.process.ProcessEngine`.
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
        deep_analysis: bool = True,
    ):
        self._default_factory = self._resolve(policy)
        self._stream_factories = {
            name: self._resolve(p) for name, p in (policy_overrides or {}).items()
        }
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "threaded",
            policy_for=self._policy_for, codec=codec, deep=deep_analysis,
        )
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.ack_nbytes = ack_nbytes
        self.tracer = tracer
        self.codec = codec

    @staticmethod
    def _resolve(policy: str | PolicyFactory) -> PolicyFactory:
        if callable(policy):
            return policy
        return make_policy_factory(policy)

    def _policy_for(self, stream: str) -> PolicyFactory:
        return self._stream_factories.get(stream, self._default_factory)

    def run(self) -> RunMetrics:
        """Execute one unit of work; blocks until all copies finish.

        Equivalent to ``run_cycles([None])[0]`` — a single work cycle with
        no unit-of-work descriptor.
        """
        return self.run_cycles([None])[0]

    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Run consecutive units of work through *persistent* filter copies.

        This is the paper's work-cycle protocol (Section 2): each filter
        copy is instantiated once, then for every unit of work the service
        calls ``init`` -> ``handle``/``flush`` -> ``finalize`` on the same
        instance.  ``uows`` supplies one descriptor per cycle, visible to
        filters as ``ctx.uow`` (e.g. ``{"timestep": 3}`` or a camera).
        Cycles pipeline: a producer may start cycle k+1 while a downstream
        copy still drains cycle k.

        Returns one :class:`RunMetrics` per unit of work; each makespan is
        the wall time from launch until that cycle's last copy finished.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        ncycles = len(uows)
        metrics_list = [RunMetrics() for _ in uows]
        for metrics in metrics_list:
            metrics.ack_nbytes = self.ack_nbytes
        t_start = time.perf_counter()
        # All timestamps (trace events, per-copy finished_at, makespan) are
        # wall-clock seconds relative to run start, so they are directly
        # comparable to the simulated engine's run-relative sim clock.
        clock = lambda: time.perf_counter() - t_start  # noqa: E731
        tracer = self.tracer
        if tracer is not None and not tracer.clock:
            tracer.clock = "wall"
        emit_analysis_events(tracer, self._analysis_report, 0.0)

        # Per-cycle queues, pre-created so cycles pipeline without barriers.
        copysets: dict[str, list[list[_CopySetQueue]]] = {}
        copyset_hosts: dict[str, list[str]] = {}
        for name, spec in self.graph.filters.items():
            expected = sum(
                self.placement.total_copies(s.src) for s in spec.inputs
            )
            sets, hosts = [], []
            for cs in self.placement.copysets(name):
                sets.append(
                    [
                        _CopySetQueue(cs.copies, expected, self.queue_capacity)
                        for _ in range(ncycles)
                    ]
                )
                hosts.append(cs.host)
            copysets[name] = sets
            copyset_hosts[name] = hosts

        # Per-cycle completion bookkeeping.
        total_copies_all = sum(
            self.placement.total_copies(name) for name in self.graph.filters
        )
        remaining = [total_copies_all] * ncycles
        finish_lock = threading.Lock()
        finished_at = [0.0] * ncycles

        threads: list[threading.Thread] = []
        errors: list[BaseException] = []
        results_lock = threading.Lock()

        def copy_cycles(spec, host, copy_index, copies_on_host, total, set_idx):
            # A failure in one cycle is recorded and the remaining cycles
            # still announce end-of-work, so downstream copies never block
            # on a producer that died (run_cycles re-raises afterwards).
            try:
                instance: Filter = spec.factory()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                instance = None
            label = f"{spec.name}@{host}#{copy_index}"
            for k, uow in enumerate(uows):
                metrics = metrics_list[k]
                announced = False
                stats = None
                try:
                    if instance is None:
                        raise EngineError(f"filter {spec.name!r} failed to build")
                    writers = {
                        st.name: _Writer(
                            host,
                            self._policy_for(st.name)(),
                            [sets[k] for sets in copysets[st.dst]],
                            copyset_hosts[st.dst],
                            label=label,
                            clock=clock,
                            tracer=tracer,
                        )
                        for st in spec.outputs
                    }
                    with results_lock:
                        stats = metrics.new_copy(spec.name, host, copy_index)

                    def write_fn(stream, buffer, _w=None):
                        envelope = _Envelope(buffer, stream)
                        if self.codec is not None:
                            envelope.encoded = self.codec.encode(buffer)
                            envelope.buffer = None
                        target = writers[stream].send(envelope)
                        stats.buffers_out += 1
                        with results_lock:
                            metrics.streams[stream].record(
                                host, target.host, buffer.nbytes
                            )
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
                    my_queue = copysets[spec.name][set_idx][k]
                    if spec.inputs:
                        while True:
                            item = my_queue.queue.get()
                            if item is _STOP:
                                break
                            envelope: _Envelope = item
                            stats.buffers_in += 1
                            if tracer:
                                tracer.record(clock(), label, "recv", envelope.stream)
                                tracer.sample_queue(
                                    clock(),
                                    f"{spec.name}@{host}",
                                    my_queue.queue.qsize(),
                                )
                            if envelope.writer is not None:
                                with results_lock:
                                    metrics.ack_messages += 1
                                    metrics.ack_bytes += self.ack_nbytes
                                envelope.writer.deliver_ack(envelope)
                            if envelope.encoded is not None:
                                payload, lease = self.codec.decode(envelope.encoded)
                            else:
                                payload, lease = envelope.buffer, None
                            t0 = time.perf_counter()
                            if tracer:
                                tracer.record(clock(), label, "compute", "start")
                            try:
                                instance.handle(ctx, payload)
                            finally:
                                # Even when handle() raises: the lease holds
                                # the decoded shared-memory segment.
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
                    stats.busy_time = busy
                    instance.finalize(ctx)
                    for st in spec.outputs:
                        for sets in copysets[st.dst]:
                            sets[k].producer_finished()
                    announced = True
                    if not spec.outputs:
                        value = getattr(instance, "result", lambda: None)()
                        if value is not None:
                            with results_lock:
                                if metrics.result is None:
                                    metrics.result = value
                                elif isinstance(metrics.result, list):
                                    metrics.result.append(value)
                                else:
                                    metrics.result = [metrics.result, value]
                    if tracer:
                        tracer.record(clock(), label, "done", f"cycle={k}")
                except BaseException as exc:  # noqa: BLE001 - surfaced later
                    errors.append(exc)
                    # Drain this cycle's queue up to our stop marker so
                    # upstream puts never block on a dead consumer (every
                    # producer eventually announces end-of-work, even when
                    # it failed, so the marker is guaranteed to arrive).
                    if spec.inputs:
                        my_queue = copysets[spec.name][set_idx][k]
                        while True:
                            item = my_queue.queue.get()
                            if item is _STOP:
                                break
                            # Acknowledge discarded buffers so DD windows
                            # upstream keep moving.
                            if item.writer is not None:
                                item.writer.deliver_ack(item)
                            if item.encoded is not None:
                                BufferCodec.release_encoded(item.encoded)
                finally:
                    if not announced:
                        for st in spec.outputs:
                            for sets in copysets[st.dst]:
                                try:
                                    sets[k].producer_finished()
                                except BaseException:
                                    pass
                    if stats is not None:
                        # Cycle-relative finish time, on the same clock as
                        # makespan (wall seconds since run start).
                        stats.finished_at = clock()
                    with finish_lock:
                        remaining[k] -= 1
                        if remaining[k] == 0:
                            finished_at[k] = clock()

        for name, spec in self.graph.filters.items():
            total = self.placement.total_copies(name)
            for set_idx, cs in enumerate(self.placement.copysets(name)):
                for copy_index in range(cs.copies):
                    thread = threading.Thread(
                        target=copy_cycles,
                        args=(spec, cs.host, copy_index, cs.copies, total, set_idx),
                        name=f"{name}@{cs.host}#{copy_index}*",
                        daemon=True,
                    )
                    threads.append(thread)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for k, metrics in enumerate(metrics_list):
            metrics.makespan = finished_at[k]
        if errors:
            # Healthy cycles finished and folded their stats; ship the
            # partial per-cycle metrics with every error (same contract as
            # the process engine) instead of discarding the batch.
            raise EngineError(
                f"filter copy failed: {errors[0]!r}",
                metrics=metrics_list,
                errors=[f"{type(e).__name__}: {e}" for e in errors],
            ) from errors[0]
        return metrics_list
