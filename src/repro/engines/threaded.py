"""Threaded execution engine: run real filters locally.

The thread transport of the one copy protocol: each transparent copy is a
Python thread running :func:`repro.engines.copy._execute_cycle` — the same
per-cycle function the process runtime's workers run — over copy-set
queues backed by ``queue``/``threading``, with DD acknowledgments applied
directly to the producer's writers and, without a codec, buffers passed by
reference.  Placement host names are treated as labels — all threads run
in this process — so the same graph/placement objects drive every engine.

This engine exists for *correctness* and for the runnable examples (it
renders real images).  Scheduling/throughput conclusions come from the
simulated engine: the GIL serialises NumPy-light Python work and would
distort them (see DESIGN.md).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any

from repro.core.buffer import BufferCodec
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, validate_run_setup
from repro.engines.copy import (
    _apply_ack,
    _build_copysets,
    _build_filter,
    _Copy,
    _copy_failure,
    _copy_plan,
    _execute_cycle,
    _fold_reports,
    _Wiring,
)
from repro.errors import EngineError

__all__ = ["ThreadedEngine"]


class _Threads:
    """The part of a ``multiprocessing`` context copy-set queues use, for
    copies that share one process."""

    Lock = staticmethod(threading.Lock)

    @staticmethod
    def Queue(maxsize: int) -> queue.Queue:
        return queue.Queue(maxsize)

    @staticmethod
    def Array(_typecode: str, size: int, lock: bool = False) -> bytearray:
        return bytearray(size)


class _DirectAcks:
    """A producer's ack queue between threads: ``put`` applies the ack."""

    __slots__ = ("writers_by_cycle",)

    def __init__(self, writers_by_cycle: dict):
        self.writers_by_cycle = writers_by_cycle

    def put(self, msg) -> None:
        _apply_ack(self.writers_by_cycle, msg)


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
    :class:`repro.engines.process.ProcessEngine`.  Without a codec buffers
    travel by reference.
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
        self._init_policies(policy, policy_overrides)
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
        copy still drains cycle k (each cycle has its own queues).

        Returns one :class:`RunMetrics` per unit of work; each makespan is
        the wall time from launch until that cycle's last copy finished.
        A failure raises one ``EngineError`` carrying every cycle's
        metrics and every copy's error, as the process engine does.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        tracer = self._start_wall_trace(self.tracer)
        plan = _copy_plan(self.graph, self.placement)
        copysets, copyset_hosts = _build_copysets(
            _Threads, self.graph, self.placement, len(uows),
            self.queue_capacity, len(plan),
        )
        writers: list[dict] = [{} for _ in plan]  # by cid: cycle -> stream
        wiring = _Wiring(
            copysets, copyset_hosts, [_DirectAcks(w) for w in writers],
            self._policy_for, self.codec,
        )
        reports: list[list] = [[] for _ in uows]  # per cycle: (cid, report)
        # Times are wall seconds since run start, directly comparable to
        # the simulated engine's run-relative sim clock.
        t_start = time.perf_counter()
        clock = lambda: time.perf_counter() - t_start  # noqa: E731

        def copy_cycles(copy: _Copy) -> None:
            instance, build_error = _build_filter(copy.spec)
            for k, uow in enumerate(uows):
                report = _execute_cycle(
                    copy=copy,
                    k=k,
                    slot=k,
                    uow=uow,
                    instance=instance,
                    build_error=build_error,
                    wiring=wiring,
                    tracer=tracer,
                    clock=clock,
                    writers_by_cycle=writers[copy.cid],
                )
                reports[k].append((copy.cid, report))

        threads = [
            threading.Thread(
                target=copy_cycles, args=(copy,), name=f"{copy.label}*",
                daemon=True,
            )
            for copy in plan
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        metrics_list: list[RunMetrics] = []
        errors: list[str] = []
        for cycle_reports in reports:
            metrics, cycle_errors = _fold_reports(
                cycle_reports, plan, self.ack_nbytes
            )
            metrics_list.append(metrics)
            errors += cycle_errors
        if errors:
            raise _copy_failure(metrics_list, errors)
        return metrics_list
