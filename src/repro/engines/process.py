"""Process-parallel execution engine: real filters, one process per copy.

Each transparent copy becomes one OS process, so filter compute runs
genuinely in parallel on multicore hosts — the paper's transparent-copy
speedups become measurable instead of GIL-serialised (contrast
:class:`repro.engines.threaded.ThreadedEngine`, which runs the same copy
protocol with one thread per copy).

There is one process runtime: :class:`ProcessEngine` is a *one-shot warm
pool*.  ``run_cycles(uows)`` opens the pool runtime of
:mod:`repro.engines.pool` with one slot per unit of work, submits every
unit, collects the per-cycle metrics and closes the pool before returning;
:class:`~repro.engines.pool.WarmPool` keeps the same runtime open across
queries.  Each worker runs the per-cycle protocol of
:mod:`repro.engines.copy` over the process transport: bounded
``multiprocessing.Queue`` copy-set queues, DD/RATE acknowledgments back
over a ``SimpleQueue`` per producer, and payloads through the engine's
:class:`~repro.core.buffer.BufferCodec` — large NumPy arrays ride
``multiprocessing.shared_memory`` segments (zero-copy attach on the
consumer side) under a small pickle header.  Every worker records trace
events and counters per cycle and ships them to the parent, where they
merge into one wall-clock trace and one ``RunMetrics`` per cycle.

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
from typing import Any

from repro.core.buffer import BufferCodec
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, validate_run_setup
from repro.errors import EngineError

__all__ = ["ProcessEngine"]


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
        self._init_policies(policy, policy_overrides)
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

        tracer = self._start_wall_trace(self.tracer)
        # The units of work reach the workers through fork, as arguments.
        runtime = _CopyRuntime(self, nslots=len(uows), uows=uows)
        try:
            return runtime.run_batch([None] * len(uows), tracer, rebase=False)
        finally:
            runtime.close()
