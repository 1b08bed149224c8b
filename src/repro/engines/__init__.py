"""Execution engines for placed filter graphs.

- :class:`~repro.engines.simulated.SimulatedEngine` runs cost models over
  the DES cluster substrate (all scheduling experiments);
- :class:`~repro.engines.threaded.ThreadedEngine` runs real filters with
  threads in this process (correctness runs, examples);
- :class:`~repro.engines.process.ProcessEngine` runs real filters with one
  process per copy (actual parallelism on multicore hosts) as a one-shot
  warm pool: it opens the process copy runtime for one batch and closes it;
- :class:`~repro.engines.pool.WarmPool` keeps that same runtime open
  between runs, serving units of work as they arrive (``repro serve``).

The threaded engine and the process runtime run one per-copy cycle
protocol, :mod:`repro.engines.copy`, over a thread or a process transport.
"""

from repro.engines.base import Engine
from repro.engines.pool import PendingQuery, PoolManager, WarmPool
from repro.engines.process import ProcessEngine
from repro.engines.simulated import PendingRun, SimulatedEngine, run_concurrent
from repro.engines.threaded import ThreadedEngine

__all__ = [
    "Engine",
    "PendingQuery",
    "PendingRun",
    "PoolManager",
    "ProcessEngine",
    "SimulatedEngine",
    "ThreadedEngine",
    "WarmPool",
    "run_concurrent",
]
