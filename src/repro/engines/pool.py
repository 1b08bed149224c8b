"""The process copy runtime, and warm filter-host pools built on it.

Cold-spawning one OS process per transparent copy, rebuilding every filter
instance and allocating fresh copy-set queues per query is fatal for
serving traffic, where the pipeline is fixed and only the unit of work
changes.  :class:`WarmPool` keeps the copies alive: it forks the workers
once, then feeds successive units of work over per-worker control pipes,
generalising the ``run_cycles`` protocol from "N cycles known up front" to
"cycles arrive over time".  ``ProcessEngine.run_cycles`` is the one-shot
case of the same runtime: one slot per unit of work, closed on return.

Mechanics
---------
:class:`_CopyRuntime` allocates ``nslots`` *slots*; each slot owns one
:class:`~repro.engines.copy._CopySetQueue` per (filter, host).
Cycle ``k`` runs in slot ``k % nslots``: up to ``nslots`` queries pipeline
through the filters concurrently, and a slot is recycled (end-of-work
counters rearmed) only after every copy has reported cycle ``k`` — so its
queues are provably drained.  Workers run the per-cycle protocol of
:func:`~repro.engines.copy._execute_cycle` — the same function the
threaded engine's copy threads run — over the process transport (queues
from the ``multiprocessing`` context, acks over a ``SimpleQueue`` per
producer, payloads through the engine's codec), ship one report per cycle
and block reading their control pipe between queries.

The parent-side supervisor blocks in ``multiprocessing.connection.wait``
on the worker sentinels (no timeout while every worker is healthy).  On an
unexpected death it closes admission, announces end-of-work for the dead
copy on every in-flight cycle, and sweeps copy sets with no live member on
a short wait timeout, acking and releasing each envelope.  The surviving
copies finish their in-flight cycles, each of which fails with the dead
copy's "exit code N" error; only then is the pool retired through the
normal close path, so no shared-memory segment or process outlives it.
Recovery is bounded: if no copy reports for ``_JOIN_TIMEOUT_S`` (a
survivor waiting on a lock its dead sibling held), the survivors are
terminated — releasing the envelopes they hold — and the in-flight cycles
fail with the death, before the same close.
An ``idle_timeout`` reaps a warm pool (full ``close()``) after that long
with no work in flight.

Payload lifetime contract: unchanged from the process engine — an input
buffer's arrays are shared-memory views valid only during ``handle``; the
segments themselves are per-payload and are released by the consuming
copy, so nothing about pooling extends a lease across queries.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as queue_mod
import signal
import threading
import time
from collections import OrderedDict
from typing import Any

from repro.core.buffer import BufferCodec
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.copy import (
    _IN_HAND,
    _STOP,
    _ack_and_release,
    _apply_ack,
    _build_copysets,
    _build_filter,
    _Copy,
    _copy_failure,
    _copy_plan,
    _CopySetQueue,
    _execute_cycle,
    _fold_reports,
    _release,
    _WireEnvelope,
    _Wiring,
)
from repro.engines.process import ProcessEngine
from repro.errors import EngineError

__all__ = ["PendingQuery", "PoolManager", "WarmPool"]

#: Supervisor wait while dead copy sets may still receive traffic.
_SWEEP_INTERVAL_S = 0.05
#: How long ``close()`` waits for a worker to exit, and how long recovery
#: after a death may go without a report before the survivors are
#: terminated.
_JOIN_TIMEOUT_S = 10.0
#: Control-pipe close message; never a pickle, which starts with b"\x80".
_CLOSE = b"close"


class PendingQuery:
    """Future-like handle for one unit of work submitted to a warm pool."""

    def __init__(self, cycle: int, tracer: "Tracer | None", t0: float):
        self.cycle = cycle
        self.tracer = tracer
        self.t0 = t0  # runtime-clock origin of the query's times
        self.reports: list = []  # (cid, _CycleReport, events, samples, dropped)
        self.claimed = False  # set once, by whoever merges the cycle
        self.deaths: list[str] = []  # why copies died while it was in flight
        self._done = threading.Event()
        self._metrics: "RunMetrics | None" = None
        self._error: "EngineError | None" = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: "float | None" = None) -> RunMetrics:
        """Block until the query finishes; its metrics, or raise its error."""
        if not self._done.wait(timeout):
            raise EngineError(
                f"query (cycle {self.cycle}) still running after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._metrics is not None
        return self._metrics

    # Called once per query, by whoever claimed its merge.
    def _resolve(self, metrics: RunMetrics) -> None:
        self._metrics = metrics
        self._done.set()

    def _fail(self, error: EngineError) -> None:
        self._error = error
        self._done.set()


class _CopyRuntime:
    """Forked filter copies serving cycles over a ring of ``nslots`` slots.

    The one process runtime: :class:`WarmPool` keeps it open across
    queries, ``ProcessEngine.run_cycles`` opens one with a slot per unit of
    work and closes it on return.  ``engine`` supplies the validated
    configuration (graph, placement, policies, codec, queue bound); the
    runtime clock starts just before the workers fork.  ``uows``, when
    given, is inherited by the workers through fork: cycle ``k`` submitted
    without a payload runs ``uows[k]``.
    """

    def __init__(
        self,
        engine: ProcessEngine,
        nslots: int,
        idle_timeout: "float | None" = None,
        uows: "list[Any] | None" = None,
    ):
        mp_ctx = multiprocessing.get_context(engine.start_method)
        # Start the shared-memory resource tracker *before* forking so every
        # worker talks to the same tracker process: a segment registered at
        # creation in one worker is then balanced by the unlink in another,
        # instead of each side lazily spawning its own tracker and warning
        # about "leaked" objects at exit.
        if engine.codec.use_shared_memory:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()

        graph = engine.graph
        plan = _copy_plan(graph, engine.placement)  # one worker per copy
        copysets, copyset_hosts = _build_copysets(
            mp_ctx, graph, engine.placement, nslots, engine.queue_capacity,
            len(plan),
        )
        # Ack queues: one per producer copy whose writers need them.
        needs_ack = {
            name: any(
                engine._policy_for(st.name)().needs_ack for st in spec.outputs
            )
            for name, spec in graph.filters.items()
        }
        self._ack_queues = [
            mp_ctx.SimpleQueue() if needs_ack[copy.spec.name] else None
            for copy in plan
        ]
        # Control pipes (reader, writer), parent to worker: a pickled cycle
        # header, then the pickled unit of work unless fork delivered it.
        self._controls = [mp_ctx.Pipe(duplex=False) for _ in plan]
        self._results = mp_ctx.SimpleQueue()
        self._copysets = copysets
        self._plan = plan
        self._members: dict[tuple[str, int], list[int]] = {}
        for copy in plan:
            self._members.setdefault(
                (copy.spec.name, copy.set_idx), []
            ).append(copy.cid)
        self.nslots = nslots
        self.idle_timeout = idle_timeout
        self.ack_nbytes = engine.ack_nbytes
        self.reaped = False
        self.cycles_completed = 0
        self.created_at = time.monotonic()

        self._lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._pending: dict[int, PendingQuery] = {}
        self._next_cycle = 0
        self._slot_free = [threading.Event() for _ in range(nslots)]
        for ev in self._slot_free:
            ev.set()
        self._closed = False  # admission closed (close() or a death)
        self._retiring = False  # close() has started
        self._break_reason: "str | None" = None
        self._deaths: dict[int, str] = {}  # cid -> reason, in death order
        self._last_progress = time.monotonic()  # last report or death
        self._closing = threading.Event()
        self._shutdown_done = threading.Event()
        self._last_activity = time.monotonic()
        self._wake_recv, self._wake_send = mp_ctx.Pipe(duplex=False)

        self.t_start = time.perf_counter()
        shared = {
            "wiring": _Wiring(
                copysets, copyset_hosts, self._ack_queues, engine._policy_for,
                engine.codec,
            ),
            "controls": [reader for reader, _ in self._controls],
            "results": self._results,
            "t_start": self.t_start,
            "nslots": nslots,
            "uows": uows,
        }
        self._procs = {
            copy.cid: mp_ctx.Process(
                target=_worker_main,
                args=(shared, copy),
                name=f"copy:{copy.label}",
                daemon=True,
            )
            for copy in plan
        }
        for proc in self._procs.values():
            proc.start()

        self._collector = threading.Thread(
            target=self._collect_loop, daemon=True, name="pool-collector"
        )
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, daemon=True, name="pool-supervisor"
        )
        self._supervisor.start()

    # -- state ---------------------------------------------------------------
    @property
    def usable(self) -> bool:
        with self._lock:
            return not self._closed

    @property
    def busy(self) -> bool:
        with self._lock:
            return bool(self._pending)

    def idle_seconds(self) -> float:
        with self._lock:
            if self._pending:
                return 0.0
            return time.monotonic() - self._last_activity

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": len(self._procs),
                "max_inflight": self.nslots,
                "inflight": len(self._pending),
                "cycles_completed": self.cycles_completed,
                "closed": self._closed,
                "broken": self._break_reason is not None,
                "reaped": self.reaped,
                "age_s": time.monotonic() - self.created_at,
            }

    def _check_open_locked(self) -> None:
        if self._break_reason is not None:
            raise EngineError(f"warm pool is broken: {self._break_reason}")
        if self._closed:
            raise EngineError("warm pool is closed")

    # -- submission ----------------------------------------------------------
    def submit(
        self, payload: "bytes | None", tracer: "Tracer | None",
        rebase: bool = True,
    ) -> PendingQuery:
        """Route one unit of work into the next slot (blocks while it is busy).

        ``payload`` is the pickled unit of work, sent once to every copy;
        ``None`` runs the preloaded ``uows[k]`` instead.  ``rebase``
        measures the query's times from this submit (serving latency);
        without it they stay on the runtime clock, whose origin is just
        before the fork.
        """
        with self._submit_lock:
            k = self._next_cycle
            slot_free = self._slot_free[k % self.nslots]
            while not slot_free.wait(timeout=0.5):
                with self._lock:
                    self._check_open_locked()
            pending = PendingQuery(k, tracer, self._clock() if rebase else 0.0)
            with self._lock:
                # Admission and registration are one step, so a death
                # announces end-of-work for every cycle that got in.
                self._check_open_locked()
                slot_free.clear()
                self._next_cycle += 1
                self._pending[k] = pending
                self._last_activity = time.monotonic()
            trace_limit = tracer.limit if tracer is not None else 0
            header = pickle.dumps(
                (k, payload is not None, tracer is not None, trace_limit)
            )
            try:
                for _, control in self._controls:
                    control.send_bytes(header)
                    if payload is not None:
                        control.send_bytes(payload)
            except BaseException as exc:
                # Some copies may hold the cycle and others not, so no
                # later cycle could run either: roll back and break.
                with self._lock:
                    self._pending.pop(k, None)
                    self._closed = True
                    self._break_reason = (
                        self._break_reason or f"submit failed: {exc!r}"
                    )
                raise
            return pending

    def run_batch(
        self, payloads: "list[bytes | None]", tracer: "Tracer | None" = None,
        rebase: bool = True,
    ) -> list[RunMetrics]:
        """Submit units of work in order and block for all of them.

        One ``EngineError`` reports every failure, with an entry per unit:
        a failed cycle's partial metrics (same contract as the threaded
        engine), or ``None`` for a unit that never ran — one left
        unsubmitted because a copy died first fails with its reason.
        """
        pendings: list[PendingQuery] = []
        for payload in payloads:
            try:
                pendings.append(self.submit(payload, tracer, rebase))
            except EngineError:
                if self._break_reason is None:
                    raise
                lost = PendingQuery(-1, None, 0.0)
                lost._fail(EngineError(self._break_reason))
                pendings.append(lost)
        metrics_list: list = []
        errors: list[str] = []
        for pending in pendings:
            try:
                metrics_list.append(pending.result())
            except EngineError as exc:
                metrics_list.append(exc.metrics[0] if exc.metrics else None)
                errors.extend(exc.errors or [str(exc)])
        if errors:
            raise _copy_failure(metrics_list, errors)
        return metrics_list

    def _clock(self) -> float:
        return time.perf_counter() - self.t_start

    # -- parent-side threads -------------------------------------------------
    def _claim_locked(self, pending: PendingQuery) -> bool:
        """True once for a cycle every surviving copy has reported."""
        reported = {r[0] for r in pending.reports}
        if pending.claimed or len(reported | self._deaths.keys()) < len(
            self._plan
        ):
            return False
        pending.claimed = True
        pending.deaths = list(self._deaths.values())
        return True

    def _collect_loop(self) -> None:
        """Merge per-cycle worker reports; recycle slots as queries finish."""
        while True:
            msg = self._results.get()
            if msg == _STOP:
                return
            with self._lock:
                pending = self._pending.get(msg[1])
                if pending is None:
                    continue
                pending.reports.append((msg[0], *msg[2:]))
                self._last_progress = time.monotonic()
                claimed = self._claim_locked(pending)
            if claimed:
                self._finish_cycle(pending)

    def _finish_cycle(self, pending: PendingQuery, abandoned: bool = False) -> None:
        """Merge a claimed cycle's reports; resolve or fail its query.

        A cycle fails if any copy died while it was in flight, even one
        that had reported it: a copy's queue writes drain through a feeder
        thread, so output it sent just before dying may never arrive.
        """
        offset = pending.t0
        metrics, copy_errors = _fold_reports(
            (r[:2] for r in pending.reports), self._plan, self.ack_nbytes,
            time_offset=offset,
        )
        errors = list(pending.deaths)
        if abandoned:
            errors.append(
                f"cycle {pending.cycle} abandoned: no copy reported for "
                f"{_JOIN_TIMEOUT_S:g} s after {self._break_reason}"
            )
        errors += copy_errors
        if pending.tracer is not None:
            events = sorted(
                (e for r in pending.reports for e in r[2]),
                key=lambda e: e.time,
            )
            samples = sorted(
                (s for r in pending.reports for s in r[3]),
                key=lambda s: s.time,
            )
            for event in events:
                pending.tracer.record(
                    event.time - offset, event.copy, event.kind, event.detail
                )
            for sample in samples:
                pending.tracer.sample_queue(
                    sample.time - offset, sample.queue, sample.depth
                )
            pending.tracer.dropped += sum(r[4] for r in pending.reports)

        # Recycle the slot: every copy has reported cycle k, so the slot's
        # queues are drained; rearm the end-of-work counters before the
        # next submit can route a cycle into them.
        slot = pending.cycle % self.nslots
        for sets in self._copysets.values():
            for per_set in sets:
                per_set[slot].reset()
        with self._lock:
            self._pending.pop(pending.cycle, None)
            self._last_activity = time.monotonic()
            self.cycles_completed += 1
        self._slot_free[slot].set()
        if errors:
            pending._fail(_copy_failure([metrics], errors))
        else:
            pending._resolve(metrics)

    def _supervise_loop(self) -> None:
        """Block on worker sentinels; recover from deaths; reap when idle.

        While the workers are healthy this thread sleeps in the kernel (the
        wake pipe exists so ``close()`` can retire it); with an
        ``idle_timeout`` the wait is bounded by the time left until the
        pool would be reaped.  After a death the wait takes the sweep
        interval, and the pool retires on the first lap that sees no new
        death and nothing in flight — or, if no copy has reported for
        ``_JOIN_TIMEOUT_S``, once :meth:`_abandon` has stopped waiting.
        """
        live = {p.sentinel: c for c, p in self._procs.items()}
        while True:
            timeout = _SWEEP_INTERVAL_S if self._deaths else self._idle_wait()
            ready = multiprocessing.connection.wait(
                [*live, self._wake_recv], timeout
            )
            if self._closing.is_set():
                return
            for sentinel in ready:
                self._on_death(live.pop(sentinel))
            if self._deaths:
                self._sweep_dead_copysets(set(live.values()))
                # Retire on the first quiet sweep lap with nothing in flight.
                if not ready and not self.busy:
                    self.close()  # retire the survivors the normal way
                    return
                if not ready and self._stalled():
                    self._abandon(list(live.values()))
                    self.close()
                    return
            elif not ready and self._idle_expired():
                self.reaped = True
                self.close()
                return

    def _idle_wait(self) -> "float | None":
        if self.idle_timeout is None:
            return None
        with self._lock:
            if self._pending:
                return self.idle_timeout  # re-check once the work drains
            idle_for = time.monotonic() - self._last_activity
        return max(0.0, self.idle_timeout - idle_for)

    def _idle_expired(self) -> bool:
        with self._lock:
            return (
                not self._pending
                and not self._closed
                and time.monotonic() - self._last_activity >= self.idle_timeout
            )

    def _stalled(self) -> bool:
        with self._lock:
            return bool(self._pending) and (
                time.monotonic() - self._last_progress >= _JOIN_TIMEOUT_S
            )

    def _on_death(self, cid: int) -> None:
        """Close admission; announce the dead copy's end-of-work."""
        proc = self._procs[cid]
        proc.join()
        copy = self._plan[cid]
        reason = (
            f"worker process {copy.label} died with exit code {proc.exitcode}"
        )
        with self._lock:
            self._closed = True
            self._break_reason = self._break_reason or reason
            self._deaths[cid] = reason
            self._last_progress = time.monotonic()
            complete = [
                p for p in self._pending.values() if self._claim_locked(p)
            ]
            inflight = [p for p in self._pending.values() if not p.claimed]
        self._discard_controls([cid])
        for pending in inflight:
            slot = pending.cycle % self.nslots
            for st in copy.spec.outputs:
                for sets in self._copysets[st.dst]:
                    # Even for a cycle the copy reported: its own marker
                    # may have died in its feeder thread, and a consumer
                    # ignores a second one.  The put blocks while the
                    # queue is full, so run it off-thread to keep
                    # supervising.
                    threading.Thread(
                        target=sets[slot].producer_finished, args=(cid,),
                        daemon=True,
                    ).start()
        for pending in complete:  # only the dead copy was outstanding
            self._finish_cycle(pending)

    def _discard_controls(self, cids: "list[int]") -> None:
        """Keep reading dead copies' control pipes until close.

        A submit may be blocked writing a large unit of work into such a
        pipe, and close() writes its own message there too.
        """
        for cid in cids:
            threading.Thread(
                target=_discard_until_close, args=(self._controls[cid][0],),
                daemon=True,
            ).start()

    def _abandon(self, live: "list[int]") -> None:
        """Recovery stalled: terminate the survivors, fail what is in flight.

        A survivor can wait forever on its dead sibling — a copy killed
        inside ``queue.get()`` keeps the copy set's read lock — so the
        runtime stops waiting once no copy has reported for
        ``_JOIN_TIMEOUT_S``.  The close that follows drains what the
        survivors left in the queues.
        """
        _terminate([self._procs[cid] for cid in live])
        self._discard_controls(live)
        with self._lock:
            stuck = [p for p in self._pending.values() if not p.claimed]
            for pending in stuck:
                pending.claimed = True
                pending.deaths = list(self._deaths.values())
        for pending in stuck:
            self._finish_cycle(pending, abandoned=True)

    def _sweep_dead_copysets(self, live: "set[int]") -> None:
        """Discard traffic aimed at copy sets with no surviving member."""
        for (name, set_idx), cids in self._members.items():
            if not any(c in live for c in cids):
                for csq in self._copysets[name][set_idx]:
                    # Only dead copies ever read this queue, so a held
                    # read lock belongs to one of them.
                    _reclaim_lock(csq.queue._rlock)
                    self._discard(csq, self._ack_queues)

    def _drain_all_slots(self) -> None:
        """Discard leftover traffic so no shared-memory segment leaks.

        Every worker has exited, so nothing is acked: take back read locks
        dead readers still hold, and read without blocking, so a message a
        reader died in the middle of ends the drain of that queue instead
        of hanging it.
        """
        for sets in self._copysets.values():
            for per_set in sets:
                for csq in per_set:
                    _reclaim_lock(csq.queue._rlock)
                    os.set_blocking(csq.queue._reader.fileno(), False)
                    self._discard(csq, None)

    @staticmethod
    def _discard(csq: _CopySetQueue, ack_queues) -> None:
        while True:
            try:
                item = csq.queue.get_nowait()
            except queue_mod.Empty:
                return
            except BaseException:
                return  # torn pipe from a terminated worker
            if not isinstance(item, _WireEnvelope):
                continue
            if ack_queues is None:
                _release(item.payload)
            else:
                _ack_and_release(item, ack_queues)

    def close(self) -> None:
        """Drain in-flight queries, then retire the workers.

        Close-while-busy is graceful: new submits are rejected first, every
        pending query runs to completion, and each worker delivers its
        queued DD acks (FIFO ``_STOP`` through the ack queue) and joins its
        ack thread before exiting.  ``terminate()`` is only the fallback
        for a worker stuck past the join timeout (and for survivors of a
        death that stopped reporting, see :meth:`_abandon`).  Idempotent;
        concurrent callers block until shutdown finishes.
        """
        with self._submit_lock, self._lock:
            self._closed = True
            first, self._retiring = not self._retiring, True
        if not first:
            if threading.current_thread() is not self._supervisor:
                self._shutdown_done.wait()
            return
        with self._lock:
            pending = list(self._pending.values())
        for query in pending:
            query.wait()
        self._closing.set()
        try:
            self._wake_send.send(b"x")
        except (OSError, ValueError):  # pragma: no cover - already torn down
            pass
        if threading.current_thread() is not self._supervisor:
            self._supervisor.join()
        for _, control in self._controls:
            control.send_bytes(_CLOSE)
        for proc in self._procs.values():
            proc.join(timeout=_JOIN_TIMEOUT_S)
        _terminate([p for p in self._procs.values() if p.is_alive()])
        # Every worker has exited: a write lock still held, or a report
        # cut off mid-write, belongs to a dead one.
        _reclaim_lock(self._results._wlock)
        self._results.put(_STOP)
        self._collector.join(timeout=_JOIN_TIMEOUT_S)
        self._drain_all_slots()
        for slot_free in self._slot_free:
            slot_free.set()  # wake blocked submitters into the closed check
        self._shutdown_done.set()


def _terminate(procs: "list[multiprocessing.process.BaseProcess]") -> None:
    """Stop stuck workers: SIGTERM (they free unqueued envelopes), then
    SIGKILL any still alive after the join timeout."""
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(timeout=_JOIN_TIMEOUT_S)
        if proc.is_alive():  # pragma: no cover - ignores SIGTERM
            proc.kill()
            proc.join()


def _discard_until_close(control) -> None:
    """Read a dead worker's control pipe up to the close message."""
    try:
        while control.recv_bytes() != _CLOSE:
            pass
    except (EOFError, OSError):  # pragma: no cover - torn down
        pass


def _reclaim_lock(lock) -> None:
    """Free a queue lock that a dead process may hold.

    ``multiprocessing`` queues hold their read lock while a ``get``
    blocks, and their write lock while a message is written, so a process
    killed there keeps the lock forever.  Only valid while no live
    process uses ``lock``.
    """
    lock.acquire(block=False)
    lock.release()


def _start_ack_drain(ack_queue, writers_by_cycle) -> threading.Thread:
    """Start the producer-side ack-drain thread (the process ack transport).

    Applies consumer acknowledgments through :func:`_apply_ack`.  Stops on
    the FIFO ``_STOP`` sentinel so acks already queued still get delivered
    (and traced) first.
    """

    def _ack_loop():
        while True:
            msg = ack_queue.get()
            if msg == _STOP:
                break
            _apply_ack(writers_by_cycle, msg)

    thread = threading.Thread(target=_ack_loop, daemon=True)
    thread.start()
    return thread


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


def _worker_main(shared, copy: _Copy) -> None:
    """One copy's process: execute cycles as they arrive, until close."""
    # Fork copied the parent's in-hand envelopes (a threaded engine with a
    # codec sending right now); they are not this worker's to free.
    _IN_HAND.clear()
    signal.signal(signal.SIGTERM, _release_in_hand_and_die)
    wiring = shared["wiring"]
    control = shared["controls"][copy.cid]
    nslots = shared["nslots"]
    t_start = shared["t_start"]
    clock = lambda: time.perf_counter() - t_start  # noqa: E731

    writers_by_cycle: dict = {}
    ack_queue = wiring.ack_queues[copy.cid]
    ack_thread = None
    if ack_queue is not None:
        ack_thread = _start_ack_drain(ack_queue, writers_by_cycle)
    instance, build_error = _build_filter(copy.spec)

    while True:
        header = control.recv_bytes()
        if header == _CLOSE:
            break
        k, has_payload, trace, trace_limit = pickle.loads(header)
        if has_payload:
            uow = pickle.loads(control.recv_bytes())
        else:
            uow = shared["uows"][k]
        # Worker-local tracer, merged (time-sorted) by the parent.
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by all forked
        # workers, so timestamps are directly comparable.
        tracer = Tracer(limit=trace_limit, clock="wall") if trace else None
        cycle = _execute_cycle(
            copy=copy,
            k=k,
            slot=k % nslots,
            uow=uow,
            instance=instance,
            build_error=build_error,
            wiring=wiring,
            tracer=tracer,
            clock=clock,
            writers_by_cycle=writers_by_cycle,
        )
        # Writers older than the slot ring can no longer receive acks
        # that matter; prune so a long-lived worker stays bounded.
        for old in [c for c in writers_by_cycle if c <= k - nslots]:
            del writers_by_cycle[old]
        shared["results"].put(
            (
                copy.cid, k, cycle,
                tracer.events if tracer else [],
                tracer.queue_samples if tracer else [],
                tracer.dropped if tracer else 0,
            )
        )
    if ack_thread is not None:
        # FIFO sentinel: queued acks still get delivered first.
        ack_queue.put(_STOP)
        ack_thread.join()


class WarmPool(ProcessEngine):
    """A :class:`ProcessEngine` whose copies outlive any single run.

    Construction validates and forks immediately (the pool is warm once
    ``__init__`` returns); ``submit`` enqueues one unit of work and
    ``run``/``run_cycles`` provide the blocking batch API on top.  Use as a
    context manager or call :meth:`close` — the workers are daemonic, but
    an explicit close delivers queued DD acks and joins the ack threads
    before the processes exit.

    Additional parameters over the process engine:

    ``max_inflight``
        Slots in the cycle ring — how many queries may pipeline through
        the filters concurrently (submits beyond that block).
    ``idle_timeout``
        Seconds of no in-flight work after which the pool closes itself
        (``None`` = never).
    ``cache`` / ``cache_members``
        Attach a :class:`~repro.cache.ResultCache` to the named subgraph.
        The attachment is certified *before* any worker forks: an
        uncertified subgraph raises
        :class:`~repro.errors.AnalysisError` with the E703–E706
        diagnostics and no processes are spawned.  The resulting
        :attr:`cache_binding` carries the subgraph signature callers
        (``repro.serve``) derive cache keys from.
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: "str | PolicyFactory" = "DD",
        policy_overrides: "dict[str, str | PolicyFactory] | None" = None,
        queue_capacity: int = 8,
        ack_nbytes: int = DEFAULT_ACK_BYTES,
        codec=None,
        start_method: "str | None" = None,
        max_inflight: int = 2,
        idle_timeout: "float | None" = None,
        deep_analysis: bool = True,
        cache=None,
        cache_members: "tuple[str, ...] | None" = None,
    ):
        super().__init__(
            graph,
            placement,
            policy=policy,
            policy_overrides=policy_overrides,
            queue_capacity=queue_capacity,
            ack_nbytes=ack_nbytes,
            tracer=None,
            codec=codec,
            start_method=start_method,
            deep_analysis=deep_analysis,
        )
        if max_inflight < 1:
            raise EngineError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.idle_timeout = idle_timeout
        self.cache_binding = None
        if cache is not None:
            if not cache_members:
                raise EngineError(
                    "cache attachment needs cache_members naming the "
                    "memoised subgraph"
                )
            from repro.cache import bind_cache

            # Certify before forking: a refused binding must not leak
            # worker processes.
            self.cache_binding = bind_cache(graph, cache_members, cache)
        self._runtime = _CopyRuntime(self, max_inflight, idle_timeout)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def usable(self) -> bool:
        """True while the pool accepts new work."""
        return self._runtime.usable

    @property
    def busy(self) -> bool:
        """True while at least one query is in flight.

        Eviction decisions (:class:`PoolManager`) must not close a busy
        pool — ``close()`` blocks on the in-flight queries, so closing a
        busy pool under a manager lock stalls every other caller.
        """
        return self._runtime.busy

    @property
    def reaped(self) -> bool:
        """True once the idle timeout closed the pool."""
        return self._runtime.reaped

    @property
    def cycles_completed(self) -> int:
        return self._runtime.cycles_completed

    def idle_seconds(self) -> float:
        """Seconds since the pool last had work in flight (0.0 while busy)."""
        return self._runtime.idle_seconds()

    def stats(self) -> dict:
        """A snapshot for service dashboards (``repro serve`` ``stats``)."""
        out = self._runtime.stats()
        if self.cache_binding is not None:
            out["cache"] = {
                "members": list(self.cache_binding.members),
                "signature": self.cache_binding.signature,
                **self.cache_binding.cache.stats(),
            }
        return out

    def submit(
        self, uow: Any = None, tracer: "Tracer | None" = None
    ) -> PendingQuery:
        """Enqueue one unit of work on the warm copies.

        Blocks while all ``max_inflight`` slots are busy (bounded admission
        is the caller's concern — ``repro serve`` rejects upstream).  The
        optional per-query ``tracer`` receives the query's events with
        timestamps rebased to the submit, so its timeline and the returned
        metrics' makespan read as end-to-end query latency.  The unit of
        work is pickled once, here, so an unpicklable one raises before
        anything is queued.
        """
        self._start_wall_trace(tracer)
        return self._runtime.submit(_pickle_uow(uow), tracer)

    def run(self) -> RunMetrics:
        """Submit one unit of work and block for it (``Engine`` API)."""
        return self.submit(None).result()

    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Batch counterpart of ``ProcessEngine.run_cycles`` on warm copies.

        Each cycle's times are measured from its own submit.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        return self._runtime.run_batch([_pickle_uow(uow) for uow in uows])

    def close(self) -> None:
        """Drain in-flight queries, then retire the workers (idempotent)."""
        self._runtime.close()


def _pickle_uow(uow: Any) -> bytes:
    """Pickle a unit of work once, before the runtime registers it."""
    return pickle.dumps(uow, protocol=pickle.HIGHEST_PROTOCOL)


class _PoolBuild:
    """Per-key cold-build latch: one builder, any number of waiters."""

    __slots__ = ("done", "error", "pool")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.pool: "WarmPool | None" = None
        self.error: "BaseException | None" = None


class PoolManager:
    """Keyed cache of warm pools for a query service.

    Pools are keyed by pipeline identity — the caller supplies a hashable
    key covering (graph, placement, policy, codec), typically the tuple of
    scene/configuration parameters that built them.  ``get`` returns the
    warm pool on a hit and builds (cold) on a miss; at most ``max_pools``
    stay warm, evicting least-recently-used, and ``reap_idle`` closes pools
    idle past ``idle_timeout`` (also swept on every ``get``).

    Lifecycle contracts (each one a former bug):

    - ``pool.close()`` is **never** called under the manager lock — close
      blocks on in-flight queries, so a close under the lock would stall
      every concurrent ``get``.
    - Eviction skips **busy** pools: the LRU *idle* pool is closed; when
      every pool is busy, eviction defers and the manager temporarily
      exceeds ``max_pools`` (it shrinks back on later calls) rather than
      tearing a query out from under a caller.
    - Cold builds (fork + filter construction) run **outside** the lock
      behind a per-key latch: two misses on one key still build once,
      and a cold start no longer serialises unrelated warm hits.
    - Dead pools found during a sweep are closed defensively before
      being dropped, so a broken pool's shared-memory ledger is released
      even when nobody else ever touched it again.  ``get`` closes what
      it drops on a background thread: a broken pool's close can wait out
      the runtime's recovery limit, which must not stall a cold request.
    """

    def __init__(self, max_pools: int = 4, idle_timeout: "float | None" = None):
        if max_pools < 1:
            raise EngineError(f"max_pools must be >= 1, got {max_pools}")
        self.max_pools = max_pools
        self.idle_timeout = idle_timeout
        self._pools: "OrderedDict[Any, WarmPool]" = OrderedDict()
        self._building: "dict[Any, _PoolBuild]" = {}
        self._lock = threading.Lock()

    def get(self, key: Any, build) -> "tuple[WarmPool, bool]":
        """Return ``(pool, created)`` for ``key``, building on a miss.

        ``created`` is True when this call cold-built the pool (the first
        query pays fork + filter construction; subsequent ones are warm).
        A concurrent miss on the same key blocks on the first caller's
        build instead of building twice; a build failure is re-raised to
        every waiter.
        """
        while True:
            to_close: list[WarmPool] = []
            with self._lock:
                self._sweep_locked(to_close)
                pool = self._pools.get(key)
                if pool is not None and pool.usable:
                    self._pools.move_to_end(key)
                    self._shrink_locked(to_close, protect=key)
                    self._close_later(to_close)
                    return pool, False
                if pool is not None:
                    del self._pools[key]
                    to_close.append(pool)
                latch = self._building.get(key)
                if latch is None:
                    latch = _PoolBuild()
                    self._building[key] = latch
                    builder = True
                else:
                    builder = False
            self._close_later(to_close)
            if not builder:
                latch.done.wait()
                if latch.error is not None:
                    raise latch.error
                pool = latch.pool
                if pool is not None and pool.usable:
                    return pool, False
                continue  # builder's pool died immediately; start over
            return self._build_locked_out(key, latch, build), True

    def _build_locked_out(self, key: Any, latch: _PoolBuild, build) -> WarmPool:
        """Run one cold build outside the lock; publish through the latch."""
        try:
            pool = build()
        except BaseException as exc:
            with self._lock:
                self._building.pop(key, None)
            latch.error = exc
            latch.done.set()
            raise
        to_close: list[WarmPool] = []
        with self._lock:
            self._pools[key] = pool
            self._pools.move_to_end(key)
            self._building.pop(key, None)
            self._shrink_locked(to_close, protect=key)
        latch.pool = pool
        latch.done.set()
        self._close_now(to_close)
        return pool

    # -- sweeping and eviction (under the lock; closes deferred) ------------
    def _sweep_locked(self, to_close: "list[WarmPool]") -> None:
        """Drop dead and idle-expired pools; queue them for closing.

        Dead pools (``not usable``) are closed *defensively* — a broken
        pool normally cleaned up when it broke, but close is idempotent
        and this is the last line of defence for its shm ledger.
        """
        for key in list(self._pools):
            pool = self._pools[key]
            if not pool.usable:
                del self._pools[key]
                to_close.append(pool)
            elif (
                self.idle_timeout is not None
                and pool.idle_seconds() >= self.idle_timeout
            ):
                del self._pools[key]
                to_close.append(pool)

    def _shrink_locked(
        self, to_close: "list[WarmPool]", protect: Any
    ) -> None:
        """Evict LRU **idle** pools down to ``max_pools``; defer on busy.

        ``protect`` (the key just returned or inserted) is never a
        victim.  Busy pools are skipped — a pool with a query in flight
        stays out of the victim set, so capacity pressure can leave the
        manager temporarily over budget until the traffic drains.
        """
        if len(self._pools) <= self.max_pools:
            return
        for key in list(self._pools):  # OrderedDict: LRU first
            if len(self._pools) <= self.max_pools:
                return
            if key == protect:
                continue
            pool = self._pools[key]
            if pool.busy:
                continue  # deferred: never evict a pool mid-query
            del self._pools[key]
            to_close.append(pool)

    def _close_now(self, pools: "list[WarmPool]") -> None:
        for pool in pools:
            pool.close()

    def _close_later(self, pools: "list[WarmPool]") -> None:
        """Close evicted pools without blocking the warm-hit fast path."""
        if not pools:
            return
        threading.Thread(
            target=self._close_now, args=(pools,), daemon=True,
            name="poolmanager-close",
        ).start()

    def reap_idle(self) -> None:
        """Close and drop pools idle past ``idle_timeout`` (and dead ones)."""
        to_close: list[WarmPool] = []
        with self._lock:
            self._sweep_locked(to_close)
        self._close_now(to_close)

    def close_all(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

    def stats(self) -> dict:
        with self._lock:
            pools = list(self._pools.items())
        return {str(key): pool.stats() for key, pool in pools}

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)
