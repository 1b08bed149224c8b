"""Crash-path lifecycle: no shared-memory segment outlives a failed run.

Every drain path — a consumer that raises, a consumer that dies without
cleanup, a producer abandoned mid-send — must acknowledge discarded
envelopes (so DD windows upstream keep moving) *and* release their
shared-memory segments.  These tests inject each failure with payloads
large enough to take the shared-memory path and assert ``/dev/shm`` is
back to its pre-run state afterwards.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.buffer import BufferCodec
from repro.engines import ThreadedEngine, WarmPool
from repro.engines.copy import _IN_HAND, _Writer
from repro.engines.pool import _JOIN_TIMEOUT_S
from repro.engines.process import ProcessEngine
from repro.errors import EngineError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process engine needs the fork start method",
)


class ArraySource(Filter):
    """Emits float64 arrays big enough for the shared-memory payload path."""

    def __init__(self, count, length=4096):
        self.count = count
        self.length = length

    def flush(self, ctx):
        for i in range(self.count):
            arr = np.full(self.length, float(i), dtype=np.float64)
            ctx.write(DataBuffer(arr.nbytes, payload=arr, tags={"seq": i}))


class ArraySumSink(Filter):
    def init(self, ctx):
        self.total = 0.0

    def handle(self, ctx, buffer):
        self.total += float(buffer.payload.sum())

    def result(self):
        return self.total


@pytest.fixture
def shm_ledger():
    """Snapshot /dev/shm; yields a closure returning newly leaked psm_*."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    before = set(os.listdir("/dev/shm"))

    def leaked():
        # The resource tracker unlinks asynchronously on worker exit;
        # give stragglers a moment before declaring a leak.
        for _ in range(50):
            now = {
                f
                for f in set(os.listdir("/dev/shm")) - before
                if f.startswith("psm_")
            }
            if not now:
                return set()
            time.sleep(0.02)
        return now

    return leaked


def _crash_graph(sink_factory, count=10):
    g = FilterGraph()
    g.add_filter(
        "src", factory=lambda: ArraySource(count), is_source=True
    )
    g.add_filter("sink", factory=sink_factory)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    return g, p


def test_consumer_exception_releases_segments(shm_ledger):
    """A consumer that raises drains its input, acking and releasing."""

    class ExplodingSink(Filter):
        def handle(self, ctx, buffer):
            raise RuntimeError("boom")

    g, p = _crash_graph(ExplodingSink)
    engine = ProcessEngine(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    with pytest.raises(EngineError, match="boom"):
        engine.run()
    assert not shm_ledger()


def test_threaded_consumer_exception_releases_segments(shm_ledger):
    """The threaded engine releases a decoded lease even when handle raises."""

    class ExplodingSink(Filter):
        def handle(self, ctx, buffer):
            raise RuntimeError("boom")

    g, p = _crash_graph(ExplodingSink)
    engine = ThreadedEngine(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    with pytest.raises(EngineError, match="boom"):
        engine.run()
    assert not shm_ledger()


def test_consumer_hard_crash_releases_segments(shm_ledger):
    """A consumer dying without cleanup leaves the parent to drain.

    The producer keeps sending into the dead copy set — blocked on the
    capacity-1 queue and the DD window — so the supervisor's drain must
    both release the stranded segments and ack them to unblock the
    producer.  (A copy killed *mid-handle* necessarily loses the one
    segment it was leasing until the resource tracker reclaims it at
    interpreter exit; dying in init models every parent-recoverable
    hard-crash point.)
    """

    class DyingSink(Filter):
        def init(self, ctx):
            os._exit(3)

    g, p = _crash_graph(DyingSink, count=12)
    engine = ProcessEngine(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=1,
    )
    with pytest.raises(EngineError, match="exit code 3"):
        engine.run()
    assert not shm_ledger()


def test_pool_consumer_hard_crash_releases_segments(shm_ledger):
    """A warm-pool worker dying mid-query leaks no segment and breaks the pool.

    The producer is still sending into the dead copy set when the consumer
    dies, so its in-flight envelopes must be acked and released by the
    supervisor while it finishes the cycle — not stranded by terminating
    it — before the pool retires.
    """

    class DyingSink(ArraySumSink):
        def init(self, ctx):
            if ctx.uow == "die":
                os._exit(3)
            super().init(ctx)

    g, p = _crash_graph(DyingSink, count=12)
    pool = WarmPool(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=1,
    )
    try:
        assert pool.submit("live").result().result == sum(
            4096.0 * i for i in range(12)
        )
        with pytest.raises(EngineError, match="exit code 3"):
            pool.submit("die").result()
        assert not pool.usable
    finally:
        pool.close()
    assert not shm_ledger()
    workers = [
        proc for proc in multiprocessing.active_children()
        if proc.name.startswith("copy:")
    ]
    assert not workers, f"orphan worker processes: {workers}"


@pytest.mark.parametrize("copies", [1, 2])
def test_pool_consumer_killed_in_get_does_not_hang(shm_ledger, copies):
    """A consumer SIGKILLed while blocked in ``get`` keeps the queue's lock.

    With one copy the supervisor takes the lock back and drains the copy
    set, so the producer finishes.  With two, the sibling waits on that
    lock forever, so the runtime gives up after its recovery limit,
    terminates the survivors and fails the query.  Either way the query
    fails with the death, and close() leaves no segment or process.
    """

    class SlowSource(ArraySource):
        def flush(self, ctx):
            time.sleep(1.0)  # the kill lands while every sink waits
            super().flush(ctx)

    class LateSink(ArraySumSink):
        def init(self, ctx):
            if ctx.copy_index == 1:
                time.sleep(0.5)  # so copy 0 is the one holding the lock
            super().init(ctx)

    g = FilterGraph()
    g.add_filter("src", factory=lambda: SlowSource(12), is_source=True)
    g.add_filter("sink", factory=LateSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", [("h0", copies)])
    pool = WarmPool(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=1,
    )
    try:
        pending = pool.submit(None)
        time.sleep(0.3)
        (victim,) = [
            proc for proc in multiprocessing.active_children()
            if proc.name == "copy:sink@h0#0"
        ]
        os.kill(victim.pid, signal.SIGKILL)
        # One copy recovers at once; two wait out the recovery limit.
        limit = 5.0 if copies == 1 else _JOIN_TIMEOUT_S + 30.0
        with pytest.raises(EngineError, match="exit code -9"):
            pending.result(timeout=limit)
        assert not pool.usable
    finally:
        pool.close()
    assert not shm_ledger()
    workers = [
        proc for proc in multiprocessing.active_children()
        if proc.name.startswith("copy:")
    ]
    assert not workers, f"orphan worker processes: {workers}"


def test_abandoned_send_releases_encoded_payload(shm_ledger):
    """_Writer.send releases the already-encoded segment when it raises."""

    class ExplodingPolicy:
        needs_ack = False

        def bind(self, targets):
            pass

        def select(self):
            raise RuntimeError("routing failed")

        def route(self, tags):
            return self.select()

    writer = _Writer(
        host="h0",
        policy=ExplodingPolicy(),
        copyset_queues=[SimpleNamespace(copies=1)],
        hosts=["h0"],
        label="src#0",
        clock=time.perf_counter,
        tracer=None,
        codec=BufferCodec(shm_threshold=64),
        producer_cid=0,
        cycle=0,
        stream="src->sink",
    )
    arr = np.ones(4096, dtype=np.float64)
    with pytest.raises(RuntimeError, match="routing failed"):
        writer.send(DataBuffer(arr.nbytes, payload=arr))
    assert not shm_ledger()


def test_pool_worker_does_not_free_parent_envelopes(shm_ledger):
    """A worker forked while the parent holds an encoded envelope (a
    threaded engine with a codec mid-send) must not free it on SIGTERM."""
    codec = BufferCodec(shm_threshold=64)
    arr = np.arange(4096, dtype=np.float64)
    encoded = codec.encode(DataBuffer(arr.nbytes, payload=arr))
    _IN_HAND[id(encoded)] = encoded
    try:
        g, p = _crash_graph(ArraySumSink, count=2)
        pool = WarmPool(g, p, policy="DD", codec=codec)
        try:
            pool.submit(None).result(timeout=30.0)  # workers are running
            victim = next(iter(pool._runtime._procs.values()))
            victim.terminate()
            victim.join(timeout=30.0)
        finally:
            pool.close()
    finally:
        _IN_HAND.pop(id(encoded), None)
    buffer, lease = codec.decode(encoded)
    try:
        np.testing.assert_array_equal(buffer.payload, arr)
    finally:
        lease.release()
    assert not shm_ledger()


def test_resource_tracker_clean_at_exit():
    """A crashing run leaves nothing for the resource tracker to complain
    about when the whole interpreter exits (the end-of-process check the
    in-process ledger cannot perform)."""
    script = """
import numpy as np
from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.buffer import BufferCodec
from repro.engines.process import ProcessEngine
from repro.errors import EngineError

class Source(Filter):
    def flush(self, ctx):
        for i in range(10):
            arr = np.full(4096, float(i))
            ctx.write(DataBuffer(arr.nbytes, payload=arr))

class Bad(Filter):
    def handle(self, ctx, buffer):
        raise RuntimeError("boom")

g = FilterGraph()
g.add_filter("src", factory=Source, is_source=True)
g.add_filter("sink", factory=Bad)
g.connect("src", "sink")
p = Placement().place("src", ["h0"]).place("sink", ["h0"])
try:
    ProcessEngine(g, p, policy="DD",
                  codec=BufferCodec(shm_threshold=1024)).run()
except EngineError:
    print("CRASHED-AS-EXPECTED")
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CRASHED-AS-EXPECTED" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
