"""Supervisor behaviour: block on process sentinels, never busy-poll.

The process engine's parent used to loop ``is_alive()`` with a 10 ms sleep
per lap for the whole run.  The copy runtime's supervisor thread now blocks
in ``multiprocessing.connection.wait`` on the worker sentinels — no timeout
while every worker is healthy, a short sweep interval only after a crash
while dead copy sets may still receive traffic.
"""

import multiprocessing
import multiprocessing.connection
import os
import threading
import time

import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.engines.pool import _SWEEP_INTERVAL_S
from repro.engines.process import ProcessEngine
from repro.errors import EngineError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process engine needs the fork start method",
)

#: Name of the copy runtime's supervisor thread (one per open pool).
SUPERVISOR = "pool-supervisor"


class NumberSource(Filter):
    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            if i % ctx.total_copies == ctx.copy_index:
                ctx.write(DataBuffer(8, payload=i))


class SumSink(Filter):
    def init(self, ctx):
        self.total = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload

    def result(self):
        return self.total


def build(count=20, policy="RR", **kw):
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(count), is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    return ProcessEngine(g, p, policy=policy, **kw)


@pytest.fixture
def wait_calls(monkeypatch):
    """Record every multiprocessing.connection.wait call (and pass through)."""
    calls = []
    real_wait = multiprocessing.connection.wait

    def recording_wait(object_list, timeout=None):
        calls.append(
            {"timeout": timeout, "thread": threading.current_thread().name}
        )
        return real_wait(object_list, timeout=timeout)

    monkeypatch.setattr(multiprocessing.connection, "wait", recording_wait)
    return calls


@pytest.fixture
def sleep_calls(monkeypatch):
    """Record every time.sleep call in this process (and pass through)."""
    calls = []
    real_sleep = time.sleep

    def recording_sleep(seconds):
        calls.append(
            {"seconds": seconds, "thread": threading.current_thread().name}
        )
        return real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", recording_sleep)
    return calls


def test_healthy_supervision_blocks_without_polling(wait_calls, sleep_calls):
    """With healthy workers the supervisor never sleeps or times out."""
    metrics = build(count=20).run()
    assert metrics.result == sum(range(20))

    supervisor_waits = [c for c in wait_calls if c["thread"] == SUPERVISOR]
    assert supervisor_waits, "supervisor never used connection.wait"
    assert all(c["timeout"] is None for c in supervisor_waits), (
        "healthy supervision must block indefinitely on the sentinels, "
        f"got timeouts {[c['timeout'] for c in supervisor_waits]}"
    )
    polls = [c for c in sleep_calls if c["thread"] == SUPERVISOR]
    assert not polls, f"supervisor slept in a poll loop: {polls}"


def test_crash_supervision_switches_to_sweep_timeout(wait_calls):
    """After a worker dies, waits carry the drain-sweep timeout."""

    class Crasher(Filter):
        def handle(self, ctx, buffer):
            os._exit(11)

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(6), is_source=True)
    g.add_filter("bad", factory=Crasher)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "bad")
    g.connect("bad", "sink")
    p = Placement()
    p.place("src", ["h0"]).place("bad", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="exit code 11"):
        ProcessEngine(g, p).run()
    # The first wait (everything healthy) blocks; once the crash is seen
    # at least one subsequent wait must use the finite sweep timeout.
    timeouts = [c["timeout"] for c in wait_calls if c["thread"] == SUPERVISOR]
    assert timeouts[0] is None
    assert _SWEEP_INTERVAL_S in timeouts
