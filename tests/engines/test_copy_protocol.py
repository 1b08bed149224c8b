"""The shared per-copy protocol over the thread transport."""

import sys
import threading

import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.buffer import BufferCodec
from repro.engines import ProcessEngine, ThreadedEngine
from repro.engines.copy import _CopySetQueue
from repro.engines.threaded import _Threads


def test_threaded_without_codec_passes_buffers_by_reference(monkeypatch):
    """No codec: the consumer gets the producer's very buffer objects."""
    sent, received = [], []

    def no_encode(self, buffer):
        raise AssertionError("encoded without a codec")

    monkeypatch.setattr(BufferCodec, "encode", no_encode)

    class Source(Filter):
        def flush(self, ctx):
            for i in range(6):
                buffer = DataBuffer(8, payload=[i])
                sent.append(buffer)
                ctx.write(buffer)

    class Sink(Filter):
        def handle(self, ctx, buffer):
            received.append(buffer)

    g = FilterGraph()
    g.add_filter("src", factory=Source, is_source=True)
    g.add_filter("sink", factory=Sink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", [("h0", 2)])
    ThreadedEngine(g, p, policy="DD", queue_capacity=2).run()
    assert sorted(map(id, received)) == sorted(map(id, sent))


def test_thread_copyset_counts_each_producer_once():
    """A repeated end-of-work marker never stands in for another producer."""
    csq = _CopySetQueue(_Threads, copies=2, expected_eow=2, capacity=4,
                        producers=3)
    assert not csq.on_eow(0)
    assert not csq.on_eow(0)
    assert csq.on_eow(2)
    csq.reset()
    assert not csq.on_eow(2)


def test_threaded_stress_with_fast_thread_switching():
    """More copies than cores on tiny windows, switching threads every
    microsecond: every cycle still delivers every buffer exactly once."""

    class Source(Filter):
        def flush(self, ctx):
            for i in range(40):
                if i % ctx.total_copies == ctx.copy_index:
                    ctx.write(DataBuffer(8, payload=i + ctx.uow))

    class Work(Filter):
        def handle(self, ctx, buffer):
            ctx.write(DataBuffer(8, payload=buffer.payload))

    class Sink(Filter):
        def init(self, ctx):
            self.total = 0

        def handle(self, ctx, buffer):
            self.total += buffer.payload

        def result(self):
            return self.total

    g = FilterGraph()
    g.add_filter("src", factory=Source, is_source=True)
    g.add_filter("work", factory=Work)
    g.add_filter("sink", factory=Sink)
    g.connect("src", "work")
    g.connect("work", "sink")
    p = (
        Placement()
        .place("src", [("h0", 4)])
        .place("work", [("h0", 3), ("h1", 3)])
        .place("sink", [("h0", 2), ("h1", 1)])
    )
    uows = list(range(0, 500, 100))
    out = {}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        engine = ThreadedEngine(g, p, policy="DD", queue_capacity=1)
        runner = threading.Thread(
            target=lambda: out.update(metrics=engine.run_cycles(uows)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120.0)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive(), "threaded run did not finish"
    for uow, metrics in zip(uows, out["metrics"]):
        assert sum(metrics.result) == sum(range(40)) + 40 * uow
        assert metrics.stream_totals("work->sink") == (40, 320)
        metrics.validate(g)


@pytest.mark.parametrize("engine_cls", [ThreadedEngine, ProcessEngine])
def test_parallel_streams_between_one_pair_of_filters(engine_cls):
    """Two streams from a to b: each producer's end-of-work arrives once
    per stream, and b's copies must still close after both producers."""

    class Source(Filter):
        def flush(self, ctx):
            for i in range(10):
                if i % ctx.total_copies == ctx.copy_index:
                    ctx.write(DataBuffer(8, payload=i), stream="a->b")
                    ctx.write(DataBuffer(8, payload=100 * i), stream="second")

    class Sink(Filter):
        def init(self, ctx):
            self.total = 0

        def handle(self, ctx, buffer):
            self.total += buffer.payload

        def result(self):
            return self.total

    g = FilterGraph()
    g.add_filter("a", factory=Source, is_source=True)
    g.add_filter("b", factory=Sink)
    g.connect("a", "b")
    g.connect("a", "b", name="second")
    p = Placement().place("a", [("h0", 2)]).place("b", [("h0", 2)])
    out = {}
    engine = engine_cls(g, p, policy="DD", queue_capacity=2)
    runner = threading.Thread(
        target=lambda: out.update(metrics=engine.run_cycles([0, 1])),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "run with parallel streams did not finish"
    for metrics in out["metrics"]:
        assert sum(metrics.result) == 101 * sum(range(10))
        assert metrics.stream_totals("a->b") == (10, 80)
        assert metrics.stream_totals("second") == (10, 80)
        metrics.validate(g)
