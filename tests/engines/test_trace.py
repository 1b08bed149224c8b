"""Tests for simulated-engine execution tracing."""

import pytest

from repro.core import DataBuffer, FilterGraph, Placement, SimFilter, SimSource, SourceItem
from repro.core.tracing import Tracer
from repro.engines.simulated import SimulatedEngine
from repro.sim import Environment, homogeneous_cluster


class Src(SimSource):
    def items(self, ctx):
        for i in range(5):
            yield SourceItem(
                read_bytes=1000, cpu=0.01,
                outputs=[DataBuffer(100, tags={"i": i})],
            )


class Snk(SimFilter):
    def cost(self, buffer):
        return 0.02

    def react(self, buffer):
        return ()


def traced_run():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=Src, is_source=True)
    g.add_filter("snk", sim_factory=Snk)
    g.connect("src", "snk")
    p = Placement().place("src", ["node0"]).place("snk", ["node1"])
    tracer = Tracer()
    SimulatedEngine(cluster, g, p, policy="RR", tracer=tracer).run()
    return tracer


def test_trace_records_all_kinds():
    tracer = traced_run()
    counts = tracer.counts()
    assert counts["io"] == 2 * 5  # start+end per disk read
    assert counts["recv"] == 5
    assert counts["send"] == 5
    assert counts["done"] == 2
    assert counts["compute"] == 2 * (5 + 5)  # start+end per charge


def test_trace_times_monotone_per_copy():
    tracer = traced_run()
    for copy in ("src@node0#0", "snk@node1#0"):
        events = tracer.for_copy(copy)
        assert events, copy
        times = [e.time for e in events]
        assert times == sorted(times)


def test_busy_spans_pair_up():
    tracer = traced_run()
    spans = tracer.busy_spans("snk@node1#0")
    assert len(spans) == 5
    for start, end in spans:
        assert end - start == pytest.approx(0.02)


def test_timeline_renders():
    tracer = traced_run()
    text = tracer.timeline(width=32)
    assert "src@node0#0" in text
    assert "#" in text


def test_timeline_empty():
    assert Tracer().timeline() == "(no events)"


def test_limit_drops_excess():
    tracer = Tracer(limit=3)
    for i in range(10):
        tracer.record(float(i), "c", "recv")
    assert len(tracer.events) == 3
    assert tracer.dropped == 7
    with pytest.raises(ValueError):
        Tracer(limit=0)


def test_untraced_run_records_nothing():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    g = FilterGraph()
    g.add_filter("src", sim_factory=Src, is_source=True)
    g.add_filter("snk", sim_factory=Snk)
    g.connect("src", "snk")
    p = Placement().place("src", ["node0"]).place("snk", ["node0"])
    engine = SimulatedEngine(cluster, g, p)
    assert engine.tracer is None
    engine.run()  # no crash without a tracer
