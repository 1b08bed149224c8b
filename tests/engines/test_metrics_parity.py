"""Cross-engine metrics parity: every engine keeps the same books.

One small shared graph (source -> worker x2 -> sink) is run through the
threaded engine (real filters, wall clock), the process engine (real
filters, one OS process per copy, wall clock) and the simulated engine
(cost models, sim clock).  The *shapes* of the resulting ``RunMetrics``
must agree: per-copy ``finished_at`` populated everywhere, ``ack_bytes``
accounted symmetrically with ``ack_messages``, stream totals identical, and
``RunMetrics.validate()`` green everywhere.  All engines must also emit the
unified trace schema and the traces must survive a JSONL round trip.
"""

import pytest

from repro.core import (
    DataBuffer,
    Filter,
    FilterGraph,
    Placement,
    SimFilter,
    SimSource,
    SourceItem,
)
from repro.core.tracing import EVENT_KINDS, Tracer
from repro.engines import ProcessEngine, SimulatedEngine, ThreadedEngine
from repro.sim import Environment, homogeneous_cluster

COUNT = 12
NBYTES = 64


class RealSource(Filter):
    def flush(self, ctx):
        for i in range(COUNT):
            if i % ctx.total_copies == ctx.copy_index:
                ctx.write(DataBuffer(NBYTES, payload=i))


class RealWorker(Filter):
    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(NBYTES, payload=buffer.payload * 2))


class RealSink(Filter):
    def __init__(self):
        self.total = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload

    def result(self):
        return self.total


class SimSourceModel(SimSource):
    def items(self, ctx):
        for i in range(COUNT):
            if i % ctx.total_copies == ctx.copy_index:
                yield SourceItem(cpu=0.001, outputs=[DataBuffer(NBYTES)])


class SimWorkerModel(SimFilter):
    def cost(self, buffer):
        return 0.002

    def react(self, buffer):
        return (DataBuffer(NBYTES),)


class SimSinkModel(SimFilter):
    def cost(self, buffer):
        return 0.001

    def react(self, buffer):
        return ()


def shared_graph():
    """The same logical graph with both real and simulated factories."""
    g = FilterGraph()
    g.add_filter(
        "src", factory=RealSource, sim_factory=SimSourceModel, is_source=True
    )
    g.add_filter("work", factory=RealWorker, sim_factory=SimWorkerModel)
    g.add_filter("sink", factory=RealSink, sim_factory=SimSinkModel)
    g.connect("src", "work")
    g.connect("work", "sink")
    return g


def shared_placement():
    return (
        Placement()
        .place("src", ["node0"])
        .place("work", [("node0", 1), ("node1", 1)])
        .place("sink", ["node0"])
    )


def run_threaded(policy="DD", tracer=None):
    graph = shared_graph()
    metrics = ThreadedEngine(
        graph, shared_placement(), policy=policy, tracer=tracer
    ).run()
    return graph, metrics


def run_process(policy="DD", tracer=None):
    graph = shared_graph()
    metrics = ProcessEngine(
        graph, shared_placement(), policy=policy, tracer=tracer
    ).run()
    return graph, metrics


def run_simulated(policy="DD", tracer=None):
    graph = shared_graph()
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    metrics = SimulatedEngine(
        cluster, graph, shared_placement(), policy=policy, tracer=tracer
    ).run()
    return graph, metrics


ENGINES = {
    "threaded": run_threaded,
    "process": run_process,
    "simulated": run_simulated,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_finished_at_populated_on_every_copy(engine):
    # Regression: the threaded engine used to leave finished_at at 0.0.
    _graph, metrics = ENGINES[engine]()
    assert len(metrics.copies) == 4
    for copy in metrics.copies:
        assert copy.finished_at > 0.0, (engine, copy)
        if engine in ("threaded", "process"):
            # Real-engine finish times are run-relative: within the makespan.
            assert copy.finished_at <= metrics.makespan + 1e-6


def test_threaded_finished_at_is_run_relative():
    _graph, metrics = run_threaded()
    last = max(c.finished_at for c in metrics.copies)
    assert last <= metrics.makespan + 1e-6
    assert metrics.makespan < 60.0  # seconds since run start, not epoch time


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_ack_bytes_accounted_with_messages(engine):
    # Regression: the threaded engine counted ack_messages but never
    # ack_bytes, silently zeroing DD overhead in threaded runs.
    _graph, metrics = ENGINES[engine]("DD")
    assert metrics.ack_messages > 0
    assert metrics.ack_nbytes > 0
    assert metrics.ack_bytes == metrics.ack_messages * metrics.ack_nbytes


def test_ack_parity_across_engines():
    _g1, threaded = run_threaded("DD")
    _g2, process = run_process("DD")
    _g3, simulated = run_simulated("DD")
    # Same graph, same buffer count, DD everywhere: identical ack volume.
    assert threaded.ack_messages == simulated.ack_messages
    assert threaded.ack_messages == process.ack_messages
    assert threaded.ack_bytes == simulated.ack_bytes
    assert threaded.ack_bytes == process.ack_bytes


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_stream_totals_and_validate(engine):
    graph, metrics = ENGINES[engine]()
    assert metrics.stream_totals("src->work") == (COUNT, COUNT * NBYTES)
    assert metrics.stream_totals("work->sink") == (COUNT, COUNT * NBYTES)
    metrics.validate(graph)  # conservation holds with graph cross-checks


def test_stream_totals_identical_across_engines():
    totals = {}
    for engine, runner in ENGINES.items():
        _graph, metrics = runner()
        totals[engine] = {
            name: (s.buffers, s.bytes) for name, s in metrics.streams.items()
        }
    assert totals["threaded"] == totals["simulated"]
    assert totals["threaded"] == totals["process"]


def test_io_time_where_applicable():
    # Disk time is modelled only by the simulated engine; the threaded
    # engine reads inside filter code.  Both leave the field >= 0 and the
    # simulated engine populates it when the source declares reads.
    class ReadingSource(SimSource):
        def items(self, ctx):
            yield SourceItem(read_bytes=1_000_000, outputs=[DataBuffer(NBYTES)])

    g = FilterGraph()
    g.add_filter("src", sim_factory=ReadingSource, is_source=True)
    g.add_filter("sink", sim_factory=SimSinkModel)
    g.connect("src", "sink")
    p = Placement().place("src", ["node0"]).place("sink", ["node0"])
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    metrics = SimulatedEngine(cluster, g, p, policy="RR").run()
    assert metrics.filter_io_time("src") > 0.0
    _graph, threaded = run_threaded()
    assert all(c.io_time >= 0.0 for c in threaded.copies)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_unified_trace_schema(engine):
    tracer = Tracer()
    graph, metrics = ENGINES[engine]("DD", tracer=tracer)
    kinds = set(tracer.counts())
    assert kinds <= EVENT_KINDS
    # Core lifecycle kinds appear on both engines.
    assert {"recv", "compute", "send", "ack", "flush", "done"} <= kinds
    assert tracer.clock == ("sim" if engine == "simulated" else "wall")
    # Every copy traced a done event.
    done = [e for e in tracer.events if e.kind == "done"]
    assert len(done) == len(metrics.copies)
    # recv events match consumed buffers.
    assert tracer.counts()["recv"] == sum(c.buffers_in for c in metrics.copies)
    # Queue depths were sampled.
    assert tracer.queue_samples
    # DD acks carry measurable latencies.
    assert len(tracer.ack_latencies()) > 0
    assert all(latency >= 0.0 for latency in tracer.ack_latencies())


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_trace_jsonl_round_trip(engine, tmp_path):
    tracer = Tracer()
    ENGINES[engine]("DD", tracer=tracer)
    path = tmp_path / f"{engine}.jsonl"
    tracer.to_jsonl(str(path))
    loaded = Tracer.from_jsonl(str(path))
    assert loaded.events == tracer.events  # order preserved verbatim
    assert loaded.queue_samples == tracer.queue_samples
    assert loaded.clock == tracer.clock
    timeline = loaded.timeline(width=40)
    for copy in {e.copy for e in tracer.events}:
        assert copy in timeline
    assert loaded.utilisation().keys() == tracer.utilisation().keys()


def test_validate_catches_cooked_books():
    from repro.errors import MetricsError

    graph, metrics = run_threaded()
    metrics.ack_bytes += 1  # cook the ack ledger
    with pytest.raises(MetricsError, match="ack_bytes"):
        metrics.validate(graph)


# -- partial metrics on failed batches ----------------------------------------
class FragileWorker(Filter):
    """Doubles payloads; refuses the unit of work that says so."""

    def init(self, ctx):
        if ctx.uow == "bad":
            raise RuntimeError("boom uow")

    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(NBYTES, payload=buffer.payload * 2))


class ResettingSink(Filter):
    def init(self, ctx):
        self.total = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload

    def result(self):
        return self.total


def test_partial_metrics_on_failed_batch_parity():
    """One bad cycle must not discard the healthy cycles' metrics.

    Both real engines attach one RunMetrics per unit of work — healthy
    cycles fully merged — plus every collected error to the EngineError,
    and they agree on all of it.
    """
    from repro.errors import EngineError

    uows = ["a", "bad", "c"]
    per_engine = {}
    for name, engine_cls in (
        ("threaded", ThreadedEngine), ("process", ProcessEngine)
    ):
        g = FilterGraph()
        g.add_filter("src", factory=RealSource, is_source=True)
        g.add_filter("work", factory=FragileWorker)
        g.add_filter("sink", factory=ResettingSink)
        g.connect("src", "work")
        g.connect("work", "sink")
        engine = engine_cls(g, shared_placement(), policy="DD")
        with pytest.raises(EngineError) as exc_info:
            engine.run_cycles(uows)
        exc = exc_info.value
        assert len(exc.metrics) == len(uows), name
        assert exc.errors, name
        assert "boom uow" in exc.errors[0], name
        per_engine[name] = exc

    threaded, process = per_engine["threaded"], per_engine["process"]
    # Both work copies refused the bad cycle on both engines.
    assert len(threaded.errors) == len(process.errors) == 2
    for k in (0, 2):  # the healthy cycles merged completely, identically
        t, p = threaded.metrics[k], process.metrics[k]
        assert t.result == p.result == 2 * sum(range(COUNT))
        assert (
            t.stream_totals("src->work")
            == p.stream_totals("src->work")
            == (COUNT, COUNT * NBYTES)
        )
        assert t.makespan > 0.0 and p.makespan > 0.0
    # The failed cycle still reports the sink's (empty) pass identically.
    assert threaded.metrics[1].result == process.metrics[1].result == 0


def test_failure_labels_and_copy_order_parity():
    """Both real engines name the failing copy and cycle in every error,
    and list each cycle's copies in the same (copy-id) order."""
    from repro.errors import EngineError

    per_engine = {}
    for name, engine_cls in (
        ("threaded", ThreadedEngine), ("process", ProcessEngine)
    ):
        g = FilterGraph()
        g.add_filter("src", factory=RealSource, is_source=True)
        g.add_filter("work", factory=FragileWorker)
        g.add_filter("sink", factory=ResettingSink)
        g.connect("src", "work")
        g.connect("work", "sink")
        engine = engine_cls(g, shared_placement(), policy="DD")
        with pytest.raises(EngineError) as exc_info:
            engine.run_cycles(["a", "bad", "c"])
        per_engine[name] = exc_info.value

    threaded, process = per_engine["threaded"], per_engine["process"]
    for exc in (threaded, process):
        labels = sorted(error.split(":", 1)[0] for error in exc.errors)
        assert labels == ["work@node0#0 cycle 1", "work@node1#0 cycle 1"]
    for t, p in zip(threaded.metrics, process.metrics):
        t_copies = [(c.filter_name, c.host, c.copy_index) for c in t.copies]
        p_copies = [(c.filter_name, c.host, c.copy_index) for c in p.copies]
        assert t_copies == p_copies
        assert t_copies == [
            ("src", "node0", 0), ("work", "node0", 0), ("work", "node1", 0),
            ("sink", "node0", 0),
        ]
