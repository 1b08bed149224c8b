"""The ``animate`` workload: batches of frames on both copy runtimes.

Each batch (timesteps x orbiting camera, RE-Ra-M, z-buffer, two tile-merge
copies) runs through ``ProcessEngine.run_cycles`` and then
``ThreadedEngine.run_cycles`` on the same units of work, alternating which
engine goes first.  No serve layer, no cache.  A frame's latency is the
time from its batch's start to the moment its engine delivered it (the
cycle's makespan): the batch is one request for all of its frames.
"""

from __future__ import annotations

import os
import time

import pipeline as pl
import traffic as tr
from measure import SpanLog, Tally, median, min_samples_for, percentile
from sut import TreeSampler, is_resource_tracker, reap_orphans, shm_names

SETUPS = 3
MIN_FRAMES = min_samples_for(95.0)
MAX_STRETCH = 3.0


def assemble():
    """Pipeline assembly plus construction of both engines (``setup_s``)."""
    from repro.engines import ProcessEngine, ThreadedEngine

    scene = pl.build_scene()
    app = pl.build_app(scene, tr.ANIMATE_ALGORITHM)
    args = pl.engine_args(app, tr.ANIMATE_CONFIG)
    return scene, app, ProcessEngine(**args), ThreadedEngine(**args)


def batches_loop(engines, batches, seconds, tally, min_frames=0,
                 traced=False, spans: "SpanLog | None" = None) -> dict:
    """Run batches on both engines until the window closes.

    Returns per-engine ``[(wall_s, [delivery_s per frame]), ...]``; with
    ``traced`` set, each run gets a fresh ``Tracer`` and the per-engine
    ``(tracer, metrics)`` pairs come back for the copy-layer figures.
    """
    from repro.core.tracing import Tracer
    from repro.errors import EngineError

    out = {name: [] for name in engines}
    tracers = {name: [] for name in engines}
    frames = 0
    t_start = time.perf_counter()
    turn = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds * MAX_STRETCH or (
            elapsed >= seconds and frames >= min_frames
        ):
            break
        batch = next(batches)
        uows = [pl.frame_uow(f) for f in batch]
        order = list(engines.items())
        if turn % 2:
            order.reverse()
        turn += 1
        digests = {}
        for name, engine in order:
            if traced:
                engine.tracer = Tracer()
            t0 = time.perf_counter()
            try:
                runs = engine.run_cycles(uows)
            except EngineError as exc:
                tally.fail(f"{name} engine error: {exc}", len(uows))
                continue
            wall = time.perf_counter() - t0
            tally.ok(len(uows))
            frames += len(uows)
            out[name].append((wall, [m.makespan for m in runs]))
            if traced:
                tracers[name].append((engine.tracer, runs))
                engine.tracer = None
            digests[name] = [pl.raw_digest(m.result.image) for m in runs]
            if spans is not None:
                parent = spans.add(f"batch.{name}", t0, t0 + wall)
                for k, m in enumerate(runs):
                    spans.add(f"frame.{name}", t0, t0 + m.makespan, parent, k)
        compare_engines(digests, tally)
    return {"runs": out, "traced": tracers}


def compare_engines(digests, tally) -> None:
    """Each process-engine frame must equal the threaded engine's."""
    if len(digests) < 2:
        return  # an engine failed; its frames already count as failed
    for a, b in zip(digests["process"], digests["threaded"]):
        if a != b:
            tally.retract("process frame differs from threaded frame")


def fps(runs) -> float:
    frames = sum(len(d) for _, d in runs)
    return frames / sum(w for w, _ in runs) if runs else 0.0


def combined_fps(result) -> float:
    return fps([r for runs in result["runs"].values() for r in runs])


def leak_check(sampler, shm_before, tally) -> dict:
    """Engines are done: no worker may survive and no segment may remain."""
    orphans = reap_orphans(sampler, ignore=is_resource_tracker)
    leaked = len(shm_names() - shm_before)
    for kind, n in (("orphan_processes", orphans), ("leaked_shm_segments", leaked)):
        if n:
            tally.fail(kind, n)
    return {"leaked_shm_segments": leaked, "orphan_processes": orphans}


def _setup():
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        built = assemble()
        times.append(time.perf_counter() - t0)
    return built, times


def run(seed, seconds) -> dict:
    shm_before = shm_names()
    sampler = TreeSampler(os.getpid())
    tally = Tally()
    try:
        (scene, app, process, threaded), setups = _setup()
        result = batches_loop(
            {"process": process, "threaded": threaded},
            tr.animate_batches(seed), seconds, tally, MIN_FRAMES,
        )
        sampler.sample()
    finally:
        sampler.stop()
    leaks = leak_check(sampler, shm_before, tally)
    latencies = [
        d * 1000.0 for runs in result["runs"].values()
        for _, deliveries in runs for d in deliveries
    ]
    return {
        "tally": tally,
        "metrics": {
            "throughput_per_s": combined_fps(result),
            "latency_p50_ms": percentile(latencies, 50.0),
            "latency_p95_ms": percentile(latencies, 95.0),
            "setup_s": median(setups),
            "peak_rss_mb": sampler.peak_mb,
        },
        "fps": {name: fps(runs) for name, runs in result["runs"].items()},
        "frames": {name: sum(len(d) for _, d in runs)
                   for name, runs in result["runs"].items()},
        "latencies": latencies,
        "setups": setups,
        "rss_samples": sampler.samples,
        "leaks": leaks,
    }


def run_traced(seed, seconds, spans: SpanLog) -> dict:
    import layers

    shm_before = shm_names()
    sampler = TreeSampler(os.getpid())
    tally = Tally()
    try:
        scene, app, process, threaded = assemble()
        engines = {"process": process, "threaded": threaded}
        plain = batches_loop(engines, tr.animate_batches(seed), seconds / 2.0,
                             tally)
        traced = batches_loop(engines, tr.animate_batches(seed), seconds / 2.0,
                              tally, traced=True, spans=spans)
        frames = next(tr.animate_batches(seed))[: layers.SAMPLE]
        probed = layers.probe_animate(frames, scene, app, spans)
        sampler.sample()
    finally:
        sampler.stop()
    leaks = leak_check(sampler, shm_before, tally)
    out = {
        "trace.overhead": (combined_fps(plain) / combined_fps(traced),
                           "untraced / traced frames per second, same seed"),
        "frames_per_s.process": (fps(plain["runs"]["process"]),
                                 "untraced half, process engine"),
        "frames_per_s.threaded": (fps(plain["runs"]["threaded"]),
                                  "untraced half, threaded engine"),
    }
    for name in engines:
        pairs = traced["traced"][name]
        copy = layers.copy_layer(pairs, sum(len(runs) for _, runs in pairs))
        prefix = "" if name == "process" else "threaded."
        for key, value in copy.items():
            out[prefix + key] = (
                value, f"{name} engine Tracer/RunMetrics, traced batches")
    out.update(probed)
    return {"tally": tally, "layers": out, "leaks": leaks}
