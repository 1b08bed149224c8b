"""Per-layer probes for the traced run, measured from outside each layer.

Every number here comes from timing a call into a public function of the
program (the ``repro.viz`` kernels, ``BufferCodec``, ``WarmPool``,
``QueryService``, ``repro.cache``, engine construction) or from reading
what it returns (``RunMetrics``, a ``Tracer`` passed in).  Nothing inside
``src/`` is instrumented.  Each probe records a span under a ``probe``
root in the run's span log.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

import pipeline as pl
import traffic as tr
from measure import SpanLog, median

#: Queries (or frames) the kernel, codec and pool probes replay.
SAMPLE = 4
#: Queries from the start of the workload's stream that the in-process
#: ``QueryService`` renders (enough repeats for revisit's cache to hit).
SERVICE_SAMPLE = 20
#: Encode/decode repetitions for the codec probe.
CODEC_REPS = 15

#: Pipeline stage -> role, so serve (R-E-Ra-M) and animate (RE-Ra-M)
#: report under the same names.  R and E together do what RE does.
STAGE_ROLES = {"R": "source", "E": "source", "RE": "source",
               "Ra": "raster", "TM": "tile_merge", "M": "gather"}
STREAM_ROLES = {"E->Ra": "triangles", "RE->Ra": "triangles",
                "Ra->TM": "fragments", "TM->M": "tiles"}


class Probe:
    """Times probe calls as spans under one ``probe.<name>`` root."""

    def __init__(self, spans: SpanLog, name: str):
        self.spans = spans
        self.root = spans.add(f"probe.{name}", time.perf_counter(), 0.0)

    def timed(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans.add(name, t0, t1, parent=self.root)
        return out, (t1 - t0) * 1000.0

    def close(self) -> None:
        self.spans.spans[self.root].end = time.perf_counter()


# -- kernels -----------------------------------------------------------------
def extract_all(scene, timestep, isovalue):
    """Serve-side extraction, as ``QueryService`` does it on a triangle-tier
    miss: per-chunk marching cubes in the profile's chunk order."""
    from repro.viz import extract_triangles

    dataset, profile, _ = scene
    chunks = [c for f in profile.files for c in f.chunks]
    read_ms = extract_ms = 0.0
    voxels = 0
    triangles = {}
    for chunk in chunks:
        t0 = time.perf_counter()
        scalars = dataset.chunk_field(chunk, timestep, 0)
        t1 = time.perf_counter()
        triangles[chunk.chunk_id] = extract_triangles(
            scalars, isovalue,
            origin=(float(chunk.start[2]), float(chunk.start[1]),
                    float(chunk.start[0])),
        )
        t2 = time.perf_counter()
        read_ms += (t1 - t0) * 1000.0
        extract_ms += (t2 - t1) * 1000.0
        voxels += scalars.size
    return triangles, read_ms, extract_ms, voxels


def serial_frame(scene, uow, algorithm, probe: Probe) -> dict:
    """One frame through the kernels in a single thread, stage by stage."""
    from repro.viz import (
        ActivePixelMerger,
        ActivePixelRaster,
        ZBuffer,
        shade_triangles,
    )
    from repro.viz.filters import ZB_SLAB_ENTRIES

    t_frame = time.perf_counter()
    (tri_map, read_ms, extract_ms, voxels), _ = probe.timed(
        "kernel.read_extract", extract_all,
        scene, uow["timestep"], uow["isovalue"],
    )
    tris = np.concatenate([t for t in tri_map.values() if len(t)])
    camera = uow["camera"]

    def raster():
        colors = shade_triangles(tris)
        screen, kept = camera.project_and_cull(tris)
        if algorithm == "active":
            r = ActivePixelRaster(tr.IMAGE, tr.IMAGE)
            out = r.process(screen, colors[kept])
            return out, r.fragments_tested, sum(w.entries for w in out)
        zbuf = ZBuffer(tr.IMAGE, tr.IMAGE)
        zbuf.rasterize(screen, colors[kept])
        slabs = zbuf.slabs(ZB_SLAB_ENTRIES)
        return slabs, zbuf.fragments_tested, sum(len(s.depth) for s in slabs)

    (parts, fragments, entries), raster_ms = probe.timed("kernel.raster", raster)

    def merge():
        if algorithm == "active":
            m = ActivePixelMerger(tr.IMAGE, tr.IMAGE)
            for wpa in parts:
                m.merge(wpa)
            return m.active_pixels()
        m = ZBuffer(tr.IMAGE, tr.IMAGE)
        for slab in parts:
            m.merge_slab(slab)
        return m.active_pixels()

    active, merge_ms = probe.timed("kernel.merge", merge)
    return {
        "read_ms": read_ms, "extract_ms": extract_ms, "raster_ms": raster_ms,
        "merge_ms": merge_ms,
        "frame_ms": (time.perf_counter() - t_frame) * 1000.0,
        "voxels": voxels, "triangles": len(tris), "fragments": fragments,
        "entries": entries, "active_pixels": active, "parts": parts,
        "tri_map": tri_map,
    }


def model_ratios(frames, algorithm) -> dict:
    """Measured kernel time / ``CostParams`` prediction for the same counts.

    The cost models price reference core-seconds on the paper's testbed;
    a ratio of 1 means this host runs the kernel at the modelled speed.
    """
    from repro.viz import CostParams

    c = CostParams()
    pixels = tr.IMAGE * tr.IMAGE
    e, ra, m = [], [], []
    for f in frames:
        e.append(f["extract_ms"] / 1000.0 / (
            f["voxels"] * c.extract_per_voxel
            + f["triangles"] * c.extract_per_triangle))
        raster = (f["triangles"] * c.raster_per_triangle
                  + f["fragments"] * c.raster_per_fragment)
        if algorithm == "active":
            raster += f["entries"] * c.ap_per_entry
            merge = f["entries"] * c.merge_ap_per_entry
        else:
            raster += pixels * 8 * c.zb_send_per_byte
            merge = f["entries"] * c.merge_zb_per_entry
        ra.append(f["raster_ms"] / 1000.0 / raster)
        m.append(f["merge_ms"] / 1000.0 / merge)
    return {"model.ratio.E": median(e), "model.ratio.Ra": median(ra),
            "model.ratio.M": median(m)}


def kernel_layer(scene, uows, algorithm, probe) -> "tuple[dict, list]":
    frames = [serial_frame(scene, u, algorithm, probe) for u in uows]
    out = {
        "kernel.read_ms": median([f["read_ms"] for f in frames]),
        "kernel.extract_ms": median([f["extract_ms"] for f in frames]),
        "kernel.raster_ms": median([f["raster_ms"] for f in frames]),
        "kernel.merge_ms": median([f["merge_ms"] for f in frames]),
        "kernel.serial_frame_ms": median([f["frame_ms"] for f in frames]),
        "kernel.triangles": median([f["triangles"] for f in frames]),
        "kernel.fragments": median([f["fragments"] for f in frames]),
        "kernel.active_pixels": median([f["active_pixels"] for f in frames]),
    }
    out.update(model_ratios(frames, algorithm))
    return out, frames


# -- codec, cache keys, analysis ---------------------------------------------
def codec_layer(payload, nbytes, probe) -> dict:
    """Shared-memory encode/decode of one payload, per MiB moved."""
    from repro.core.buffer import BufferCodec, DataBuffer

    codec = BufferCodec()
    buffer = DataBuffer(nbytes, payload)
    enc, dec = [], []
    for _ in range(CODEC_REPS):
        encoded, enc_ms = probe.timed("codec.encode", codec.encode, buffer)
        (_, lease), dec_ms = probe.timed("codec.decode", codec.decode, encoded)
        lease.release()
        enc.append(enc_ms)
        dec.append(dec_ms)
    mib = nbytes / 2**20
    return {"codec.encode_ms_per_mb": median(enc) / mib,
            "codec.decode_ms_per_mb": median(dec) / mib,
            "codec.payload_kb": nbytes / 1024.0}


def cache_key_ms(tri_map, uow, probe) -> float:
    """Keying one query's triangles: ``make_triangle_set`` + ``content_key``."""
    from repro.cache import content_key, make_triangle_set

    def key():
        tri = make_triangle_set(tri_map)
        return content_key("frame", tri.digest, uow["timestep"], uow["isovalue"])

    return probe.timed("cache.key", key)[1]


def analysis_verify_ms(app, config, probe) -> float:
    """Engine construction with deep analysis minus without (median of 3;
    the analysis caches per graph, so this is the warm cost)."""
    from repro.engines import ProcessEngine

    deep, shallow = [], []
    for _ in range(3):
        deep.append(probe.timed(
            "analysis.deep", ProcessEngine, **pl.engine_args(app, config))[1])
        shallow.append(probe.timed(
            "analysis.shallow", ProcessEngine,
            **pl.engine_args(app, config), deep_analysis=False)[1])
    return median(deep) - median(shallow)


# -- copy runtime ------------------------------------------------------------
def copy_layer(traced, frames: int) -> dict:
    """Per-frame copy and stream figures.

    ``traced`` pairs each run's ``Tracer`` with its ``RunMetrics`` list.
    A tracer serves one run only: timestamps restart at every run (and at
    every pool submit), so spans of two runs in one tracer would interleave.
    """
    totals: dict = {}
    acks: list = []

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for tracer, metrics_list in traced:
        for stage, busy in tracer.stage_busy().items():
            add(f"copy.busy_ms.{STAGE_ROLES.get(stage, stage)}", busy * 1000.0)
        for copy in tracer.copies():
            stage = STAGE_ROLES.get(copy.split("@", 1)[0])
            if stage in ("source", "raster"):
                add(f"copy.blocked_ms.{stage}",
                    tracer.blocked_time(copy) * 1000.0)
        acks.extend(tracer.ack_latencies())
        for m in metrics_list:
            add("acks", m.ack_messages)
            for name, role in STREAM_ROLES.items():
                if name in m.streams:
                    add(f"stream.buffers.{role}", m.streams[name].buffers)
                    add(f"stream.bytes.{role}", m.streams[name].bytes)
    out = {key: value / frames for key, value in totals.items()}
    out["copy.ack_p50_ms"] = median(acks) * 1000.0 if acks else 0.0
    return out


def pool_layer(pool_kwargs, uows, probe, copy_from_pool: bool) -> dict:
    """Build a ``WarmPool`` and replay units of work on it one at a time;
    with ``copy_from_pool``, each with a fresh ``Tracer`` for the copy
    figures."""
    from repro.core.tracing import Tracer
    from repro.engines.pool import WarmPool

    pool, build_ms = probe.timed("pool.build", WarmPool, **pool_kwargs)
    try:
        workers = pool.stats()["workers"]
        waits, cycles, control, traced = [], [], [], []
        for uow in uows:
            control.append(len(pickle.dumps(uow)) * workers)
            tracer = Tracer() if copy_from_pool else None
            t0 = time.perf_counter()
            pending = pool.submit(uow, tracer=tracer)
            t1 = time.perf_counter()
            traced.append((tracer, [pending.result(timeout=120.0)]))
            t2 = time.perf_counter()
            probe.spans.add("pool.submit", t0, t1, parent=probe.root)
            probe.spans.add("pool.cycle", t0, t2, parent=probe.root)
            waits.append((t1 - t0) * 1000.0)
            cycles.append((t2 - t0) * 1000.0)
    finally:
        pool.close()
    out = {
        "pool.build_s": build_ms / 1000.0,
        "pool.submit_wait_ms": median(waits),
        "pool.cycle_ms": median(cycles),
        "pool.control_bytes": median(control),
    }
    if copy_from_pool:
        out.update(copy_layer(traced, len(uows)))
    return out


def common_layers(scene, app, config, algorithm, uows, spans, pool_kwargs,
                  serve: bool) -> dict:
    """Kernel, codec, cache-key, analysis and pool probes.  On the serve
    path the replayed units of work carry the triangles the server would
    inject, and the pool replay also yields the copy figures."""
    probe = Probe(spans, "serve" if serve else "animate")
    try:
        kernels, frames = kernel_layer(scene, uows, algorithm, probe)
        first = frames[0]
        if algorithm == "active":
            # the largest buffers on the serve path: one chunk's triangles
            from repro.viz.filters import TRIANGLE_BYTES, TrianglePayload

            tris = max(first["tri_map"].values(), key=len)
            payload = TrianglePayload(tris)
            nbytes = len(tris) * TRIANGLE_BYTES
        else:
            payload = first["parts"][0]  # one z-buffer slab
            nbytes = payload.nbytes
        out = dict(kernels)
        out.update(codec_layer(payload, nbytes, probe))
        out["cache.key_ms"] = median([
            cache_key_ms(f["tri_map"], u, probe) for f, u in zip(frames, uows)
        ])
        out["analysis.verify_ms"] = analysis_verify_ms(app, config, probe)
        if serve:
            uows = [dict(u, triangles=f["tri_map"]) for f, u in zip(frames, uows)]
        out.update(pool_layer(pool_kwargs, uows, probe, copy_from_pool=serve))
    finally:
        probe.close()
    return out


def probe_serve(queries, spans: SpanLog) -> dict:
    """Layer probes for a serve workload, on the start of its stream."""
    from repro.cache import ResultCache

    scene = pl.build_scene()
    app = pl.build_app(scene, tr.SERVE_ALGORITHM)
    distinct = list({pl.query_key(q): q for q in queries}.values())
    uows = [pl.query_uow(q) for q in distinct[:SAMPLE]]
    pool_kwargs = dict(
        pl.engine_args(app, tr.SERVE_CONFIG), max_inflight=tr.CONNECTIONS,
        cache=ResultCache(int(tr.CACHE_MB * 2**20), name="probe"),
        cache_members=("E",),
    )
    out = common_layers(scene, app, tr.SERVE_CONFIG, tr.SERVE_ALGORITHM, uows,
                        spans, pool_kwargs, serve=True)
    out["service.render_ms"] = service_render_ms(queries, spans)
    return {k: (v, SOURCES.get(k, "")) for k, v in out.items()}


def service_render_ms(queries, spans) -> float:
    """``QueryService.render`` in-process, warm pool, same settings."""
    from repro.serve import QueryService, SceneSpec

    probe = Probe(spans, "service")
    service = QueryService(
        scenes=[SceneSpec("default", grid=tr.GRID, timesteps=tr.TIMESTEPS,
                          species=tr.SPECIES, nchunks=tr.NCHUNKS,
                          nfiles=tr.NFILES, seed=tr.SCENE_SEED,
                          isovalue=tr.SCENE_ISOVALUE)],
        config=tr.SERVE_CONFIG, algorithm=tr.SERVE_ALGORITHM,
        width=tr.IMAGE, height=tr.IMAGE, copies=tr.COPIES,
        merge_copies=tr.MERGE_COPIES, max_inflight=tr.CONNECTIONS,
        cache_mb=tr.CACHE_MB,
    )
    try:
        service.render(dict(tr.SETUP_QUERY))  # cold build, untimed
        times = [probe.timed("service.render", service.render, dict(q))[1]
                 for q in queries]
    finally:
        service.close()
        probe.close()
    return median(times)


def probe_animate(frames, scene, app, spans: SpanLog) -> dict:
    """Layer probes for animate; copy figures come from its traced runs."""
    uows = [pl.frame_uow(f) for f in frames]
    pool_kwargs = dict(pl.engine_args(app, tr.ANIMATE_CONFIG),
                       max_inflight=tr.CONNECTIONS)
    out = common_layers(scene, app, tr.ANIMATE_CONFIG, tr.ANIMATE_ALGORITHM,
                        uows, spans, pool_kwargs, serve=False)
    return {k: (v, SOURCES.get(k, "")) for k, v in out.items()}


#: Where each probe number comes from, printed beside it.
SOURCES = {
    "kernel.read_ms": "ParSSimDataset.chunk_field, serial frame",
    "kernel.extract_ms": "extract_triangles, serial frame",
    "kernel.raster_ms": "shade + project + raster kernel, serial frame",
    "kernel.merge_ms": "ActivePixelMerger / ZBuffer merge, serial frame",
    "kernel.serial_frame_ms": "all kernels in one thread",
    "kernel.triangles": "serial frame count",
    "kernel.fragments": "raster kernel fragments_tested",
    "kernel.active_pixels": "merge kernel active_pixels()",
    "model.ratio.E": "kernel ms / CostParams prediction",
    "model.ratio.Ra": "kernel ms / CostParams prediction",
    "model.ratio.M": "kernel ms / CostParams prediction",
    "codec.encode_ms_per_mb": "BufferCodec.encode, largest payload",
    "codec.decode_ms_per_mb": "BufferCodec.decode, largest payload",
    "codec.payload_kb": "size of that payload",
    "cache.key_ms": "make_triangle_set + content_key",
    "analysis.verify_ms": "ProcessEngine() deep - shallow",
    "pool.build_s": "WarmPool.__init__ (fork included)",
    "pool.submit_wait_ms": "WarmPool.submit call",
    "pool.cycle_ms": "submit -> PendingQuery.result",
    "pool.control_bytes": "pickled unit of work x workers",
    "service.render_ms": "in-process QueryService.render",
}
for _role in ("source", "raster", "tile_merge", "gather"):
    SOURCES[f"copy.busy_ms.{_role}"] = "Tracer.stage_busy per frame"
    SOURCES[f"copy.blocked_ms.{_role}"] = "Tracer.blocked_time per frame"
for _role in ("triangles", "fragments", "tiles"):
    SOURCES[f"stream.buffers.{_role}"] = "RunMetrics.streams per frame"
    SOURCES[f"stream.bytes.{_role}"] = "RunMetrics.streams per frame"
SOURCES["copy.ack_p50_ms"] = "Tracer.ack_latencies"
SOURCES["acks"] = "RunMetrics.ack_messages per frame"
