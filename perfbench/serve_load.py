"""The ``explore`` and ``revisit`` workloads: closed-loop ``repro serve`` traffic.

Each run launches the server ``SETUPS`` times with the same flags.  Every
launch is timed to its first answered query (``setup_s``) and ends with the
shutdown and leak checks; the last launch carries the measured traffic.
The client does no more per response than parse it and digest its frame;
references are rendered after the timed window.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

import pipeline as pl
import traffic as tr
from measure import SpanLog, Tally, median, min_samples_for, percentile
from sut import Connection, Server, shm_names

#: Server launches per run; ``setup_s`` is their median.
SETUPS = 3
#: A run measures at least this many queries, so ``latency_p95_ms`` always
#: has ten samples beyond it, even when that takes longer than ``--seconds``.
MIN_SAMPLES = min_samples_for(95.0)
#: Hard stop for a run that cannot reach ``MIN_SAMPLES``, in ``--seconds``.
MAX_STRETCH = 3.0
#: Explore queries per run checked against a reference render.
EXPLORE_CHECKS = 6
#: Untimed revisit traffic before the window, letting the cache fill.
REVISIT_WARMUP_S = 3.0

STREAMS = {"explore": tr.explore_stream, "revisit": tr.revisit_stream}


@dataclass
class Record:
    """One query as the client saw it."""

    key: str
    query: dict
    t_send: float
    t_recv: float
    ok: bool = False
    error: str = ""
    latency_s: float = 0.0
    makespan_s: float = 0.0
    warm: bool = True
    cache: dict = field(default_factory=dict)
    digest: str = ""
    response_bytes: int = 0

    @property
    def client_ms(self) -> float:
        return (self.t_recv - self.t_send) * 1000.0

    @property
    def path(self) -> str:
        """tile hit, triangle-only hit or miss, from the response."""
        if self.cache.get("tiles") == "hit":
            return "tile_hit"
        if self.cache.get("triangles") == "hit":
            return "triangle_hit"
        return "miss"


def ask(conn: Connection, query: dict, traced: bool) -> Record:
    request = dict(query, trace=True) if traced else query
    record = Record(pl.query_key(query), query, time.perf_counter(), 0.0)
    try:
        conn.send(request)
        line = conn.receive()
        record.t_recv = time.perf_counter()
        response = json.loads(line)
    except (OSError, ValueError) as exc:
        record.t_recv = time.perf_counter()
        record.error = f"transport: {exc}"
        return record
    record.response_bytes = len(line)
    if not response.get("ok"):
        record.error = (
            "rejected" if response.get("rejected") else
            f"error: {response.get('error')}"
        )
        return record
    record.ok = True
    record.latency_s = float(response["latency_s"])
    record.makespan_s = float(response["makespan_s"])
    record.warm = bool(response["warm"])
    record.cache = response.get("cache") or {}
    record.digest = pl.b64_digest(response["frame_b64"])
    return record


def closed_loop(port, stream, seconds, min_samples=0, traced=False):
    """Drive ``CONNECTIONS`` connections, each taking the stream's next
    query when its previous one is answered, until the window closes.

    Returns ``(records, t_start, t_end)``; ``t_end`` is the last response.
    """
    records: list[Record] = []
    lock = threading.Lock()
    t_start = time.perf_counter()
    hard_stop = t_start + seconds * MAX_STRETCH

    def done() -> bool:
        now = time.perf_counter()
        with lock:
            count = len(records)
        return now >= hard_stop or (
            now - t_start >= seconds and count >= min_samples
        )

    def client():
        conn = Connection(port)
        try:
            while not done():
                with lock:
                    query = next(stream)
                record = ask(conn, query, traced)
                with lock:
                    records.append(record)
                if record.error.startswith("transport"):
                    break
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client) for _ in range(tr.CONNECTIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_end = max((r.t_recv for r in records), default=time.perf_counter())
    return records, t_start, t_end


def launch(root, tally) -> "tuple[Server, Record, float]":
    """Start a server; returns it, its first query and the set-up time
    (launch to that query's answer)."""
    server = Server(root)
    try:
        conn = Connection(server.port)
        try:
            record = ask(conn, tr.SETUP_QUERY, False)
        finally:
            conn.close()
    except BaseException:
        server.kill()
        raise
    count(tally, [record])
    return server, record, record.t_recv - server.t_launch


def stop(server, shm_before, tally, leaks) -> None:
    result = server.shutdown(shm_before)
    tally.ok()  # the shutdown itself
    if not result["clean_exit"]:
        tally.retract("server did not exit cleanly")
    for kind in ("leaked_shm_segments", "orphan_processes"):
        leaks[kind] += result[kind]
        if result[kind]:
            tally.fail(kind, result[kind])


def count(tally: Tally, records) -> None:
    for record in records:
        if record.ok:
            tally.ok()
        else:
            tally.fail(record.error.split(":")[0])


def group_by_key(records) -> "dict[str, list[Record]]":
    by_key: dict[str, list[Record]] = {}
    for record in records:
        if record.ok:
            by_key.setdefault(record.key, []).append(record)
    return by_key


def compare_frames(by_key, references, tally) -> dict:
    """Count wrong frames as failed operations.

    Every repeat of a key must carry its first response's frame, and the
    first response must match ``references[key]`` (when given); a wrong
    first response makes every response of its key wrong.
    """
    wrong = repeats_wrong = 0
    for key, records in by_key.items():
        first = records[0].digest
        if key in references and references[key] != first:
            wrong += 1
            tally.retract("frame differs from the reference", len(records))
            continue
        for record in records[1:]:
            if record.digest != first:
                repeats_wrong += 1
                tally.retract("frame differs from the entry's first response")
    return {"checked": len(references), "wrong": wrong,
            "repeats_wrong": repeats_wrong}


def reference_digests(queries) -> "dict[str, str]":
    """Frames of ``queries`` rendered untimed on a ``ThreadedEngine``."""
    from repro.engines import ThreadedEngine

    app = pl.build_app(pl.build_scene(), tr.SERVE_ALGORITHM)
    engine = ThreadedEngine(**pl.engine_args(app, tr.SERVE_CONFIG))
    runs = engine.run_cycles([pl.query_uow(q) for q in queries])
    return {
        pl.query_key(q): pl.image_digest(m.result.image)
        for q, m in zip(queries, runs)
    }


def check_frames(workload, seed, records, setup_records, tally) -> dict:
    """explore: a seeded sample of queries (and the set-up query) against
    the reference.  revisit: every catalogue entry requested, and every
    repeat of an entry against its first response."""
    by_key = group_by_key(setup_records + records)
    if workload == "explore":
        rng = random.Random(f"{seed}:check")
        ok = [r for r in records if r.ok]
        sample = rng.sample(ok, min(EXPLORE_CHECKS, len(ok)))
        keys = [pl.query_key(tr.SETUP_QUERY)] + [r.key for r in sample]
    else:
        keys = list(by_key)
    references = reference_digests([by_key[k][0].query for k in keys])
    return compare_frames(by_key, references, tally)


def path_mix(records) -> dict:
    ok = [r for r in records if r.ok]
    n = max(len(ok), 1)
    mix = {p: sum(r.path == p for r in ok) / n
           for p in ("tile_hit", "triangle_hit", "miss")}
    mix["cold"] = sum(not r.warm for r in ok)  # counts, not shares
    mix["warm"] = sum(r.warm for r in ok)
    return mix


def traffic_phase(root, workload, seed, seconds, shm_before, tally, leaks,
                  traced=False, min_samples=0):
    """One launch serving one measured window; returns its facts."""
    server, setup, setup_s = launch(root, tally)
    try:
        stream = STREAMS[workload](seed)
        warm = []
        if workload == "revisit":
            warm, _, _ = closed_loop(server.port, stream, REVISIT_WARMUP_S)
            count(tally, warm)
        records, t0, t1 = closed_loop(
            server.port, stream, seconds, min_samples, traced
        )
        count(tally, records)
        conn = Connection(server.port)
        try:
            stats = conn.call({"cmd": "stats"})["stats"]
        finally:
            conn.close()
    finally:
        stop(server, shm_before, tally, leaks)
    return {
        "setup": setup, "setup_s": setup_s, "warm": warm, "records": records,
        "window": t1 - t0, "stats": stats, "peak_mb": server.sampler.peak_mb,
        "rss_samples": server.sampler.samples,
    }


def run(root, workload, seed, seconds) -> dict:
    """The timed run: end-to-end metrics, checks, leaks."""
    tally = Tally()
    leaks = {"leaked_shm_segments": 0, "orphan_processes": 0}
    shm_before = shm_names()
    setup_records, setup_times = [], []
    for _ in range(SETUPS - 1):
        server, setup, setup_s = launch(root, tally)
        setup_records.append(setup)
        setup_times.append(setup_s)
        stop(server, shm_before, tally, leaks)
    phase = traffic_phase(
        root, workload, seed, seconds, shm_before, tally, leaks,
        min_samples=MIN_SAMPLES,
    )
    setup_records.append(phase["setup"])
    setup_times.append(phase["setup_s"])
    records = phase["records"]
    checks = check_frames(
        workload, seed, phase["warm"] + records, setup_records, tally
    )
    ok = [r for r in records if r.ok]
    latencies = [r.client_ms for r in ok]
    return {
        "tally": tally,
        "metrics": {
            "throughput_per_s": len(ok) / phase["window"],
            "latency_p50_ms": percentile(latencies, 50.0),
            "latency_p95_ms": percentile(latencies, 95.0),
            "setup_s": median(setup_times),
            "peak_rss_mb": phase["peak_mb"],
        },
        "latencies": latencies,
        "setups": setup_times,
        "window_s": phase["window"],
        "rss_samples": phase["rss_samples"],
        "shares": path_mix(records),
        "checks": checks,
        "leaks": leaks,
        "stats": phase["stats"],
    }


def run_traced(root, workload, seed, seconds, spans: SpanLog) -> dict:
    """Untraced and traced windows of ``seconds / 2`` on fresh launches,
    then the in-process layer probes."""
    import layers

    tally = Tally()
    leaks = {"leaked_shm_segments": 0, "orphan_processes": 0}
    shm_before = shm_names()
    half = seconds / 2.0
    plain = traffic_phase(root, workload, seed, half, shm_before, tally, leaks)
    traced = traffic_phase(
        root, workload, seed, half, shm_before, tally, leaks, traced=True
    )
    checks = check_frames(
        workload, seed,
        plain["warm"] + plain["records"] + traced["warm"] + traced["records"],
        [plain["setup"], traced["setup"]], tally,
    )
    ok = [r for r in traced["records"] if r.ok]
    for i, record in enumerate(ok):
        client = spans.add("client.query", record.t_send, record.t_recv,
                           query=i)
        service = spans.nested("service.render", client, record.latency_s,
                               query=i)
        spans.nested("pool.query", service, record.makespan_s, query=i)
    thr_plain = sum(r.ok for r in plain["records"]) / plain["window"]
    thr_traced = len(ok) / traced["window"]
    shares = path_mix(traced["records"])
    cache = traced["stats"]["cache"]["shared"]
    out = {
        "frontend.self_ms": (median(spans.self_ms("client.query")),
                             "client latency - response latency_s"),
        "frontend.response_kb": (
            median([r.response_bytes / 1024.0 for r in ok]),
            "response line length"),
        "service.self_ms": (median(spans.self_ms("service.render")),
                            "response latency_s - makespan_s"),
        "service.cold_builds": (
            sum(not r.warm for r in traced["records"] + [traced["setup"]]),
            "response warm flag"),
        "cache.tile_hit_share": (shares["tile_hit"], "response cache block"),
        "cache.triangle_hit_share": (shares["triangle_hit"],
                                     "response cache block"),
        "cache.miss_share": (shares["miss"], "response cache block"),
        "cache.evictions": (cache["evictions"], "stats command"),
        "cache.bytes_saved": (cache["bytes_saved"], "stats command"),
        "trace.overhead": (thr_plain / thr_traced,
                           "untraced / traced throughput, same seed"),
    }
    stream = STREAMS[workload](seed)
    sample = [next(stream) for _ in range(layers.SERVICE_SAMPLE)]
    out.update(layers.probe_serve(sample, spans))
    return {"tally": tally, "layers": out, "checks": checks, "leaks": leaks,
            "shares": shares}
