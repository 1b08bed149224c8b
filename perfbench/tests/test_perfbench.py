"""Tests of the benchmark's own logic (run: python -m pytest perfbench/tests)."""

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import traffic as tr
from measure import (
    Span,
    SpanLog,
    Tally,
    covered,
    min_samples_for,
    percentile,
    samples_beyond,
    self_times,
    tail,
)

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent


# -- generators --------------------------------------------------------------
def take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [
    lambda seed: take(tr.explore_stream(seed), 50),
    lambda seed: take(tr.revisit_stream(seed), 120),
    lambda seed: tr.revisit_catalogue(seed),
    lambda seed: take(tr.animate_batches(seed), 3),
])
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_explore_queries_are_fresh_and_cover_the_range():
    queries = take(tr.explore_stream(5), 600)
    keys = {(q["isovalue"], q["timestep"]) for q in queries}
    assert len(keys) == len(queries)
    lo, hi = tr.ISO_RANGE
    assert all(lo <= q["isovalue"] <= hi for q in queries)
    # low discrepancy: every tenth of the range gets its share of 200 draws
    bins = Counter(int(10 * (q["isovalue"] - lo) / (hi - lo)) for q in queries[:200])
    assert all(19 <= bins[b] <= 21 for b in range(10))


def test_revisit_catalogue_shares_surfaces_between_views():
    catalogue = tr.revisit_catalogue(9)
    assert len(catalogue) == tr.SURFACES * tr.VIEWS_PER_SURFACE
    surfaces = Counter((e["isovalue"], e["timestep"]) for e in catalogue)
    assert len(surfaces) == tr.SURFACES
    assert set(surfaces.values()) == {tr.VIEWS_PER_SURFACE}


def test_zipf_schedule_tracks_its_weights_with_even_revisits():
    import random

    weights = tr.zipf_weights(24)
    ranks = take(tr.zipf_schedule(random.Random(1), weights), 600)
    for n in (60, 250, 600):
        counts = Counter(ranks[:n])
        for rank, w in enumerate(weights):
            assert abs(counts[rank] - w * n) < 1.5
    gaps = [b - a for a, b in itertools.pairwise(
        [i for i, r in enumerate(ranks) if r == 0])]
    assert max(gaps) - min(gaps) <= 2


def test_animate_frames_orbit_through_timesteps():
    batch = next(tr.animate_batches(2))
    assert len(batch) == tr.ANIMATE_BATCH
    assert [f[0] for f in batch[:4]] == [0, 1, 2, 3]
    assert len({f[1] for f in batch}) == len(batch)


# -- estimators --------------------------------------------------------------
def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 95) == 95
    assert percentile(data, 100) == 100
    assert percentile([7.0], 95) == 7.0


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99.0, 10),
    (999, 95.0, 49),
    (200, 95.0, 10),
    (199, 90.0, 19),
    (100, 90.0, 10),
    (40, 75.0, 10),
    (20, 50.0, 10),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct, beyond):
    t = tail([float(i) for i in range(n)])
    assert (t.pct, t.n, t.beyond) == (pct, n, beyond)
    assert t.value == percentile([float(i) for i in range(n)], pct)


def test_tail_without_support_is_none():
    assert tail([1.0] * 19) is None


def test_min_samples_for_p95_leaves_ten_beyond():
    n = min_samples_for(95.0)
    assert n == 200
    assert samples_beyond(n, 95.0) == 10
    assert samples_beyond(n - 1, 95.0) < 10


# -- span arithmetic ---------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_children_cover():
    spans = [
        Span("client", 0.0, 10.0, sid=0),
        Span("service", 1.0, 3.0, parent=0, sid=1),
        Span("service", 2.0, 5.0, parent=0, sid=2),
        Span("pool", 2.5, 3.0, parent=1, sid=3),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_nested_durations_give_exact_self_times(tmp_path):
    log = SpanLog()
    client = log.add("client.query", 100.0, 100.050, query=1)
    service = log.nested("service.render", client, 0.030, query=1)
    log.nested("pool.query", service, 0.020, query=1)
    assert log.self_ms("client.query") == [pytest.approx(20.0)]
    assert log.self_ms("service.render") == [pytest.approx(10.0)]
    assert log.self_ms("pool.query") == [pytest.approx(20.0)]
    path = tmp_path / "spans.jsonl"
    log.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["parent"] for r in rows] == [None, 0, 1]
    assert {"id", "name", "start", "end", "parent", "query"} == set(rows[0])


# -- failure accounting ------------------------------------------------------
class FakeConnection:
    def __init__(self, response):
        self.line = json.dumps(response).encode() + b"\n"

    def send(self, request):
        pass

    def receive(self):
        return self.line


def test_rejection_counts_as_failed():
    import serve_load

    query = take(tr.explore_stream(1), 1)[0]
    record = serve_load.ask(
        FakeConnection({"ok": False, "rejected": True}), query, False
    )
    tally = Tally()
    serve_load.count(tally, [record])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.reasons == {"rejected": 1}


def test_mismatched_frames_count_as_failed():
    import serve_load

    tally = Tally()
    query = tr.revisit_catalogue(1)[0]
    good = {"ok": True, "latency_s": 0.01, "makespan_s": 0.0, "warm": True,
            "cache": {}, "frame_b64": "AAAA"}
    records = [
        serve_load.ask(FakeConnection(dict(good, frame_b64=frame)), query, False)
        for frame in ("AAAA", "AAAA", "BBBB")
    ]
    serve_load.count(tally, records)
    by_key = serve_load.group_by_key(records)
    (key,) = by_key
    result = serve_load.compare_frames(
        by_key, {key: records[0].digest}, tally
    )
    assert result == {"checked": 1, "wrong": 0, "repeats_wrong": 1}
    assert (tally.attempted, tally.failed) == (3, 1)

    tally = Tally()
    serve_load.count(tally, records[:2])
    serve_load.compare_frames(
        serve_load.group_by_key(records[:2]), {key: "other"}, tally
    )
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.error_rate == 1.0


def test_engine_frame_mismatch_counts_as_failed():
    import animate

    tally = Tally()
    tally.ok(6)
    animate.compare_engines(
        {"process": ["a", "b", "c"], "threaded": ["a", "x", "c"]}, tally
    )
    assert (tally.attempted, tally.failed) == (6, 1)


# -- the contract ------------------------------------------------------------
def test_benchmark_json_matches_the_command():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- one small pool-backed smoke ---------------------------------------------
def test_pool_probe_smoke():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("warm pools need the fork start method")
    import layers
    import pipeline as pl
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((9, 9, 9), timesteps=1, species=1, seed=3)
    profile = DatasetProfile.measured("tiny", dataset, nchunks=8, nfiles=2,
                                      isovalue=0.35)
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    app = IsosurfaceApp(profile, storage, width=24, height=24,
                        algorithm="active", dataset=dataset, isovalue=0.35,
                        merge_copies=2)
    probe = layers.Probe(SpanLog(), "smoke")
    out = layers.pool_layer(
        dict(pl.engine_args(app, "R-E-Ra-M"), max_inflight=1),
        [{"isovalue": 0.35, "timestep": 0}] * 2, probe, copy_from_pool=True,
    )
    probe.close()
    assert out["pool.build_s"] > 0 and out["pool.cycle_ms"] > 0
    assert out["copy.busy_ms.raster"] > 0
    assert out["stream.buffers.triangles"] > 0
    assert out["acks"] > 0
