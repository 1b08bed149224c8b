"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Workloads: ``explore`` and ``revisit`` (closed-loop ``repro serve``
traffic) and ``animate`` (frame batches on the process and threaded
engines); ``--workload all`` runs the three in turn in one process and
prefixes each JSON metric with its workload.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer table and writes the run's spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.  Human-readable tables come
first; the last line of standard output is the JSON result.  The exit
status is 0 only when every output check passed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from measure import SpanLog, describe, samples_beyond, tail

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore", "revisit", "animate")

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics the traced run reports in its
#: JSON line.  These are measured on every workload; layers only a serve
#: workload has (front end, service) are printed in its table.
PER_LAYER = (
    ("kernel.read_ms", "ms"),
    ("kernel.extract_ms", "ms"),
    ("kernel.raster_ms", "ms"),
    ("kernel.merge_ms", "ms"),
    ("kernel.serial_frame_ms", "ms"),
    ("kernel.triangles", "count"),
    ("kernel.fragments", "count"),
    ("kernel.active_pixels", "count"),
    ("model.ratio.E", "ratio"),
    ("model.ratio.Ra", "ratio"),
    ("model.ratio.M", "ratio"),
    ("codec.encode_ms_per_mb", "ms/MB"),
    ("codec.decode_ms_per_mb", "ms/MB"),
    ("cache.key_ms", "ms"),
    ("analysis.verify_ms", "ms"),
    ("pool.build_s", "s"),
    ("pool.submit_wait_ms", "ms"),
    ("pool.cycle_ms", "ms"),
    ("pool.control_bytes", "bytes"),
    ("copy.busy_ms.source", "ms"),
    ("copy.busy_ms.raster", "ms"),
    ("copy.busy_ms.tile_merge", "ms"),
    ("copy.busy_ms.gather", "ms"),
    ("copy.blocked_ms.source", "ms"),
    ("copy.ack_p50_ms", "ms"),
    ("acks", "count"),
    ("stream.buffers.triangles", "count"),
    ("stream.bytes.triangles", "bytes"),
    ("stream.buffers.fragments", "count"),
    ("stream.bytes.fragments", "bytes"),
    ("stream.buffers.tiles", "count"),
    ("stream.bytes.tiles", "bytes"),
    ("trace.overhead", "ratio"),
    ("cache.tile_hit_share", "share"),
    ("cache.triangle_hit_share", "share"),
    ("cache.miss_share", "share"),
    ("cache.evictions", "count"),
    ("cache.bytes_saved", "bytes"),
    ("service.cold_builds", "count"),
    ("frontend.response_kb", "KiB"),
    ("leaked_shm_segments", "count"),
    ("orphan_processes", "count"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_end_to_end(workload, seed, result) -> None:
    m, tally = result["metrics"], result["tally"]
    lat = result["latencies"]
    t = tail(lat)
    print(f"== {workload}  seed {seed}  (end to end, tracing off)")
    if workload == "animate":
        for name in ("process", "threaded"):
            print(f"  frames_per_s.{name:<9} {result['fps'][name]:10.3f} 1/s"
                  f"   n={result['frames'][name]} frames")
        print(f"  throughput_per_s       {m['throughput_per_s']:10.3f} 1/s"
              f"   both engines' frames / their run_cycles wall time")
        what = "frame delivered, from its batch's start"
    else:
        print(f"  throughput_qps         {m['throughput_per_s']:10.3f} 1/s"
              f"   n={len(lat)} queries in {result['window_s']:.2f} s"
              f" (JSON: throughput_per_s)")
        what = "client send to full response"
    print(f"  latency_p50_ms         {m['latency_p50_ms']:10.3f} ms"
          f"    n={len(lat)}; {what}")
    supported = f"p{t.pct:g}" if t else "none"
    print(f"  latency_p95_ms         {m['latency_p95_ms']:10.3f} ms"
          f"    n={len(lat)}, {samples_beyond(len(lat), 95.0)} beyond;"
          f" highest percentile with 10 beyond: {supported}")
    print(f"  error_rate             {tally.error_rate:10.4f}"
          f"       {tally.failed} of {tally.attempted} operations failed"
          + (f" {dict(tally.reasons)}" if tally.reasons else ""))
    setups = ", ".join(f"{s:.3f}" for s in result["setups"])
    print(f"  setup_s                {m['setup_s']:10.3f} s     "
          f"median of {len(result['setups'])}: [{setups}]")
    print(f"  peak_rss_mb            {m['peak_rss_mb']:10.1f} MB"
          f"    n={result['rss_samples']} samples, RSS summed over the process tree")
    leaks = result["leaks"]
    print(f"  leaked_shm_segments    {leaks['leaked_shm_segments']:10d}")
    print(f"  orphan_processes       {leaks['orphan_processes']:10d}")
    if workload != "animate":
        s = result["shares"]
        print(f"  paths: tile hit {s['tile_hit']:.3f}, triangle-only hit "
              f"{s['triangle_hit']:.3f}, miss {s['miss']:.3f}; "
              f"cold {s['cold']}, warm {s['warm']}")
        c = result["checks"]
        print(f"  checks: {c['checked']} frames vs ThreadedEngine reference,"
              f" {c['wrong']} wrong; {c['repeats_wrong']} repeats differ")
    print(f"  latency detail: {describe(lat)}")


def print_layers(workload, seed, result) -> None:
    print(f"== {workload}  seed {seed}  (per layer, traced run)")
    for name, (value, source) in sorted(result["layers"].items()):
        print(f"  {name:<32} {value:14.4f}   {source}")
    leaks = result["leaks"]
    print(f"  {'leaked_shm_segments':<32} {leaks['leaked_shm_segments']:14d}")
    print(f"  {'orphan_processes':<32} {leaks['orphan_processes']:14d}")
    tally = result["tally"]
    print(f"  error_rate {tally.error_rate:.4f}: {tally.failed} of "
          f"{tally.attempted} operations failed"
          + (f" {dict(tally.reasons)}" if tally.reasons else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            result = measure_workload(workload, args)
            attempted += result["tally"].attempted
            failed += result["tally"].failed
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, value in result["json_metrics"].items():
                metrics[prefix + name] = value
    finally:
        from sut import stop_resource_tracker

        stop_resource_tracker()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def measure_workload(workload, args) -> dict:
    """Run the workload; print its table; attach the JSON metrics."""
    import animate
    import serve_load

    if args.trace:
        spans = SpanLog()
        if workload == "animate":
            result = animate.run_traced(args.seed, args.seconds, spans)
        else:
            result = serve_load.run_traced(
                ROOT, workload, args.seed, args.seconds, spans
            )
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload}-{args.seed}.jsonl"
        spans.write_jsonl(path)
        print_layers(workload, args.seed, result)
        print(f"  spans: {len(spans.spans)} written to "
              f"{path.relative_to(ROOT)}")
        values = {k: v for k, (v, _) in result["layers"].items()}
        values.update(result["leaks"])
        result["json_metrics"] = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        if workload == "animate":
            result = animate.run(args.seed, args.seconds)
        else:
            result = serve_load.run(ROOT, workload, args.seed, args.seconds)
        print_end_to_end(workload, args.seed, result)
        result["json_metrics"] = {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in END_TO_END
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
