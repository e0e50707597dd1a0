"""The benchmark command: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 30 --trace 0

Workloads (see README.md for their make-up and why each was chosen):
``ingest_bulk``, ``query_mix`` and ``serve_durable``.  With ``--trace 0``
the last line of output carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a separate traced run.  Every process the benchmark
starts is stopped and reaped before it returns, also when it fails or is
interrupted; a survivor counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time

from common import (
    BENCH_DIR, COST_RATIO_LIMIT, K, SETUP_PROBES, STREAMS, WORK_DIR, WORKLOADS,
    make_streams, program_env, use_program,
)
from tracing import LAYERS

END_TO_END = {
    "setup_s": "s",
    "stream_pts_per_s": "points/s",
    "query_mean_ms": "ms",
    "cost_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.insert_batch_s": "s",
    "core.insert_batch_calls": "count",
    "core.assembly_ms_p50": "ms",
    "core.cache_hit_ratio": "ratio",
    "core.stored_points": "points",
    "coreset.merges": "count",
    "coreset.merge_s": "s",
    "coreset.merge_ms_p50": "ms",
    "kmeans.seeding_s": "s",
    "kmeans.seeding_calls": "count",
    "kmeans.lloyd_s": "s",
    "queries.solve_ms_p50": "ms",
    "queries.solve_ms_p99": "ms",
    "queries.warm_ratio": "ratio",
    "queries.drift_fallbacks": "count",
    "serving.publish_ms_p50": "ms",
    "serving.publish_s": "s",
    "serving.sweep_ms_p50": "ms",
    "serving.wait_ms_p50": "ms",
    "serving.queries_per_sweep": "count",
    "serving.staleness_points_p50": "points",
    "resilience.wal_append_ms_p50": "ms",
    "resilience.wal_append_s": "s",
    "resilience.wal_bytes": "bytes",
    "resilience.recovery_s": "s",
    "resilience.replayed_points": "points",
    "checkpoint.saves": "count",
    "checkpoint.save_ms_p50": "ms",
    "checkpoint.bytes": "bytes",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "loadgen.late_ms_max": "ms",
    "loadgen.query_p50_ms": "ms",
    "loadgen.query_p90_ms": "ms",
    **{f"{layer}.{kind}": unit
       for layer in LAYERS
       for kind, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"))},
    "trace.measured_s": "s",
    "trace.layers_s": "s",
    "bench.remainder_s": "s",
    "trace.overhead_pct": "%",
    "trace.writer_overhead_pct": "%",
}


class Interrupted(BaseException):
    """Raised by SIGTERM/SIGINT/SIGHUP so that clean-up still runs."""


def _interrupt(signum, _frame):
    raise Interrupted(signal.Signals(signum).name)


def measure_setup(children, workload: str, seed: int) -> float:
    """Median time from launching a fresh interpreter to its clusterer taking input."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = children.start(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--probe",
             "--workload", workload, "--seed", str(seed)],
            "set-up probe",
        )
        ready = float(probe.read_until(b"ready", 60.0).split()[1])
        times.append(ready - probe.launched)
        children.reap(probe, 30.0)
    return sorted(times)[len(times) // 2]


def run_inprocess(children, work, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from reference import kmeans_cost, reference_kmeans

    setup = None if trace else measure_setup(children, workload, seed)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", str(work), "--spans", str(WORK_DIR / "traces" / f"{workload}-{seed}.jsonl")]
    worker = children.start(argv, "worker")
    line = worker.read_until(b'"attempted"', seconds + 90.0)
    done = children.reap(worker, 60.0)
    wall = time.monotonic() - worker.launched
    if done is None or done.code != 0:
        raise RuntimeError(f"worker ended with {done}")
    out = json.loads(line)
    broken = list(out["broken"])

    # Mean over the streams of the final answer's cost over its whole stream,
    # relative to the reference solution of that stream.
    finals = np.load(work / "centers.npy")
    ratios = []
    for j, stream in enumerate(make_streams(seed)):
        _, best = reference_kmeans(stream, K, seed * STREAMS + j)
        ratios.append(kmeans_cost(stream, finals[j]) / best)
    ratio = float(np.mean(ratios))
    if not ratio <= COST_RATIO_LIMIT:
        broken.append(f"cost_ratio {ratio:.4f} above the limit {COST_RATIO_LIMIT}")

    untraced = out["untraced"]
    metrics = {
        "setup_s": setup,
        "stream_pts_per_s": untraced["stream_pts_per_s"],
        "query_mean_ms": untraced["query_mean_ms"],
        "cost_ratio": ratio,
        "peak_rss_mb": done.peak_rss_mb,
    }
    layers = {}
    if trace:
        layers = dict(out["layers"])
        traced = out["traced"]
        # The throughput drop for ingest, the latency rise for query_mix.
        if workload == "ingest_bulk":
            overhead = 1.0 - traced["stream_pts_per_s"] / untraced["stream_pts_per_s"]
        else:
            overhead = traced["query_mean_ms"] / untraced["query_mean_ms"] - 1.0
        layers["trace.overhead_pct"] = 100.0 * overhead
        layers["loadgen.late_ms_max"] = 0.0
        layers["loadgen.query_p50_ms"] = untraced["query_p50_ms"]
        layers["loadgen.query_p90_ms"] = untraced["query_p90_ms"]
        layers["process.cpu_s"] = done.cpu_s
        layers["process.wall_s"] = wall
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "correct": not broken,
        "errors": out["errors"] + broken,
        "metrics": metrics,
        "layers": layers,
    }


def _number(value) -> float:
    """A metric value as a finite float (0.0 where nothing was measured)."""
    value = float(value or 0.0)
    return value if math.isfinite(value) else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_program()

    from children import Children

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _interrupt)
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children = Children(program_env(), cwd=str(BENCH_DIR.parent))
    trace = bool(args.trace)
    try:
        if args.workload == "serve_durable":
            import serve

            result = serve.run(children, work, args.seed, args.seconds, trace)
        else:
            result = run_inprocess(children, work, args.workload, args.seed, args.seconds, trace)
    finally:
        # A second signal must not cut the clean-up short.
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        survivors = children.close()
        shutil.rmtree(work, ignore_errors=True)
    if survivors:
        result["failed"] += survivors
        result["attempted"] += survivors
        result["errors"].append(f"{survivors} started process group(s) outlived the run")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)

    names = PER_LAYER if trace else END_TO_END
    values = result["layers"] if trace else result["metrics"]
    print(json.dumps({
        "correct": bool(result["correct"]) and not survivors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": _number(values.get(name)), "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
