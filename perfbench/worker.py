"""The process that does the work of ``ingest_bulk`` and ``query_mix``.

Started fresh by ``run.py`` for each run, so its peak memory and CPU time
(read by ``run.py`` with ``os.wait4``) belong to this workload alone.  It
makes the stream from the seed, then runs whole rounds until the run time is
up.  A round is one fresh ``CachedCoresetTreeClusterer`` (k = 20, default
m = 400, float64) fed one whole stream; a cycle is one round per stream:

* ``ingest_bulk``: ``insert_batch`` in batches of 2,000, then one ``query``;
* ``query_mix``: batches of 200, each followed by one ``query`` (warm start
  on, as by default).

It checks every answer, prints one JSON line of results and saves the last
cycle's final centers for the cost check.  With ``--probe`` it instead
measures set-up: it prints the monotonic clock once the clusterer has taken
its first batch.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from common import BATCH, DIMENSION, K, make_streams, percentile, space_bound, use_program


def probe(workload: str, seed: int) -> int:
    """Build a clusterer and hand it its first batch; print when that returns."""
    first = np.random.default_rng(seed).normal(size=(BATCH[workload], DIMENSION))
    use_program()
    from repro.core.base import StreamingConfig
    from repro.core.driver import CachedCoresetTreeClusterer

    clusterer = CachedCoresetTreeClusterer(StreamingConfig(k=K, seed=seed))
    clusterer.insert_batch(first)
    print(f"ready {time.monotonic():.9f}", flush=True)
    return 0


class Round:
    """Outcome of one round: timings, operation counts and check failures."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        #: Failed operations (counted in ``failed``).
        self.errors: list[str] = []
        #: Properties the round broke (make the run incorrect).
        self.broken: list[str] = []
        self.centers: np.ndarray | None = None
        self.stored_points = 0


def _check_answer(result, rnd: Round) -> None:
    centers = np.asarray(result.centers)
    if centers.shape != (K, DIMENSION) or not np.isfinite(centers).all():
        rnd.failed += 1
        rnd.errors.append(f"answer has shape {centers.shape} or non-finite centers")
    rnd.centers = centers


def run_round(workload: str, stream: np.ndarray, seed: int) -> Round:
    from repro.core.base import StreamingConfig
    from repro.core.driver import CachedCoresetTreeClusterer

    rnd = Round()
    batch = BATCH[workload]
    interleave = workload == "query_mix"
    start = time.perf_counter()
    clusterer = CachedCoresetTreeClusterer(StreamingConfig(k=K, seed=seed))
    for lo in range(0, stream.shape[0], batch):
        rnd.attempted += 1
        try:
            clusterer.insert_batch(stream[lo:lo + batch])
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            rnd.failed += 1
            rnd.errors.append(f"insert_batch: {type(exc).__name__}: {exc}")
        if interleave or lo + batch >= stream.shape[0]:
            rnd.attempted += 1
            asked = time.perf_counter()
            try:
                result = clusterer.query()
            except Exception as exc:  # noqa: BLE001
                rnd.failed += 1
                rnd.errors.append(f"query: {type(exc).__name__}: {exc}")
                continue
            rnd.latencies.append(time.perf_counter() - asked)
            _check_answer(result, rnd)
    rnd.seconds = time.perf_counter() - start
    rnd.points = stream.shape[0]
    rnd.stored_points = clusterer.stored_points()
    if clusterer.points_seen != rnd.points:
        rnd.broken.append(f"points_seen {clusterer.points_seen} != {rnd.points} fed")
    bound = space_bound(rnd.points)
    if rnd.stored_points > bound:
        rnd.broken.append(f"stored_points {rnd.stored_points} exceeds the space bound {bound}")
    return rnd


def summarize(rounds: list[Round]) -> dict:
    latencies = [x for r in rounds for x in r.latencies]
    seconds = sum(r.seconds for r in rounds)
    return {
        "rounds": len(rounds),
        "seconds": seconds,
        "points": sum(r.points for r in rounds),
        "stream_pts_per_s": sum(r.points for r in rounds) / seconds,
        "query_mean_ms": 1e3 * float(np.mean(latencies)) if latencies else 0.0,
        "query_p50_ms": 1e3 * percentile(latencies, 50),
        "query_p90_ms": 1e3 * percentile(latencies, 90),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(BATCH), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for centers.npy (and spans)")
    parser.add_argument("--spans", help="file to write the trace's spans to")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        return probe(args.workload, args.seed)

    use_program()
    streams = make_streams(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer(args.workload)
        install(tracer)
    rounds: list[Round] = []
    traced: list[Round] = []
    last: list[Round] = []
    deadline = time.monotonic() + args.seconds
    # Whole cycles only (one round per stream); a traced run alternates
    # untraced and traced cycles, so the tracing overhead is measured
    # against the same process.
    cycle = 0
    while time.monotonic() < deadline or (tracer is not None and not traced):
        on = tracer is not None and cycle % 2 == 1
        if on:
            tracer.start_window()
        last = [run_round(args.workload, stream, args.seed) for stream in streams]
        if on:
            tracer.stop_window()
        (traced if on else rounds).extend(last)
        cycle += 1
    every = rounds + traced
    result = {
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "errors": sorted({e for r in every for e in r.errors})[:20],
        "broken": sorted({e for r in every for e in r.broken})[:20],
        "untraced": summarize(rounds),
    }
    if args.out:
        np.save(f"{args.out}/centers.npy", np.stack([r.centers for r in last]))
    if tracer is not None:
        result["traced"] = summarize(traced)
        result["layers"] = tracer.summary()
        if args.spans:
            from pathlib import Path

            tracer.write_spans(Path(args.spans))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
