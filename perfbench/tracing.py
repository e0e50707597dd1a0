"""Span tracing around calls into the program's layers, from outside the program.

:func:`install` replaces public functions of each layer (``core``,
``coreset``, ``kmeans``, ``queries``, ``serving``, ``resilience``,
``checkpoint``) with wrappers that record one span per call: name, start,
end, the enclosing span on the same thread, the thread, and a small
call-specific detail.  Nothing under ``src/`` changes; a wrapper sits at the
attribute its callers look up (a class attribute, or the module global a
caller resolves at call time).

Spans are kept in memory while a window is open (:meth:`Tracer.start_window`
/ :meth:`Tracer.stop_window`) and written out once, at the end.
:meth:`Tracer.summary` derives each layer's busy time, self time and call
count, plus the named per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from common import percentile, use_program

LAYERS = ("core", "coreset", "kmeans", "queries", "serving", "resilience", "checkpoint")


class Tracer:
    """Collects spans; wrappers record only while a window is open."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.spans: list[tuple] = []
        self.windows: list[tuple[float, float]] = []
        #: The clusterer the traced ``insert_batch`` calls last went to.
        self.clusterer = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._window_start = 0.0

    def start_window(self) -> None:
        self._window_start = time.perf_counter()
        self.enabled = True

    def stop_window(self) -> None:
        self.enabled = False
        self.windows.append((self._window_start, time.perf_counter()))

    def toggle(self) -> None:
        (self.stop_window if self.enabled else self.start_window)()

    def wrap(self, owner, attr: str, name: str, detail=None, always: bool = False,
             keeps_clusterer: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``detail(args, result)`` adds a per-call number; ``always`` records
        even outside a window (for one-off calls such as start-up recovery);
        ``keeps_clusterer`` remembers ``args[0]`` as :attr:`clusterer`.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not (tracer.enabled or always):
                return original(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if keeps_clusterer:
                    tracer.clusterer = args[0]
                extra = detail(args, result) if detail is not None and result is not None else None
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.current_thread().name, extra)
                )

        setattr(owner, attr, traced)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds, perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, thread, extra in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "workload": self.workload,
                    "detail": extra,
                }) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans recorded inside windows."""
        spans = [s for s in self.spans if self._inside(s[2])]
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            child_time[s[4]] += s[3] - s[2]
        out: dict[str, float] = {}
        per_thread_self: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for s in spans:
            layer = s[1].split(".")[0]
            duration = s[3] - s[2]
            own = duration - child_time[s[0]]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            per_thread_self[s[5]] += own
            parent = by_id.get(s[4])
            if parent is None or parent[1].split(".")[0] != layer:
                out[f"{layer}.busy_s"] += duration

        def durations(*names):
            return [s[3] - s[2] for s in spans if s[1] in names]

        def details(*names):
            return [s[6] for s in spans if s[1] in names and s[6] is not None]

        insert = durations("core.insert_batch")
        out["core.insert_batch_s"] = sum(insert)
        out["core.insert_batch_calls"] = len(insert)
        out["core.assembly_ms_p50"] = 1e3 * percentile(durations("core.query_coreset"), 50)

        merges = durations("coreset.build_for_span")
        out["coreset.merges"] = len(merges)
        out["coreset.merge_s"] = sum(merges)
        out["coreset.merge_ms_p50"] = 1e3 * percentile(merges, 50)

        seeding = durations("kmeans.seeding")
        out["kmeans.seeding_s"] = sum(seeding)
        out["kmeans.seeding_calls"] = len(seeding)
        # Self time, so cold solves' nested k-means++ seeding is not counted twice.
        out["kmeans.lloyd_s"] = sum(
            (s[3] - s[2]) - child_time[s[0]] for s in spans if s[1] == "kmeans.lloyd"
        )

        solves = durations("queries.solve", "queries.solve_multi")
        out["queries.solve_ms_p50"] = 1e3 * percentile(solves, 50)
        out["queries.solve_ms_p99"] = 1e3 * percentile(solves, 99)
        flags = details("queries.solve", "queries.solve_multi")
        answered = sum(f[0] for f in flags)
        out["queries.warm_ratio"] = sum(f[1] for f in flags) / answered if answered else 0.0
        out["queries.drift_fallbacks"] = sum(f[2] for f in flags)

        publishes = _paired_publish(spans)
        out["serving.publish_ms_p50"] = 1e3 * percentile(publishes, 50)
        out["serving.publish_s"] = sum(publishes)
        sweeps = durations("serving.sweep")
        out["serving.sweep_ms_p50"] = 1e3 * percentile(sweeps, 50)
        out["serving.sweeps"] = len(sweeps)

        appends = durations("resilience.wal_append")
        out["resilience.wal_append_ms_p50"] = 1e3 * percentile(appends, 50)
        out["resilience.wal_append_s"] = sum(appends)
        out["resilience.wal_bytes"] = sum(details("resilience.wal_append"))
        # Start-up recovery runs before any window opens; it is always recorded.
        recovery = [s for s in self.spans if s[1] == "resilience.resume"]
        out["resilience.recovery_s"] = sum(s[3] - s[2] for s in recovery)
        out["resilience.replayed_points"] = sum(s[6] or 0 for s in recovery)

        saves = durations("checkpoint.save")
        out["checkpoint.saves"] = len(saves)
        out["checkpoint.save_ms_p50"] = 1e3 * percentile(saves, 50)
        out["checkpoint.bytes"] = sum(details("checkpoint.save"))

        if self.clusterer is not None:
            cache = self.clusterer.structure.cache_stats()
            out["core.cache_hit_ratio"] = cache.hits / cache.lookups if cache.lookups else 0.0
            out["core.stored_points"] = self.clusterer.stored_points()
        else:
            out["core.cache_hit_ratio"] = 0.0
            out["core.stored_points"] = 0

        # Accounting: on the busiest thread, the layers' self time plus the
        # benchmark's own remainder make up the traced window.
        measured = sum(end - start for start, end in self.windows)
        main_self = max(per_thread_self.values(), default=0.0)
        out["trace.measured_s"] = measured
        out["trace.layers_s"] = main_self
        out["bench.remainder_s"] = measured - main_self
        return out

    def _inside(self, t: float) -> bool:
        return any(start <= t <= end for start, end in self.windows)


def _paired_publish(spans) -> list[float]:
    """Per publication: snapshot assembly plus the publisher swap that follows it."""
    pending: dict[str, float] = {}
    totals = []
    for s in sorted(spans, key=lambda s: s[2]):
        if s[1] == "serving.collect_snapshot":
            pending[s[5]] = s[3] - s[2]
        elif s[1] == "serving.publish":
            totals.append(pending.pop(s[5], 0.0) + s[3] - s[2])
    return totals


def _solution_flags(args, solution) -> tuple[int, int, int]:
    return 1, int(solution.warm_start), int(solution.drift_fallback)


def _multi_flags(args, solutions) -> tuple[int, int, int]:
    values = list(solutions.values())
    return (
        len(values),
        sum(int(s.warm_start) for s in values),
        sum(int(s.drift_fallback) for s in values),
    )


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the README's layer map)."""
    use_program()
    import repro.coreset.construction as construction
    import repro.kmeans.batch as kmeans_batch
    import repro.queries.serving as query_serving
    from repro.core.cached_tree import CachedCoresetTree
    from repro.core.driver import StreamClusterDriver
    from repro.core.serving_mixin import CoresetServingMixin
    from repro.queries.serving import QueryEngine
    from repro.resilience.supervisor import IngestSupervisor
    from repro.resilience.wal import WriteAheadLog
    from repro.serving.plane import PlaneReader, ServingPlane
    from repro.serving.snapshot import SnapshotPublisher

    wrap = tracer.wrap
    wrap(StreamClusterDriver, "insert_batch", "core.insert_batch", keeps_clusterer=True)
    wrap(CachedCoresetTree, "query_coreset", "core.query_coreset")
    wrap(construction.CoresetConstructor, "build_for_span", "coreset.build_for_span")
    # k-means++ is looked up as a module global by the coreset constructor and
    # by the batch solver; Lloyd as the query engine imports it.
    wrap(construction, "kmeanspp_seeding", "kmeans.seeding")
    wrap(kmeans_batch, "kmeanspp_seeding", "kmeans.seeding")
    wrap(query_serving, "weighted_kmeans", "kmeans.lloyd")
    wrap(query_serving, "lloyd_iterations", "kmeans.lloyd")
    wrap(QueryEngine, "solve", "queries.solve", detail=_solution_flags)
    wrap(QueryEngine, "solve_multi", "queries.solve_multi", detail=_multi_flags)
    wrap(CoresetServingMixin, "collect_serving_snapshot", "serving.collect_snapshot")
    wrap(SnapshotPublisher, "publish", "serving.publish")
    wrap(PlaneReader, "query_multi_k", "serving.sweep")
    wrap(WriteAheadLog, "append", "resilience.wal_append",
         detail=lambda args, record: int(record.batch.nbytes))
    wrap(IngestSupervisor, "resume", "resilience.resume",
         detail=lambda args, event: int(event.replayed_points), always=True)
    # Every checkpoint save, periodic or final, goes through the plane's snapshot.
    wrap(ServingPlane, "snapshot", "checkpoint.save", detail=lambda args, path: _dir_bytes(path))
