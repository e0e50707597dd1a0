"""The ``serve_durable`` workload: crash, restart, then open-loop queries.

1. A durable ``repro serve`` (``--checkpoint-to``, defaults otherwise) starts
   and its writer ingests until it passes ``CRASH_AT`` points; it is then
   killed with SIGKILL.
2. The crashed state is copied and a server restarted on each copy,
   ``RESTARTS`` times.  Each restart must resume at the position the
   journal reaches (read here from the journal's on-disk format, not with
   the program's code); set-up time runs from its launch to its first
   correct answer.  All but the last are stopped with SIGTERM and must exit 0.
3. The last restart serves open-loop Poisson ``query`` requests
   (k in {10, 20, 30}, centers included) over two connections while its own
   writer ingests flat out.  Each latency is timed from when the request was
   due.  A separate control connection reads the ``stats`` op at the edges
   of the window for the writer's rate.
4. Every k = 20 answer, and one final one, is scored against the reference
   on the exact multiset of points the server had ingested by the end; the
   server is stopped with SIGTERM, must exit 0, and is reaped for its peak
   memory and CPU time.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import socket
import struct
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np

from children import Children
from common import (
    BENCH_DIR, CONNECTIONS, COST_RATIO_LIMIT, CRASH_AT, DIMENSION, K, QUERY_KS, QUERY_RATE,
    REQUEST_TIMEOUT_S, RESTARTS, SERVE_BATCH, SERVE_POINTS, SERVER_DURATION_S, WORK_DIR,
    make_stream, percentile,
)
from reference import kmeans_cost, reference_kmeans

_BANNER = re.compile(rb"serving on [^:\s]+:(\d+) ")
_RESUMED = re.compile(rb"-> position (\d+)")


class Failures:
    """Attempted/failed operation counts and the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, error: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(error)

    def check(self, ok: bool, error: str) -> None:
        """A property the run must have; not an operation."""
        if not ok:
            self.broken = True
            self.errors.append(error)


class Connection:
    """One newline-delimited JSON connection to the server."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")

    def send(self, request: dict) -> None:
        self._sock.sendall(json.dumps(request).encode() + b"\n")

    def receive(self) -> bytes:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def ask(self, request: dict) -> dict:
        self.send(request)
        return json.loads(self.receive())

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def answer_error(reply: dict, k: int) -> str | None:
    """Why ``reply`` is not a correct answer for ``k`` centers (None if it is)."""
    if not reply.get("ok"):
        return f"not ok: code {reply.get('code')} {reply.get('error')}"
    centers = np.asarray(reply.get("centers", []), dtype=float)
    if reply.get("k") != k or centers.shape != (k, DIMENSION):
        return f"asked k={k}, got k={reply.get('k')} centers of shape {centers.shape}"
    if not np.isfinite(centers).all():
        return "non-finite centers"
    if not isinstance(reply.get("version"), int):
        return "answer carries no snapshot version"
    return None


def journaled_position(state: Path) -> int:
    """Stream position the crashed writer's checkpoints and journal reach.

    Reads the documented on-disk layout directly: ``ckpt-<points>``
    snapshot directories, and ``wal/wal-*.log`` segments of ``RWAL`` +
    version header, then ``<u32 length, u32 crc32>`` frames whose payload
    starts ``<u64 seq, u64 points_before, u32 rows, u32 cols>``.  A torn or
    corrupt tail ends a segment.
    """
    position = 0
    for ckpt in state.glob("ckpt-*"):
        digits = ckpt.name[len("ckpt-"):]
        if digits.isdigit():
            position = max(position, int(digits))
    for segment in sorted((state / "wal").glob("wal-*.log")):
        data = segment.read_bytes()
        if data[:4] != b"RWAL":
            continue
        offset = 8
        while offset + 8 <= len(data):
            length, crc = struct.unpack_from("<II", data, offset)
            payload = data[offset + 8: offset + 8 + length]
            if len(payload) < max(length, 24) or zlib.crc32(payload) != crc:
                break
            _, before, rows = struct.unpack_from("<QQI", payload)
            position = max(position, before + rows)
            offset += 8 + length
    return position


def server_argv(seed: int, state: Path, traced_to: tuple[Path, Path] | None) -> list[str]:
    args = [
        "--dataset", "covtype", "--num-points", str(SERVE_POINTS), "--k", str(K),
        "--seed", str(seed), "--port", "0", "--checkpoint-to", str(state),
        "--duration", str(SERVER_DURATION_S),
    ]
    if traced_to is None:
        return [sys.executable, "-m", "repro.cli", "serve", *args]
    summary, spans = traced_to
    return [sys.executable, str(BENCH_DIR / "launch_server.py"), str(summary), str(spans), *args]


def stream_weights(n: int, reads: list[int]) -> np.ndarray:
    """Multiplicity of each of the ``n`` stream points after cyclic reads from index 0."""
    weights = np.zeros(n)
    for length in reads:
        full, rest = divmod(length, n)
        weights += full
        weights[:rest] += 1
    return weights


def open_loop(port: int, seed: int, seconds: float, fails: Failures, start_at: float):
    """Poisson arrivals at ``QUERY_RATE`` over ``CONNECTIONS`` connections.

    The count is fixed (rate x seconds) and the arrival times are uniform
    order statistics over the window, which is a Poisson process conditioned
    on that count; every run therefore attempts the same operations.
    """
    rng = np.random.default_rng([seed, 0x10AD])
    count = int(round(QUERY_RATE * seconds))
    due = start_at + np.sort(rng.uniform(0.0, seconds, size=count))
    ks = rng.choice(QUERY_KS, size=count)
    samples: list[tuple] = []
    next_index = iter(range(count))
    take = threading.Lock()

    def client() -> None:
        conn = Connection(port)
        last_version = 0
        try:
            while True:
                with take:
                    i = next(next_index, None)
                if i is None:
                    return
                wait = due[i] - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                sent = time.monotonic()
                k = int(ks[i])
                try:
                    conn.send({"op": "query", "k": k, "include_centers": True})
                    line = conn.receive()
                    done = time.monotonic()
                    reply = json.loads(line)
                except (OSError, ValueError) as exc:
                    fails.record(False, f"request {i}: {type(exc).__name__}: {exc}")
                    samples.append((i, due[i], sent, None, None, None))
                    conn.close()
                    conn = Connection(port)
                    last_version = 0
                    continue
                error = answer_error(reply, k)
                version = reply.get("version", 0)
                if error is None and version < last_version:
                    error = f"snapshot version went back from {last_version} to {version}"
                fails.record(error is None, f"request {i}: {error}")
                last_version = max(last_version, version if isinstance(version, int) else 0)
                samples.append((
                    i, due[i], sent, done if error is None else None,
                    reply.get("staleness_points"),
                    reply["centers"] if error is None and k == K else None,
                ))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    return threads, samples


def _latencies(samples, lo: float, hi: float) -> list[float]:
    """Latency from due time of requests due in [lo, hi).

    A failed request counts as taking the whole request timeout, so it
    misses every latency limit below it.
    """
    return [
        (done - due) if done is not None else REQUEST_TIMEOUT_S
        for _, due, _, done, _, _ in samples
        if lo <= due < hi
    ]


def run(children: Children, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    fails = Failures()
    crash_dir = work / "crash"

    # 1. Start, let the writer pass CRASH_AT, SIGKILL.
    first = children.start(server_argv(seed, crash_dir, None), "crashing server")
    port = int(_BANNER.search(first.read_until(b"serving on", 60.0)).group(1))
    control = Connection(port)
    observed = 0
    deadline = time.monotonic() + 60.0
    while observed < CRASH_AT:
        if time.monotonic() > deadline:
            raise RuntimeError(f"the writer reached only {observed} points in 60 s")
        observed = control.ask({"op": "stats"})["points_ingested"]
        time.sleep(0.002)
    children.kill(first)
    control.close()
    journaled = journaled_position(crash_dir)
    fails.check(journaled >= observed,
                f"journal reaches {journaled}, below the {observed} points the server reported")

    # 2. Restart on copies of the crashed state; time launch -> first correct answer.
    setups: list[float] = []
    server = None
    traced_to = (work / "layers.json", WORK_DIR / "traces" / f"serve_durable-{seed}.jsonl")
    for attempt in range(RESTARTS):
        state = work / f"restart-{attempt}"
        shutil.copytree(crash_dir, state)
        last = attempt == RESTARTS - 1
        server = children.start(
            server_argv(seed, state, traced_to if (trace and last) else None), f"restart {attempt}"
        )
        banner = server.read_until(b"serving on", 60.0)
        resumed = _RESUMED.search(bytes(server.output))
        position = int(resumed.group(1)) if resumed else -1
        fails.check(position == journaled,
                    f"restart {attempt} resumed at {position}, the journal reaches {journaled}")
        conn = Connection(int(_BANNER.search(banner).group(1)))
        reply = conn.ask({"op": "query", "k": K, "include_centers": True})
        setups.append(time.monotonic() - server.launched)
        error = answer_error(reply, K)
        fails.record(error is None, f"first answer after restart {attempt}: {error}")
        conn.close()
        if not last:
            done = children.stop(server)
            fails.check(done.code == 0, f"restart {attempt} exited with {done} on SIGTERM")
    port = int(_BANNER.search(server.read_until(b"serving on", 1.0)).group(1))

    # 3. Open-loop queries while the writer ingests.
    control = Connection(port)
    start = time.monotonic() + 0.05
    before = control.ask({"op": "stats"})
    t_before = time.monotonic()
    threads, samples = open_loop(port, seed, seconds, fails, start)
    half = start + seconds / 2.0
    marks = {}
    if trace:
        time.sleep(max(0.0, half - time.monotonic()))
        marks["mid"] = (control.ask({"op": "stats"})["points_ingested"], time.monotonic())
        children.signal(server, signal.SIGUSR1)
    for t in threads:
        t.join()
    after = control.ask({"op": "stats"})
    t_after = time.monotonic()
    if trace:
        children.signal(server, signal.SIGUSR1)
    fails.check(after["points_ingested"] > before["points_ingested"],
                "the writer's position did not advance during the run")

    # 4. Final answer for the cost check, then a clean stop.
    final = control.ask({"op": "query", "k": K, "include_centers": True})
    error = answer_error(final, K)
    fails.record(error is None, f"final answer: {error}")
    control.close()
    done = children.stop(server)
    wall = time.monotonic() - server.launched
    fails.check(done.code == 0, f"restarted server exited with {done} on SIGTERM")

    latencies = _latencies(samples, start, start + seconds)
    metrics = {
        "setup_s": float(np.median(setups)),
        "stream_pts_per_s": (after["points_ingested"] - before["points_ingested"])
        / (t_after - t_before),
        "query_mean_ms": 1e3 * float(np.mean(latencies)),
        "peak_rss_mb": done.peak_rss_mb,
        "cost_ratio": float("nan"),
    }
    if error is None:
        points = make_stream(seed, SERVE_POINTS)
        # A fresh server ingests its first batch, then loops over the stream
        # from the start; a restarted one loops from the start again.
        served = int(final["snapshot_points"])
        weights = stream_weights(
            SERVE_POINTS, [SERVE_BATCH, journaled - SERVE_BATCH, served - journaled]
        )
        keep = weights > 0
        _, best = reference_kmeans(points[keep], K, seed, weights[keep])
        # Every k = 20 answer, scored on the stream as it stood at the end.
        answers = [s[5] for s in samples if s[5] is not None] + [final["centers"]]
        metrics["cost_ratio"] = float(np.median([
            kmeans_cost(points[keep], np.asarray(c), weights[keep]) / best for c in answers
        ]))
        if not metrics["cost_ratio"] <= COST_RATIO_LIMIT:
            fails.check(False, f"cost_ratio {metrics['cost_ratio']:.4f} above {COST_RATIO_LIMIT}")

    layers = {}
    untraced = latencies
    if trace:
        layers = json.loads(traced_to[0].read_text())
        traced = _latencies(samples, half, start + seconds)
        untraced = _latencies(samples, start, half)
        sweeps = max(layers.get("serving.sweeps", 0), 1)
        p50_traced = 1e3 * percentile(traced, 50)
        staleness = [s[4] for s in samples if s[1] >= half and s[4] is not None]
        layers.update({
            "serving.wait_ms_p50": p50_traced - layers.get("serving.sweep_ms_p50", 0.0),
            "serving.queries_per_sweep": sum(1 for s in samples if s[1] >= half and s[3]) / sweeps,
            "serving.staleness_points_p50": percentile(staleness, 50),
            "trace.overhead_pct": 100.0 * (np.mean(traced) / np.mean(untraced) - 1.0),
            "trace.writer_overhead_pct": 100.0 * _rate_drop(before, t_before, marks["mid"],
                                                            after, t_after),
        })
    late = [sent - due for _, due, sent, _, _, _ in samples]
    layers["loadgen.late_ms_max"] = 1e3 * max(late, default=0.0)
    layers["loadgen.query_p50_ms"] = 1e3 * percentile(untraced, 50)
    layers["loadgen.query_p90_ms"] = 1e3 * percentile(untraced, 90)
    layers["process.cpu_s"] = done.cpu_s
    layers["process.wall_s"] = wall
    return {
        "attempted": fails.attempted,
        "failed": fails.failed,
        "correct": not fails.broken,
        "errors": fails.errors,
        "metrics": metrics,
        "layers": layers,
    }


def _rate_drop(before, t_before, mid, after, t_after) -> float:
    """Share by which the writer's rate fell in the traced half of the window."""
    first = (mid[0] - before["points_ingested"]) / (mid[1] - t_before)
    second = (after["points_ingested"] - mid[0]) / (t_after - mid[1])
    return (first - second) / first
