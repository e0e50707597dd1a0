"""Shared constants, paths and small helpers for the benchmark.

Every workload parameter lives here so that the README, the orchestrator
(``run.py``) and the child processes (``worker.py``, ``launch_server.py``)
cannot disagree about what a workload is.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space (server state, traces) inside the checkout; see .gitignore.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("ingest_bulk", "query_mix", "serve_durable")

K = 20
DIMENSION = 54
MERGE_DEGREE = 2
#: The clusterer's default base-bucket size ``m = 20 k``.
BUCKET = 20 * K
#: The in-process workloads cycle over ``STREAMS`` streams of ``STREAM_POINTS``
#: points each; one round feeds one stream to one fresh clusterer.  Several
#: streams per seed average out how much one dataset's convergence speed
#: moves query latency and answer quality.
STREAMS = 4
STREAM_POINTS = 60_000
BATCH = {"ingest_bulk": 2_000, "query_mix": 200}

#: ``repro serve`` parameters of ``serve_durable``.
SERVE_POINTS = 20_000
SERVE_BATCH = 500
#: Crash the first server once its writer has passed this stream position:
#: mid-way between the checkpoints at 25,000 and 50,000 points, so the
#: restart restores one snapshot and replays about 25 journaled batches.
CRASH_AT = 37_500
RESTARTS = 3
QUERY_RATE = 25.0
QUERY_KS = (10, 20, 30)
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 10.0
#: Dead-man's switch: a server orphaned by a killed benchmark exits by itself.
SERVER_DURATION_S = 150.0

SETUP_PROBES = 5
#: ``cost_ratio`` must stay at or below this multiple of the reference.
COST_RATIO_LIMIT = 1.5


def program_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("MKL_NUM_THREADS", "1")
    return env


def use_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({SRC / 'repro'})")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_stream(seed: int, points: int) -> np.ndarray:
    """The covtype-like stream (d = 54) of one seed, as the program's loader makes it."""
    use_program()
    from repro.data.loaders import load_dataset

    return load_dataset("covtype", num_points=points, seed=seed).points


def make_streams(seed: int) -> list[np.ndarray]:
    """The ``STREAMS`` streams of a workload seed."""
    return [make_stream(seed * STREAMS + j, STREAM_POINTS) for j in range(STREAMS)]


def percentile(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def space_bound(points: int, m: int = BUCKET, r: int = MERGE_DEGREE) -> int:
    """Upper bound on the points CC stores after ``points`` stream points.

    With ``N = points // m`` base buckets and ``L = floor(log_r N)``: the tree
    holds at most ``r - 1`` buckets of at most ``m`` points on each of its
    ``L + 1`` levels; the cache keeps one coreset of at most ``m`` points per
    key, and its keys are ``N`` and the partial sums in ``prefixsum(N, r)``,
    at most ``L + 1`` in all; the partial base bucket holds fewer than ``m``.
    So CC stores at most ``m (r (L + 1) + 1)`` points, logarithmic in ``N``.
    """
    n = max(points // m, 1)
    levels = int(math.floor(math.log(n, r) + 1e-9)) + 1
    return m * (r * levels + 1)
