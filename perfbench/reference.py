"""Independent k-means reference for the benchmark's ``cost_ratio`` check.

Weighted k-means++ seeding followed by Lloyd's algorithm, restarted a few
times, keeping the cheapest solution.  Written in plain NumPy and importing
nothing from the program under test, so a fault in the program's own
k-means or distance kernels cannot hide itself by also bending the yardstick.

Run it on its own to recompute the references of a seed's streams::

    python3 perfbench/reference.py --seed 1
"""

from __future__ import annotations

import argparse

import numpy as np

RESTARTS = 3
MAX_ITERATIONS = 50
TOLERANCE = 1e-4
_CHUNK = 65_536


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def assign(x: np.ndarray, centers: np.ndarray, x_sq: np.ndarray | None = None):
    """Nearest-center labels and squared distances, in row chunks."""
    x_sq = _sq_norms(x) if x_sq is None else x_sq
    c_sq = _sq_norms(centers)
    labels = np.empty(x.shape[0], dtype=np.intp)
    dist = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, x.shape[0])
        d = x[lo:hi] @ centers.T
        d *= -2.0
        d += x_sq[lo:hi, None]
        d += c_sq[None, :]
        labels[lo:hi] = d.argmin(axis=1)
        dist[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    np.maximum(dist, 0.0, out=dist)
    return labels, dist


def kmeans_cost(x: np.ndarray, centers: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted sum of squared distances from each point to its nearest center."""
    _, dist = assign(np.asarray(x, dtype=np.float64), np.asarray(centers, dtype=np.float64))
    return float(dist.sum() if weights is None else dist @ weights)


def _seed(x, w, x_sq, k, rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(np.searchsorted(np.cumsum(w), rng.random() * w.sum(), side="right"))
    centers[0] = x[min(first, n - 1)]
    best = np.maximum(x_sq - 2.0 * (x @ centers[0]) + centers[0] @ centers[0], 0.0)
    for j in range(1, k):
        mass = np.cumsum(best * w)
        if mass[-1] <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = min(int(np.searchsorted(mass, rng.random() * mass[-1], side="right")), n - 1)
        centers[j] = x[pick]
        d = np.maximum(x_sq - 2.0 * (x @ centers[j]) + centers[j] @ centers[j], 0.0)
        np.minimum(best, d, out=best)
    return centers


def _lloyd(x, w, x_sq, centers) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    previous = None
    for _ in range(MAX_ITERATIONS):
        labels, dist = assign(x, centers, x_sq)
        cost = float(dist @ w)
        if previous is not None and previous - cost <= TOLERANCE * cost:
            break
        previous = cost
        mass = np.bincount(labels, weights=w, minlength=k)
        sums = np.zeros_like(centers)
        for lo in range(0, x.shape[0], _CHUNK):
            hi = min(lo + _CHUNK, x.shape[0])
            onehot = np.zeros((hi - lo, k))
            onehot[np.arange(hi - lo), labels[lo:hi]] = w[lo:hi]
            sums += onehot.T @ x[lo:hi]
        filled = mass > 0
        centers = centers.copy()
        centers[filled] = sums[filled] / mass[filled, None]
    labels, dist = assign(x, centers, x_sq)
    return centers, float(dist @ w)


def reference_kmeans(
    x: np.ndarray, k: int, seed: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Best of ``RESTARTS`` k-means++ + Lloyd runs; returns (centers, cost)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ones(x.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    x_sq = _sq_norms(x)
    rng = np.random.default_rng([seed, 0x5EF])
    best_centers, best_cost = None, np.inf
    for _ in range(RESTARTS):
        centers, cost = _lloyd(x, w, x_sq, _seed(x, w, x_sq, k, rng))
        if cost < best_cost:
            best_centers, best_cost = centers, cost
    return best_centers, best_cost


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's workload seed")
    args = parser.parse_args()
    from common import K, STREAMS, make_streams

    for j, stream in enumerate(make_streams(args.seed)):
        _, cost = reference_kmeans(stream, K, args.seed * STREAMS + j)
        print(f"seed {args.seed} stream {j}: {stream.shape[0]} points, k={K}, cost {cost:.9e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
