"""Qualitative evaluation of learned embeddings, read from the embedding table
(row i is the vector of kind id i): nearest-neighbor queries over Euclidean
distance and k-means clustering (Lloyd iterations, k-means++ seeding, best of
several restarts)."""

from __future__ import annotations

import numpy as np

from .ast_core import KIND_NAMES, VOCAB_SIZE, kind_by_name


def nearest_neighbors(
    embeddings: np.ndarray, query: int | str, top: int | None = None
) -> list[tuple[int, float]]:
    """All other symbols as (kind id, Euclidean distance to the vector of
    `query`, a kind id or name), nearest first, the first `top` of them.

    Ties break by kind id so the ranking is deterministic.
    """
    if isinstance(query, str):
        query = kind_by_name(query)
    elif not 0 <= query < VOCAB_SIZE:
        raise ValueError(f"kind id must be in 0..{VOCAB_SIZE - 1}")
    if top is None:
        top = VOCAB_SIZE - 1
    if not 1 <= top <= VOCAB_SIZE - 1:
        raise ValueError(f"top must be in 1..{VOCAB_SIZE - 1}")
    dists = np.linalg.norm(embeddings - embeddings[query], axis=1)
    order = sorted(
        (k for k in range(VOCAB_SIZE) if k != query), key=lambda k: (dists[k], k)
    )
    return [(k, float(dists[k])) for k in order[:top]]


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centroids[j] = points[idx]
        closest_sq = np.minimum(
            closest_sq, np.sum((points - centroids[j]) ** 2, axis=1)
        )
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int = 300):
    k = centroids.shape[0]
    labels = None
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(k):
            mask = new_labels == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
            else:
                # reseed an empty cluster at the point farthest from its centroid
                dist_to_own = d2[np.arange(len(points)), new_labels]
                far = int(np.argmax(dist_to_own))
                centroids[j] = points[far]
                new_labels[far] = j
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(points)), labels].sum())
    return labels, centroids, inertia


def kmeans(
    points: np.ndarray, k: int, restarts: int = 16, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-restarts Lloyd's over the rows of `points`, such as the
    embedding table; ties keep the earlier restart.

    Returns (labels, centroids, inertia): the cluster of each row, the (k, N)
    centroids and the sum of squared distances to them.
    """
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k must be in 1..{points.shape[0]}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centroids = _kmeans_pp_init(points, k, rng)
        labels, centroids, inertia = _lloyd(points, centroids.copy())
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best


def clusters_csv(labels: np.ndarray) -> str:
    """The cluster of each symbol, `labels` indexed by kind id."""
    lines = ["symbol,cluster"]
    for kind, name in enumerate(KIND_NAMES):
        lines.append(f"{name},{labels[kind]}")
    return "\n".join(lines) + "\n"


def render_report(
    embeddings: np.ndarray, clustering: tuple[np.ndarray, np.ndarray, float], top: int = 5
) -> str:
    """Plain-text report: a neighbor table row per symbol plus the clustering,
    a `kmeans` result over `embeddings`."""
    labels, centroids, inertia = clustering
    lines = ["Nearest neighbors (Euclidean)", "=" * 32]
    for kind, name in enumerate(KIND_NAMES):
        ranked = nearest_neighbors(embeddings, kind, top=top)
        names = ", ".join(KIND_NAMES[other] for other, _ in ranked)
        lines.append(f"{name:16s} -> {names}")
    lines += ["", f"k-means clustering (k={len(centroids)})", "=" * 32]
    for j in range(len(centroids)):
        members = [name for kind, name in enumerate(KIND_NAMES) if labels[kind] == j]
        body = ", ".join(members) if members else "(empty)"
        lines.append(f"cluster {j}: {body}")
    lines.append(f"inertia: {inertia:.6f}")
    return "\n".join(lines) + "\n"
