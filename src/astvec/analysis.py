"""Qualitative evaluation of learned embeddings: nearest-neighbor queries over
Euclidean distance and k-means clustering (Lloyd iterations, k-means++ seeding,
best of several restarts)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ast_core import NodeKind, kind_by_name, vocabulary
from .coder import ModelParams


@dataclass(frozen=True)
class NeighborList:
    query: NodeKind
    ranked: tuple[tuple[NodeKind, float], ...]


@dataclass(frozen=True)
class Clustering:
    k: int
    assignment: dict[int, int]  # kind id -> cluster id
    centroids: np.ndarray       # (k, N_f)
    inertia: float


def nearest_neighbors(
    params: ModelParams, query: NodeKind | str, top: int | None = None
) -> NeighborList:
    """Rank all other symbols by Euclidean distance to the query's vector.

    Ties break by vocabulary id so the ranking is deterministic.
    """
    if isinstance(query, str):
        query = kind_by_name(query)
    vocab = vocabulary()
    if top is None:
        top = len(vocab) - 1
    if not 1 <= top <= len(vocab) - 1:
        raise ValueError(f"top must be in 1..{len(vocab) - 1}")
    q_vec = params.embeddings[query.id]
    dists = np.linalg.norm(params.embeddings - q_vec, axis=1)
    order = sorted(
        (k for k in vocab if k.id != query.id), key=lambda k: (dists[k.id], k.id)
    )
    ranked = tuple((k, float(dists[k.id])) for k in order[:top])
    return NeighborList(query=query, ranked=ranked)


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


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int = 300,
           trace: list | None = None):
    k = centroids.shape[0]
    labels = None
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if trace is not None:
            trace.append(float(d2[np.arange(len(points)), new_labels].sum()))
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


def kmeans_points(
    points: np.ndarray, k: int, restarts: int = 16, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-restarts Lloyd's over arbitrary points; ties keep the earlier
    restart. Returns (labels, centroids, inertia)."""
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k must be in 1..{points.shape[0]}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        centroids = _kmeans_pp_init(points, k, rng)
        labels, centroids, inertia = _lloyd(points, centroids.copy())
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best


def kmeans(
    params: ModelParams, k: int, restarts: int = 16, seed: int = 0
) -> Clustering:
    labels, centroids, inertia = kmeans_points(
        params.embeddings, k, restarts=restarts, seed=seed
    )
    assignment = {kind.id: int(labels[kind.id]) for kind in vocabulary()}
    return Clustering(k=k, assignment=assignment, centroids=centroids, inertia=inertia)


def clusters_csv(clustering: Clustering) -> str:
    lines = ["symbol,cluster"]
    for kind in vocabulary():
        lines.append(f"{kind.name},{clustering.assignment[kind.id]}")
    return "\n".join(lines) + "\n"


def render_report(params: ModelParams, clustering: Clustering, top: int = 5) -> str:
    """Plain-text report: a neighbor table row per symbol plus the clustering."""
    lines = ["Nearest neighbors (Euclidean)", "=" * 32]
    for kind in vocabulary():
        nl = nearest_neighbors(params, kind, top=top)
        names = ", ".join(other.name for other, _ in nl.ranked)
        lines.append(f"{kind.name:16s} -> {names}")
    lines += ["", f"k-means clustering (k={clustering.k})", "=" * 32]
    for j in range(clustering.k):
        members = [
            kind.name for kind in vocabulary() if clustering.assignment[kind.id] == j
        ]
        body = ", ".join(members) if members else "(empty)"
        lines.append(f"cluster {j}: {body}")
    lines.append(f"inertia: {clustering.inertia:.6f}")
    return "\n".join(lines) + "\n"
