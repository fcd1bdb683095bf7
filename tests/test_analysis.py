import itertools

import numpy as np
import pytest

from astvec.analysis import (
    Clustering,
    clusters_csv,
    kmeans,
    kmeans_points,
    _lloyd,
    nearest_neighbors,
    render_report,
)
from astvec.coder import Hyperparams, ModelParams, init_params
from astvec.ast_core import kind_by_name, vocabulary


def _params_with_rows(rows: dict[str, list[float]], n_f: int, far: float = 1e3):
    """Embedding table where the named rows are set and all the rest are pushed
    far away along distinct directions."""
    v = len(vocabulary())
    emb = np.zeros((v, n_f))
    named = {kind_by_name(name).id for name in rows}
    bump = far
    for i in range(v):
        if i not in named:
            emb[i, 0] = bump
            bump += far
    for name, vec in rows.items():
        emb[kind_by_name(name).id] = vec
    return ModelParams(
        embeddings=emb,
        w_l=np.zeros((n_f, n_f)),
        w_r=np.zeros((n_f, n_f)),
        b=np.zeros(n_f),
    )


class TestNearestNeighbors:
    def test_hand_geometry(self):
        p = _params_with_rows(
            {"ID": [0.0, 0.0], "Constant": [1.0, 0.0], "BinaryOp": [0.0, 2.0]},
            n_f=2,
        )
        nl = nearest_neighbors(p, "ID", top=2)
        assert [k.name for k, _ in nl.ranked] == ["Constant", "BinaryOp"]
        assert nl.ranked[0][1] == pytest.approx(1.0, abs=1e-12)
        assert nl.ranked[1][1] == pytest.approx(2.0, abs=1e-12)

    def test_query_excluded(self):
        p = init_params(Hyperparams(n_f=4), np.random.default_rng(0))
        nl = nearest_neighbors(p, "For")
        assert all(k.name != "For" for k, _ in nl.ranked)
        assert len(nl.ranked) == 43

    def test_translation_invariance(self):
        p = init_params(Hyperparams(n_f=4), np.random.default_rng(1))
        shifted = p.copy()
        shifted.embeddings += 17.5
        a = nearest_neighbors(p, "If", top=10)
        b = nearest_neighbors(shifted, "If", top=10)
        assert [k.name for k, _ in a.ranked] == [k.name for k, _ in b.ranked]
        for (_, da), (_, db) in zip(a.ranked, b.ranked):
            assert da == pytest.approx(db, abs=1e-9)

    def test_tie_break_by_id(self):
        v = len(vocabulary())
        p = ModelParams(
            embeddings=np.zeros((v, 2)),
            w_l=np.zeros((2, 2)),
            w_r=np.zeros((2, 2)),
            b=np.zeros(2),
        )
        nl = nearest_neighbors(p, vocabulary()[5])
        ids = [k.id for k, _ in nl.ranked]
        assert ids == [i for i in range(v) if i != 5]

    def test_top_validation(self):
        p = init_params(Hyperparams(n_f=2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            nearest_neighbors(p, "ID", top=0)
        with pytest.raises(ValueError):
            nearest_neighbors(p, "ID", top=44)

    def test_matches_brute_force(self):
        p = init_params(Hyperparams(n_f=6), np.random.default_rng(7))
        q = kind_by_name("While")
        # oracle: plain loop over every other row
        dists = sorted(
            (float(np.sqrt(np.sum((p.embeddings[k.id] - p.embeddings[q.id]) ** 2))), k.id)
        for k in vocabulary() if k.id != q.id
        )
        nl = nearest_neighbors(p, q)
        assert [(d, k.id) for k, d in nl.ranked] == pytest.approx(
            [(d, i) for d, i in dists]
        )


def _brute_force_best_partition(points, k):
    """Exhaustive best k-means objective over all assignments (tiny inputs)."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        inertia = 0.0
        for j in range(k):
            members = points[[i for i in range(n) if labels[i] == j]]
            if len(members):
                c = members.mean(axis=0)
                inertia += float(np.sum((members - c) ** 2))
        best = min(best, inertia)
    return best


class TestKmeans:
    def test_k1_mean(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        labels, centroids, inertia = kmeans_points(pts, k=1, seed=0)
        assert np.allclose(centroids[0], pts.mean(axis=0), atol=1e-12)
        assert inertia == pytest.approx(
            float(np.sum((pts - pts.mean(axis=0)) ** 2)), rel=1e-12
        )

    def test_k_equals_n_zero_inertia(self):
        pts = np.arange(12, dtype=float).reshape(6, 2)
        labels, _, inertia = kmeans_points(pts, k=6, seed=1)
        assert inertia == pytest.approx(0.0, abs=1e-18)
        assert len(set(labels.tolist())) == 6

    def test_two_blobs_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(loc=0.0, scale=0.05, size=(5, 2))
        b = rng.normal(loc=10.0, scale=0.05, size=(5, 2))
        pts = np.vstack([a, b])
        labels, _, inertia = kmeans_points(pts, k=2, seed=0)
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[5]
        assert inertia == pytest.approx(_brute_force_best_partition(pts, 2), rel=1e-9)

    def test_small_matches_brute_force(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(8, 2))
        _, _, inertia = kmeans_points(pts, k=3, restarts=32, seed=0)
        oracle = _brute_force_best_partition(pts, 3)
        assert inertia <= oracle * (1 + 1e-9) + 1e-12
        assert inertia >= oracle * (1 - 1e-9) - 1e-12

    def test_restart_monotonicity(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 4))
        prev = np.inf
        for restarts in (1, 2, 4, 8, 16):
            _, _, inertia = kmeans_points(pts, k=4, restarts=restarts, seed=11)
            assert inertia <= prev + 1e-12
            prev = inertia

    def test_lloyd_trace_nonincreasing(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 3))
        centroids = pts[rng.choice(40, size=4, replace=False)].copy()
        trace = []
        _lloyd(pts, centroids, trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        p = init_params(Hyperparams(n_f=5), np.random.default_rng(2))
        a = kmeans(p, k=3, seed=4)
        b = kmeans(p, k=3, seed=4)
        assert a.assignment == b.assignment
        assert a.inertia == b.inertia

    def test_assignment_covers_vocabulary(self):
        p = init_params(Hyperparams(n_f=5), np.random.default_rng(2))
        c = kmeans(p, k=3, seed=0)
        assert sorted(c.assignment) == [k.id for k in vocabulary()]
        assert set(c.assignment.values()) <= set(range(3))

    def test_k_validation(self):
        p = init_params(Hyperparams(n_f=2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans(p, k=0)
        with pytest.raises(ValueError):
            kmeans(p, k=45)


@pytest.fixture(scope="module")
def params():
    return init_params(Hyperparams(n_f=4), np.random.default_rng(8))


class TestReports:
    def test_clusters_csv_rows(self, params):
        clustering = kmeans(params, k=3, seed=0)
        lines = clusters_csv(clustering).strip().split("\n")
        assert lines[0] == "symbol,cluster"
        assert len(lines) == 45
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == [k.name for k in vocabulary()]

    def test_render_report_regenerates_identically(self, params):
        assert (render_report(params, kmeans(params, k=3, seed=3))
                == render_report(params, kmeans(params, k=3, seed=3)))

    def test_render_report_mentions_all_symbols(self, params):
        text = render_report(params, kmeans(params, k=3))
        for k in vocabulary():
            assert k.name in text
