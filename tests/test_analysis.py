import itertools

import numpy as np
import pytest

from astvec.analysis import (
    clusters_csv,
    kmeans,
    _lloyd,
    nearest_neighbors,
    render_report,
)
from astvec.coder import Hyperparams, init_params
from astvec.ast_core import KIND_NAMES, kind_by_name


def _table(n_f: int, seed: int) -> np.ndarray:
    return init_params(Hyperparams(n_f=n_f), np.random.default_rng(seed)).embeddings


def _table_with_rows(rows: dict[str, list[float]], n_f: int, far: float = 1e3):
    """Embedding table where the named rows are set and all the rest are pushed
    far away along distinct directions."""
    v = len(KIND_NAMES)
    emb = np.zeros((v, n_f))
    named = {kind_by_name(name) for name in rows}
    bump = far
    for i in range(v):
        if i not in named:
            emb[i, 0] = bump
            bump += far
    for name, vec in rows.items():
        emb[kind_by_name(name)] = vec
    return emb


class TestNearestNeighbors:
    def test_hand_geometry(self):
        emb = _table_with_rows(
            {"ID": [0.0, 0.0], "Constant": [1.0, 0.0], "BinaryOp": [0.0, 2.0]},
            n_f=2,
        )
        ranked = nearest_neighbors(emb, "ID", top=2)
        assert [KIND_NAMES[k] for k, _ in ranked] == ["Constant", "BinaryOp"]
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)
        assert ranked[1][1] == pytest.approx(2.0, abs=1e-12)

    def test_query_excluded(self):
        ranked = nearest_neighbors(_table(4, 0), "For")
        assert all(KIND_NAMES[k] != "For" for k, _ in ranked)
        assert len(ranked) == 43

    def test_translation_invariance(self):
        emb = _table(4, 1)
        a = nearest_neighbors(emb, "If", top=10)
        b = nearest_neighbors(emb + 17.5, "If", top=10)
        assert [k for k, _ in a] == [k for k, _ in b]
        for (_, da), (_, db) in zip(a, b):
            assert da == pytest.approx(db, abs=1e-9)

    def test_tie_break_by_id(self):
        v = len(KIND_NAMES)
        ranked = nearest_neighbors(np.zeros((v, 2)), 5)
        ids = [k for k, _ in ranked]
        assert ids == [i for i in range(v) if i != 5]

    def test_top_validation(self):
        emb = _table(2, 0)
        with pytest.raises(ValueError):
            nearest_neighbors(emb, "ID", top=0)
        with pytest.raises(ValueError):
            nearest_neighbors(emb, "ID", top=44)

    @pytest.mark.parametrize("query", [-1, len(KIND_NAMES)])
    def test_id_out_of_range(self, query):
        # neither the last row's neighbors nor an IndexError
        with pytest.raises(ValueError, match="kind id"):
            nearest_neighbors(_table(4, 0), query)

    def test_first_and_last_id(self):
        emb = _table(4, 0)
        for query in (0, len(KIND_NAMES) - 1):
            ranked = nearest_neighbors(emb, query)
            assert ranked == nearest_neighbors(emb, KIND_NAMES[query])
            assert len(ranked) == len(KIND_NAMES) - 1

    def test_matches_brute_force(self):
        emb = _table(6, 7)
        q = kind_by_name("While")
        # oracle: plain loop over every other row
        dists = sorted(
            (float(np.sqrt(np.sum((emb[k] - emb[q]) ** 2))), k)
        for k in range(len(KIND_NAMES)) if k != q
        )
        ranked = nearest_neighbors(emb, q)
        assert [(d, k) for k, d in ranked] == pytest.approx(
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
        labels, centroids, inertia = kmeans(pts, k=1, seed=0)
        assert np.allclose(centroids[0], pts.mean(axis=0), atol=1e-12)
        assert inertia == pytest.approx(
            float(np.sum((pts - pts.mean(axis=0)) ** 2)), rel=1e-12
        )

    def test_k_equals_n_zero_inertia(self):
        pts = np.arange(12, dtype=float).reshape(6, 2)
        labels, _, inertia = kmeans(pts, k=6, seed=1)
        assert inertia == pytest.approx(0.0, abs=1e-18)
        assert len(set(labels.tolist())) == 6

    def test_two_blobs_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(loc=0.0, scale=0.05, size=(5, 2))
        b = rng.normal(loc=10.0, scale=0.05, size=(5, 2))
        pts = np.vstack([a, b])
        labels, _, inertia = kmeans(pts, k=2, seed=0)
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[5]
        assert inertia == pytest.approx(_brute_force_best_partition(pts, 2), rel=1e-9)

    def test_small_matches_brute_force(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(8, 2))
        _, _, inertia = kmeans(pts, k=3, restarts=32, seed=0)
        oracle = _brute_force_best_partition(pts, 3)
        assert inertia <= oracle * (1 + 1e-9) + 1e-12
        assert inertia >= oracle * (1 - 1e-9) - 1e-12

    def test_restart_monotonicity(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 4))
        prev = np.inf
        for restarts in (1, 2, 4, 8, 16):
            _, _, inertia = kmeans(pts, k=4, restarts=restarts, seed=11)
            assert inertia <= prev + 1e-12
            prev = inertia

    def test_lloyd_trace_nonincreasing(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 3))
        c0 = pts[rng.choice(40, size=4, replace=False)]
        # the inertia after 0, 1, 2, ... iterations from the same start
        trace = [_lloyd(pts, c0.copy(), max_iter=i)[2] for i in range(12)]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert trace[-1] < trace[0]

    def test_deterministic(self):
        emb = _table(5, 2)
        a = kmeans(emb, k=3, seed=4)
        b = kmeans(emb, k=3, seed=4)
        assert np.array_equal(a[0], b[0])
        assert a[2] == b[2]

    def test_assignment_covers_every_kind(self):
        labels, _, _ = kmeans(_table(5, 2), k=3, seed=0)
        assert labels.shape == (len(KIND_NAMES),)
        assert set(labels.tolist()) <= set(range(3))

    def test_all_points_equal(self):
        # k-means++ draws every centroid after the first uniformly, and Lloyd's
        # reseeds the clusters left empty
        labels, centroids, inertia = kmeans(np.zeros((5, 2)), 3)
        assert labels.tolist() == [0] * 5
        assert not centroids.any() and inertia == 0.0

    def test_k_validation(self):
        emb = _table(2, 0)
        with pytest.raises(ValueError):
            kmeans(emb, k=0)
        with pytest.raises(ValueError):
            kmeans(emb, k=45)


@pytest.fixture(scope="module")
def embeddings():
    return _table(4, 8)


class TestReports:
    def test_clusters_csv_rows(self, embeddings):
        labels, _, _ = kmeans(embeddings, k=3, seed=0)
        lines = clusters_csv(labels).strip().split("\n")
        assert lines[0] == "symbol,cluster"
        assert len(lines) == 45
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == list(KIND_NAMES)

    def test_render_report_regenerates_identically(self, embeddings):
        assert (render_report(embeddings, kmeans(embeddings, k=3, seed=3))
                == render_report(embeddings, kmeans(embeddings, k=3, seed=3)))

    def test_render_report_mentions_all_symbols(self, embeddings):
        text = render_report(embeddings, kmeans(embeddings, k=3))
        for name in KIND_NAMES:
            assert name in text
