import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import heap_added
from oracles import adjusted_rand_index, expansion_dbscan, pairwise_merge, unweighted_kmeans
from qslate import clustering
from qslate.clustering import (
    DbscanModel,
    KMeansModel,
    cluster_model_fields,
    cluster_model_from,
    fit_dbscan,
    fit_kmeans,
    merge_small_clusters,
)
from qslate.errors import DataError, FitError
from qslate.features import fit_sparse_pca, transform


def three_blobs(seed=0, n_per=120, spread=0.1, sep=10.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    points = np.concatenate(
        [c + spread * rng.normal(size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(3), n_per)
    order = rng.permutation(len(points))
    return points[order], labels[order]


def repeat_rows(n_rows, seed, max_count=4):
    """A shuffled ``rows`` index that holds each row 1 to ``max_count`` times."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n_rows), rng.integers(1, max_count + 1, size=n_rows))
    assert np.bincount(rows).max() > 1
    return rng.permutation(rows)


def same_partition(a, b) -> bool:
    """Equal labelings up to renaming the clusters, with noise (-1) kept as is."""
    a, b = np.asarray(a), np.asarray(b)
    if not ((a == -1) == (b == -1)).all():
        return False
    pairs = set(zip(a[a != -1].tolist(), b[b != -1].tolist()))
    return len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})


@st.composite
def grid_fits(draw, max_points=60):
    """DBSCAN inputs on a half-integer grid, where both distance forms are exact.

    Small coordinates make duplicate points and pairs exactly eps apart
    common; ``rows`` holds each point once, or one to three times.
    """
    dim = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-6, 6)] * dim)
    Z = np.array(draw(st.lists(coords, min_size=1, max_size=max_points)), dtype=np.float64) / 2
    repeats = draw(st.just(1) | st.lists(st.integers(1, 3), min_size=len(Z), max_size=len(Z)))
    rows = np.repeat(np.arange(len(Z)), repeats)
    return Z, rows, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])), draw(st.integers(1, 6))


@st.composite
def shuffled_chains(draw):
    """Chains of points exactly 1 apart, plus stray grid points, in random order."""
    points = []
    for c in range(draw(st.integers(1, 3))):
        points += [(float(i), 4.0 * c) for i in range(draw(st.integers(2, 30)))]
    strays = st.tuples(st.integers(-8, 40), st.integers(-4, 12))
    points += [(float(x), float(y)) for x, y in draw(st.lists(strays, max_size=20))]
    order = draw(st.permutations(range(len(points))))
    return np.array(points)[list(order)]


def assert_matches_expansion(Z, eps, min_pts, rows):
    expected = expansion_dbscan(Z, eps, min_pts, rows=rows)
    if expected is None:
        with pytest.raises(FitError, match="noise"):
            fit_dbscan(Z, eps, min_pts, rows=rows)
        return
    model = fit_dbscan(Z, eps, min_pts, rows=rows)
    assert (model.labels_ == expected.labels_).all()
    assert (model.points == expected.points).all()
    assert (model.point_labels == expected.point_labels).all()
    assert model.n_clusters == expected.n_clusters
    assert model.n_noise == expected.n_noise


def assert_same_merge(model, counts, min_support):
    merged, remap = merge_small_clusters(model, counts, min_support)
    expected, expected_remap = pairwise_merge(model, counts, min_support)
    assert (remap == expected_remap).all()
    assert type(merged) is type(expected)
    assert merged.n_clusters == expected.n_clusters
    assert (merged.point_labels == expected.point_labels).all()
    assert (merged.points == expected.points).all()
    if isinstance(expected, DbscanModel):
        assert merged.n_noise == expected.n_noise
    return merged


def centroid_model(centroids):
    """A k-means model of ``centroids``, one cluster each, as ``fit_kmeans`` labels them."""
    return KMeansModel(points=centroids, point_labels=np.arange(len(centroids)))


def grid_islands(cells, sizes):
    """One DBSCAN cluster per cell at eps 1: a row of 1-2 points, 2+ from any other."""
    return np.array(
        [(3.0 * x + i, 3.0 * y) for (x, y), size in zip(cells, sizes) for i in range(size)]
    )


class TestKMeans:
    def test_k1_centroid_is_column_mean(self):
        Z = np.random.default_rng(1).normal(size=(50, 4))
        model = fit_kmeans(Z, k=1, rows=np.arange(len(Z)), seed=0)
        assert np.allclose(model.points[0], Z.mean(axis=0), atol=1e-12)

    def test_well_separated_blobs_recovered(self):
        Z, truth = three_blobs()
        model = fit_kmeans(Z, k=3, rows=np.arange(len(Z)), seed=0)
        ari = adjusted_rand_index(truth.tolist(), model.labels_.tolist())
        assert ari >= 0.99

    def test_inertia_non_increasing(self):
        Z, _ = three_blobs(seed=5, spread=2.0, sep=4.0)
        model = fit_kmeans(Z, k=4, rows=np.arange(len(Z)), seed=1)
        history = model.inertia_history
        assert len(history) >= 2
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    def test_more_clusters_than_distinct_rows(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(FitError, match="distinct"):
            fit_kmeans(Z, k=3, rows=np.arange(len(Z)), seed=0)

    def test_deterministic_for_seed(self):
        Z, _ = three_blobs(seed=7)
        a = fit_kmeans(Z, k=3, rows=np.arange(len(Z)), seed=42)
        b = fit_kmeans(Z, k=3, rows=np.arange(len(Z)), seed=42)
        assert (a.points == b.points).all()
        assert (a.labels_ == b.labels_).all()

    def test_training_labels_reproduced_by_assign(self):
        Z, _ = three_blobs(seed=3, spread=1.5, sep=5.0)
        model = fit_kmeans(Z, k=5, rows=np.arange(len(Z)), seed=2)
        recomputed = model.assign_many(Z)
        assert (recomputed == model.labels_).all()

    @pytest.mark.parametrize("data, k, seed", [
        ("blobs", 3, 0), ("overlapping", 5, 2), ("overlapping", 4, 1), ("normal", 8, 7),
    ])
    def test_one_row_each_bit_identical_to_unweighted_oracle(self, data, k, seed):
        if data == "blobs":
            Z, _ = three_blobs()
        elif data == "overlapping":
            Z, _ = three_blobs(seed=5, spread=2.0, sep=4.0)
        else:
            Z = np.random.default_rng(seed).normal(size=(300, 6))
        model = fit_kmeans(Z, k=k, rows=np.arange(len(Z)), seed=seed)
        centroids, labels, history = unweighted_kmeans(Z, k, seed=seed)
        assert (model.points == centroids).all()
        assert (model.labels_ == labels).all()
        assert model.inertia_history == tuple(history)

    @pytest.mark.parametrize("k, seed", [(3, 0), (5, 2), (7, 4)])
    def test_repeated_rows_fit_equals_expanded_fit(self, k, seed):
        Z, _ = three_blobs(seed=3, spread=1.5, sep=5.0)
        rows = repeat_rows(len(Z), seed=k)
        weighted = fit_kmeans(Z, k=k, seed=seed, rows=rows)
        expanded = fit_kmeans(Z[rows], k=k, rows=np.arange(len(rows)), seed=seed)
        assert (weighted.labels_[rows] == expanded.labels_).all()
        assert np.abs(weighted.points - expanded.points).max() <= 1e-12
        assert len(weighted.inertia_history) == len(expanded.inertia_history)
        assert np.allclose(weighted.inertia_history, expanded.inertia_history, rtol=1e-12, atol=0)

    def test_rows_must_cover_every_row(self):
        Z = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(FitError, match="rows"):
            fit_kmeans(Z, k=2, rows=np.array([0, 1, 2, 3, 3]))
        with pytest.raises(FitError, match="rows"):
            fit_dbscan(Z, eps=1.0, min_pts=2, rows=np.array([0, 1, 2, 3, 4, 5]))


class TestDbscan:
    def test_two_blobs_and_outliers(self):
        rng = np.random.default_rng(11)
        blob_a = rng.normal(size=(60, 2)) * 0.2
        blob_b = rng.normal(size=(60, 2)) * 0.2 + np.array([8.0, 0.0])
        outliers = np.array([[40.0, 40.0], [-30.0, 5.0], [4.0, -25.0], [50.0, -50.0], [-40.0, -40.0]])
        Z = np.concatenate([blob_a, blob_b, outliers])
        model = fit_dbscan(Z, eps=1.0, min_pts=4, rows=np.arange(len(Z)))
        assert model.n_clusters == 2
        assert model.n_noise == 5
        assert set(model.labels_[-5:]) == {-1}
        # brute-force neighborhood counts agree with the core designation
        for i, z in enumerate(Z):
            count = sum(1 for other in Z if float(((z - other) ** 2).sum()) <= 1.0)
            is_core = any((model.points == z).all(axis=1))
            assert is_core == (count >= 4)

    def test_everything_reachable_single_cluster(self):
        Z = np.random.default_rng(2).normal(size=(30, 3))
        diameter = 2 * np.abs(Z).max() * np.sqrt(3) + 1
        model = fit_dbscan(Z, eps=diameter, min_pts=1, rows=np.arange(len(Z)))
        assert model.n_clusters == 1
        assert model.n_noise == 0
        assert (model.labels_ == 0).all()

    def test_partition_invariant_under_permutation(self):
        rng = np.random.default_rng(9)
        blob_a = rng.normal(size=(40, 2)) * 0.3
        blob_b = rng.normal(size=(50, 2)) * 0.3 + np.array([6.0, 6.0])
        Z = np.concatenate([blob_a, blob_b])
        model = fit_dbscan(Z, eps=1.2, min_pts=3, rows=np.arange(len(Z)))
        perm = rng.permutation(len(Z))
        permuted = fit_dbscan(Z[perm], eps=1.2, min_pts=3, rows=np.arange(len(Z)))
        # same partition up to relabeling
        original = model.labels_[perm]
        pairs = {}
        for a, b in zip(original.tolist(), permuted.labels_.tolist()):
            assert (a == -1) == (b == -1)
            if a != -1:
                pairs.setdefault(a, set()).add(b)
        assert all(len(v) == 1 for v in pairs.values())
        assert len({v.pop() for v in pairs.values()}) == len(pairs)

    def test_all_noise_is_an_error(self):
        Z = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        with pytest.raises(FitError, match="noise"):
            fit_dbscan(Z, eps=0.5, min_pts=2, rows=np.arange(len(Z)))

    def test_parameter_validation(self):
        Z = np.zeros((5, 2))
        with pytest.raises(FitError):
            fit_dbscan(Z, eps=0.0, min_pts=1, rows=np.arange(len(Z)))
        with pytest.raises(FitError):
            fit_dbscan(Z, eps=1.0, min_pts=0, rows=np.arange(len(Z)))

    def test_nan_eps_is_rejected_as_not_positive(self):
        with pytest.raises(FitError, match="eps must be positive"):
            fit_dbscan(np.zeros((5, 2)), eps=float("nan"), min_pts=1, rows=np.arange(5))

    def test_repeated_rows_fit_equals_expanded_fit(self):
        rng = np.random.default_rng(21)
        Z = np.concatenate([
            rng.normal(size=(40, 2)) * 0.4,
            rng.normal(size=(40, 2)) * 0.4 + np.array([6.0, 0.0]),
            rng.uniform(-15.0, 15.0, size=(30, 2)),
        ])
        rows = repeat_rows(len(Z), seed=22)
        weighted = fit_dbscan(Z, eps=0.6, min_pts=8, rows=rows)
        expanded = fit_dbscan(Z[rows], eps=0.6, min_pts=8, rows=np.arange(len(rows)))
        assert same_partition(weighted.labels_[rows], expanded.labels_)
        assert weighted.n_clusters == expanded.n_clusters
        assert weighted.n_noise == expanded.n_noise == int((expanded.labels_ == -1).sum())
        assert (np.unique(weighted.points, axis=0)
                == np.unique(expanded.points, axis=0)).all()
        # The counts matter: one point per row would leave other core points.
        once = fit_dbscan(Z, eps=0.6, min_pts=8, rows=np.arange(len(Z)))
        assert len(once.points) != len(weighted.points)

    def test_labels_independent_of_block_size(self, monkeypatch):
        Z, _ = three_blobs(seed=15, n_per=220, spread=1.0, sep=4.0)
        probe = np.random.default_rng(16).normal(size=(650, 2)) * 6.0
        default = fit_dbscan(Z, eps=0.35, min_pts=6, rows=np.arange(len(Z)))
        default_assigned = default.assign_many(probe)
        # 7-row blocks against all of Z, and at least that against the core points.
        monkeypatch.setattr(clustering, "_CELLS", 7 * len(Z))
        small = fit_dbscan(Z, eps=0.35, min_pts=6, rows=np.arange(len(Z)))
        assert len(Z) >= 600 and default.n_noise > 0 and default.n_clusters > 1
        assert (small.labels_ == default.labels_).all()
        assert (small.points == default.points).all()
        assert (small.point_labels == default.point_labels).all()
        assert small.n_noise == default.n_noise
        assert (small.assign_many(probe) == default_assigned).all()

    def test_fit_and_assign_add_at_most_4_mib(self, wide_states):
        # Distances are held a bounded block at a time, however many states.
        _, fm = wide_states
        Z = transform(fm, fit_sparse_pca(fm, k=16, l1_penalty=0.1, seed=0))
        assert len(Z) >= 3000

        def fit_and_assign():
            model = fit_dbscan(Z, 2.0, 5, rows=fm.rows)
            return model, model.assign_many(Z)

        (model, assigned), added = heap_added(fit_and_assign)
        assert model.n_clusters >= 1 and len(assigned) == len(Z)
        assert added <= 4 * 2**20

    def test_kmeans_assign_many_adds_at_most_8_mib(self):
        # Assignment measures a bounded block at a time, not all rows at once.
        rng = np.random.default_rng(17)
        model = centroid_model(rng.normal(size=(64, 16)))
        Z = rng.normal(size=(50_000, 16))
        assigned, added = heap_added(lambda: model.assign_many(Z))
        assert len(assigned) == len(Z)
        assert added <= 8 * 2**20


class TestDbscanMatchesExpansionOracle:
    @settings(max_examples=300)
    @given(grid_fits())
    def test_grid_points(self, fit):
        Z, rows, eps, min_pts = fit
        assert_matches_expansion(Z, eps, min_pts, rows)

    @settings(max_examples=150)
    @given(grid_fits())
    def test_grid_points_in_blocks_of_7(self, fit):
        Z, rows, eps, min_pts = fit
        with mock.patch.object(clustering, "_CELLS", 7 * len(Z)):
            assert_matches_expansion(Z, eps, min_pts, rows)

    @settings(max_examples=150)
    @given(shuffled_chains(), st.integers(1, 3))
    def test_chains_across_blocks_of_7(self, Z, min_pts):
        with mock.patch.object(clustering, "_CELLS", 7 * len(Z)):
            assert_matches_expansion(Z, 1.0, min_pts, np.arange(len(Z)))

    # Off the grid the two distance forms differ in the last bits; on these
    # seeds no core pair lies close enough to eps for that to matter.
    @pytest.mark.parametrize("seed", range(6))
    def test_gaussian_points(self, seed):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(700, 3)) * 2.0
        assert_matches_expansion(Z, [0.5, 1.0][seed % 2], 4, np.arange(len(Z)))


class TestAssign:
    def test_exact_centroid_maps_to_its_id(self):
        Z, _ = three_blobs(seed=4)
        model = fit_kmeans(Z, k=3, rows=np.arange(len(Z)), seed=0)
        for cid, centroid in enumerate(model.points):
            assert model.assign_many(centroid).tolist() == [cid]

    def test_equidistant_tie_breaks_to_lowest_id(self):
        model = centroid_model(np.array([[-1.0, 0.0], [5.0, 5.0], [1.0, 0.0]]))
        assert model.assign_many(np.array([0.0, 0.0])).tolist() == [0]

    def test_matches_brute_force_nearest_centroid(self):
        rng = np.random.default_rng(5)
        model = centroid_model(rng.normal(size=(7, 6)))
        for z in rng.normal(size=(1000, 6)):
            brute = min(
                range(7), key=lambda c: float(((z - model.points[c]) ** 2).sum())
            )
            assert model.assign_many(z).tolist() == [brute]

    def test_dbscan_assign_ignores_eps(self):
        rng = np.random.default_rng(6)
        blob_a = rng.normal(size=(30, 2)) * 0.2
        blob_b = rng.normal(size=(30, 2)) * 0.2 + np.array([5.0, 0.0])
        Z = np.concatenate([blob_a, blob_b])
        model = fit_dbscan(Z, eps=1.0, min_pts=3, rows=np.arange(len(Z)))
        far_point = np.array([1000.0, 990.0])
        [label] = model.assign_many(far_point).tolist()
        assert label in range(model.n_clusters)

    def test_dimension_mismatch(self):
        model = centroid_model(np.zeros((2, 3)))
        with pytest.raises(DataError, match="dim"):
            model.assign_many(np.zeros(4))
        with pytest.raises(DataError, match="dim"):
            model.assign_many(np.zeros(2))


class TestMergeSmallClusters:
    def test_kmeans_small_cluster_folds_into_nearest(self):
        centroids = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        model = centroid_model(centroids)
        counts = np.array([1000, 30, 1000, 40])
        merged, remap = merge_small_clusters(model, counts, min_support=100)
        assert merged.n_clusters == 2
        assert remap[0] == remap[1]
        assert remap[2] == remap[3]
        assert remap[0] != remap[2]
        # region of the folded centroid now reports the survivor's id
        assert merged.assign_many(np.array([1.0, 0.01])).tolist() == [remap[1]]

    def test_merging_stops_at_single_cluster(self):
        model = centroid_model(np.array([[0.0], [1.0], [2.0]]))
        merged, remap = merge_small_clusters(model, np.array([1, 1, 1]), min_support=10)
        assert merged.n_clusters == 1
        assert set(remap.tolist()) == {0}

    def test_satisfied_support_untouched(self):
        model = centroid_model(np.array([[0.0], [5.0]]))
        merged, remap = merge_small_clusters(model, np.array([500, 600]), min_support=100)
        assert merged.n_clusters == 2
        assert remap.tolist() == [0, 1]

    def test_dbscan_merge_relabels_core_points(self):
        rng = np.random.default_rng(13)
        blob_a = rng.normal(size=(40, 2)) * 0.2
        blob_b = rng.normal(size=(40, 2)) * 0.2 + np.array([4.0, 0.0])
        blob_c = rng.normal(size=(12, 2)) * 0.2 + np.array([50.0, 0.0])
        Z = np.concatenate([blob_a, blob_b, blob_c])
        model = fit_dbscan(Z, eps=1.0, min_pts=3, rows=np.arange(len(Z)))
        assert model.n_clusters == 3
        counts = np.array([800, 700, 20])
        merged, remap = merge_small_clusters(model, counts, min_support=100)
        assert merged.n_clusters == 2
        assert remap[2] == remap[1]  # distant small blob folds into nearest (blob b)

    def test_count_length_must_match(self):
        model = centroid_model(np.zeros((3, 2)))
        with pytest.raises(DataError):
            merge_small_clusters(model, np.array([1, 2]), min_support=10)

    def test_working_memory_does_not_grow_with_clusters_squared(self):
        # 2,000 single-point clusters: one float64 matrix between them is 30.5 MiB.
        rng = np.random.default_rng(21)
        model = DbscanModel(points=rng.normal(size=(2000, 16)), point_labels=np.arange(2000))
        counts = rng.integers(1, 60, size=2000)
        (merged, _), added = heap_added(lambda: merge_small_clusters(model, counts, 500))
        assert 1 < merged.n_clusters < 2000
        assert added <= 8 * 2**20


class TestMergeMatchesPairwiseOracle:
    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40,
                 unique=True),
        st.data(),
    )
    def test_dbscan_islands(self, cells, data):
        sizes = data.draw(st.lists(st.integers(1, 2), min_size=len(cells), max_size=len(cells)))
        Z = grid_islands(cells, sizes)
        model = fit_dbscan(Z, eps=1.0, min_pts=1, rows=np.arange(len(Z)))
        assert model.n_clusters == len(cells)
        counts = data.draw(st.lists(st.integers(0, 5), min_size=len(cells),
                                    max_size=len(cells)))
        assert_same_merge(model, np.array(counts), data.draw(st.integers(1, 30)))

    @settings(max_examples=100)
    @given(st.integers(2, 12), st.data())
    def test_kmeans_merged_twice(self, k, data):
        centroids = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                       min_size=k, max_size=k))
        model = centroid_model(np.array(centroids, dtype=np.float64))
        for _ in range(2):
            n = model.n_clusters
            counts = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
            model = assert_same_merge(model, counts, data.draw(st.integers(1, 25)))

    def test_dbscan_fit_with_600_clusters(self):
        rng = np.random.default_rng(31)
        cells = [(x, y) for x in range(25) for y in range(25) if rng.random() < 0.97]
        Z = grid_islands(cells, rng.integers(1, 3, size=len(cells)))
        Z = Z[rng.permutation(len(Z))]
        model = fit_dbscan(Z, eps=1.0, min_pts=1, rows=np.arange(len(Z)))
        assert model.n_clusters == len(cells) >= 500
        counts = rng.integers(0, 10, size=model.n_clusters)
        merged = assert_same_merge(model, counts, 60)
        assert 1 < merged.n_clusters < model.n_clusters / 4


def json_round_trip(model):
    """``model`` after its ``clusters.json`` fields pass through JSON."""
    return cluster_model_from(json.loads(json.dumps(cluster_model_fields(model))))


class TestSerialization:
    def test_kmeans_round_trip(self):
        Z, _ = three_blobs(seed=8)
        model = fit_kmeans(Z, k=3, rows=np.arange(len(Z)), seed=0)
        merged, _ = merge_small_clusters(model, np.array([1000, 5, 1000]), min_support=50)
        loaded = json_round_trip(merged)
        assert isinstance(loaded, KMeansModel)
        assert (loaded.points == merged.points).all()
        assert (loaded.point_labels == merged.point_labels).all()
        probe = np.random.default_rng(0).normal(size=(20, 2)) * 10
        assert (loaded.assign_many(probe) == merged.assign_many(probe)).all()

    def test_dbscan_round_trip(self):
        rng = np.random.default_rng(14)
        Z = np.concatenate(
            [rng.normal(size=(30, 2)) * 0.2, rng.normal(size=(30, 2)) * 0.2 + 5.0]
        )
        model = fit_dbscan(Z, eps=1.0, min_pts=3, rows=np.arange(len(Z)))
        loaded = json_round_trip(model)
        assert isinstance(loaded, DbscanModel)
        assert loaded.n_clusters == model.n_clusters
        assert (loaded.assign_many(Z) == model.assign_many(Z)).all()

    def test_load_rejects_unknown_method(self):
        with pytest.raises(DataError, match="ward"):
            cluster_model_from({"method": "ward"})
