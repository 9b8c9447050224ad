"""Unit tests for k-means and automatic class identification."""

import numpy as np
import pytest

from repro.core.clustering import KMeans, auto_cluster, silhouette_score


def blobs(centers, points_per_center, spread, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for center in centers:
        data.append(rng.normal(center, spread, size=(points_per_center, len(center))))
    return np.vstack(data)


class TestKMeans:
    def test_recovers_separated_blobs(self):
        X = blobs([(0, 0), (10, 10), (20, 0)], 20, 0.5)
        model = KMeans(k=3, seed=1).fit(X)
        labels = model.predict(X)
        # Each blob's points share one label.
        for start in range(0, 60, 20):
            assert np.unique(labels[start : start + 20]).size == 1

    def test_centroids_near_truth(self):
        X = blobs([(0, 0), (10, 10)], 50, 0.3)
        model = KMeans(k=2, seed=1).fit(X)
        sorted_centroids = model.centroids[np.argsort(model.centroids[:, 0])]
        assert np.allclose(sorted_centroids[0], (0, 0), atol=0.5)
        assert np.allclose(sorted_centroids[1], (10, 10), atol=0.5)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            KMeans(k=2).predict(np.ones((2, 2)))

    def test_k_larger_than_samples_rejected(self):
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.ones((3, 2)))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            KMeans(k=0)

    def test_deterministic_given_seed(self):
        X = blobs([(0, 0), (5, 5)], 20, 0.4)
        a = KMeans(k=2, seed=3).fit(X)
        b = KMeans(k=2, seed=3).fit(X)
        assert np.allclose(np.sort(a.centroids, axis=0), np.sort(b.centroids, axis=0))

    def test_refit_forgets_the_previous_fit(self):
        near = blobs([(0, 0), (3, 3)], 20, 0.3)
        far = blobs([(1000, 1000), (1040, 1040)], 20, 3.0)
        model = KMeans(k=2, seed=0).fit(near)
        model.fit(far)
        fresh = KMeans(k=2, seed=0).fit(far)
        np.testing.assert_array_equal(model.centroids, fresh.centroids)
        assert model.inertia == fresh.inertia
        assert model.centroids.min() > 900

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        X = blobs([(0, 0), (5, 5)], 5, 0.3)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            KMeans(k=2).fit(X)

    def test_inertia_decreases_with_k(self):
        X = blobs([(0, 0), (5, 5), (10, 0)], 20, 0.5)
        inertia_2 = KMeans(k=2, seed=0).fit(X).inertia
        inertia_3 = KMeans(k=3, seed=0).fit(X).inertia
        assert inertia_3 < inertia_2


class TestSilhouette:
    def test_well_separated_scores_high(self):
        X = blobs([(0, 0), (20, 20)], 20, 0.3)
        labels = np.repeat([0, 1], 20)
        assert silhouette_score(X, labels) > 0.9

    def test_random_labels_score_low(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        labels = rng.integers(0, 2, 40)
        assert silhouette_score(X, labels) < 0.3

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score(np.ones((5, 2)), np.zeros(5, dtype=int))


class TestAutoCluster:
    def test_finds_true_k(self):
        X = blobs([(0, 0), (10, 0), (0, 10), (10, 10)], 6, 0.3)
        model = auto_cluster(X, k_min=2, k_max=8, seed=0)
        assert model.n_classes == 4

    def test_representatives_are_members(self):
        X = blobs([(0, 0), (10, 10)], 10, 0.3)
        model = auto_cluster(X, k_min=2, k_max=4)
        for cluster, rep in enumerate(model.representatives):
            assert model.labels[rep] == cluster

    def test_representative_is_closest_to_centroid(self):
        # Sec. 3.4: the Tuner runs "the instance that is closest to the
        # cluster's centroid".
        X = blobs([(0, 0), (10, 10)], 10, 0.5)
        model = auto_cluster(X, k_min=2, k_max=3)
        for cluster, rep in enumerate(model.representatives):
            member_idx = np.flatnonzero(model.labels == cluster)
            dists = np.linalg.norm(X[member_idx] - model.centroids[cluster], axis=1)
            assert np.linalg.norm(X[rep] - model.centroids[cluster]) == pytest.approx(
                dists.min()
            )

    def test_radii_cover_members(self):
        X = blobs([(0, 0), (10, 10)], 10, 0.5)
        model = auto_cluster(X, k_min=2, k_max=3)
        for i, point in enumerate(X):
            cluster = model.labels[i]
            assert (
                np.linalg.norm(point - model.centroids[cluster])
                <= model.radii[cluster] + 1e-9
            )

    def test_assign_nearest_centroid(self):
        X = blobs([(0, 0), (10, 10)], 10, 0.3)
        model = auto_cluster(X, k_min=2, k_max=3)
        label_origin = model.assign(np.array([0.5, 0.5]))
        label_far = model.assign(np.array([9.5, 9.5]))
        assert label_origin != label_far

    def test_fixed_k(self):
        X = blobs([(0, 0), (10, 0), (0, 10)], 8, 0.3)
        model = auto_cluster(X, k_min=2, k_max=2)
        assert model.n_classes == 2

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            auto_cluster(np.ones((1, 2)))

    def test_bad_k_range_rejected(self):
        X = blobs([(0, 0), (10, 10)], 10, 0.3)
        with pytest.raises(ValueError):
            auto_cluster(X, k_min=5, k_max=2)
