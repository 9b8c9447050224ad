"""The learning pipeline's whole-matrix arithmetic is exact.

CFS, k-means, the silhouette and the C4.5 split search score every
column, cluster or split at once.  Each must reproduce, bit for bit,
the one-at-a-time arithmetic it replaced — kept below as plain
reference implementations — because float summation order decides the
last bit, and a last-bit change can move a tie in feature selection,
clustering or a split.  The drawn datasets include the shapes where a
grouped shortcut would round differently: one-dimensional data with
clusters of eight or more members, constant columns, duplicate points,
tied split thresholds and the learning day's 24-class x 5-trial panel.
Automatic clustering, which fits every candidate k in one batch, must
equal fitting one k at a time.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import clustering
from repro.core.classifiers import C45DecisionTree
from repro.core.clustering import KMeans, auto_cluster, silhouette_score
from repro.core.feature_selection import (
    CfsSubsetSelector,
    abs_correlations,
    correlation_ratios,
)
from repro.core.grouping import group_means, group_sums
from repro.experiments.setup import build_scaleout_setup, build_scaleup_setup

EXAMPLES = settings(max_examples=60, deadline=None)


# --- reference implementations (one group, column or split at a time) -----


def ref_correlation_ratio(values, labels, adjusted=True):
    total_ss = float(np.sum((values - values.mean()) ** 2))
    if total_ss == 0.0:
        return 0.0
    unique = np.unique(labels)
    between_ss = 0.0
    for label in unique:
        group = values[labels == label]
        between_ss += group.size * (group.mean() - values.mean()) ** 2
    eta_squared = between_ss / total_ss
    if adjusted and values.size > unique.size:
        chance = (unique.size - 1) / (values.size - 1)
        if chance < 1.0:
            eta_squared = (eta_squared - chance) / (1.0 - chance)
    return float(math.sqrt(max(0.0, min(1.0, eta_squared))))


def ref_abs_pearson(x, y):
    if x.std() == 0.0 or y.std() == 0.0:
        return 0.0
    return float(abs(np.corrcoef(x, y)[0, 1]))


def ref_cfs_select(X, labels, max_features=None, min_rcf=0.5):
    r_cf = np.array(
        [ref_correlation_ratio(X[:, j], labels) for j in range(X.shape[1])]
    )
    candidates = [j for j in range(X.shape[1]) if r_cf[j] >= min_rcf]
    if not candidates:
        return None

    def merit(subset):
        k = len(subset)
        avg_rcf = float(np.mean(r_cf[subset]))
        if k == 1:
            return avg_rcf
        pair_sum = sum(
            ref_abs_pearson(X[:, min(a, b)], X[:, max(a, b)])
            for idx, a in enumerate(subset)
            for b in subset[idx + 1 :]
        )
        avg_rff = 2.0 * pair_sum / (k * (k - 1))
        return k * avg_rcf / math.sqrt(k + k * (k - 1) * avg_rff)

    selected, trace, best_merit = [], [], -math.inf
    while max_features is None or len(selected) < max_features:
        best_candidate, candidate_merit = None, best_merit
        for j in candidates:
            if j in selected:
                continue
            m = merit(selected + [j])
            if m > candidate_merit:
                best_candidate, candidate_merit = j, m
        if best_candidate is None:
            break
        selected.append(best_candidate)
        best_merit = candidate_merit
        trace.append((best_candidate, best_merit))
    return selected, best_merit, trace


def ref_kmeans_plus_plus(X, k, rng):
    n = X.shape[0]
    centroids = [X[rng.integers(n)]]
    while len(centroids) < k:
        d2 = np.min([np.sum((X - c) ** 2, axis=1) for c in centroids], axis=0)
        total = d2.sum()
        if total == 0.0:
            centroids.append(X[rng.integers(n)])
            continue
        centroids.append(X[rng.choice(n, p=d2 / total)])
    return np.array(centroids)


def ref_assign(X, centroids):
    distances = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
    return np.argmin(distances, axis=1)


def ref_kmeans(X, k, seed, n_restarts=8, max_iter=100):
    rng = np.random.default_rng(seed)
    best_inertia, best_centroids = float("inf"), None
    for _ in range(n_restarts):
        centroids = ref_kmeans_plus_plus(X, k, rng)
        for _ in range(max_iter):
            labels = ref_assign(X, centroids)
            new_centroids = centroids.copy()
            for j in range(k):
                members = X[labels == j]
                if members.size:
                    new_centroids[j] = members.mean(axis=0)
            if np.allclose(new_centroids, centroids):
                break
            centroids = new_centroids
        labels = ref_assign(X, centroids)
        inertia = float(np.sum((X - centroids[labels]) ** 2))
        if inertia < best_inertia:
            best_inertia, best_centroids = inertia, centroids
    return best_centroids, best_inertia


def ref_silhouette(X, labels):
    unique = np.unique(labels)
    distances = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    scores = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        same = labels == labels[i]
        n_same = same.sum()
        if n_same <= 1:
            continue
        a = distances[i, same].sum() / (n_same - 1)
        b = min(
            distances[i, labels == other].mean()
            for other in unique
            if other != labels[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def ref_auto_cluster(X, k_min, k_max, seed):
    """Automatic k one candidate at a time: ``(silhouette, centroids,
    labels)`` of the first k, among those that leave no cluster empty,
    with the strictly best silhouette."""
    k_max = min(k_max, X.shape[0] - 1)
    if k_max < k_min:
        k_max = k_min
    best = None
    for k in range(k_min, k_max + 1):
        model = KMeans(k=k, seed=seed).fit(X)
        labels = model.predict(X)
        if np.unique(labels).size < k:
            continue
        score = silhouette_score(X, labels)
        if best is None or score > best[0]:
            best = (score, model.centroids, labels)
    if best is None:
        raise ValueError("no viable clustering found")
    return best


def ref_entropy(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-np.sum(probs * np.log2(probs)))


def ref_best_split(X, y, n_classes, min_leaf):
    def class_counts(labels):
        return np.bincount(labels, minlength=n_classes).astype(float)

    parent_entropy = ref_entropy(class_counts(y))
    n = y.size
    best = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        labels = y[order]
        for idx in np.flatnonzero(np.diff(values) > 0):
            threshold = (values[idx] + values[idx + 1]) / 2.0
            n_left = idx + 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            children_entropy = (
                n_left * ref_entropy(class_counts(labels[:n_left]))
                + n_right * ref_entropy(class_counts(labels[n_left:]))
            ) / n
            gain = parent_entropy - children_entropy
            if gain <= 1e-12:
                continue
            p_left = n_left / n
            split_info = -(
                p_left * math.log2(p_left) + (1 - p_left) * math.log2(1 - p_left)
            )
            gain_ratio = gain / split_info
            if best is None or gain_ratio > best[0]:
                best = (gain_ratio, feature, threshold)
    return None if best is None else (best[1], best[2])


# --- drawn datasets ---------------------------------------------------------


def bits(a) -> np.ndarray:
    """The raw float64 bits: equality down to the sign of zero."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bits_equal(actual, expected):
    np.testing.assert_array_equal(bits(actual), bits(expected))


@st.composite
def matrices(draw, min_rows=2, max_rows=40, max_cols=6):
    """Float matrices with the shapes grouped sums get wrong: wide
    magnitude ranges, coarse grids (ties and duplicate rows) and
    constant columns."""
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["gaussian", "grid", "duplicates"]))
    if style == "gaussian":
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 4, size=d)
        X += rng.normal(size=d) * 10.0 ** rng.uniform(-2, 5, size=d)
    elif style == "grid":
        X = rng.integers(-3, 4, size=(n, d)) / 4.0
    else:
        pool = rng.normal(size=(max(1, n // 4), d)) * 7.3
        X = pool[rng.integers(pool.shape[0], size=n)]
    if draw(st.booleans()):
        X[:, rng.integers(d)] = rng.normal() * 100.0
    return X


@st.composite
def labeled(draw, max_classes=6, **kwargs):
    X = draw(matrices(**kwargs))
    n = X.shape[0]
    k = draw(st.integers(2, min(max_classes, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(k), rng.integers(k, size=n - k)])
    rng.shuffle(labels)
    return X, labels


@st.composite
def panels(draw):
    """A learning day's shape: 24 classes x 5 trials, a few metrics."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    level = rng.normal(size=(24, d)) * 10.0 ** rng.uniform(0, 6, size=d)
    X = np.repeat(level, 5, axis=0) * (1.0 + 0.02 * rng.normal(size=(120, d)))
    X[:, rng.integers(d)] = draw(st.sampled_from([0.0, 3.0]))
    return X, np.repeat(np.arange(24), 5)


# --- grouped reductions -----------------------------------------------------


class TestGrouping:
    @EXAMPLES
    @given(labeled(max_classes=5, max_rows=60))
    def test_group_sums_match_masked_sums(self, data):
        X, labels = data
        A = np.ascontiguousarray(X.T)
        expected = np.array(
            [[row[labels == g].sum() for g in range(labels.max() + 1)] for row in A]
        )
        sums, counts = group_sums(A, labels, labels.max() + 1)
        assert_bits_equal(sums, expected)
        np.testing.assert_array_equal(counts, np.bincount(labels))

    @EXAMPLES
    @given(labeled(max_classes=5, max_rows=60))
    def test_group_means_match_masked_means(self, data):
        X, labels = data
        means, counts = group_means(X, labels, labels.max() + 2)
        for g in range(labels.max() + 1):
            assert_bits_equal(means[g], X[labels == g].mean(axis=0))
        assert counts[-1] == 0 and not means[-1].any()

    def test_one_dimensional_groups_of_eight_or_more(self):
        # A (m, 1) group mean sums pairwise; a grouped row-by-row
        # accumulation rounds differently here.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 1)) * 1e3 + 0.1
        labels = np.arange(40) % 2
        means, _ = group_means(X, labels, 2)
        for g in range(2):
            assert_bits_equal(means[g], X[labels == g].mean(axis=0))


# --- CFS --------------------------------------------------------------------


class TestCfsExactness:
    @EXAMPLES
    @given(labeled(max_rows=60, max_cols=8))
    def test_correlation_ratios(self, data):
        X, labels = data
        expected = [ref_correlation_ratio(X[:, j], labels) for j in range(X.shape[1])]
        assert_bits_equal(correlation_ratios(X, labels), expected)

    @EXAMPLES
    @given(panels())
    def test_correlation_ratios_on_a_learning_day_panel(self, data):
        X, labels = data
        expected = [ref_correlation_ratio(X[:, j], labels) for j in range(X.shape[1])]
        assert_bits_equal(correlation_ratios(X, labels), expected)

    def test_class_deviation_squared_like_a_scalar(self):
        # The reference squares each class's deviation as a numpy scalar
        # (C's pow), which differs from an array square (x * x) in the
        # last bit for some x.  Classes at +x and -x put exactly x in
        # both deviations, so such an x shows in eta itself.
        candidates = np.random.default_rng(0).normal(size=20000) * 37.0
        mismatched = [x for x in candidates.tolist() if x**2 != x * x]
        x = mismatched[0] if mismatched else float(candidates[0])
        values = np.array([x, x, -x, -x])
        labels = np.array([0, 0, 1, 1])
        for adjusted in (False, True):
            assert correlation_ratios(values[:, None], labels, adjusted)[0] == (
                ref_correlation_ratio(values, labels, adjusted)
            )

    @EXAMPLES
    @given(matrices(min_rows=2, max_cols=8))
    def test_abs_correlations(self, X):
        R = abs_correlations(X)
        for i in range(X.shape[1]):
            for j in range(i + 1, X.shape[1]):
                assert R[i, j] == R[j, i] == ref_abs_pearson(X[:, i], X[:, j])

    @EXAMPLES
    @given(
        st.one_of(panels(), labeled(max_rows=60, max_cols=8)),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([0.0, 0.5]),
    )
    def test_select(self, data, max_features, min_rcf):
        X, labels = data
        names = [f"m{j}" for j in range(X.shape[1])]
        expected = ref_cfs_select(X, labels, max_features, min_rcf)
        selector = CfsSubsetSelector(
            max_features=max_features, min_class_correlation=min_rcf
        )
        if expected is None:
            return
        result = selector.select(X, labels, names)
        selected, merit, trace = expected
        assert result.selected == tuple(names[j] for j in selected)
        assert result.merit == merit
        assert result.trace == tuple((names[j], m) for j, m in trace)


# --- k-means and the silhouette ----------------------------------------------


class TestClusteringExactness:
    @EXAMPLES
    @given(matrices(min_rows=3, max_rows=30), st.integers(2, 5), st.integers(0, 50))
    def test_kmeans_fit(self, X, k, seed):
        k = min(k, X.shape[0])
        model = KMeans(k=k, seed=seed).fit(X)
        centroids, inertia = ref_kmeans(X, k, seed)
        assert_bits_equal(model.centroids, centroids)
        assert model.inertia == inertia

    @EXAMPLES
    @given(st.integers(16, 40), st.integers(0, 50))
    def test_kmeans_one_dimensional_large_clusters(self, n, seed):
        rng = np.random.default_rng(seed)
        X = np.concatenate(
            [rng.normal(0.0, 1.0, n // 2), rng.normal(50.0, 3.0, n - n // 2)]
        )[:, None]
        model = KMeans(k=2, seed=seed).fit(X)
        centroids, inertia = ref_kmeans(X, 2, seed)
        assert_bits_equal(model.centroids, centroids)
        assert model.inertia == inertia

    @EXAMPLES
    @given(labeled(max_classes=5, max_rows=40))
    def test_silhouette(self, data):
        X, labels = data
        assert silhouette_score(X, labels) == ref_silhouette(X, labels)

    def test_silhouette_with_singletons_and_duplicates(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0], [5.0], [5.0]])
        labels = np.array([0, 0, 0, 1, 2, 2])
        assert silhouette_score(X, labels) == ref_silhouette(X, labels)


@st.composite
def cluster_inputs(draw):
    """``(X, k_min, k_max, seed)`` for automatic clustering: general
    matrices (duplicate rows included), one-dimensional data with
    clusters of eight or more, and fewer rows than ``k_max`` (the
    range is clipped to ``n - 1``)."""
    style = draw(st.sampled_from(["matrix", "one_dimensional", "few_rows"]))
    if style == "matrix":
        X = draw(matrices(min_rows=2, max_rows=30, max_cols=12))
    elif style == "one_dimensional":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        sizes = draw(st.lists(st.integers(8, 14), min_size=2, max_size=3))
        X = np.concatenate(
            [rng.normal(40.0 * c, 1.0 + c, size) for c, size in enumerate(sizes)]
        )[:, None]
    else:
        X = draw(matrices(min_rows=2, max_rows=8))
    k_min = draw(st.integers(2, 4))
    k_max = draw(st.one_of(st.just(k_min), st.integers(k_min, 8)))
    return X, k_min, k_max, draw(st.integers(0, 50))


#: Three distinct points, four copies each: every seeding of k >= 4
#: runs out of distance mass after its third centroid.
DUPLICATED = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]]), 4, axis=0)


class TestAutoClusterExactness:
    @EXAMPLES
    @given(cluster_inputs())
    @example((DUPLICATED, 2, 6, 3))
    @example((np.arange(5.0)[:, None], 4, 4, 0))
    def test_auto_cluster_equals_one_k_at_a_time(self, case):
        X, k_min, k_max, seed = case
        try:
            score, centroids, labels = ref_auto_cluster(X, k_min, k_max, seed)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                auto_cluster(X, k_min=k_min, k_max=k_max, seed=seed)
            return
        model = auto_cluster(X, k_min=k_min, k_max=k_max, seed=seed)
        assert model.silhouette == score
        assert_bits_equal(model.centroids, centroids)
        np.testing.assert_array_equal(model.labels, labels)
        for j, representative in enumerate(model.representatives):
            members = np.flatnonzero(labels == j)
            distances = np.linalg.norm(X[members] - centroids[j], axis=1)
            assert representative == members[np.argmin(distances)]
            assert model.radii[j] == distances.max()

    def test_zero_total_seeding_takes_the_per_restart_path(self, monkeypatch):
        seeded = []
        seed_one = clustering._kmeans_plus_plus_init

        def spy(X, k, rng):
            seeded.append(k)
            return seed_one(X, k, rng)

        monkeypatch.setattr(clustering, "_kmeans_plus_plus_init", spy)
        model = auto_cluster(DUPLICATED, k_min=2, k_max=5, seed=3)
        # Only the ks that reach a zero total, every restart of each.
        assert seeded == [4] * 8 + [5] * 8
        score, centroids, labels = ref_auto_cluster(DUPLICATED, 2, 5, 3)
        assert model.silhouette == score
        assert_bits_equal(model.centroids, centroids)
        np.testing.assert_array_equal(model.labels, labels)

    def test_a_k_that_leaves_a_cluster_empty_is_skipped(self):
        # Two distinct points: every k >= 3 fit leaves a cluster empty,
        # which has no member to represent it.
        X = np.repeat(np.array([[0.9], [-1.0]]), [5, 3], axis=0)
        assert auto_cluster(X, k_min=2, k_max=4).n_classes == 2
        with pytest.raises(ValueError, match="^no viable clustering found$"):
            auto_cluster(X, k_min=3, k_max=3)

    def test_identical_points_have_no_viable_clustering(self):
        with pytest.raises(ValueError, match="^no viable clustering found$"):
            auto_cluster(np.full((10, 3), 2.5))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="^2 samples cannot form 3 clusters$"):
            auto_cluster(np.array([[0.0], [1.0]]), k_min=3, k_max=5)
        with pytest.raises(ValueError, match="need at least two samples"):
            auto_cluster(np.array([[0.0, 1.0]]))


# --- C4.5 split search --------------------------------------------------------


class TestSplitExactness:
    @EXAMPLES
    @given(labeled(max_classes=4, max_rows=40), st.integers(1, 3))
    def test_best_split(self, data, min_leaf):
        X, y = data
        tree = C45DecisionTree(min_samples_leaf=min_leaf)
        tree._n_classes = int(y.max()) + 1
        expected = ref_best_split(X, y, tree._n_classes, min_leaf)
        assert tree._best_split(X, y) == expected

    def test_tied_gain_ratios_pick_the_first_feature(self):
        # Two identical columns tie on every split: the first feature wins.
        x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0])
        X = np.column_stack([x, x])
        y = np.array([0, 0, 0, 1, 1, 1, 0, 0])
        tree = C45DecisionTree(min_samples_leaf=1)
        tree._n_classes = 2
        assert tree._best_split(X, y) == ref_best_split(X, y, 2, 1)
        assert tree._best_split(X, y)[0] == 0


# --- a whole learning day ---------------------------------------------------


@pytest.mark.parametrize("build", [build_scaleout_setup, build_scaleup_setup])
@pytest.mark.parametrize("seed", [0, 6, 11])
def test_learning_day_raises_no_floating_point_condition(build, seed):
    """No step of learning divides by zero, overflows, or makes a NaN
    that a later step happens to mask."""
    setup = build(trace_name="messenger", trace_seed=seed + 1, seed=seed)
    workloads = setup.trace.hourly_workloads(day=0)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        setup.manager.learn(workloads)
    assert setup.manager.is_trained
