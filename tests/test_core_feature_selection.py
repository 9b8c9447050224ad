"""Unit tests for CFS feature selection."""

import numpy as np
import pytest

from repro.core.feature_selection import (
    CfsSubsetSelector,
    abs_correlations,
    correlation_ratios,
)


def correlation_ratio(values, labels, adjusted=True):
    return correlation_ratios(np.asarray(values)[:, None], labels, adjusted)[0]


def abs_pearson(x, y):
    return abs_correlations(np.column_stack([x, y]))[0, 1]


def labeled_dataset(seed: int = 0):
    """3 classes x 30 samples; informative, redundant, and noise features."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1, 2], 30)
    level = labels.astype(float)
    # Two complementary informative features: `a` tracks the class level
    # and `b` tracks a second, uncorrelated latent factor (class parity),
    # so CFS needs both for full class information.
    informative_a = level * 10.0 + rng.normal(0, 0.5, labels.size)
    informative_b = (labels % 2) * 10.0 + rng.normal(0, 0.5, labels.size)
    redundant = informative_a * 1.01 + rng.normal(0, 0.5, labels.size)
    noise = rng.normal(0, 1.0, labels.size)
    X = np.column_stack([informative_a, informative_b, redundant, noise])
    names = ["informative_a", "informative_b", "redundant", "noise"]
    return X, labels, names


class TestCorrelationRatio:
    def test_perfectly_separated_feature(self):
        labels = np.repeat([0, 1], 10)
        values = labels.astype(float) * 100.0
        assert correlation_ratio(values, labels) == pytest.approx(1.0)

    def test_constant_feature_is_zero(self):
        labels = np.repeat([0, 1], 10)
        assert correlation_ratio(np.ones(20), labels) == 0.0

    def test_adjustment_shrinks_noise(self):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(24), 3)
        values = rng.normal(0, 1, labels.size)
        raw = correlation_ratio(values, labels, adjusted=False)
        adjusted = correlation_ratio(values, labels, adjusted=True)
        # With 24 classes and 3 samples each, the raw eta of pure noise
        # is inflated far above zero; the adjustment removes that.
        assert raw > 0.4
        assert adjusted < raw / 1.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlation_ratio(np.ones(5), np.ones(4))


class TestAbsPearson:
    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert abs_pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_sign_ignored(self):
        x = np.arange(10.0)
        assert abs_pearson(x, -x) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert abs_pearson(np.ones(10), np.arange(10.0)) == 0.0


class TestCfsSubsetSelector:
    def test_selects_informative_features(self):
        X, y, names = labeled_dataset()
        result = CfsSubsetSelector().select(X, y, names)
        assert "informative_a" in result.selected
        assert "informative_b" in result.selected

    def test_rejects_noise(self):
        X, y, names = labeled_dataset()
        result = CfsSubsetSelector().select(X, y, names)
        assert "noise" not in result.selected

    def test_redundancy_penalized(self):
        # The redundant copy of informative_a should lose to the pair of
        # genuinely complementary features.
        X, y, names = labeled_dataset()
        result = CfsSubsetSelector().select(X, y, names)
        assert "redundant" not in result.selected

    def test_max_features_cap(self):
        X, y, names = labeled_dataset()
        result = CfsSubsetSelector(max_features=1).select(X, y, names)
        assert len(result.selected) == 1

    def test_trace_matches_selection(self):
        X, y, names = labeled_dataset()
        result = CfsSubsetSelector().select(X, y, names)
        assert tuple(step[0] for step in result.trace) == result.selected

    def test_merit_positive(self):
        X, y, names = labeled_dataset()
        result = CfsSubsetSelector().select(X, y, names)
        assert result.merit > 0.5

    def test_single_class_rejected(self):
        X = np.ones((10, 2))
        y = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            CfsSubsetSelector().select(X, y, ["a", "b"])

    def test_all_noise_rejected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = np.repeat([0, 1], 20)
        with pytest.raises(ValueError):
            CfsSubsetSelector(min_class_correlation=0.5).select(
                X, y, ["a", "b", "c"]
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_metric_rejected_by_name(self, bad):
        # A NaN or inf column used to score a perfect class correlation
        # (min(1.0, nan) is 1.0) and win the signature outright.
        X, y, names = labeled_dataset()
        X = np.column_stack([X, np.ones(len(y))])
        X[5, -1] = bad
        with pytest.raises(ValueError, match="badcol"):
            CfsSubsetSelector().select(X, y, names + ["badcol"])

    def test_every_non_finite_metric_named(self):
        X, y, names = labeled_dataset()
        X[0, 0] = np.nan
        X[1, 3] = np.inf
        with pytest.raises(ValueError, match="informative_a, noise"):
            CfsSubsetSelector().select(X, y, names)

    def test_shape_validation(self):
        X, y, names = labeled_dataset()
        with pytest.raises(ValueError):
            CfsSubsetSelector().select(X, y[:-1], names)
        with pytest.raises(ValueError):
            CfsSubsetSelector().select(X, y, names[:-1])

    def test_bad_max_features_rejected(self):
        with pytest.raises(ValueError):
            CfsSubsetSelector(max_features=0)
