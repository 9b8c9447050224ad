"""Unit tests for the runtime classifiers."""

import numpy as np
import pytest

from repro.core.classifiers import (
    C45DecisionTree,
    GaussianNaiveBayes,
    NearestCentroid,
)
from repro.core.classifiers.decision_tree import entropy


def three_class_data(seed=0, n=30, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    X = np.vstack([rng.normal(c, spread, size=(n, 2)) for c in centers])
    y = np.repeat([0, 1, 2], n)
    return X, y


ALL_CLASSIFIERS = [C45DecisionTree, GaussianNaiveBayes, NearestCentroid]


def predict_one(model, x):
    """One signature's (label, confidence), classified as a one-row matrix."""
    batch = model.predict_batch(np.asarray(x, dtype=float)[None, :])
    return int(batch.labels[0]), float(batch.confidences[0])


class TestEntropy:
    def test_pure_is_zero(self):
        assert entropy(np.array([10.0, 0.0])) == 0.0

    def test_uniform_is_one_bit(self):
        assert entropy(np.array([5.0, 5.0])) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert entropy(np.array([0.0, 0.0])) == 0.0


@pytest.mark.parametrize("classifier_cls", ALL_CLASSIFIERS)
class TestAllClassifiers:
    def test_classifies_training_points(self, classifier_cls):
        X, y = three_class_data()
        model = classifier_cls().fit(X, y)
        correct = np.count_nonzero(model.predict_batch(X).labels == y)
        assert correct / len(y) > 0.95

    def test_generalizes_to_nearby_points(self, classifier_cls):
        X, y = three_class_data()
        model = classifier_cls().fit(X, y)
        assert predict_one(model, [5.2, 0.1])[0] == 1

    def test_confidence_in_unit_interval(self, classifier_cls):
        X, y = three_class_data()
        model = classifier_cls().fit(X, y)
        confidences = model.predict_batch(X).confidences
        assert np.all((confidences >= 0.0) & (confidences <= 1.0))

    def test_confident_on_clean_data(self, classifier_cls):
        X, y = three_class_data(spread=0.1)
        model = classifier_cls().fit(X, y)
        assert predict_one(model, X[0])[1] > 0.6

    def test_predict_before_fit_rejected(self, classifier_cls):
        with pytest.raises(RuntimeError):
            classifier_cls().predict_batch(np.zeros((1, 2)))

    def test_empty_training_set_rejected(self, classifier_cls):
        with pytest.raises(ValueError):
            classifier_cls().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_shape_mismatch_rejected(self, classifier_cls):
        with pytest.raises(ValueError):
            classifier_cls().fit(np.zeros((5, 2)), np.zeros(4, dtype=int))


class TestC45Specifics:
    def test_depth_and_leaves(self):
        X, y = three_class_data()
        tree = C45DecisionTree().fit(X, y)
        assert tree.depth() >= 1
        assert tree.n_leaves() >= 3

    def test_min_samples_leaf_respected(self):
        X, y = three_class_data(n=4)
        tree = C45DecisionTree(min_samples_leaf=4).fit(X, y)
        # With 4-sample leaves required, 12 points allow few splits.
        assert tree.n_leaves() <= 3

    def test_max_depth_zero_tree_predicts_majority(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1])
        tree = C45DecisionTree(max_depth=1, min_samples_leaf=1).fit(X, y)
        assert predict_one(tree, [0.5])[0] in (0, 1)

    def test_lower_confidence_on_small_leaves(self):
        # Laplace smoothing: a 3-sample pure leaf (trials=3 per
        # workload) gives (3+1)/(3+4) = 0.571 for 4 classes — the exact
        # effect that drove trials_per_workload to 5.
        X = np.repeat(np.arange(4.0)[:, None], 3, axis=0)
        y = np.repeat([0, 1, 2, 3], 3)
        tree = C45DecisionTree().fit(X, y)
        assert predict_one(tree, [0.0])[1] == pytest.approx(4 / 7)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            C45DecisionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            C45DecisionTree(max_depth=0)


class TestNaiveBayesSpecifics:
    def test_variance_floor_handles_duplicate_points(self):
        X = np.array([[1.0, 2.0]] * 5 + [[3.0, 4.0]] * 5)
        y = np.repeat([0, 1], 5)
        model = GaussianNaiveBayes().fit(X, y)
        assert predict_one(model, [1.0, 2.0])[0] == 0

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes(var_floor_fraction=0.0)


class TestNearestCentroidSpecifics:
    def test_confidence_decays_with_distance(self):
        X, y = three_class_data(spread=0.1)
        model = NearestCentroid().fit(X, y)
        near = predict_one(model, [0.0, 0.0])[1]
        far = predict_one(model, [2.4, 0.0])[1]
        assert near > far

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            NearestCentroid(temperature=0.0)
