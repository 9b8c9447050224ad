"""Unit tests for the batched control plane (repro.core.batch).

The contract under test: every batched computation — classifier
``predict_batch``, ``BatchClassifier.classify_matrix``, repository
``lookup_batch`` — is *bit-identical* (or, for statistics,
accounting-identical) to the equivalent sequence of scalar calls.
"""

import numpy as np
import pytest

from repro.cloud.provider import Allocation
from repro.core.batch import BatchClassifier
from repro.core.classifiers import (
    C45DecisionTree,
    GaussianNaiveBayes,
    NearestCentroid,
    predict_matrix,
    predict_rows,
)
from repro.core.repository import AllocationRepository
from repro.experiments.setup import build_scaleout_setup
from repro.sim.fleet import _LaneTable

CLASSIFIERS = (C45DecisionTree, GaussianNaiveBayes, NearestCentroid)


def training_set(seed: int = 0, n: int = 90, d: int = 6, k: int = 4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, d))
    y = rng.integers(0, k, n)
    X = centers[y] + rng.normal(size=(n, d))
    return X, y


class TestPredictBatch:
    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_batch_matches_scalar_bitwise(self, factory):
        X, y = training_set()
        clf = factory().fit(X, y)
        rng = np.random.default_rng(7)
        Q = rng.normal(scale=5.0, size=(200, X.shape[1]))
        batch = clf.predict_batch(Q)
        for i, q in enumerate(Q):
            p = clf.predict(q)
            assert p.label == int(batch.labels[i])
            assert p.confidence == float(batch.confidences[i])

    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_predict_rows_fallback_matches(self, factory):
        X, y = training_set(seed=3)
        clf = factory().fit(X, y)
        Q = np.random.default_rng(11).normal(size=(40, X.shape[1]))
        fast = predict_matrix(clf, Q)
        slow = predict_rows(clf, Q)
        np.testing.assert_array_equal(fast.labels, slow.labels)
        np.testing.assert_array_equal(fast.confidences, slow.confidences)

    def test_predict_batch_rejects_non_matrix(self):
        X, y = training_set()
        clf = C45DecisionTree().fit(X, y)
        with pytest.raises(ValueError, match="2-D"):
            clf.predict_batch(X[0])

    def test_predict_batch_before_fit_rejected(self):
        for factory in CLASSIFIERS:
            with pytest.raises(RuntimeError):
                factory().predict_batch(np.zeros((2, 3)))


def trained_manager(classifier_factory=None, seed: int = 0):
    kwargs = {}
    if classifier_factory is not None:
        kwargs["classifier_factory"] = classifier_factory
    setup = build_scaleout_setup(seed=seed, **kwargs)
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


class TestBatchClassifier:
    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_matches_scalar_classify_bitwise(self, factory, monkeypatch):
        setup = trained_manager(classifier_factory=factory)
        manager = setup.manager
        batch = manager.batch_classifier()
        names = manager.profiler.monitor.metric_names()
        # Freeze the signature collections so the scalar path classifies
        # exactly the rows we feed the batched path.
        collections = [
            manager.profiler.collect_metrics(setup.trace.workload_at(h * 3600.0))
            for h in range(24)
        ]
        X = np.array(
            [[metrics[m] for m in manager.schema.metric_names] for metrics in collections]
        )
        result = batch.classify_matrix(X)
        assert result.n_samples == 24
        for i, metrics in enumerate(collections):
            monkeypatch.setattr(
                manager.profiler, "collect_metrics", lambda _w, m=metrics: m
            )
            label, certainty, xz = manager.classify(
                setup.trace.workload_at(i * 3600.0)
            )
            assert label == int(result.labels[i])
            assert certainty == float(result.certainties[i])
            np.testing.assert_array_equal(xz, result.signatures_z[i], strict=True)

    def test_novelty_floors_certainty(self):
        setup = trained_manager()
        manager = setup.manager
        batch = manager.batch_classifier()
        # A signature absurdly far from every centroid must be flagged
        # novel: certainty capped at the novelty level.
        X = np.full((1, manager.schema.n_metrics), 1e9)
        result = batch.classify_matrix(X)
        assert float(result.certainties[0]) <= manager.config.novelty_certainty

    def test_shape_validation(self):
        setup = trained_manager()
        batch = setup.manager.batch_classifier()
        with pytest.raises(ValueError, match="schema"):
            batch.classify_matrix(np.zeros((3, 2)))

    def test_thresholds_precomputed_per_class(self):
        setup = trained_manager()
        manager = setup.manager
        batch = manager.batch_classifier()
        n = manager.clustering.n_classes
        assert batch.novelty_thresholds.shape == (n,)
        assert (batch.novelty_thresholds > 0).all()


class TestManagerBatchState:
    def test_group_key_shared_across_adoptees(self):
        from repro.core.repository import AllocationRepository

        shared = AllocationRepository()
        leader = build_scaleout_setup(repository=shared, seed=0)
        follower = build_scaleout_setup(repository=shared, seed=1)
        leader.manager.learn(leader.trace.hourly_workloads(day=0))
        follower.manager.adopt_trained_state(leader.manager)
        assert leader.manager.batch_group_key() is not None
        assert leader.manager.batch_group_key() == follower.manager.batch_group_key()

    def test_group_key_changes_after_relearn(self):
        setup = trained_manager()
        manager = setup.manager
        before = manager.batch_group_key()
        manager.relearn(now=0.0, workloads=setup.trace.hourly_workloads(day=1))
        assert manager.batch_group_key() != before

    def test_batch_classifier_cache_invalidated_by_relearn(self):
        setup = trained_manager()
        manager = setup.manager
        first = manager.batch_classifier()
        assert manager.batch_classifier() is first  # cached
        manager.relearn(now=0.0, workloads=setup.trace.hourly_workloads(day=1))
        assert manager.batch_classifier() is not first

    def test_untrained_manager_has_no_batch_state(self):
        setup = build_scaleout_setup(seed=0)
        assert setup.manager.batch_group_key() is None
        table = _LaneTable([setup.manager], [0])
        table.reset()
        assert not table.batchable[0]
        with pytest.raises(RuntimeError, match="before learning"):
            setup.manager.batch_classifier()


class TestLookupBatch:
    def entry(self, count: int) -> Allocation:
        return Allocation(count=count)

    def test_stats_match_equivalent_scalar_lookups(self):
        labels = [0, 1, 0, 2, 1, 0, 5]
        scalar = AllocationRepository()
        batched = AllocationRepository()
        for repo in (scalar, batched):
            repo.store(0, 0, self.entry(2))
            repo.store(1, 0, self.entry(3))
        scalar_entries = [scalar.lookup(label, 0) for label in labels]
        batch_entries = batched.lookup_batch(labels, 0)
        assert scalar_entries == batch_entries
        assert scalar.stats.hits == batched.stats.hits == 5
        assert scalar.stats.misses == batched.stats.misses == 2

    def test_empty_batch(self):
        repo = AllocationRepository()
        assert repo.lookup_batch([]) == []
        assert repo.stats.hits == repo.stats.misses == 0

    def test_band_keyed(self):
        repo = AllocationRepository()
        repo.store(0, 1, self.entry(4))
        assert repo.lookup_batch([0], 0) == [None]
        assert repo.lookup_batch([0], 1)[0].allocation.count == 4
