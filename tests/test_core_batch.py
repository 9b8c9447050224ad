"""Unit tests for the batched control plane (repro.core.batch).

The contract under test: one classification path.  Classifier
``predict_batch`` and ``BatchClassifier.classify_matrix`` are
bit-identical to the scalar arithmetic they replaced (restated inline
below as the reference), every row is independent of the rest of its
matrix, and a manager's cached batch classifier always reflects the
model it serves.
"""

import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.provider import Allocation
from repro.core.batch import BatchClassifier
from repro.core.classifiers import (
    C45DecisionTree,
    GaussianNaiveBayes,
    NearestCentroid,
)
from repro.core.persistence import manager_state_to_dict, restore_manager_state
from repro.core.repository import AllocationRepository
from repro.experiments.setup import build_scaleout_setup
from repro.sim.fleet import _LaneTable
from repro.sim.profiling_queue import ProfilingQueue
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload

CLASSIFIERS = (C45DecisionTree, GaussianNaiveBayes, NearestCentroid)


def reference_predict(clf, x: np.ndarray) -> tuple[int, float]:
    """One signature vector through each classifier's scalar formula
    (the per-row arithmetic the batched classifiers must reproduce)."""
    if isinstance(clf, C45DecisionTree):
        node = clf._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        smoothed = node.class_counts + 1.0
        probs = smoothed / smoothed.sum()
        label = int(np.argmax(probs))
        return label, float(probs[label])
    if isinstance(clf, GaussianNaiveBayes):
        log_likelihood = -0.5 * np.sum(
            np.log(2.0 * np.pi * clf._vars) + (x - clf._means) ** 2 / clf._vars,
            axis=1,
        )
        log_posterior = log_likelihood + clf._log_priors
        log_posterior -= log_posterior.max()
        posterior = np.exp(log_posterior)
        posterior /= posterior.sum()
        best = int(np.argmax(posterior))
        return int(clf._classes[best]), float(posterior[best])
    distances = np.linalg.norm(clf._centroids - x, axis=1)
    logits = -distances / clf._temperature
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    best = int(np.argmin(distances))
    return int(clf._classes[best]), float(probs[best])


def reference_classify(manager, workload: Workload):
    """A manager's classification as scalar arithmetic: dict collect,
    ``vector_from``, standardize, the classifier's formula, then the
    1-D ``norm`` novelty check.  Returns (label, certainty, xz, novel).
    """
    metrics = manager.profiler.collect_metrics(workload)
    x = manager.model.schema.vector_from(metrics)
    xz = manager.model.standardizer.transform(x[None, :])[0]
    label, confidence = reference_predict(manager.model.classifier, xz)
    centroids = manager.model.clustering.centroids
    centroid_dists = np.linalg.norm(centroids - centroids[label], axis=1)
    other = centroid_dists[centroid_dists > 0]
    floor = 0.5 * float(other.min()) if other.size else 1.0
    radius = float(manager.model.novelty_radii[label])
    threshold = max(radius * manager.config.novelty_radius_factor, floor)
    novel = float(np.linalg.norm(xz - centroids[label])) > threshold
    if novel:
        certainty = min(confidence, manager.config.novelty_certainty)
    else:
        certainty = confidence
    return label, certainty, xz, novel


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
            label, confidence = reference_predict(clf, q)
            assert label == int(batch.labels[i])
            assert confidence == float(batch.confidences[i])

    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_one_row_matches_batch_row(self, factory):
        # A single signature is a one-row matrix: predicting it alone
        # gives exactly the row the whole batch gives.
        X, y = training_set()
        clf = factory().fit(X, y)
        rng = np.random.default_rng(11)
        Q = rng.normal(scale=5.0, size=(50, X.shape[1]))
        batch = clf.predict_batch(Q)
        for i in range(len(Q)):
            one = clf.predict_batch(Q[i : i + 1])
            assert one.labels.shape == (1,) and one.confidences.shape == (1,)
            assert int(one.labels[0]) == int(batch.labels[i])
            assert float(one.confidences[0]) == float(batch.confidences[i])

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


@functools.lru_cache(maxsize=None)
def trained_batch(factory) -> BatchClassifier:
    return trained_manager(classifier_factory=factory).manager.batch_classifier()


class TestBatchClassifier:
    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_matches_scalar_classify_bitwise(self, factory):
        # Twins draw identical telemetry noise: one classifies through
        # the manager (a one-row wave), the other through the scalar
        # arithmetic restated inline.
        setup, twin = (trained_manager(classifier_factory=factory) for _ in range(2))
        peak = setup.trace.peak_clients
        workloads = [setup.trace.workload_at(h * 3600.0) for h in range(24)] + [
            Workload(volume=scale * peak, mix=CASSANDRA_UPDATE_HEAVY)
            for scale in (1.4, 2.0)
        ]
        novel = 0
        for workload in workloads:
            label, certainty, xz = setup.manager.classify(workload)
            ref_label, ref_certainty, ref_xz, ref_novel = reference_classify(
                twin.manager, workload
            )
            assert type(label) is int and type(certainty) is float
            assert (label, certainty) == (ref_label, ref_certainty)
            np.testing.assert_array_equal(xz, ref_xz, strict=True)
            novel += ref_novel
        assert 0 < novel < len(workloads)

    @settings(max_examples=60, deadline=None)
    @given(factory=st.sampled_from(CLASSIFIERS), data=st.data())
    def test_rows_are_independent(self, factory, data):
        # Row i of a matrix classifies exactly as the one-row matrix
        # X[i:i+1] — the case a lone adaptation runs.  Rows sit at
        # 0-4x a class's novelty threshold from its centroid, so both
        # sides of the novelty check are drawn.
        batch = trained_batch(factory)
        n = data.draw(st.integers(1, 40), label="rows")
        classes = np.array(
            data.draw(
                st.lists(
                    st.integers(0, batch.n_classes - 1), min_size=n, max_size=n
                ),
                label="classes",
            )
        )
        reach = np.array(
            data.draw(
                st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n),
                label="reach",
            )
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        directions = np.random.default_rng(seed).normal(
            size=(n, batch.schema.n_metrics)
        )
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        Z = batch.clustering.centroids[classes] + directions * (
            reach * batch.novelty_thresholds[classes]
        )[:, None]
        standardizer = batch.standardizer
        X = standardizer._mean + Z * standardizer._scale
        full = batch.classify_matrix(X)
        for i in range(n):
            one = batch.classify_matrix(X[i : i + 1])
            assert one.labels[0] == full.labels[i]
            assert one.certainties[0] == full.certainties[i]
            np.testing.assert_array_equal(
                one.signatures_z[0], full.signatures_z[i], strict=True
            )

    def test_novelty_floors_certainty(self):
        setup = trained_manager()
        manager = setup.manager
        batch = manager.batch_classifier()
        # A signature absurdly far from every centroid must be flagged
        # novel: certainty capped at the novelty level.
        X = np.full((1, manager.model.schema.n_metrics), 1e9)
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
        n = manager.model.clustering.n_classes
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

    def test_batch_classifier_follows_restored_state(self):
        setup = trained_manager()
        other = build_scaleout_setup(seed=1)
        other.manager.learn(other.trace.hourly_workloads(day=1))
        manager = setup.manager
        stale = manager.batch_classifier()
        restore_manager_state(manager, manager_state_to_dict(other.manager))
        batch = manager.batch_classifier()
        assert batch is not stale
        assert batch.schema is manager.model.schema
        assert batch.standardizer is manager.model.standardizer
        assert batch.classifier is manager.model.classifier
        assert batch.clustering is manager.model.clustering
        assert manager.signature_columns().size == manager.model.schema.n_metrics

    def test_batch_classifier_follows_config_swap(self):
        setup = trained_manager()
        manager = setup.manager
        stale = manager.batch_classifier()
        manager.config = dataclasses.replace(
            manager.config, novelty_radius_factor=0.5, novelty_certainty=0.05
        )
        batch = manager.batch_classifier()
        assert batch is not stale
        assert batch.novelty_certainty == 0.05
        # A far-off signature's certainty is capped at the new level.
        peak = setup.trace.peak_clients
        novel = Workload(volume=2.0 * peak, mix=CASSANDRA_UPDATE_HEAVY)
        assert manager.classify(novel)[1] <= 0.05
        # An unchanged config keeps the cache.
        manager.config = dataclasses.replace(manager.config)
        assert manager.batch_classifier() is batch

    def test_untrained_manager_has_no_batch_state(self):
        setup = build_scaleout_setup(seed=0)
        assert setup.manager.batch_group_key() is None
        table = _LaneTable([setup.manager], [0])
        table.reset()
        assert not table.batchable[0]
        with pytest.raises(RuntimeError, match="before learning"):
            setup.manager.batch_classifier()


def install(path: str, setup, donor) -> None:
    """Give ``setup``'s trained manager a new model along ``path``: one
    of the four ways a model arrives."""
    manager = setup.manager
    day1 = setup.trace.hourly_workloads(day=1)
    if path == "learn":
        manager.learn(day1)
    elif path == "staged":
        queue = ProfilingQueue(slots=1, service_seconds=10.0)
        manager.attach_profiling_queue(queue)
        queue.request(0.0)  # slot busy: the sweep has to queue
        manager.relearn(now=0.0, workloads=day1)
        assert manager.relearn_pending
        manager.poll_pending_deployment(manager.model_available_at)
        assert not manager.relearn_pending
    elif path == "adopt":
        manager.adopt_trained_state(donor.manager)
        assert manager.model is donor.manager.model
    else:
        restore_manager_state(manager, manager_state_to_dict(donor.manager))


class TestInstallPaths:
    """However a model arrives, the batched path follows it, and one
    lane's classification stays the one-row case of the batch."""

    @settings(max_examples=24, deadline=None)
    @given(
        path=st.sampled_from(["learn", "staged", "adopt", "restore"]),
        seed=st.integers(0, 3),
        hours=st.lists(st.integers(0, 167), min_size=1, max_size=6),
    )
    def test_batch_state_follows_the_installed_model(self, path, seed, hours):
        setup = trained_manager(seed=seed)
        donor = trained_manager(seed=seed + 1)
        manager = setup.manager
        old_model, old_key = manager.model, manager.batch_group_key()
        stale = manager.batch_classifier()
        install(path, setup, donor)

        model = manager.model
        assert model is not old_model
        batch = manager.batch_classifier()
        assert batch is not stale
        assert batch.schema is model.schema
        assert batch.standardizer is model.standardizer
        assert batch.classifier is model.classifier
        assert batch.clustering is model.clustering
        names = manager.profiler.monitor.metric_names()
        np.testing.assert_array_equal(
            manager.signature_columns(),
            [names.index(name) for name in model.schema.metric_names],
        )
        key = manager.batch_group_key()
        assert key != old_key
        assert key == (
            id(model),
            id(manager.repository),
            manager.config.novelty_radius_factor,
            manager.config.novelty_certainty,
        )
        if path == "adopt":
            assert key == donor.manager.batch_group_key()

        # A twin of the monitor collects the signatures classify will.
        twin = copy.deepcopy(manager.profiler.monitor)
        workloads = [setup.trace.workload_at(hour * 3600.0) for hour in hours]
        X = np.vstack(
            [
                twin.collect_matrix(
                    [w], monitors=[twin], columns=manager.signature_columns()
                )
                for w in workloads
            ]
        )
        result = batch.classify_matrix(X)
        for j, workload in enumerate(workloads):
            label, certainty, xz = manager.classify(workload)
            assert label == result.labels[j]
            assert certainty == result.certainties[j]
            np.testing.assert_array_equal(xz, result.signatures_z[j])


class TestLookupSequence:
    """The batched wave resolves a group's certain rows with one
    ``lookup`` per row; the statistics are those of the sequence."""

    def entry(self, count: int) -> Allocation:
        return Allocation(count=count)

    def test_stats_charged_per_lookup(self):
        repo = AllocationRepository()
        repo.store(0, 0, self.entry(2))
        repo.store(1, 0, self.entry(3))
        entries = [repo.lookup(label, 0) for label in [0, 1, 0, 2, 1, 0, 5]]
        assert [e.allocation.count if e else None for e in entries] == [
            2, 3, 2, None, 3, 2, None
        ]
        assert repo.stats.hits == 5
        assert repo.stats.misses == 2
        assert repo.stats.missed_keys == {(2, 0): 1, (5, 0): 1}

    def test_empty_sequence(self):
        repo = AllocationRepository()
        assert [repo.lookup(label) for label in []] == []
        assert repo.stats.hits == repo.stats.misses == 0
        assert repo.stats.missed_keys == {}

    def test_band_keyed(self):
        repo = AllocationRepository()
        repo.store(0, 1, self.entry(4))
        assert repo.lookup(0, 0) is None
        assert repo.lookup(0, 1).allocation.count == 4
        assert repo.stats.missed_keys == {(0, 0): 1}
