"""Unit tests for learned-state persistence."""

import numpy as np
import pytest

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import Allocation
from repro.core.classifiers import (
    C45DecisionTree,
    GaussianNaiveBayes,
    NearestCentroid,
)
from repro.core.persistence import (
    allocation_from_dict,
    allocation_to_dict,
    classifier_from_dict,
    classifier_to_dict,
    load_manager_state,
    manager_state_to_dict,
    repository_from_dict,
    repository_to_dict,
    restore_manager_state,
    save_manager_state,
    standardizer_from_dict,
    standardizer_to_dict,
)
from repro.core.manager import DejaVuConfig
from repro.core.repository import AllocationRepository
from repro.core.signature import Standardizer
from repro.experiments.setup import build_scaleout_setup
from repro.sim.engine import StepContext
from repro.sim.profiling_queue import ProfilingQueue
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload


def three_class_data(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    X = np.vstack([rng.normal(c, 0.3, size=(20, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 20)
    return X, y


class TestAllocationRoundTrip:
    def test_large(self):
        allocation = Allocation(count=7, itype=LARGE)
        assert allocation_from_dict(allocation_to_dict(allocation)) == allocation

    def test_xlarge(self):
        allocation = Allocation(count=5, itype=EXTRA_LARGE)
        assert allocation_from_dict(allocation_to_dict(allocation)) == allocation


class TestRepositoryRoundTrip:
    def test_entries_survive(self):
        repo = AllocationRepository()
        repo.store(0, 0, Allocation(count=2, itype=LARGE), tuned_at=10.0)
        repo.store(0, 1, Allocation(count=4, itype=LARGE), tuned_at=20.0)
        repo.store(3, 0, Allocation(count=5, itype=EXTRA_LARGE))
        restored = repository_from_dict(repository_to_dict(repo))
        assert len(restored) == 3
        assert restored.lookup(0, 1).allocation.count == 4
        assert restored.lookup(3, 0).allocation.itype is EXTRA_LARGE


class TestStandardizerRoundTrip:
    def test_transform_identical(self):
        X, _ = three_class_data()
        standardizer = Standardizer().fit(X)
        restored = standardizer_from_dict(standardizer_to_dict(standardizer))
        assert np.allclose(standardizer.transform(X), restored.transform(X))

    def test_unfit_rejected(self):
        with pytest.raises(ValueError):
            standardizer_to_dict(Standardizer())


@pytest.mark.parametrize(
    "classifier_cls", [C45DecisionTree, GaussianNaiveBayes, NearestCentroid]
)
class TestClassifierRoundTrip:
    def test_predictions_identical(self, classifier_cls):
        X, y = three_class_data()
        model = classifier_cls().fit(X, y)
        restored = classifier_from_dict(classifier_to_dict(model))
        original = model.predict_batch(X[::7])
        copy = restored.predict_batch(X[::7])
        np.testing.assert_array_equal(original.labels, copy.labels)
        np.testing.assert_allclose(original.confidences, copy.confidences)

    def test_unfit_rejected(self, classifier_cls):
        with pytest.raises(ValueError):
            classifier_to_dict(classifier_cls())


class TestUnknownClassifier:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            classifier_to_dict(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            classifier_from_dict({"kind": "quantum"})


class TestManagerState:
    @pytest.fixture(scope="class")
    def trained(self):
        setup = build_scaleout_setup("messenger")
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        return setup

    def test_untrained_manager_rejected(self):
        setup = build_scaleout_setup("messenger")
        with pytest.raises(ValueError):
            manager_state_to_dict(setup.manager)

    def test_round_trip_classifies_identically(self, trained):
        state = manager_state_to_dict(trained.manager)
        fresh = build_scaleout_setup("messenger")
        restore_manager_state(fresh.manager, state)
        for hour in (2, 8, 12, 19):
            workload = trained.trace.workload_at(hour * 3600.0)
            label_a, cert_a, _ = trained.manager.classify(workload)
            label_b, cert_b, _ = fresh.manager.classify(workload)
            assert label_a == label_b

    def test_round_trip_preserves_repository(self, trained):
        state = manager_state_to_dict(trained.manager)
        fresh = build_scaleout_setup("messenger")
        restore_manager_state(fresh.manager, state)
        assert len(fresh.manager.repository) == len(trained.manager.repository)

    def test_file_round_trip(self, trained, tmp_path):
        path = tmp_path / "state.json"
        save_manager_state(trained.manager, path)
        fresh = build_scaleout_setup("messenger")
        load_manager_state(fresh.manager, path)
        assert fresh.manager.is_trained
        assert fresh.manager.model.clustering.n_classes == 4

    def test_version_checked(self, trained):
        state = manager_state_to_dict(trained.manager)
        state["version"] = 999
        fresh = build_scaleout_setup("messenger")
        with pytest.raises(ValueError):
            restore_manager_state(fresh.manager, state)

    def test_restore_drops_what_the_snapshot_lacks(self, trained):
        # Restoring another trained manager's snapshot keeps nothing of
        # the replaced model: the snapshot carries no class
        # representatives and no learning report, so both are cleared
        # (an interference escalation then tunes the observed workload,
        # not the old model's representative of a reused label).
        setup = build_scaleout_setup("messenger", seed=1)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=1))
        assert manager.model.class_workloads and manager.model.learning_report
        restore_manager_state(manager, manager_state_to_dict(trained.manager))
        assert manager.model.class_workloads == {}
        assert manager.model.learning_report is None
        assert manager.model.schema == trained.manager.model.schema
        for hour in (2, 8, 12, 19):
            workload = trained.trace.workload_at(hour * 3600.0)
            assert (
                manager.classify(workload)[0]
                == trained.manager.classify(workload)[0]
            )
        # A later learn fills both again.
        report = manager.learn(setup.trace.hourly_workloads(day=2))
        assert manager.model.learning_report is report
        assert set(manager.model.class_workloads) == set(
            range(report.n_classes)
        )

    def test_restore_drops_a_staged_relearn(self, trained):
        # A relearn staged behind its queued sweep belongs to the model
        # the restore replaces: once the sweep drains, the restored
        # schema and classifier must still serve.  The sweep's grants
        # stay charged.
        queue = ProfilingQueue(slots=1, service_seconds=10.0)
        setup = build_scaleout_setup("messenger", seed=1)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        manager.attach_profiling_queue(queue)
        queue.request(0.0)  # slot busy: the relearn sweep has to queue
        manager.relearn(now=0.0, workloads=setup.trace.hourly_workloads(day=1))
        assert manager.relearn_pending
        available = manager.model_available_at
        charged = len(queue.grants)
        restore_manager_state(manager, manager_state_to_dict(trained.manager))
        schema, classifier = manager.model.schema, manager.model.classifier
        manager.poll_pending_deployment(available + 1.0)
        assert manager.model.schema is schema
        assert manager.model.classifier is classifier
        assert manager.model.schema == trained.manager.model.schema
        assert not manager.relearn_pending
        assert manager.model_available_at == 0.0
        assert len(queue.grants) == charged
        workload = setup.trace.workload_at(8 * 3600.0)
        label, _certainty, _z = manager.classify(workload)
        assert 0 <= label < trained.manager.model.clustering.n_classes

    @pytest.mark.parametrize("seed", [0, 1])
    def test_restore_starts_a_fresh_miss_streak(self, trained, seed):
        # Misses against the replaced model do not count against the
        # restored one: after three misses and a restore, only a full
        # streak of relearn_after_misses=4 raises a re-learn request.
        config = DejaVuConfig(relearn_after_misses=4)
        setup = build_scaleout_setup("messenger", config=config, seed=seed)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        novel = Workload(
            volume=1.35 * setup.trace.peak_clients, mix=CASSANDRA_UPDATE_HEAVY
        )

        def miss(hour: int) -> None:
            t = hour * 3600.0
            ctx = StepContext(t=t, workload=novel, hour=hour, day=hour // 24)
            assert not manager.adapt(ctx).cache_hit

        for hour in range(24, 27):
            miss(hour)
        assert not manager.relearn_requested
        restore_manager_state(manager, manager_state_to_dict(trained.manager))
        for hour in range(27, 30):
            miss(hour)
            assert not manager.relearn_requested
        miss(30)
        assert manager.relearn_requested

    @pytest.mark.parametrize("sharing", ["adopted", "external"])
    def test_restored_repository_is_private(self, trained, sharing):
        # Before the restore the manager serves a repository other
        # managers hold too; the restored one is its own, so a later
        # learn clears it in place and leaves the shared one alone.
        if sharing == "adopted":
            setup = build_scaleout_setup("messenger")
            setup.manager.adopt_trained_state(trained.manager)
            shared = trained.manager.repository
        else:
            shared = AllocationRepository()
            setup = build_scaleout_setup("messenger", repository=shared)
            setup.manager.learn(setup.trace.hourly_workloads(day=0))
        manager = setup.manager
        entries = len(shared)
        restore_manager_state(manager, manager_state_to_dict(trained.manager))
        restored = manager.repository
        assert restored is not shared
        assert not manager._repository_external
        assert not manager._repository_fleet_shared
        manager.learn(setup.trace.hourly_workloads(day=1))
        assert manager.repository is restored
        assert len(shared) == entries

    def test_restored_manager_adapts(self, trained, tmp_path):
        from repro.sim.engine import StepContext

        path = tmp_path / "state.json"
        save_manager_state(trained.manager, path)
        fresh = build_scaleout_setup("messenger")
        load_manager_state(fresh.manager, path)
        workload = fresh.trace.workload_at(30 * 3600.0)
        ctx = StepContext(t=30 * 3600.0, workload=workload, hour=30, day=1)
        event = fresh.manager.adapt(ctx)
        assert event.cache_hit
