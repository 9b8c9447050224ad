"""Persistence of DejaVu's learned state.

The whole point of DejaVu is that tuning knowledge is reusable; this
module makes it reusable *across process lifetimes* by serializing a
manager's :class:`~repro.core.model.TrainedModel` — signature schema,
standardizer, clustering, novelty radii, classifier — and its allocation
repository to a JSON document.  Restoring builds a model from the
document and installs it the way every model arrives, so the manager
classifies and looks up allocations identically to the one that
learned.

Only the learned state is persisted; the environments (profiler,
production, tuner) are reconstructed by the caller, since they describe
the deployment rather than the knowledge.  Fleet results have their own
``.npz`` format (:meth:`~repro.sim.fleet.FleetResult.to_npz`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.cloud.instance_types import by_name
from repro.cloud.provider import Allocation
from repro.core.classifiers import (
    C45DecisionTree,
    GaussianNaiveBayes,
    NearestCentroid,
)
from repro.core.classifiers.decision_tree import _Node
from repro.core.clustering import ClusteringModel
from repro.core.manager import DejaVuManager
from repro.core.model import TrainedModel
from repro.core.repository import AllocationRepository
from repro.core.signature import SignatureSchema, Standardizer

FORMAT_VERSION = 1


# --- allocations -----------------------------------------------------------


def allocation_to_dict(allocation: Allocation) -> dict[str, Any]:
    return {"count": allocation.count, "itype": allocation.itype.name}


def allocation_from_dict(data: dict[str, Any]) -> Allocation:
    return Allocation(count=int(data["count"]), itype=by_name(data["itype"]))


# --- repository ------------------------------------------------------------


def repository_to_dict(repository: AllocationRepository) -> list[dict[str, Any]]:
    return [
        {
            "class": entry.workload_class,
            "band": entry.interference_band,
            "allocation": allocation_to_dict(entry.allocation),
            "tuned_at": entry.tuned_at,
        }
        for entry in repository.entries()
    ]


def repository_from_dict(data: list[dict[str, Any]]) -> AllocationRepository:
    repository = AllocationRepository()
    for item in data:
        repository.store(
            int(item["class"]),
            int(item["band"]),
            allocation_from_dict(item["allocation"]),
            tuned_at=float(item["tuned_at"]),
        )
    return repository


# --- standardizer ----------------------------------------------------------


def standardizer_to_dict(standardizer: Standardizer) -> dict[str, Any]:
    if not standardizer.is_fit:
        raise ValueError("cannot persist an unfit standardizer")
    return {
        "mean": standardizer._mean.tolist(),
        "scale": standardizer._scale.tolist(),
    }


def standardizer_from_dict(data: dict[str, Any]) -> Standardizer:
    standardizer = Standardizer()
    standardizer._mean = np.asarray(data["mean"], dtype=float)
    standardizer._scale = np.asarray(data["scale"], dtype=float)
    return standardizer


# --- clustering ------------------------------------------------------------


def clustering_to_dict(model: ClusteringModel) -> dict[str, Any]:
    return {
        "centroids": model.centroids.tolist(),
        "labels": model.labels.tolist(),
        "representatives": list(model.representatives),
        "radii": model.radii.tolist(),
        "silhouette": model.silhouette,
    }


def clustering_from_dict(data: dict[str, Any]) -> ClusteringModel:
    return ClusteringModel(
        centroids=np.asarray(data["centroids"], dtype=float),
        labels=np.asarray(data["labels"], dtype=int),
        representatives=tuple(int(r) for r in data["representatives"]),
        radii=np.asarray(data["radii"], dtype=float),
        silhouette=float(data["silhouette"]),
    )


# --- classifiers -----------------------------------------------------------


def _tree_node_to_dict(node: _Node) -> dict[str, Any]:
    data: dict[str, Any] = {"counts": node.class_counts.tolist()}
    if not node.is_leaf:
        data["feature"] = node.feature
        data["threshold"] = node.threshold
        data["left"] = _tree_node_to_dict(node.left)
        data["right"] = _tree_node_to_dict(node.right)
    return data


def _tree_node_from_dict(data: dict[str, Any]) -> _Node:
    node = _Node(class_counts=np.asarray(data["counts"], dtype=float))
    if "feature" in data:
        node.feature = int(data["feature"])
        node.threshold = float(data["threshold"])
        node.left = _tree_node_from_dict(data["left"])
        node.right = _tree_node_from_dict(data["right"])
    return node


def classifier_to_dict(classifier: Any) -> dict[str, Any]:
    """Serialize any of the three built-in classifiers.

    Raises
    ------
    TypeError
        For unknown classifier types (custom classifiers should provide
        their own persistence).
    """
    if isinstance(classifier, C45DecisionTree):
        if classifier._root is None:
            raise ValueError("cannot persist an unfit decision tree")
        return {
            "kind": "c45",
            "n_classes": classifier._n_classes,
            "min_leaf": classifier._min_leaf,
            "max_depth": classifier._max_depth,
            "root": _tree_node_to_dict(classifier._root),
        }
    if isinstance(classifier, GaussianNaiveBayes):
        if classifier._means is None:
            raise ValueError("cannot persist an unfit naive Bayes model")
        return {
            "kind": "naive-bayes",
            "means": classifier._means.tolist(),
            "vars": classifier._vars.tolist(),
            "log_priors": classifier._log_priors.tolist(),
            "classes": classifier._classes.tolist(),
        }
    if isinstance(classifier, NearestCentroid):
        if classifier._centroids is None:
            raise ValueError("cannot persist an unfit nearest-centroid model")
        return {
            "kind": "nearest-centroid",
            "temperature": classifier._temperature,
            "centroids": classifier._centroids.tolist(),
            "classes": classifier._classes.tolist(),
        }
    raise TypeError(f"cannot persist classifier type {type(classifier).__name__}")


def classifier_from_dict(data: dict[str, Any]) -> Any:
    kind = data["kind"]
    if kind == "c45":
        tree = C45DecisionTree(
            min_samples_leaf=int(data["min_leaf"]),
            max_depth=int(data["max_depth"]),
        )
        tree._n_classes = int(data["n_classes"])
        tree._root = _tree_node_from_dict(data["root"])
        return tree
    if kind == "naive-bayes":
        model = GaussianNaiveBayes()
        model._means = np.asarray(data["means"], dtype=float)
        model._vars = np.asarray(data["vars"], dtype=float)
        model._log_priors = np.asarray(data["log_priors"], dtype=float)
        model._classes = np.asarray(data["classes"], dtype=int)
        return model
    if kind == "nearest-centroid":
        model = NearestCentroid(temperature=float(data["temperature"]))
        model._centroids = np.asarray(data["centroids"], dtype=float)
        model._classes = np.asarray(data["classes"], dtype=int)
        return model
    raise ValueError(f"unknown classifier kind {kind!r}")


# --- manager state ---------------------------------------------------------


def manager_state_to_dict(manager: DejaVuManager) -> dict[str, Any]:
    """Snapshot a trained manager's learned state."""
    model = manager.model
    if model is None:
        raise ValueError("cannot persist an untrained manager")
    return {
        "version": FORMAT_VERSION,
        "schema": list(model.schema.metric_names),
        "standardizer": standardizer_to_dict(model.standardizer),
        "clustering": clustering_to_dict(model.clustering),
        "novelty_radii": model.novelty_radii.tolist(),
        "classifier": classifier_to_dict(model.classifier),
        "repository": repository_to_dict(manager.repository),
    }


def restore_manager_state(manager: DejaVuManager, data: dict[str, Any]) -> None:
    """Load a snapshot into a (typically fresh) manager.

    The manager's environments (profiler, production, tuner) stay as
    constructed; the snapshot's model and a private repository holding
    its entries are installed like any other arriving model, so nothing
    of the replaced model survives: not its miss streak, not a raised
    re-learn request, not a re-learned model staged behind its queued
    sweep (the sweep's grants stay charged).  The snapshot carries no
    class representatives (an interference escalation then tunes the
    observed workload) and no learning report.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported state version {version!r}; expected {FORMAT_VERSION}"
        )
    model = TrainedModel(
        schema=SignatureSchema(metric_names=tuple(data["schema"])),
        standardizer=standardizer_from_dict(data["standardizer"]),
        clustering=clustering_from_dict(data["clustering"]),
        classifier=classifier_from_dict(data["classifier"]),
        novelty_radii=np.asarray(data["novelty_radii"], dtype=float),
        class_workloads={},
        learning_report=None,
    )
    manager._install(model, repository_from_dict(data["repository"]))


def save_manager_state(manager: DejaVuManager, path: str | Path) -> None:
    """Write a trained manager's learned state to a JSON file."""
    Path(path).write_text(json.dumps(manager_state_to_dict(manager), indent=1))


def load_manager_state(manager: DejaVuManager, path: str | Path) -> None:
    """Restore a manager's learned state from a JSON file."""
    restore_manager_state(manager, json.loads(Path(path).read_text()))
