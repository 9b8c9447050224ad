"""The trained DejaVu model: what one learning phase produces.

The learning phase (Sec. 3.3-3.4) yields one model: the signature
schema, the standardizer, the workload clustering, the runtime
classifier, the per-class novelty radii and one representative workload
per class.  It is replaced whole on a re-learn (Sec. 3.5), shared by the
replicas of a service (Sec. 5) and restored across process lifetimes
(:mod:`repro.core.persistence`).  Nothing refits a trained model in
place, so managers share one object instead of copying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.provider import Allocation
from repro.core.classifiers import Classifier
from repro.core.clustering import ClusteringModel
from repro.core.signature import SignatureSchema, Standardizer
from repro.workloads.request_mix import Workload


@dataclass
class LearningReport:
    """What the learning phase produced (Sec. 3.4)."""

    n_workloads: int
    n_classes: int
    selected_metrics: tuple[str, ...]
    tuning_invocations: int
    tuning_seconds_total: float
    class_allocations: dict[tuple[int, int], Allocation] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """One learning phase's model, compared by identity: managers
    serving the same object classify alike, and a new object means a
    new model."""

    schema: SignatureSchema
    standardizer: Standardizer
    clustering: ClusteringModel
    classifier: Classifier
    novelty_radii: np.ndarray
    """Per class, the farthest training signature from its centroid."""
    class_workloads: dict[int, Workload]
    """Each class's representative workload, which an interference
    escalation tunes; empty for a restored model."""
    learning_report: LearningReport | None
    """None for a restored model: a snapshot carries no report."""
