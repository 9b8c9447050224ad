"""Vectorized cross-lane classification: the batched control plane.

The paper's economy is that one trained signature repository serves
many VMs (Sec. 5) — yet a fleet whose lanes share a trained model still
paid one Python ``standardize → classify → novelty-check`` round-trip
*per lane* per adaptation wave.  This module restructures that loop so
the shared state is consulted once per batch: a
:class:`BatchClassifier` snapshots one trained model (schema,
standardizer, classifier, clustering, novelty geometry) and classifies
an ``(n_lanes, n_features)`` signature matrix in one pass.

Row independence
----------------
Row ``i`` of :meth:`BatchClassifier.classify_matrix` depends on row
``i`` of the input alone: it is bit-identical to classifying that row
as a one-row matrix.  One lane's adaptation
(:meth:`repro.core.manager.DejaVuManager.classify`) is exactly that
one-row case, so a signature gets the same decision whether it is
classified alone or inside a wave of any size:

* standardization is the elementwise ``(x - mean) / scale``;
* each classifier's ``predict_batch`` computes every row's label and
  confidence from that row only;
* novelty *thresholds* depend only on the trained model, so they are
  precomputed per class; novelty *distances* are ``sqrt(d.dot(d))``
  on each row ``d`` of ``Xz - centroids[labels]`` (what
  ``np.linalg.norm`` computes for a 1-D float array).  A broadcast
  ``axis=`` norm sums in another order and would move the last bit of
  distances that the golden digests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import ClusteringModel
from repro.core.model import TrainedModel


def novelty_threshold(
    clustering: ClusteringModel,
    novelty_radii: np.ndarray,
    label: int,
    radius_factor: float,
) -> float:
    """One class's novelty distance threshold.

    The in-class radius scaled by the configured factor, floored at
    half the distance to the nearest other centroid so degenerate
    single-member clusters (radius 0) still accept their neighbourhood.
    """
    radius = float(novelty_radii[label])
    centroid_dists = np.linalg.norm(
        clustering.centroids - clustering.centroids[label],
        axis=1,
    )
    other = centroid_dists[centroid_dists > 0]
    floor = 0.5 * float(other.min()) if other.size else 1.0
    return max(radius * radius_factor, floor)


@dataclass(frozen=True)
class BatchClassification:
    """One adaptation wave's classifications, row-aligned to the input."""

    labels: np.ndarray
    """Assigned workload class per signature (int)."""

    certainties: np.ndarray
    """Certainty after the novelty check, per signature."""

    signatures_z: np.ndarray
    """The standardized signature matrix the decisions were made on."""

    @property
    def n_samples(self) -> int:
        return int(self.labels.size)


class BatchClassifier:
    """Vectorized classify path over one trained DejaVu model.

    Managers expose a cached instance via ``batch_classifier()``.  The
    novelty parameters are part of the snapshot: two managers may share
    a ``BatchClassifier`` only if they serve the same
    :class:`~repro.core.model.TrainedModel` *and* agree on the novelty
    configuration (the fleet engine's grouping key enforces this).
    """

    def __init__(
        self,
        model: TrainedModel,
        novelty_radius_factor: float,
        novelty_certainty: float,
    ) -> None:
        if not model.standardizer.is_fit:
            raise ValueError("batch classifier needs a fitted standardizer")
        clustering = model.clustering
        novelty_radii = np.asarray(model.novelty_radii, dtype=float)
        if novelty_radii.shape != (clustering.n_classes,):
            raise ValueError(
                f"{novelty_radii.shape[0] if novelty_radii.ndim else 0} "
                f"novelty radii for {clustering.n_classes} classes"
            )
        self.schema = model.schema
        self.standardizer = model.standardizer
        self.classifier = model.classifier
        self.clustering = clustering
        self.novelty_certainty = float(novelty_certainty)
        # Per-class novelty thresholds depend only on the trained model;
        # precompute them once.
        self.novelty_thresholds = np.array(
            [
                novelty_threshold(
                    clustering, novelty_radii, label, novelty_radius_factor
                )
                for label in range(clustering.n_classes)
            ]
        )

    @property
    def n_classes(self) -> int:
        return self.clustering.n_classes

    def classify_matrix(self, X_raw: np.ndarray) -> BatchClassification:
        """Standardize, classify and novelty-check a signature matrix.

        ``X_raw`` rows are raw signature vectors in schema order — one
        per lane of an adaptation wave.
        """
        X_raw = np.asarray(X_raw, dtype=float)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.schema.n_metrics:
            raise ValueError(
                f"signature matrix shape {X_raw.shape} does not match the "
                f"{self.schema.n_metrics}-metric schema"
            )
        Xz = self.standardizer.transform(X_raw)
        prediction = self.classifier.predict_batch(Xz)
        labels = prediction.labels
        # Row-wise distances with np.linalg.norm's own 1-D arithmetic
        # (a BLAS dot, then sqrt); an axis= norm is not bit-identical.
        offsets = Xz - self.clustering.centroids[labels]
        distances = np.sqrt([d.dot(d) for d in offsets])
        certainties = np.where(
            distances > self.novelty_thresholds[labels],
            np.minimum(prediction.confidences, self.novelty_certainty),
            prediction.confidences,
        )
        return BatchClassification(
            labels=labels,
            certainties=certainties,
            signatures_z=Xz,
        )
