"""Classifier interface.

All classifiers map a signature vector to a workload-class label *and a
certainty level* — the repository "also outputs the certainty level with
which the repository assigned the new signature to the chosen cluster"
(Sec. 3.5).  Certainty drives the full-capacity fallback for unforeseen
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np


@dataclass(frozen=True)
class BatchPrediction:
    """Classifications of a whole signature matrix at once.

    ``labels[i]`` / ``confidences[i]`` depend on row ``i`` alone: they
    are bit-identical to classifying that row as a one-row matrix, so
    one signature is classified as the one-row case of a batch.
    """

    labels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=int)
        confidences = np.asarray(self.confidences, dtype=float)
        if labels.shape != confidences.shape or labels.ndim != 1:
            raise ValueError(
                f"labels {labels.shape} and confidences "
                f"{confidences.shape} must be matching 1-D arrays"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "confidences", confidences)

    @property
    def n_samples(self) -> int:
        return int(self.labels.size)


@runtime_checkable
class Classifier(Protocol):
    """Anything that can learn workload classes and label signatures."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on signatures ``X`` with cluster labels ``y``."""
        ...

    def predict_batch(self, X: np.ndarray) -> BatchPrediction:
        """Classify every row of a signature matrix."""
        ...


def validate_training_set(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Common input validation for classifier ``fit`` methods."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} samples")
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    return X, y
