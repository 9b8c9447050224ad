"""Nearest-centroid classifier.

Not in the paper's pipeline — it is the ablation baseline for the
classifier-choice study: the simplest possible "cache lookup" that skips
training a model and just assigns signatures to the closest cluster
centroid, with a softmax-over-distances confidence.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifiers.base import BatchPrediction, validate_training_set


class NearestCentroid:
    """Assign to the nearest class centroid.

    Parameters
    ----------
    temperature:
        Scale of the softmax over negative distances that produces the
        confidence; smaller values sharpen the distribution.
    """

    def __init__(self, temperature: float = 1.0) -> None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive: {temperature}")
        self._temperature = temperature
        self._centroids: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearestCentroid":
        X, y = validate_training_set(X, y)
        self._classes = np.unique(y)
        self._centroids = np.array(
            [X[y == label].mean(axis=0) for label in self._classes]
        )
        return self

    def predict_batch(self, X: np.ndarray) -> BatchPrediction:
        """Classify a signature matrix in one broadcast pass.

        The broadcast ``norm(..., axis=2)`` reduces each (row, centroid)
        pair over the contiguous last axis, so a row's result does not
        depend on the other rows.
        """
        if self._centroids is None:
            raise RuntimeError("classifier used before fit")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        distances = np.linalg.norm(
            X[:, None, :] - self._centroids[None, :, :], axis=2
        )
        logits = -distances / self._temperature
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        best = np.argmin(distances, axis=1)
        rows = np.arange(X.shape[0])
        return BatchPrediction(
            labels=self._classes[best],
            confidences=probs[rows, best],
        )
