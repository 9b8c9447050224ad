"""Gaussian naive Bayes.

The paper notes "Bayesian models and decision trees work well for the
network services we considered" (Sec. 3.5); naive Bayes is the ablation
comparator for the default C4.5 tree.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifiers.base import BatchPrediction, validate_training_set


class GaussianNaiveBayes:
    """Per-class independent Gaussians with a variance floor.

    Parameters
    ----------
    var_floor_fraction:
        Per-feature variances are floored at this fraction of the
        pooled variance, preventing near-duplicate training points from
        producing degenerate likelihoods (the profiling trials of one
        workload are nearly identical by design).
    """

    def __init__(self, var_floor_fraction: float = 1e-3) -> None:
        if var_floor_fraction <= 0:
            raise ValueError(f"variance floor must be positive: {var_floor_fraction}")
        self._var_floor_fraction = var_floor_fraction
        self._means: np.ndarray | None = None
        self._vars: np.ndarray | None = None
        self._log_priors: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        X, y = validate_training_set(X, y)
        self._classes = np.unique(y)
        n_classes = self._classes.size
        n_features = X.shape[1]
        pooled_var = X.var(axis=0)
        floor = self._var_floor_fraction * np.maximum(pooled_var, 1e-12)
        means = np.zeros((n_classes, n_features))
        variances = np.zeros((n_classes, n_features))
        priors = np.zeros(n_classes)
        for idx, label in enumerate(self._classes):
            members = X[y == label]
            means[idx] = members.mean(axis=0)
            variances[idx] = np.maximum(members.var(axis=0), floor)
            priors[idx] = members.shape[0] / X.shape[0]
        self._means = means
        self._vars = variances
        self._log_priors = np.log(priors)
        return self

    def predict_batch(self, X: np.ndarray) -> BatchPrediction:
        """Classify a signature matrix in one broadcast pass.

        The posterior is normalized in log space per row; each row's
        log-likelihood sum reduces over the contiguous last axis, so a
        row's result does not depend on the other rows.
        """
        if self._means is None:
            raise RuntimeError("classifier used before fit")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        log_likelihood = -0.5 * np.sum(
            np.log(2.0 * np.pi * self._vars)
            + (X[:, None, :] - self._means) ** 2 / self._vars,
            axis=2,
        )
        log_posterior = log_likelihood + self._log_priors
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        posterior /= posterior.sum(axis=1, keepdims=True)
        best = np.argmax(posterior, axis=1)
        rows = np.arange(X.shape[0])
        return BatchPrediction(
            labels=self._classes[best],
            confidences=posterior[rows, best],
        )
