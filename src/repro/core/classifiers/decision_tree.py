"""C4.5-style decision tree (the paper's J48).

A from-scratch implementation of the parts of C4.5 the DejaVu pipeline
exercises: numeric attributes with binary threshold splits chosen by
gain ratio, a minimum-leaf-size stopping rule, and Laplace-smoothed leaf
class distributions providing the prediction confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.classifiers.base import BatchPrediction, validate_training_set
from repro.core.grouping import group_sums


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy of a class-count vector, in bits."""
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-np.sum(probs * np.log2(probs)))


def _entropies(counts: np.ndarray) -> np.ndarray:
    """:func:`entropy` of every row of a ``(..., n_classes)`` count
    array at once, bit for bit (rows with at least one count).

    Each row's terms are summed over its non-zero classes only, as a
    contiguous run in class order — the sum :func:`entropy` takes.
    """
    flat = counts.reshape(-1, counts.shape[-1])
    total = flat.sum(axis=1)
    present = flat > 0
    rows, _ = np.nonzero(present)
    probs = flat[present] / total[rows]
    terms = probs * np.log2(probs)
    sums, _ = group_sums(terms[None, :], rows, flat.shape[0])
    return -sums.reshape(counts.shape[:-1])


@dataclass
class _Node:
    """One tree node; a leaf when ``feature`` is None."""

    class_counts: np.ndarray
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class C45DecisionTree:
    """Gain-ratio decision tree over numeric signature metrics.

    Parameters
    ----------
    min_samples_leaf:
        Smallest allowed leaf; C4.5's default of 2 suits the paper's
        small training sets (24 workloads x a few trials).
    max_depth:
        Depth cap, a simple stand-in for C4.5's pessimistic pruning on
        these low-dimensional, well-separated datasets.
    """

    def __init__(self, min_samples_leaf: int = 2, max_depth: int = 12) -> None:
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be positive: {min_samples_leaf}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be positive: {max_depth}")
        self._min_leaf = min_samples_leaf
        self._max_depth = max_depth
        self._root: _Node | None = None
        self._n_classes = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "C45DecisionTree":
        X, y = validate_training_set(X, y)
        self._n_classes = int(y.max()) + 1
        self._root = self._build(X, y, depth=0)
        return self

    def _class_counts(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self._n_classes).astype(float)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = self._class_counts(y)
        node = _Node(class_counts=counts)
        if (
            depth >= self._max_depth
            or np.unique(y).size == 1
            or y.size < 2 * self._min_leaf
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        """The (feature, threshold) with the highest gain ratio.

        C4.5 considers midpoints between consecutive distinct values of
        each numeric attribute and normalizes information gain by the
        split's intrinsic information.  Every feature's every split is
        scored at once from cumulative class counts over the sorted
        feature; ties go to the first split in (feature, position)
        order.
        """
        n, n_features = X.shape
        class_counts = self._class_counts(y)
        parent_entropy = entropy(class_counts)
        order = np.argsort(X, axis=0, kind="stable")
        values = np.take_along_axis(X, order, axis=0)
        # left[i, f]: class counts of the i + 1 smallest values of f.
        onehot = y[order][:, :, None] == np.arange(self._n_classes)
        left = np.cumsum(onehot, axis=0)[:-1].astype(float)
        right = class_counts - left
        n_left = np.arange(1, n)[:, None]
        n_right = n - n_left
        children_entropy = (
            n_left * _entropies(left) + n_right * _entropies(right)
        ) / n
        gain = parent_entropy - children_entropy
        # Intrinsic information of a split depends only on its size.
        split_info = np.array(
            [
                -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
                for p in (i / n for i in range(1, n))
            ]
        )[:, None]
        valid = (
            (np.diff(values, axis=0) > 0)
            & (n_left >= self._min_leaf)
            & (n_right >= self._min_leaf)
            & (gain > 1e-12)
        )
        if not valid.any():
            return None
        gain_ratio = np.where(valid, gain / split_info, -np.inf)
        feature, idx = divmod(int(np.argmax(gain_ratio.T)), n - 1)
        threshold = (values[idx, feature] + values[idx + 1, feature]) / 2.0
        return feature, float(threshold)

    def predict_batch(self, X: np.ndarray) -> BatchPrediction:
        """Route a whole signature matrix through the tree at once.

        Rows are partitioned level by level with boolean masks on
        ``x[feature] <= threshold``; each leaf's Laplace-smoothed class
        distribution (as in C4.5 release 8) gives its rows' label and
        confidence.
        """
        if self._root is None:
            raise RuntimeError("tree used before fit")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        labels = np.empty(n, dtype=int)
        confidences = np.empty(n, dtype=float)
        stack: list[tuple[_Node, np.ndarray]] = [(self._root, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                smoothed = node.class_counts + 1.0
                probs = smoothed / smoothed.sum()
                label = int(np.argmax(probs))
                labels[rows] = label
                confidences[rows] = float(probs[label])
                continue
            assert node.left is not None and node.right is not None
            goes_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[goes_left]))
            stack.append((node.right, rows[~goes_left]))
        return BatchPrediction(labels=labels, confidences=confidences)

    def depth(self) -> int:
        """Fitted tree depth (root-only tree has depth 0)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree used before fit")
        return walk(self._root)

    def n_leaves(self) -> int:
        def count(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        if self._root is None:
            raise RuntimeError("tree used before fit")
        return count(self._root)
