"""Workload-class identification by clustering.

"DejaVu leverages a standard clustering technique, simple k-means, to
produce a set of workload classes ... The framework can automatically
determine the number of classes" (Sec. 3.4).  We implement Lloyd's
k-means with k-means++ seeding from scratch, and automatic k selection
by silhouette score over a candidate range — which recovers the paper's
4 classes from 24 hourly Messenger workloads (Fig. 5) and 3 from
HotMail.

The model also records, per cluster, the member closest to the centroid
(the instance the Tuner runs on) and the cluster radius (used for the
novelty component of the runtime certainty level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grouping import group_means, group_sums


def _kmeans_plus_plus_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = X.shape[0]
    centroids = [X[rng.integers(n)]]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    while len(centroids) < k:
        total = d2.sum()
        if total == 0.0:
            # All remaining points coincide with a centroid; duplicate one.
            centroid = X[rng.integers(n)]
        else:
            centroid = X[rng.choice(n, p=d2 / total)]
        centroids.append(centroid)
        # Squared distance to the nearest centroid so far (a running
        # minimum is exact: min does not round).
        d2 = np.minimum(d2, np.sum((X - centroid) ** 2, axis=1))
    return np.array(centroids)


class KMeans:
    """Lloyd's algorithm with k-means++ seeding and restarts.

    Parameters
    ----------
    k:
        Number of clusters.
    n_restarts:
        Independent seedings; the lowest-inertia run wins.
    max_iter:
        Lloyd iterations per restart.
    seed:
        RNG seed.
    """

    def __init__(
        self, k: int, n_restarts: int = 8, max_iter: int = 100, seed: int = 0
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1: {k}")
        if n_restarts < 1 or max_iter < 1:
            raise ValueError("restarts and iterations must be positive")
        self.k = k
        self._n_restarts = n_restarts
        self._max_iter = max_iter
        self._seed = seed
        self.centroids: np.ndarray | None = None
        self.inertia: float = float("inf")

    def fit(self, X: np.ndarray) -> "KMeans":
        """Fit from scratch; a refit forgets any earlier fit's centroids.

        All restarts run together: each is seeded by k-means++ in
        restart order (seeding reads only ``X`` and the generator, so
        the draws are exactly those of seeding one restart at a time),
        then Lloyd's iterations update every unconverged restart's
        centroids in one batch.  The first restart with the lowest
        inertia wins.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] < self.k:
            raise ValueError(f"{X.shape[0]} samples cannot form {self.k} clusters")
        if not np.all(np.isfinite(X)):
            raise ValueError("k-means needs finite data")
        self.centroids = None
        self.inertia = float("inf")
        rng = np.random.default_rng(self._seed)
        restarts = self._n_restarts
        centroids = np.stack(
            [_kmeans_plus_plus_init(X, self.k, rng) for _ in range(restarts)]
        )
        active = np.arange(restarts)
        for _ in range(self._max_iter):
            current = centroids[active]
            labels = self._assign(X, current)
            groups = (np.arange(active.size)[:, None] * self.k + labels).ravel()
            means, counts = group_means(
                np.tile(X, (active.size, 1)), groups, active.size * self.k
            )
            # An empty cluster keeps its centroid.
            updated = np.where(
                counts[:, None] > 0, means, current.reshape(means.shape)
            ).reshape(current.shape)
            # np.allclose(updated, current) per restart, for finite data.
            converged = np.all(
                np.abs(updated - current) <= 1e-08 + 1e-05 * np.abs(current),
                axis=(1, 2),
            )
            centroids[active[~converged]] = updated[~converged]
            active = active[~converged]
            if active.size == 0:
                break
        labels = self._assign(X, centroids)
        residuals = X - np.take_along_axis(centroids, labels[:, :, None], axis=1)
        inertias = (residuals**2).reshape(restarts, -1).sum(axis=1)
        for restart, inertia in enumerate(inertias.tolist()):
            if inertia < self.inertia:
                self.inertia = inertia
                self.centroids = centroids[restart].copy()
        return self

    @staticmethod
    def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels of every row of ``X``: ``(n,)`` for
        ``(k, d)`` centroids, ``(restarts, n)`` for a ``(restarts, k, d)``
        stack."""
        distances = np.linalg.norm(
            X[:, None, :] - centroids[..., None, :, :], axis=-1
        )
        return np.argmin(distances, axis=-1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.centroids is None:
            raise RuntimeError("KMeans used before fit")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._assign(X, self.centroids)


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; higher means better-separated clusters."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    unique, cluster = np.unique(labels, return_inverse=True)
    if unique.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    n = X.shape[0]
    distances = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    # sums[i, c]: point i's summed distance to the members of cluster c.
    sums, sizes = group_sums(distances, cluster, unique.size)
    points = np.arange(n)
    own_size = sizes[cluster]
    # Mean distance to the rest of the own cluster (the zero self
    # distance is in the sum); singletons score 0 below.
    a = sums[points, cluster] / np.maximum(own_size - 1, 1)
    nearest = sums / sizes
    nearest[points, cluster] = np.inf
    b = nearest.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    scored = (own_size > 1) & (denom != 0)
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(scores.mean())


@dataclass(frozen=True)
class ClusteringModel:
    """A fitted workload-class model."""

    centroids: np.ndarray
    labels: np.ndarray
    representatives: tuple[int, ...]
    """Per cluster, the index of the member closest to the centroid —
    the workload the Tuner actually runs (Sec. 3.4)."""

    radii: np.ndarray
    """Per cluster, the maximum member-to-centroid distance; runtime
    signatures far outside this radius are treated as novel."""

    silhouette: float

    @property
    def n_classes(self) -> int:
        return int(self.centroids.shape[0])

    def assign(self, x: np.ndarray) -> int:
        """Nearest-centroid class of one point."""
        x = np.asarray(x, dtype=float)
        return int(np.argmin(np.linalg.norm(self.centroids - x, axis=1)))

    def distance_to_centroid(self, x: np.ndarray, cluster: int) -> float:
        if not 0 <= cluster < self.n_classes:
            raise ValueError(f"no cluster {cluster}")
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.centroids[cluster]))


def auto_cluster(
    X: np.ndarray,
    k_min: int = 2,
    k_max: int = 8,
    seed: int = 0,
) -> ClusteringModel:
    """Cluster with automatic k (silhouette-maximizing in [k_min, k_max]).

    The administrator can instead "explicitly strike the appropriate
    tradeoff between the tuning overhead and hit rate" by fixing k —
    pass ``k_min == k_max``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need at least two samples to cluster, got {X.shape}")
    if not 2 <= k_min <= k_max:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    k_max = min(k_max, X.shape[0] - 1)
    if k_max < k_min:
        k_max = k_min
    best: tuple[float, KMeans] | None = None
    for k in range(k_min, k_max + 1):
        model = KMeans(k=k, seed=seed).fit(X)
        labels = model.predict(X)
        if np.unique(labels).size < 2:
            continue
        score = silhouette_score(X, labels)
        if best is None or score > best[0]:
            best = (score, model)
    if best is None:
        raise ValueError("no viable clustering found")
    score, model = best
    labels = model.predict(X)
    representatives = []
    radii = []
    for j in range(model.k):
        member_idx = np.flatnonzero(labels == j)
        member_dists = np.linalg.norm(X[member_idx] - model.centroids[j], axis=1)
        representatives.append(int(member_idx[np.argmin(member_dists)]))
        radii.append(float(member_dists.max()))
    return ClusteringModel(
        centroids=model.centroids,
        labels=labels,
        representatives=tuple(representatives),
        radii=np.asarray(radii),
        silhouette=score,
    )
