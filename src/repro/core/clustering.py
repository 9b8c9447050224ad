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

#: k-means++ seedings per k (the lowest-inertia one wins) and the
#: Lloyd iterations each may run.
RESTARTS = 8
MAX_ITER = 100


def _kmeans_plus_plus_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding of one restart: spread initial centroids by D^2
    sampling."""
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


def _seed_fits(
    X: np.ndarray, fit_k: np.ndarray, restarts: int, seed: int
) -> np.ndarray:
    """k-means++ seedings of every fit, ``(fits, max k, d)``; a fit's
    slots past its own k are left unspecified.

    ``fit_k`` is each fit's k, ascending, ``restarts`` fits per k.  Each
    k draws from a fresh ``default_rng(seed)``, restart after restart:
    ``integers(n)`` for the first centroid, then one ``random()`` per
    further centroid — exactly what ``rng.choice(n, p=d2 / total)``
    draws, so ``searchsorted(cumsum(p) / cumsum(p)[-1], u, "right")``
    (the count of cdf values ``<= u``) picks what ``choice`` picks.  A
    k some of whose seedings reach a zero distance total (every point
    already a centroid, the branch that draws ``integers`` instead) is
    re-seeded one restart at a time from a fresh generator.
    """
    n = X.shape[0]
    fits, k_max = fit_k.size, int(fit_k[-1])
    chosen = np.zeros((fits, k_max), dtype=np.intp)
    u = np.zeros((fits, k_max - 1))
    for k, lo in zip(fit_k[::restarts].tolist(), range(0, fits, restarts)):
        rng = np.random.default_rng(seed)
        for fit in range(lo, lo + restarts):
            chosen[fit, 0] = rng.integers(n)
            u[fit, : k - 1] = rng.random(k - 1)
    d2 = np.sum((X - X[chosen[:, 0], None, :]) ** 2, axis=2)
    zero_total = np.zeros(fits, dtype=bool)
    for j in range(1, k_max):
        # Fits with k > j are a suffix: fit_k ascends.
        lo = int(np.searchsorted(fit_k, j, side="right"))
        total = d2[lo:].sum(axis=1)
        empty = total == 0.0
        zero_total[lo:] |= empty
        # A zero-total row is re-seeded below; give it any finite cdf.
        p = np.where(empty[:, None], 1.0, d2[lo:])
        p /= np.where(empty, 1.0, total)[:, None]
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        picked = np.count_nonzero(cdf <= u[lo:, j - 1, None], axis=1)
        chosen[lo:, j] = picked
        d2[lo:] = np.minimum(
            d2[lo:], np.sum((X - X[picked, None, :]) ** 2, axis=2)
        )
    centroids = X[chosen]
    for k in np.unique(fit_k[zero_total]).tolist():
        rng = np.random.default_rng(seed)
        for fit in np.flatnonzero(fit_k == k).tolist():
            centroids[fit, :k] = _kmeans_plus_plus_init(X, k, rng)
    return centroids


def _assign(
    X: np.ndarray, centroids: np.ndarray, padded: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-centroid labels of every row of ``X``: ``(n,)`` for
    ``(k, d)`` centroids, ``(fits, n)`` for a ``(fits, k, d)`` stack
    whose ``(fits, k)`` mask ``padded`` marks slots no point may take."""
    distances = np.linalg.norm(X[:, None, :] - centroids[..., None, :, :], axis=-1)
    if padded is not None:
        distances = np.where(padded[:, None, :], np.inf, distances)
    return np.argmin(distances, axis=-1)


def _fit_candidates(
    X: np.ndarray,
    ks: range,
    restarts: int,
    max_iter: int,
    seed: int,
) -> list[tuple[np.ndarray | None, float, np.ndarray | None]]:
    """k-means of ``X`` for every k in ``ks`` in one batch: per k, the
    ``(centroids, inertia, labels)`` of its first lowest-inertia restart
    (``None`` centroids and labels if no inertia is finite).

    Every (k, restart) fit is one row of a ``(fits, max k, d)`` centroid
    stack; a smaller k's spare slots hold zeros that no point is
    assigned to, so they keep their value and never block convergence.
    Lloyd's iterations update every unconverged fit at once, each fit
    stopping on its own, which reproduces fitting each k and restart
    alone bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] < ks[-1]:
        raise ValueError(f"{X.shape[0]} samples cannot form {ks[-1]} clusters")
    if not np.all(np.isfinite(X)):
        raise ValueError("k-means needs finite data")
    fit_k = np.repeat(np.asarray(ks), restarts)
    k_max = ks[-1]
    padded = np.arange(k_max) >= fit_k[:, None]
    centroids = _seed_fits(X, fit_k, restarts, seed)
    centroids[padded] = 0.0
    active = np.arange(fit_k.size)
    for _ in range(max_iter):
        current = centroids[active]
        labels = _assign(X, current, padded[active])
        groups = (np.arange(active.size)[:, None] * k_max + labels).ravel()
        means, counts = group_means(
            np.tile(X, (active.size, 1)), groups, active.size * k_max
        )
        # An empty cluster keeps its centroid.
        updated = np.where(
            counts[:, None] > 0, means, current.reshape(means.shape)
        ).reshape(current.shape)
        # np.allclose(updated, current) per fit, for finite data.
        converged = np.all(
            np.abs(updated - current) <= 1e-08 + 1e-05 * np.abs(current),
            axis=(1, 2),
        )
        centroids[active[~converged]] = updated[~converged]
        active = active[~converged]
        if active.size == 0:
            break
    labels = _assign(X, centroids, padded)
    residuals = X - np.take_along_axis(centroids, labels[:, :, None], axis=1)
    inertias = (residuals**2).reshape(fit_k.size, -1).sum(axis=1).tolist()
    fits = []
    for k, lo in zip(ks, range(0, fit_k.size, restarts)):
        best, best_inertia = None, float("inf")
        for fit in range(lo, lo + restarts):
            if inertias[fit] < best_inertia:
                best, best_inertia = fit, inertias[fit]
        if best is None:
            fits.append((None, best_inertia, None))
        else:
            fits.append((centroids[best, :k].copy(), best_inertia, labels[best]))
    return fits


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
        self,
        k: int,
        n_restarts: int = RESTARTS,
        max_iter: int = MAX_ITER,
        seed: int = 0,
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

        All restarts are seeded by k-means++ in restart order and then
        iterated together (see :func:`_fit_candidates`, which
        :func:`auto_cluster` runs on every candidate k at once).  The
        first restart with the lowest inertia wins.
        """
        ((self.centroids, self.inertia, _labels),) = _fit_candidates(
            X, range(self.k, self.k + 1), self._n_restarts, self._max_iter, self._seed
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.centroids is None:
            raise RuntimeError("KMeans used before fit")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _assign(X, self.centroids)


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    return np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; higher means better-separated clusters."""
    return _silhouette(_pairwise_distances(np.asarray(X, dtype=float)), labels)


def _silhouette(distances: np.ndarray, labels: np.ndarray) -> float:
    """:func:`silhouette_score` from the ``(n, n)`` pairwise distances."""
    labels = np.asarray(labels)
    unique, cluster = np.unique(labels, return_inverse=True)
    if unique.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    n = distances.shape[0]
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


def auto_cluster(
    X: np.ndarray,
    k_min: int = 2,
    k_max: int = 8,
    seed: int = 0,
) -> ClusteringModel:
    """Cluster with automatic k (silhouette-maximizing in [k_min, k_max]).

    The administrator can instead "explicitly strike the appropriate
    tradeoff between the tuning overhead and hit rate" by fixing k —
    pass ``k_min == k_max``.  Every candidate k is fit in one batch
    (:func:`_fit_candidates`), and the silhouettes share one pairwise
    distance matrix; a k whose fit leaves a cluster empty is skipped.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need at least two samples to cluster, got {X.shape}")
    if not 2 <= k_min <= k_max:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    k_max = min(k_max, X.shape[0] - 1)
    if k_max < k_min:
        k_max = k_min
    ks = range(k_min, k_max + 1)
    fits = _fit_candidates(X, ks, RESTARTS, MAX_ITER, seed)
    distances = _pairwise_distances(X)
    best = None
    for k, (centroids, _inertia, labels) in zip(ks, fits):
        # A k that leaves a cluster without members (duplicate points
        # outnumbering the distinct ones) has no representative to tune.
        if labels is None or np.unique(labels).size < k:
            continue
        score = _silhouette(distances, labels)
        if best is None or score > best[0]:
            best = (score, centroids, labels)
    if best is None:
        raise ValueError("no viable clustering found")
    score, centroids, labels = best
    representatives = []
    radii = []
    for j in range(centroids.shape[0]):
        member_idx = np.flatnonzero(labels == j)
        member_dists = np.linalg.norm(X[member_idx] - centroids[j], axis=1)
        representatives.append(int(member_idx[np.argmin(member_dists)]))
        radii.append(float(member_dists.max()))
    return ClusteringModel(
        centroids=centroids,
        labels=labels,
        representatives=tuple(representatives),
        radii=np.asarray(radii),
        silhouette=score,
    )
