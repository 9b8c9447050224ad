"""Correlation-based feature subset selection (CFS).

The paper selects signature metrics with WEKA's ``CfsSubsetEval`` "in
collaboration with the GreedyStepWise search": it "evaluates each
attribute individually, but also observes the degree of redundancy among
them internally to prevent undesirable overlap" (Sec. 3.3).

We implement Hall's CFS from scratch.  A feature subset S scores

    merit(S) = k * avg(r_cf) / sqrt(k + k*(k-1) * avg(r_ff))

where ``k = |S|``, ``r_cf`` is the feature-class correlation and
``r_ff`` the feature-feature inter-correlation.  Greedy stepwise forward
search adds the merit-maximizing feature until no addition improves the
merit.  For numeric features against a nominal class we use the
correlation ratio (eta) as ``r_cf`` — the ANOVA analogue of Pearson
correlation — and absolute Pearson correlation for ``r_ff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.grouping import group_sums


def correlation_ratios(
    X: np.ndarray, labels: np.ndarray, adjusted: bool = True
) -> np.ndarray:
    """Correlation ratio (eta) between each column of ``X`` and the
    class labels.

    ``eta^2`` is the fraction of the feature's variance explained by the
    class: between-class sum of squares over total sum of squares.
    A constant feature scores 0.

    With ``adjusted=True`` (the default) the chance-level inflation of
    eta^2 is removed (the epsilon-squared correction,
    ``(eta^2 - E0) / (1 - E0)`` with ``E0 = (k-1)/(n-1)``).  This
    matters with many classes and few samples per class — the profiling
    dataset has exactly that shape — where the *raw* eta of a pure-noise
    feature is far from zero and CFS would otherwise happily assemble
    signatures out of uncorrelated noise counters.  WEKA's CfsSubsetEval
    avoids the same trap through MDL discretization, which refuses to
    split on noise; the adjustment is our numeric-feature equivalent.

    Every column is scored at once, with each column's sums taken in
    the order a one-column computation takes them (see
    :mod:`repro.core.grouping`).
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if X.ndim != 2 or labels.shape != X.shape[:1]:
        raise ValueError(
            f"shape mismatch: {X.shape} values vs {labels.shape} labels"
        )
    n = X.shape[0]
    classes, label_index = np.unique(labels, return_inverse=True)
    # One contiguous row per feature: row reductions then sum each
    # column as a standalone 1-D array would.
    columns = np.ascontiguousarray(X.T)
    means = columns.mean(axis=1)
    total_ss = ((columns - means[:, None]) ** 2).sum(axis=1)
    sums, sizes = group_sums(columns, label_index, classes.size)
    deviation = sums / sizes - means[:, None]
    # Squared through Python floats: C's pow, which the per-class
    # scalar arithmetic used, and numpy's array square (x * x) disagree
    # in the last bit on about one value in a thousand.
    squared = np.array([d**2 for d in deviation.ravel().tolist()]).reshape(
        deviation.shape
    )
    between_ss = np.zeros(columns.shape[0])
    for term in (sizes * squared).T:
        # One class at a time, in class order: a sequential sum.
        between_ss += term
    constant = total_ss == 0.0
    eta_squared = between_ss / np.where(constant, 1.0, total_ss)
    if adjusted and n > classes.size:
        chance = (classes.size - 1) / (n - 1)
        if chance < 1.0:
            eta_squared = (eta_squared - chance) / (1.0 - chance)
    eta = np.sqrt(np.clip(eta_squared, 0.0, 1.0))
    eta[constant] = 0.0
    return eta


def abs_correlations(X: np.ndarray) -> np.ndarray:
    """|Pearson correlation| between every pair of columns of ``X``.

    Entry ``(i, j)`` is 0 when either column is constant; otherwise it
    is ``abs(np.corrcoef(X[:, i], X[:, j])[0, 1])`` bit for bit.  Each
    pair's 2x2 covariance comes from a stacked ``matmul`` of the pair
    with its own transpose — the same BLAS call ``np.corrcoef`` makes
    for two vectors — because one ``K x K`` product rounds some entries
    differently.  The diagonal is 1 (0 for a constant column).
    """
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    columns = np.ascontiguousarray(X.T)
    centered = columns - columns.mean(axis=1)[:, None]
    first, second = np.triu_indices(k, 1)
    pairs = np.stack([centered[first], centered[second]], axis=1)
    cov = np.matmul(pairs, pairs.transpose(0, 2, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Constant columns divide by zero here; they are zeroed below.
        cov *= np.true_divide(1, n - 1)
        r = cov[:, 0, 1] / np.sqrt(cov[:, 0, 0]) / np.sqrt(cov[:, 1, 1])
    r = np.abs(np.clip(r, -1, 1))
    constant = columns.std(axis=1) == 0.0
    r[constant[first] | constant[second]] = 0.0
    out = np.diag(np.where(constant, 0.0, 1.0))
    out[first, second] = out[second, first] = r
    return out


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a CFS run."""

    selected: tuple[str, ...]
    merit: float
    trace: tuple[tuple[str, float], ...]
    """(feature added, merit after adding) per greedy step."""


class CfsSubsetSelector:
    """CFS with greedy stepwise forward search.

    Parameters
    ----------
    max_features:
        Optional hard cap on the subset size (HPC register budgets make
        very long signatures expensive to collect; the paper's RUBiS
        signature has 8 HPC events plus xentop metrics).
    min_class_correlation:
        Features whose class correlation is below this are never
        considered — a cheap pre-filter for pure-noise counters.
    """

    def __init__(
        self,
        max_features: int | None = None,
        min_class_correlation: float = 0.5,
    ) -> None:
        if max_features is not None and max_features < 1:
            raise ValueError(f"max_features must be positive: {max_features}")
        if not 0.0 <= min_class_correlation < 1.0:
            raise ValueError(
                f"min_class_correlation out of range: {min_class_correlation}"
            )
        self._max_features = max_features
        self._min_rcf = min_class_correlation

    def select(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        feature_names: list[str],
    ) -> SelectionResult:
        """Run CFS over a labeled dataset.

        Parameters
        ----------
        X:
            ``(n_samples, n_features)`` metric matrix.
        labels:
            Nominal class labels, one per sample (the profiling trials'
            workload identities).
        feature_names:
            Column names of ``X``.
        """
        X = np.asarray(X, dtype=float)
        labels = np.asarray(labels)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n_samples, n_features = X.shape
        if labels.shape != (n_samples,):
            raise ValueError(
                f"labels shape {labels.shape} does not match {n_samples} samples"
            )
        if len(feature_names) != n_features:
            raise ValueError(
                f"{len(feature_names)} names for {n_features} features"
            )
        if np.unique(labels).size < 2:
            raise ValueError("CFS needs at least two classes")

        finite = np.isfinite(X).all(axis=0)
        if not finite.all():
            bad = [feature_names[j] for j in np.flatnonzero(~finite)]
            raise ValueError(f"non-finite values in metric(s): {', '.join(bad)}")

        r_cf = correlation_ratios(X, labels)
        candidates = np.flatnonzero(r_cf >= self._min_rcf)
        if candidates.size == 0:
            raise ValueError(
                "no feature clears the class-correlation pre-filter; "
                "the dataset may be unlabeled noise"
            )
        # From here on, features are indexed by candidate position.
        r_cf = r_cf[candidates]
        r_ff = abs_correlations(X[:, candidates])

        # Greedy forward search over candidate positions.  Each step
        # scores every remaining candidate at once, with the arithmetic
        # of scoring ``merit(selected + [j])`` one candidate at a time:
        # the same mean over the subset's class correlations, and the
        # inter-correlation sum accumulated pair by pair in the order
        # (a, b) for a before b in the subset.
        selected: list[int] = []
        trace: list[tuple[str, float]] = []
        best_merit = -math.inf
        while self._max_features is None or len(selected) < self._max_features:
            remaining = np.setdiff1d(np.arange(candidates.size), selected)
            if remaining.size == 0:
                break
            k = len(selected) + 1
            # Row j: the class correlations of selected + [remaining[j]].
            subset_rcf = np.empty((remaining.size, k))
            subset_rcf[:, :-1] = r_cf[selected]
            subset_rcf[:, -1] = r_cf[remaining]
            avg_rcf = subset_rcf.mean(axis=1)
            if k == 1:
                merits = avg_rcf
            else:
                pair_sum = np.zeros(remaining.size)
                for idx, a in enumerate(selected):
                    for b in selected[idx + 1 :]:
                        pair_sum += r_ff[a, b]
                    pair_sum += r_ff[a, remaining]
                avg_rff = 2.0 * pair_sum / (k * (k - 1))
                merits = k * avg_rcf / np.sqrt(k + k * (k - 1) * avg_rff)
            # The first candidate strictly above the best merit so far.
            merits = np.where(np.isnan(merits), -np.inf, merits)
            best = int(np.argmax(merits))
            if not merits[best] > best_merit:
                break
            selected.append(int(remaining[best]))
            best_merit = float(merits[best])
            trace.append((feature_names[candidates[selected[-1]]], best_merit))

        return SelectionResult(
            selected=tuple(feature_names[j] for j in candidates[selected]),
            merit=best_merit,
            trace=tuple(trace),
        )
