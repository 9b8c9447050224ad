"""Grouped reductions that keep numpy's per-group summation order.

The learning pipeline reduces many small groups: per-class sums in
CFS, per-cluster means in k-means, per-cluster distance sums in the
silhouette.  Its reference arithmetic reduced one group at a time —
``values[mask].sum()`` or ``rows[mask].mean(axis=0)`` — and numpy's
float64 summation order depends on the shape of what it reduces: a
contiguous run of eight or more values is summed pairwise, while a
reduction over the rows of a matrix accumulates row by row.  A grouped
shortcut such as ``np.add.at`` or ``np.add.reduceat`` therefore moves
the last bit of some sums.

The helpers here reduce every group at once without changing that
order: the members of all groups of one size are gathered into one
contiguous block whose reduced axis holds exactly one group's members,
in ascending index order, so numpy sums each group the way it would sum
the group alone.  Groups come in few distinct sizes (one, for a
learning day's equally many trials per workload), so the work is a
handful of array operations.
"""

from __future__ import annotations

import numpy as np


def _size_blocks(groups: np.ndarray, counts: np.ndarray):
    """Per distinct non-empty group size: the group ids of that size and
    a ``(len(ids), size)`` matrix of their member indices, ascending."""
    order = np.argsort(groups, kind="stable")
    starts = np.cumsum(counts) - counts
    for size in np.unique(counts[counts > 0]):
        ids = np.flatnonzero(counts == size)
        yield ids, order[starts[ids, None] + np.arange(size)]


def group_sums(
    A: np.ndarray, groups: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(sums, counts)`` with ``sums[r, g] == A[r, groups == g].sum()``
    bit for bit.

    ``A`` is ``(rows, n)``; ``groups`` holds a group id in
    ``[0, n_groups)`` per column.  Empty groups sum to 0.
    """
    sums = np.zeros((A.shape[0], n_groups))
    counts = np.bincount(groups, minlength=n_groups)
    for ids, members in _size_blocks(groups, counts):
        sums[:, ids] = np.ascontiguousarray(A[:, members]).sum(axis=2)
    return sums, counts


def group_means(
    X: np.ndarray, groups: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(means, counts)`` with ``means[g] == X[groups == g].mean(axis=0)``
    bit for bit.

    ``X`` is ``(n, d)``; ``groups`` holds a group id per row.  Rows of
    empty groups (``counts[g] == 0``) are zero.
    """
    means = np.zeros((n_groups, X.shape[1]))
    counts = np.bincount(groups, minlength=n_groups)
    for ids, members in _size_blocks(groups, counts):
        means[ids] = np.ascontiguousarray(X[members]).mean(axis=1)
    return means, counts
