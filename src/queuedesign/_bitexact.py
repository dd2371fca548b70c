"""Faster forms of numpy row operations and sorts that return the same bits.

Reductions along axis 1 of a narrow (n, k) array make one inner-loop call
per row, which is slow at the handful of queues the queue draw works with.
Looping over the k columns instead does the same floating-point operations
in the same order: cumsum is sequential, and numpy adds a row of fewer than
8 terms left to right (longer rows are summed pairwise, so they keep the
axis=1 reduction).  Only the order of the additions moves here; the design
solve's softmax (``design._mirror_policy``) works in the same column order
and also changes what ``np.exp`` sees, which its own docstring accounts for.
"""

from __future__ import annotations

import numpy as np

PAIRWISE_MIN = 8  # numpy sums reduction rows at least this long pairwise


def row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a 2-d float array."""
    if not 0 < x.shape[1] < PAIRWISE_MIN:
        return x.sum(axis=1)
    tot = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        tot += x[:, j]
    return tot


def row_cumsum(x: np.ndarray) -> np.ndarray:
    """``np.cumsum(x, axis=1)`` of a 2-d float array, stored column-major
    so that each column is contiguous."""
    out = np.empty_like(x, order="F")
    out[:, 0] = x[:, 0]
    for j in range(1, x.shape[1]):
        np.add(out[:, j - 1], x[:, j], out=out[:, j])
    return out


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``.

    It sorts with the faster default kind first.  Strictly increasing sorted
    keys admit one order only, so that permutation is then the stable one;
    a tie, a -0.0 against a +0.0 or a NaN fails the strict test and falls
    back to the stable sort.
    """
    order = np.argsort(keys)
    srt = keys[order]
    if not np.all(srt[1:] > srt[:-1]):
        order = np.argsort(keys, kind="stable")
    return order


def stable_ranks(keys: np.ndarray) -> np.ndarray:
    """Position of each key in (key, index) order: the inverse permutation
    of ``stable_order(keys)``."""
    ranks = np.empty(keys.shape[0], dtype=np.int64)
    ranks[stable_order(keys)] = np.arange(keys.shape[0])
    return ranks
