"""Faster forms of numpy row operations and sorts that return the same bits.

Reductions along axis 1 of a narrow (n, k) array, and broadcasts of an (n,)
vector across its columns, make one inner-loop call per row, which is slow
at the handful of queues the design solve and the queue draw work with.
Looping over the k columns instead does the same floating-point operations
in the same order: max is exact, cumsum is sequential, elementwise +, -, *
and / round each result on its own, and numpy adds a row of fewer than 8
terms left to right (longer rows are summed pairwise, so they keep the
axis=1 reduction).  Nothing here changes how ``np.exp`` or a matrix product
sees its array: their SIMD and BLAS paths depend on the layout.
"""

from __future__ import annotations

import numpy as np

_PAIRWISE_MIN = 8  # numpy sums reduction rows at least this long pairwise


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)`` of a 2-d array."""
    m = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j], out=m)
    return m


def row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a 2-d float array."""
    if not 0 < x.shape[1] < _PAIRWISE_MIN:
        return x.sum(axis=1)
    tot = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        tot += x[:, j]
    return tot


def per_row(ufunc: np.ufunc, x: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(x, r[:, None], out=out)`` for an elementwise arithmetic ufunc."""
    for j in range(x.shape[1]):
        ufunc(x[:, j], r, out=out[:, j])
    return out


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, None] * b[None, :]`` of two float vectors."""
    out = np.empty((a.shape[0], b.shape[0]))
    for j in range(b.shape[0]):
        np.multiply(a, b[j], out=out[:, j])
    return out


def row_cumsum(x: np.ndarray) -> np.ndarray:
    """``np.cumsum(x, axis=1)`` of a 2-d float array."""
    out = np.empty_like(x)
    out[:, 0] = x[:, 0]
    for j in range(1, x.shape[1]):
        np.add(out[:, j - 1], x[:, j], out=out[:, j])
    return out


def stable_ranks(keys: np.ndarray) -> np.ndarray:
    """Position of each key in (key, index) order: the inverse permutation
    of ``np.argsort(keys, kind="stable")``.

    It sorts with the faster default kind first.  Strictly increasing sorted
    keys admit one order only, so that permutation is then the stable one;
    a tie, a -0.0 against a +0.0 or a NaN fails the strict test and falls
    back to the stable sort.
    """
    order = np.argsort(keys)
    srt = keys[order]
    if not np.all(srt[1:] > srt[:-1]):
        order = np.argsort(keys, kind="stable")
    ranks = np.empty(order.shape[0], dtype=np.int64)
    ranks[order] = np.arange(order.shape[0])
    return ranks
