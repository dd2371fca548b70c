"""Baseline and heuristic assignment policies.

A policy is an (n, K) row-stochastic matrix: row i is the probability law of
unit i's queue label.  The RCT baseline ignores utilities entirely; the
heuristics trade utility against randomization by construction rather than
by optimization, and serve as comparison curves for the optimized designs.

Queue 1 is the highest priority, so utility-seeking policies push high-u
units toward *low* queue indices.
"""

from __future__ import annotations

import numpy as np

from ._bitexact import stable_order
from .mechanism import validate_policy

_EXP_MAX = float(np.log(np.finfo(float).max))  # np.expm1 overflows above this


def rct_policy(n: int, p: np.ndarray) -> np.ndarray:
    """Every unit draws its queue from the same law p: a plain RCT."""
    p = np.asarray(p, dtype=float)
    if n < 1:
        raise ValueError("n must be positive")
    return validate_policy(np.tile(p, (int(n), 1)))


def _descending_order(utilities: np.ndarray) -> np.ndarray:
    # stable: ties broken by unit index so assignments are reproducible
    return stable_order(-np.asarray(utilities, dtype=float))


def assortative_policy(utilities: np.ndarray, p: np.ndarray, best_first: bool) -> np.ndarray:
    """Deterministic utility-sorted assignment with fractional boundaries.

    Units sorted by utility fill queues 1..K in order, queue k receiving
    exactly n*p_k units of mass; a unit straddling a capacity boundary
    splits its row across the two adjacent queues.  Column means therefore
    equal p exactly, and the achieved utility is the extremal value of the
    linear utility functional (rearrangement inequality), maximal when
    ``best_first`` and minimal otherwise.
    """
    u = np.asarray(utilities, dtype=float)
    p = np.asarray(p, dtype=float)
    n, k = u.shape[0], p.shape[0]
    order = _descending_order(u if best_first else -u)
    edges = np.concatenate([[0.0], n * np.cumsum(p)])
    edges[-1] = float(n)  # guard against cumulative rounding
    # the unit in sorted slot j owns the mass of [j, j + 1] inside each queue's span
    j = np.arange(n)[:, None]
    theta = np.empty((n, k))
    theta[order] = np.maximum(np.clip(edges[1:], j, j + 1) - np.clip(edges[:-1], j, j + 1), 0.0)
    return validate_policy(theta)


def quantile_assignment(utilities: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Hard quantile assignment: the top p_1 fraction by utility to queue 1, etc.

    A unit whose slot straddles a capacity boundary goes to the queue
    containing the slot midpoint, so rows are pure 0/1 indicators.
    """
    u = np.asarray(utilities, dtype=float)
    p = np.asarray(p, dtype=float)
    n, k = u.shape[0], p.shape[0]
    order = _descending_order(u)
    edges = n * np.cumsum(p)
    edges[-1] = float(n)
    theta = np.zeros((n, k))
    slots = np.searchsorted(edges, np.arange(n) + 0.5, side="left")
    theta[order, np.minimum(slots, k - 1)] = 1.0
    return validate_policy(theta)


def switch_policy(
    utilities: np.ndarray, p: np.ndarray, switch_strength: float
) -> np.ndarray:
    """Quantile assignment softened by switching mass to adjacent queues.

    Starting from the hard quantile assignment, a unit placed in queue k
    moves to queue k+1 with probability b*p_{k+1}/(p_k + p_{k+1}) and to
    queue k-1 with probability b*p_{k-1}/(p_{k-1} + p_k), where b is the
    switch strength; if the two switch masses exceed 1 they are rescaled to
    sum to 1.  Edge queues only switch inward.
    """
    b = float(switch_strength)
    if not (0.0 <= b < 1.0):
        raise ValueError("switch_strength must lie in [0, 1)")
    p = np.asarray(p, dtype=float)
    base = quantile_assignment(utilities, p)
    n, k = base.shape
    theta = np.zeros_like(base)
    home = np.argmax(base, axis=1)
    for i in range(n):
        j = home[i]
        up = b * p[j + 1] / (p[j] + p[j + 1]) if j + 1 < k else 0.0
        down = b * p[j - 1] / (p[j - 1] + p[j]) if j > 0 else 0.0
        total = up + down
        if total > 1.0:
            up, down = up / total, down / total
        theta[i, j] = 1.0 - up - down
        if j + 1 < k:
            theta[i, j + 1] = up
        if j > 0:
            theta[i, j - 1] = down
    return validate_policy(theta)


def greedy_softmax_policy(utilities: np.ndarray, p: np.ndarray, scale: float) -> np.ndarray:
    """Sequential softmax-style fill of queues 1..K-1, residual to queue K.

    For each queue k in priority order, units score exp(a*u_i*r_i) - 1 on
    their remaining probability mass r_i; scores are normalized so the
    column sums to p_k*n, iteratively capping entries at r_i and
    renormalizing the uncapped mass, so an entry may reach 1.  A scale at
    which the n scores of column 1 could sum past the largest float is
    refused: a * max(u) must not exceed log(float max / 2n), the 2 absorbing
    rounding in exp and in the sum.
    """
    a = float(scale)
    if a <= 0.0:
        raise ValueError("scale must be positive")
    u = np.asarray(utilities, dtype=float)
    limit = _EXP_MAX - np.log(2.0 * u.shape[0])
    if a * np.max(u) > limit:
        raise ValueError(
            f"greedy scale {a:g} overflows: scale * max(utility) = {a * np.max(u):.6g} "
            f"exceeds log(float max / 2n) = {limit:.6g} at n = {u.shape[0]}"
        )
    p = np.asarray(p, dtype=float)
    n, k = u.shape[0], p.shape[0]
    theta = np.zeros((n, k))
    resid = np.ones(n)
    for col in range(k - 1):
        target = p[col] * n
        scores = np.expm1(a * u * resid)
        alloc = np.zeros(n)
        free = scores > 0.0
        remaining = target
        # waterfill: proportional shares, pinning any entry that hits its cap r_i
        while remaining > 1e-15 and free.any():
            total = scores[free].sum()
            share = scores * (remaining / total)
            over = free & (share >= resid - 1e-15)
            if not over.any():
                alloc[free] = share[free]
                break
            alloc[over] = resid[over]
            remaining -= resid[over].sum()
            free &= ~over
        theta[:, col] = alloc
        resid = resid - alloc
    theta[:, k - 1] = resid
    return validate_policy(theta)
