"""Counterfactual service probabilities under forced queue assignment.

The queue-conditional propensity pi_tilde(i, k) = P(Z_i = 1 | Q_i = k) is the
basic identifying object of the design: it conditions on unit i's own queue
draw while averaging over everyone else's queues and the arrival pattern.
Estimating it naively is expensive — forcing each (unit, queue) pair and
re-running the allocation costs n * K full passes per replication — so the
Monte Carlo here reads the entire n x K counterfactual treatment map of a
world off its per-queue arrival counts, without running the allocation:

* Probe i forced into queue kk never displaces the units that outrank it,
  so they form an autonomous system.  By the backlog identity in
  ``mechanism``, with A(u) its arrivals, B(u) its slots by period u and
  X = A - B, the probe is served iff min over u >= s_i of X(u) < min over
  u < s_i of X(u), where X(0) = 0.

* FIFO ranks follow arrival periods, so every unit arriving before period
  s_i outranks a same-queue probe and every one outranking it has arrived by
  s_i.  Hence X(u) = L(u) + N_kk(u) - B_kk(u) for u < s_i and
  X(u) = L(u) + c_i - own_i - B_kk(u) for u >= s_i, where N_q(u) counts the
  queue-q arrivals by period u and c_i the queue-kk units ranked ahead of i.
  Strict mode shares each period's budget in priority order, so
  L = N_1 + ... + N_{kk-1} and own_i = [Q_i < kk]; rationed queues fill
  only their own shares, so L = 0 and own_i = 0.

The precondition is that ``order`` is the FIFO order of the arrivals that
gave ``s``; N_q and B_kk are the allocation's own tables
(``mechanism._period_tables``).  A prefix min of the first branch and a
suffix min of L - B_kk, with own_i, fold into one (tau + 1, K, K) table of
bounds on c_i, read at each probe's period and queue; c_i is one cumulative
count per queue in FIFO order.  So a world costs O(k * (n + tau)).  The
realized column is the same formula at kk = Q_i.  Tests check the map against
brute-force re-allocation.
"""

from __future__ import annotations

import numpy as np

from ._bitexact import row_cumsum, stable_order, stable_ranks
from .mechanism import (
    QueueSpec,
    _draw_queues,
    _period_tables,
    _serve,
    arrival_periods,
    validate_policy,
)
from .propensity import PropensityTable

MAX_CELLS = 500_000_000  # (unit, queue, replication) cells one MC call may touch


# ---------------------------------------------------------------------------
# forced-queue Monte Carlo
# ---------------------------------------------------------------------------


def _forced_map(spec, s, order, queues):
    """Forced treatment map of one world: ``z[i, kk-1]`` says whether unit i
    is served when forced into queue kk with every other draw held fixed.

    ``order`` must be the FIFO order of the arrivals that gave ``s``, so a
    later position never has an earlier period.  In strict mode the budget
    cascades down the queues in priority order, so queues 1..kk-1 outrank
    the probe; in rationed mode only queue kk competes.  The module
    docstring derives the identity.
    """
    n, k = s.shape[0], spec.k
    strict = spec.mode == "strict"
    cell, arrived, slots = _period_tables(spec, s, queues)
    ahead = -slots  # L - B_kk
    if strict:
        ahead[:, 1:] += arrived[:, :-1].cumsum(axis=1)
    # before[v] = min over u <= v of ahead + arrived; row 0 is the 0 term
    before = np.minimum.accumulate(ahead + arrived, axis=0)
    # after[u] = min over u' >= u of ahead
    after = np.minimum.accumulate(ahead[::-1], axis=0)[::-1]
    # bound[t, q-1, kk-1] = before[t-1] - after[t] + own: a period-t unit of
    # queue q forced into kk is served iff c_i < bound; row 0 is never read
    bound = np.zeros((spec.tau + 1, k, k), dtype=np.int64)
    bound[1:] = (before[:-1] - after[1:])[:, None, :]
    if strict:
        bound += np.arange(k)[:, None] < np.arange(k)
    # c[i, kk-1]: queue-kk units ranked ahead of unit i
    c = np.empty((n, k), dtype=np.int64)
    fifo_queues = queues[order]
    for q in range(k):
        hot = fifo_queues == q + 1
        c[order, q] = np.cumsum(hot) - hot
    return c < bound.reshape(-1, k).take(cell, axis=0)


def mc_propensities(
    theta: np.ndarray,
    spec: QueueSpec,
    reps: int,
    seed: int = 0,
    forced: bool = True,
) -> PropensityTable:
    """Monte Carlo queue-conditional propensities for one policy.

    With ``forced=True`` every replication contributes one observation to
    every (unit, queue) cell via the counterfactual treatment map; with
    ``forced=False`` only realized cells are tallied and unvisited cells are
    flagged absent (NaN).  Every replication redraws arrival times
    uniformly on [0, tau], matching the exogenous-arrival law.
    """
    theta = validate_policy(theta, spec.k)
    n, k = theta.shape
    if reps < 1:
        raise ValueError("reps must be positive")
    cells = n * k * reps if forced else n * reps
    if cells > MAX_CELLS:
        raise ValueError(
            f"simulation would touch {cells:.2e} cells (cap {MAX_CELLS:.2e}); "
            "reduce reps or use the limiting alpha rates"
        )
    cum = row_cumsum(theta)
    hits = np.zeros((n, k), dtype=np.int64)
    visits = np.zeros((n, k), dtype=np.int64)
    rows = np.arange(n)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), rep]))
        a = rng.uniform(0.0, spec.tau, size=n)
        s = arrival_periods(a, spec.tau)
        queues = _draw_queues(cum, rng)
        if forced:
            hits += _forced_map(spec, s, stable_order(a), queues)
            visits += 1
        else:
            visits[rows, queues - 1] += 1
            hits[rows, queues - 1] += _serve(spec, s, stable_ranks(a), queues)
    with np.errstate(invalid="ignore"):
        qc = np.where(visits > 0, hits / np.maximum(visits, 1), np.nan)
    needed = theta > 0.0
    ok = np.all(np.isfinite(qc) | ~needed, axis=1)
    marginal = np.where(
        ok, np.einsum("ik,ik->i", np.where(needed, theta, 0.0), np.nan_to_num(qc)), np.nan
    )
    return PropensityTable(queue_conditional=qc, marginal=marginal, theta=theta)
