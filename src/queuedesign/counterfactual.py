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
brute-force re-allocation.  For tiny single-period instances an exact oracle
enumerates all queue configurations (and optionally all arrival orders)
instead of sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bitexact import row_cumsum, stable_order
from .mechanism import (
    QueueSpec,
    _draw_queues,
    _period_tables,
    _serve,
    arrival_periods,
    arrival_ranks,
    validate_policy,
)
from .propensity import PropensityTable

MAX_CELLS = 500_000_000  # (unit, queue, replication) cells one MC call may touch
WORLD_CAP = 2_000_000  # largest K^n * n! world table the exact oracle builds


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
        order = stable_order(a)
        queues = _draw_queues(cum, rng)
        if forced:
            hits += _forced_map(spec, s, order, queues)
            visits += 1
        else:
            tp = _serve(spec, s, arrival_ranks(a), queues)
            visits[rows, queues - 1] += 1
            hits[rows, queues - 1] += tp > 0
    with np.errstate(invalid="ignore"):
        qc = np.where(visits > 0, hits / np.maximum(visits, 1), np.nan)
    needed = theta > 0.0
    ok = np.all(np.isfinite(qc) | ~needed, axis=1)
    marginal = np.where(
        ok, np.einsum("ik,ik->i", np.where(needed, theta, 0.0), np.nan_to_num(qc)), np.nan
    )
    return PropensityTable(
        queue_conditional=qc, marginal=marginal, theta=theta,
        source="monte_carlo", reps=reps,
    )


# ---------------------------------------------------------------------------
# exact oracle for tiny single-period instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorldTable:
    """Exhaustive counterfactual treatment maps for a tiny instance.

    World w is a (queue configuration, arrival order) pair; ``zmap[w, i, k-1]``
    is unit i's treatment were it forced into queue k with everything else in
    world w held fixed, ``probs[w]`` the world's probability under the policy
    (uniform over arrival orders), and ``configs[config_idx[w]]`` the realized
    queue labels.  Probabilities include each unit's own queue draw; any
    statistic of the forced map is unaffected because the map never depends
    on the probe unit's own draw.
    """

    zmap: np.ndarray
    probs: np.ndarray
    config_idx: np.ndarray
    configs: np.ndarray

    def __post_init__(self):
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("world probabilities must sum to 1")

    @property
    def n_worlds(self) -> int:
        return self.probs.shape[0]

    def realized_z(self) -> np.ndarray:
        """(W, n) matrix of treatments under each world's own queue draws."""
        n = self.zmap.shape[1]
        labels = self.configs[self.config_idx]  # (W, n) in 1..K
        take = np.take_along_axis(
            self.zmap, (labels - 1)[:, :, None], axis=2
        )
        return take[:, :, 0]


@dataclass(frozen=True)
class ExactOracle:
    """Exact propensity table plus (when affordable) the full world table."""

    table: PropensityTable
    worlds: Optional[WorldTable]


def exact_oracle(theta: np.ndarray, spec: QueueSpec) -> ExactOracle:
    """Enumerate queue-conditional propensities exactly (tau = 1 only).

    In a single review period all units compete at once and the b lowest
    (queue, arrival-rank) keys are served, so conditioning on unit i's queue
    and integrating out its uniformly random position among same-queue peers
    gives a closed form per configuration of the other units' queues:

        P(served | L ahead in higher queues, M same-queue peers)
            = clip(b - L, 0, M + 1) / (M + 1).

    The table costs K^n configuration weights.  The per-world counterfactual
    map additionally enumerates the n! arrival orders and is only built when
    K^n * n! <= WORLD_CAP; beyond that ``worlds`` is None.
    """
    theta = validate_policy(theta, spec.k)
    n, k = theta.shape
    if spec.tau != 1:
        raise ValueError("exact enumeration requires a single review period")
    if spec.mode != "strict":
        raise ValueError("exact enumeration covers strict mode only")
    if n > 8 or k > 3:
        raise ValueError(
            f"exact enumeration is limited to n <= 8 and K <= 3 (got n={n}, K={k})"
        )
    b = int(spec.budgets[0])
    # all K^n queue configurations, one row each, labels 1..K
    grids = np.meshgrid(*([np.arange(1, k + 1)] * n), indexing="ij")
    configs = np.stack([g.ravel() for g in grids], axis=1).astype(np.int8)
    m = configs.shape[0]
    # per-config count of units in each queue, and per-unit exclusions
    counts = np.zeros((m, k), dtype=np.int16)
    for q in range(1, k + 1):
        counts[:, q - 1] = (configs == q).sum(axis=1)
    # full-product config weights: the probe's own slot integrates out to
    # total weight 1 because p_serve never depends on its own draw
    probs_cells = np.empty((m, n))
    for j in range(n):
        probs_cells[:, j] = theta[j, configs[:, j] - 1]
    full_prob = probs_cells.prod(axis=1)
    qc = np.zeros((n, k))
    for i in range(n):
        w = full_prob
        counts_excl = counts.astype(np.int64).copy()
        counts_excl[np.arange(m), configs[:, i] - 1] -= 1
        ahead = np.concatenate(
            [np.zeros((m, 1), dtype=np.int64), np.cumsum(counts_excl, axis=1)[:, :-1]],
            axis=1,
        )
        for kk in range(k):
            L = ahead[:, kk]
            M = counts_excl[:, kk]
            p_serve = np.clip(b - L, 0, M + 1) / (M + 1)
            qc[i, kk] = float(w @ p_serve)
    marginal = np.einsum("ik,ik->i", theta, qc)
    table = PropensityTable(
        queue_conditional=qc, marginal=marginal, theta=theta, source="exact"
    )

    n_worlds = m * math.factorial(n)
    worlds = None
    if n_worlds <= WORLD_CAP:
        config_prob = full_prob / math.factorial(n)
        zmaps = []
        eq = [(configs == q).astype(np.int64) for q in range(1, k + 1)]
        for perm in itertools.permutations(range(n)):
            r = np.array(perm)
            below = (r[None, :] < r[:, None]).astype(np.int64)  # below[i, j] = r_j < r_i
            z = np.zeros((m, n, k), dtype=bool)
            for kk in range(1, k + 1):
                # peers of i strictly ahead of key (kk, r_i): all of queues
                # 1..kk-1 (minus i itself if it sits there) plus same-queue
                # units that arrived earlier; a unit is never below itself,
                # so the matmul needs no own-column exclusion
                same_lower = eq[kk - 1] @ below.T  # (m, n)
                if kk > 1:
                    ahead_excl = counts[:, : kk - 1].sum(axis=1, dtype=np.int64)[
                        :, None
                    ] - (configs < kk).astype(np.int64)
                else:
                    ahead_excl = np.zeros((m, n), dtype=np.int64)
                z[:, :, kk - 1] = (ahead_excl + same_lower) < b
            zmaps.append(z)
        zmap = np.concatenate(zmaps, axis=0)
        n_perm = math.factorial(n)
        probs = np.tile(config_prob, n_perm)
        config_idx = np.tile(np.arange(m, dtype=np.int64), n_perm)
        worlds = WorldTable(zmap=zmap, probs=probs, config_idx=config_idx, configs=configs)
    return ExactOracle(table=table, worlds=worlds)
