"""Counterfactual service probabilities under forced queue assignment.

The queue-conditional propensity pi_tilde(i, k) = P(Z_i = 1 | Q_i = k) is the
basic identifying object of the design: it conditions on unit i's own queue
draw while averaging over everyone else's queues and the arrival pattern.
Estimating it naively is expensive — forcing each (unit, queue) pair and
re-running the allocation costs n * K full passes per replication — so the
Monte Carlo here exploits the mechanism's structure to read off the entire
n x K counterfactual treatment map from a single base allocation per world:

* Units ranked below a given (queue, arrival) key are never displaced by
  anything ranked above it, so their waiting pattern is an autonomous system.
  A unit is served iff at some period the number of waiting lower-ranked
  units falls short of the budget.  With units held in (queue, rank) key
  order those counts are one cumulative sum of the (tau, n) waiting matrix,
  read at each probe key's insertion point.

* Removing the probe unit from its realized slot frees capacity that pulls
  forward the first waiting unit, whose old slot frees again, and so on: a
  removal cascade.  The cascade depends only on the starting period and only
  ever *advances* service times.  Each member stops competing on the
  interval from its pull-forward period to its old service period; these
  intervals are disjoint and contiguous, so at any period at most one member
  is active.  A tau x tau table of active members, built backwards in tau
  row writes, turns the cascade correction into a gather.

A world therefore costs O(k * tau * n) array operations on compact dtypes
(bool, and int16 unless (k + 1) * n needs int32), with no per-unit Python
loop.  Both shortcuts are verified against brute-force re-allocation in the
test suite.  For tiny single-period instances an exact oracle enumerates all
queue configurations (and optionally all arrival orders) instead of sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bitexact import row_cumsum
from .mechanism import (
    QueueSpec,
    _draw_queues,
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


def _cascade_table(pending, by_key, key, t_served, none):
    """Key of the one active removal-cascade member, per (start, period).

    Vacating a served slot at period sigma pulls the first pending unit j of
    sigma (lowest key among arrived units not served by sigma) forward to
    sigma; j's own slot then frees at t_served[j], which pulls the first
    pending unit of that period, and so on.  Member j stops competing on
    (sigma, t_served[j]], or through tau if it was never served, so the
    members' intervals are disjoint and contiguous: ``act[sigma, t]`` is the
    key of the member active at period t, or ``none``.  Row 0 (probes never
    served) stays empty.  ``by_key`` lists the units in key order.
    """
    tau = pending.shape[0]
    first = by_key[pending[:, by_key].argmax(axis=1)]
    has = pending[np.arange(tau), first]
    act = np.full((tau + 1, tau + 1), none, dtype=key.dtype)
    for sigma in range(tau, 0, -1):
        if not has[sigma - 1]:
            continue
        j = first[sigma - 1]
        until = t_served[j] if t_served[j] > 0 else tau
        act[sigma, sigma + 1 : until + 1] = key[j]
        if until < tau:
            act[sigma, until + 1 :] = act[until, until + 1 :]
    return act


def _forced_workspace(tau, n, k):
    """The (tau, n) buffers of ``_forced_map``, built once per MC call.

    Counts never exceed n, so budgets capped at n + 1 pass the same tests
    and share one dtype with counts and keys (at most none = (k + 1) * n).
    Column 0 of ``below`` stays zero: the cumulative sum writes [:, 1:].
    """
    dtype = np.int16 if (k + 1) * n < 2**15 else np.int32
    return (
        dtype,
        np.empty((tau, n), dtype=bool),  # arrived
        np.empty((tau, n), dtype=bool),  # waiting
        np.zeros((tau, n + 1), dtype=dtype),  # below
        np.empty((tau, n), dtype=bool),  # flag
        np.empty((tau, n), dtype=dtype),  # count
    )


def _forced_map(s, ranks, queues, t_served, caps, cascade, work):
    """Forced treatment map of one world from its base allocation.

    Probe i forced into queue kk is served iff at some period t >= s_i
    fewer than caps[t, kk] other units wait with a key below (kk, r_i).
    Strict mode (``cascade``) counts queues 1..kk-1 too, less the probe
    itself and the cascade member active at t; rationed queues never share
    capacity, so there only queue kk counts.  All (tau, n) arrays are the
    buffers of ``work``, from ``_forced_workspace(tau, n, k)``.
    """
    n = s.shape[0]
    tau, k = caps.shape
    dtype, arrived, waiting, below, flag, count = work
    caps = np.minimum(caps, n + 1).astype(dtype)
    order = np.empty(n, dtype=np.int64)
    order[ranks] = np.arange(n)
    s, queues, t_served = s[order], queues[order], t_served[order]
    t = np.arange(1, tau + 1)[:, None]
    np.less_equal(s, t, out=arrived)
    np.less_equal(t, np.where(t_served > 0, t_served, tau), out=waiting)
    waiting &= arrived
    by_key = np.argsort(queues, kind="stable")
    # waiting in key order goes through flag; "clip" lets take write into
    # out unbuffered (every index is in range)
    np.take(waiting, by_key, axis=1, out=flag, mode="clip")
    np.cumsum(flag, axis=1, out=below[:, 1:])
    if cascade:
        rank = np.arange(n, dtype=dtype)
        key = queues.astype(dtype) * n + rank
        np.not_equal(t_served, t, out=flag)
        flag &= waiting
        act_t = _cascade_table(flag, by_key, key, t_served, (k + 1) * n).T[1:]
    z = np.empty((n, k), dtype=bool)
    start = 0
    for kk in range(1, k + 1):
        in_q = queues == kk
        if cascade:
            # cascade member active at t ranks below the probe key
            np.take(act_t, t_served, axis=1, out=count, mode="clip")
            np.less(count, kk * n + rank, out=flag)
        # insertion point of key (kk, r_i) among the (queue, rank) keys
        idx = start + np.cumsum(in_q) - in_q
        np.take(below, idx, axis=1, out=count, mode="clip")
        if cascade:
            count -= flag
            np.logical_and(waiting, queues < kk, out=flag)
            count -= flag
        else:
            count -= below[:, start : start + 1]
        np.less(count, caps[:, kk - 1 : kk], out=flag)
        flag &= arrived
        z[:, kk - 1] = flag.any(axis=0)
        start += int(in_q.sum())
    # the realized column needs no counterfactual: it is the base world
    z[np.arange(n), queues - 1] = t_served > 0
    out = np.empty_like(z)
    out[order] = z
    return out


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
    if forced:
        work = _forced_workspace(spec.tau, n, k)
    hits = np.zeros((n, k), dtype=np.int64)
    visits = np.zeros((n, k), dtype=np.int64)
    rows = np.arange(n)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), rep]))
        a = rng.uniform(0.0, spec.tau, size=n)
        s = arrival_periods(a, spec.tau)
        ranks = arrival_ranks(a)
        queues = _draw_queues(cum, rng)
        tp = _serve(spec, s, ranks, queues)
        if forced:
            hits += _forced_map(
                s, ranks, queues, tp, spec.caps, cascade=spec.mode == "strict", work=work
            )
            visits += 1
        else:
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
