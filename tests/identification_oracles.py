"""Identification oracles: exhaustive references for tiny instances.

The paper's first claim is identification.  Under exogenous arrivals the
queue draw conditionally randomizes treatment; under endogenous arrivals it
is an instrument whose population IV ratio is a nonnegatively weighted
average of pairwise complier effects across queue margins (the LATE logic of
Imbens & Angrist 1994).  ``exact_oracle`` enumerates every queue
configuration, and every arrival order, of a single-period strict-priority
instance; ``late_decomposition`` classifies each (unit, world) as a
(k, l)-complier and checks that identity to 1e-10.  No command runs these:
the Monte Carlo propensities and the estimators are checked against them.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from queuedesign.cohorts import Cohort
from queuedesign.mechanism import QueueSpec, validate_policy
from queuedesign.propensity import PropensityTable

WORLD_CAP = 2_000_000  # largest K^n * n! world table the exact oracle builds


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


def exact_table(qc: np.ndarray, theta: np.ndarray) -> PropensityTable:
    """The propensity table of enumerated cells ``qc`` under policy ``theta``.

    Enumeration fills every cell, and a higher-priority queue never serves
    less, so an absent cell or one that rises with the queue index is an
    enumeration bug and raises here.
    """
    if np.any(~np.isfinite(qc)):
        raise ValueError("exact tables cannot contain absent cells")
    if np.any(np.diff(qc, axis=1) > 1e-9):
        raise ValueError(
            "queue-conditional propensities must be nonincreasing in the "
            "queue index for exact tables"
        )
    return PropensityTable(queue_conditional=qc, theta=theta)


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
    table = exact_table(qc, theta)

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


def finite_instrument(table: PropensityTable) -> np.ndarray:
    """Finite-population instrument r(i, q) = pi_tilde(i, q) - pi(i).

    Requires every cell the policy can realize (theta_ik > 0): a Monte Carlo
    table with an absent needed cell cannot center the residual, so the call
    fails naming the first offending unit.  Cells the policy never realizes
    keep NaN; the centering identity sum_q theta_iq r(i, q) = 0 holds over
    realized cells.
    """
    qc = table.queue_conditional
    needed = table.theta > 0.0
    missing = needed & ~np.isfinite(qc)
    if np.any(missing):
        i, k = np.argwhere(missing)[0]
        raise ValueError(
            f"queue-conditional propensity absent for unit {int(i)}, queue {int(k) + 1}; "
            "increase Monte Carlo replications or use an exact table"
        )
    return qc - table.marginal[:, None]


# ---------------------------------------------------------------------------
# LATE decomposition on enumerable instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LateDecomposition:
    """Pairwise complier decomposition of the population IV ratio.

    Row (k, l) with k < l holds, per unit: the probability of being a
    (k, l)-complier (served in queue k, not in queue l), the conditional
    effect among those compliers, and the weight theta_k * theta_l *
    (pi_tilde_k - pi_tilde_l)^2.  The weighted average over pairs and units
    reproduces the population IV ratio exactly.
    """

    pairs: tuple
    complier_prob: np.ndarray
    effects: np.ndarray
    weights: np.ndarray
    weighted_average: float
    iv_ratio: float

    def __post_init__(self):
        if np.any(self.weights < -1e-15):
            raise ValueError("decomposition weights must be nonnegative")


def late_decomposition(oracle: ExactOracle, cohort: Cohort) -> LateDecomposition:
    """Decompose the population IV ratio into pairwise local effects.

    Uses the exhaustive world table: every (unit, world) is classified as a
    (k, l) complier iff forcing queue k serves it and forcing queue l does
    not.  Any world where a higher-priority queue serves *less* is a
    mechanism bug and raises immediately.  The IV ratio is computed from the
    same joint law (realized queues and treatments world by world) and must
    match the weighted average to 1e-10.
    """
    worlds = oracle.worlds
    if worlds is None:
        raise ValueError(
            "the exact oracle was built without a world table (instance too "
            "large); the decomposition needs exhaustive worlds"
        )
    table = oracle.table
    theta = table.theta
    qc = table.queue_conditional
    n, k = qc.shape
    zmap = worlds.zmap
    if np.any(np.diff(zmap.astype(np.int8), axis=2) > 0):
        raise ValueError(
            "monotonicity violated: some world treats a unit under a lower "
            "priority but not a higher one — allocator bug"
        )
    delta = cohort.y1 - cohort.y0
    pairs = tuple((a + 1, b + 1) for a in range(k) for b in range(a + 1, k))
    complier = np.zeros((len(pairs), n))
    weights = np.zeros((len(pairs), n))
    effects = np.tile(delta, (len(pairs), 1))
    for idx, (ka, kb) in enumerate(pairs):
        comp = zmap[:, :, ka - 1] & ~zmap[:, :, kb - 1]
        complier[idx] = worlds.probs @ comp
        weights[idx] = (
            theta[:, ka - 1] * theta[:, kb - 1] * (qc[:, ka - 1] - qc[:, kb - 1]) ** 2
        )
    total_weight = weights.sum()
    if total_weight <= 0:
        raise ValueError(
            "degenerate design: no pair of queues produces complier mass"
        )
    weighted_average = float((weights * effects).sum() / total_weight)

    # IV ratio from the same joint law: average rY and rZ over every world
    r = finite_instrument(table)
    labels = worlds.configs[worlds.config_idx]  # (W, n)
    r_realized = np.take_along_axis(
        np.broadcast_to(r, (worlds.n_worlds, n, k)), (labels - 1)[:, :, None], axis=2
    )[:, :, 0]
    z_realized = worlds.realized_z().astype(float)
    y_realized = cohort.y0[None, :] + z_realized * delta[None, :]
    e_rz = float(worlds.probs @ (r_realized * z_realized).mean(axis=1))
    e_ry = float(worlds.probs @ (r_realized * y_realized).mean(axis=1))
    if e_rz == 0.0:
        raise ValueError("population instrument-treatment covariance is zero")
    iv_ratio = e_ry / e_rz
    if abs(iv_ratio - weighted_average) > 1e-10:
        raise ValueError(
            f"decomposition identity violated: IV ratio {iv_ratio!r} vs "
            f"weighted average {weighted_average!r}"
        )
    return LateDecomposition(
        pairs=pairs,
        complier_prob=complier,
        effects=effects,
        weights=weights,
        weighted_average=weighted_average,
        iv_ratio=iv_ratio,
    )


