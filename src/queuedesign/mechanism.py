"""Tiered priority-queue allocation with per-period service budgets.

Units are assigned to one of K priority queues (queue 1 served first) by a
randomized policy, arrive over a horizon of tau discrete review periods, and
are served first-in-first-out within queue subject to an integer budget b_t
per period.  Unused capacity does not roll over.  Two service disciplines are
supported:

``strict``
    Each period's budget serves the waiting population in (queue, arrival)
    order: all of queue 1 ahead of any of queue 2, and so on.

``rationed``
    Each period's budget is split into per-queue shares proportional to
    alpha_target_k * p_k, and each queue consumes only its own share (FIFO
    within queue, shares not transferable).  This realizes interior service
    probabilities alpha_target instead of the strict regime's 0/1 limits.

A ``QueueSpec`` holds what its discipline implies once, when it is built:
``alpha``, the limiting per-queue service probabilities that designs and
estimators read, and ``caps``, the (tau, K) slots per period and queue.

Arrival times live on [0, tau]; a unit with arrival time a enters the pool at
review period max(1, ceil(a)) and remains waiting until served or the horizon
ends.  Ties in arrival time are broken by unit id, so every allocation is a
deterministic function of (queues, arrivals, budgets).

Within a queue, the units served by any period are a FIFO prefix: an earlier
period's arrival outranks every later one, and the best-ranked waiting unit is
always served first.  So served counts per queue by the horizon fix the
allocation.  A system with A(u) arrivals and B(u) slots by period u has served
B(tau) + min over u <= tau of [A(u) - B(u)] units by the horizon, where
A(0) = B(0) = 0 (the backlog identity of Lindley, 1952).  Each rationed queue
is one such system; in strict mode each tier 1..q is one, since the budget
serves it ahead of the rest, and queue q's count is tier q's minus tier q-1's.
``_serve`` marks that many best-ranked units of each queue as served, so a
world costs O(tau * k + n), with no loop over periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._bitexact import row_cumsum, row_sum
from .cohorts import Cohort
from .propensity import AlphaVector, alpha_from_target, alpha_vector

MODES = ("strict", "rationed")


# ---------------------------------------------------------------------------
# policies and queue draws
# ---------------------------------------------------------------------------


def validate_policy(theta: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """Check that theta is an (n, K) matrix of assignment distributions."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ValueError("policy must be an (n, K) matrix")
    if k is not None and theta.shape[1] != k:
        raise ValueError(f"policy has {theta.shape[1]} queues, expected {k}")
    # negated comparisons, so a NaN entry fails them
    if not np.all(theta >= -1e-12):
        raise ValueError("policy entries must be nonnegative")
    if not np.max(np.abs(row_sum(theta) - 1.0)) <= 1e-9:
        raise ValueError("policy rows must sum to 1")
    return theta


def sample_queues(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one queue label in 1..K per unit from its policy row."""
    return _draw_queues(row_cumsum(validate_policy(theta)), rng)


def _draw_queues(cum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``sample_queues`` from a checked policy's row cumsum, unchecked."""
    u = rng.uniform(size=cum.shape[0])
    labels = np.ones(cum.shape[0], dtype=int)
    for j in range(cum.shape[1]):
        labels += cum[:, j] < u
    return np.minimum(labels, cum.shape[1])


# ---------------------------------------------------------------------------
# budgets and queue specifications
# ---------------------------------------------------------------------------


def make_budgets(n: int, beta: float, tau: int) -> np.ndarray:
    """Integer per-period budgets summing to round(beta * n).

    The total B = round(beta*n) is spread evenly over periods by rounding the
    *cumulative* targets, so the realized cumulative capacity never strays
    more than half a slot from B * t / tau.
    """
    if n < 1 or tau < 1:
        raise ValueError("n and tau must be positive")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie strictly inside (0, 1)")
    mass = np.full(tau, 1.0 / tau)
    total = int(np.floor(beta * n + 0.5))
    cum = np.cumsum(mass)
    cum[-1] = 1.0
    targets = np.floor(total * cum + 0.5).astype(int)
    budgets = np.diff(np.concatenate(([0], targets)))
    return budgets.astype(int)


@dataclass(frozen=True)
class QueueSpec:
    """Mechanism parameters: queue count, shares, capacity, and budgets.

    The discipline's derived values are built here and nowhere else:
    ``alpha`` is the water-filling ``alpha_vector(beta, p)`` in strict mode
    and ``alpha_from_target`` in rationed mode; ``caps[t-1, q-1]`` is the
    number of slots queue q may fill in period t, the whole budget b_t in
    strict mode (queues share it in priority order) and the queue's
    ``rationed_shares`` entry in rationed mode.
    """

    k: int
    p: np.ndarray
    beta: float
    tau: int
    budgets: np.ndarray
    mode: str = "strict"
    alpha_target: Optional[np.ndarray] = None
    alpha: AlphaVector = field(init=False, repr=False, compare=False)
    caps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        budgets = np.asarray(self.budgets)
        object.__setattr__(self, "p", p)
        if self.k < 1 or p.shape != (self.k,):
            raise ValueError("p must have one share per queue")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("queue shares p must form a probability vector")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie strictly inside (0, 1)")
        if self.tau < 1:
            raise ValueError("tau must be a positive number of periods")
        if budgets.shape != (self.tau,):
            raise ValueError("budgets must have one entry per period")
        if not np.issubdtype(budgets.dtype, np.integer) or np.any(budgets < 0):
            raise ValueError("budgets must be nonnegative integers")
        object.__setattr__(self, "budgets", budgets.astype(int))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "rationed":
            if self.alpha_target is None:
                raise ValueError("rationed mode requires alpha_target")
            target = np.asarray(self.alpha_target, dtype=float)
            object.__setattr__(self, "alpha_target", target)
            alpha = alpha_from_target(target, p)  # validates monotone / range
            if abs(alpha.beta - self.beta) > 1e-9:
                raise ValueError(
                    "alpha_target is inconsistent with beta: "
                    f"sum alpha_k p_k = {alpha.beta:.12f} but beta = {self.beta}"
                )
            caps = rationed_shares(self.budgets, target, p)
        else:
            if self.alpha_target is not None:
                raise ValueError("alpha_target is only meaningful in rationed mode")
            alpha = alpha_vector(self.beta, p)
            caps = np.broadcast_to(self.budgets[:, None], (self.tau, self.k))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "caps", caps)

    @classmethod
    def auto(
        cls,
        n: int,
        k: int,
        p: np.ndarray,
        beta: float,
        tau: int,
        mode: str = "strict",
        alpha_target: Optional[np.ndarray] = None,
    ) -> "QueueSpec":
        """Build a spec with budgets sized for a cohort of n units."""
        budgets = make_budgets(n, beta, tau)
        return cls(
            k=k, p=np.asarray(p, dtype=float), beta=beta, tau=tau,
            budgets=budgets, mode=mode, alpha_target=alpha_target,
        )


def arrival_periods(arrival: np.ndarray, tau: int) -> np.ndarray:
    """Review period in 1..tau at which each arrival time enters the pool."""
    s = np.ceil(np.asarray(arrival, dtype=float)).astype(int)
    return np.clip(s, 1, tau)


def rationed_shares(budgets: np.ndarray, alpha_target: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Split each period budget into per-queue integer shares.

    Target weights are w_k = alpha_k p_k / sum_j alpha_j p_j.  Rounding uses
    largest-remainder with a fractional carry across periods, so each queue's
    cumulative allotment tracks its cumulative target within about one slot —
    a memoryless per-period rounding would drift systematically whenever the
    same remainders recur every period.
    """
    budgets = np.asarray(budgets, dtype=int)
    alpha = np.asarray(alpha_target, dtype=float)
    p = np.asarray(p, dtype=float)
    mass = alpha * p
    if mass.sum() <= 0:
        raise ValueError("alpha_target * p must have positive total mass")
    w = mass / mass.sum()
    k = w.shape[0]
    shares = np.zeros((budgets.shape[0], k), dtype=int)
    carry = np.zeros(k)
    for t, b in enumerate(budgets):
        quota = b * w + carry
        base = np.maximum(np.floor(quota).astype(int), 0)
        short = int(b - base.sum())
        frac = quota - base
        if short > 0:
            # award leftover slots to the largest fractional parts
            take = np.argsort(-frac, kind="stable")[:short]
            base[take] += 1
        elif short < 0:
            donors = np.argsort(frac, kind="stable")
            removed = 0
            for idx in donors:
                if removed == -short:
                    break
                if base[idx] > 0:
                    base[idx] -= 1
                    removed += 1
        shares[t] = base
        carry = quota - base
    return shares


# ---------------------------------------------------------------------------
# allocation dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationTrace:
    """Realized service outcome of one allocation run.

    ``queues`` holds integer labels in 1..K; ``treated[i]``, a boolean, says
    whether unit i was served by the horizon; ``spec`` is the queue
    specification it was served under.
    """

    queues: np.ndarray
    treated: np.ndarray
    spec: QueueSpec

    def __post_init__(self):
        if self.treated.shape != self.queues.shape:
            raise ValueError("treated must match queues in length")
        # label 0 counts the unserved; a product, since a random mask is slow
        served = np.bincount(self.queues * self.treated, minlength=self.spec.k + 1)[1:]
        if np.any(served > self.spec.caps.sum(axis=0)):
            raise ValueError("a queue is served beyond its slots")
        if served.sum() > self.spec.budgets.sum():
            raise ValueError("service exceeds the total budget")

    @property
    def z(self) -> np.ndarray:
        return self.treated.astype(float)

    @property
    def n(self) -> int:
        return self.queues.shape[0]


def _period_tables(spec: QueueSpec, s: np.ndarray, queues: np.ndarray):
    """``cell = s * k + queues - 1``, and at [u, q-1] the queue-q units arrived
    (``arrived``) and slots to fill (``slots``) by period u = 0..tau."""
    tau, k = spec.caps.shape
    cell = s * k  # in place: each n-length temporary costs page faults
    cell += queues
    cell -= 1
    arrived = np.bincount(cell, minlength=(tau + 1) * k).reshape(tau + 1, k).cumsum(axis=0)
    slots = np.zeros((tau + 1, k), dtype=np.int64)
    np.cumsum(spec.caps, axis=0, out=slots[1:])
    return cell, arrived, slots


def _serve(spec: QueueSpec, s: np.ndarray, ranks: np.ndarray, queues: np.ndarray) -> np.ndarray:
    """Which units of one world the spec's service discipline serves.

    ``ranks`` must be the FIFO ranks of the arrivals that gave ``s``.  The
    module docstring derives each queue's served count by the horizon; the
    served units are that many best-ranked units of the queue, found by one
    partial sort.
    """
    arrived, slots = _period_tables(spec, s, queues)[1:]  # frees cell before the loop
    if spec.mode == "strict":
        arrived = arrived.cumsum(axis=1)  # tiers 1..q
    served = slots[-1] + (arrived - slots).min(axis=0)
    if spec.mode == "strict":
        served = np.diff(served, prepend=0)
    treated = np.zeros(s.shape[0], dtype=bool)
    for q in np.flatnonzero(served):
        idx = np.flatnonzero(queues == q + 1)
        treated[idx[np.argpartition(ranks[idx], served[q] - 1)[:served[q]]]] = True
    return treated


def allocate(cohort: Cohort, queues: np.ndarray, spec: QueueSpec) -> AllocationTrace:
    """Run the service mechanism for one realized queue assignment.

    FIFO order is the cohort's ``arrival_ranks``.
    """
    queues = np.asarray(queues, dtype=int)
    if queues.shape != (cohort.n,):
        raise ValueError("queues must assign one label per unit")
    if np.any((queues < 1) | (queues > spec.k)):
        raise ValueError(f"queue labels must lie in 1..{spec.k}")
    if cohort.tau != spec.tau:
        raise ValueError("cohort horizon and spec horizon disagree")
    s = arrival_periods(cohort.arrival, spec.tau)
    treated = _serve(spec, s, cohort.arrival_ranks, queues)
    return AllocationTrace(queues=queues, treated=treated, spec=spec)


def treated_mass(trace: AllocationTrace) -> np.ndarray:
    """Treated mass by priority tier.

    Entry k-1 is (1/n) * #{i : Q_i <= k and Z_i = 1}: the fraction of the
    population in queues 1..k served by the horizon.  In the strict regime
    with uniform arrivals it converges to min(beta, c_k), capacity filling
    queues in priority order.
    """
    served = np.bincount(trace.queues * trace.treated, minlength=trace.spec.k + 1)[1:]
    return np.cumsum(served) / trace.n
