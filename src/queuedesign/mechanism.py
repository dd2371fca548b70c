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

Arrival times live on [0, tau]; a unit with arrival time a enters the pool at
review period max(1, ceil(a)) and remains waiting until served or the horizon
ends.  Ties in arrival time are broken by unit id, so every allocation is a
deterministic function of (queues, arrivals, budgets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bitexact import row_cumsum, row_sum, stable_ranks
from .cohorts import Cohort
from .propensity import alpha_from_target

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
    if np.any(theta < -1e-12):
        raise ValueError("policy entries must be nonnegative")
    if np.max(np.abs(row_sum(theta) - 1.0)) > 1e-9:
        raise ValueError("policy rows must sum to 1")
    return theta


def sample_queues(theta: np.ndarray, rng: np.random.Generator | int) -> np.ndarray:
    """Draw one queue label in 1..K per unit from its policy row."""
    theta = validate_policy(theta)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return _draw_queues(row_cumsum(theta), rng)


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
    """Mechanism parameters: queue count, shares, capacity, and budgets."""

    k: int
    p: np.ndarray
    beta: float
    tau: int
    budgets: np.ndarray
    mode: str = "strict"
    alpha_target: Optional[np.ndarray] = None

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
            alpha = np.asarray(self.alpha_target, dtype=float)
            object.__setattr__(self, "alpha_target", alpha)
            av = alpha_from_target(alpha, p)  # validates monotone / range
            if abs(av.beta - self.beta) > 1e-9:
                raise ValueError(
                    "alpha_target is inconsistent with beta: "
                    f"sum alpha_k p_k = {av.beta:.12f} but beta = {self.beta}"
                )
        elif self.alpha_target is not None:
            raise ValueError("alpha_target is only meaningful in rationed mode")

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


def arrival_ranks(arrival: np.ndarray) -> np.ndarray:
    """Dense FIFO ranks: position of each unit in (arrival, id) order.

    A stable sort on arrival alone keeps tied units in id order.
    """
    return stable_ranks(np.asarray(arrival, dtype=float))


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

    ``treat_period[i]`` is the review period in 1..tau at which unit i was
    served, or 0 if it was never served; ``treated`` is the induced indicator.
    """

    queues: np.ndarray
    treat_period: np.ndarray
    tau: int
    budgets: np.ndarray
    mode: str

    def __post_init__(self):
        queues = np.asarray(self.queues, dtype=int)
        tp = np.asarray(self.treat_period, dtype=int)
        object.__setattr__(self, "queues", queues)
        object.__setattr__(self, "treat_period", tp)
        if tp.shape != queues.shape:
            raise ValueError("treat_period must match queues in length")
        if np.any((tp < 0) | (tp > self.tau)):
            raise ValueError("treat periods must lie in 0..tau")
        counts = np.bincount(tp[tp > 0], minlength=self.tau + 1)[1:]
        if np.any(counts > np.asarray(self.budgets)):
            raise ValueError("per-period service counts exceed the budget")

    @property
    def treated(self) -> np.ndarray:
        return self.treat_period > 0

    @property
    def z(self) -> np.ndarray:
        return (self.treat_period > 0).astype(float)

    @property
    def n(self) -> int:
        return self.queues.shape[0]


def _allocate_strict(
    s: np.ndarray, ranks: np.ndarray, queues: np.ndarray, budgets: np.ndarray
) -> np.ndarray:
    """Serve waiting units in (queue, arrival rank) order each period."""
    n = s.shape[0]
    # composite priority key: queue first, FIFO rank second
    key = queues.astype(np.int64) * (n + 1) + ranks
    treat_period = np.zeros(n, dtype=int)
    pending = np.zeros(n, dtype=bool)
    for t, b in enumerate(budgets, start=1):
        pending |= s == t
        idx = np.nonzero(pending)[0]
        if idx.size == 0 or b == 0:
            continue
        if idx.size <= b:
            served = idx
        else:
            part = np.argpartition(key[idx], b - 1)[:b]
            served = idx[part]
        treat_period[served] = t
        pending[served] = False
    return treat_period


def _allocate_rationed(
    s: np.ndarray, ranks: np.ndarray, queues: np.ndarray, shares: np.ndarray
) -> np.ndarray:
    """Serve each queue FIFO from its own per-period share of the budget."""
    n = s.shape[0]
    treat_period = np.zeros(n, dtype=int)
    pending = np.zeros(n, dtype=bool)
    k = shares.shape[1]
    for t in range(1, shares.shape[0] + 1):
        pending |= s == t
        for q in range(1, k + 1):
            b = shares[t - 1, q - 1]
            if b == 0:
                continue
            idx = np.nonzero(pending & (queues == q))[0]
            if idx.size == 0:
                continue
            if idx.size <= b:
                served = idx
            else:
                part = np.argpartition(ranks[idx], b - 1)[:b]
                served = idx[part]
            treat_period[served] = t
            pending[served] = False
    return treat_period


def allocate(
    cohort: Cohort,
    queues: np.ndarray,
    spec: QueueSpec,
    ranks: Optional[np.ndarray] = None,
) -> AllocationTrace:
    """Run the service mechanism for one realized queue assignment.

    ``ranks`` are the cohort's ``arrival_ranks``, for a caller that
    allocates one cohort more than once; by default they are computed here.
    """
    queues = np.asarray(queues, dtype=int)
    if queues.shape != (cohort.n,):
        raise ValueError("queues must assign one label per unit")
    if np.any((queues < 1) | (queues > spec.k)):
        raise ValueError(f"queue labels must lie in 1..{spec.k}")
    if cohort.tau != spec.tau:
        raise ValueError("cohort horizon and spec horizon disagree")
    s = arrival_periods(cohort.arrival, spec.tau)
    if ranks is None:
        ranks = arrival_ranks(cohort.arrival)
    elif np.shape(ranks) != (cohort.n,):
        raise ValueError("ranks must give one rank per unit")
    if spec.mode == "strict":
        tp = _allocate_strict(s, ranks, queues, spec.budgets)
    else:
        shares = rationed_shares(spec.budgets, spec.alpha_target, spec.p)
        tp = _allocate_rationed(s, ranks, queues, shares)
    return AllocationTrace(
        queues=queues, treat_period=tp, tau=spec.tau, budgets=spec.budgets,
        mode=spec.mode,
    )


def treated_mass_profile(trace: AllocationTrace, k: int) -> np.ndarray:
    """Cumulative treated mass by priority tier and period.

    Entry [k-1, t-1] is (1/n) * #{i : Q_i <= k and T_i <= t}: the fraction of
    the population in queues 1..k already served by the end of period t.  In
    the strict regime with uniform arrivals the final column converges to
    min(beta, c_k), capacity filling queues in priority order.
    """
    n = trace.n
    out = np.zeros((int(k), trace.tau))
    served = trace.treat_period > 0
    for tier in range(1, int(k) + 1):
        sel = served & (trace.queues <= tier)
        if not np.any(sel):
            continue
        counts = np.bincount(trace.treat_period[sel], minlength=trace.tau + 1)[1:]
        out[tier - 1] = np.cumsum(counts) / n
    return out
