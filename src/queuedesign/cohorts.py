"""Synthetic cohorts for queue-based allocation experiments.

Two data generating processes are provided.  In both, each unit carries a
risk score h in (0, 1) that plays the role of the observable covariate: the
decision maker's utility for treating a unit is u(X) = h, and all outcome
regressions are functions of h alone.

``bernoulli``
    Outcomes are independent coin flips: Y(0) ~ Bern(h), Y(1) ~ Bern(h + psi).
    Arrival times are i.i.d. uniform on [0, tau], so arrival order carries no
    information about outcomes (the exogenous-arrival regime).

``partially_linear``
    Y(z) = psi * z + h + U with a uniform disturbance U | h ~ U(-0.2h, 0.2h),
    and units arrive in *descending* order of U on a fixed time grid.  Early
    arrivals are therefore the high-U units, which breaks the exogeneity of
    queue position and is the worst case for estimators that treat arrival
    order as noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._bitexact import stable_ranks

DGP_TAGS = ("bernoulli", "partially_linear")


def default_h_law(rng: np.random.Generator, n: int) -> np.ndarray:
    """Beta(2, 5) risk scores rescaled to [0.1, 0.9].

    Keeps h bounded away from 0 and 1 so that Bern(h + psi) is well defined
    for moderate effect sizes and inverse-variance weights stay finite.
    """
    return 0.1 + 0.8 * rng.beta(2.0, 5.0, size=n)


class _Arrival:
    """``Cohort.arrival``: the arrival times given, or else the grid
    tau*(r + 0.5)/n at each unit's FIFO rank r in 0..n-1, derived when
    first read."""

    def __get__(self, cohort, owner=None):
        if cohort is None:
            return None  # the init field's default: no times given
        arrival = cohort.__dict__["arrival"]
        if arrival is None:
            arrival = cohort.tau * (cohort.arrival_ranks + 0.5) / cohort.n
            cohort.__dict__["arrival"] = arrival
        return arrival

    def __set__(self, cohort, arrival):
        cohort.__dict__["arrival"] = arrival


def _check_risk_scores(h: np.ndarray) -> None:
    # negated comparisons, so a NaN fails them
    if not (np.all(h > 0.0) and np.all(h < 1.0)):
        raise ValueError("risk scores h must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class Cohort:
    """A fixed population of n units awaiting allocation over tau periods.

    Units are identified by their position: unit i is row i of each array.
    ``confounder`` holds the disturbance U for the partially linear DGP and
    is None for the bernoulli DGP (there is no hidden variable to record).

    ``key`` is the FIFO key: units are served in (key, id) order, which
    ``mechanism.allocate`` reads.  A cohort given ``arrival`` times is keyed
    by them.  A cohort given none arrives in descending order of its
    confounder, the partially linear DGP's law: its key is -U, and its
    ``arrival`` is the grid tau*(r + 0.5)/n at FIFO rank r in 0..n-1,
    derived only when read.  ``arrival_ranks``, each unit's position in
    (key, id) order, is likewise ranked only when read.
    """

    h: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    tau: int
    dgp_tag: str
    arrival: Optional[np.ndarray] = _Arrival()
    confounder: Optional[np.ndarray] = None
    key: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        y0 = np.asarray(self.y0, dtype=float)
        y1 = np.asarray(self.y1, dtype=float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)
        n = h.shape[0]
        for name, arr in (("y0", y0), ("y1", y1)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.dgp_tag not in DGP_TAGS:
            raise ValueError(f"unknown dgp_tag {self.dgp_tag!r}")
        if not (isinstance(self.tau, (int, np.integer)) and self.tau >= 1):
            raise ValueError("tau must be a positive integer number of periods")
        _check_risk_scores(h)
        if self.confounder is not None:
            conf = np.asarray(self.confounder, dtype=float)
            if conf.shape != (n,):
                raise ValueError("confounder must match cohort length")
            object.__setattr__(self, "confounder", conf)
        arrival = self.__dict__["arrival"]
        if arrival is None:
            if self.confounder is None:
                raise ValueError("a cohort needs arrival times or a confounder to order them")
            object.__setattr__(self, "key", -self.confounder)
            return
        arrival = np.asarray(arrival, dtype=float)
        if arrival.shape != (n,):
            raise ValueError(f"arrival must have shape ({n},), got {arrival.shape}")
        if not (np.all(arrival >= 0.0) and np.all(arrival <= self.tau)):
            raise ValueError("arrival times must lie in [0, tau]")
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "key", arrival)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @cached_property
    def arrival_ranks(self) -> np.ndarray:
        return stable_ranks(self.key)


def generate_cohort(
    n: int,
    tau: int,
    psi: float,
    seed: int,
) -> Cohort:
    """Draw a bernoulli-outcome cohort with exogenous uniform arrivals.

    Potential outcomes are independent draws Y(0) ~ Bern(h) and
    Y(1) ~ Bern(h + psi); both success probabilities must land in [0, 1]
    for every unit, otherwise the draw is refused.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    h = default_h_law(rng, n)
    p1 = h + psi
    if not (np.all(p1 >= 0.0) and np.all(p1 <= 1.0)):
        bad = int(np.argmin((p1 >= 0.0) & (p1 <= 1.0)))
        raise ValueError(
            f"h + psi must lie in [0, 1]; unit {bad} has h={h[bad]:.4f}, psi={psi}"
        )
    arrival = rng.uniform(0.0, tau, size=n)
    y0 = (rng.uniform(size=n) < h).astype(float)
    y1 = (rng.uniform(size=n) < p1).astype(float)
    return Cohort(h=h, arrival=arrival, y0=y0, y1=y1, tau=int(tau), dgp_tag="bernoulli")


def generate_bias_cohort(
    n: int,
    tau: int,
    psi: float,
    seed: int,
    h: Optional[np.ndarray] = None,
) -> Cohort:
    """Draw a partially linear cohort whose arrival order is confounded.

    Y(z) = psi*z + h + U with U | h ~ Uniform(-0.2h, 0.2h), so E[U | h] = 0
    and the treatment effect is exactly psi for every unit.  Arrival times
    are the deterministic grid tau*(r - 0.5)/n assigned in descending order
    of U: the highest-U unit arrives first (``Cohort`` derives the grid from
    U when it is read).  Any allocation rule that serves earlier arrivals
    first will thus treat units with systematically higher outcomes, which
    is invisible to regressions on h alone.  A given ``h`` fixes the risk
    scores, and only U is drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    h = default_h_law(rng, n) if h is None else np.asarray(h, dtype=float)
    if h.shape != (n,):
        raise ValueError("h must have shape (n,)")
    _check_risk_scores(h)  # the draw below does no finiteness check of its own
    # rng.uniform(lo, hi) is lo + (hi - lo) * d over the same doubles d, so
    # these are its bits, without the broadcast over array bounds
    lo = -0.2 * h
    u = rng.random(n)
    u *= 0.2 * h - lo
    u += lo
    return Cohort(
        h=h,
        y0=h + u,
        y1=psi + h + u,
        tau=int(tau),
        dgp_tag="partially_linear",
        confounder=u,
    )


def outcome_variances(dgp_tag: str, psi: float, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional outcome variances (Var(Y(1) | h), Var(Y(0) | h)) of a DGP."""
    h = np.asarray(h, dtype=float)
    if dgp_tag == "bernoulli":
        return np.maximum((h + psi) * (1.0 - h - psi), 0.0), h * (1.0 - h)
    # U | h ~ Uniform(-0.2h, 0.2h) in both arms: Var = (0.4h)^2 / 12.
    var = (0.2 * h) ** 2 / 3.0
    return var, var


def residual_variance(
    dgp_tag: str, psi: float, h: np.ndarray, pi: np.ndarray | float
) -> np.ndarray:
    """Residual variance sigma(h) of Y when P(Z=1 | h) = pi.

    The bernoulli pi-mix is written out, not built from ``outcome_variances``:
    its operation order fixes the last bits of every sigma-weighted output.
    """
    h = np.asarray(h, dtype=float)
    if dgp_tag == "bernoulli":
        return pi * (h + psi) * (1 - h - psi) + (1 - pi) * h * (1 - h)
    return outcome_variances(dgp_tag, psi, h)[0]

