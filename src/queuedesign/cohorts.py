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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._bitexact import stable_ranks

DGP_TAGS = ("bernoulli", "partially_linear")
ESTIMATOR_METHODS = ("dr_ate", "pliv", "iv_ratio")


def default_h_law(rng: np.random.Generator, n: int) -> np.ndarray:
    """Beta(2, 5) risk scores rescaled to [0.1, 0.9].

    Keeps h bounded away from 0 and 1 so that Bern(h + psi) is well defined
    for moderate effect sizes and inverse-variance weights stay finite.
    """
    return 0.1 + 0.8 * rng.beta(2.0, 5.0, size=n)


@dataclass(frozen=True)
class Cohort:
    """A fixed population of n units awaiting allocation over tau periods.

    Units are identified by their position: unit i is row i of each array.
    ``confounder`` holds the disturbance U for the partially linear DGP and
    is None for the bernoulli DGP (there is no hidden variable to record).
    ``arrival_ranks`` holds each unit's position in (arrival, id) order,
    ``mechanism.arrival_ranks(arrival)``, when the draw already knows it, and
    is None otherwise; ``mechanism.allocate`` reads them as its FIFO order
    and ranks the arrivals itself only when they are None.
    """

    h: np.ndarray
    arrival: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    tau: int
    dgp_tag: str
    confounder: Optional[np.ndarray] = None
    arrival_ranks: Optional[np.ndarray] = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        arrival = np.asarray(self.arrival, dtype=float)
        y0 = np.asarray(self.y0, dtype=float)
        y1 = np.asarray(self.y1, dtype=float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)
        n = h.shape[0]
        for name, arr in (("arrival", arrival), ("y0", y0), ("y1", y1)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.dgp_tag not in DGP_TAGS:
            raise ValueError(f"unknown dgp_tag {self.dgp_tag!r}")
        if not (isinstance(self.tau, (int, np.integer)) and self.tau >= 1):
            raise ValueError("tau must be a positive integer number of periods")
        if np.any(h <= 0.0) or np.any(h >= 1.0):
            raise ValueError("risk scores h must lie strictly inside (0, 1)")
        if np.any(arrival < 0.0) or np.any(arrival > self.tau):
            raise ValueError("arrival times must lie in [0, tau]")
        if self.confounder is not None:
            conf = np.asarray(self.confounder, dtype=float)
            if conf.shape != (n,):
                raise ValueError("confounder must match cohort length")
            object.__setattr__(self, "confounder", conf)
        if self.arrival_ranks is not None and np.shape(self.arrival_ranks) != (n,):
            raise ValueError("arrival_ranks must match cohort length")

    @property
    def n(self) -> int:
        return self.h.shape[0]


def generate_cohort(
    n: int,
    tau: int,
    psi: float,
    seed: int = 0,
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
    if np.any(p1 < 0.0) or np.any(p1 > 1.0):
        bad = int(np.argmax((p1 < 0.0) | (p1 > 1.0)))
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
    h: Optional[np.ndarray] = None,
    seed: int = 0,
) -> Cohort:
    """Draw a partially linear cohort whose arrival order is confounded.

    Y(z) = psi*z + h + U with U | h ~ Uniform(-0.2h, 0.2h), so E[U | h] = 0
    and the treatment effect is exactly psi for every unit.  Arrival times
    are the deterministic grid tau*(r - 0.5)/n assigned in descending order
    of U: the highest-U unit arrives first.  Any allocation rule that serves
    earlier arrivals first will thus treat units with systematically higher
    outcomes, which is invisible to regressions on h alone.  A given ``h``
    fixes the risk scores, and only U is drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    h = default_h_law(rng, n) if h is None else np.asarray(h, dtype=float)
    if h.shape != (n,):
        raise ValueError("h must have shape (n,)")
    u = rng.uniform(-0.2 * h, 0.2 * h)
    # Rank 0 = largest U; a tie (measure zero for continuous U) keeps id order.
    # Arrival is strictly increasing in rank, so these are its FIFO ranks.
    ranks = stable_ranks(-u)
    arrival = tau * (ranks + 0.5) / n
    y0 = h + u
    y1 = psi + h + u
    return Cohort(
        h=h,
        arrival=arrival,
        y0=y0,
        y1=y1,
        tau=int(tau),
        dgp_tag="partially_linear",
        confounder=u,
        arrival_ranks=ranks,
    )


def outcome_variances(dgp_tag: str, psi: float) -> tuple[Callable, Callable]:
    """Conditional outcome variances (Var(Y(1) | h), Var(Y(0) | h)) of a DGP."""
    if dgp_tag == "bernoulli":
        var1 = lambda h: np.maximum((h + psi) * (1.0 - h - psi), 0.0)
        var0 = lambda h: h * (1.0 - h)
        return var1, var0
    # U | h ~ Uniform(-0.2h, 0.2h) in both arms: Var = (0.4h)^2 / 12.
    var = lambda h: (0.2 * np.asarray(h, dtype=float)) ** 2 / 3.0
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
    return outcome_variances(dgp_tag, psi)[0](h)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with a standard error and a two-sided 95% interval."""

    point: float
    se: float
    ci_low: float
    ci_high: float
    n: int
    method: str
    bootstrap_reps: Optional[int] = None

    def __post_init__(self):
        if self.method not in ESTIMATOR_METHODS:
            raise ValueError(f"method must be one of {ESTIMATOR_METHODS}")
        if not np.isfinite(self.point):
            raise ValueError("point estimate must be finite")
        if not (np.isfinite(self.se) and self.se >= 0.0):
            raise ValueError("se must be finite and nonnegative")
        if self.ci_low > self.ci_high:
            raise ValueError("ci_low must not exceed ci_high")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.bootstrap_reps is not None and self.bootstrap_reps < 1:
            raise ValueError("bootstrap_reps must be positive when given")


def wald_report(point: float, se: float, n: int, method: str) -> EstimateReport:
    """Package a point estimate with the normal-approximation 95% interval."""
    point = float(point)
    se = float(se)
    return EstimateReport(
        point=point,
        se=se,
        ci_low=point - 1.96 * se,
        ci_high=point + 1.96 * se,
        n=int(n),
        method=method,
    )
