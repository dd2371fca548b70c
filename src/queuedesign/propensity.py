"""Treatment propensities induced by tiered-queue allocation.

Under a capacity share beta and queue proportions p, the large-population
probability that a unit in queue k is ever served has the closed water-filling
form

    alpha_k = [ (beta - c_{k-1})_+ - (beta - c_k)_+ ] / p_k,   c_k = p_1+...+p_k,

i.e. capacity fills queues in priority order: queues strictly above the
beta-quantile of the priority distribution are served with probability 1,
queues strictly below with probability 0, and the single boundary queue
absorbs the remainder.  The marginal treatment probability of a unit with
assignment distribution theta is then affine, pi(theta) = sum_k alpha_k
theta_k, and the centered residual alpha_Q - pi(theta) is the instrument that
queue randomization contributes for free.

Finite-population analogues replace alpha with queue-conditional service
frequencies pi_tilde(i, k), which ``counterfactual`` estimates by Monte
Carlo; this module holds their container type and the residual calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# asymptotic queue-conditional propensities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaVector:
    """Limiting per-queue service probabilities for a (beta, p) mechanism.

    alpha is nonincreasing in the queue index (queue 1 = highest priority),
    each entry lies in [0, 1], empty queues get alpha = 0, and the adding-up
    identity sum_k alpha_k p_k = beta holds to near machine precision.
    """

    alpha: np.ndarray
    beta: float
    p: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p", p)
        if alpha.ndim != 1 or alpha.shape != p.shape:
            raise ValueError("alpha and p must be 1-d arrays of equal length")
        # negated comparisons, so a NaN fails them
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("p must be a probability vector over queues")
        if not (np.all(alpha >= -1e-12) and np.all(alpha <= 1.0 + 1e-12)):
            raise ValueError("alpha entries must lie in [0, 1]")
        if not np.all(np.diff(alpha) <= 1e-12):
            raise ValueError("alpha must be nonincreasing in the queue index")
        if np.any(alpha[p == 0.0] != 0.0):
            raise ValueError("queues with zero mass must have alpha = 0")
        if abs(float(alpha @ p) - self.beta) > 1e-12:
            raise ValueError("sum_k alpha_k p_k must equal beta")


def alpha_vector(beta: float, p: np.ndarray) -> AlphaVector:
    """Water-filling service probabilities for capacity beta and shares p."""
    p = np.asarray(p, dtype=float)
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie strictly inside (0, 1)")
    if not (p.ndim == 1 and np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("p must be a probability vector over queues")
    c = np.concatenate(([0.0], np.cumsum(p)))
    pos = np.maximum(beta - c, 0.0)
    alpha = np.zeros_like(p)
    nz = p > 0
    alpha[nz] = (pos[:-1][nz] - pos[1:][nz]) / p[nz]
    alpha = np.clip(alpha, 0.0, 1.0)
    # Rebalance the boundary entry so the adding-up identity is exact in floats.
    err = beta - float(alpha @ p)
    if abs(err) > 0.0:
        boundary = np.nonzero(nz & (alpha > 0.0) & (alpha < 1.0))[0]
        idx = boundary[0] if boundary.size else np.nonzero(nz)[0][-1]
        alpha[idx] += err / p[idx]
    return AlphaVector(alpha=alpha, beta=float(beta), p=p)


def alpha_from_target(alpha: np.ndarray, p: np.ndarray) -> AlphaVector:
    """Wrap user-chosen per-queue service rates (rationed designs).

    beta is taken to be the implied total sum_k alpha_k p_k, so the adding-up
    identity holds by construction; monotonicity and range are validated.
    """
    alpha = np.asarray(alpha, dtype=float)
    p = np.asarray(p, dtype=float)
    beta = float(alpha @ p)
    return AlphaVector(alpha=alpha, beta=beta, p=p)


def marginal_propensity(theta: np.ndarray, alpha: AlphaVector) -> np.ndarray:
    """Affine marginal treatment probability pi(theta) = sum_k alpha_k theta_k.

    theta is a policy matrix (n, K); the result is the (n,) vector of pi.
    """
    return np.asarray(theta, dtype=float) @ alpha.alpha


def instrument_variance(theta: np.ndarray, alpha: AlphaVector) -> np.ndarray:
    """Per-unit Var(alpha_Q | X) = sum_k theta_k alpha_k^2 - pi(theta)^2, Q ~ theta.

    This is the variance of the centered queue instrument alpha_Q - pi(theta),
    whose mean is zero under each unit's own row: queue draws shift treatment
    probability without shifting anything correlated with covariates.
    """
    theta = np.asarray(theta, dtype=float)
    a = alpha.alpha
    s = theta @ a
    return theta @ a**2 - s**2


# ---------------------------------------------------------------------------
# finite-population propensity tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropensityTable:
    """Queue-conditional and marginal service probabilities for one cohort.

    ``queue_conditional[i, k-1]`` is P(Z_i = 1 | Q_i = k); NaN marks a cell a
    Monte Carlo run never visited.  ``marginal`` aggregates the conditional
    cells through the policy, marginal_i = sum_k theta_ik * qc_ik, and is NaN
    wherever a needed cell is absent.
    """

    queue_conditional: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        qc = np.asarray(self.queue_conditional, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "queue_conditional", qc)
        object.__setattr__(self, "theta", theta)
        if qc.ndim != 2:
            raise ValueError("queue_conditional must be an (n, K) matrix")
        if theta.shape != qc.shape:
            raise ValueError("theta must match queue_conditional")
        finite = np.isfinite(qc)
        if np.any((qc[finite] < -1e-9) | (qc[finite] > 1.0 + 1e-9)):
            raise ValueError("queue-conditional propensities must lie in [0, 1]")

    @property
    def marginal(self) -> np.ndarray:
        qc, theta = self.queue_conditional, self.theta
        needed = theta > 0.0
        ok = np.all(np.isfinite(qc) | ~needed, axis=1)
        return np.where(
            ok, np.einsum("ik,ik->i", np.where(needed, theta, 0.0), np.nan_to_num(qc)), np.nan
        )
