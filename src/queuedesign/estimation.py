"""Treatment-effect estimators for queue-randomized allocation.

Three estimators share the queue-induced randomization:

* ``estimate_dr_ate`` — the doubly robust ATE estimator built from outcome
  regressions and the marginal treatment propensity.  Requires overlap
  (propensities bounded away from 0 and 1) and exogenous arrivals.
* ``estimate_pliv`` — the partially linear IV estimator using the centered
  queue residual alpha_Q - pi(theta), inverse-weighted by the conditional
  residual variance sigma(X).  Robust to arrival-order confounding because
  the queue draw is independent of everything given X.
* ``estimate_iv_ratio`` — the raw instrument ratio E_n[rY] / E_n[rZ], whose
  population value is a nonnegatively weighted average of pairwise local
  effects across queue margins.

Nuisances (outcome means, E[Y|X], and sigma) are values at the estimation
units, one per unit in the estimator's order.  They are either analytic
(oracle) or fit on an explicit independent split — never on the estimation
sample itself — and the design's propensities enter the same way, so a
caller computes what its design fixes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cohorts import residual_variance
from .errors import BoundaryPropensity, PositivityError, RelevanceError, RunFailure
from .propensity import AlphaVector, instrument_variance, marginal_propensity

SIGMA_FLOOR = 1e-6
NUISANCE_METHODS = ("oracle", "binned", "polynomial")
NUISANCE_BINS = 20  # quantile bins of the binned fit before any coarsening
NUISANCE_DEGREE = 3  # per-arm polynomial degree of the polynomial fit
POSITIVITY_GAMMA = 0.01  # DR refuses propensities outside [gamma, 1 - gamma]


# ---------------------------------------------------------------------------
# nuisances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuisanceSet:
    """Conditional means and residual variance at the estimation units.

    ``mu0``/``mu1`` are E[Y | Z=z, X], ``m`` is E[Y | X], and ``sigma`` is
    the conditional residual variance E[U^2 | X], floored away from zero so
    the inverse-variance instrument weighting stays finite: one value per
    unit each, in the estimator's order.
    """

    mu0: np.ndarray
    mu1: np.ndarray
    m: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if len({np.shape(v) for v in (self.mu0, self.mu1, self.m, self.sigma)}) > 1:
            raise ValueError("mu0, mu1, m and sigma must have equal shapes")


def oracle_nuisances(
    h: np.ndarray, dgp_tag: str, psi: float, pi: np.ndarray | float
) -> NuisanceSet:
    """Analytic nuisances of a synthetic DGP at the risk scores ``h``.

    ``pi`` holds the design's marginal treatment probabilities at those
    units (or one shared value); it enters E[Y|X] = mu0 + pi*psi and the
    residual variance ``cohorts.residual_variance``.
    """
    h = np.asarray(h, dtype=float)
    sigma = np.maximum(residual_variance(dgp_tag, psi, h, pi), SIGMA_FLOOR)
    return NuisanceSet(mu0=h, mu1=h + psi, m=h + psi * pi, sigma=sigma)


def _bin_of(x, edges):
    return np.clip(np.digitize(x, edges[1:-1]), 0, len(edges) - 2)


def _binned_mean(train_h, train_y, edges):
    idx = _bin_of(train_h, edges)
    sums = np.bincount(idx, weights=train_y, minlength=len(edges) - 1)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    return sums, counts


def fit_nuisances(
    h: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    at: np.ndarray,
    method: str = "binned",
) -> NuisanceSet:
    """Fit nuisances on an independent sample; return their values at ``at``.

    The caller is responsible for passing a split disjoint from the
    estimation sample, whose risk scores are ``at``.  ``binned`` uses
    ``NUISANCE_BINS`` quantile bins of h with per-arm bin means,
    automatically coarsening (halving the bin count) until every bin
    contains both treatment arms; ``polynomial`` fits least-squares
    polynomials of degree ``NUISANCE_DEGREE`` in h per arm.  sigma is
    fit by the same method applied to squared residuals against the pooled
    fit m-hat, then floored.  A sample too thin for either fit raises
    ``RunFailure``.
    """
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    at = np.asarray(at, dtype=float)
    if not (h.shape == z.shape == y.shape):
        raise ValueError("h, z, y must have matching shapes")
    if method == "binned":
        b = NUISANCE_BINS
        while b >= 1:
            edges = np.unique(np.quantile(h, np.linspace(0, 1, b + 1)))
            if len(edges) < 2:
                # all h identical: a single bin covering the line
                edges = np.array([-np.inf, np.inf])
            s1, c1 = _binned_mean(h[z == 1], y[z == 1], edges)
            s0, c0 = _binned_mean(h[z == 0], y[z == 0], edges)
            sp, cp = _binned_mean(h, y, edges)
            if np.all(c1 > 0) and np.all(c0 > 0):
                m_vals = sp / cp
                sr, _ = _binned_mean(h, (y - m_vals[_bin_of(h, edges)]) ** 2, edges)
                idx = _bin_of(at, edges)
                return NuisanceSet(
                    mu0=(s0 / c0)[idx],
                    mu1=(s1 / c1)[idx],
                    m=m_vals[idx],
                    sigma=np.maximum(sr / cp, SIGMA_FLOOR)[idx],
                )
            b //= 2
        raise RunFailure(
            "cannot fit binned nuisances: some bin has an empty treatment arm "
            "even with a single bin"
        )
    if method == "polynomial":
        deg = NUISANCE_DEGREE
        if (z == 1).sum() <= deg or (z == 0).sum() <= deg:
            raise RunFailure("too few observations per arm for the polynomial degree")
        poly = np.polynomial.polynomial
        m_coeffs = poly.polyfit(h, y, deg)
        resid2 = (y - poly.polyval(h, m_coeffs)) ** 2
        return NuisanceSet(
            mu0=poly.polyval(at, poly.polyfit(h[z == 0], y[z == 0], deg)),
            mu1=poly.polyval(at, poly.polyfit(h[z == 1], y[z == 1], deg)),
            m=poly.polyval(at, m_coeffs),
            sigma=np.maximum(poly.polyval(at, poly.polyfit(h, resid2, deg)), SIGMA_FLOOR),
        )
    raise ValueError("method must be 'binned' or 'polynomial'")


def split_indices(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random 50/50 partition into (nuisance, estimation) index sets."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    perm = rng.permutation(n)
    half = n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with a standard error and a two-sided 95% interval."""

    point: float
    se: float
    ci_low: float
    ci_high: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.point):
            raise ValueError("point estimate must be finite")
        if not (np.isfinite(self.se) and self.se >= 0.0):
            raise ValueError("se must be finite and nonnegative")
        if self.ci_low > self.ci_high:
            raise ValueError("ci_low must not exceed ci_high")
        if self.n < 1:
            raise ValueError("n must be positive")


def wald_report(point: float, se: float, n: int) -> EstimateReport:
    """Package a point estimate with the normal-approximation 95% interval."""
    point = float(point)
    se = float(se)
    return EstimateReport(
        point=point, se=se, ci_low=point - 1.96 * se, ci_high=point + 1.96 * se, n=int(n),
    )


def dr_influence(
    z: np.ndarray, y: np.ndarray, pi: np.ndarray, nuisances: NuisanceSet
) -> np.ndarray:
    """Per-unit efficient-influence contributions for the DR ATE."""
    m1, m0 = nuisances.mu1, nuisances.mu0
    return m1 - m0 + z * (y - m1) / pi - (1 - z) * (y - m0) / (1 - pi)


def estimate_dr_ate(
    z: np.ndarray,
    y: np.ndarray,
    pi: np.ndarray,
    nuisances: NuisanceSet,
    bootstrap_reps: Optional[int] = None,
    seed: int = 0,
) -> EstimateReport:
    """Doubly robust ATE with augmented inverse-propensity weighting.

    ``pi`` holds the design's marginal treatment probabilities at the units.
    Positivity gamma <= pi_i <= 1 - gamma, with gamma = ``POSITIVITY_GAMMA``,
    must hold for every unit: a violation means the design treats some units
    (almost) deterministically and the ATE is not identified from it, so the
    error names the offenders rather than returning an arbitrarily noisy
    number.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = z.shape[0]
    bad = np.nonzero((pi < POSITIVITY_GAMMA) | (pi > 1 - POSITIVITY_GAMMA))[0]
    if bad.size:
        shown = ", ".join(str(int(b)) for b in bad[:10])
        more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
        raise PositivityError(
            f"positivity violated at gamma={POSITIVITY_GAMMA}: units [{shown}]{more} have "
            "propensities outside [gamma, 1-gamma]; the design is too "
            "deterministic for ATE estimation"
        )
    phi = dr_influence(z, y, pi, nuisances)
    point = float(phi.mean())
    if bootstrap_reps is None:
        se = float(phi.std(ddof=1) / np.sqrt(n))
        return wald_report(point, se, n)
    boot = multiplier_bootstrap(phi, reps=bootstrap_reps, seed=seed)
    return EstimateReport(point=point, se=boot.se, ci_low=boot.ci_low, ci_high=boot.ci_high, n=n)


def estimate_pliv(
    z: np.ndarray,
    y: np.ndarray,
    r: np.ndarray,
    pi: np.ndarray,
    ivar: np.ndarray,
    nuisances: NuisanceSet,
    relevance_floor: float = 1e-8,
) -> EstimateReport:
    """Partially linear IV estimate using the variance-weighted queue residual.

    The instrument is r_i = alpha_{Q_i} - pi(theta_i), centered by
    construction given X, and weighted by 1/sigma(X); ``pi`` and ``ivar``
    are the design's marginal propensities and instrument variances
    Var(alpha_Q | X) (``instrument_variance``) at the units.  Identification
    only needs the queue draw to be independent of the disturbance given X,
    so the estimate is consistent even when arrival order is confounded.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    n = z.shape[0]
    expected_sq = float(np.mean(ivar))
    if expected_sq < relevance_floor:
        raise RelevanceError(
            f"instrument relevance failure: mean expected squared residual "
            f"{expected_sq:.3e} < floor {relevance_floor:.3e}; the design has "
            "no usable queue randomization"
        )
    sig = nuisances.sigma
    f = r / sig
    den = float(np.mean(f * (z - pi)))
    if den == 0.0:
        raise RunFailure("realized instrument-treatment covariance is zero")
    num = float(np.mean(f * (y - nuisances.m)))
    point = num / den
    # asymptotic variance: inverse of the design-expected information, which
    # is instrument_information(theta, alpha, sig) from the variance above
    info = float(np.mean(ivar / sig))
    se = float(np.sqrt(1.0 / info / n))
    return wald_report(point, se, n)


def estimate_iv_ratio(
    y: np.ndarray, z: np.ndarray, r: np.ndarray
) -> EstimateReport:
    """Raw instrument ratio E_n[rY] / E_n[rZ] with a delta-method SE."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    n = y.shape[0]
    den = float(np.mean(r * z))
    if den == 0.0:
        raise RelevanceError(
            "instrument relevance failure: sum of r_i Z_i is zero"
        )
    point = float(np.mean(r * y)) / den
    phi = r * (y - point * z) / den
    se = float(phi.std(ddof=1) / np.sqrt(n))
    return wald_report(point, se, n)


# ---------------------------------------------------------------------------
# asymptotic variance formulas
# ---------------------------------------------------------------------------


def dr_variance_terms(
    theta: np.ndarray, alpha: AlphaVector, var1: np.ndarray, var0: np.ndarray, cate: np.ndarray
) -> np.ndarray:
    """Per-unit terms of the DR ATE's asymptotic variance under (theta, alpha).

    Var(Y|1,X)/pi + Var(Y|0,X)/(1-pi) + (tau(X) - mean tau)^2, from the
    outcome variances ``var1``/``var0`` and effects ``cate`` at each of the
    cohort's units; their mean is ``variance_dr_formula``.
    """
    pi = marginal_propensity(theta, alpha)
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise BoundaryPropensity("propensities on the boundary: DR variance undefined")
    return var1 / pi + var0 / (1.0 - pi) + (cate - cate.mean()) ** 2


def variance_dr_formula(
    theta: np.ndarray, alpha: AlphaVector, var1: np.ndarray, var0: np.ndarray, cate: np.ndarray
) -> float:
    """Asymptotic variance of the DR ATE under the design (theta, alpha).

    E[Var(Y|1,X)/pi + Var(Y|0,X)/(1-pi)] + Var(E[Y|1,X] - E[Y|0,X]),
    averaged over the cohort's units.
    """
    return float(np.mean(dr_variance_terms(theta, alpha, var1, var0, cate)))


def instrument_information(
    theta: np.ndarray, alpha: AlphaVector, sigma: np.ndarray
) -> np.ndarray:
    """Per-unit information Var(alpha_Q | X) / sigma(X) of the queue instrument.

    ``sigma`` holds the residual variances at the units' risk scores; the
    mean over units is the inverse of the weighted-IV asymptotic variance.
    """
    return instrument_variance(theta, alpha) / sigma


def variance_pliv_formula(theta: np.ndarray, alpha: AlphaVector, sigma: np.ndarray) -> float:
    """Asymptotic variance of the weighted-IV estimator.

    Inverse of the mean ``instrument_information`` over the cohort's units.
    """
    info = float(np.mean(instrument_information(theta, alpha, sigma)))
    if info <= 0.0:
        raise RelevanceError(
            "instrument relevance failure: expected squared residual is zero "
            "(deterministic policy)"
        )
    return 1.0 / info


# ---------------------------------------------------------------------------
# multiplier bootstrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap standard error and 95% interval of a sample mean."""

    se: float
    ci_low: float
    ci_high: float


def _perturbed_means(centered: np.ndarray, reps: int, seed: int) -> np.ndarray:
    """mean(xi * phi_centered) per replicate, chunked to bound memory."""
    n = centered.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    out = np.empty(reps)
    chunk = max(1, 131_072 // max(n, 1))  # about 1 MB of normals per draw
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        xi = rng.standard_normal((take, n))
        out[done : done + take] = xi @ centered / n
        done += take
    return out


def multiplier_bootstrap(
    influence: np.ndarray, reps: int = 10_000, seed: int = 0
) -> BootstrapResult:
    """Gaussian-multiplier bootstrap for a sample-mean statistic.

    Each replicate perturbs the centered influence values with iid standard
    normal multipliers; the 2.5%/97.5% quantiles of the perturbations are
    anchored at the point estimate.  Degenerate influence (all equal) gives
    a zero-width interval.
    """
    influence = np.asarray(influence, dtype=float)
    if reps < 1:
        raise ValueError("reps must be positive")
    point = float(influence.mean())
    centered = influence - point
    perturbed = _perturbed_means(centered, reps, seed)
    lo, hi = np.quantile(perturbed, [0.025, 0.975])
    return BootstrapResult(
        se=float(perturbed.std(ddof=1)), ci_low=point + float(lo), ci_high=point + float(hi),
    )
