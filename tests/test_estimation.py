"""Tests for nuisance fitting, the three estimators, and the bootstrap."""

import inspect

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from queuedesign.cohorts import Cohort, generate_cohort
from queuedesign.errors import BoundaryPropensity, PositivityError, RelevanceError, RunFailure
from queuedesign.estimation import (
    EstimateReport,
    NuisanceSet,
    dr_influence,
    estimate_dr_ate,
    estimate_iv_ratio,
    estimate_pliv,
    fit_nuisances,
    multiplier_bootstrap,
    oracle_nuisances,
    split_indices,
    variance_dr_formula,
    variance_pliv_formula,
    wald_report,
)
from queuedesign.mechanism import QueueSpec, allocate, sample_queues
from queuedesign.propensity import (
    AlphaVector,
    PropensityTable,
    alpha_from_target,
    alpha_vector,
    instrument_variance,
    marginal_propensity,
)

from identification_oracles import (
    ExactOracle,
    WorldTable,
    exact_oracle,
    late_decomposition,
)

PSI = 0.1


def rct_theta(n, k=2):
    return np.full((n, k), 1.0 / k)


def realized_outcomes(cohort, z):
    return np.where(z > 0.5, cohort.y1, cohort.y0)


def pliv(z, y, queues, theta, alpha, nuis, **kwargs):
    """``estimate_pliv`` with the design's per-unit values built from (theta, alpha)."""
    pi = marginal_propensity(theta, alpha)
    r = alpha.alpha[np.asarray(queues) - 1] - pi
    return estimate_pliv(z, y, r, pi, instrument_variance(theta, alpha), nuis, **kwargs)


def exogenous_linear_cohort(n, psi, seed):
    """Partially linear outcomes with exogenous (uniform) arrivals."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    h = 0.1 + 0.8 * rng.beta(2.0, 5.0, size=n)
    u = rng.uniform(-0.2 * h, 0.2 * h)
    return Cohort(
        h=h,
        arrival=rng.uniform(0.0, 1.0, size=n),
        y0=h + u,
        y1=psi + h + u,
        tau=1,
        dgp_tag="partially_linear",
        confounder=u,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class TestEstimateReport:
    def test_wald_interval_is_exact(self):
        r = wald_report(0.25, 0.1, n=100)
        assert r.ci_low == 0.25 - 1.96 * 0.1
        assert r.ci_high == 0.25 + 1.96 * 0.1

    def test_rejects_negative_se(self):
        with pytest.raises(ValueError, match="se"):
            EstimateReport(0.1, -0.01, 0.0, 0.2, 10)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="ci_low"):
            EstimateReport(0.1, 0.01, 0.3, 0.2, 10)


# ---------------------------------------------------------------------------
# nuisance fitting
# ---------------------------------------------------------------------------


class TestFitNuisances:
    def test_constant_outcome_is_fit_exactly(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0.1, 0.9, size=500)
        z = (rng.uniform(size=500) < 0.5).astype(float)
        y = np.full(500, 0.37)
        hq = rng.uniform(0.1, 0.9, size=50)
        nuis = fit_nuisances(h, z, y, hq, method="binned")
        assert np.allclose(nuis.mu0, 0.37, atol=1e-12)
        assert np.allclose(nuis.mu1, 0.37, atol=1e-12)
        assert np.allclose(nuis.m, 0.37, atol=1e-12)
        # zero residuals leave only the floor
        assert np.all(nuis.sigma == 1e-6)
        # and the DR estimate of a null effect is zero to rounding
        nuis = fit_nuisances(h, z, y, h, method="binned")
        rep = estimate_dr_ate(z, y, np.full(500, 0.5), nuis)
        assert rep.point == pytest.approx(0.0, abs=1e-12)
        assert rep.se <= 1e-12

    def test_polynomial_fit_recovers_polynomial_means(self):
        rng = np.random.default_rng(1)
        h = rng.uniform(0.1, 0.9, size=400)
        z = (rng.uniform(size=400) < 0.5).astype(float)
        mu0 = 0.1 + 0.3 * h - 0.2 * h**2
        mu1 = 0.2 + 0.1 * h + 0.15 * h**3
        y = np.where(z == 1, mu1, mu0)
        hq = np.linspace(0.15, 0.85, 20)
        nuis = fit_nuisances(h, z, y, hq, method="polynomial")
        assert np.allclose(nuis.mu0, 0.1 + 0.3 * hq - 0.2 * hq**2, atol=1e-8)
        assert np.allclose(nuis.mu1, 0.2 + 0.1 * hq + 0.15 * hq**3, atol=1e-8)

    def test_binned_mse_decreases_with_fit_sample_size(self):
        # true mu0(h) = h for the bernoulli DGP; more data, finer accuracy
        hq = np.linspace(0.15, 0.85, 200)

        def fit_mse(n, seed):
            cohort = generate_cohort(n, tau=1, psi=PSI, seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
            z = (rng.uniform(size=n) < 0.5).astype(float)
            y = realized_outcomes(cohort, z)
            nuis = fit_nuisances(cohort.h, z, y, hq, method="binned")
            return float(np.mean((nuis.mu0 - hq) ** 2))

        small = np.mean([fit_mse(1_000, s) for s in range(3)])
        large = np.mean([fit_mse(10_000, s) for s in range(3)])
        assert large < 0.5 * small

    def test_binned_coarsens_until_both_arms_present(self):
        rng = np.random.default_rng(2)
        h = np.linspace(0.1, 0.9, 40)
        z = np.zeros(40)
        z[[5, 31]] = 1.0
        y = rng.uniform(size=40)
        nuis = fit_nuisances(h, z, y, np.array([0.5]), method="binned")
        # with two treated units the fit must have coarsened to wide bins;
        # wherever we query inside their bin, mu1 is a mean of observed y
        assert np.isfinite(nuis.mu1).all()

    def test_single_arm_sample_is_refused(self):
        h = np.linspace(0.1, 0.9, 30)
        z = np.ones(30)
        y = np.zeros(30)
        # too little data is a run's finding, not a programming error
        with pytest.raises(RunFailure, match="empty treatment arm"):
            fit_nuisances(h, z, y, h, method="binned")
        with pytest.raises(RunFailure, match="too few observations per arm"):
            fit_nuisances(h, z, y, h, method="polynomial")

    def test_constant_h_collapses_to_global_means(self):
        h = np.full(60, 0.5)
        z = np.array([1.0, 0.0] * 30)
        rng = np.random.default_rng(3)
        y = rng.uniform(size=60)
        nuis = fit_nuisances(h, z, y, np.array([0.5]), method="binned")
        assert np.isclose(nuis.mu1[0], y[z == 1].mean())
        assert np.isclose(nuis.mu0[0], y[z == 0].mean())

    def test_unknown_method_and_shape_mismatch(self):
        h = np.linspace(0.1, 0.9, 10)
        with pytest.raises(ValueError, match="method") as info:
            fit_nuisances(h, np.zeros(10), np.zeros(10), h, method="forest")
        assert not isinstance(info.value, RunFailure)
        with pytest.raises(ValueError, match="matching shapes") as info:
            fit_nuisances(h, np.zeros(9), np.zeros(10), h)
        assert not isinstance(info.value, RunFailure)

    def test_split_indices_partition(self):
        a, b = split_indices(101, seed=4)
        assert len(a) == 50 and len(b) == 51
        assert np.array_equal(np.sort(np.concatenate([a, b])), np.arange(101))
        a2, _ = split_indices(101, seed=4)
        assert np.array_equal(a, a2)

    def test_oracle_nuisances_match_dgp(self):
        cohort = generate_cohort(200, tau=1, psi=PSI, seed=5)
        nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, 0.5)
        assert np.allclose(nuis.mu0, cohort.h)
        assert np.allclose(nuis.mu1, cohort.h + PSI)
        assert np.allclose(nuis.m, cohort.h + 0.5 * PSI)
        lin = exogenous_linear_cohort(50, PSI, seed=6)
        nuis = oracle_nuisances(lin.h, lin.dgp_tag, PSI, 0.5)
        # Var of Uniform(-0.2h, 0.2h) is (0.4h)^2 / 12
        assert np.allclose(nuis.sigma, (0.4 * lin.h) ** 2 / 12.0)

    def test_nuisance_values_share_one_shape(self):
        v = np.zeros(3)
        with pytest.raises(ValueError, match="equal shapes"):
            NuisanceSet(mu0=v, mu1=v, m=v, sigma=np.zeros(2))


# ---------------------------------------------------------------------------
# doubly robust ATE
# ---------------------------------------------------------------------------


class TestDrAte:
    def test_positivity_violation_names_units(self):
        n = 20
        rng = np.random.default_rng(7)
        h = rng.uniform(0.2, 0.8, size=n)
        pi = np.full(n, 0.5)
        pi[3] = 0.001
        pi[17] = 0.9999
        nuis = oracle_nuisances(h, "bernoulli", PSI, 0.5)
        with pytest.raises(PositivityError) as err:
            estimate_dr_ate(np.zeros(n), np.zeros(n), pi, nuis)
        assert "3" in str(err.value) and "17" in str(err.value)

    def test_exact_when_nuisances_are_exact_and_noise_free(self):
        # constant potential outcomes: every influence value equals the effect
        n = 50
        z = (np.arange(n) % 2).astype(float)
        y = np.where(z == 1, 0.55, 0.30)
        nuis = NuisanceSet(
            mu0=np.full(n, 0.30),
            mu1=np.full(n, 0.55),
            m=np.full(n, 0.425),
            sigma=np.full(n, 1.0),
        )
        rep = estimate_dr_ate(z, y, np.full(n, 0.5), nuis)
        assert rep.point == pytest.approx(0.25, abs=1e-12)
        assert rep.se == 0.0
        assert rep.ci_low == rep.ci_high == rep.point

    def test_monte_carlo_unbiased_covered_and_normal(self):
        # RCT at beta = 1/2: the marginal propensity is exactly 1/2 by symmetry
        n, reps = 2_000, 1_000
        spec = QueueSpec.auto(n=n, k=2, p=(0.5, 0.5), beta=0.5, tau=1)
        theta = rct_theta(n)
        pi = np.full(n, 0.5)
        points = np.empty(reps)
        covered_wald = np.empty(reps, dtype=bool)
        covered_boot = np.empty(reps, dtype=bool)
        for rep in range(reps):
            cohort = generate_cohort(n, tau=1, psi=PSI, seed=rep)
            nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, 0.5)
            rng = np.random.default_rng(np.random.SeedSequence([777, rep]))
            queues = sample_queues(theta, rng)
            trace = allocate(cohort, queues, spec)
            y = realized_outcomes(cohort, trace.z)
            wald = estimate_dr_ate(trace.z, y, pi, nuis)
            boot = estimate_dr_ate(trace.z, y, pi, nuis, bootstrap_reps=800, seed=rep)
            points[rep] = wald.point
            covered_wald[rep] = wald.ci_low <= PSI <= wald.ci_high
            covered_boot[rep] = boot.ci_low <= PSI <= boot.ci_high
            assert boot.point == pytest.approx(wald.point, abs=1e-12)
        mc_se = points.std(ddof=1) / np.sqrt(reps)
        assert abs(points.mean() - PSI) <= 3 * mc_se
        assert 0.93 <= covered_wald.mean() <= 0.97
        assert 0.925 <= covered_boot.mean() <= 0.975
        standardized = (points - points.mean()) / points.std(ddof=1)
        ks = scipy.stats.kstest(standardized, "norm")
        assert ks.pvalue > 0.01

    def test_split_fitted_nuisances_recover_effect(self):
        n = 6_000
        spec = QueueSpec.auto(n=n // 2, k=2, p=(0.5, 0.5), beta=0.5, tau=1)
        cohort = generate_cohort(n, tau=1, psi=PSI, seed=10)
        theta = rct_theta(n)
        rng = np.random.default_rng(np.random.SeedSequence([778, 0]))
        queues = sample_queues(theta, rng)
        fit_idx, est_idx = split_indices(n, seed=11)
        # allocate the two halves separately so each is a clean RCT
        reports = []
        for idx in (fit_idx, est_idx):
            sub = Cohort(
                h=cohort.h[idx],
                arrival=cohort.arrival[idx],
                y0=cohort.y0[idx],
                y1=cohort.y1[idx],
                tau=1,
                dgp_tag="bernoulli",
            )
            trace = allocate(sub, queues[idx], spec)
            reports.append((sub, trace.z, realized_outcomes(sub, trace.z)))
        (fit_c, fit_z, fit_y), (est_c, est_z, est_y) = reports
        nuis = fit_nuisances(fit_c.h, fit_z, fit_y, est_c.h, method="binned")
        rep = estimate_dr_ate(est_z, est_y, np.full(n // 2, 0.5), nuis)
        assert abs(rep.point - PSI) <= 4 * rep.se


# ---------------------------------------------------------------------------
# partially linear IV
# ---------------------------------------------------------------------------


class TestPliv:
    def make_run(self, n, seed, psi=PSI):
        cohort = exogenous_linear_cohort(n, psi, seed)
        spec = QueueSpec.auto(n=n, k=2, p=(0.5, 0.5), beta=0.5, tau=1)
        theta = rct_theta(n)
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        rng = np.random.default_rng(np.random.SeedSequence([779, seed]))
        queues = sample_queues(theta, rng)
        trace = allocate(cohort, queues, spec)
        y = realized_outcomes(cohort, trace.z)
        return cohort, theta, alpha, queues, trace.z, y

    def test_noise_free_outcomes_are_recovered_exactly(self):
        # y = g(h) + psi*z with oracle m: the ratio collapses to psi exactly
        n = 300
        cohort, theta, alpha, queues, z, _ = self.make_run(n, seed=12)
        g = 0.2 + 0.4 * cohort.h**2
        y = g + PSI * z
        nuis = NuisanceSet(mu0=g, mu1=g + PSI, m=g + PSI * 0.5, sigma=np.full(n, 0.3))
        rep = pliv(z, y, queues, theta, alpha, nuis)
        assert rep.point == pytest.approx(PSI, abs=1e-10)

    def test_iv_ratio_exact_for_pure_instrument_outcomes(self):
        n = 200
        cohort, theta, alpha, queues, z, _ = self.make_run(n, seed=13)
        pi = theta @ alpha.alpha
        r = alpha.alpha[queues - 1] - pi
        y = PSI * z
        rep = estimate_iv_ratio(y, z, r)
        assert rep.point == pytest.approx(PSI, abs=1e-12)

    def test_iv_ratio_zero_denominator_is_an_error(self):
        with pytest.raises(RelevanceError, match="relevance"):
            estimate_iv_ratio(np.ones(5), np.zeros(5), np.ones(5))

    def test_point_invariant_to_sigma_scale_but_se_scales(self):
        n = 400
        cohort, theta, alpha, queues, z, y = self.make_run(n, seed=14)
        base = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, 0.5)
        scaled = NuisanceSet(
            mu0=base.mu0,
            mu1=base.mu1,
            m=base.m,
            sigma=10.0 * base.sigma,
        )
        r1 = pliv(z, y, queues, theta, alpha, base)
        r2 = pliv(z, y, queues, theta, alpha, scaled)
        assert r1.point == pytest.approx(r2.point, abs=1e-10)
        assert r2.se == pytest.approx(np.sqrt(10.0) * r1.se, rel=1e-9)

    def test_se_is_the_formula_variance(self):
        n = 400
        cohort, theta, alpha, queues, z, y = self.make_run(n, seed=14)
        nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, 0.5)
        rep = pliv(z, y, queues, theta, alpha, nuis)
        v = variance_pliv_formula(theta, alpha, nuis.sigma)
        assert rep.se == np.sqrt(v / n)

    def test_deterministic_policy_fails_relevance(self):
        n = 50
        cohort = exogenous_linear_cohort(n, PSI, seed=15)
        theta = np.zeros((n, 2))
        theta[:, 0] = 1.0
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, 0.5)
        with pytest.raises(RelevanceError, match="relevance"):
            pliv(np.ones(n), np.ones(n), np.ones(n, dtype=int), theta, alpha, nuis)

    def test_zero_realized_covariance_is_a_run_failure(self):
        # pi = 0.5 for both units and z - pi = 0.5 for both, so the two
        # instrument values +-0.25 cancel and the denominator is exactly 0
        alpha = alpha_from_target([0.75, 0.25], [0.5, 0.5])
        zero = np.zeros(2)
        nuis = NuisanceSet(mu0=zero, mu1=zero, m=zero, sigma=np.full(2, 0.3))
        with pytest.raises(RunFailure, match="covariance is zero") as info:
            pliv(np.ones(2), np.ones(2), np.array([1, 2]), rct_theta(2), alpha, nuis)
        assert info.value.status == "precondition_error"

    def test_monte_carlo_unbiased_and_covered(self):
        reps, n = 600, 1_000
        points = np.empty(reps)
        covered = np.empty(reps, dtype=bool)
        for rep in range(reps):
            cohort, theta, alpha, queues, z, y = self.make_run(n, seed=1000 + rep)
            nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, 0.5)
            est = pliv(z, y, queues, theta, alpha, nuis)
            points[rep] = est.point
            covered[rep] = est.ci_low <= PSI <= est.ci_high
        mc_se = points.std(ddof=1) / np.sqrt(reps)
        assert abs(points.mean() - PSI) <= 3 * mc_se
        assert 0.915 <= covered.mean() <= 0.985

    def test_split_fitted_nuisances_are_consistent(self):
        n = 20_000
        cohort, theta, alpha, queues, z, y = self.make_run(n, seed=16)
        fit_idx, est_idx = split_indices(n, seed=17)
        nuis = fit_nuisances(
            cohort.h[fit_idx], z[fit_idx], y[fit_idx], cohort.h[est_idx],
            method="binned",
        )
        rep = pliv(z[est_idx], y[est_idx], queues[est_idx], theta[est_idx], alpha, nuis)
        assert abs(rep.point - PSI) <= 5 * rep.se


# ---------------------------------------------------------------------------
# LATE decomposition
# ---------------------------------------------------------------------------


def tiny_instance(n, k, beta, seed, tau=1):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    cohort = Cohort(
        h=rng.uniform(0.1, 0.9, size=n),
        arrival=rng.uniform(0.0, tau, size=n),
        y0=rng.uniform(0.0, 1.0, size=n),
        y1=rng.uniform(0.0, 1.0, size=n),
        tau=tau,
        dgp_tag="partially_linear",
    )
    theta = rng.dirichlet(np.ones(k), size=n)
    spec = QueueSpec.auto(n=n, k=k, p=np.full(k, 1.0 / k), beta=beta, tau=tau)
    return cohort, theta, spec


class TestLateDecomposition:
    def test_three_unit_symmetric_instance(self):
        n = 3
        rng = np.random.default_rng(18)
        delta = np.array([0.3, -0.1, 0.25])
        y0 = rng.uniform(0.1, 0.6, size=n)
        cohort = Cohort(
            h=np.full(n, 0.5),
            arrival=np.array([0.2, 0.5, 0.8]),
            y0=y0,
            y1=y0 + delta,
            tau=1,
            dgp_tag="partially_linear",
        )
        theta = rct_theta(n)
        spec = QueueSpec.auto(n=n, k=2, p=(0.5, 0.5), beta=1.0 / 3.0, tau=1)
        oracle = exact_oracle(theta, spec)
        late = late_decomposition(oracle, cohort)
        # forced-queue propensities are 7/12 and 1/12, so every unit is a
        # (1, 2)-complier with probability exactly 1/2
        assert np.allclose(late.complier_prob[0], 0.5, atol=1e-12)
        # identical weights across units: the weighted average is the plain
        # mean effect, and the IV ratio agrees to floating-point accuracy
        assert late.weighted_average == pytest.approx(delta.mean(), abs=1e-12)
        assert late.iv_ratio == pytest.approx(late.weighted_average, abs=1e-10)

    def test_random_instances_identity_and_complier_margins(self):
        trials = 0
        for seed in range(40):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 14]))
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 4))
            b_total = int(rng.integers(1, n))
            cohort, theta, spec = tiny_instance(n, k, b_total / n, seed)
            oracle = exact_oracle(theta, spec)
            try:
                late = late_decomposition(oracle, cohort)
            except ValueError as err:
                assert "degenerate" in str(err)
                continue
            trials += 1
            assert abs(late.iv_ratio - late.weighted_average) <= 1e-10
            qc = oracle.table.queue_conditional
            for idx, (ka, kb) in enumerate(late.pairs):
                assert np.allclose(
                    late.complier_prob[idx], qc[:, ka - 1] - qc[:, kb - 1], atol=1e-10
                )
                assert np.all(late.weights[idx] >= 0)
        assert trials >= 20

    def test_requires_world_table(self):
        # 3^7 * 7! = 11M worlds exceed the 2M cap, so no world table is built
        cohort, theta, spec = tiny_instance(7, 3, 0.5, seed=19)
        oracle = exact_oracle(theta, spec)
        assert oracle.worlds is None
        with pytest.raises(ValueError, match="world table"):
            late_decomposition(oracle, cohort)

    def test_saturated_budgets_are_degenerate(self):
        # round(0.99 * 3 + 0.5) = 3: the budget covers every unit
        cohort, theta, spec = tiny_instance(3, 2, 0.99, seed=20)
        oracle = exact_oracle(theta, spec)
        with pytest.raises(ValueError, match="degenerate"):
            late_decomposition(oracle, cohort)

    def test_monotonicity_violation_is_a_hard_error(self):
        # hand-built world table that treats under queue 2 but not queue 1
        table = PropensityTable(
            queue_conditional=np.array([[0.5, 0.5]]),
            marginal=np.array([0.5]),
            theta=np.array([[0.5, 0.5]]),
        )
        worlds = WorldTable(
            zmap=np.array([[[False, True]]]),
            probs=np.array([1.0]),
            config_idx=np.array([0]),
            configs=np.array([[1]]),
        )
        cohort = Cohort(
            h=np.array([0.5]),
            arrival=np.array([0.5]),
            y0=np.array([0.2]),
            y1=np.array([0.6]),
            tau=1,
            dgp_tag="partially_linear",
        )
        with pytest.raises(ValueError, match="monotonicity"):
            late_decomposition(ExactOracle(table=table, worlds=worlds), cohort)


# ---------------------------------------------------------------------------
# variance formulas
# ---------------------------------------------------------------------------


class TestVarianceFormulas:
    def test_dr_formula_balanced_design(self):
        # pi = 1/2 everywhere with equal arm variances v gives 4v exactly
        n = 64
        theta = rct_theta(n)
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        v = 0.11
        out = variance_dr_formula(
            theta, alpha, var1=np.full(n, v), var0=np.full(n, v), cate=np.full(n, PSI)
        )
        assert out == pytest.approx(4 * v, abs=1e-12)

    def test_dr_formula_includes_effect_heterogeneity(self):
        n = 64
        h = np.linspace(0.2, 0.8, n)
        theta = rct_theta(n)
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        flat = variance_dr_formula(theta, alpha, var1=np.zeros(n), var0=np.zeros(n), cate=h)
        assert flat == pytest.approx(np.var(h), abs=1e-12)

    def test_dr_formula_boundary_error(self):
        n = 8
        theta = np.zeros((n, 2))
        theta[:, 0] = 1.0
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        with pytest.raises(BoundaryPropensity, match="boundary"):
            variance_dr_formula(
                theta, alpha, var1=np.ones(n), var0=np.ones(n), cate=np.zeros(n)
            )

    def test_pliv_formula_balanced_design(self):
        # theta = (1/2, 1/2), alpha = (1, 0), sigma = 1: E[zeta^2] = 1/4, V = 4
        n = 32
        theta = rct_theta(n)
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        out = variance_pliv_formula(theta, alpha, sigma=np.ones(n))
        assert out == pytest.approx(4.0, abs=1e-12)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_pliv_formula_scales_linearly_in_sigma(self, scale):
        n = 16
        rng = np.random.default_rng(21)
        h = rng.uniform(0.2, 0.8, size=n)
        theta = rng.dirichlet(np.ones(3), size=n)
        alpha = alpha_vector(0.4, np.array([0.3, 0.4, 0.3]))
        sig = 0.5 + h**2
        base = variance_pliv_formula(theta, alpha, sigma=sig)
        scaled = variance_pliv_formula(theta, alpha, sigma=scale * sig)
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    def test_pliv_formula_deterministic_policy_error(self):
        n = 8
        theta = np.zeros((n, 2))
        theta[:, 1] = 1.0
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        with pytest.raises(RelevanceError, match="relevance"):
            variance_pliv_formula(theta, alpha, sigma=np.ones(n))

    def test_inverse_sigma_weighting_is_optimal(self):
        # sandwich variance of any other instrument weighting is larger
        rng = np.random.default_rng(22)
        n = 200
        h = rng.uniform(0.15, 0.85, size=n)
        theta = rng.dirichlet(np.ones(2), size=n)
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        sig = 0.5 + h**2
        v_opt = variance_pliv_formula(theta, alpha, sigma=sig)
        a = alpha.alpha
        pi = theta @ a
        s = np.einsum("ik,ik->i", theta, (a[None, :] - pi[:, None]) ** 2)
        for _ in range(20):
            w = np.exp(rng.normal(size=n))  # arbitrary positive weights
            v_w = np.mean(w**2 * s * sig) / np.mean(w * s) ** 2
            assert v_w + 1e-12 >= v_opt
        # and the optimal weights attain it
        w = 1.0 / sig
        v_w = np.mean(w**2 * s * sig) / np.mean(w * s) ** 2
        assert v_w == pytest.approx(v_opt, rel=1e-9)


# ---------------------------------------------------------------------------
# multiplier bootstrap
# ---------------------------------------------------------------------------


class TestMultiplierBootstrap:
    def test_default_rep_count(self):
        params = inspect.signature(multiplier_bootstrap).parameters
        assert params["reps"].default == 10_000

    def test_degenerate_influence_zero_width(self):
        out = multiplier_bootstrap(np.full(100, 0.42), reps=500, seed=0)
        assert out.ci_low == pytest.approx(0.42, abs=1e-12)
        assert out.se <= 1e-15
        assert out.ci_high - out.ci_low <= 1e-15

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        phi = rng.normal(size=300)
        a = multiplier_bootstrap(phi, reps=400, seed=9)
        b = multiplier_bootstrap(phi, reps=400, seed=9)
        c = multiplier_bootstrap(phi, reps=400, seed=10)
        assert a == b
        assert a != c

    def test_chunking_matches_single_draw(self):
        # n large enough to force several chunks; the multiplier stream must
        # be identical to drawing the whole (reps, n) matrix at once
        rng = np.random.default_rng(24)
        phi = rng.normal(size=3_000)
        out = multiplier_bootstrap(phi, reps=1_500, seed=11)
        ref_rng = np.random.default_rng(np.random.SeedSequence([11, 3]))
        xi = ref_rng.standard_normal((1_500, 3_000))
        ref = xi @ (phi - phi.mean()) / 3_000
        assert out.se == pytest.approx(ref.std(ddof=1), rel=1e-12)
        lo, hi = np.quantile(ref, [0.025, 0.975])
        assert out.ci_low == pytest.approx(phi.mean() + lo, abs=1e-15)
        assert out.ci_high == pytest.approx(phi.mean() + hi, abs=1e-15)

    def test_matches_clt_scale(self):
        rng = np.random.default_rng(25)
        phi = rng.normal(size=2_000)
        out = multiplier_bootstrap(phi, reps=4_000, seed=12)
        target = phi.std(ddof=1) / np.sqrt(2_000)
        assert out.se == pytest.approx(target, rel=0.1)
        assert out.ci_high - out.ci_low == pytest.approx(2 * 1.96 * target, rel=0.1)

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError, match="reps"):
            multiplier_bootstrap(np.ones(10), reps=0)
