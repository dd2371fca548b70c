"""Tests for assignment heuristics and the constrained design optimizers."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from queuedesign import design
from queuedesign.design import (
    DesignProblem,
    _inner_solve,
    _mirror_policy,
    _neg_entropy,
    _phi_functions,
    default_kappa,
    endogenous_objective,
    exogenous_objective,
    feasible_utility_range,
    optimize_endogenous,
    optimize_exogenous,
    pareto_sweep,
)
from queuedesign.errors import InfeasibleFloor, RunFailure
from queuedesign.estimation import variance_dr_formula, variance_pliv_formula
from queuedesign.policies import (
    assortative_policy,
    greedy_softmax_policy,
    quantile_assignment,
    rct_policy,
    switch_policy,
)
from queuedesign.propensity import alpha_from_target, alpha_vector


def random_utilities(n, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 15]))
    return 0.1 + 0.8 * rng.beta(2.0, 5.0, size=n)


def assortative_loop(u, p, best_first):
    """Per-unit reference implementation of ``assortative_policy``."""
    n, k = u.shape[0], p.shape[0]
    order = np.argsort(-(u if best_first else -u), kind="stable")
    edges = np.concatenate([[0.0], n * np.cumsum(p)])
    edges[-1] = float(n)
    theta = np.zeros((n, k))
    for j, unit in enumerate(order):
        lo = np.clip(edges[:-1], j, j + 1)
        hi = np.clip(edges[1:], j, j + 1)
        theta[unit] = np.maximum(hi - lo, 0.0)
    return theta


def tv_distance(a, b):
    return float(np.mean(0.5 * np.abs(a - b).sum(axis=1)))


# ---------------------------------------------------------------------------
# feasible utility range
# ---------------------------------------------------------------------------


class TestFeasibleRange:
    def test_two_unit_example(self):
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        lo, hi = feasible_utility_range(np.array([0.2, 0.8]), alpha)
        assert lo == pytest.approx(0.1, abs=1e-12)
        assert hi == pytest.approx(0.4, abs=1e-12)

    def test_constant_utilities_collapse_to_budget_point(self):
        # any policy with column means p treats a beta fraction on average
        alpha = alpha_vector(0.4, np.array([0.3, 0.7]))
        u = np.full(17, 0.3)
        lo, hi = feasible_utility_range(u, alpha)
        assert lo == pytest.approx(0.4 * 0.3, abs=1e-12)
        assert hi == pytest.approx(0.4 * 0.3, abs=1e-12)

    def test_rct_utility_strictly_inside_for_heterogeneous_u(self):
        u = random_utilities(101, seed=0)
        p = np.array([0.5, 0.5])
        alpha = alpha_vector(0.5, p)
        lo, hi = feasible_utility_range(u, alpha)
        rct = 0.5 * u.mean()
        assert lo < rct < hi

    def test_fractional_boundary_unit_splits(self):
        # n = 3, p = (1/2, 1/2): capacity 1.5 puts the middle unit half/half
        u = np.array([0.9, 0.5, 0.1])
        theta = assortative_policy(u, np.array([0.5, 0.5]), best_first=True)
        assert np.allclose(theta[0], [1.0, 0.0])
        assert np.allclose(theta[1], [0.5, 0.5])
        assert np.allclose(theta[2], [0.0, 1.0])
        assert np.allclose(theta.mean(axis=0), [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# heuristic policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_rct_rows_and_means(self):
        p = np.array([0.2, 0.3, 0.5])
        theta = rct_policy(7, p)
        assert theta.shape == (7, 3)
        assert np.allclose(theta, p[None, :])
        assert np.allclose(theta.mean(axis=0), p, atol=1e-12)

    @pytest.mark.parametrize("best_first", [True, False])
    @pytest.mark.parametrize(
        "p", [[0.37, 0.63], [0.25, 0.45, 0.30], [0.1, 0.4, 0.3, 0.2]]
    )
    def test_assortative_matches_per_unit_loop(self, p, best_first):
        u = np.round(random_utilities(101, seed=6), 2)  # rounding creates ties
        p = np.asarray(p)
        assert np.array_equal(
            assortative_policy(u, p, best_first=best_first),
            assortative_loop(u, p, best_first),
        )

    def test_quantile_assignment_orders_by_utility(self):
        u = np.array([0.9, 0.2, 0.6, 0.4])
        theta = quantile_assignment(u, np.array([0.5, 0.5]))
        # top half by utility (units 0 and 2) into queue 1
        assert np.array_equal(theta[:, 0], [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(theta.sum(axis=1), np.ones(4))

    def test_switch_zero_strength_is_quantile_assignment(self):
        u = random_utilities(37, seed=1)
        p = np.array([0.25, 0.45, 0.30])
        assert np.array_equal(switch_policy(u, p, 0.0), quantile_assignment(u, p))

    def test_switch_hand_trace_two_queues(self):
        u = np.array([0.8, 0.6, 0.3, 0.2])
        theta = switch_policy(u, np.array([0.5, 0.5]), 0.4)
        # queue-1 units move up with probability 0.4 * 0.5/(0.5+0.5) = 0.2
        assert np.allclose(theta[0], [0.8, 0.2], atol=1e-12)
        assert np.allclose(theta[1], [0.8, 0.2], atol=1e-12)
        assert np.allclose(theta[2], [0.2, 0.8], atol=1e-12)
        assert np.allclose(theta[3], [0.2, 0.8], atol=1e-12)

    @pytest.mark.parametrize("strength", [0.2, 0.6, 0.95])
    def test_switch_rows_on_simplex(self, strength):
        u = random_utilities(53, seed=2)
        p = np.array([0.1, 0.4, 0.3, 0.2])
        theta = switch_policy(u, p, strength)
        assert np.all(theta >= 0)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-12)

    def test_switch_renormalizes_oversized_moves(self):
        # a thin middle queue flanked by heavy neighbors: p_up + p_down > 1
        u = np.array([0.9, 0.5, 0.1])
        p = np.array([0.45, 0.10, 0.45])
        theta = switch_policy(u, p, 0.95)
        i = 1  # the middle-utility unit lands in queue 2
        up = 0.95 * p[2] / (p[1] + p[2])
        down = 0.95 * p[0] / (p[0] + p[1])
        assert up + down > 1.0
        assert np.allclose(theta[i], [down / (up + down), 0.0, up / (up + down)])

    def test_switch_strength_range_checked(self):
        with pytest.raises(ValueError, match="switch_strength"):
            switch_policy(np.array([0.5]), np.array([1.0]), 1.0)

    def test_greedy_softmax_column_sums_and_cap(self):
        u = random_utilities(80, seed=3)
        p = np.array([0.3, 0.4, 0.3])
        theta = greedy_softmax_policy(u, p, scale=3.0)
        assert np.allclose(theta.sum(axis=0)[:2], p[:2] * 80, atol=1e-9)
        assert np.all(theta <= 1.0 + 1e-12)
        assert np.all(theta >= -1e-15)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-12)

    def test_greedy_softmax_monotone_in_utility_first_column(self):
        u = np.sort(random_utilities(30, seed=5))
        theta = greedy_softmax_policy(u, np.array([0.4, 0.6]), scale=4.0)
        assert np.all(np.diff(theta[:, 0]) >= -1e-12)

    @staticmethod
    def largest_greedy_scale(u):
        # the largest scale the overflow guard lets through for these utilities
        limit = float(np.log(np.finfo(float).max)) - np.log(2.0 * u.shape[0])
        largest = limit / np.max(u)
        while largest * np.max(u) > limit:
            largest = np.nextafter(largest, 0.0)
        return largest

    def test_greedy_softmax_refuses_an_overflowing_scale(self):
        u = np.array([0.2, 0.5, 0.8])
        p = np.array([0.5, 0.5])
        largest = self.largest_greedy_scale(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.expm1 must not run on it
            with pytest.raises(ValueError, match="greedy scale 1000 overflows"):
                greedy_softmax_policy(u, p, scale=1000.0)
            with pytest.raises(ValueError, match="greedy scale"):
                greedy_softmax_policy(u, p, scale=np.nextafter(largest, np.inf))
            theta = greedy_softmax_policy(u, p, scale=largest)
        # the top unit fills its cap, the next one takes the rest of queue 1
        assert theta[2, 0] == 1.0 and theta[1, 0] == 0.5
        assert np.allclose(theta.mean(axis=0), p)

    def test_greedy_softmax_refuses_a_scale_whose_scores_sum_past_float_max(self):
        # no single score overflows at 709.78 / 0.999, but the two top scores
        # sum to inf: every share would be 0 and column 1 all zero
        u = np.array([0.5, 0.999, 0.999])
        p = np.array([0.5, 0.5])
        largest = self.largest_greedy_scale(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither expm1 nor the sum may overflow
            with pytest.raises(ValueError, match="greedy scale"):
                greedy_softmax_policy(u, p, scale=709.78 / 0.999)
            with pytest.raises(ValueError, match="greedy scale"):
                greedy_softmax_policy(u, p, scale=np.nextafter(largest, np.inf))
            theta = greedy_softmax_policy(u, p, scale=largest)
        assert theta[1, 0] == theta[2, 0] and np.isclose(theta[1, 0], 0.75)
        assert np.allclose(theta.mean(axis=0), p)

    def test_greedy_softmax_parameter_validation(self):
        u = np.array([0.5, 0.6])
        with pytest.raises(ValueError, match="scale"):
            greedy_softmax_policy(u, np.array([0.5, 0.5]), scale=0.0)


# ---------------------------------------------------------------------------
# design problem plumbing
# ---------------------------------------------------------------------------


def make_problem(n=400, beta=0.5, k=2, seed=0, **kwargs):
    p = np.full(k, 1.0 / k)
    alpha = alpha_vector(beta, p)
    u = random_utilities(n, seed)
    defaults = dict(
        utilities=u,
        alpha=alpha,
        utility_floor=float(beta * u.mean()),
        objective="exogenous",
    )
    defaults.update(kwargs)
    return DesignProblem(**defaults)


class TestDesignProblem:
    def test_validation_errors(self):
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        u = random_utilities(10, seed=6)
        with pytest.raises(ValueError, match="objective"):
            DesignProblem(u, alpha, 0.1, objective="both")
        with pytest.raises(ValueError, match="kappa"):
            DesignProblem(u, alpha, 0.1, kappa=-1.0)
        with pytest.raises(ValueError, match="utilities"):
            DesignProblem(np.array([0.0, 0.5]), alpha, 0.1)

    def test_default_kappa_tracks_objective_scale(self):
        prob = make_problem(beta=0.5, k=2)
        assert prob.kappa == pytest.approx(1e-3 * 4.0)
        prob3 = make_problem(beta=0.5, k=3, objective="endogenous")
        assert prob3.kappa == pytest.approx(1e-3 * (5.0 / 12.0 - 0.25))
        assert default_kappa(prob3) == prob3.kappa

    def test_no_uncertainty_bound_parameter_exists(self):
        # constant rescalings of the nuisance bound cancel in the argmin,
        # so the problem statement deliberately has no such knob
        names = {f.name for f in dataclasses.fields(DesignProblem)}
        assert "delta" not in names and "uncertainty" not in " ".join(names)

    def test_negative_entropy_is_the_only_regularizer(self):
        # kappa*R(theta) is a tie-breaker, not a modelling choice: no field
        # or module constant selects among regularizers
        alpha = alpha_vector(0.5, np.array([0.5, 0.5]))
        u = random_utilities(10, seed=6)
        with pytest.raises(TypeError, match="regularizer"):
            DesignProblem(u, alpha, 0.1, regularizer="neg_entropy")
        assert not hasattr(design, "REGULARIZERS")
        assert not hasattr(design, "_project_simplex")


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class TestOptimizeExogenous:
    def test_slack_floor_recovers_uniform_policy(self):
        prob = make_problem(n=400, beta=0.5, k=2)
        sol = optimize_exogenous(prob)
        assert sol.converged
        assert abs(sol.objective_value - 4.0) <= 1e-3
        assert np.max(np.abs(sol.policy - prob.p[None, :])) <= 1e-4
        assert sol.kkt_residual <= 1e-6
        assert sol.lam <= 1e-8

    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    def test_tie_breaking_returns_uniform_rows(self, objective):
        prob = make_problem(n=150, beta=0.5, k=3, objective=objective)
        prob = dataclasses.replace(prob, utility_floor=prob.c_rct - 0.01)
        solver = optimize_exogenous if objective == "exogenous" else optimize_endogenous
        sol = solver(prob)
        assert sol.converged
        assert np.max(np.abs(sol.policy - prob.p[None, :])) <= 1e-4
        assert sol.lam == pytest.approx(0.0, abs=1e-10)

    def test_binding_floor_active_multiplier(self):
        prob = make_problem(n=300, seed=7)
        c_rct, c_max = prob.c_rct, prob.utility_range()[1]
        c = 0.5 * (c_rct + c_max)
        sol = optimize_exogenous(dataclasses.replace(prob, utility_floor=c))
        assert sol.converged
        assert sol.lam > 0
        assert sol.achieved_utility == pytest.approx(c, abs=1e-6)
        assert abs(sol.lam * (c - sol.achieved_utility)) <= 1e-6
        assert sol.objective_value > 4.0

    def test_max_floor_is_near_assortative(self):
        prob = make_problem(n=200, seed=8)
        c_max = prob.utility_range()[1]
        sol = optimize_exogenous(dataclasses.replace(prob, utility_floor=c_max))
        hard = quantile_assignment(prob.utilities, prob.p)
        assert tv_distance(sol.policy, hard) <= 0.05
        base = optimize_exogenous(prob)
        assert sol.objective_value > base.objective_value

    def test_infeasible_floor_raises(self):
        prob = make_problem(n=50, seed=9)
        c_max = prob.utility_range()[1]
        with pytest.raises(InfeasibleFloor, match="infeasible"):
            optimize_exogenous(dataclasses.replace(prob, utility_floor=c_max + 0.01))

    def test_constant_alpha_rejected(self):
        alpha = alpha_vector(0.5, np.array([1.0]))
        u = random_utilities(20, seed=10)
        prob = DesignProblem(u, alpha, 0.1)
        with pytest.raises(ValueError, match="constant|equal"):
            optimize_exogenous(prob)

    def test_deterministic_and_warm_start_agreement(self):
        prob = make_problem(n=250, seed=11)
        c = 0.5 * (prob.c_rct + prob.utility_range()[1])
        prob = dataclasses.replace(prob, utility_floor=c)
        a = optimize_exogenous(prob)
        b = optimize_exogenous(prob)
        assert np.array_equal(a.policy, b.policy)
        warm = optimize_exogenous(prob, x0=np.concatenate([[a.lam], a.nu]))
        assert np.max(np.abs(warm.policy - a.policy)) <= 1e-6


class TestOptimizeEndogenous:
    def test_slack_floor_value_three_queues(self):
        # alpha = (1, 1/2, 0) at uniform thirds: Var(alpha_Q) = 5/12 - 1/4
        prob = make_problem(n=400, beta=0.5, k=3, objective="endogenous")
        sol = optimize_endogenous(prob)
        target = 5.0 / 12.0 - 0.25
        assert sol.converged
        assert sol.objective_value >= target - 1e-6
        assert sol.objective_value <= target + 1e-12
        assert np.max(np.abs(sol.policy - prob.p[None, :])) <= 1e-4
        assert sol.kkt_residual <= 1e-6

    def test_max_floor_kills_randomization(self):
        prob = make_problem(n=200, seed=12, objective="endogenous")
        c_max = prob.utility_range()[1]
        sol = optimize_endogenous(dataclasses.replace(prob, utility_floor=c_max))
        assert 0.0 <= sol.objective_value <= 0.01

    def test_degenerate_alpha_rejected(self):
        alpha = alpha_vector(0.5, np.array([1.0]))
        u = random_utilities(20, seed=13)
        prob = DesignProblem(u, alpha, 0.1, objective="endogenous")
        with pytest.raises(ValueError, match="degenerate"):
            optimize_endogenous(prob)

    def test_binding_floor_kkt(self):
        prob = make_problem(n=300, seed=14, k=3, objective="endogenous")
        c = 0.7 * prob.utility_range()[1] + 0.3 * prob.c_rct
        sol = optimize_endogenous(dataclasses.replace(prob, utility_floor=c))
        assert sol.converged
        assert sol.kkt_residual <= 1e-6
        assert sol.achieved_utility >= c - 1e-6


class TestObjectiveGeometry:
    @given(lam=st.sampled_from([0.25, 0.5, 0.75]), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_convexity_and_concavity(self, lam, seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 16]))
        n, k = 30, 3
        p = np.full(k, 1.0 / k)
        alpha = alpha_vector(0.5, p)
        a = rng.dirichlet(np.ones(k), size=n)
        b = rng.dirichlet(np.ones(k), size=n)
        mix = lam * a + (1 - lam) * b
        exo_mix = exogenous_objective(mix, alpha)
        exo_sum = lam * exogenous_objective(a, alpha) + (1 - lam) * exogenous_objective(
            b, alpha
        )
        assert exo_mix <= exo_sum + 1e-9
        end_mix = endogenous_objective(mix, alpha)
        end_sum = lam * endogenous_objective(a, alpha) + (1 - lam) * endogenous_objective(
            b, alpha
        )
        assert end_mix >= end_sum - 1e-9


# ---------------------------------------------------------------------------
# Pareto sweep
# ---------------------------------------------------------------------------


def oracle_variance_values(h, psi=-0.1):
    var1 = np.clip((h + psi) * (1 - h - psi), 0, None)
    return var1, h * (1 - h), np.full(np.shape(h), psi), (0.4 * h) ** 2 / 12.0


def lens_variance(prob, policy):
    """The objective's estimator variance of one policy, as the frontier
    scores it; inf where the formula has no finite value (the deterministic
    extreme)."""
    var1, var0, cate, sigma = oracle_variance_values(prob.utilities)
    try:
        if prob.objective == "exogenous":
            return variance_dr_formula(policy, prob.alpha, var1, var0, cate)
        return variance_pliv_formula(policy, prob.alpha, sigma)
    except RunFailure:
        return float("inf")


class TestParetoSweep:
    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    def test_variance_lens_nondecreasing(self, objective):
        prob = make_problem(n=300, seed=15, objective=objective)
        c_rct, c_max = prob.c_rct, prob.utility_range()[1]
        grid = np.linspace(c_rct, c_max, 10)
        sols = pareto_sweep(prob, grid)
        assert all(sol is not None for sol in sols)
        lens = [lens_variance(prob, sol.policy) for sol in sols]
        assert np.all(np.diff(lens) >= -1e-9)
        for c, sol in zip(grid, sols):
            assert sol.achieved_utility >= c - 1e-6
            dev = np.abs(sol.policy.mean(axis=0) - prob.p).max()
            assert dev <= 1e-6

    def test_first_point_matches_rct_baseline(self):
        prob = make_problem(n=300, seed=16)
        sols = pareto_sweep(prob, np.array([prob.c_rct]))
        assert sols[0].objective_value == pytest.approx(4.0, abs=1e-3)
        assert np.max(np.abs(sols[0].policy - prob.p[None, :])) <= 1e-4

    def test_sweep_survives_infeasible_points(self):
        prob = make_problem(n=100, seed=17)
        c_rct, c_max = prob.c_rct, prob.utility_range()[1]
        grid = np.array([c_rct, c_max + 0.05, 0.5 * (c_rct + c_max)])
        sols = pareto_sweep(prob, grid)
        assert [sol is None for sol in sols] == [False, True, False]
        assert sols[2].achieved_utility >= grid[2] - 1e-6


# ---------------------------------------------------------------------------
# the inner solve's fast paths return the same bits
# ---------------------------------------------------------------------------


def mirror_policy_axis1(v, kappa):
    """The mirror map with numpy's axis=1 row reductions."""
    x = v / kappa
    x = x - x.max(axis=1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def inner_solve_100_steps(w, alpha, kappa, phi_prime):
    """The per-row bisection with no early exit: always 100 steps."""
    n = w.shape[0]

    def s_of(eta):
        theta = mirror_policy_axis1(w + eta[:, None] * alpha[None, :], kappa)
        return theta, theta @ alpha

    def g(eta):
        _, s = s_of(eta)
        return eta + phi_prime(s)

    lo = np.full(n, -4.0)
    hi = np.full(n, 4.0)
    for _ in range(40):
        need = g(lo) > 0.0
        if not need.any():
            break
        lo[need] *= 4.0
    for _ in range(40):
        need = g(hi) < 0.0
        if not need.any():
            break
        hi[need] *= 4.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    eta = 0.5 * (lo + hi)
    return s_of(eta)


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def mirror_policy_columns(v, kappa):
    """``_mirror_policy`` on an (n, k) v, through its column layout."""
    n, k = v.shape
    out = np.empty((n, k))
    return _mirror_policy(np.ascontiguousarray(v.T), kappa, out, np.empty(n))


class TestInnerSolveBitExact:
    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fixed_point_exit_matches_100_steps(self, objective, k):
        # the key and the queue-share draw the solve no longer reads keep the
        # inputs these cases drew when the regularizer was a parameter
        rng = np.random.default_rng([71, k, len("neg_entropy"), len(objective)])
        exits_early = 0
        for _ in range(6):
            n = int(rng.integers(1, 300))
            rng.dirichlet(np.ones(k))
            alpha = np.sort(rng.uniform(0.0, 1.0, size=k))[::-1]
            if rng.uniform() < 0.3:
                alpha[0], alpha[-1] = 1.0, 0.0  # propensities touching {0, 1}
            kappa = float(10.0 ** rng.uniform(-5.0, -1.0))
            u = rng.uniform(0.1, 0.9, size=n)
            lam = float(rng.exponential(2.0))
            nu = np.append(rng.normal(0.0, 1.0, size=k - 1), 0.0)
            _, phi_prime, offset = _phi_functions(objective, alpha)
            w = lam * u[:, None] * alpha[None, :] + nu[None, :] + offset[None, :]
            w += float(10.0 ** rng.uniform(-2.0, 1.0)) * rng.normal(size=(n, k))
            calls = []

            def counted(s):
                calls.append(1)
                return phi_prime(s)

            theta, s = _inner_solve(w, alpha, kappa, counted)
            ref_calls = len(calls)
            calls.clear()
            ref_theta, ref_s = inner_solve_100_steps(w, alpha, kappa, counted)
            assert same_bits(theta, ref_theta)
            assert same_bits(s, ref_s)
            exits_early += ref_calls < len(calls)
        assert exits_early > 0  # the early exit is exercised, not idle

    @pytest.mark.parametrize("k", range(2, 11))
    def test_columnwise_mirror_map_matches_axis1(self, k):
        rng = np.random.default_rng([72, k])
        rng.dirichlet(np.ones(k))  # unread queue shares; the draw keeps v's inputs
        for scale in (1e-3, 1.0, 50.0):
            v = scale * rng.normal(size=(500, k))
            v[:50, 1] = v[:50, 0]  # tied row maxima
            v[50:60] = 0.0
            v[55:60, 0] = -0.0
            for kappa in (1e-4, 0.013, 2.0):
                assert same_bits(mirror_policy_columns(v, kappa), mirror_policy_axis1(v, kappa))

    def test_neg_entropy_rows(self):
        theta = np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        r = _neg_entropy(theta)
        assert np.all(np.isfinite(r))  # 0 log 0 is 0, not nan
        assert r == pytest.approx([-np.log(4.0), 0.0, -np.log(2.0)], abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_mirror_policy_is_the_regularized_argmin(self, k):
        # each row minimizes kappa*R(theta) - v.theta over the simplex
        rng = np.random.default_rng([75, k])
        n, kappa = 200, 0.05
        v = rng.normal(size=(n, k))
        theta = mirror_policy_columns(v, kappa)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-12)
        best = kappa * _neg_entropy(theta) - np.sum(v * theta, axis=1)
        for _ in range(20):
            other = rng.dirichlet(np.ones(k), size=n)
            value = kappa * _neg_entropy(other) - np.sum(v * other, axis=1)
            assert np.all(best <= value + 1e-12)
        # a small step towards another point of the simplex cannot improve it
        other = rng.dirichlet(np.ones(k), size=n)
        near = 0.999 * theta + 0.001 * other
        assert np.all(best <= kappa * _neg_entropy(near) - np.sum(v * near, axis=1) + 1e-12)

    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    def test_solutions_match_100_step_solver(self, objective, monkeypatch):
        # a whole solve: the scipy outer loop and the Newton polish
        solve = optimize_exogenous if objective == "exogenous" else optimize_endogenous
        prob = make_problem(n=150, k=3, seed=73, objective=objective)
        c = prob.c_rct + 0.4 * (prob.utility_range()[1] - prob.c_rct)
        prob = dataclasses.replace(prob, utility_floor=c)
        fast = solve(prob)
        monkeypatch.setattr(design, "_inner_solve", inner_solve_100_steps)
        slow = solve(prob)
        assert same_bits(fast.policy, slow.policy)
        assert fast.iterations == slow.iterations
        assert fast.lam == slow.lam and same_bits(fast.nu, slow.nu)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_underflow_masking_matches_100_steps(self, k, monkeypatch):
        # a bias-study sized kappa: many softmax lanes sit below exp's
        # underflow and are masked rather than passed to np.exp
        rng = np.random.default_rng([74, k])
        n = 4001
        alpha = np.linspace(0.8, 0.2, k)
        u = rng.uniform(0.1, 0.9, size=n)
        _, phi_prime, offset = _phi_functions("endogenous", alpha)
        w = 0.7 * u[:, None] * alpha[None, :] + offset[None, :]
        w += 0.05 * rng.normal(size=(n, k))
        masked = []
        mirror = design._mirror_policy

        def counting(vt, kappa, *rest):
            x = vt / kappa
            masked.append(np.mean(x - x.max(axis=0) < -746.0))
            return mirror(vt, kappa, *rest)

        monkeypatch.setattr(design, "_mirror_policy", counting)
        theta, s = _inner_solve(w, alpha, 1e-5, phi_prime)
        assert np.mean(masked) >= 0.05
        ref_theta, ref_s = inner_solve_100_steps(w, alpha, 1e-5, phi_prime)
        assert same_bits(theta, ref_theta)
        assert same_bits(s, ref_s)


def phi_prime_counter(phi_prime, calls):
    def counted(s):
        calls.append(1)
        return phi_prime(s)
    return counted


class TestEachPointSolvedOnce:
    """At lambda = 0 the dual solves two rows, and no point is solved twice."""

    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    def test_zero_lambda_two_rows_match_the_full_width_solve(self, objective):
        rng = np.random.default_rng([77, len(objective)])
        p2 = np.array([0.5, 0.5])
        alphas = (
            alpha_vector(0.5, p2),  # strict: alpha = (1, 0)
            alpha_from_target(np.array([0.8, 0.2]), p2),
            alpha_from_target(np.array([0.9, 0.5, 0.2]), np.full(3, 1 / 3)),
        )
        capped = 0
        for alpha in alphas:
            k = alpha.p.shape[0]
            for n in (2, 3, 9, 17, 1000, 32000):
                u = 0.1 + 0.8 * rng.uniform(size=n)
                prob = DesignProblem(
                    utilities=u, alpha=alpha, utility_floor=0.1, objective=objective,
                )
                a = alpha.alpha
                phi, phi_prime, offset = _phi_functions(objective, a)
                for x in (np.zeros(k), np.append(0.0, rng.normal(size=k - 1))):
                    _, _, theta, s = design._dual_state(x, prob, phi, phi_prime, offset)
                    # the full-width solve of the w the dual builds
                    lam, nu = x[0], np.append(x[1:], 0.0)
                    w = lam * u[:, None] * a[None, :] + nu[None, :] + offset[None, :]
                    calls = []
                    ref_theta, ref_s = _inner_solve(
                        w, a, prob.kappa, phi_prime_counter(phi_prime, calls)
                    )
                    assert same_bits(theta, ref_theta), (n, x)
                    assert same_bits(s, ref_s), (n, x)
                    capped += len(calls) > 100
        if objective == "exogenous":
            # w = 0 at alpha = (1, 0) has its root at exactly 0: every lane
            # runs the whole 100-step bisection
            assert capped >= 6

    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    def test_no_solve_evaluates_a_point_twice(self, objective, monkeypatch):
        solve = optimize_exogenous if objective == "exogenous" else optimize_endogenous
        prob = make_problem(n=300, k=3, seed=78, objective=objective)
        c = prob.c_rct + 0.6 * (prob.utility_range()[1] - prob.c_rct)
        prob = dataclasses.replace(prob, utility_floor=c)
        points, asks = [], []
        dual_state = design._dual_state
        minimize = scipy.optimize.minimize

        def counted(x, *rest):
            points.append(x.tobytes())
            return dual_state(x, *rest)

        def asked(fun, x0, **options):
            def fun_asked(x):
                asks.append(x.tobytes())
                return fun(x)
            return minimize(fun_asked, x0, **options)

        monkeypatch.setattr(design, "_dual_state", counted)
        monkeypatch.setattr(scipy.optimize, "minimize", asked)
        sol = solve(prob)
        assert sol.iterations > 0 and len(asks) > 1
        if objective == "endogenous":
            # its line search asks for one point twice: the kept value answers
            assert len(set(asks)) < len(asks)
        # the polish starts where L-BFGS-B stopped, its last point here, and
        # takes that point's kept policy: no point is solved twice
        assert len(set(points)) == len(points)


class TestExpAssumptions:
    """The numpy behaviour the softmax's underflow masking relies on."""

    def test_exp_is_zero_at_and_below_the_mask_threshold(self):
        x = np.concatenate([
            [-746.0, np.nextafter(-746.0, -np.inf), -1e4, -1e308, -np.inf],
            -np.geomspace(746.0, 1e300, 1000),
        ])
        assert np.all(x <= design._EXP_UNDERFLOW)
        assert same_bits(np.exp(x), np.zeros_like(x))

    def test_exp_lane_bits_do_not_depend_on_offset_or_neighbours(self):
        rng = np.random.default_rng(75)
        x = np.concatenate([rng.uniform(-746.0, 0.0, 300), -rng.exponential(1.0, 100), [0.0, -0.0]])
        ref = np.array([np.exp(np.array([v]))[0] for v in x])
        for offset in range(9):
            for fill in (0.0, -1.0, -800.0):  # masked lanes hold 0.0
                buf = np.full(offset + x.size + 9, fill)
                buf[offset:offset + x.size] = x
                assert same_bits(np.exp(buf)[offset:offset + x.size], ref)
