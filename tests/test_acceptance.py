"""Full-scale gate for the package's headline guarantees.

Each test pins one end-to-end behavior at realistic scale and asserts a
wall-clock budget next to the statistical tolerance, so a regression in
either correctness or cost fails loudly.  The endogeneity study is the slow
one: 137-139 s of its 900 s budget on a 2-core Linux VM (Python 3.11.7,
numpy 2.4.6, 2026-10-22, in two full-suite runs pinned to one core).
Everything else finishes within seconds.  The CLI tests run ``python -m queuedesign`` from this checkout's
``src``, so the suite needs no install.

Run the gate alone with:

    PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v
"""

import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from queuedesign.cohorts import Cohort, default_h_law, generate_cohort, outcome_variances
from queuedesign.counterfactual import mc_propensities
from queuedesign.design import (
    DesignProblem,
    feasible_utility_range,
    optimize_endogenous,
    optimize_exogenous,
    pareto_sweep,
)
from queuedesign.errors import RunFailure
from queuedesign.estimation import (
    estimate_dr_ate,
    oracle_nuisances,
    variance_dr_formula,
    variance_pliv_formula,
)
from queuedesign.mechanism import QueueSpec, allocate, sample_queues, treated_mass
from queuedesign.policies import (
    greedy_softmax_policy,
    quantile_assignment,
    rct_policy,
    switch_policy,
)
from queuedesign.propensity import alpha_vector, marginal_propensity

from identification_oracles import exact_oracle, late_decomposition
from test_results import assert_matches_results

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"
PSI = -0.1


def _cli(args):
    # Run this checkout's package under the running interpreter, whatever
    # ``queuedesign`` executable PATH may hold.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "queuedesign", *args],
        capture_output=True, text=True, env=env,
    )


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# queueing asymptotics at scale
# ---------------------------------------------------------------------------


class TestQueueingLimits:
    def test_forced_mc_propensities_match_water_filling(self):
        # Three equal queues under half-capacity: the top queue is always
        # served, the middle one is rationed by the leftover budget, the
        # bottom one starves.  200 forced replications at n=2000 put the MC
        # error near 1e-3, thirty times inside the 0.03 gate.
        start = time.monotonic()
        n, reps = 2000, 200
        p = np.full(3, 1.0 / 3.0)
        alpha = alpha_vector(0.5, p)
        np.testing.assert_allclose(alpha.alpha, [1.0, 0.5, 0.0], atol=1e-12)

        spec = QueueSpec.auto(n, k=3, p=p, beta=0.5, tau=1, mode="strict")
        table = mc_propensities(
            rct_policy(n, p), spec, reps=reps, seed=42, forced=True,
        )
        pi_tilde = table.queue_conditional.mean(axis=0)
        np.testing.assert_allclose(pi_tilde, alpha.alpha, atol=0.03)
        assert time.monotonic() - start < 120.0

    def test_treated_mass_respects_priority_caps(self):
        # Cumulative treated mass through queue k cannot exceed either the
        # population mass of queues 1..k or the budget fraction.
        start = time.monotonic()
        n, reps = 2000, 50
        p = np.full(3, 1.0 / 3.0)
        spec = QueueSpec.auto(n, k=3, p=p, beta=0.5, tau=1, mode="strict")
        theta = rct_policy(n, p)
        mass = np.zeros(3)
        for rep in range(reps):
            cohort = generate_cohort(n, tau=1, psi=PSI, seed=1000 + rep)
            rng = np.random.default_rng(np.random.SeedSequence([43, rep]))
            trace = allocate(cohort, sample_queues(theta, rng), spec)
            mass += treated_mass(trace)
        mass /= reps
        caps = np.minimum(0.5, np.cumsum(p))
        np.testing.assert_allclose(mass, caps, atol=0.02)
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# exact small-instance oracle
# ---------------------------------------------------------------------------


class TestExactOracle:
    def test_iv_ratio_equals_weighted_complier_decomposition(self):
        # The population IV ratio must coincide with the complier-weighted
        # average of pairwise effects on every instance small enough to
        # enumerate exhaustively.
        start = time.monotonic()
        rng = np.random.default_rng(np.random.SeedSequence(77))
        for trial in range(20):
            n = int(rng.integers(2, 6))
            b = int(rng.integers(1, n))
            theta = rng.dirichlet(np.ones(2), size=n)
            cohort = generate_cohort(n, 1, 0.1, seed=trial)
            spec = QueueSpec(
                k=2, p=np.array([0.5, 0.5]), beta=b / n, tau=1,
                budgets=np.array([b]), mode="strict",
            )
            dec = late_decomposition(exact_oracle(theta, spec), cohort)
            assert abs(dec.iv_ratio - dec.weighted_average) <= 1e-10
        assert time.monotonic() - start < 10.0

    def test_symmetric_three_unit_instance_is_closed_form(self):
        # n=3, uniform assignment over two queues, one slot: conditioning on
        # queue 1 gives 1/4*(1/3) + 1/2*(1/2) + 1/4*1 = 7/12, queue 2 wins
        # only when both peers also pick queue 2, 1/12; the marginal is 1/3.
        # The enumerated table sums exact dyadic configuration weights, so
        # the marginal is bitwise 1/3 and the conditionals land within one
        # float spacing of the rational values.
        cohort = generate_cohort(3, 1, 0.1, seed=9)
        theta = np.full((3, 2), 0.5)
        spec = QueueSpec(
            k=2, p=np.array([0.5, 0.5]), beta=1 / 3, tau=1, budgets=np.array([1]), mode="strict"
        )
        table = exact_oracle(theta, spec).table
        target = np.array([7 / 12, 1 / 12])
        assert np.all(np.abs(table.queue_conditional - target) <= np.spacing(target))
        assert np.all(table.marginal == 1 / 3)


# ---------------------------------------------------------------------------
# DR estimator calibration under exogenous arrivals
# ---------------------------------------------------------------------------


class TestDrCalibration:
    def test_unbiased_covered_and_variance_matches_plugin(self):
        # 1000 replications of a half-budget RCT over two queues: the DR
        # point estimate must be centered (realized |bias| is ~0.4 MC SEs),
        # the Wald interval must cover near 95%, and the MC variance must
        # match the influence-function plug-in within 15%.
        start = time.monotonic()
        n, reps, beta = 2000, 1000, 0.5
        p = np.array([0.5, 0.5])
        alpha = alpha_vector(beta, p)
        spec = QueueSpec.auto(n, k=2, p=p, beta=beta, tau=1, mode="strict")
        theta = rct_policy(n, p)
        pi = marginal_propensity(theta, alpha)

        points = np.empty(reps)
        covered = np.empty(reps, dtype=bool)
        plugin = np.empty(reps)
        for rep in range(reps):
            cohort_seed = int(
                np.random.SeedSequence([606, 1, rep]).generate_state(1, np.uint64)[0]
            )
            cohort = generate_cohort(n, 1, PSI, seed=cohort_seed)
            rng = np.random.default_rng(np.random.SeedSequence([606, 2, rep]))
            trace = allocate(cohort, sample_queues(theta, rng), spec)
            z = trace.z.astype(float)
            y = np.where(trace.z, cohort.y1, cohort.y0)
            nuis = oracle_nuisances(cohort.h, cohort.dgp_tag, PSI, pi)
            report = estimate_dr_ate(z, y, pi, nuis)
            points[rep] = report.point
            covered[rep] = report.ci_low <= PSI <= report.ci_high
            h = cohort.h
            var1, var0 = (h + PSI) * (1 - h - PSI), h * (1 - h)
            plugin[rep] = variance_dr_formula(theta, alpha, var1, var0, np.full_like(h, PSI))
        elapsed = time.monotonic() - start

        bias = points.mean() - PSI
        mc_se = points.std(ddof=1) / np.sqrt(reps)
        assert abs(bias) <= 3.0 * mc_se
        assert 0.93 <= covered.mean() <= 0.97
        ratio = points.var(ddof=1) / (plugin.mean() / n)
        assert 0.85 <= ratio <= 1.15
        assert elapsed < 600.0


@pytest.fixture(scope="module", params=["strict", "rationed"])
def optimized_k3(request):
    """(h, theta, spec at a horizon) of an optimized exogenous design at floor 0.5.

    k = 3 equal queues, beta = 0.4, n = 2000 fixed risk scores; strict
    priority, or rationing at the alpha target 0.7/0.4/0.1.  The floor sits
    halfway from the RCT utility to the largest feasible one.  The limit
    alpha does not depend on tau, so one design serves every horizon.
    """
    n, beta = 2000, 0.4
    target = np.array([0.7, 0.4, 0.1]) if request.param == "rationed" else None

    def spec(tau):
        return QueueSpec.auto(n, k=3, p=np.full(3, 1 / 3), beta=beta, tau=tau,
                              mode=request.param, alpha_target=target)

    alpha = spec(1).alpha
    h = default_h_law(np.random.default_rng(np.random.SeedSequence([707, 0])), n)
    c_rct = beta * float(h.mean())
    floor = c_rct + 0.5 * (feasible_utility_range(h, alpha)[1] - c_rct)
    theta = optimize_exogenous(DesignProblem(h, alpha, floor, "exogenous")).policy
    return h, theta, spec


class TestDrCalibrationBeyondRct:
    """The iid efficiency bound holds for optimized designs whose queues
    couple units through the budget, at every review horizon."""

    @pytest.mark.parametrize("tau", [1, 12, 52])
    def test_variance_matches_formula_unbiased_and_covered(self, optimized_k3, tau):
        # 2000 replications redraw the arrivals, both potential outcomes and
        # the queues of fixed units; measured ratios 0.996-1.014, coverage
        # 0.94-0.96 and |bias| under 0.9 MC SEs
        start = time.monotonic()
        h, theta, spec_at = optimized_k3
        n, reps, spec = h.shape[0], 2000, spec_at(tau)
        alpha = spec.alpha
        pi = marginal_propensity(theta, alpha)
        nuis = oracle_nuisances(h, "bernoulli", PSI, pi)
        formula = variance_dr_formula(
            theta, alpha, *outcome_variances("bernoulli", PSI, h), np.full(n, PSI)
        )

        points = np.empty(reps)
        covered = np.empty(reps, dtype=bool)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([707, tau, rep]))
            cohort = Cohort(
                h=h, arrival=rng.uniform(0.0, tau, n), y0=rng.uniform(size=n) < h,
                y1=rng.uniform(size=n) < h + PSI, tau=tau, dgp_tag="bernoulli",
            )
            z = allocate(cohort, sample_queues(theta, rng), spec).z
            report = estimate_dr_ate(z, np.where(z > 0, cohort.y1, cohort.y0), pi, nuis)
            points[rep] = report.point
            covered[rep] = report.ci_low <= PSI <= report.ci_high
        elapsed = time.monotonic() - start

        assert 0.9 <= points.var(ddof=1) / (formula / n) <= 1.1
        assert abs(points.mean() - PSI) <= 3.0 * points.std(ddof=1) / np.sqrt(reps)
        assert 0.93 <= covered.mean() <= 0.97
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# endogeneity bias study (shipped configs, run through the CLI)
# ---------------------------------------------------------------------------


class TestEndogeneityStudy:
    def _run_bias(self, config_name, out_dir):
        result = _cli([
            "bias", "--config", str(CONFIG_DIR / config_name), "--out", str(out_dir),
        ])
        assert result.returncode == 0, result.stderr or result.stdout
        assert_matches_results(Path(config_name).stem, out_dir)
        rows = _read_csv(out_dir / "bias.csv")
        for row in rows:
            row["c_level"] = float(row["c_level"])
            row["mean_bias"] = float(row["mean_bias"])
            row["mc_se"] = float(row["mc_se"])
            row["replications"] = int(row["replications"])
            assert row["replications"] >= 9900
        return rows

    def test_estimators_separate_by_design(self, tmp_path):
        start = time.monotonic()

        # Floor sweep at a fixed alpha target: the instrument-based
        # estimator stays centered at every utility floor while the
        # exogeneity-assuming DR estimator is far outside its noise at the
        # top floor (realized: |bias|/se of 1.5-2.6 vs ~2e4).
        floor_rows = self._run_bias("bias_endogenous.yaml", tmp_path / "floor")
        pliv = [r for r in floor_rows if r["estimator"] == "pliv_endogenous"]
        assert len(pliv) == 3
        for row in pliv:
            assert abs(row["mean_bias"]) <= 3.0 * row["mc_se"]
        dr = [r for r in floor_rows if r["estimator"] == "dr_exogenous"]
        top = max(dr, key=lambda r: r["c_level"])
        assert abs(top["mean_bias"]) >= 5.0 * top["mc_se"]

        # Alpha sweep at a fixed high floor: as the top queue approaches
        # certain treatment, assignment rather than arrival order decides
        # treatment and the DR confounding bias shrinks monotonically.
        sweep_rows = self._run_bias("bias_dr_sweep.yaml", tmp_path / "sweep")
        dr_sweep = [r for r in sweep_rows if r["estimator"] == "dr_exogenous"]
        assert len(dr_sweep) == 3
        floors = {round(r["c_level"], 9) for r in dr_sweep}
        assert len(floors) == 1  # arms share one absolute utility floor
        magnitudes = [abs(r["mean_bias"]) for r in dr_sweep]
        assert magnitudes[0] >= magnitudes[1] >= magnitudes[2]

        assert time.monotonic() - start < 900.0


# ---------------------------------------------------------------------------
# design optimization
# ---------------------------------------------------------------------------


class TestDesignOptimization:
    def test_optimizers_exact_at_slack_utility_floor(self):
        # With the floor at the RCT utility the uniform policy is optimal
        # for both objectives, so the solved values are known in closed
        # form: E[1/pi + 1/(1-pi)] = 4 at pi = 1/2, and the instrument
        # information bound sum_k p_k alpha_k^2 - beta^2 = 1/4.
        n = 2000
        p = np.array([0.5, 0.5])
        beta = 0.5
        rng = np.random.default_rng(np.random.SeedSequence(17))
        h = default_h_law(rng, n)
        alpha = alpha_vector(beta, p)
        problem = DesignProblem(
            utilities=h, alpha=alpha, utility_floor=beta * float(h.mean()),
            objective="exogenous",
        )

        start = time.monotonic()
        exo = optimize_exogenous(problem)
        exo_elapsed = time.monotonic() - start
        assert abs(exo.objective_value - 4.0) <= 1e-3
        assert np.max(np.abs(exo.policy - p)) <= 1e-4
        assert exo.kkt_residual <= 1e-6
        assert exo_elapsed < 60.0

        start = time.monotonic()
        endo = optimize_endogenous(problem)
        endo_elapsed = time.monotonic() - start
        bound = float(p @ (alpha.alpha ** 2) - beta**2)
        assert endo.objective_value >= bound - 1e-6
        assert endo.kkt_residual <= 1e-6
        assert endo_elapsed < 60.0

    def test_frontier_variance_nondecreasing_in_utility_floor(self):
        # Tightening the utility floor can only shrink the feasible set, so
        # the optimized variance proxy must be monotone along the grid (the
        # deterministic extreme is allowed to be infinite).
        start = time.monotonic()
        n = 2000
        p = np.array([0.5, 0.5])
        beta = 0.5
        rng = np.random.default_rng(np.random.SeedSequence(17))
        h = default_h_law(rng, n)
        alpha = alpha_vector(beta, p)
        c_rct = beta * float(h.mean())
        _, c_hi = feasible_utility_range(h, alpha)
        grid = np.linspace(c_rct, c_hi, 10)

        var1 = (h + PSI) * (1 - h - PSI)
        var0 = h * (1 - h)
        cate = np.full_like(h, PSI)
        sigma = np.maximum(0.04 * h * h / 3.0, 1e-4)

        for objective in ("exogenous", "endogenous"):
            problem = DesignProblem(
                utilities=h, alpha=alpha, utility_floor=c_rct, objective=objective,
            )
            proxies = []
            for c, sol in zip(grid, pareto_sweep(problem, grid)):
                assert sol is not None
                assert sol.achieved_utility >= c - 1e-6
                assert np.max(np.abs(sol.policy.mean(axis=0) - p)) <= 1e-6
                try:
                    if objective == "exogenous":
                        proxy = variance_dr_formula(sol.policy, alpha, var1, var0, cate)
                    else:
                        proxy = variance_pliv_formula(sol.policy, alpha, sigma)
                except RunFailure:
                    proxy = float("inf")
                proxies.append(proxy)
            assert all(b >= a - 1e-9 for a, b in zip(proxies, proxies[1:]))
        assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# heuristic policy contracts
# ---------------------------------------------------------------------------


class TestHeuristicContracts:
    def test_switch_at_zero_strength_is_quantile_assignment(self):
        start = time.monotonic()
        rng = np.random.default_rng(np.random.SeedSequence(5))
        u = rng.uniform(0.0, 1.0, 400)
        p = np.array([0.4, 0.35, 0.25])
        assert np.array_equal(switch_policy(u, p, 0.0), quantile_assignment(u, p))
        assert time.monotonic() - start < 10.0

    def test_switch_two_queue_hand_trace(self):
        # Two units, equal shares, strength 0.4: the high-utility unit sits
        # in queue 1 and moves to queue 2 with probability 0.4*0.5 = 0.2.
        theta = switch_policy(np.array([0.9, 0.1]), np.array([0.5, 0.5]), 0.4)
        assert np.array_equal(theta, np.array([[0.8, 0.2], [0.2, 0.8]]))

    def test_greedy_softmax_fills_columns_and_respects_cap(self):
        start = time.monotonic()
        rng = np.random.default_rng(np.random.SeedSequence(5))
        n = 400
        u = rng.uniform(0.0, 1.0, n)
        p = np.array([0.4, 0.35, 0.25])
        theta = greedy_softmax_policy(u, p, 2.0)
        sums = theta.sum(axis=0)
        np.testing.assert_allclose(sums[:-1], p[:-1] * n, rtol=0, atol=1e-9)
        assert np.all(theta[:, :-1] <= 1.0 + 1e-12)
        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# CLI determinism
# ---------------------------------------------------------------------------


DETERMINISM_CONFIG = {
    "cohort": {"n": 300, "psi": -0.1, "dgp": "partially_linear"},
    "mechanism": {"k": 2, "p": [0.5, 0.5], "beta": 0.5},
    "design": {
        "c_grid_size": 3,
        "switch_strengths": [0.5],
        "greedy_scales": [1.0, 4.0],
        "bias_arms": [[0.6, 0.0], [0.6, 0.5]],
    },
    "estimation": {"bootstrap_reps": 300},
    "execution": {
        "seed": 17,
        "bias_replications": 30,
        "n_grid": [200, 400],
        "propensity_reps": 30,
        "treated_mass_reps": 8,
    },
}

CLI_OUTPUTS = {
    "pareto": ("frontier.csv", "bands.csv"),
    "bias": ("bias.csv",),
    "check-propensity": ("propensity.csv",),
    "estimate": ("estimates.csv",),
}


class TestCliDeterminism:
    def test_reruns_are_byte_identical_at_any_thread_count(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump(DETERMINISM_CONFIG))
        for command, outputs in CLI_OUTPUTS.items():
            produced = []
            for tag, threads in (("a", 1), ("b", 1), ("c", 2)):
                out = tmp_path / command / tag
                result = _cli([
                    command, "--config", str(config), "--out", str(out),
                    "--threads", str(threads),
                ])
                assert result.returncode == 0, result.stderr or result.stdout
                produced.append({name: (out / name).read_bytes() for name in outputs})
            assert produced[0] == produced[1], f"{command}: rerun changed output"
            assert produced[0] == produced[2], f"{command}: thread count changed output"
