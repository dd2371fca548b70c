"""Experiment drivers: row schemas, determinism, and statistical sanity.

These run on deliberately tiny cohorts; the statistically demanding runs
live in the acceptance suite.
"""

import dataclasses
import inspect
import os
import re

import numpy as np
import pytest

from queuedesign import experiments
from queuedesign.cohorts import generate_cohort, outcome_variances, residual_variance
from queuedesign.config import ConfigError, config_from_dict
from queuedesign.errors import PositivityError, RelevanceError, RunFailure
from queuedesign.estimation import (
    SIGMA_FLOOR,
    instrument_information,
    oracle_nuisances,
    variance_dr_formula,
)
from queuedesign.mechanism import QueueSpec, allocate, sample_queues
from queuedesign.policies import rct_policy
from queuedesign.propensity import alpha_vector


def small_pareto_config(**overrides):
    data = {
        "cohort": {"n": 300, "psi": -0.1},
        "design": {"c_grid_size": 4, "switch_strengths": [0.5], "greedy_scales": [1.0]},
        "estimation": {"bootstrap_reps": 400},
        "execution": {"seed": 3},
    }
    for block, vals in overrides.items():
        data.setdefault(block, {}).update(vals)
    return config_from_dict(data)


class TestRunPareto:
    def test_row_schema_and_methods(self):
        frontier, bands = experiments.run_pareto(small_pareto_config())
        assert len(frontier) == 4 + 1 + 1 + 1  # grid + rct + switch + greedy
        assert len(bands) == len(frontier)
        methods = [r[0] for r in frontier]
        assert methods[:4] == ["optimized"] * 4
        assert set(methods[4:]) == {"rct", "switch", "greedy"}
        for row in frontier:
            assert len(row) == len(experiments.FRONTIER_COLUMNS)
            assert row[-1] in {"ok", "infeasible", "boundary_propensity", "relevance_error"}

    @pytest.mark.parametrize("objective, status", [
        ("exogenous", "boundary_propensity"),
        ("endogenous", "relevance_error"),
    ])
    def test_top_floor_row_reads_its_failure_type(self, objective, status):
        # the top floor admits only the assortative policy: its propensities
        # sit on {0, 1} and its queue instrument has no variance
        frontier, bands = experiments.run_pareto(
            small_pareto_config(design={"objective": objective})
        )
        top = max((i for i, r in enumerate(frontier) if r[0] == "optimized"),
                  key=lambda i: frontier[i][1])
        inf = float("inf")
        assert frontier[top][-1] == status
        assert frontier[top][3:6] == (inf, inf, inf)
        assert bands[top][2:] == (inf, inf)

    def test_first_grid_point_matches_rct(self):
        frontier, _ = experiments.run_pareto(small_pareto_config())
        optimized0 = frontier[0]
        rct = next(r for r in frontier if r[0] == "rct")
        # both sit at the utility floor of the uniform policy
        assert optimized0[2] == pytest.approx(rct[2], abs=1e-4)
        assert optimized0[3] == pytest.approx(rct[3], rel=1e-3)

    def test_variance_proxy_nondecreasing_over_grid(self):
        frontier, _ = experiments.run_pareto(small_pareto_config())
        grid = [r for r in frontier if r[0] == "optimized" and r[-1] == "ok"]
        proxies = [r[3] for r in grid]
        assert all(b >= a - 1e-9 for a, b in zip(proxies, proxies[1:]))

    def test_bands_bracket_proxy(self):
        frontier, bands = experiments.run_pareto(small_pareto_config())
        for row, band in zip(frontier, bands):
            assert band[0] == row[0] and band[1] == row[1]
            if row[-1] == "ok":
                assert band[2] <= row[3] <= band[3]

    def test_endogenous_lens(self):
        frontier, _ = experiments.run_pareto(
            small_pareto_config(design={"objective": "endogenous"})
        )
        grid = [r for r in frontier if r[0] == "optimized" and r[-1] == "ok"]
        proxies = [r[3] for r in grid]
        assert all(np.isfinite(p) and p > 0 for p in proxies)
        assert all(b >= a - 1e-9 for a, b in zip(proxies, proxies[1:]))

    @pytest.mark.parametrize("objective", ["exogenous", "endogenous"])
    def test_rct_proxy_is_the_estimator_variance(self, objective):
        cfg = small_pareto_config(design={"objective": objective})
        frontier, _ = experiments.run_pareto(cfg)
        rct = next(r for r in frontier if r[0] == "rct")
        n, psi = cfg.cohort.n, cfg.cohort.psi
        beta, p = cfg.mechanism.beta, np.asarray(cfg.mechanism.p)
        h = generate_cohort(n, cfg.cohort.tau, psi, seed=cfg.execution.seed).h
        theta = rct_policy(n, p)
        alpha = alpha_vector(beta, p)
        if objective == "exogenous":
            var1, var0 = outcome_variances("bernoulli", psi, h)
            expected = variance_dr_formula(theta, alpha, var1, var0, np.full(h.shape, psi))
        else:
            sigma = np.maximum(residual_variance("bernoulli", psi, h, beta), SIGMA_FLOOR)
            expected = 1.0 / np.mean(instrument_information(theta, alpha, sigma))
        assert rct[3] == expected

    def test_explicit_c_grid(self):
        cfg = small_pareto_config(design={"c_grid": [0.16, 0.17]})
        frontier, _ = experiments.run_pareto(cfg)
        optimized = [r for r in frontier if r[0] == "optimized"]
        assert [r[1] for r in optimized] == [0.16, 0.17]

    def test_deterministic(self):
        a = experiments.run_pareto(small_pareto_config())
        b = experiments.run_pareto(small_pareto_config())
        assert a == b

    def test_unconverged_solve_keeps_its_numbers_under_its_status(self, monkeypatch):
        cfg = small_pareto_config()
        frontier, _ = experiments.run_pareto(cfg)
        sweep = experiments.pareto_sweep

        def unconverged_sweep(*args, **kwargs):
            return [
                sol if sol is None else dataclasses.replace(sol, converged=False)
                for sol in sweep(*args, **kwargs)
            ]

        monkeypatch.setattr(experiments, "pareto_sweep", unconverged_sweep)
        patched, _ = experiments.run_pareto(cfg)
        expected = ["not_converged" if (r[0], r[-1]) == ("optimized", "ok") else r[-1]
                    for r in frontier]
        assert "not_converged" in expected
        assert [r[-1] for r in patched] == expected
        for row, new in zip(frontier, patched):
            if new[-1] == "not_converged":
                assert new[:-1] == row[:-1]


class TestRunBias:
    def bias_config(self, threads=1, reps=24):
        return config_from_dict({
            "cohort": {"n": 250, "psi": -0.1, "dgp": "partially_linear"},
            "design": {"bias_arms": [[0.6, 0.0], [0.6, 0.6]]},
            "execution": {"seed": 5, "bias_replications": reps, "threads": threads},
        })

    def test_rows_and_ordering(self):
        rows = experiments.run_bias(self.bias_config())
        assert len(rows) == 4  # 2 arms x 2 estimators
        assert [r[2] for r in rows] == [
            "pliv_endogenous", "dr_exogenous", "pliv_endogenous", "dr_exogenous",
        ]
        assert rows[0][0] == "0.6/0.4"
        # higher floor arm reports a strictly larger c
        assert rows[2][1] > rows[0][1]
        for r in rows:
            assert r[5] <= 24 and r[5] >= 0

    def test_thread_count_does_not_change_results(self):
        serial = experiments.run_bias(self.bias_config(threads=1))
        pooled = experiments.run_bias(self.bias_config(threads=2))
        assert serial == pooled

    @pytest.mark.parametrize("threads, reps, cpus, workers, chunk", [
        (5000, 24, 4, 4, 1),     # no more workers than CPUs
        (5000, 3, 64, 3, 1),     # nor than replications
        (3, 100, 8, 3, 4),       # the chunk follows the clamped count
        (5000, 24, 1, None, None),  # one usable worker runs inline
    ])
    def test_pool_is_clamped_to_cpus_and_replications(
        self, monkeypatch, threads, reps, cpus, workers, chunk
    ):
        # a pool forks all its workers at the first task; the fake starts none
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                started.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        cfg = self.bias_config(threads=threads, reps=reps)
        serial = experiments.run_bias(self.bias_config(reps=reps))
        assert experiments.run_bias(cfg) == serial
        assert started == ([] if workers is None else [workers, chunk] * 2)  # two arms

    @pytest.mark.parametrize("threads", [1, 8])
    def test_map_without_sched_getaffinity(self, monkeypatch, threads):
        # os.sched_getaffinity exists only on some platforms (Linux);
        # elsewhere the CPU count bounds the pool
        import concurrent.futures

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)

        def worker(rep):
            return experiments._CONTEXT["base"] + rep * rep

        got = experiments._map_indexed(worker, 5, threads, {"base": 3})
        assert got == [3 + rep * rep for rep in range(5)]

    def test_dr_bias_positive_under_confounding(self):
        # high-noise units arrive first and get served: DR inflates upward
        rows = experiments.run_bias(self.bias_config(reps=60))
        dr = [r for r in rows if r[2] == "dr_exogenous"]
        for r in dr:
            assert r[3] > 3 * r[4]

    def test_alpha_sweep_shares_common_floor(self):
        cfg = config_from_dict({
            "cohort": {"n": 250, "psi": -0.1, "dgp": "partially_linear"},
            "design": {"bias_arms": [[0.6, 0.7], [0.95, 0.7]]},
            "execution": {"seed": 5, "bias_replications": 8},
        })
        rows = experiments.run_bias(cfg)
        assert rows[0][1] == pytest.approx(rows[2][1], abs=1e-12)

    def test_failed_estimate_is_nan_and_uncounted(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RelevanceError("reworded")

        monkeypatch.setattr(experiments, "estimate_pliv", fail)
        rows = experiments.run_bias(self.bias_config())
        for r in rows:
            if r[2] == "pliv_endogenous":
                assert np.isnan(r[3]) and r[5] == 0
            else:
                assert np.isfinite(r[3]) and r[5] == 24

    def test_programming_error_is_not_swallowed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("shape mismatch")

        monkeypatch.setattr(experiments, "estimate_pliv", fail)
        with pytest.raises(ValueError, match="shape mismatch"):
            experiments.run_bias(self.bias_config())

    def test_requires_two_queues(self):
        cfg = config_from_dict({
            "cohort": {"n": 100, "dgp": "partially_linear"},
            "mechanism": {"k": 3, "p": [0.4, 0.3, 0.3]},
            "execution": {"bias_replications": 4},
        })
        with pytest.raises(ConfigError, match=r"mechanism\.k.*k=2"):
            experiments.run_bias(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"cohort": {"n": 100}}, "cohort.dgp"),  # bernoulli, the default
        ({"mechanism": {"mode": "rationed", "alpha_target": [0.9, 0.1]}},
         "mechanism.alpha_target"),
    ])
    def test_keys_the_study_ignores_are_refused(self, extra, key):
        # the study draws partially linear cohorts and rations at each arm's
        # alpha target whatever these keys say, so they are errors, not no-ops
        cfg = config_from_dict({
            "cohort": {"n": 100, "dgp": "partially_linear"},
            "execution": {"bias_replications": 4},
            **extra,
        })
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            experiments.run_bias(cfg)

    @pytest.mark.parametrize("reps", [3, 24])
    def test_oracle_nuisances_built_once_per_design_and_arm(self, monkeypatch, reps):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return oracle_nuisances(*args, **kwargs)

        monkeypatch.setattr(experiments, "oracle_nuisances", counting)
        experiments.run_bias(self.bias_config(reps=reps))
        assert len(calls) == 2 * 2  # two designs, two arms
        assert all(args[1] == "partially_linear" for args in calls)

    def test_infeasible_alpha_top_rejected(self):
        cfg = config_from_dict({
            "cohort": {"n": 100, "dgp": "partially_linear"},
            "mechanism": {"beta": 0.2},
            "design": {"bias_arms": [[0.6, 0.0]]},
            "execution": {"bias_replications": 4},
        })
        with pytest.raises(ConfigError, match=r"design\.bias_arms.*budget identity"):
            experiments.run_bias(cfg)


class TestRunPropensityCheck:
    def test_rows_and_convergence_direction(self):
        cfg = config_from_dict({
            "cohort": {"n": 400},
            "mechanism": {"k": 3, "p": [1 / 3, 1 / 3, 1 / 3]},
            "execution": {
                "seed": 2, "n_grid": [200, 400], "propensity_reps": 60,
                "treated_mass_reps": 12,
            },
        })
        rows = experiments.run_propensity_check(cfg)
        assert len(rows) == 6  # 2 n values x 3 queues
        for n, k, pi_t, a_k, dev, mass, limit in rows:
            assert dev == pytest.approx(abs(pi_t - a_k), abs=1e-12)
            assert 0.0 <= mass <= 1.0
        # water-filling limits for K=3, beta=0.5, uniform p
        assert [r[3] for r in rows[:3]] == pytest.approx([1.0, 0.5, 0.0])
        assert [r[6] for r in rows[:3]] == pytest.approx([1 / 3, 0.5, 0.5])

    def test_rationed_limits_use_alpha_shares(self):
        cfg = config_from_dict({
            "mechanism": {"mode": "rationed", "alpha_target": [0.6, 0.4]},
            "execution": {"n_grid": [200], "propensity_reps": 30, "treated_mass_reps": 8},
        })
        rows = experiments.run_propensity_check(cfg)
        assert [r[6] for r in rows] == pytest.approx([0.3, 0.5])


class TestRunEstimate:
    def test_all_estimators_ok_on_rct(self):
        cfg = config_from_dict({
            "cohort": {"n": 500},
            "execution": {"seed": 4},
        })
        rows = experiments.run_estimate(cfg)
        assert [r[0] for r in rows] == ["dr_ate", "pliv", "iv_ratio"]
        for r in rows:
            assert r[-1] == "ok"
            assert np.isfinite(r[1]) and r[2] > 0
            assert r[3] <= r[1] <= r[4]

    def test_degenerate_instrument_is_status_not_crash(self):
        # a single queue has zero instrument spread: IV-type estimators
        # must report a status row, the DR row stays fine
        cfg = config_from_dict({
            "cohort": {"n": 200},
            "mechanism": {"k": 1, "p": [1.0]},
            "execution": {"seed": 4},
        })
        rows = experiments.run_estimate(cfg)
        status = {r[0]: r[-1] for r in rows}
        assert status["dr_ate"] == "ok"
        assert status["pliv"] == "relevance_error"
        assert status["iv_ratio"] == "relevance_error"
        pliv_row = next(r for r in rows if r[0] == "pliv")
        assert np.isnan(pliv_row[1])

    @pytest.mark.parametrize("error, status", [
        (PositivityError("reworded"), "positivity_error"),
        (RelevanceError("reworded"), "relevance_error"),
        (RunFailure("reworded"), "precondition_error"),
    ])
    def test_status_comes_from_the_error_type(self, monkeypatch, error, status):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "estimate_pliv", fail)
        cfg = config_from_dict({"cohort": {"n": 200}, "execution": {"seed": 4}})
        rows = {r[0]: r for r in experiments.run_estimate(cfg)}
        assert rows["pliv"][-1] == status
        assert np.isnan(rows["pliv"][1])
        assert rows["dr_ate"][-1] == rows["iv_ratio"][-1] == "ok"

    def test_untyped_value_error_propagates(self, monkeypatch):
        # a plain ValueError is a programming error, not a status cell
        def fail(*args, **kwargs):
            raise ValueError("instrument relevance failure")

        monkeypatch.setattr(experiments, "estimate_pliv", fail)
        cfg = config_from_dict({"cohort": {"n": 200}, "execution": {"seed": 4}})
        with pytest.raises(ValueError, match="instrument relevance failure"):
            experiments.run_estimate(cfg)

    def test_split_fit_reports_half_sample(self):
        cfg = config_from_dict({
            "cohort": {"n": 400},
            "estimation": {"nuisance_method": "binned"},
            "execution": {"seed": 4},
        })
        dr = experiments.run_estimate(cfg)[0]
        assert dr[0] == "dr_ate"
        assert dr[5] == 200
        assert dr[-1] == "ok"


class TestTypedConfig:
    """The drivers read the config's typed values and cast none of them."""

    @staticmethod
    def spelled_with(number):
        return config_from_dict({
            "cohort": {"n": number(200), "tau": number(2)},
            "estimation": {"bootstrap_reps": number(50)},
            "execution": {
                "seed": number(4), "n_grid": [number(200)], "propensity_reps": number(20),
                "treated_mass_reps": number(4),
            },
        })

    @pytest.mark.parametrize("driver", [
        experiments.run_propensity_check, experiments.run_estimate,
    ], ids=lambda d: d.__name__)
    def test_integral_floats_give_the_rows_of_ints(self, driver):
        as_floats, as_ints = driver(self.spelled_with(float)), driver(self.spelled_with(int))
        assert as_floats == as_ints
        assert [list(map(type, r)) for r in as_floats] == [list(map(type, r)) for r in as_ints]


class TestStreamRegistry:
    def test_constants_are_distinct_and_match_the_docstring(self):
        streams = {
            name: value for name, value in vars(experiments).items()
            if name.startswith("STREAM_")
        }
        assert len(set(streams.values())) == len(streams)
        listed = re.findall(r"^  (\d+) (.*)$", experiments.__doc__, flags=re.MULTILINE)
        live = {int(sid) for sid, what in listed if not what.startswith("retired")}
        retired = {int(sid) for sid, what in listed if what.startswith("retired")}
        assert set(streams.values()) == live
        assert retired == {103}
        # one draw site per stream: each constant is read exactly once
        source = inspect.getsource(experiments)
        for name in streams:
            assert len(re.findall(rf"\b{name}\b", source)) == 2, name


class TestServed:
    def test_draws_on_its_key_then_allocates(self):
        cohort = generate_cohort(400, 2, -0.1, seed=5)
        spec = QueueSpec(k=3, p=np.array([0.5, 0.3, 0.2]), beta=0.4, tau=2,
                         budgets=np.array([80, 80]))
        theta = np.random.default_rng(6).dirichlet(np.ones(3), size=400)
        key = (7, experiments.STREAM_TREATED_MASS_QUEUES, 400, 2)
        trace = experiments._served(cohort, theta, spec, *key)
        rng = np.random.default_rng(np.random.SeedSequence(key))
        ref = allocate(cohort, sample_queues(theta, rng), spec)
        assert np.array_equal(trace.queues, ref.queues)
        assert np.array_equal(trace.treated, ref.treated)
        # every key entry reaches the draw
        for i in range(len(key)):
            other = key[:i] + (key[i] + 1,) + key[i + 1:]
            assert not np.array_equal(
                experiments._served(cohort, theta, spec, *other).queues, trace.queues
            )
