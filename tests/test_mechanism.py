import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuedesign.cohorts import Cohort, generate_bias_cohort, generate_cohort
from queuedesign.mechanism import (
    QueueSpec,
    allocate,
    arrival_periods,
    arrival_ranks,
    make_budgets,
    rationed_shares,
    sample_queues,
    treated_mass_profile,
    validate_policy,
)
from queuedesign.propensity import alpha_from_target, alpha_vector
from queuedesign._bitexact import row_cumsum, stable_ranks


def toy_cohort(arrivals, tau):
    arrivals = np.asarray(arrivals, dtype=float)
    n = arrivals.shape[0]
    return Cohort(
        h=np.full(n, 0.5),
        arrival=arrivals,
        y0=np.zeros(n),
        y1=np.ones(n),
        tau=tau,
        dgp_tag="bernoulli",
    )


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_even_split(self):
        assert make_budgets(100, 0.5, 2).tolist() == [25, 25]

    def test_uneven_remainder_spread_by_cumulative_rounding(self):
        assert make_budgets(100, 0.5, 3).tolist() == [17, 16, 17]

    def test_single_period(self):
        assert make_budgets(20, 0.5, 1).tolist() == [10]

    @given(
        n=st.integers(2, 5000),
        beta=st.floats(0.01, 0.99),
        tau=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_properties(self, n, beta, tau):
        b = make_budgets(n, beta, tau)
        total = int(np.floor(beta * n + 0.5))
        assert b.sum() == total
        assert np.all(b >= 0)
        # cumulative capacity hugs the proportional target within half a slot
        cum = np.cumsum(b)
        target = total * (np.arange(1, tau + 1) / tau)
        assert np.max(np.abs(cum - target)) <= 0.5 + 1e-9

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            make_budgets(100, 1.0, 2)


# ---------------------------------------------------------------------------
# allocation dynamics
# ---------------------------------------------------------------------------


class TestAllocate:
    def test_priority_beats_arrival_order(self):
        # queue-1 units are served even though they arrived later
        cohort = toy_cohort([0.1, 0.2, 0.3, 0.4], tau=1)
        spec = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=1,
                         budgets=np.array([2]))
        trace = allocate(cohort, np.array([2, 1, 2, 1]), spec)
        assert trace.z.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_fifo_within_queue_across_periods(self):
        cohort = toy_cohort([0.2, 0.4, 0.6, 0.8], tau=2)
        spec = QueueSpec(k=1, p=np.array([1.0]), beta=0.5, tau=2,
                         budgets=np.array([1, 1]))
        trace = allocate(cohort, np.ones(4, dtype=int), spec)
        assert trace.treat_period.tolist() == [1, 2, 0, 0]

    def test_saturating_budget_treats_everyone(self):
        cohort = toy_cohort([0.3, 0.7, 0.9], tau=1)
        spec = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.9, tau=1,
                         budgets=np.array([3]))
        trace = allocate(cohort, np.array([1, 2, 2]), spec)
        assert trace.treated.all()

    def test_arrival_tie_broken_by_unit_id(self):
        cohort = toy_cohort([0.5, 0.5, 0.5], tau=1)
        spec = QueueSpec(k=1, p=np.array([1.0]), beta=0.4, tau=1,
                         budgets=np.array([1]))
        trace = allocate(cohort, np.ones(3, dtype=int), spec)
        assert trace.treated.tolist() == [True, False, False]

    def test_late_arrivals_cannot_use_earlier_budget(self):
        # one unit per period; period-1 capacity is wasted, not rolled over
        cohort = toy_cohort([1.5], tau=2)
        spec = QueueSpec(k=1, p=np.array([1.0]), beta=0.5, tau=2,
                         budgets=np.array([1, 0]))
        trace = allocate(cohort, np.ones(1, dtype=int), spec)
        assert not trace.treated.any()

    def test_no_waste_and_budget_feasibility_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = rng.integers(2, 30)
            k = rng.integers(1, 4)
            tau = rng.integers(1, 5)
            arrivals = rng.uniform(0, tau, n)
            budgets = rng.integers(0, 4, tau)
            cohort = toy_cohort(arrivals, tau)
            spec = QueueSpec(
                k=int(k), p=np.full(k, 1.0 / k), beta=0.5, tau=int(tau),
                budgets=budgets.astype(int),
            )
            queues = rng.integers(1, k + 1, n)
            trace = allocate(cohort, queues, spec)
            s = arrival_periods(arrivals, tau)
            served_at = trace.treat_period
            for t in range(1, tau + 1):
                served_t = int((served_at == t).sum())
                waiting_t = int(
                    ((s <= t) & ((served_at == 0) | (served_at >= t))).sum()
                )
                # never over budget, and capacity only idles when nobody waits
                assert served_t <= budgets[t - 1]
                assert served_t == min(budgets[t - 1], waiting_t)
            # nobody served before arriving
            treated = served_at > 0
            assert np.all(served_at[treated] >= s[treated])

    def test_paired_run_monotonicity_in_queue(self):
        # moving one unit to a higher-priority queue never loses it treatment
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = rng.integers(2, 20)
            k = rng.integers(2, 4)
            tau = rng.integers(1, 4)
            arrivals = rng.uniform(0, tau, n)
            budgets = rng.integers(0, 3, tau).astype(int)
            cohort = toy_cohort(arrivals, tau)
            spec = QueueSpec(
                k=int(k), p=np.full(k, 1.0 / k), beta=0.5, tau=int(tau),
                budgets=budgets,
            )
            queues = rng.integers(1, k + 1, n)
            probe = int(rng.integers(0, n))
            z = []
            for q in range(1, k + 1):
                forced = queues.copy()
                forced[probe] = q
                z.append(allocate(cohort, forced, spec).treated[probe])
            # z must be nonincreasing as the forced queue index grows
            assert all(z[j] >= z[j + 1] for j in range(k - 1))


class TestRationed:
    def make_spec(self, n, tau, alpha, p, beta=0.5):
        return QueueSpec.auto(
            n=n, k=len(p), p=np.asarray(p), beta=beta, tau=tau,
            mode="rationed", alpha_target=np.asarray(alpha),
        )

    def test_shares_track_targets_with_carry(self):
        budgets = np.full(10, 6)
        shares = rationed_shares(budgets, np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        assert np.all(shares.sum(axis=1) == 6)
        cum = np.cumsum(shares, axis=0)
        target = np.cumsum(budgets)[:, None] * np.array([0.6, 0.4])
        # memoryless rounding would pin shares at (4, 2) forever; the carry
        # keeps every cumulative allotment within one slot of its target
        assert np.max(np.abs(cum - target)) < 1.0

    def test_calibration_of_realized_service_rates(self):
        n, tau = 2000, 4
        alpha = np.array([0.6, 0.4])
        p = np.array([0.5, 0.5])
        spec = self.make_spec(n, tau, alpha, p)
        theta = np.tile(p, (n, 1))
        rates = np.zeros(2)
        reps = 200
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([123, rep]))
            cohort = generate_cohort(n, tau, psi=0.0, seed=rep + 1)
            queues = sample_queues(theta, rng)
            trace = allocate(cohort, queues, spec)
            for q in (1, 2):
                sel = queues == q
                rates[q - 1] += trace.treated[sel].mean() / reps
        assert np.max(np.abs(rates - alpha)) <= 0.03

    def test_shares_not_transferable(self):
        # queue 2 empty: its share idles even though queue 1 has demand
        cohort = toy_cohort([0.1, 0.2, 0.3, 0.4], tau=1)
        spec = QueueSpec(
            k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=1,
            budgets=np.array([2]), mode="rationed",
            alpha_target=np.array([0.6, 0.4]),
        )
        trace = allocate(cohort, np.ones(4, dtype=int), spec)
        # shares for b=2, w=(0.6, 0.4) are (1, 1); queue 2's slot is wasted
        assert trace.treated.sum() == 1
        assert trace.treated[0]

    def test_alpha_target_consistency_enforced(self):
        with pytest.raises(ValueError, match="alpha_target"):
            QueueSpec(
                k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=1,
                budgets=np.array([2]), mode="rationed",
                alpha_target=np.array([0.9, 0.4]),
            )


class TestSpecDerivedValues:
    """``QueueSpec`` builds alpha and the per-queue capacity table once."""

    P3 = np.array([0.3, 0.3, 0.4])
    TARGET3 = np.array([0.9, 0.5, 0.2])

    def test_alpha_is_the_disciplines_alpha(self):
        strict = QueueSpec.auto(300, k=3, p=self.P3, beta=0.5, tau=4)
        expected = alpha_vector(0.5, self.P3)
        assert strict.alpha.alpha.tobytes() == expected.alpha.tobytes()
        assert strict.alpha.beta == expected.beta
        rationed = QueueSpec.auto(300, k=3, p=self.P3, beta=0.5, tau=4,
                                  mode="rationed", alpha_target=self.TARGET3)
        expected = alpha_from_target(self.TARGET3, self.P3)
        assert rationed.alpha.alpha.tobytes() == expected.alpha.tobytes()
        assert rationed.alpha.beta == expected.beta

    @pytest.mark.parametrize("n, tau", [(300, 1), (301, 6), (2000, 52)])
    def test_rationed_caps_are_the_shares(self, n, tau):
        spec = QueueSpec.auto(n, k=3, p=self.P3, beta=0.5, tau=tau,
                              mode="rationed", alpha_target=self.TARGET3)
        assert np.array_equal(spec.caps, rationed_shares(spec.budgets, self.TARGET3, self.P3))
        assert np.array_equal(spec.caps.sum(axis=1), spec.budgets)

    @pytest.mark.parametrize("n, tau", [(300, 1), (301, 6), (2000, 52)])
    def test_strict_caps_give_every_queue_the_budget(self, n, tau):
        spec = QueueSpec.auto(n, k=3, p=self.P3, beta=0.5, tau=tau)
        assert spec.caps.shape == (tau, 3)
        for q in range(3):
            assert np.array_equal(spec.caps[:, q], spec.budgets)

    @pytest.mark.parametrize("beta, p", [
        (0.5, [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]),
        (0.5, [0.3, 0.3, 0.4]),
        (0.5, [0.5, 0.5]),
    ])
    def test_strict_mass_limit_is_capacity_filling_tiers(self, beta, p):
        # the propensity check writes cumsum(alpha * p) as its mass cap in
        # both modes; in strict mode it is min(beta, c_k) to the bit
        p = np.asarray(p)
        spec = QueueSpec.auto(100, k=p.shape[0], p=p, beta=beta, tau=1)
        mass_limit = np.cumsum(spec.alpha.alpha * p)
        assert mass_limit.tobytes() == np.minimum(beta, np.cumsum(p)).tobytes()


# ---------------------------------------------------------------------------
# policies, queues, profiles
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_rejects_non_simplex_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_policy(np.array([[0.5, 0.4]]))

    def test_sample_queues_matches_policy_frequencies(self):
        theta = np.tile(np.array([0.2, 0.3, 0.5]), (20_000, 1))
        q = sample_queues(theta, 5)
        freq = np.bincount(q, minlength=4)[1:] / 20_000
        assert np.max(np.abs(freq - np.array([0.2, 0.3, 0.5]))) < 0.02

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sample_queues_matches_axis1_draw(self, k):
        # the column-wise cumsum and count draw the same labels as the
        # axis=1 forms, from the same uniforms
        rng = np.random.default_rng([63, k])
        theta = rng.dirichlet(np.ones(k), size=3000)
        theta[:300] = np.eye(k)[rng.integers(0, k, size=300)]
        cum = np.cumsum(theta, axis=1)
        u = np.random.default_rng(7).uniform(size=theta.shape[0])
        expected = np.minimum(1 + (cum < u[:, None]).sum(axis=1), k)
        assert np.array_equal(row_cumsum(theta).view(np.int64), cum.view(np.int64))
        assert np.array_equal(sample_queues(theta, np.random.default_rng(7)), expected)

    def test_sample_queues_deterministic_rows(self):
        theta = np.zeros((5, 3))
        theta[:, 1] = 1.0
        assert np.all(sample_queues(theta, 0) == 2)


def test_treated_mass_profile_cumulative_in_both_axes():
    cohort = toy_cohort([0.5, 0.6, 1.5, 1.7], tau=2)
    spec = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=2,
                     budgets=np.array([1, 1]))
    trace = allocate(cohort, np.array([1, 2, 1, 2]), spec)
    prof = treated_mass_profile(trace, k=2)
    # period 1 serves unit 0 (queue 1); period 2 serves unit 2 (queue 1)
    assert np.allclose(prof[0], [0.25, 0.5])
    assert np.allclose(prof[1], [0.25, 0.5])
    assert np.all(np.diff(prof, axis=0) >= -1e-12)
    assert np.all(np.diff(prof, axis=1) >= -1e-12)


def test_allocate_with_precomputed_ranks():
    # a bias cohort carries its FIFO ranks, which allocate reads in place of
    # ranking the arrivals itself
    cohort = generate_bias_cohort(40, 3, -0.1, seed=64)
    assert cohort.arrival_ranks is not None
    bare = dataclasses.replace(cohort, arrival_ranks=None)
    queues = np.random.default_rng(64).integers(1, 3, size=40)
    for mode, target in (("strict", None), ("rationed", np.array([0.7, 0.3]))):
        spec = QueueSpec.auto(40, k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=3,
                              mode=mode, alpha_target=target)
        given = allocate(cohort, queues, spec)
        assert np.array_equal(given.treat_period, allocate(bare, queues, spec).treat_period)


def test_arrival_ranks_break_ties_by_id():
    ranks = arrival_ranks(np.array([0.3, 0.1, 0.3]))
    assert ranks.tolist() == [1, 0, 2]


def test_arrival_ranks_match_two_key_lexsort():
    # the single-key stable sort must give the (arrival, id) order exactly,
    # including runs of exactly tied arrival times
    rng = np.random.default_rng(61)
    for trial in range(50):
        n = int(rng.integers(1, 300))
        arrival = rng.uniform(0.0, 5.0, size=n)
        if trial % 2:
            arrival = np.round(arrival, 1)  # many exact ties
        else:
            tied = rng.integers(0, n, size=n // 3)
            arrival[tied] = arrival[rng.integers(0, n, size=tied.size)]
        order = np.lexsort((np.arange(n), arrival))
        expected = np.empty(n, dtype=np.int64)
        expected[order] = np.arange(n)
        ranks = arrival_ranks(arrival)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, expected)


class TestStableRanks:
    """The default-sort fast path gives the stable order, or falls back."""

    @staticmethod
    def key_sets():
        rng = np.random.default_rng(62)
        distinct = rng.uniform(-1.0, 1.0, size=2000)
        ties = np.round(rng.uniform(0.0, 5.0, size=2000), 1)
        zeros = rng.choice([-0.0, 0.0, 1.0, -1.0], size=2000)
        nans = rng.uniform(size=2000)
        nans[rng.integers(0, 2000, size=40)] = np.nan
        one_tie = distinct.copy()
        one_tie[1500] = one_tie[7]
        return {"distinct": distinct, "ties": ties, "signed_zeros": zeros,
                "nans": nans, "one_tie": one_tie, "sorted": np.sort(distinct),
                "single": distinct[:1], "empty": distinct[:0]}

    @pytest.mark.parametrize("name", ["distinct", "ties", "signed_zeros", "nans",
                                      "one_tie", "sorted", "single", "empty"])
    def test_matches_numpy_stable_sort(self, name):
        keys = self.key_sets()[name]
        ranks = np.empty(keys.shape[0], dtype=np.int64)
        ranks[np.argsort(keys, kind="stable")] = np.arange(keys.shape[0])
        assert np.array_equal(stable_ranks(keys), ranks)
        assert np.array_equal(arrival_ranks(keys), ranks)
