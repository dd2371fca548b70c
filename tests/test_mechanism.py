import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuedesign.cohorts import Cohort, generate_bias_cohort, generate_cohort
from queuedesign.mechanism import (
    AllocationTrace,
    QueueSpec,
    _serve,
    allocate,
    arrival_periods,
    make_budgets,
    rationed_shares,
    sample_queues,
    treated_mass,
    validate_policy,
)
from queuedesign.propensity import alpha_from_target, alpha_vector
from queuedesign._bitexact import row_cumsum, stable_ranks

from naive_allocation import naive_allocate_rationed, naive_allocate_strict


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
        # period 1 serves unit 0, period 2 unit 1 ahead of the later arrivals
        assert trace.treated.tolist() == [True, True, False, False]

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
            # the per-period checks read the naive loop's periods, whose
            # served set the allocation must reproduce
            served_at = naive_allocate_strict(s, stable_ranks(arrivals), queues, budgets)
            assert np.array_equal(trace.treated, served_at > 0)
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


class TestClosedFormServe:
    """``_serve`` against the naive period loop, over worlds drawn to hit
    every edge of the served-count cuts."""

    EDGES = {"k=1", "tau=1", "zero budget", "queue done early", "empty queue",
             "integer ties"}

    def world(self, rng, mode):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 5))
        tau = int(rng.integers(1, 9))
        arrivals = rng.uniform(0, tau, n)
        if rng.random() < 0.4:
            arrivals = np.floor(arrivals)  # ties, and arrivals on period ends
        queues = rng.integers(1, k + 1, n)
        if k > 1 and rng.random() < 0.2:
            queues[queues == k] = 1  # the last queue stays empty
        budgets = rng.integers(0, 2 * n // tau + 3, tau)
        budgets[rng.random(tau) < 0.2] = 0
        p = np.full(k, 1.0 / k)
        if mode == "strict":
            spec = QueueSpec(k=k, p=p, beta=0.5, tau=tau, budgets=budgets)
        else:
            alpha = np.sort(rng.uniform(0.1, 0.9, k))[::-1]
            if k > 1 and rng.random() < 0.25:
                alpha[-1] = 0.0  # the last queue gets no shares
            spec = QueueSpec(k=k, p=p, beta=float(alpha @ p), tau=tau, budgets=budgets,
                             mode="rationed", alpha_target=alpha)
        return arrivals, queues, spec

    def edges(self, arrivals, queues, spec, tp):
        """Edges this world hits; ``tp`` holds the naive loop's periods."""
        seen = set()
        if spec.k == 1:
            seen.add("k=1")
        if spec.tau == 1:
            seen.add("tau=1")
        if np.any(spec.budgets == 0):
            seen.add("zero budget")
        if np.all(arrivals == np.floor(arrivals)) and len(set(arrivals)) < arrivals.size:
            seen.add("integer ties")
        for q in range(1, spec.k + 1):
            mine = tp[queues == q]
            if mine.size == 0:
                seen.add("empty queue")
            elif np.all(mine > 0) and mine.max() < spec.tau:
                seen.add("queue done early")
            elif spec.caps[:, q - 1].sum() == 0:
                seen.add("zero shares")
        return seen

    @pytest.mark.parametrize("mode", ["strict", "rationed"])
    def test_matches_naive_period_loop(self, mode):
        rng = np.random.default_rng(1952 if mode == "strict" else 1953)
        seen = set()
        for trial in range(300):
            arrivals, queues, spec = self.world(rng, mode)
            s, ranks = arrival_periods(arrivals, spec.tau), stable_ranks(arrivals)
            served = _serve(spec, s, ranks, queues)
            if mode == "strict":
                naive = naive_allocate_strict(s, ranks, queues, spec.budgets)
            else:
                naive = naive_allocate_rationed(s, ranks, queues, spec.caps)
            assert np.array_equal(served, naive > 0), f"trial {trial}"
            # the trace checks per-queue slots and the total budget
            AllocationTrace(queues=queues, treated=served, spec=spec)
            for q in range(1, spec.k + 1):
                # FIFO within queue: every served unit outranks every waiting one
                mine = queues == q
                assert ranks[mine & served].max(initial=-1) < ranks[mine & ~served].min(initial=s.size)
            seen |= self.edges(arrivals, queues, spec, naive)
        assert seen >= self.EDGES | ({"zero shares"} if mode == "rationed" else set())


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

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
    def test_rejects_rows_that_are_not_numbers(self, row):
        # every comparison with NaN is False, so the checks must not pass on one
        with pytest.raises(ValueError, match="policy"):
            validate_policy(np.array([[0.5, 0.5], row]))

    def test_sample_queues_matches_policy_frequencies(self):
        theta = np.tile(np.array([0.2, 0.3, 0.5]), (20_000, 1))
        q = sample_queues(theta, np.random.default_rng(5))
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
        assert np.all(sample_queues(theta, np.random.default_rng(0)) == 2)


def test_treated_mass_cumulative_by_tier():
    cohort = toy_cohort([0.5, 0.6, 1.5, 1.7, 1.8], tau=2)
    spec = QueueSpec(k=3, p=np.full(3, 1 / 3), beta=0.4, tau=2,
                     budgets=np.array([1, 2]))
    trace = allocate(cohort, np.array([1, 2, 1, 2, 3]), spec)
    # period 1 serves unit 0 (queue 1); period 2 serves unit 2 (queue 1),
    # then unit 1, the earlier of the two queue-2 units
    assert trace.treated.tolist() == [True, True, True, False, False]
    assert treated_mass(trace).tolist() == [2 / 5, 3 / 5, 3 / 5]


class TestAllocationTrace:
    """A trace refuses a served set its spec could not have produced."""

    def test_refuses_a_queue_served_beyond_its_slots(self):
        # rationed shares (1, 1): queue 1 has one slot, not two
        spec = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=1,
                         budgets=np.array([2]), mode="rationed",
                         alpha_target=np.array([0.6, 0.4]))
        queues = np.array([1, 2, 1])
        AllocationTrace(queues=queues, treated=np.array([True, True, False]), spec=spec)
        with pytest.raises(ValueError, match="beyond its slots"):
            AllocationTrace(queues=queues, treated=np.array([True, False, True]), spec=spec)

    def test_refuses_service_beyond_the_total_budget(self):
        # strict: each queue may take the whole budget of 1, but not both
        spec = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=1,
                         budgets=np.array([1]))
        queues = np.array([1, 2])
        AllocationTrace(queues=queues, treated=np.array([False, True]), spec=spec)
        with pytest.raises(ValueError, match="total budget"):
            AllocationTrace(queues=queues, treated=np.array([True, True]), spec=spec)


def test_allocate_reads_drawn_ranks_as_built_ones():
    # a bias cohort carries the FIFO ranks its draw made; rebuilt without
    # them, the cohort ranks its arrivals itself, and allocate serves the same
    cohort = generate_bias_cohort(40, 3, -0.1, seed=64)
    bare = dataclasses.replace(cohort, arrival_ranks=None)
    assert np.array_equal(bare.arrival_ranks, cohort.arrival_ranks)
    queues = np.random.default_rng(64).integers(1, 3, size=40)
    for mode, target in (("strict", None), ("rationed", np.array([0.7, 0.3]))):
        spec = QueueSpec.auto(40, k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=3,
                              mode=mode, alpha_target=target)
        given = allocate(cohort, queues, spec)
        assert np.array_equal(given.treated, allocate(bare, queues, spec).treated)


def test_arrival_ranks_break_ties_by_id():
    ranks = stable_ranks(np.array([0.3, 0.1, 0.3]))
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
        ranks = stable_ranks(arrival)
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
