"""Counterfactual machinery vs. brute-force references.

The fast forced-queue map reads every unit's counterfactual off one base
allocation via rank counting and removal cascades; the reference here
re-runs a deliberately naive allocator once per (unit, queue) pair.  The
exact oracle is likewise checked against full enumeration written from
scratch.  Both references are independent reimplementations of the service
discipline, not calls back into the package.
"""

import itertools
import math

import numpy as np
import pytest

from queuedesign.counterfactual import _forced_map, exact_oracle, mc_propensities
from queuedesign.mechanism import QueueSpec, _serve, arrival_periods, arrival_ranks


# ---------------------------------------------------------------------------
# naive reference implementations
# ---------------------------------------------------------------------------


def naive_allocate_strict(s, ranks, queues, budgets):
    n = len(s)
    served = {}
    for t, b in enumerate(budgets, start=1):
        waiting = [i for i in range(n) if s[i] <= t and i not in served]
        waiting.sort(key=lambda i: (queues[i], ranks[i]))
        for i in waiting[: int(b)]:
            served[i] = t
    out = np.zeros(n, dtype=int)
    for i, t in served.items():
        out[i] = t
    return out


def naive_allocate_rationed(s, ranks, queues, shares):
    n = len(s)
    served = {}
    for t in range(1, shares.shape[0] + 1):
        for q in range(1, shares.shape[1] + 1):
            waiting = [
                i for i in range(n) if s[i] <= t and i not in served and queues[i] == q
            ]
            waiting.sort(key=lambda i: ranks[i])
            for i in waiting[: int(shares[t - 1, q - 1])]:
                served[i] = t
    out = np.zeros(n, dtype=int)
    for i, t in served.items():
        out[i] = t
    return out


def naive_forced_map(s, ranks, queues, k, budgets=None, shares=None):
    n = len(s)
    z = np.zeros((n, k), dtype=bool)
    for i in range(n):
        for q in range(1, k + 1):
            forced = queues.copy()
            forced[i] = q
            if shares is None:
                tp = naive_allocate_strict(s, ranks, forced, budgets)
            else:
                tp = naive_allocate_rationed(s, ranks, forced, shares)
            z[i, q - 1] = tp[i] > 0
    return z


def world_spec(rng, mode, k, tau, budgets):
    """Strict spec, or a rationed one at a random decreasing alpha target."""
    p = np.full(k, 1.0 / k)
    if mode == "strict":
        return QueueSpec(k=k, p=p, beta=0.5, tau=tau, budgets=budgets)
    alpha = np.sort(rng.uniform(0.1, 0.9, k))[::-1]
    return QueueSpec(
        k=k, p=p, beta=float(alpha @ p), tau=tau, budgets=budgets,
        mode="rationed", alpha_target=alpha,
    )


def forced_map(spec, s, ranks, queues):
    """Forced map and base allocation of one world, as ``mc_propensities``
    builds them."""
    tp = _serve(spec, s, ranks, queues)
    return _forced_map(s, ranks, queues, tp, spec.caps, cascade=spec.mode == "strict"), tp


def random_instance(rng, mode):
    n = int(rng.integers(2, 13))
    k = int(rng.integers(2, 4))
    tau = int(rng.integers(1, 5))
    # mix continuous arrivals with exact ties to exercise the id tie-break
    arrivals = rng.uniform(0, tau, n)
    if rng.random() < 0.4:
        dup = rng.integers(0, n, size=2)
        arrivals[dup[0]] = arrivals[dup[1]]
    s = arrival_periods(arrivals, tau)
    ranks = arrival_ranks(arrivals)
    queues = rng.integers(1, k + 1, n)
    budgets = rng.integers(0, 4, tau).astype(int)
    return s, ranks, queues, world_spec(rng, mode, k, tau, budgets)


def long_instance(rng, mode):
    """Congested long-horizon world: zero-budget periods and tied arrivals."""
    n = int(rng.integers(20, 61))
    k = int(rng.integers(2, 5))
    tau = int(rng.integers(8, 25))
    arrivals = rng.uniform(0, tau, n)
    tied = rng.integers(0, n, size=n // 4)
    arrivals[tied] = arrivals[rng.integers(0, n, size=tied.size)]
    s = arrival_periods(arrivals, tau)
    ranks = arrival_ranks(arrivals)
    queues = rng.integers(1, k + 1, n)
    # a little under one slot per arrival on average, with idle periods
    budgets = rng.integers(0, 2 * n // tau + 2, tau).astype(int)
    budgets[rng.random(tau) < 0.25] = 0
    return s, ranks, queues, world_spec(rng, mode, k, tau, budgets)


def longest_cascade(s, ranks, queues, t_served):
    """Most hops of a strict-mode removal cascade from any served slot.

    Vacating a slot at period c pulls forward the lowest (queue, rank) unit
    that has arrived by c and is not served by c; if that unit was served
    later, its own slot frees next.
    """
    longest = 0
    for start in sorted(set(t_served[t_served > 0].tolist())):
        hops, c = 0, start
        while True:
            pending = [
                j for j in range(len(s))
                if s[j] <= c and (t_served[j] == 0 or t_served[j] > c)
            ]
            if not pending:
                break
            j = min(pending, key=lambda j: (queues[j], ranks[j]))
            hops += 1
            if t_served[j] == 0:
                break
            c = t_served[j]
        longest = max(longest, hops)
    return longest


# ---------------------------------------------------------------------------
# forced-map equivalence
# ---------------------------------------------------------------------------


def test_forced_map_strict_matches_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(120):
        s, ranks, queues, spec = random_instance(rng, "strict")
        k, budgets = spec.k, spec.budgets
        fast, tp = forced_map(spec, s, ranks, queues)
        assert np.array_equal(tp, naive_allocate_strict(s, ranks, queues, budgets))
        slow = naive_forced_map(s, ranks, queues, k, budgets=budgets)
        assert np.array_equal(fast, slow), (
            f"trial {trial}: s={s}, q={queues}, b={budgets}, ranks={ranks}"
        )


def test_forced_map_rationed_matches_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(120):
        s, ranks, queues, spec = random_instance(rng, "rationed")
        k, shares = spec.k, spec.caps
        fast, tp = forced_map(spec, s, ranks, queues)
        assert np.array_equal(tp, naive_allocate_rationed(s, ranks, queues, shares))
        slow = naive_forced_map(s, ranks, queues, k, shares=shares)
        assert np.array_equal(fast, slow), (
            f"trial {trial}: s={s}, q={queues}, shares={shares}, ranks={ranks}"
        )


def test_forced_map_strict_matches_brute_force_long_horizon():
    rng = np.random.default_rng(2026)
    longest = 0
    for trial in range(20):
        s, ranks, queues, spec = long_instance(rng, "strict")
        k, tau, budgets = spec.k, spec.tau, spec.budgets
        fast, tp = forced_map(spec, s, ranks, queues)
        assert np.array_equal(tp, naive_allocate_strict(s, ranks, queues, budgets))
        slow = naive_forced_map(s, ranks, queues, k, budgets=budgets)
        assert np.array_equal(fast, slow), f"trial {trial}: tau={tau}, b={budgets}"
        longest = max(longest, longest_cascade(s, ranks, queues, tp))
    # the draws must exercise multi-hop cascades, not just one pull-forward
    assert longest >= 3


def test_forced_map_rationed_matches_brute_force_long_horizon():
    rng = np.random.default_rng(2027)
    for trial in range(20):
        s, ranks, queues, spec = long_instance(rng, "rationed")
        k, tau, shares = spec.k, spec.tau, spec.caps
        fast, tp = forced_map(spec, s, ranks, queues)
        assert np.array_equal(tp, naive_allocate_rationed(s, ranks, queues, shares))
        slow = naive_forced_map(s, ranks, queues, k, shares=shares)
        assert np.array_equal(fast, slow), f"trial {trial}: tau={tau}, shares={shares}"


def test_forced_map_is_monotone_in_queue():
    rng = np.random.default_rng(41)
    for _ in range(40):
        s, ranks, queues, spec = random_instance(rng, "strict")
        fast, _ = forced_map(spec, s, ranks, queues)
        assert np.all(np.diff(fast.astype(int), axis=1) <= 0)


# ---------------------------------------------------------------------------
# Monte Carlo propensities
# ---------------------------------------------------------------------------


def small_spec(n=3, k=2, b=1):
    return QueueSpec(
        k=k, p=np.full(k, 1.0 / k), beta=b / n, tau=1, budgets=np.array([b])
    )


def test_forced_mc_agrees_with_exact_oracle_within_noise():
    n = 3
    theta = np.full((n, 2), 0.5)
    spec = small_spec()
    oracle = exact_oracle(theta, spec)
    reps = 4000
    table = mc_propensities(theta, spec, reps=reps, seed=9)
    se = np.sqrt(
        oracle.table.queue_conditional * (1 - oracle.table.queue_conditional) / reps
    )
    assert np.all(
        np.abs(table.queue_conditional - oracle.table.queue_conditional)
        <= 3 * se + 1e-12
    )


def test_saturating_budget_gives_unit_propensities():
    n = 4
    theta = np.full((n, 2), 0.5)
    spec = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.99, tau=1,
                     budgets=np.array([n]))
    table = mc_propensities(theta, spec, reps=50, seed=1)
    assert np.all(table.queue_conditional == 1.0)
    assert np.all(table.marginal == 1.0)


def test_unforced_mc_flags_unvisited_cells():
    n = 5
    theta = np.tile(np.array([0.995, 0.005]), (n, 1))
    spec = small_spec(n=n, k=2, b=2)
    table = mc_propensities(theta, spec, reps=40, seed=5, forced=False)
    assert table.source == "monte_carlo"
    missing = ~np.isfinite(table.queue_conditional[:, 1])
    assert missing.any()
    assert np.all(~np.isfinite(table.marginal[missing]))


def test_cell_cap_guard():
    # 100 * 2 * 2_500_001 cells exceed the 5e8 cap; it raises before any draw
    theta = np.full((100, 2), 0.5)
    spec = small_spec(n=100, k=2, b=50)
    with pytest.raises(ValueError, match="cap"):
        mc_propensities(theta, spec, reps=2_500_001)


def test_forced_mc_deterministic_given_seed():
    theta = np.full((40, 3), 1.0 / 3)
    spec = QueueSpec(k=3, p=np.full(3, 1.0 / 3), beta=0.5, tau=2,
                     budgets=np.array([10, 10]))
    t1 = mc_propensities(theta, spec, reps=25, seed=13)
    t2 = mc_propensities(theta, spec, reps=25, seed=13)
    assert np.array_equal(t1.queue_conditional, t2.queue_conditional)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------


class TestExactOracle:
    def test_three_unit_symmetric_instance_closed_form(self):
        # b=1, K=2, three units, uniform rows: conditioning on queue 1 the
        # unit is served unless a rival lands in queue 1 ahead of it:
        # pi_tilde(1) = 7/12, pi_tilde(2) = 1/12, marginal = 1/3 = b/n.
        theta = np.full((3, 2), 0.5)
        oracle = exact_oracle(theta, small_spec())
        assert np.allclose(oracle.table.queue_conditional[:, 0], 7 / 12, atol=1e-12)
        assert np.allclose(oracle.table.queue_conditional[:, 1], 1 / 12, atol=1e-12)
        assert np.allclose(oracle.table.marginal, 1 / 3, atol=1e-12)

    def test_matches_independent_enumeration_heterogeneous(self):
        rng = np.random.default_rng(15)
        n, k, b = 4, 2, 2
        raw = rng.uniform(0.05, 1.0, size=(n, k))
        theta = raw / raw.sum(axis=1, keepdims=True)
        spec = small_spec(n=n, k=k, b=b)
        oracle = exact_oracle(theta, spec)

        # independent enumeration: sum over the *other* units' queues and
        # all arrival orders, with the probe pinned to its forced queue
        qc = np.zeros((n, k))
        others = [[j for j in range(n) if j != i] for i in range(n)]
        for i in range(n):
            for forced_q in range(1, k + 1):
                total = 0.0
                for rest in itertools.product(range(1, k + 1), repeat=n - 1):
                    config = [0] * n
                    config[i] = forced_q
                    for j, q in zip(others[i], rest):
                        config[j] = q
                    w = math.prod(theta[j, config[j] - 1] for j in others[i])
                    if w == 0.0:
                        continue
                    hits = 0
                    for perm in itertools.permutations(range(n)):
                        order = sorted(range(n), key=lambda j: (config[j], perm[j]))
                        if i in order[:b]:
                            hits += 1
                    total += w * hits / math.factorial(n)
                qc[i, forced_q - 1] = total
        assert np.allclose(oracle.table.queue_conditional, qc, atol=1e-12)

    def test_world_table_reproduces_conditional_propensities(self):
        rng = np.random.default_rng(99)
        n, k = 4, 2
        raw = rng.uniform(0.05, 1.0, size=(n, k))
        theta = raw / raw.sum(axis=1, keepdims=True)
        oracle = exact_oracle(theta, small_spec(n=n, k=k, b=1))
        worlds = oracle.worlds
        qc = np.einsum("w,wik->ik", worlds.probs, worlds.zmap.astype(float))
        assert np.allclose(qc, oracle.table.queue_conditional, atol=1e-12)

    def test_world_monotonicity_exhaustive(self):
        theta = np.full((5, 2), 0.5)
        oracle = exact_oracle(theta, small_spec(n=5, k=2, b=2))
        z = oracle.worlds.zmap.astype(int)
        assert np.all(np.diff(z, axis=2) <= 0)

    def test_realized_z_consistent_with_marginal(self):
        theta = np.full((4, 2), 0.5)
        oracle = exact_oracle(theta, small_spec(n=4, k=2, b=2))
        worlds = oracle.worlds
        zr = worlds.realized_z().astype(float)
        marg = worlds.probs @ zr
        assert np.allclose(marg, oracle.table.marginal, atol=1e-12)

    def test_guards(self):
        theta = np.full((9, 2), 0.5)
        with pytest.raises(ValueError, match="n <= 8"):
            exact_oracle(theta, small_spec(n=9, k=2, b=2))
        theta2 = np.full((3, 2), 0.5)
        spec2 = QueueSpec(k=2, p=np.array([0.5, 0.5]), beta=0.5, tau=2,
                          budgets=np.array([1, 1]))
        with pytest.raises(ValueError, match="single review period"):
            exact_oracle(theta2, spec2)

    def test_alpha_limit_is_exact_for_degenerate_policy(self):
        # with everyone pinned to their queue and b = n*beta the exact
        # conditional propensities collapse to the waterfilling alpha values
        n, k = 6, 3
        theta = np.zeros((n, k))
        theta[:2, 0] = 1.0
        theta[2:4, 1] = 1.0
        theta[4:, 2] = 1.0
        spec = QueueSpec(k=3, p=np.full(3, 1.0 / 3), beta=0.5, tau=1,
                         budgets=np.array([3]))
        oracle = exact_oracle(theta, spec)
        # every world serves exactly b = 3 of the 6 units, so the average
        # marginal propensity must equal beta = 1/2 exactly
        assert abs(oracle.table.marginal.mean() - 0.5) < 1e-12
        # queue-1 probes always beat the 3 slots; queue-3 probes never do
        assert np.all(oracle.table.queue_conditional[:, 0] == 1.0)
