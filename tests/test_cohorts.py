import numpy as np
import pytest
from scipy import stats

from queuedesign.cohorts import Cohort, generate_bias_cohort, generate_cohort
from queuedesign._bitexact import stable_ranks


def test_null_effect_means_agree():
    c = generate_cohort(100_000, 4, psi=0.0, seed=11)
    # Y(1) - Y(0) is mean zero when psi = 0; 3-sigma band on the MC average
    diff = c.y1 - c.y0
    assert abs(diff.mean()) <= 3 * diff.std() / np.sqrt(c.n)


def test_negative_effect_recovered_in_means():
    c = generate_cohort(100_000, 4, psi=-0.1, seed=3)
    diff = c.y1.mean() - c.y0.mean()
    se = np.sqrt(c.y1.var() / c.n + c.y0.var() / c.n)
    assert abs(diff - (-0.1)) <= 3 * se


def test_regeneration_is_bit_identical():
    a = generate_cohort(500, 3, psi=-0.1, seed=42)
    b = generate_cohort(500, 3, psi=-0.1, seed=42)
    for field in ("h", "arrival", "y0", "y1"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    a2 = generate_bias_cohort(500, 3, psi=-0.1, seed=42)
    b2 = generate_bias_cohort(500, 3, psi=-0.1, seed=42)
    assert np.array_equal(a2.arrival, b2.arrival)
    assert np.array_equal(a2.confounder, b2.confounder)


def test_invalid_success_probability_is_refused():
    # default h law reaches up to 0.9, so psi = 0.5 overflows Bern(h + psi)
    with pytest.raises(ValueError, match=r"h \+ psi"):
        generate_cohort(1000, 2, psi=0.5, seed=0)


def test_outcome_variance_matches_binomial_by_h_bin():
    c = generate_cohort(100_000, 4, psi=0.0, seed=19)
    bins = np.quantile(c.h, np.linspace(0, 1, 11))
    which = np.clip(np.digitize(c.h, bins[1:-1]), 0, 9)
    for b in range(10):
        sel = which == b
        m = c.h[sel].mean()
        target = m * (1 - m)
        v = c.y0[sel].var(ddof=1)
        # normal-approximation SE of the sample variance within the bin
        se = np.sqrt(np.var((c.y0[sel] - m) ** 2) / sel.sum())
        assert abs(v - target) <= 3 * se + 1e-3


class TestBiasCohort:
    def test_arrivals_are_the_fixed_grid(self):
        c = generate_bias_cohort(10_000, 4, psi=-0.1, seed=5)
        grid = 4 * (np.arange(10_000) + 0.5) / 10_000
        assert np.allclose(np.sort(c.arrival), grid)

    def test_largest_confounder_arrives_first(self):
        c = generate_bias_cohort(10_000, 4, psi=-0.1, seed=5)
        assert c.arrival[np.argmax(c.confounder)] == c.arrival.min()

    def test_arrival_order_inverts_confounder_order(self):
        c = generate_bias_cohort(10_000, 4, psi=-0.1, seed=5)
        rho = stats.spearmanr(c.arrival, c.confounder).statistic
        assert rho == pytest.approx(-1.0, abs=1e-12)
        # Pearson is weaker because U's scale varies with h (about -0.98)
        assert np.corrcoef(c.arrival, c.confounder)[0, 1] < -0.97

    @pytest.mark.parametrize("seed", [0, 5, 505])
    @pytest.mark.parametrize("tiny_h", [False, True])
    def test_arrivals_follow_stable_sort_of_confounder(self, seed, tiny_h):
        # tiny subnormal h quantizes U to a few hundred values, with exact
        # ties and signed zeros, so the stable-sort fallback is exercised
        h = np.full(3_000, 1e-320) if tiny_h else None
        c = generate_bias_cohort(3_000, 4, psi=-0.1, h=h, seed=seed)
        if tiny_h:
            assert np.unique(c.confounder).size < c.n
        order = np.argsort(-c.confounder, kind="stable")
        ranks = np.empty(c.n, dtype=int)
        ranks[order] = np.arange(c.n)
        expected = 4 * (ranks + 0.5) / c.n
        assert np.array_equal(c.arrival, expected)
        assert np.array_equal(c.arrival_ranks, stable_ranks(c.arrival))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2000, 32_000])
    @pytest.mark.parametrize("tau", [1, 12, 52])
    def test_carried_ranks_are_the_arrival_ranks(self, n, tau):
        for seed in (0, 5, 505):
            c = generate_bias_cohort(n, tau, psi=-0.1, seed=seed)
            assert np.array_equal(c.arrival_ranks, stable_ranks(c.arrival))

    def test_effect_is_exactly_psi(self):
        c = generate_bias_cohort(5_000, 4, psi=-0.1, seed=9)
        assert np.max(np.abs((c.y1 - c.y0) - (-0.1))) < 1e-12

    def test_confounder_within_scaled_band(self):
        c = generate_bias_cohort(5_000, 4, psi=-0.1, seed=9)
        assert np.all(np.abs(c.confounder) <= 0.2 * c.h)


class TestValidation:
    def test_rejects_h_outside_unit_interval(self):
        with pytest.raises(ValueError, match="risk scores"):
            Cohort(
                h=np.array([0.5, 1.0]),
                arrival=np.array([0.1, 0.2]),
                y0=np.zeros(2),
                y1=np.zeros(2),
                tau=1,
                dgp_tag="bernoulli",
            )

    def test_rejects_arrival_after_horizon(self):
        with pytest.raises(ValueError, match="arrival"):
            Cohort(
                h=np.array([0.5, 0.5]),
                arrival=np.array([0.1, 2.5]),
                y0=np.zeros(2),
                y1=np.zeros(2),
                tau=2,
                dgp_tag="bernoulli",
            )

    def test_rejects_unknown_dgp(self):
        with pytest.raises(ValueError, match="dgp_tag"):
            Cohort(
                h=np.array([0.5]),
                arrival=np.array([0.1]),
                y0=np.zeros(1),
                y1=np.zeros(1),
                tau=1,
                dgp_tag="gaussian",
            )

    def test_ranks_its_arrivals_when_built_without_ranks(self):
        c = Cohort(
            h=np.full(4, 0.5),
            arrival=np.array([0.3, 0.1, 0.3, 0.0]),
            y0=np.zeros(4),
            y1=np.zeros(4),
            tau=1,
            dgp_tag="bernoulli",
        )
        # (arrival, id) order: a tie keeps id order
        assert c.arrival_ranks.tolist() == [2, 1, 3, 0]
        drawn = generate_cohort(500, 3, psi=-0.1, seed=42)
        assert np.array_equal(drawn.arrival_ranks, stable_ranks(drawn.arrival))

    def test_rejects_arrival_ranks_of_another_length(self):
        with pytest.raises(ValueError, match="arrival_ranks"):
            Cohort(
                h=np.array([0.5, 0.5]),
                arrival=np.array([0.1, 0.2]),
                y0=np.zeros(2),
                y1=np.zeros(2),
                tau=1,
                dgp_tag="bernoulli",
                arrival_ranks=np.array([0]),
            )
