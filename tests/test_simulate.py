import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare

from countdiag import (
    Bar1,
    CountSeries,
    MissingSpec,
    ParameterError,
    PoiInar1,
    Seed,
    apply_mask,
    simulate_bar1,
    simulate_markov_mask,
    simulate_poi_inar1,
)
from countdiag.simulate import _binomial_paths, _poisson_paths

from conftest import bartlett_ar1_se, batch_se, binomial_support, poisson_support


def sample_acf(x, h):
    x = np.asarray(x, dtype=np.float64)
    d = x - x.mean()
    return float((d[:-h] * d[h:]).sum() / (d * d).sum())


def grouped_chisquare(samples, support, min_expected=5.0):
    """Chi-square GOF p-value with tail categories grouped."""
    x, p = support
    counts = np.bincount(samples, minlength=x.size)[: x.size]
    expected = p * samples.size
    # group from the right until every kept category is large enough
    keep = int(np.searchsorted(np.cumsum(expected[::-1]), min_expected))
    cut = x.size - keep - 1
    obs = np.append(counts[:cut], counts[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    exp = exp * obs.sum() / exp.sum()
    return chisquare(obs, exp).pvalue


class TestPoiInar1Simulator:
    def test_iid_limit_mean_and_variance(self):
        s = simulate_poi_inar1(PoiInar1(3.0, 0.0), 100_000, Seed(11))
        x = s.values.astype(np.float64)
        se_mean = np.sqrt(3.0 / x.size)
        assert abs(x.mean() - 3.0) < 3 * se_mean
        # var(S^2) ~ (mu4_central - sigma^4)/T = (mu(1+3mu) - mu^2)/T for Poisson
        se_var = np.sqrt((3 * (1 + 9) - 9) / x.size)
        assert abs(x.var() - 3.0) < 3 * se_var

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_acf_decay(self, rho):
        T = 100_000
        s = simulate_poi_inar1(PoiInar1(3.0, rho), T, Seed(21, int(10 * rho)))
        for h in (1, 2, 3):
            se = bartlett_ar1_se(rho, h, T)
            assert abs(sample_acf(s.values, h) - rho**h) < 3 * se

    def test_dispersion_converges_to_one(self):
        s = simulate_poi_inar1(PoiInar1(3.0, 0.5), 100_000, Seed(31))
        x = s.values.astype(np.float64)
        dispersion = x.var() / x.mean()
        assert abs(dispersion - 1.0) < 0.02

    def test_stationary_start_marginal(self):
        draws = np.array(
            [simulate_poi_inar1(PoiInar1(3.0, 0.5), 1, Seed(7, i)).values[0]
             for i in range(10_000)]
        )
        assert grouped_chisquare(draws, poisson_support(3.0)) > 0.001

    def test_determinism(self):
        a = simulate_poi_inar1(PoiInar1(3.0, 0.5), 500, Seed(99, 3))
        b = simulate_poi_inar1(PoiInar1(3.0, 0.5), 500, Seed(99, 3))
        assert np.array_equal(a.values, b.values)

    def test_length_one_allowed(self):
        s = simulate_poi_inar1(PoiInar1(3.0, 0.5), 1, Seed(1))
        assert s.T == 1


class TestBar1Simulator:
    def test_values_bounded(self):
        s = simulate_bar1(Bar1(10, 0.3, 0.5), 50_000, Seed(41))
        assert s.values.min() >= 0
        assert s.values.max() <= 10

    def test_mean(self):
        T = 100_000
        s = simulate_bar1(Bar1(10, 0.3, 0.5), T, Seed(42))
        # long-run variance of the sample mean of an AR(1): sigma^2 (1+rho)/(1-rho) / T
        se = np.sqrt(2.1 * 3.0 / T)
        assert abs(s.values.mean() - 3.0) < 3 * se

    def test_lag2_acf(self):
        T = 100_000
        s = simulate_bar1(Bar1(10, 0.3, 0.5), T, Seed(43))
        se = bartlett_ar1_se(0.5, 2, T)
        assert abs(sample_acf(s.values, 2) - 0.25) < 3 * se

    def test_stationary_start_marginal(self):
        draws = np.array(
            [simulate_bar1(Bar1(10, 0.3, 0.5), 1, Seed(8, i)).values[0]
             for i in range(10_000)]
        )
        assert grouped_chisquare(draws, binomial_support(10, 0.3)) > 0.001

    def test_determinism(self):
        a = simulate_bar1(Bar1(10, 0.3, 0.5), 500, Seed(99, 3))
        b = simulate_bar1(Bar1(10, 0.3, 0.5), 500, Seed(99, 3))
        assert np.array_equal(a.values, b.values)


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


class TestPinnedStreams:
    """Recorded draws of fixed seeds, so that a kernel change that moves a
    stream fails here rather than only shifting Monte Carlo columns."""

    def test_poi_inar1_single_path(self):
        x = simulate_poi_inar1(PoiInar1(3, 0.5), 500, Seed(7)).values
        assert x[:20].tolist() == [4, 3, 5, 4, 4, 4, 1, 2, 0, 2, 3, 1, 1, 1, 1, 2, 3, 6, 7, 4]
        assert _sha256(x) == "39460d267a1d7e7e7c29d4162ba945dbe7c70df42004f271238975beb0807b78"

    def test_bar1_single_path(self):
        x = simulate_bar1(Bar1(10, 0.3, 0.5), 500, Seed(7)).values
        assert x[:20].tolist() == [3, 3, 3, 1, 2, 2, 2, 2, 5, 3, 0, 0, 2, 2, 2, 1, 2, 2, 4, 3]
        assert _sha256(x) == "a0d183bef29abb5ba6b5e95f1ee09df4bf22ca0983f41d1c71562a09d9d174ca"

    def test_batched_paths(self):
        x = _poisson_paths(3.0, 0.5, 200, 3, np.random.default_rng(7))
        assert x[:, :4].tolist() == [[4, 2, 5, 4], [1, 2, 2, 4], [4, 4, 0, 5]]
        assert _sha256(x) == "a371c0bf9bf5485d53e1b61365a3e9740010c511155250cf47639a44fa8b2080"
        y = _binomial_paths(10, 0.3, 0.5, 200, 3, np.random.default_rng(7))
        assert y[:, :4].tolist() == [[3, 3, 2, 2], [5, 5, 5, 3], [4, 3, 3, 1]]
        assert _sha256(y) == "685f62f4e22e661d7c4c46138721d970c091f025020b8d245261ccba6a504880"


class TestMarkovMask:
    def test_tau_one_gives_all_ones(self):
        mask = simulate_markov_mask(MissingSpec(1.0, 0.6), 10_000, Seed(5))
        assert mask.min() == 1

    def test_iid_case_mean(self):
        mask = simulate_markov_mask(MissingSpec(0.5, 0.0), 1_000_000, Seed(6))
        se = 0.5 / np.sqrt(mask.size)
        assert abs(mask.mean() - 0.5) < 3 * se
        assert abs(sample_acf(mask, 1)) < 3 / np.sqrt(mask.size)

    def test_markov_mean_and_acf(self):
        mask = simulate_markov_mask(MissingSpec(0.8, 0.6), 1_000_000, Seed(7)).astype(
            np.float64
        )
        assert abs(mask.mean() - 0.8) < 3 * batch_se(mask)
        acf1 = sample_acf(mask, 1)
        # conservative SE for a dependent binary chain
        se = np.sqrt((1 + 0.6) / (1 - 0.6) / mask.size)
        assert abs(acf1 - 0.6) < 3 * se

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_lagged_products(self, h):
        spec = MissingSpec(0.8, 0.6)
        mask = simulate_markov_mask(spec, 1_000_000, Seed(8)).astype(np.float64)
        prods = mask[:-h] * mask[h:]
        assert abs(prods.mean() - spec.lagged_product(h)) < 3 * batch_se(prods)

    def test_determinism(self):
        a = simulate_markov_mask(MissingSpec(0.8, 0.6), 1000, Seed(1, 2))
        b = simulate_markov_mask(MissingSpec(0.8, 0.6), 1000, Seed(1, 2))
        assert np.array_equal(a, b)


class TestApplyMask:
    def test_all_observed_unchanged(self):
        s = CountSeries.fully_observed([2, 3, 1])
        out = apply_mask(s, [1, 1, 1])
        assert np.array_equal(out.values, [2, 3, 1])
        assert out.n_observed == 3

    def test_partial_mask_hides_values(self):
        out = apply_mask(CountSeries.fully_observed([2, 3, 1]), [1, 0, 1])
        assert out.n_observed == 2
        assert list(out.observed_values()) == [2, 1]
        assert out.values[1] == 0  # sentinel

    def test_fully_masked_accepted(self):
        out = apply_mask(CountSeries.fully_observed([2, 3, 1]), [0, 0, 0])
        assert out.n_observed == 0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            apply_mask(CountSeries.fully_observed([2, 3, 1]), [1, 0])
