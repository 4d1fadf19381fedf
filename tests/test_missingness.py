import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

import countdiag
from countdiag import (
    CountSeries,
    DegenerateSeriesError,
    MissingSpec,
    NumericalDegeneracyError,
    ParameterError,
    PoiInar1,
    Seed,
    acf_critical_band,
    apply_mask,
    dr_acf,
    dr_autocovariance,
    durbin_levinson_pacf,
    estimate_r,
    fit_null_params,
    simulate_markov_mask,
    simulate_poi_inar1,
)
from countdiag.missingness import _lag_sums, _two_sided_z
from countdiag.series import _unpack_mask
from countdiag.simulate import _markov_mask_from_uniforms, _poisson_paths


class TestEstimateTau:
    """tau is the observed fraction, tau_lag[0] of the missing-data ACF."""

    def test_all_ones(self):
        assert dr_acf(CountSeries([1, 2, 3, 4]), 1).tau_lag[0] == 1.0

    def test_half(self):
        assert dr_acf(CountSeries([1, 2, 3, 4], [1, 0, 1, 0]), 1).tau_lag[0] == 0.5

    def test_small_missing_fraction(self):
        # 19 hidden out of 225 observations
        mask = np.ones(225, dtype=int)
        mask[:19] = 0
        values = np.arange(225) % 7
        assert fit_null_params(CountSeries(values, mask)).tau == pytest.approx(0.916, abs=5e-4)


class TestEstimateR:
    def test_iid_mask_near_zero(self):
        mask = Seed(12).generator().random(1_000_000) < 0.8
        assert abs(estimate_r(mask.astype(int))) < 3 / np.sqrt(mask.size)

    def test_markov_mask_recovers_r(self):
        mask = simulate_markov_mask(MissingSpec(0.8, 0.6), 1_000_000, Seed(13))
        se = np.sqrt((1 + 0.6) / (1 - 0.6) / mask.size)
        assert abs(estimate_r(mask) - 0.6) < 3 * se

    @pytest.mark.parametrize("T", [4, 7, 100])
    def test_alternating_is_minus_one(self, T):
        mask = np.arange(T) % 2
        assert estimate_r(mask) == pytest.approx(-1.0)

    def test_constant_mask_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            estimate_r([1, 1, 1, 1])

    def test_too_short(self):
        with pytest.raises(ParameterError):
            estimate_r([1])

    @pytest.mark.parametrize("mask", [[1, 0, 2, 1], [1, 0, 0.5, 1], [1, 0, np.nan, 1]])
    def test_non_binary_entry_named(self, mask):
        with pytest.raises(ParameterError, match=r"at position 2 \(0-based\) is neither 0 nor 1"):
            estimate_r(mask)


class TestDrAutocovariance:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bits_equal_the_masked_product_reference(self, data):
        # the centred series is built in place, with the bits of the product
        # (x - muhat) * o, whatever the masked positions store
        T = data.draw(st.integers(1, 40))
        values = np.array(data.draw(st.lists(st.integers(0, 6), min_size=T, max_size=T)))
        mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=T, max_size=T)))
        mask[data.draw(st.integers(0, T - 1))] = 1
        hidden = np.flatnonzero(mask == 0)
        garbage = st.integers(-(10**6), 10**6)  # never read
        values[hidden] = data.draw(st.lists(garbage, min_size=hidden.size, max_size=hidden.size))
        max_lag = data.draw(st.integers(0, T - 1))
        x = np.where(mask == 1, values, 0).astype(np.float64)
        o = mask.astype(np.float64)
        d = (x - x.sum() / o.sum()) * o
        expected = [float((d[: T - l] * d[l:]).sum()) / T for l in range(max_lag + 1)]
        acov = dr_autocovariance(CountSeries(values, mask), max_lag)
        assert acov.tobytes() == np.array(expected).tobytes()

    def test_constant_series_zero(self):
        s = CountSeries([4, 4, 4, 4, 4])
        acov = dr_autocovariance(s, 3)
        assert acov.shape == (4,)
        assert np.all(acov == 0.0)

    def test_lag0_is_biased_variance(self):
        values = Seed(5).generator().poisson(3, 500)
        s = CountSeries(values)
        assert dr_autocovariance(s, 0)[0] == pytest.approx(values.var(), rel=1e-12)

    def test_lag_domain(self):
        s = CountSeries([1, 2, 3])
        for max_lag in (-1, 3):
            with pytest.raises(ParameterError):
                dr_autocovariance(s, max_lag)

    def test_lag_type(self):
        s = CountSeries([1, 2, 3, 5])
        for max_lag in (True, False, 2.0):
            with pytest.raises(ParameterError, match="max lag must be an integer >= 0"):
                dr_autocovariance(s, max_lag)
        assert np.array_equal(dr_autocovariance(s, np.int64(2)), dr_autocovariance(s, 2))

    def test_all_masked_rejected(self):
        s = CountSeries([1, 2, 3], [0, 0, 0])
        with pytest.raises(DegenerateSeriesError):
            dr_autocovariance(s, 1)

    def test_ratio_limit_fully_observed(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 100_000, Seed(55))
        acov = dr_autocovariance(series, 1)
        se = np.sqrt(1.0 / 100_000)
        assert abs(acov[1] / acov[0] - 0.5) < 3 * se

    def test_ratio_limit_under_missingness(self):
        # the 1/T-normalized ratio converges to (tau(1)/tau) * rho(1), i.e.
        # (tau + (1-tau) r) * rho, not to rho itself, under a dependent mask
        tau, r, rho, T = 0.8, 0.6, 0.5, 100_000
        series = simulate_poi_inar1(PoiInar1(3.0, rho), T, Seed(55))
        mask = simulate_markov_mask(MissingSpec(tau, r), T, Seed(56))
        acov = dr_autocovariance(apply_mask(series, mask), 1)
        limit = (tau + (1 - tau) * r) * rho
        se = np.sqrt((tau + (1 - tau) * r) / tau / T) * 3  # inflation for dependence
        assert abs(acov[1] / acov[0] - limit) < 3 * se

    def test_sentinels_never_read(self):
        rng = np.random.default_rng(9)
        values = rng.poisson(3, 300)
        mask = rng.integers(0, 2, 300)
        mask[:2] = 1
        garbled = values.copy()
        garbled[mask == 0] = 7777
        a = CountSeries(values, mask)
        b = CountSeries(garbled, mask)
        assert np.array_equal(dr_autocovariance(a, 5), dr_autocovariance(b, 5))


def _per_lag_reference(series, max_lag):
    """The missing-data ACF written out lag by lag: for each lag the mean is
    recomputed and the series centred and masked again."""
    T = series.T
    o = series.mask.astype(np.float64)

    def acov(l):
        x = np.where(series.mask == 1, series.values, 0).astype(np.float64)
        muhat = x.sum() / (series.mask == 1).sum()
        d = (x - muhat) * o
        if l == 0:
            return float((d * d).sum()) / T
        return float((d[:-l] * d[l:]).sum()) / T

    c0 = acov(0)
    rho_hat = [1.0] + [acov(l) / c0 for l in range(1, max_lag + 1)]
    tau_lag = [o.sum() / T] + [float((o[:-l] * o[l:]).sum()) / T for l in range(1, max_lag + 1)]
    return np.array(rho_hat), np.array(tau_lag)


class TestDrAcf:
    def test_reduces_to_classical_acf_when_fully_observed(self):
        values = Seed(61).generator().poisson(3, 2000).astype(np.float64)
        s = CountSeries(values.astype(int))
        est = dr_acf(s, 10)
        d = values - values.mean()
        c0 = (d * d).sum() / values.size
        for l in range(1, 11):
            classical = ((d[:-l] * d[l:]).sum() / values.size) / c0
            assert est.rho_hat[l] == pytest.approx(classical, abs=1e-15)

    def test_lag0_is_one_and_tau_lags(self):
        s = CountSeries([3, 1, 4, 1, 5], [1, 1, 0, 1, 1])
        est = dr_acf(s, 2)
        assert est.rho_hat[0] == 1.0
        assert est.tau_lag[0] == pytest.approx(0.8)
        assert est.tau_lag[1] == pytest.approx(2 / 5)  # pairs (0,1), (3,4)
        assert est.tau_lag[2] == pytest.approx(1 / 5)  # pair (3, 1) via positions 1,3

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            dr_acf(CountSeries([2, 2, 2, 2]), 1)

    def test_max_lag_beyond_the_series_named(self):
        with pytest.raises(ParameterError, match=r"^max lag must lie in \[1, 9\], got 10$"):
            dr_acf(CountSeries(np.arange(10)), 10)

    def test_lag_type(self):
        s = CountSeries([3, 1, 4, 1, 5])
        for max_lag in (True, 2.0, 0):
            with pytest.raises(ParameterError, match="max lag must be an integer >= 1"):
                dr_acf(s, max_lag)
        est = dr_acf(s, np.int64(2))
        assert np.array_equal(est.rho_hat, dr_acf(s, 2).rho_hat)

    @pytest.mark.parametrize("tau,r", [(1.0, 0.0), (0.8, 0.6), (0.4, 0.3)])
    def test_equals_per_lag_reference_exactly(self, tau, r):
        T = 5000
        series = simulate_poi_inar1(PoiInar1(3.0, 0.7), T, Seed(63))
        masked = apply_mask(series, simulate_markov_mask(MissingSpec(tau, r), T, Seed(64)))
        est = dr_acf(masked, 40)
        rho_hat, tau_lag = _per_lag_reference(masked, 40)
        assert np.array_equal(est.rho_hat, rho_hat)
        assert np.array_equal(est.tau_lag, tau_lag)

    @pytest.mark.parametrize("tau,r", [(1.0, 0.0), (0.8, 0.6), (0.4, 0.0)])
    def test_pair_counts_equal_float_lag_sums(self, tau, r):
        # tau_lag counts observed pairs as integers; the float64 lag sums of the
        # 0/1 mask are the same exact integers, at the benchmark's T and lag.
        T, max_lag = 100_000, 50
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), T, Seed(65))
        masked = apply_mask(series, simulate_markov_mask(MissingSpec(tau, r), T, Seed(66)))
        reference = _lag_sums(masked.mask.astype(np.float64), max_lag)
        assert np.array_equal(dr_acf(masked, max_lag).tau_lag, reference)

    def test_bits_do_not_depend_on_blas_threads(self):
        # a BLAS dot product would split each lag sum by thread
        script = (
            "import sys\n"
            "from countdiag import MissingSpec, PoiInar1, Seed, apply_mask, dr_acf\n"
            "from countdiag import simulate_markov_mask, simulate_poi_inar1\n"
            "T = 100_000\n"
            "series = simulate_poi_inar1(PoiInar1(3.0, 0.5), T, Seed(67))\n"
            "mask = simulate_markov_mask(MissingSpec(0.8, 0.6), T, Seed(68))\n"
            "acf = dr_acf(apply_mask(series, mask), 50)\n"
            "sys.stdout.write((acf.rho_hat.tobytes() + acf.tau_lag.tobytes()).hex())\n"
        )
        src = str(Path(countdiag.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0]) == 2 * 8 * 2 * 51
        assert outputs[0] == outputs[1]


class TestDurbinLevinson:
    @pytest.mark.parametrize("rho", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_ar1_cutoff(self, rho):
        acf = np.array([rho**h for h in range(1, 6)])
        pacf = durbin_levinson_pacf(acf)
        assert pacf[0] == pytest.approx(rho, abs=1e-15)
        assert np.max(np.abs(pacf[1:])) < 1e-12

    def test_zero_acf_gives_zero_pacf(self):
        pacf = durbin_levinson_pacf(np.zeros(6))
        assert np.array_equal(pacf, np.zeros(6))

    def test_ma1_like_hand_value(self):
        pacf = durbin_levinson_pacf([0.4, 0.0, 0.0])
        assert pacf[1] == pytest.approx(-(0.4**2) / (1 - 0.4**2), rel=1e-12)

    def test_unit_partial_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            durbin_levinson_pacf([1.0, 1.0])

    def test_partial_beyond_one_named(self):
        # phi_22 = (0 - 0.81) / (1 - 0.81)
        with pytest.raises(
            NumericalDegeneracyError, match=r"^\|phi_22\| = 4\.263157894736843 >= 1$"
        ):
            durbin_levinson_pacf([0.9, 0.0])

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(
            ParameterError, match=r"^autocorrelations must be one-dimensional, got shape \(1, 1\)$"
        ):
            durbin_levinson_pacf([[0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_autocorrelation_named(self, bad):
        with pytest.raises(ParameterError, match="autocorrelation at lag 2 is not finite"):
            durbin_levinson_pacf([0.5, bad, 0.1])

    @settings(max_examples=60, deadline=None)
    @given(rho=st.floats(0.05, 0.95))
    def test_ar1_cutoff_property(self, rho):
        acf = np.array([rho**h for h in range(1, 8)])
        pacf = durbin_levinson_pacf(acf)
        assert abs(pacf[0] - rho) < 1e-14
        assert np.max(np.abs(pacf[1:])) < 1e-12


class TestCriticalBand:
    def test_classical_white_noise_band(self):
        band = acf_critical_band(np.ones(5), 400, alpha=0.05)
        assert band[0] == pytest.approx(1.96 / 20, abs=2e-5)

    def test_missingness_widens_band(self):
        band = acf_critical_band([0.64], 100, alpha=0.05)
        assert band[0] == pytest.approx(1.96 / 8.0, abs=1e-4)

    def test_one_sigma_band(self):
        band = acf_critical_band([0.5], 200, alpha=0.3173)
        assert band[0] == pytest.approx(1.0 / np.sqrt(200 * 0.5), rel=1e-3)

    def test_zero_tau_lag_is_nan(self):
        band = acf_critical_band([1.0, 0.0], 100)
        assert np.isfinite(band[0]) and np.isnan(band[1])

    def test_domain(self):
        with pytest.raises(ParameterError):
            acf_critical_band([1.2], 100)
        with pytest.raises(ParameterError):
            acf_critical_band([0.5], 100, alpha=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_bad_entry_names_its_lag(self, bad):
        # a NaN entry would give a NaN half-width, read as tau_lag = 0
        want = rf"^tau_lag must lie in \[0, 1\] at every lag, got {bad} at lag 1$"
        with pytest.raises(ParameterError, match=want):
            acf_critical_band([1.0, bad, 0.5], 100)

    @pytest.mark.parametrize("tau_lag", [0.5, [[1.0, 0.5]]])
    def test_not_one_dimensional(self, tau_lag):
        with pytest.raises(ParameterError, match=r"^tau_lag must be one-dimensional, got shape"):
            acf_critical_band(tau_lag, 100)


class TestTwoSidedZ:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-12, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(0.05)
    def test_matches_scipy(self, alpha):
        z = _two_sided_z(alpha)
        assert z == pytest.approx(norm.ppf(1.0 - alpha / 2.0), rel=1e-14, abs=0.0)

    def test_unresolvable_alpha_is_infinite(self):
        assert _two_sided_z(1e-17) == np.inf

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_domain(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            _two_sided_z(alpha)


def _band_test_rejection_rate(tau, r, T, R, seed):
    """Empirical rejection rate of the lag-1 band for i.i.d. Poi(3) counts."""
    rng = Seed(seed).generator()
    x = _poisson_paths(3.0, 0.0, T, R, rng).astype(np.float64)
    if tau >= 1.0:
        o = np.ones_like(x)
    else:
        o = _unpack_mask(_markov_mask_from_uniforms(rng.random((R, T)), tau, r), T)
        o = o.astype(np.float64)
    mu = (o * x).sum(1) / o.sum(1)
    d = (x - mu[:, None]) * o
    rho1 = ((d[:, :-1] * d[:, 1:]).sum(1) / T) / ((d * d).sum(1) / T)
    tau1 = (o[:, :-1] * o[:, 1:]).sum(1) / T
    band = norm.ppf(0.975) / np.sqrt(T * tau1)
    return float((np.abs(rho1) > band).mean())


class TestBandOperatingCharacteristics:
    def test_size_with_full_observation(self):
        rate = _band_test_rejection_rate(1.0, 0.0, 500, 10_000, 200)
        assert abs(rate - 0.05) < 0.01

    def test_size_with_markov_mask_is_conservative(self):
        # the 1/sqrt(T tau(l)) band overstates the sd of the 1/T-normalized
        # ratio by tau(1)/tau, so the realized size is 2*Phi(-z*tau/tau(1))
        rate = _band_test_rejection_rate(0.8, 0.6, 500, 10_000, 201)
        tau, tau1 = 0.8, 0.8**2 + 0.8 * 0.2 * 0.6
        predicted = 2 * norm.cdf(-norm.ppf(0.975) * tau / tau1)
        assert rate <= 0.06
        assert abs(rate - predicted) < 0.01
