import math
import re

import numpy as np
import pytest

import countdiag as cd
from countdiag import Bar1, CountSeries, MissingSpec, ParameterError, PoiInar1, Seed
from countdiag.missingness import _two_sided_z
from countdiag.moments import Tally


class TestCountSeries:
    def test_basic_construction(self):
        s = CountSeries([2, 3, 1], [1, 0, 1])
        assert s.T == 3
        assert s.n_observed == 2
        assert s.n_observed / s.T == pytest.approx(2 / 3)
        assert list(s.observed_values()) == [2, 1]

    def test_default_mask_all_ones(self):
        s = CountSeries([0, 1, 2])
        assert s.n_observed == s.T == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            CountSeries([1, 2], [1])

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(
            ParameterError, match=r"^values must be one-dimensional, got shape \(1, 2\)$"
        ):
            CountSeries([[1, 2]])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            CountSeries([])

    def test_negative_observed_rejected(self):
        with pytest.raises(ParameterError):
            CountSeries([1, -1], [1, 1])

    def test_negative_observed_named_among_hidden_negatives(self):
        with pytest.raises(
            ParameterError,
            match=r"^observed counts must be non-negative, got -1 at position 2 \(0-based\)$",
        ):
            CountSeries([-3, 1, -1, -7], [0, 1, 1, 0])

    @pytest.mark.parametrize(
        "values, mask, message",
        [
            ([-2], None, "observed counts must be non-negative, got -2 at position 0"),
            ([4, 0, -5, -1], None, "observed counts must be non-negative, got -5 at position 2"),
            ([1, 2, 3], [1, 257, 256], "mask entries must be 0 or 1, got 257 at position 1"),
            ([1, 2, 3, 4], [0, 1, -1, 2], "mask entries must be 0 or 1, got -1 at position 2"),
            ([1, 2], [1.0, 2.0], "mask entries must be 0 or 1, got 2 at position 1"),
        ],
    )
    def test_first_bad_entry_named(self, values, mask, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)} \\(0-based\\)$"):
            CountSeries(values, mask)

    def test_masked_positions_unvalidated(self):
        # sentinels at hidden positions may be anything, including negative
        s = CountSeries([1, -7, 2], [1, 0, 1])
        assert s.n_observed == 2

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ParameterError):
            CountSeries([1, 2], [1, 2])

    def test_mask_checked_before_narrowing(self):
        # 256 and 257 would wrap to 0 and 1 in int8
        with pytest.raises(ParameterError, match="mask entries must be 0 or 1"):
            CountSeries([1, 2, 3], [257, 1, 256])

    def test_non_integer_values_rejected(self):
        with pytest.raises(ParameterError):
            CountSeries([1.5, 2.0])

    @pytest.mark.parametrize("values", [[10**20, 1], ["3", "4"], [None, 1]])
    def test_non_numeric_values_rejected(self, values):
        with pytest.raises(ParameterError, match="values must hold 64-bit integers"):
            CountSeries(values)

    @pytest.mark.parametrize("mask", [[1, 1], [0, 1]])
    @pytest.mark.parametrize("values", [[1e20, 1.0], np.array([2**63, 1], dtype=np.uint64)])
    def test_counts_beyond_int64_rejected(self, values, mask):
        # the int64 cast would wrap both, at an observed or a masked position
        with pytest.raises(ParameterError, match=r"^values entry \S+ at position 0 .*exceeds 2\*\*63 - 1$"):
            CountSeries(values, mask)

    def test_compact_drops_hidden(self):
        s = CountSeries([2, 9, 1], [1, 0, 1]).compact()
        assert s.T == 2 and s.n_observed == s.T


class TestModelSpecs:
    def test_poi_inar1_mean(self):
        assert PoiInar1(3.0, 0.5).mean == 3.0

    @pytest.mark.parametrize(
        "mu,rho",
        [(0.0, 0.5), (-1.0, 0.5), (3.0, 1.0), (3.0, -0.1), (math.inf, 0.5), ("3", 0.5), (True, 0.5)],
    )
    def test_poi_inar1_domain(self, mu, rho):
        with pytest.raises(ParameterError):
            PoiInar1(mu, rho)

    def test_bar1_thinning_parameters(self):
        spec = Bar1(10, 0.3, 0.5)
        assert spec.mean == pytest.approx(3.0)

    def test_bar1_rho_bound_named_in_error(self):
        with pytest.raises(ParameterError, match="admissible interval"):
            Bar1(10, 0.3, -0.95)

    def test_bar1_negative_rho_inside_bound_accepted(self):
        Bar1(10, 0.5, -0.5)

    @pytest.mark.parametrize("n,pi", [(1, 0.3), (10, 0.0), (10, 1.0), (10, "0.3")])
    def test_bar1_domain(self, n, pi):
        with pytest.raises(ParameterError):
            Bar1(n, pi, 0.5)


class TestMissingSpec:
    def test_lagged_product_closed_form(self):
        spec = MissingSpec(0.8, 0.6)
        for h in range(0, 5):
            expected = 0.64 + 0.16 * 0.6**h
            assert spec.lagged_product(h) == pytest.approx(expected)
        assert spec.lagged_product(0) == pytest.approx(spec.tau)

    def test_lagged_product_in_unit_interval(self):
        for tau in (0.01, 0.4, 1.0):
            for r in (0.0, 0.5, 0.99):
                spec = MissingSpec(tau, r)
                for h in range(0, 30):
                    assert 0.0 < spec.lagged_product(h) <= 1.0

    @pytest.mark.parametrize(
        "tau,r", [(0.0, 0.0), (1.1, 0.0), (0.5, -0.1), (0.5, 1.0), ("0.8", 0.0), (0.8, "0.3")]
    )
    def test_domain(self, tau, r):
        with pytest.raises(ParameterError):
            MissingSpec(tau, r)

    @pytest.mark.parametrize("h", [1.5, 1.0, True, "1"])
    def test_lag_type(self, h):
        # r**1.5 would pass for a lagged product of no lag
        with pytest.raises(ParameterError, match=f"^h must be an integer, got {re.escape(repr(h))}$"):
            MissingSpec(0.8, 0.3).lagged_product(h)
        spec = MissingSpec(0.8, 0.3)
        assert spec.lagged_product(np.int64(-2)) == spec.lagged_product(2)


class TestSeed:
    def test_generator_reproducible(self):
        a = Seed(123, 4).generator().random(5)
        b = Seed(123, 4).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Seed(123, 0).generator().random(5)
        b = Seed(123, 1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_domain(self):
        with pytest.raises(ParameterError):
            Seed(-1)
        with pytest.raises(ParameterError):
            Seed(1, -2)

    @pytest.mark.parametrize(
        "master, stream, message",
        [
            (True, 0, "master_seed must be an integer >= 0, got True"),
            (-1, 0, "master_seed must be an integer >= 0, got -1"),
            (1.0, 0, "master_seed must be an integer >= 0, got 1.0"),
            (1, False, "stream must be an integer >= 0, got False"),
        ],
    )
    def test_domain_is_the_grid_config_rule(self, master, stream, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Seed(master, stream)


POISSON, MASK = PoiInar1(3.0, 0.5), MissingSpec(0.8, 0.6)

#: One bad value at each entry point, and the parameter its message names.
BAD_VALUES = [
    (cd.kappa, (True, 0.8, 0.0, 0.5), "s"),
    (cd.kappa, (1, True, 0.0, 0.5), "tau"),
    (cd.poi_dispersion_asym_markov, (math.inf, 0.5, 0.8, 0.6, 100), "mu"),
    (cd.skew_asym_poisson_markov, (3.0, 0.5, 0.8, 0.6, 2.5), "T"),
    (cd.bin_dispersion_asym_markov, (2.5, 0.3, 0.5, 0.8, 0.6, 100), "n"),
    (cd.skew_asym_binomial_markov, (10, "0.3", 0.5, 0.8, 0.6, 100), "pi"),
    (cd.sigma_poisson_markov, (1, 1, math.inf, 0.5, 0.8, 0.6), "mu"),
    (cd.sigma_binomial_markov, (1, 1, 2.5, 0.3, 0.5, 0.8, 0.6), "n"),
    (cd.PoissonArMoments, (math.inf, 0.5), "mu"),
    (cd.BinomialArMoments, (2.5, 0.3, 0.5), "n"),
    (cd.PoissonArMoments(3.0, 0.5).mixed, (1, 1, 1.5), "h"),
    (cd.BinomialArMoments(10, 0.3, 0.5).mixed, (1, 1, True), "h"),
    (cd.PoissonArMoments(3.0, 0.5).univariate, (2.5,), "k"),
    (cd.BinomialArMoments(10, 0.3, 0.5).univariate, (-1,), "k"),
    (cd.NullSpec, ("binomial", 2.7), "n"),
    (cd.NullSpec, ("binomial", "10"), "n"),
    (cd.NullSpec, ("poisson", None, "0.05"), "alpha"),
    (cd.diagnostics._null_model, ("binomial", 3.0, 0.5, 2.7), "n"),
    (cd.diagnostics._null_model, ("poisson", math.inf, 0.5), "mu"),
    (cd.index_bin_dispersion, (CountSeries([1, 2, 3]), 2.5), "n"),
    (_two_sided_z, ("0.05",), "alpha"),
    (cd.acf_critical_band, ([0.5], 2.5), "T"),
    (cd.simulate_poi_inar1, (POISSON, 2.5, Seed(1)), "T"),
    (cd.simulate_bar1, (Bar1(10, 0.3, 0.5), "5", Seed(1)), "T"),
    (cd.simulate_markov_mask, (MASK, True, Seed(1)), "T"),
    (cd.Scenario, (POISSON, MASK, "5", 8, 1), "T"),
    (cd.sample_factorial_moments, (CountSeries([1, 2]), 2.0), "max order"),
    (cd.sample_factorial_moments, (CountSeries([1, 2]), True), "max order"),
    (cd.sample_factorial_moments, (CountSeries([1, 2]), "2"), "max order"),
    (Tally([1, 2], [2]).moments, (np.ones(1, dtype=np.uint64), 2.0), "max order"),
    *[
        (cd.test_from_params, ("dispersion", "poisson", 3.0, 0.5, 0.8, 0.3, 100, None, 0.05, bad),
         "statistic")
        for bad in ("1.0", None, True)
    ],
    (cd.test_indices, (CountSeries([1, 2, 3]), cd.NullSpec("poisson"), "dispersion"), "kinds"),
    (cd.test_indices, (CountSeries([1, 2, 3]), cd.NullSpec("poisson"), ["dispersion"] * 2),
     "kinds"),
    (cd.durbin_levinson_pacf, ([],), "autocorrelations"),
]

#: Each array argument at its entry point, with ``...`` where the array goes.
ARRAYS = [
    (CountSeries, (...,), "values"),
    (CountSeries, ([1, 2], ...), "mask"),
    (cd.apply_mask, (CountSeries([1, 2]), ...), "mask"),
    (cd.estimate_r, (...,), "mask"),
    (cd.durbin_levinson_pacf, (...,), "autocorrelations"),
    (cd.acf_critical_band, (..., 10), "tau_lag"),
    (cd.SequenceMaskLaw, (0.8, ...), "lagged products"),
    (cd.emit_curves, ("poisson-dispersion", 0.5, (0.0,), ...), "taus"),
    (Tally, (np.ones(5, dtype=np.int64), ...), "prefix ends"),
]
#: A ragged, a string, a complex, a 0-d and a 2-D array.
BAD_ARRAYS = [[[1], [1, 0]], ["a", "b"], [0.5 + 1j], 1, [[0, 1, 1], [1, 0, 1]]]
BAD_VALUES += [
    (entry, tuple(bad if arg is ... else arg for arg in args), name)
    for entry, args, name in ARRAYS
    for bad in BAD_ARRAYS
]


@pytest.mark.parametrize("entry, args, name", BAD_VALUES)
def test_bad_value_is_parameter_error_naming_it(entry, args, name):
    with pytest.raises(ParameterError, match=f"^{name} must "):
        entry(*args)


def test_empty_lists_where_an_array_may_be_empty():
    assert cd.SequenceMaskLaw(0.8, []).lagged_product(1) == pytest.approx(0.64)
    assert cd.acf_critical_band([], 10).size == 0
