import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from countdiag import (
    INDEX_KINDS,
    Bar1,
    CountDiagError,
    CountSeries,
    DegenerateSeriesError,
    MissingSpec,
    NullSpec,
    ParameterError,
    PoiInar1,
    Seed,
    apply_mask,
    fit_null_params,
    index_bin_dispersion,
    index_poi_dispersion,
    index_skew,
    simulate_bar1,
    simulate_markov_mask,
    simulate_poi_inar1,
)
from countdiag import test_from_params as run_test_from_params
from countdiag import test_index as run_test_index
from countdiag import test_indices as run_test_indices
from countdiag.diagnostics import (
    KIND_BIN_DISPERSION,
    KIND_BIN_SKEWNESS,
    KIND_POI_DISPERSION,
    KIND_POI_SKEWNESS,
    _index_value,
    family_kinds,
    marginal_params,
)
from countdiag.cli import build_parser, main
from countdiag.harness import _index_estimates, write_series_csv
from countdiag.missingness import dr_acf
from countdiag.moments import Tally, factorial_moments, sample_factorial_moments


class TestIndexEstimators:
    def test_poi_dispersion_constant_series(self):
        assert index_poi_dispersion(CountSeries([1, 1, 1, 1])) == 0.0

    def test_poi_dispersion_hand_value(self):
        assert index_poi_dispersion(CountSeries([0, 2, 0, 2])) == pytest.approx(1.0)

    def test_poi_dispersion_all_zero_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            index_poi_dispersion(CountSeries([0, 0, 0]))

    def test_poi_dispersion_consistency(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 100_000, Seed(70))
        mask = simulate_markov_mask(MissingSpec(0.8, 0.0), 100_000, Seed(71))
        assert index_poi_dispersion(apply_mask(series, mask)) == pytest.approx(1.0, abs=0.02)

    def test_bin_dispersion_constant_series(self):
        assert index_bin_dispersion(CountSeries([2, 2, 2]), 5) == pytest.approx(0.0)

    def test_bin_dispersion_degenerate_mean(self):
        with pytest.raises(DegenerateSeriesError):
            index_bin_dispersion(CountSeries([0, 0]), 3)
        with pytest.raises(DegenerateSeriesError):
            index_bin_dispersion(CountSeries([3, 3]), 3)

    def test_bin_dispersion_consistency(self):
        series = simulate_bar1(Bar1(10, 0.3, 0.5), 100_000, Seed(72))
        assert index_bin_dispersion(series, 10) == pytest.approx(1.0, abs=0.02)

    def test_skew_constant_three(self):
        assert index_skew(CountSeries([3, 3, 3])) == pytest.approx(1 / 3)

    def test_skew_constant_two(self):
        assert index_skew(CountSeries([2, 2, 2])) == 0.0

    def test_skew_undefined_for_binary_series(self):
        with pytest.raises(DegenerateSeriesError):
            index_skew(CountSeries([0, 1, 1, 0]))

    def test_skew_consistency(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 100_000, Seed(73))
        assert index_skew(series) == pytest.approx(1.0, abs=0.02)


def _masked_rows(n_max):
    """(R, T) values and masks; some rows fully masked or all zero."""
    return st.integers(1, 5).flatmap(
        lambda R: st.integers(1, 12).flatmap(
            lambda T: st.tuples(
                st.lists(
                    st.one_of(
                        st.lists(st.integers(0, n_max), min_size=T, max_size=T),
                        st.just([0] * T),
                    ),
                    min_size=R, max_size=R,
                ),
                st.lists(
                    st.one_of(
                        st.lists(st.integers(0, 1), min_size=T, max_size=T),
                        st.just([0] * T),
                        st.just([1] * T),
                    ),
                    min_size=R, max_size=R,
                ),
            )
        )
    )


class TestBatchedEstimator:
    @settings(max_examples=150, deadline=None)
    @given(_masked_rows(12), st.sampled_from(["poisson", "binomial"]))
    def test_rows_equal_single_series_calls(self, rows, family):
        values, mask = (np.array(a, dtype=np.int64) for a in rows)
        n = 10 if family == "binomial" else None
        kinds = [k for k, spec in INDEX_KINDS.items() if spec.family == family]
        batched = _index_estimates(Tally(values.copy()), mask, kinds, n=n)
        for kind in kinds:
            for i in range(values.shape[0]):
                series = CountSeries(values[i], mask[i])
                try:
                    single = _index_value(series, kind, n)
                except DegenerateSeriesError:
                    assert np.isnan(batched[kind][i])
                else:
                    assert batched[kind][i] == single


def _outcome(call):
    """A call's result, or its error type and message, in a comparable form."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except CountDiagError as err:
            result = (type(err).__name__, str(err))
    return result, [str(w.message) for w in caught]


class TestMaskedValuesNeverRead:
    @settings(max_examples=60, deadline=None)
    @given(
        _masked_rows(8),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
        st.sampled_from(["poisson", "binomial"]),
    )
    def test_moments_acf_and_reports_unchanged(self, rows, garbage, family):
        values, mask = (np.array(a, dtype=np.int64)[0] for a in rows)
        garbled = values.copy()
        hidden = np.flatnonzero(mask == 0)
        garbled[hidden] = np.resize(np.array(garbage), hidden.size)
        a, b = CountSeries(values, mask), CountSeries(garbled, mask)
        assert np.array_equal(
            factorial_moments(a.values, a.mask, 3),
            factorial_moments(b.values, b.mask, 3),
            equal_nan=True,
        )
        max_lag = a.T - 1

        def acf(series):
            est = dr_acf(series, max_lag)
            return est.rho_hat.tolist(), est.tau_lag.tolist()

        if max_lag >= 1:
            assert _outcome(lambda: acf(a)) == _outcome(lambda: acf(b))
        null = NullSpec(family, n=10 if family == "binomial" else None)
        for kind in ("dispersion", "skewness"):
            def report(series):
                return json.dumps(run_test_index(series, null, kind).to_dict())

            assert _outcome(lambda: report(a)) == _outcome(lambda: report(b))


class TestObservedValuesOnly:
    """The estimates read the multiset of observed values and nothing else:
    not their order, and not which positions hold them."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_permuted_or_moved_values_give_equal_bits(self, data):
        T = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, T))
        observed = data.draw(st.lists(st.integers(0, 10), min_size=k, max_size=k))
        positions = st.permutations(range(T)).map(lambda p: sorted(p[:k]))
        garbage = st.lists(st.integers(0, 10**6), min_size=T, max_size=T)

        def place(values, at):
            series = np.array(data.draw(garbage), dtype=np.int64)
            mask = np.zeros(T, dtype=np.int8)
            series[at], mask[at] = values, 1
            return CountSeries(series, mask)

        a = place(observed, data.draw(positions))
        b = place(data.draw(st.permutations(observed)), data.draw(positions))
        assert (
            factorial_moments(a.values, a.mask, 3).tobytes()
            == factorial_moments(b.values, b.mask, 3).tobytes()
        )

        for statistic in (
            index_poi_dispersion,
            lambda series: index_bin_dispersion(series, 10),
            index_skew,
        ):
            def bits(series):
                return np.float64(statistic(series)).tobytes()

            assert _outcome(lambda: bits(a)) == _outcome(lambda: bits(b))


class TestOneReadPerDiagnosis:
    """A diagnosis tallies its series once, at the highest order of its kinds,
    and each index read from that tally has the bits of its own read."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([12, 5000]).flatmap(_masked_rows),
        st.sampled_from(["poisson", "binomial"]),
    )
    def test_shared_read_equals_each_kinds_own_read(self, rows, family):
        # counts up to 5000 keep every third-order sum exact (below 2**53)
        values, mask = (np.array(a, dtype=np.int64)[0] for a in rows)
        series = CountSeries(values, mask)
        n = 10 if family == "binomial" else None
        for m in (2, 3):
            for kind in family_kinds(family):
                spec = INDEX_KINDS[kind]
                if spec.order > m:
                    continue

                def shared():
                    return spec.value(sample_factorial_moments(series, m), n).hex()

                def own():
                    return _index_value(series, kind, n).hex()

                assert _outcome(shared) == _outcome(own)

    @pytest.fixture
    def tallies(self, monkeypatch):
        import countdiag.moments as moments

        built = []
        init = moments.Tally.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(moments.Tally, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("index", ["both", "dispersion", "skewness"])
    @pytest.mark.parametrize("ignore", [False, True])
    def test_diagnose_tallies_once(self, tmp_path, tallies, index, ignore):
        series = simulate_bar1(Bar1(10, 0.3, 0.5), 2000, Seed(31))
        masked = apply_mask(series, simulate_markov_mask(MissingSpec(0.7, 0.4), 2000, Seed(32)))
        path, payload = tmp_path / "series.csv", tmp_path / "report.json"
        write_series_csv(masked, path)
        argv = ["diagnose", "--input", str(path), "--null", "binomial", "--n", "10",
                "--index", index, "--json", str(payload)] + ["--ignore-missing"] * ignore
        assert main(argv) == 0
        assert len(tallies) == 1
        work = masked.compact() if ignore else masked
        own = {"dispersion": index_bin_dispersion(work, 10), "skewness": index_skew(work)}
        reports = json.loads(payload.read_text())
        assert [r["statistic"] for r in reports] == [
            own[kind] for kind in ("dispersion", "skewness") if index in ("both", kind)
        ]

    def test_fit_and_acf_read_no_tally(self, tallies):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 2000, Seed(33))
        masked = apply_mask(series, simulate_markov_mask(MissingSpec(0.8, 0.6), 2000, Seed(34)))
        dr_acf(masked, 50)
        fit_null_params(masked)
        assert tallies == []


class TestIndexKindTable:
    def test_covers_every_kind(self):
        kinds = {KIND_POI_DISPERSION, KIND_BIN_DISPERSION, KIND_POI_SKEWNESS, KIND_BIN_SKEWNESS}
        assert set(INDEX_KINDS) == kinds
        for key, spec in INDEX_KINDS.items():
            assert key.startswith(f"{spec.family}-")

    def test_cli_curve_choices_are_the_table_keys(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        index = next(a for a in sub.choices["curves"]._actions if a.dest == "index")
        assert list(index.choices) == list(INDEX_KINDS)


class TestFitNullParams:
    def test_length_one_series_names_T(self):
        with pytest.raises(DegenerateSeriesError, match="T=1"):
            fit_null_params(CountSeries([3]))
        with pytest.raises(DegenerateSeriesError, match="T=1"):
            run_test_index(CountSeries([3]), NullSpec("poisson"), "dispersion")

    def test_fully_observed_conventions(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 5000, Seed(80))
        fitted = fit_null_params(series)
        assert fitted.tau == 1.0
        assert fitted.r == 0.0  # constant mask convention
        assert fitted.T == 5000

    def test_round_trip_under_missingness(self):
        tau, r, rho, T = 0.8, 0.6, 0.5, 100_000
        series = simulate_poi_inar1(PoiInar1(3.0, rho), T, Seed(81))
        mask = simulate_markov_mask(MissingSpec(tau, r), T, Seed(82))
        fitted = fit_null_params(apply_mask(series, mask))
        assert fitted.mu == pytest.approx(3.0, abs=0.05)
        assert fitted.tau == pytest.approx(tau, abs=3 * np.sqrt(2.0 * tau * (1 - tau) / T))
        assert fitted.r == pytest.approx(r, abs=3 * np.sqrt(4.0 / T))
        # the 1/T-normalized ratio estimates (tau + (1-tau) r) * rho
        assert fitted.rho == pytest.approx((tau + (1 - tau) * r) * rho, abs=0.02)

    def test_negative_dependence_clamped_with_warning(self):
        series = CountSeries([0, 5] * 50)
        with pytest.warns(UserWarning, match="rho"):
            fitted = fit_null_params(series)
        assert fitted.rho == 0.0

    def test_no_lag1_pair_raises(self):
        # every other position observed: the lag-1 autocorrelation reads 0
        # whatever rho is, which gave rho = 0 and a far too narrow range
        series = simulate_poi_inar1(PoiInar1(3.0, 0.9), 2000, Seed(83))
        masked = apply_mask(series, np.array([1, 0] * 1000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no clamp warning comes first
            with pytest.raises(DegenerateSeriesError, match="no lag-1 pair"):
                fit_null_params(masked)
            with pytest.raises(DegenerateSeriesError, match="no lag-1 pair"):
                run_test_index(masked, NullSpec("poisson"), "dispersion")
        one_pair = np.array([1, 0] * 1000)
        one_pair[1] = 1
        with pytest.warns(UserWarning, match="estimated r"):
            assert fit_null_params(apply_mask(series, one_pair)).T == 2000
        compacted = NullSpec("poisson", ignore_missing=True)
        assert run_test_index(masked, compacted, "dispersion").fitted.T == 1000


class TestTestFromParams:
    def test_symmetric_interval_identity(self):
        rep = run_test_from_params("dispersion", "poisson", mu=3.0, rho=0.5, tau=0.8,
                               r=0.3, T=250, statistic=1.1)
        center = rep.null_value + rep.bias
        assert rep.lower_critical + rep.upper_critical == pytest.approx(2 * center, abs=1e-14)

    def test_peak_severity_reconstruction(self):
        rep = run_test_from_params("dispersion", "binomial", mu=0.6117, rho=0.3325,
                               tau=0.916, r=0.0, T=225, n=3, statistic=1.3451)
        assert rep.upper_critical == pytest.approx(1.1685, abs=5e-4)
        assert rep.decision == "reject"

    def test_peak_severity_skewness_reconstruction(self):
        rep = run_test_from_params("skewness", "binomial", mu=0.6117, rho=0.3325,
                               tau=0.916, r=0.0, T=225, n=3, statistic=0.3422)
        assert rep.null_value == pytest.approx(1 / 3)
        assert rep.lower_critical == pytest.approx(-0.1235, abs=5e-4)
        assert rep.upper_critical == pytest.approx(0.7337, abs=5e-4)
        assert rep.decision == "retain"

    def test_sidedness_flags(self):
        kwargs = dict(kind="dispersion", family="poisson", mu=3.0, rho=0.5,
                      tau=0.8, r=0.0, T=250)
        low = run_test_from_params(statistic=0.5, **kwargs)
        assert low.decision == "reject"
        upper_only = run_test_from_params(statistic=0.5, sided="upper", **kwargs)
        assert upper_only.decision == "retain"
        lower_only = run_test_from_params(statistic=0.5, sided="lower", **kwargs)
        assert lower_only.decision == "reject"

    def test_nan_statistic_retains(self):
        rep = run_test_from_params("dispersion", "poisson", mu=3.0, rho=0.5,
                               tau=0.8, r=0.0, T=250)
        assert np.isnan(rep.statistic) and rep.decision == "retain"

    def test_binomial_requires_n(self):
        with pytest.raises(ParameterError):
            run_test_from_params("dispersion", "binomial", mu=3.0, rho=0.5,
                             tau=0.8, r=0.0, T=250)

    def test_report_is_json_serializable(self):
        rep = run_test_from_params("skewness", "binomial", mu=3.0, rho=0.5,
                               tau=0.8, r=0.0, T=250, n=10, statistic=0.78)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["kind"] == "binomial-skewness"
        assert payload["fitted"]["n"] == 10
        assert payload["n_observed"] is None  # built from parameters alone


class TestTestIndex:
    def test_null_retained_on_null_data(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 2000, Seed(90))
        mask = simulate_markov_mask(MissingSpec(0.8, 0.6), 2000, Seed(91))
        rep = run_test_index(apply_mask(series, mask), NullSpec("poisson"), "dispersion")
        assert rep.decision == "retain"
        assert rep.fitted.T == 2000

    def test_overdispersed_data_rejected(self):
        rng = Seed(92).generator()
        values = rng.negative_binomial(5, 0.5, 2000)  # variance = 2 * mean
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # iid data: rho clamped at 0
            rep = run_test_index(
                CountSeries(values), NullSpec("poisson"), "dispersion"
            )
        assert rep.statistic > rep.upper_critical
        assert rep.decision == "reject"

    def test_binomial_null_on_bar1_data(self):
        series = simulate_bar1(Bar1(10, 0.3, 0.5), 2000, Seed(93))
        rep = run_test_index(series, NullSpec("binomial", n=10), "dispersion")
        assert rep.decision == "retain"
        assert rep.fitted.n == 10

    def test_report_counts_observed_positions(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 1500, Seed(96))
        masked = apply_mask(series, simulate_markov_mask(MissingSpec(0.7, 0.4), 1500, Seed(97)))
        for ignore in (False, True):
            null = NullSpec("poisson", ignore_missing=ignore)
            for rep in run_test_indices(masked, null, ("dispersion", "skewness")):
                assert rep.n_observed == masked.n_observed
                assert list(rep.to_dict())[-1] == "n_observed"

    def test_ignore_missing_compacts_series(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 3000, Seed(94))
        mask = simulate_markov_mask(MissingSpec(0.8, 0.0), 3000, Seed(95))
        masked = apply_mask(series, mask)
        rep = run_test_index(masked, NullSpec("poisson", ignore_missing=True), "dispersion")
        assert rep.fitted.T == masked.n_observed
        assert rep.fitted.tau == 1.0
        assert rep.fitted.r == 0.0

    def test_counts_above_binomial_bound_rejected(self):
        series = CountSeries([2, 9, 3, 12, 1], [1, 1, 1, 1, 1])
        for ignore in (False, True):
            null = NullSpec("binomial", n=8, ignore_missing=ignore)
            with pytest.raises(CountDiagError, match="count 9 at position 1 .*n=8"):
                run_test_index(series, null, "dispersion")

    def test_masked_counts_above_bound_ignored(self):
        series = simulate_bar1(Bar1(8, 0.4, 0.5), 300, Seed(97))
        values = series.values.copy()
        values[5] = 20
        mask = np.ones_like(values)
        mask[3:8] = 0
        rep = run_test_index(CountSeries(values, mask), NullSpec("binomial", n=8), "skewness")
        assert rep.fitted.n == 8

    def test_nearly_vacuous_test_flagged(self):
        # a step fits rho near 1; the critical range reaches below 0, where no
        # index can fall
        step = CountSeries([1] * 100 + [6] * 100)
        with pytest.warns(UserWarning, match=r"rho = 0\.9850 .*\[-1\.2560, 1\.9327\]"):
            rep = run_test_index(step, NullSpec("poisson"), "dispersion")
        assert rep.decision == "retain"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_test_index(step, NullSpec("poisson"), "dispersion", sided="upper")
            series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 500, Seed(98))
            for kind in ("dispersion", "skewness"):
                assert run_test_index(series, NullSpec("poisson"), kind).lower_critical > 0

    def test_unknown_kind_rejected(self):
        series = simulate_poi_inar1(PoiInar1(3.0, 0.5), 100, Seed(96))
        with pytest.raises(ParameterError):
            run_test_index(series, NullSpec("poisson"), "kurtosis")

    def test_several_kinds_fit_once_and_match_one_kind_calls(self, monkeypatch):
        import countdiag.diagnostics as diagnostics

        fits = []
        fit = diagnostics.fit_null_params

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "fit_null_params", counting_fit)
        series = simulate_bar1(Bar1(10, 0.3, 0.5), 500, Seed(99))
        mask = simulate_markov_mask(MissingSpec(0.6, 0.3), 500, Seed(100))
        masked = apply_mask(series, mask)
        for ignore in (False, True):
            null = NullSpec("binomial", n=10, ignore_missing=ignore)
            fits.clear()
            reports = run_test_indices(masked, null, ("dispersion", "skewness"))
            assert len(fits) == 1
            singles = [run_test_index(masked, null, kind) for kind in ("dispersion", "skewness")]
            assert [r.to_dict() for r in reports] == [r.to_dict() for r in singles]

    def test_clamp_warning_once_for_several_kinds(self):
        alternating = CountSeries([0, 5] * 100)  # lag-1 ACF near -1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_test_indices(alternating, NullSpec("poisson"), ("dispersion", "skewness"))
        clamps = [w for w in caught if "clamped to 0" in str(w.message)]
        assert len(clamps) == 1 and "rho = -0.9950" in str(clamps[0].message)


class TestNullSpec:
    def test_binomial_requires_n(self):
        with pytest.raises(ParameterError):
            NullSpec("binomial")

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            NullSpec("poisson", alpha=0.0)

    def test_n_rejected_for_poisson(self):
        with pytest.raises(ParameterError, match="'n' is only valid for the binomial family"):
            NullSpec("poisson", n=10)

    def test_marginal_params_reject_n_for_poisson(self):
        with pytest.raises(ParameterError, match="'n' is only valid for the binomial family"):
            marginal_params("poisson", 3.0, 10)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            NullSpec("gaussian")
