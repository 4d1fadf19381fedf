import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from countdiag import (
    BinomialArMoments,
    CountSeries,
    DegenerateSeriesError,
    ParameterError,
    PoissonArMoments,
    RawMoments,
    Seed,
    bbin_mixed_factorial,
    binomial_factorial_moment,
    bpoi_mixed_factorial,
    falling_factorial,
    lag0_mixed_factorial,
    poisson_factorial_moment,
    sample_factorial_moments,
    stirling2,
)
from countdiag.moments import Tally, _observed_mean, factorial_moments
from countdiag.simulate import _binomial_paths, _poisson_paths
from countdiag.simulate import _markov_mask_from_uniforms

from conftest import (
    binomial_lag_closed_form,
    binomial_support,
    brute_force_moment,
    falling_array,
    poisson_lag_closed_form,
    poisson_support,
)

PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


def reference_factorial_moments(values, mask, m, ends=None):
    """The elementwise masked loop: (X_t)_(k) per position in float64, summed
    over each row (or each prefix segment, accumulated) and divided by the
    observed count.  The oracle of the tally kernel."""
    observed = mask == 1
    x = np.where(observed, values, 0).astype(np.float64)
    if ends is None:
        def total(a, dtype=None):
            return a.sum(axis=-1, dtype=dtype)
    else:
        ends = np.asarray(ends, dtype=np.intp)
        starts = np.concatenate(([0], ends[:-1]))
        x, observed = x[..., : ends[-1]], observed[..., : ends[-1]]

        def total(a, dtype=None):
            return np.add.reduceat(a, starts, axis=-1, dtype=dtype).cumsum(axis=-1)
    n_obs = total(observed, np.intp)
    muhat = np.empty((m,) + n_obs.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            fk = fk * (x - k) if k else x
            muhat[k] = total(fk) / n_obs
    return muhat


class TestFallingFactorial:
    @pytest.mark.parametrize("x,k,expected", [(5, 2, 20), (3, 0, 1), (2, 3, 0), (0, 0, 1)])
    def test_values(self, x, k, expected):
        assert falling_factorial(x, k) == expected

    def test_exact_for_large_arguments(self):
        # stays exact well beyond 64-bit intermediate products
        import math

        assert falling_factorial(64, 20) == math.factorial(64) // math.factorial(44)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=6))
    def test_recurrence(self, x, k):
        assert falling_factorial(x, k + 1) == falling_factorial(x, k) * (x - k)

    def test_domain(self):
        with pytest.raises(ParameterError):
            falling_factorial(3, -1)
        with pytest.raises(ParameterError):
            falling_factorial(-2, 2)


class TestSampleFactorialMoments:
    def test_hand_values_fully_observed(self):
        muhat = sample_factorial_moments(CountSeries([2, 3, 1]), 2)
        assert muhat[0] == pytest.approx(2.0)
        assert muhat[1] == pytest.approx(8.0 / 3.0)

    def test_hand_values_masked(self):
        muhat = sample_factorial_moments(CountSeries([2, 3, 1], [1, 0, 1]), 1)
        assert muhat[0] == pytest.approx(1.5)

    def test_all_masked_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            sample_factorial_moments(CountSeries([2, 3, 1], [0, 0, 0]), 1)

    def test_zero_above_max_observed(self):
        muhat = sample_factorial_moments(CountSeries([1, 0, 1]), 3)
        assert muhat[1] == 0.0 and muhat[2] == 0.0

    def test_sentinel_never_read(self):
        rng = np.random.default_rng(3)
        values = rng.poisson(3, 200)
        mask = rng.integers(0, 2, 200)
        mask[0] = 1
        garbled = values.copy()
        garbled[mask == 0] = rng.integers(100, 10_000, int((mask == 0).sum()))
        a = sample_factorial_moments(CountSeries(values, mask), 3)
        b = sample_factorial_moments(CountSeries(garbled, mask), 3)
        assert np.array_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_prefix_ends_equal_per_prefix_calls(self, data):
        rows, T = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 40))
        cells = st.lists(st.integers(0, 50), min_size=rows * T, max_size=rows * T)
        values = np.array(data.draw(cells)).reshape(rows, T)
        mask = (np.array(data.draw(cells)).reshape(rows, T) % 2).astype(np.int8)
        mask[:, : data.draw(st.integers(0, T))] = 0  # some prefixes fully masked
        ends = sorted(data.draw(st.sets(st.integers(1, T), min_size=1)))
        m = data.draw(st.integers(1, 3))
        got = factorial_moments(values, mask, m, ends)
        assert got.shape == (m, rows, len(ends))
        for e, end in enumerate(ends):
            want = factorial_moments(values[:, :end], mask[:, :end], m)
            assert np.array_equal(got[..., e], want, equal_nan=True)
        assert np.array_equal(
            factorial_moments(values[0], mask[0], m, ends), got[:, 0], equal_nan=True
        )

    @pytest.mark.parametrize("ends", [[], [0], [3, 3], [2, 1], [6], [[1, 2]]])
    def test_prefix_ends_validated(self, ends):
        with pytest.raises(ParameterError, match="prefix ends"):
            factorial_moments(np.ones((2, 5)), np.ones((2, 5)), 1, ends)

    def test_unbiased_over_replications(self):
        # mean of muhat_(k) across replications matches the model moments
        R, T = 10_000, 200
        rng = Seed(314).generator()
        x = _poisson_paths(3.0, 0.5, T, R, rng).astype(np.float64)
        mask = _markov_mask_from_uniforms(rng.random((R, T)), 0.8, 0.6).astype(np.float64)
        n_obs = mask.sum(axis=1)
        for k in (1, 2, 3):
            est = (mask * falling_array(x, k)).sum(axis=1) / n_obs
            se = est.std(ddof=1) / np.sqrt(R)
            assert abs(est.mean() - 3.0**k) < 3 * se

    def test_long_series_consistency(self):
        T = 100_000
        rng = Seed(600).generator()
        x = _poisson_paths(3.0, 0.5, T, 1, rng)[0]
        mask = _markov_mask_from_uniforms(rng.random(T), 0.8, 0.6)
        muhat = sample_factorial_moments(CountSeries(x, mask), 1)
        # batch-means SE of the ratio estimator
        n_batches = 250
        xb = x[: (T // n_batches) * n_batches].reshape(n_batches, -1)
        ob = mask[: (T // n_batches) * n_batches].reshape(n_batches, -1)
        ratios = (ob * xb).sum(axis=1) / ob.sum(axis=1)
        se = ratios.std(ddof=1) / np.sqrt(n_batches)
        assert abs(muhat[0] - 3.0) < 3 * se


class TestTallyKernel:
    """The tally kernel against the elementwise loop.  Sums of integer-valued
    float64 below 2**53 are exact in any order, so the two agree bit for bit;
    ``array_equal`` also lets the loop's 0 * (0 - 1) = -0.0 equal 0.0."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_elementwise_loop(self, data):
        lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        T = data.draw(st.integers(1, 30))
        shape, size = lead + (T,), int(np.prod(lead + (T,)))
        top = data.draw(st.sampled_from([1, 5, 60, 20_000]))
        observed = st.integers(0, top)
        values = np.array(data.draw(st.lists(observed, min_size=size, max_size=size)))
        mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        values, mask = values.reshape(shape), mask.reshape(shape).astype(np.int8)
        if lead and data.draw(st.booleans()):
            mask[(0,) * (len(lead) - 1)] = 0  # one row with nothing observed
        garbage = st.integers(-(10**6), 10**6)
        hidden = mask == 0
        count = int(hidden.sum())
        values[hidden] = data.draw(st.lists(garbage, min_size=count, max_size=count))
        ends = data.draw(st.none() | st.sets(st.integers(1, T), min_size=1).map(sorted))
        m = data.draw(st.integers(1, 3))
        got = factorial_moments(values, mask, m, ends)
        want = reference_factorial_moments(values, mask, m, ends)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    def test_tally_reads_under_many_masks(self):
        rng = np.random.default_rng(11)
        x = _poisson_paths(3.0, 0.5, 300, 50, rng)
        tally = Tally(x.copy(), [40, 200, 300])
        for tau, r in ((0.9, 0.0), (0.6, 0.5), (0.3, 0.8)):
            mask = _markov_mask_from_uniforms(rng.random((50, 300)), tau, r)
            want = reference_factorial_moments(x, mask, 3, [40, 200, 300])
            assert np.array_equal(tally.moments(mask, 3), want, equal_nan=True)

    def test_tally_overwrites_int64_counts_only(self):
        x = np.array([[3, 1, 4], [1, 5, 9]])
        Tally(x)
        assert not np.array_equal(x, [[3, 1, 4], [1, 5, 9]])
        y = [[3, 1, 4], [1, 5, 9]]
        narrow = np.array(y, dtype=np.int32)
        Tally(narrow)
        assert np.array_equal(narrow, y)
        values = np.array(y)
        factorial_moments(values, np.ones((2, 3)), 2)
        assert np.array_equal(values, y)

    def test_order_validated(self):
        with pytest.raises(ParameterError, match="max order"):
            factorial_moments(np.ones(4), np.ones(4), 0)

    @staticmethod
    def _peak_bytes(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_count_of_a_billion(self):
        # the window stops at T values past the least count; the billion is
        # summed apart instead of widening the histogram to 10**9 bins
        rng = np.random.default_rng(5)
        T = 100_000
        values = rng.poisson(3, T)
        values[T // 2] = 10**9
        mask = (rng.random(T) < 0.8).astype(np.int8)
        mask[T // 2] = 1
        got, peak = self._peak_bytes(lambda: factorial_moments(values, mask, 3))
        assert peak < 4 * (values.nbytes + mask.nbytes)
        want = reference_factorial_moments(values, mask, 3)
        assert got[0] == want[0]  # order 1 sums stay below 2**53
        # orders 2 and 3 exceed 2**53: the loop's pairwise sum rounds within
        # about log2(T) ulps, the tally once when it adds the billion's term
        np.testing.assert_allclose(got[1:], want[1:], rtol=(np.log2(T) + 2) * np.finfo(float).eps)

    def test_wide_poisson_chunk(self):
        # mu = 1e4: counts span about a thousand values far from 0, and every
        # sum stays below 2**53.  With one length the window covers them; with
        # the grid's four prefix ends it is 250 wide, nearly every count lies
        # above it, and the kept-aside counts cost three int64 each.
        rng = np.random.default_rng(6)
        values = _poisson_paths(1e4, 0.5, 1000, 2048, rng)
        mask = _markov_mask_from_uniforms(rng.random((2048, 1000)), 0.8, 0.3)
        for ends, bound in ((None, 4), ([100, 250, 500, 1000], 8)):
            got, peak = self._peak_bytes(lambda: factorial_moments(values, mask, 3, ends))
            assert peak < bound * (values.nbytes + mask.nbytes)
            want = reference_factorial_moments(values, mask, 3, ends)
            assert np.array_equal(got, want, equal_nan=True)


class TestObservedMean:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_first_tallied_moment(self, data):
        # every observed sum stays below 200 * 2**40 < 2**53, where both are exact
        T = data.draw(st.integers(1, 200))
        top = data.draw(st.sampled_from([1, 60, 2**20, 2**40]))
        values = np.array(data.draw(st.lists(st.integers(0, top), min_size=T, max_size=T)))
        one = st.integers(0, T - 1).map(lambda t: [int(i == t) for i in range(T)])
        mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=T, max_size=T) | one))
        hidden = np.flatnonzero(mask == 0)
        garbage = st.integers(-(2**63), 2**63 - 1)  # never read
        values[hidden] = data.draw(st.lists(garbage, min_size=hidden.size, max_size=hidden.size))
        series = CountSeries(values, mask)
        if series.n_observed == 0:
            for mean in (_observed_mean, lambda s: sample_factorial_moments(s, 1)):
                with pytest.raises(DegenerateSeriesError, match="no observed positions"):
                    mean(series)
            return
        mean = _observed_mean(series)
        assert type(mean) is float
        assert mean.hex() == float(sample_factorial_moments(series, 1)[0]).hex()

    def test_counts_of_ten_to_the_eighteen_do_not_wrap(self):
        rng = np.random.default_rng(18)
        T = 100_000
        values = 10**18 + rng.integers(0, 10**17, T)
        mask = rng.random(T) < 0.8
        observed = [int(v) for v in values[mask]]
        assert values[mask].sum() != sum(observed)  # an int64 sum wraps here
        exact = Fraction(sum(observed), len(observed))
        mean = _observed_mean(CountSeries(values, mask))
        assert math.isfinite(mean)
        assert abs(Fraction(mean) - exact) <= Fraction(1e-15) * exact


class TestMarginalFactorialMoments:
    @pytest.mark.parametrize("mu,k,expected", [(3, 2, 9), (3, 0, 1), (2.5, 3, 15.625)])
    def test_poisson(self, mu, k, expected):
        assert poisson_factorial_moment(mu, k) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "n,pi,k,expected", [(10, 0.3, 2, 8.1), (3, 0.2, 4, 0.0), (10, 0.3, 1, 3.0)]
    )
    def test_binomial(self, n, pi, k, expected):
        assert binomial_factorial_moment(n, pi, k) == pytest.approx(expected)

    def test_binomial_matches_brute_force(self):
        support = binomial_support(10, 0.3)
        for k in range(0, 7):
            brute = brute_force_moment(lambda x: falling_array(x, k), support)
            assert binomial_factorial_moment(10, 0.3, k) == pytest.approx(brute, rel=1e-12)

    def test_poisson_matches_brute_force(self):
        support = poisson_support(3.0)
        for k in range(0, 7):
            brute = brute_force_moment(lambda x: falling_array(x, k), support)
            assert poisson_factorial_moment(3.0, k) == pytest.approx(brute, rel=1e-9)


class TestJointFactorialMoments:
    def test_poisson_lag1_order11(self):
        # mu^2 + mu * rho
        assert bpoi_mixed_factorial(3.0, 0.5, 1, 1, 1) == pytest.approx(10.5)

    def test_poisson_zero_order_convention(self):
        for s in range(0, 4):
            expected = poisson_factorial_moment(3.0, s) if s else 1.0
            assert bpoi_mixed_factorial(3.0, 0.5, 2, 0, s) == pytest.approx(expected)

    def test_poisson_lag2_order22(self):
        # mu^4 + 4 mu^3 rho^2 + 2 mu^2 rho^4
        assert bpoi_mixed_factorial(3.0, 0.5, 2, 2, 2) == pytest.approx(109.125)

    def test_binomial_lag1_order11(self):
        # n^2 pi^2 + n pi (1-pi) rho
        assert bbin_mixed_factorial(10, 0.3, 0.5, 1, 1, 1) == pytest.approx(10.05)

    def test_binomial_zero_order_convention(self):
        for s in range(0, 4):
            expected = binomial_factorial_moment(10, 0.3, s) if s else 1.0
            assert bbin_mixed_factorial(10, 0.3, 0.5, 3, 0, s) == pytest.approx(expected)

    def test_binomial_order_above_n_is_zero(self):
        assert bbin_mixed_factorial(3, 0.2, 0.5, 1, 4, 1) == 0.0

    def test_binomial_order22_against_simulation(self):
        # E[(X_t)_(2) (X_{t-1})_(2)] over simulated transitions
        rng = Seed(777).generator()
        paths = _binomial_paths(10, 0.3, 0.5, 500, 2000, rng).astype(np.float64)
        prod = falling_array(paths[:, 1:], 2) * falling_array(paths[:, :-1], 2)
        flat = prod.ravel()
        se = flat.std(ddof=1) / np.sqrt(prod.shape[0])  # rows are independent
        expected = bbin_mixed_factorial(10, 0.3, 0.5, 1, 2, 2)
        assert abs(flat.mean() - expected) < 3 * se

    def test_symmetry_exhaustive(self):
        for k in range(0, 4):
            for s in range(0, 4):
                for h in (1, 2, 3):
                    a = bpoi_mixed_factorial(3.0, 0.5, h, k, s)
                    b = bpoi_mixed_factorial(3.0, 0.5, h, s, k)
                    assert a == pytest.approx(b, rel=1e-12)
                    a = bbin_mixed_factorial(10, 0.3, 0.5, h, k, s)
                    b = bbin_mixed_factorial(10, 0.3, 0.5, h, s, k)
                    assert a == pytest.approx(b, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.floats(0.2, 20.0),
        rho=st.floats(0.0, 0.95),
        n=st.integers(4, 40),
        pi=st.floats(0.05, 0.95),
        h=st.integers(1, 4),
        k=st.integers(1, 3),
        s=st.integers(1, 3),
    )
    def test_symmetry_property(self, mu, rho, n, pi, h, k, s):
        a = bpoi_mixed_factorial(mu, rho, h, k, s)
        assert a == pytest.approx(bpoi_mixed_factorial(mu, rho, h, s, k), rel=1e-12)
        b = bbin_mixed_factorial(n, pi, rho, h, k, s)
        assert b == pytest.approx(bbin_mixed_factorial(n, pi, rho, h, s, k), rel=1e-12)

    def test_long_lag_factorization(self):
        for k, s in PAIRS:
            expected = poisson_factorial_moment(3.0, k) * poisson_factorial_moment(3.0, s)
            assert bpoi_mixed_factorial(3.0, 0.5, 200, k, s) == pytest.approx(
                expected, rel=1e-12
            )
            expected = binomial_factorial_moment(10, 0.3, k) * binomial_factorial_moment(
                10, 0.3, s
            )
            assert bbin_mixed_factorial(10, 0.3, 0.5, 200, k, s) == pytest.approx(
                expected, rel=1e-12
            )


class TestJointMomentClosedForms:
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("h", [1, 2, 3, 7])
    def test_poisson(self, pair, h):
        k, s = pair
        want = poisson_lag_closed_form(3.0, 0.5, h, k, s)
        assert bpoi_mixed_factorial(3.0, 0.5, h, k, s) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("h", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [10, 25])
    def test_binomial(self, pair, h, n):
        k, s = pair
        want = binomial_lag_closed_form(n, 3.0 / n, 0.5, h, k, s)
        assert bbin_mixed_factorial(n, 3.0 / n, 0.5, h, k, s) == pytest.approx(
            want, rel=1e-10
        )


class TestLag0MixedFactorial:
    def test_poisson_11(self):
        uni = [poisson_factorial_moment(3.0, k) for k in range(1, 7)]
        assert lag0_mixed_factorial(uni, 1, 1) == pytest.approx(12.0)

    def test_poisson_22_brute_force(self):
        uni = [poisson_factorial_moment(3.0, k) for k in range(1, 7)]
        support = poisson_support(3.0)
        brute = brute_force_moment(lambda x: (x * (x - 1)) ** 2, support)
        assert lag0_mixed_factorial(uni, 2, 2) == pytest.approx(207.0)
        assert lag0_mixed_factorial(uni, 2, 2) == pytest.approx(brute, rel=1e-9)

    def test_binomial_12_brute_force(self):
        uni = [binomial_factorial_moment(10, 0.3, k) for k in range(1, 7)]
        support = binomial_support(10, 0.3)
        brute = brute_force_moment(lambda x: x * falling_array(x, 2), support)
        assert lag0_mixed_factorial(uni, 1, 2) == pytest.approx(35.64)
        assert lag0_mixed_factorial(uni, 1, 2) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_all_pairs_brute_force(self, pair):
        k, s = pair
        for support, uni in (
            (poisson_support(3.0), [poisson_factorial_moment(3.0, j) for j in range(1, 7)]),
            (
                binomial_support(10, 0.3),
                [binomial_factorial_moment(10, 0.3, j) for j in range(1, 7)],
            ),
        ):
            brute = brute_force_moment(
                lambda x: falling_array(x, k) * falling_array(x, s), support
            )
            assert lag0_mixed_factorial(uni, k, s) == pytest.approx(brute, rel=1e-9)

    def test_conventions(self):
        uni = [poisson_factorial_moment(3.0, k) for k in range(1, 7)]
        assert lag0_mixed_factorial(uni, 0, 0) == 1.0
        assert lag0_mixed_factorial(uni, 0, 2) == pytest.approx(9.0)
        assert lag0_mixed_factorial(uni, 2, 0) == pytest.approx(9.0)

    def test_identity_beyond_order_three(self):
        uni = [binomial_factorial_moment(10, 0.3, j) for j in range(1, 7)]
        brute = brute_force_moment(
            lambda x: falling_array(x, 2) * falling_array(x, 4), binomial_support(10, 0.3)
        )
        assert lag0_mixed_factorial(uni, 2, 4) == pytest.approx(brute, rel=1e-9)

    def test_unsupported_pair(self):
        uni = [poisson_factorial_moment(3.0, k) for k in range(1, 7)]
        with pytest.raises(ParameterError):
            lag0_mixed_factorial(uni, 4, 4)


class TestRawMomentConversion:
    def test_stirling_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(6, 3) == 90
        assert stirling2(5, 0) == 0
        assert stirling2(0, 0) == 1


class TestMomentOracles:
    def test_lag0_dispatch(self):
        pm = PoissonArMoments(3.0, 0.5)
        uni = [pm.univariate(k) for k in range(1, 7)]
        for k, s in PAIRS:
            assert pm.mixed(k, s, 0) == pytest.approx(lag0_mixed_factorial(uni, k, s))

    def test_negative_lag_symmetry(self):
        bm = BinomialArMoments(10, 0.3, 0.5)
        assert bm.mixed(1, 2, -3) == pytest.approx(bm.mixed(2, 1, 3))

    def test_raw_view_lag0(self):
        rm = RawMoments(PoissonArMoments(3.0, 0.5))
        assert rm.mixed(2, 1, 0) == pytest.approx(rm.univariate(3))

    def test_raw_view_univariate_brute_force(self):
        rm = RawMoments(BinomialArMoments(10, 0.3, 0.5))
        support = binomial_support(10, 0.3)
        for k in range(1, 5):
            brute = brute_force_moment(lambda x: x**k, support)
            assert rm.univariate(k) == pytest.approx(brute, rel=1e-12)

    def test_raw_view_mixed_against_simulation(self):
        rm = RawMoments(PoissonArMoments(3.0, 0.5))
        rng = Seed(888).generator()
        paths = _poisson_paths(3.0, 0.5, 400, 2500, rng).astype(np.float64)
        prod = paths[:, 1:] ** 2 * paths[:, :-1]
        flat = prod.ravel()
        se = flat.std(ddof=1) / np.sqrt(prod.shape[0])
        assert abs(flat.mean() - rm.mixed(2, 1, 1)) < 3 * se
