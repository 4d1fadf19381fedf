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
    sample_factorial_moments,
    stirling2,
)
from countdiag.moments import Tally, _observed_mean, _popcount
from countdiag.simulate import _binomial_paths, _poisson_paths
from countdiag.simulate import _markov_mask_from_uniforms
from countdiag.series import _pack_mask, _unpack_mask

from conftest import (
    binomial_lag_closed_form,
    binomial_support,
    brute_force_moment,
    falling_array,
    poisson_lag_closed_form,
    poisson_support,
)

PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
POI, BIN = PoissonArMoments(3.0, 0.5), BinomialArMoments(10, 0.3, 0.5)


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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_masked_garbage_never_read(self, data):
        T = data.draw(st.integers(1, 30))
        top = data.draw(st.sampled_from([1, 5, 60, 20_000]))
        values = np.array(data.draw(st.lists(st.integers(0, top), min_size=T, max_size=T)))
        mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=T, max_size=T)))
        hidden = np.flatnonzero(mask == 0)
        garbage = st.integers(-(10**6), 10**6)
        values[hidden] = data.draw(st.lists(garbage, min_size=hidden.size, max_size=hidden.size))
        series, m = CountSeries(values, mask), data.draw(st.integers(1, 3))
        if hidden.size == T:
            with pytest.raises(DegenerateSeriesError, match="no observed positions"):
                sample_factorial_moments(series, m)
            return
        got = sample_factorial_moments(series, m)
        assert got.shape == (m,)
        assert np.array_equal(got, reference_factorial_moments(values, mask, m))

    # the prefix ends that the grid engine reads, through the tally itself
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
        got = Tally(values.copy(), ends).moments(_pack_mask(mask), m)
        assert got.shape == (m, rows, len(ends))
        for e, end in enumerate(ends):
            want = Tally(values[:, :end].copy(), [end]).moments(_pack_mask(mask[:, :end]), m)
            assert np.array_equal(got[..., e], want[..., 0], equal_nan=True)
        one_row = Tally(values[0].copy(), ends).moments(_pack_mask(mask[0]), m)
        assert np.array_equal(one_row, got[:, 0], equal_nan=True)

    @pytest.mark.parametrize("ends", [[], [0], [3, 3], [2, 1], [6], [[1, 2]]])
    def test_prefix_ends_validated(self, ends):
        with pytest.raises(ParameterError, match="prefix ends"):
            Tally(np.ones((2, 5), dtype=np.int64), ends)

    def test_unbiased_over_replications(self):
        # mean of muhat_(k) across replications matches the model moments
        R, T = 10_000, 200
        rng = Seed(314).generator()
        x = _poisson_paths(3.0, 0.5, T, R, rng).astype(np.float64)
        mask = _unpack_mask(_markov_mask_from_uniforms(rng.random((R, T)), 0.8, 0.6), T)
        mask = mask.astype(np.float64)
        n_obs = mask.sum(axis=1)
        for k in (1, 2, 3):
            est = (mask * falling_array(x, k)).sum(axis=1) / n_obs
            se = est.std(ddof=1) / np.sqrt(R)
            assert abs(est.mean() - 3.0**k) < 3 * se

    def test_long_series_consistency(self):
        T = 100_000
        rng = Seed(600).generator()
        x = _poisson_paths(3.0, 0.5, T, 1, rng)[0]
        mask = _unpack_mask(_markov_mask_from_uniforms(rng.random(T), 0.8, 0.6), T)
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
        values = np.array(data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size)))
        mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        values, mask = values.reshape(shape), mask.reshape(shape).astype(np.int8)
        if lead and data.draw(st.booleans()):
            mask[(0,) * (len(lead) - 1)] = 0  # one row with nothing observed
        ends = data.draw(st.just([T]) | st.sets(st.integers(1, T), min_size=1).map(sorted))
        m = data.draw(st.integers(1, 3))
        got = Tally(values.copy(), ends).moments(_pack_mask(mask), m)
        want = reference_factorial_moments(values, mask, m, ends)
        assert got.shape == want.shape == (m,) + lead + (len(ends),)
        assert np.array_equal(got, want, equal_nan=True)

    def test_tally_reads_under_many_masks(self):
        rng = np.random.default_rng(11)
        x = _poisson_paths(3.0, 0.5, 300, 50, rng)
        tally = Tally(x.copy(), [40, 200, 300])
        for tau, r in ((0.9, 0.0), (0.6, 0.5), (0.3, 0.8)):
            mask = _unpack_mask(_markov_mask_from_uniforms(rng.random((50, 300)), tau, r), 300)
            want = reference_factorial_moments(x, mask, 3, [40, 200, 300])
            assert np.array_equal(tally.moments(_pack_mask(mask), 3), want, equal_nan=True)

    def test_tally_overwrites_int64_counts_only(self):
        x = np.array([[3, 1, 4], [1, 5, 9]])
        Tally(x, [3])
        assert not np.array_equal(x, [[3, 1, 4], [1, 5, 9]])
        y = [[3, 1, 4], [1, 5, 9]]
        narrow = np.array(y, dtype=np.int32)
        Tally(narrow, [3])
        assert np.array_equal(narrow, y)
        series = CountSeries(y[0])
        sample_factorial_moments(series, 2)
        assert np.array_equal(series.values, y[0])

    def test_order_validated(self):
        with pytest.raises(ParameterError, match="max order"):
            Tally(np.ones(4, dtype=np.int64), [4]).moments(np.ones(4), 0)

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
        series = CountSeries(values, mask)
        # the measured call includes the copy that fills the masked positions
        got, peak = self._peak_bytes(lambda: sample_factorial_moments(series, 3))
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
        mask = _unpack_mask(_markov_mask_from_uniforms(rng.random((2048, 1000)), 0.8, 0.3), 1000)
        words = _pack_mask(mask)
        for ends, bound in (([1000], 4), ([100, 250, 500, 1000], 8)):
            # the measured call includes the copy that the tally overwrites
            got, peak = self._peak_bytes(lambda: Tally(values.copy(), ends).moments(words, 3))
            assert peak < bound * (values.nbytes + mask.nbytes)
            want = reference_factorial_moments(values, mask, 3, ends)
            assert np.array_equal(got, want, equal_nan=True)


class TestTallyLayouts:
    """Counts that span at most 64 values are read from bit planes, any others
    from histogram keys; both give the elementwise loop's moments."""

    @staticmethod
    def _rows(span, rows=6, T=150, lo=7, seed=0):
        rng = np.random.default_rng(seed)
        values = lo + rng.integers(0, span, size=(rows, T))
        values[0, :2] = lo, lo + span - 1  # the span is exactly ``span`` values
        mask = (rng.random((rows, T)) < 0.7).astype(np.int8)
        return values, mask

    @pytest.mark.parametrize("span, planes", [(1, True), (64, True), (65, False)])
    @pytest.mark.parametrize("ends", [[150], [1, 64, 100, 128, 150]])
    def test_span_of_64_values_picks_planes(self, span, planes, ends):
        values, mask = self._rows(span)
        tally = Tally(values.copy(), ends)
        assert hasattr(tally, "planes") == planes
        got = tally.moments(_pack_mask(mask), 3)
        want = reference_factorial_moments(values, mask, 3, ends)
        assert np.array_equal(got, want, equal_nan=True)

    def test_one_far_count_moves_a_chunk_onto_keys(self):
        values, mask = self._rows(20)
        ends = [50, 150]
        assert hasattr(Tally(values.copy(), ends), "planes")
        values[3, 77] = 10**6
        mask[3, 77] = 1
        tally = Tally(values.copy(), ends)
        assert not hasattr(tally, "planes")
        got = tally.moments(_pack_mask(mask), 3)
        want = reference_factorial_moments(values, mask, 3, ends)
        assert got[0, 3, 1] == want[0, 3, 1]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    @pytest.mark.parametrize("span", [30, 200])
    def test_ends_off_word_bounds_and_a_longer_mask(self, span):
        # the mask runs 70 steps past the counts, into words the tally never spans
        values, mask = self._rows(span, T=300, seed=1)
        ends = [1, 63, 65, 129, 200, 230]
        counts = values[:, :230]
        tally = Tally(counts.copy(), ends)
        assert hasattr(tally, "planes") == (span <= 64)
        got = tally.moments(_pack_mask(mask), 2)
        want = reference_factorial_moments(counts, mask[:, :230], 2, ends)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("T", [1, 63, 64, 65, 1000])
    def test_pack_unpack_round_trip(self, T):
        mask = (np.random.default_rng(T).random((3, 2, T)) < 0.5).astype(np.int8)
        words = _pack_mask(mask)
        assert words.dtype == np.dtype("<u8") and words.shape == (3, 2, -(-T // 64))
        for i, j, t in ((0, 0, 0), (2, 1, T - 1), (1, 0, T // 2)):
            assert (int(words[i, j, t // 64]) >> (t % 64)) & 1 == mask[i, j, t]
        assert all(int(w) >> (T % 64) == 0 for w in words[..., -1].ravel() if T % 64)
        back = _unpack_mask(words, T)
        assert back.dtype == np.int8 and np.array_equal(back, mask)

    @pytest.mark.parametrize("bitwise_count", [True, False])
    def test_popcount_equals_a_plain_loop(self, monkeypatch, bitwise_count):
        if not bitwise_count:
            monkeypatch.delattr(np, "bitwise_count", raising=False)
        elif not hasattr(np, "bitwise_count"):
            pytest.skip("numpy before 2.0 has no bitwise_count")
        rng = np.random.default_rng(9)
        words = rng.integers(0, 2**64, size=(3, 40), dtype=np.uint64, endpoint=False)
        words[0, :3] = 0, 2**64 - 1, 2**63
        got = _popcount(words)
        assert got.shape == words.shape
        assert got.tolist() == [[bin(int(w)).count("1") for w in row] for row in words]


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
        assert PoissonArMoments(mu, 0.5).univariate(k) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "n,pi,k,expected", [(10, 0.3, 2, 8.1), (3, 0.2, 4, 0.0), (10, 0.3, 1, 3.0)]
    )
    def test_binomial(self, n, pi, k, expected):
        assert BinomialArMoments(n, pi, 0.5).univariate(k) == pytest.approx(expected)

    def test_binomial_matches_brute_force(self):
        support = binomial_support(10, 0.3)
        for k in range(0, 7):
            brute = brute_force_moment(lambda x: falling_array(x, k), support)
            assert BIN.univariate(k) == pytest.approx(brute, rel=1e-12)

    def test_poisson_matches_brute_force(self):
        support = poisson_support(3.0)
        for k in range(0, 7):
            brute = brute_force_moment(lambda x: falling_array(x, k), support)
            assert POI.univariate(k) == pytest.approx(brute, rel=1e-9)


class TestJointFactorialMoments:
    def test_poisson_lag1_order11(self):
        # mu^2 + mu * rho
        assert POI.mixed(1, 1, 1) == pytest.approx(10.5)

    def test_poisson_zero_order_convention(self):
        for s in range(0, 4):
            expected = POI.univariate(s)
            assert POI.mixed(0, s, 2) == pytest.approx(expected)

    def test_poisson_lag2_order22(self):
        # mu^4 + 4 mu^3 rho^2 + 2 mu^2 rho^4
        assert POI.mixed(2, 2, 2) == pytest.approx(109.125)

    def test_binomial_lag1_order11(self):
        # n^2 pi^2 + n pi (1-pi) rho
        assert BIN.mixed(1, 1, 1) == pytest.approx(10.05)

    def test_binomial_zero_order_convention(self):
        for s in range(0, 4):
            expected = BIN.univariate(s)
            assert BIN.mixed(0, s, 3) == pytest.approx(expected)

    def test_binomial_order_above_n_is_zero(self):
        assert BinomialArMoments(3, 0.2, 0.5).mixed(4, 1, 1) == 0.0

    def test_binomial_order22_against_simulation(self):
        # E[(X_t)_(2) (X_{t-1})_(2)] over simulated transitions
        rng = Seed(777).generator()
        paths = _binomial_paths(10, 0.3, 0.5, 500, 2000, rng).astype(np.float64)
        prod = falling_array(paths[:, 1:], 2) * falling_array(paths[:, :-1], 2)
        flat = prod.ravel()
        se = flat.std(ddof=1) / np.sqrt(prod.shape[0])  # rows are independent
        expected = BIN.mixed(2, 2, 1)
        assert abs(flat.mean() - expected) < 3 * se

    def test_symmetry_exhaustive(self):
        for k in range(0, 4):
            for s in range(0, 4):
                for h in (1, 2, 3):
                    a = POI.mixed(k, s, h)
                    b = POI.mixed(s, k, h)
                    assert a == pytest.approx(b, rel=1e-12)
                    a = BIN.mixed(k, s, h)
                    b = BIN.mixed(s, k, h)
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
        a = PoissonArMoments(mu, rho).mixed(k, s, h)
        assert a == pytest.approx(PoissonArMoments(mu, rho).mixed(s, k, h), rel=1e-12)
        b = BinomialArMoments(n, pi, rho).mixed(k, s, h)
        assert b == pytest.approx(BinomialArMoments(n, pi, rho).mixed(s, k, h), rel=1e-12)

    def test_long_lag_factorization(self):
        for k, s in PAIRS:
            expected = POI.univariate(k) * POI.univariate(s)
            assert POI.mixed(k, s, 200) == pytest.approx(expected, rel=1e-12)
            expected = BIN.univariate(k) * BIN.univariate(s)
            assert BIN.mixed(k, s, 200) == pytest.approx(expected, rel=1e-12)


class TestJointMomentClosedForms:
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("h", [1, 2, 3, 7])
    def test_poisson(self, pair, h):
        k, s = pair
        want = poisson_lag_closed_form(3.0, 0.5, h, k, s)
        assert POI.mixed(k, s, h) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("h", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [10, 25])
    def test_binomial(self, pair, h, n):
        k, s = pair
        want = binomial_lag_closed_form(n, 3.0 / n, 0.5, h, k, s)
        assert BinomialArMoments(n, 3.0 / n, 0.5).mixed(k, s, h) == pytest.approx(
            want, rel=1e-10
        )


class TestLag0MixedFactorial:
    def test_poisson_11(self):
        assert POI.mixed(1, 1, 0) == pytest.approx(12.0)

    def test_poisson_22_brute_force(self):
        support = poisson_support(3.0)
        brute = brute_force_moment(lambda x: (x * (x - 1)) ** 2, support)
        assert POI.mixed(2, 2, 0) == pytest.approx(207.0)
        assert POI.mixed(2, 2, 0) == pytest.approx(brute, rel=1e-9)

    def test_binomial_12_brute_force(self):
        support = binomial_support(10, 0.3)
        brute = brute_force_moment(lambda x: x * falling_array(x, 2), support)
        assert BIN.mixed(1, 2, 0) == pytest.approx(35.64)
        assert BIN.mixed(1, 2, 0) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_all_pairs_brute_force(self, pair):
        k, s = pair
        for support, oracle in ((poisson_support(3.0), POI), (binomial_support(10, 0.3), BIN)):
            brute = brute_force_moment(
                lambda x: falling_array(x, k) * falling_array(x, s), support
            )
            assert oracle.mixed(k, s, 0) == pytest.approx(brute, rel=1e-9)

    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    def test_orders_up_to_eight_brute_force(self, family):
        oracle, support = {
            "poisson": (POI, poisson_support(3.0)),
            "binomial": (BIN, binomial_support(10, 0.3)),
        }[family]
        for k in range(9):
            for s in range(9 - k):
                brute = brute_force_moment(
                    lambda x: falling_array(x, k) * falling_array(x, s), support
                )
                assert oracle.mixed(k, s, 0) == pytest.approx(brute, rel=1e-9), (k, s)

    def test_conventions(self):
        assert POI.mixed(0, 0, 0) == 1.0
        assert POI.mixed(0, 2, 0) == pytest.approx(9.0)
        assert POI.mixed(2, 0, 0) == pytest.approx(9.0)

    def test_identity_beyond_order_three(self):
        brute = brute_force_moment(
            lambda x: falling_array(x, 2) * falling_array(x, 4), binomial_support(10, 0.3)
        )
        assert BIN.mixed(2, 4, 0) == pytest.approx(brute, rel=1e-9)

    def test_unsupported_pair(self):
        # orders are integers >= 0 and the lag an integer of either sign
        for k, s, h, name in [(4, -1, 0, "s"), (1.5, 1, 0, "k"), (1, 1, 0.5, "h"),
                              (1, 1, True, "h"), (1, 1, -2.0, "h"), (1, 1, "0", "h")]:
            for oracle in (POI, BIN):
                with pytest.raises(ParameterError, match=f"^{name} must "):
                    oracle.mixed(k, s, h)


class TestRawMomentConversion:
    def test_stirling_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(6, 3) == 90
        assert stirling2(5, 0) == 0
        assert stirling2(0, 0) == 1


class TestMomentOracles:
    def test_lag0_dispatch(self):
        # lag zero reads the marginal law only: rho drops out, order 0 is univariate
        for k, s in PAIRS:
            assert POI.mixed(k, s, 0) == PoissonArMoments(3.0, 0.9).mixed(k, s, 0)
            assert BIN.mixed(k, s, 0) == BinomialArMoments(10, 0.3, 0.0).mixed(k, s, 0)
            assert POI.mixed(k, 0, 0) == POI.univariate(k)
            assert BIN.mixed(0, s, 0) == BIN.univariate(s)

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
