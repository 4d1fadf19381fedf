import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
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
from countdiag import simulate
from countdiag.series import _unpack_mask
from countdiag.simulate import (
    _binomial_paths,
    _binomial_rows,
    _markov_mask_from_uniforms,
    _poisson_paths,
    _poisson_rows,
)

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

    def test_thinnings_rounded_out_of_the_unit_interval_rejected(self):
        # one ulp inside the admissible bound, alpha = pi*(1-rho) + rho rounds below 0
        with pytest.raises(ParameterError, match=r"^rho=-0\.05949407634450964 rounds the thinning"):
            Bar1(10, 0.056153288322080525, -0.05949407634450964)

    def test_rho_one_ulp_inside_the_bound(self, monkeypatch):
        # each model is either rejected or simulated on both routes of the
        # kernel: with no table (a budget of 0 entries) and with its table
        rejected = 0
        for pi in [0.056153288322080525, *np.random.default_rng(5).random(300).tolist()]:
            rho = math.nextafter(max(-pi / (1.0 - pi), -(1.0 - pi) / pi), 1.0)
            try:
                spec = Bar1(10, pi, rho)
            except ParameterError:
                rejected += 1
                continue
            for table, T in ((0, 50), (simulate._TABLE, 20_000)):
                monkeypatch.setattr(simulate, "_TABLE", table)
                assert (_binomial_rows(10, 0.5, 0.5) is None) == (table == 0)
                x = simulate_bar1(spec, T, Seed(1)).values
                assert x.min() >= 0 and x.max() <= 10
        assert 1 <= rejected < 30


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


class TestPinnedStreams:
    """Recorded draws of fixed seeds, so that a kernel change that moves a
    stream fails here rather than only shifting Monte Carlo columns."""

    # The PoINAR(1) pins run a large mu, whose model has no transition table,
    # on the exact two-draw step, and mu = 3 on the inversion table; the
    # BAR(1) pins run a short and a long path on the table.

    def test_poi_inar1_single_path(self):
        assert _poisson_rows(5000.0, 0.5) is None
        x = simulate_poi_inar1(PoiInar1(5000, 0.5), 500, Seed(7)).values
        assert x[:8].tolist() == [5025, 4931, 4952, 4949, 4939, 5023, 5036, 5033]
        assert _sha256(x) == "c25e3083c36a38054d923f46d857ea3324246f33371d826d6262d88ccf3a2840"
        assert _poisson_rows(3.0, 0.5) is not None
        x = simulate_poi_inar1(PoiInar1(3, 0.5), 20_000, Seed(7)).values
        assert x[:20].tolist() == [4, 5, 0, 3, 4, 3, 2, 2, 2, 2, 2, 3, 7, 6, 5, 8, 4, 2, 3, 1]
        assert _sha256(x) == "8f7dec0df926f77d45f290057cf0171566c303484d1b802b4781847942f8c32e"

    def test_bar1_single_path(self):
        alpha, beta = 0.3 * 0.5 + 0.5, 0.3 * 0.5
        assert _binomial_rows(10, alpha, beta) is not None
        x = simulate_bar1(Bar1(10, 0.3, 0.5), 500, Seed(7)).values
        assert x[:20].tolist() == [3, 5, 5, 3, 2, 4, 0, 3, 4, 3, 2, 2, 2, 2, 2, 3, 6, 6, 5, 7]
        assert _sha256(x) == "30e95fe830e56e07fe1c4bd5f7784a844d8985aac89b5749c1cc5c64ed2a1ea3"
        x = simulate_bar1(Bar1(10, 0.3, 0.5), 5000, Seed(7)).values
        assert x[:20].tolist() == [3, 5, 5, 3, 2, 4, 0, 3, 4, 3, 2, 2, 2, 2, 2, 3, 6, 6, 5, 7]
        assert _sha256(x) == "27fe97e8d0ce7adb8cc1c18320c6caabcb3a388c1e34e2a67e982f9696fb7a41"

    def test_batched_paths(self):
        x = _poisson_paths(3.0, 0.5, 200, 3, np.random.default_rng(7))
        assert x[:, :4].tolist() == [[4, 2, 3, 3], [1, 2, 7, 9], [4, 3, 4, 2]]
        assert _sha256(x) == "c53dd08e5ab9212d9b029820eba02bd0111c54cc16d2cb8ee26ada3aaaa6eeae"
        x = _poisson_paths(3.0, 0.5, 5000, 64, np.random.default_rng(7))  # three blocks
        assert x[:4, :4].tolist() == [[4, 1, 6, 3], [1, 3, 1, 2], [4, 4, 4, 5], [3, 2, 4, 5]]
        assert _sha256(x) == "e9176100b3837215a3fbc0d4218ef3a19d74cb6d16d5638974655ec97e8a165d"
        y = _binomial_paths(10, 0.3, 0.5, 200, 3, np.random.default_rng(7))
        assert y[:, :4].tolist() == [[3, 2, 0, 1], [5, 3, 4, 3], [4, 5, 5, 3]]
        assert _sha256(y) == "2a008948043a9d1cb19ab07e0c12e1cc327b53964e5b5c04a5c96d43f075d488"
        y = _binomial_paths(10, 0.3, 0.5, 1000, 256, np.random.default_rng(7))  # two blocks
        assert y[:4, :4].tolist() == [[3, 1, 0, 2], [5, 5, 5, 4], [4, 4, 5, 6], [2, 2, 2, 4]]
        assert _sha256(y) == "945836341f777d4cd95db21a045adabb08fe50da10f48b66b4ebb417b09aa078"

    @pytest.mark.parametrize(
        "tau, r, head, digest",
        [
            (0.8, 0.6, [1] * 16 + [0] * 4,
             "2c9aca2785947a70f3d6cfa5f918a0a1bb66276e83b9bc286ee6fc8c4595fe5b"),
            (0.6, 0.0, [0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0],
             "675ffb8f372de7128d2e30f23c4c98fbb2e6d3cec9a239deef3d062969fb9e98"),
        ],
    )
    def test_markov_mask(self, tau, r, head, digest):
        mask = simulate_markov_mask(MissingSpec(tau, r), 1000, Seed(7))
        assert mask[:20].tolist() == head
        assert _sha256(mask) == digest

    def test_batched_mask(self):
        u = np.random.default_rng(7).random((3, 200))
        mask = _unpack_mask(_markov_mask_from_uniforms(u, 0.8, 0.6), 200)
        assert mask[:, :10].tolist() == [
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 1, 1, 1, 1, 0, 0, 1],
            [1, 0, 1, 1, 1, 0, 0, 0, 1, 1],
        ]
        assert _sha256(mask) == "9990a5d1e832ebe76f7f0d74ec41ac6ea127458234bc7bc71cf640d03ce1c2a6"


def reference_markov_mask(u, tau, r):
    """The index-array latch that the mask kernel replaced: the state is set
    to 1 below P(1|0), to 0 at or above P(1|1) and to u < tau in the first
    column, and every other step takes the state at the last set index."""
    p_gain = tau * (1.0 - r)
    p_stay = tau + (1.0 - tau) * r
    T = u.shape[-1]
    state = np.full(u.shape, -1, dtype=np.int8)
    state[u < p_gain] = 1
    state[u >= p_stay] = 0
    state[..., 0] = (u[..., 0] < tau).astype(np.int8)
    idx = np.where(state >= 0, np.arange(T), 0)
    np.maximum.accumulate(idx, axis=-1, out=idx)
    return np.take_along_axis(state, idx, axis=-1)


@st.composite
def mask_inputs(draw):
    """Uniforms of 1 to 3 dimensions with T >= 1, some set exactly at the
    thresholds P(1|0), P(1|1) and tau, for a law tau in (0, 1], r in [0, 1)."""
    tau = draw(st.floats(0.0, 1.0, exclude_min=True))
    r = draw(st.floats(0.0, 1.0, exclude_max=True))
    edges = [tau * (1.0 - r), tau + (1.0 - tau) * r, tau]
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12))
    uniform = st.floats(0.0, 1.0, exclude_max=True)
    u = draw(arrays(np.float64, shape, elements=st.one_of(uniform, st.sampled_from(edges))))
    return u, tau, r


@st.composite
def word_mask_inputs(draw):
    """Uniforms of 1 to 3 dimensions whose T lies at and around the 64-step
    words of the kernel, some set exactly at the thresholds, for a law with r
    up to 0.9999: long runs of copy steps carry across words."""
    tau = draw(st.floats(0.0, 1.0, exclude_min=True))
    r = draw(st.one_of(st.floats(0.0, 0.9999), st.sampled_from([0.9, 0.99, 0.999, 0.9999])))
    edges = [tau * (1.0 - r), tau + (1.0 - tau) * r, tau]
    T = draw(st.sampled_from([63, 64, 65, 127, 128, 129, 1000]))
    rows = draw(st.lists(st.integers(1, 3), max_size=2))
    seed = draw(st.integers(0, 2**32 - 1))
    u = np.random.default_rng(seed).random((*rows, T))
    at = draw(st.lists(st.integers(0, u.size - 1), max_size=20))
    u.flat[at] = draw(st.lists(st.sampled_from(edges), min_size=len(at), max_size=len(at)))
    return u, tau, r


def _with_edges(u, tau, r):
    """A copy of ``u`` with many values set exactly at P(1|0), P(1|1) and tau."""
    u = u.copy()
    u.flat[::3] = tau * (1.0 - r)
    u.flat[1::3] = tau + (1.0 - tau) * r
    u.flat[2::5] = tau
    return u, tau, r


_EDGE_U = np.random.default_rng(3).random((4, 30))


def _assert_equals_reference_latch(u, tau, r):
    expected = reference_markov_mask(u, tau, r)
    got = _unpack_mask(_markov_mask_from_uniforms(u, tau, r), u.shape[-1])
    assert got.dtype == expected.dtype == np.int8
    assert got.shape == expected.shape
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, expected)


class TestMaskKernel:
    @settings(max_examples=300, deadline=None)
    @given(mask_inputs())
    @example(_with_edges(_EDGE_U, 0.7, 0.0))
    @example(_with_edges(_EDGE_U, 1.0, 0.4))
    @example(_with_edges(_EDGE_U, 1.0, 0.0))
    @example(_with_edges(_EDGE_U[0], 0.3, 0.9))
    @example(_with_edges(_EDGE_U.reshape(2, 3, 20), 0.5, 0.5))
    @example((np.array([0.25]), 0.5, 0.5))
    def test_equals_reference_latch(self, inputs):
        _assert_equals_reference_latch(*inputs)

    @settings(max_examples=200, deadline=None)
    @given(word_mask_inputs())
    def test_equals_reference_latch_across_words(self, inputs):
        _assert_equals_reference_latch(*inputs)

    @pytest.mark.parametrize("first, state", [(0.1, 1), (0.95, 0)])
    def test_copy_steps_carry_the_first_state_through_every_word(self, first, state):
        # every step after the first lies between P(1|0) and P(1|1), so it
        # copies: a gain in column 0 carries across all 1563 words
        tau, r = 0.9, 0.999
        u = np.full(100_000, 0.5)
        u[0] = first
        assert tau * (1.0 - r) <= 0.5 < tau + (1.0 - tau) * r
        mask = _unpack_mask(_markov_mask_from_uniforms(u, tau, r), u.size)
        assert mask.dtype == np.int8 and mask.shape == u.shape
        assert np.all(mask == state)

    def test_leaves_uniforms_unchanged(self):
        u = _EDGE_U.copy()
        _markov_mask_from_uniforms(u, 0.8, 0.6)
        assert np.array_equal(u, _EDGE_U)


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
        s = CountSeries([2, 3, 1])
        out = apply_mask(s, [1, 1, 1])
        assert np.array_equal(out.values, [2, 3, 1])
        assert out.n_observed == 3

    def test_partial_mask_hides_values(self):
        out = apply_mask(CountSeries([2, 3, 1]), [1, 0, 1])
        assert out.n_observed == 2
        assert list(out.observed_values()) == [2, 1]
        assert out.values[1] == 0  # sentinel

    def test_fully_masked_accepted(self):
        out = apply_mask(CountSeries([2, 3, 1]), [0, 0, 0])
        assert out.n_observed == 0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            apply_mask(CountSeries([2, 3, 1]), [1, 0])


# ---------------------------------------------------------------------------
# The inversion kernel: transition tables, routes and an independent oracle
# ---------------------------------------------------------------------------

TAIL = 2.0**-53


def _bar1_probs(pi, rho):
    return pi * (1.0 - rho) + rho, pi * (1.0 - rho)


def poisson_pmf(lam, j):
    return math.exp(-lam) * lam**j / math.factorial(j)


def transition_pmf(model, k, j):
    """P(X_t = j | X_{t-1} = k), summed term by term with math.comb and
    math.exp: ("poisson", mu, rho) is Bin(k, rho) * Poi(mu(1-rho)) and
    ("binomial", n, pi, rho) is Bin(k, alpha) * Bin(n-k, beta)."""
    if model[0] == "poisson":
        _, mu, rho = model
        lam = mu * (1.0 - rho)
        return math.fsum(
            math.comb(k, i) * rho**i * (1.0 - rho) ** (k - i) * poisson_pmf(lam, j - i)
            for i in range(min(j, k) + 1)
        )
    _, n, pi, rho = model
    a, b = _bar1_probs(pi, rho)
    return math.fsum(
        math.comb(k, i) * a**i * (1.0 - a) ** (k - i)
        * math.comb(n - k, j - i) * b ** (j - i) * (1.0 - b) ** (n - k - j + i)
        for i in range(max(0, j - (n - k)), min(j, k) + 1)
    )


def upper_tail(pmf, start):
    """sum_{j >= start} pmf(j), from terms that fall away fast beyond ``start``."""
    return math.fsum(pmf(j) for j in range(start, start + 100))


def oracle_paths(model, x0, u):
    """Inversion of the independent pmf in pure Python: x_t is the least j
    whose cumulative transition probability from x_{t-1} exceeds u."""
    pmf = functools.cache(lambda k, j: transition_pmf(model, k, j))
    paths = []
    for x, column in zip(np.atleast_1d(x0).tolist(), np.atleast_2d(u.T).tolist()):
        path = [x]
        for v in column:
            j, cdf = 0, pmf(x, 0)
            while v >= cdf:
                j += 1
                cdf += pmf(x, j)
            x = j
            path.append(x)
        paths.append(path)
    return np.array(paths, dtype=np.int64)


def model_kernel(model, rng):
    """The (rows, step) that the model's path function hands to _paths."""
    if model[0] == "poisson":
        return simulate._poisson_chain(*model[1:], rng)
    return simulate._binomial_chain(*model[1:], rng)


def model_rows(model):
    """The transition table rows of ``model``."""
    return model_kernel(model, None)[0]()


class TestInversionOracle:
    """The kernel reproduces, draw for draw, inversion over a pmf computed
    independently, fed the same x_0 and uniforms."""

    @pytest.mark.parametrize(
        "model, T, count",
        [
            (("poisson", 3.0, 0.5), 2000, 8),
            (("poisson", 3.0, 0.0), 2000, 8),
            (("poisson", 1.5, 0.9), 2000, 8),
            (("poisson", 3.0, 0.5), 20_000, 1),
            (("poisson", 3.0, 0.5), 2500, 64),  # two blocks of uniforms
            (("binomial", 10, 0.3, 0.5), 500, 4),
            (("binomial", 25, 0.12, -0.1), 2000, 4),
            (("binomial", 2, 0.7, -0.4), 300, 4),
            (("binomial", 8, 0.55, 0.8), 3000, 1),
            (("poisson", 60.0, 0.5), 2000, 1),  # a large table, few of its rows visited
        ],
    )
    def test_paths_equal_the_oracle(self, model, T, count):
        assert model_rows(model) is not None  # the table route
        size = None if count == 1 else count
        if model[0] == "poisson":
            got = _poisson_paths(*model[1:], T, count, np.random.default_rng(5))
            rng = np.random.default_rng(5)
            x0 = rng.poisson(model[1], size=size)
        else:
            got = _binomial_paths(*model[1:], T, count, np.random.default_rng(5))
            rng = np.random.default_rng(5)
            x0 = rng.binomial(model[1], model[2], size=size)
        u = rng.random(T - 1 if count == 1 else (T - 1, count))
        assert np.array_equal(got, oracle_paths(model, x0, u))


class TestTransitionTable:
    @pytest.mark.parametrize(
        "model",
        [
            ("poisson", 3.0, 0.0),
            ("poisson", 3.0, 0.5),
            ("poisson", 3.0, 0.99),
            ("poisson", 0.2, 0.5),
            ("binomial", 1, 0.3, 0.5),
            ("binomial", 2, 0.3, 0.0),
            ("binomial", 25, 0.3, -3 / 7 + 1e-9),  # alpha near 0
            ("binomial", 25, 0.7, -3 / 7 + 1e-9),  # beta near 1
            ("binomial", 25, 0.3, 1 - 1e-9),  # alpha near 1, beta near 0
            ("binomial", 25, 0.12, 0.5),
        ],
    )
    def test_rows_are_the_exact_pmf(self, model):
        pmf = model_rows(model)
        K, J = pmf.shape
        want = np.array([[transition_pmf(model, k, j) for j in range(J)] for k in range(K)])
        assert np.abs(pmf - want).max() < 1e-13
        if model[0] == "binomial":  # every state, over its whole support
            assert K == J == model[1] + 1
            assert np.abs(pmf.sum(axis=1) - 1.0).max() < 1e-13
            return
        mu = model[1]
        stationary = functools.partial(poisson_pmf, mu)
        assert upper_tail(stationary, K) < TAIL <= upper_tail(stationary, K - 1)
        for k in range(K):
            assert upper_tail(functools.partial(transition_pmf, model, k), J) < TAIL

    def test_table_budget_after_the_early_exit(self):
        # 8 mu^2 fits the budget at mu = 150, but the table of its K and J does not
        assert 8.0 * 150.0**2 <= simulate._TABLE
        assert _poisson_rows(150.0, 0.0) is None
        assert _poisson_rows(140.0, 0.0) is not None

    @pytest.mark.parametrize(
        "model", [("poisson", 3.0, 0.5), ("poisson", 3.0, 0.99), ("binomial", 25, 0.3, -0.4)]
    )
    def test_cumulative_rows_and_guide(self, model):
        pmf = model_rows(model)
        K, J = pmf.shape
        table = simulate._inversion_table(pmf)
        M = table.M
        assert M >= 4 * J and M & (M - 1) == 0
        assert table.K == K and table.closed == (model[0] == "binomial")
        cdf = table.cdf.reshape(K, M)
        assert np.all(np.diff(cdf, axis=1) >= 0)
        assert np.all(cdf[:, J - 1 :] == 1.0)
        assert np.abs(np.diff(cdf[:, :J], axis=1, prepend=0.0) - pmf)[:, : J - 1].max() < 1e-13
        # the guide cell c of row k starts at the least j with cdf[k, j] > c/M
        start = table.guide.reshape(K, M) - M * np.arange(K)[:, None]
        c = np.arange(M) / M
        assert np.all(np.take_along_axis(cdf, start, axis=1) > c)
        before = np.take_along_axis(cdf, np.maximum(start - 1, 0), axis=1)
        assert np.all((start == 0) | (before <= c))


def transitions_from(paths, state):
    """The states that follow each visit of ``state`` in the rows of ``paths``."""
    return paths[:, 1:][paths[:, :-1] == state]


class TestKernelRoutes:
    def test_state_beyond_the_table_takes_the_exact_step(self):
        # a table cut to the states 0..2, so that 6 and every state above 2
        # leave it: those steps are the exact two-draw step
        model = ("poisson", 3.0, 0.5)
        cut = model_rows(model)[:3]
        rng = np.random.default_rng(17)
        _, step = model_kernel(model, rng)
        paths = simulate._paths(np.tile([1, 6], 5000), 30, rng, lambda: cut, step)
        for state in (1, 6):  # through the table and through the exact step
            after = transitions_from(paths, state)
            assert after.size > 10_000
            x = np.arange(40)
            p = np.array([transition_pmf(model, state, j) for j in x])
            assert grouped_chisquare(after, (x, p)) > 0.001

    def test_no_table_at_large_mu(self, monkeypatch):
        monkeypatch.setattr(simulate, "_inversion_table", _fail)
        mu, rho, T = 1e4, 0.5, 100_000
        x = simulate_poi_inar1(PoiInar1(mu, rho), T, Seed(12)).values.astype(np.float64)
        assert abs(x.mean() - mu) < 3 * math.sqrt(mu * (1 + rho) / (1 - rho) / T)
        centred = (x - mu) ** 2
        assert abs(centred.mean() - mu) < 3 * batch_se(centred)
        assert abs(sample_acf(x, 1) - rho) < 3 * bartlett_ar1_se(rho, 1, T)

    def test_length_one_builds_no_table(self, monkeypatch):
        for name in ("_poisson_rows", "_binomial_rows", "_inversion_table"):
            monkeypatch.setattr(simulate, name, _fail)
        assert simulate_poi_inar1(PoiInar1(3.0, 0.5), 1, Seed(3)).T == 1
        assert simulate_bar1(Bar1(10, 0.3, 0.5), 1, Seed(3)).T == 1
        assert _poisson_paths(3.0, 0.5, 1, 5, np.random.default_rng(3)).shape == (5, 1)
        assert _binomial_paths(10, 0.3, 0.5, 1, 5, np.random.default_rng(3)).shape == (5, 1)

    @pytest.mark.parametrize("blocks", [None, (1000, 64)])
    @pytest.mark.parametrize("cut", [None, 3])
    @pytest.mark.parametrize(
        "model, T",
        [
            (("poisson", 3.0, 0.5), 20_000),
            (("binomial", 10, 0.3, 0.5), 5000),
            (("poisson", 60.0, 0.5), 5000),
            (("binomial", 400, 0.3, 0.5), 2000),
        ],
    )
    def test_scalar_route_equals_batched_route(self, model, T, cut, blocks, monkeypatch):
        # with the table cut to three states, exact draws interleave with the
        # blocks of uniforms, and the two routes must still read one stream;
        # small blocks put many block ends inside the path
        if blocks is not None:
            monkeypatch.setattr(simulate, "_BLOCK", blocks[0])
            monkeypatch.setattr(simulate, "_SCALARS", blocks[1])
        x0 = 4
        got = []
        for x in (x0, np.array([x0])):
            rng = np.random.default_rng(23)
            rows, step = model_kernel(model, rng)
            got.append(simulate._paths(x, T, rng, lambda: rows()[:cut], step))
        assert np.array_equal(got[0], got[1])
        if cut is not None:
            assert np.count_nonzero(got[0] >= cut) > 100

    @pytest.mark.parametrize("model", [("poisson", 3.0, 0.5), ("binomial", 10, 0.3, 0.5)])
    def test_single_path_builds_no_guide_table(self, model, monkeypatch):
        # the guide table serves chunks; one path searches the rows it visits
        assert model_rows(model) is not None
        rng = np.random.default_rng(37)
        want = simulate._paths(np.array([4]), 2000, rng, *model_kernel(model, rng))
        monkeypatch.setattr(simulate, "_inversion_table", _fail)
        rng = np.random.default_rng(37)
        assert np.array_equal(simulate._paths(4, 2000, rng, *model_kernel(model, rng)), want)

    @pytest.mark.parametrize("model", [("poisson", 5000.0, 0.5), ("binomial", 600, 0.3, 0.5)])
    def test_exact_route_one_row_equals_scalar(self, model, monkeypatch):
        # the model has no table, so both take the exact two-draw step
        assert model_rows(model) is None
        monkeypatch.setattr(simulate, "_inversion_table", _fail)
        got = []
        for x in (4, np.array([4])):
            rng = np.random.default_rng(29)
            got.append(simulate._paths(x, 50, rng, *model_kernel(model, rng)))
        assert got[0].shape == got[1].shape == (1, 50)
        assert np.array_equal(got[0], got[1])

    @pytest.mark.parametrize("count", [1, 64])
    @pytest.mark.parametrize(
        "model", [("poisson", 3.0, 0.5), ("binomial", 10, 0.3, 0.5), ("poisson", 5000.0, 0.5)]
    )
    def test_short_path_is_the_prefix_of_a_long_one(self, model, count):
        # the route, and so the stream, depends on the model alone, not on T
        draw = _poisson_paths if model[0] == "poisson" else _binomial_paths
        short, long = (draw(*model[1:], T, count, np.random.default_rng(31)) for T in (500, 20_000))
        assert np.array_equal(short, long[:, :500])


def _fail(*args):
    raise AssertionError("no table is built on this route")
