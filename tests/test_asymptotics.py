import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from countdiag import asymptotics
from countdiag import (
    BinomialArMoments,
    ConvergenceError,
    MissingSpec,
    ParameterError,
    PoissonArMoments,
    RawMoments,
    SequenceMaskLaw,
    bin_dispersion_asym_general,
    bin_dispersion_asym_markov,
    clt_sigma_general,
    kappa,
    poi_dispersion_asym_general,
    poi_dispersion_asym_markov,
    raw_poi_dispersion_asym,
    sigma_binomial_markov,
    sigma_poisson_markov,
    skew_asym_binomial_markov,
    skew_asym_general,
    skew_asym_poisson_markov,
)


class TestKappa:
    def test_complete_data_lag_one(self):
        assert kappa(1, 1.0, 0.0, 0.5) == pytest.approx(3.0)
        # independent of r once tau = 1
        assert kappa(1, 1.0, 0.77, 0.5) == pytest.approx(3.0)

    def test_complete_data_lag_two(self):
        assert kappa(2, 1.0, 0.0, 0.5) == pytest.approx(5.0 / 3.0)

    def test_missingness_value(self):
        # 1/0.916 + 2*0.3325**2 / (1 - 0.3325**2); feeds the 1.1685 critical value
        assert kappa(2, 0.916, 0.0, 0.3325) == pytest.approx(1.34030, abs=5e-6)

    def test_no_dependence_reduces_to_inverse_tau(self):
        for tau in (0.25, 0.5, 1.0):
            assert kappa(3, tau, 0.4, 0.0) == pytest.approx(1.0 / tau)

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.integers(1, 4),
        tau=st.floats(0.01, 1.0),
        r=st.floats(0.0, 0.99),
        rho=st.floats(0.0, 0.99),
    )
    def test_positive(self, s, tau, r, rho):
        assert kappa(s, tau, r, rho) > 0.0

    @settings(max_examples=80, deadline=None)
    @given(r=st.floats(0.0, 0.99), rho=st.floats(0.0, 0.99), s=st.integers(1, 3))
    def test_tau_one_collapses(self, r, rho, s):
        x = rho**s
        assert kappa(s, 1.0, r, rho) == pytest.approx((1 + x) / (1 - x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            kappa(0, 0.8, 0.0, 0.5)
        with pytest.raises(ParameterError):
            kappa(1, 0.005, 0.0, 0.5)  # tau below the numerical floor
        with pytest.raises(ParameterError):
            kappa(1, 0.8, 1.0, 0.5)
        with pytest.raises(ParameterError):
            kappa(1, 0.8, 0.0, 1.0)

    def test_tau_floor_names_the_value(self):
        with pytest.raises(
            ParameterError, match=r"^tau must be at least 0\.01 for the asymptotics, got 0\.005$"
        ):
            kappa(1, 0.005, 0.0, 0.5)


class TestCltSigmaGeneral:
    def test_poisson_order11_closed_form(self):
        got = clt_sigma_general(1, 1, PoissonArMoments(3.0, 0.5), MissingSpec(0.8, 0.0))
        assert got == pytest.approx(3.0 * 3.25, rel=1e-10)

    def test_iid_counts_full_observation_gives_variance(self):
        got = clt_sigma_general(1, 1, PoissonArMoments(3.0, 0.0), MissingSpec(1.0, 0.0))
        assert got == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("tau,r", [(1.0, 0.0), (0.8, 0.6), (0.4, 0.3)])
    @pytest.mark.parametrize("ij", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_matches_poisson_closed_forms(self, tau, r, ij):
        i, j = ij
        law = MissingSpec(tau, r)
        got = clt_sigma_general(i, j, PoissonArMoments(3.0, 0.5), law)
        want = sigma_poisson_markov(i, j, 3.0, 0.5, tau, r)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("tau,r", [(1.0, 0.0), (0.8, 0.6), (0.4, 0.3)])
    @pytest.mark.parametrize("ij", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_matches_binomial_closed_forms(self, tau, r, ij):
        i, j = ij
        law = MissingSpec(tau, r)
        got = clt_sigma_general(i, j, BinomialArMoments(10, 0.3, 0.5), law)
        want = sigma_binomial_markov(i, j, 10, 0.3, 0.5, tau, r)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("ij", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_independent_binomial_counts_converge(self, ij):
        # at rho = 0 every lag term is zero; a rounding residue in the joint
        # moments used to keep the (1, 3) series from converging
        i, j = ij
        got = clt_sigma_general(i, j, BinomialArMoments(10, 0.3, 0.0), MissingSpec(0.8, 0.3))
        want = sigma_binomial_markov(i, j, 10, 0.3, 0.0, 0.8, 0.3)
        assert got == pytest.approx(want, rel=1e-10)

    def test_non_decaying_oracle_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_LAG_CAP", 1000)

        class Flat:
            def univariate(self, k):
                return 3.0**k

            def mixed(self, k, s, h):
                return 3.0 ** (k + s) + 1.0  # never factorizes

        with pytest.raises(ConvergenceError):
            clt_sigma_general(1, 1, Flat(), MissingSpec(0.8, 0.0))

    def test_diagonal_calls_the_oracle_once_per_lag(self):
        class Counting:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def univariate(self, k):
                return self.inner.univariate(k)

            def mixed(self, k, s, h):
                self.calls += 1
                return self.inner.mixed(k, s, h)

        oracle = Counting(BinomialArMoments(25, 0.12, 0.9))
        skew_asym_general(oracle, MissingSpec(0.4, 0.6), 500)
        assert oracle.calls == 2187  # 2912 when each diagonal lag asked twice


class TestMarkovSigmaRelations:
    def test_poisson_ladder(self):
        mu, rho, tau, r = 3.0, 0.5, 0.8, 0.3
        s11 = sigma_poisson_markov(1, 1, mu, rho, tau, r)
        assert sigma_poisson_markov(1, 2, mu, rho, tau, r) == pytest.approx(2 * mu * s11)
        assert sigma_poisson_markov(1, 3, mu, rho, tau, r) == pytest.approx(
            3 * mu**2 * s11
        )

    def test_poisson_order22_value(self):
        # 4 mu^2 sigma11 + 2 mu^2 kappa(2) at tau=1, r=0
        assert sigma_poisson_markov(2, 2, 3.0, 0.5, 1.0, 0.0) == pytest.approx(354.0)

    def test_binomial_ladder(self):
        n, pi, rho, tau, r = 10, 0.3, 0.5, 0.8, 0.6
        s11 = sigma_binomial_markov(1, 1, n, pi, rho, tau, r)
        assert s11 == pytest.approx(n * pi * (1 - pi) * kappa(1, tau, r, rho), rel=1e-12)
        assert sigma_binomial_markov(1, 3, n, pi, rho, tau, r) == pytest.approx(
            3 * (n - 1) * (n - 2) * pi**2 * s11
        )

    def test_unsupported_pair(self):
        with pytest.raises(ParameterError):
            sigma_poisson_markov(4, 4, 3.0, 0.5, 0.8, 0.0)

    def test_unsupported_binomial_pair_named(self):
        with pytest.raises(
            ParameterError, match=r"^unsupported order pair \(1, 4\); only i <= j <= 3$"
        ):
            sigma_binomial_markov(1, 4, 10, 0.3, 0.5, 0.8, 0.3)

    def test_order_pair_is_symmetric(self):
        assert sigma_poisson_markov(2, 1, 3.0, 0.5, 0.8, 0.3) == sigma_poisson_markov(
            1, 2, 3.0, 0.5, 0.8, 0.3
        )
        assert sigma_binomial_markov(2, 1, 10, 0.3, 0.5, 0.8, 0.3) == sigma_binomial_markov(
            1, 2, 10, 0.3, 0.5, 0.8, 0.3
        )

    @pytest.mark.parametrize("i, j, name", [(True, True, "i"), (1.0, 1, "i"), (1, 2.0, "j")])
    def test_order_type(self, i, j, name):
        # the rule of clt_sigma_general, which these closed forms are the oracle of
        want = f"^{name} must be an integer >= 0, got "
        with pytest.raises(ParameterError, match=want):
            sigma_poisson_markov(i, j, 3.0, 0.5, 0.8, 0.3)
        with pytest.raises(ParameterError, match=want):
            sigma_binomial_markov(i, j, 10, 0.3, 0.5, 0.8, 0.3)
        with pytest.raises(ParameterError, match=want):
            clt_sigma_general(i, j, PoissonArMoments(3.0, 0.5), MissingSpec(0.8, 0.3))
        s11 = sigma_poisson_markov(1, 1, 3.0, 0.5, 0.8, 0.3)
        assert sigma_poisson_markov(np.int64(1), np.int64(1), 3.0, 0.5, 0.8, 0.3) == s11


class TestPoissonDispersionAsymptotics:
    def test_published_point(self):
        asym = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.0, 100)
        assert asym.sd == pytest.approx(0.196, abs=5e-4)
        assert asym.mean == pytest.approx(0.968, abs=5e-4)
        assert asym.null_value == 1.0

    def test_published_point_dependent_mask(self):
        asym = poi_dispersion_asym_markov(3.0, 0.5, 0.6, 0.6, 250)
        assert asym.sd == pytest.approx(0.143, abs=5e-4)
        assert asym.mean == pytest.approx(0.983, abs=5e-4)

    def test_complete_data_bias_and_variance(self):
        asym = poi_dispersion_asym_markov(3.0, 0.5, 1.0, 0.0, 200)
        assert asym.bias * 200 == pytest.approx(-3.0)
        assert asym.variance * 200 == pytest.approx(2 * (1 + 0.25) / (1 - 0.25))

    @pytest.mark.parametrize("tau,r,T", [(1.0, 0.0, 100), (0.8, 0.6, 250), (0.4, 0.3, 1000)])
    def test_general_matches_markov(self, tau, r, T):
        g = poi_dispersion_asym_general(PoissonArMoments(3.0, 0.5), MissingSpec(tau, r), T)
        m = poi_dispersion_asym_markov(3.0, 0.5, tau, r, T)
        assert g.variance == pytest.approx(m.variance, rel=1e-10)
        assert g.bias == pytest.approx(m.bias, rel=1e-10)

    def test_rate_in_T(self):
        a = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 100)
        b = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 200)
        assert b.variance == pytest.approx(a.variance / 2, rel=1e-14)
        assert b.bias == pytest.approx(a.bias / 2, rel=1e-14)


class TestBinomialDispersionAsymptotics:
    def test_published_point(self):
        asym = bin_dispersion_asym_markov(10, 0.3, 0.5, 0.8, 0.0, 250)
        assert asym.sd == pytest.approx(0.117, abs=5e-4)
        assert asym.mean == pytest.approx(0.988, abs=5e-4)

    def test_complete_data_variance(self):
        asym = bin_dispersion_asym_markov(10, 0.3, 0.5, 1.0, 0.0, 300)
        assert asym.variance * 300 == pytest.approx(2 * 0.9 * 1.25 / 0.75)

    def test_shrinks_poisson_by_factor(self):
        b = bin_dispersion_asym_markov(10, 0.3, 0.5, 0.8, 0.6, 250)
        p = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 250)
        assert b.variance == pytest.approx(0.9 * p.variance, rel=1e-14)
        assert b.bias == pytest.approx(0.9 * p.bias, rel=1e-14)

    def test_large_n_approaches_poisson(self):
        n = 1000
        b = bin_dispersion_asym_markov(n, 3.0 / n, 0.5, 0.8, 0.6, 250)
        p = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 250)
        assert abs(b.variance - p.variance) / p.variance <= 2.0 / n

    @pytest.mark.parametrize("tau,r,T", [(1.0, 0.0, 100), (0.8, 0.6, 250), (0.4, 0.3, 1000)])
    def test_general_matches_markov(self, tau, r, T):
        g = bin_dispersion_asym_general(
            10, BinomialArMoments(10, 0.3, 0.5), MissingSpec(tau, r), T
        )
        m = bin_dispersion_asym_markov(10, 0.3, 0.5, tau, r, T)
        assert g.variance == pytest.approx(m.variance, rel=1e-10)
        assert g.bias == pytest.approx(m.bias, rel=1e-10)


class TestSkewnessAsymptotics:
    def test_poisson_published_point(self):
        asym = skew_asym_poisson_markov(3.0, 0.5, 0.8, 0.0, 100)
        assert asym.sd == pytest.approx(0.143, abs=5e-4)
        assert asym.mean == pytest.approx(0.970, abs=5e-4)
        assert asym.null_value == 1.0

    def test_poisson_variance_decreases_in_mu(self):
        a3 = skew_asym_poisson_markov(3.0, 0.5, 0.8, 0.0, 100)
        a4 = skew_asym_poisson_markov(4.0, 0.5, 0.8, 0.0, 100)
        assert a4.variance < a3.variance
        assert abs(a4.bias) < abs(a3.bias)

    def test_poisson_complete_data_value(self):
        asym = skew_asym_poisson_markov(3.0, 0.5, 1.0, 0.0, 100)
        expected = (24 * (5.0 / 3.0) + 6 * (1.125 / 0.875)) / 2700
        assert asym.variance == pytest.approx(expected, rel=1e-12)
        assert asym.variance == pytest.approx(0.01767, abs=5e-6)

    def test_binomial_published_points(self):
        a10 = skew_asym_binomial_markov(10, 0.3, 0.5, 0.8, 0.0, 250)
        assert a10.sd == pytest.approx(0.053, abs=5e-4)
        assert a10.mean == pytest.approx(0.794, abs=5e-4)
        assert a10.null_value == pytest.approx(0.8)
        a25 = skew_asym_binomial_markov(25, 3.0 / 25, 0.5, 0.8, 0.0, 250)
        assert a25.sd == pytest.approx(0.074, abs=5e-4)
        assert a25.mean == pytest.approx(0.910, abs=5e-4)

    def test_binomial_approaches_poisson(self):
        p = skew_asym_poisson_markov(3.0, 0.5, 0.8, 0.6, 250)
        for n in (100, 1000, 10_000):
            b = skew_asym_binomial_markov(n, 3.0 / n, 0.5, 0.8, 0.6, 250)
            assert abs(b.variance - p.variance) / p.variance < 12.0 / n
            assert abs(b.bias - p.bias) / abs(p.bias) < 12.0 / n

    @pytest.mark.parametrize("tau,r,T", [(1.0, 0.0, 100), (0.8, 0.6, 250), (0.4, 0.3, 1000)])
    def test_general_specializes_to_poisson(self, tau, r, T):
        g = skew_asym_general(PoissonArMoments(3.0, 0.5), MissingSpec(tau, r), T)
        m = skew_asym_poisson_markov(3.0, 0.5, tau, r, T)
        assert g.null_value == pytest.approx(1.0, rel=1e-12)
        assert g.variance == pytest.approx(m.variance, rel=1e-10)
        assert g.bias == pytest.approx(m.bias, rel=1e-10)

    @pytest.mark.parametrize("tau,r,T", [(1.0, 0.0, 100), (0.8, 0.6, 250), (0.4, 0.3, 1000)])
    def test_general_specializes_to_binomial(self, tau, r, T):
        g = skew_asym_general(BinomialArMoments(10, 0.3, 0.5), MissingSpec(tau, r), T)
        m = skew_asym_binomial_markov(10, 0.3, 0.5, tau, r, T)
        assert g.null_value == pytest.approx(0.8, rel=1e-12)
        assert g.variance == pytest.approx(m.variance, rel=1e-10)
        assert g.bias == pytest.approx(m.bias, rel=1e-10)


GENERAL_CASES = [(1.0, 0.0, 100), (0.8, 0.6, 250), (0.4, 0.3, 1000)]

#: Each kind's series route and closed form at the family's parameters and rho.
GENERAL_VS_MARKOV = {
    "poisson-dispersion": (
        lambda rho, law, T: poi_dispersion_asym_general(PoissonArMoments(3.0, rho), law, T),
        lambda rho, tau, r, T: poi_dispersion_asym_markov(3.0, rho, tau, r, T),
    ),
    "binomial-dispersion": (
        lambda rho, law, T: bin_dispersion_asym_general(
            10, BinomialArMoments(10, 0.3, rho), law, T
        ),
        lambda rho, tau, r, T: bin_dispersion_asym_markov(10, 0.3, rho, tau, r, T),
    ),
    "poisson-skewness": (
        lambda rho, law, T: skew_asym_general(PoissonArMoments(3.0, rho), law, T),
        lambda rho, tau, r, T: skew_asym_poisson_markov(3.0, rho, tau, r, T),
    ),
    "binomial-skewness": (
        lambda rho, law, T: skew_asym_general(BinomialArMoments(10, 0.3, rho), law, T),
        lambda rho, tau, r, T: skew_asym_binomial_markov(10, 0.3, rho, tau, r, T),
    ),
}


class TestStrongDependence:
    """The general-vs-closed-form checks above, repeated at rho = 0.9, where
    the lag series are longest."""

    @pytest.mark.parametrize("kind", sorted(GENERAL_VS_MARKOV))
    @pytest.mark.parametrize("tau,r,T", GENERAL_CASES)
    def test_general_matches_markov(self, kind, tau, r, T):
        general, markov = GENERAL_VS_MARKOV[kind]
        g = general(0.9, MissingSpec(tau, r), T)
        m = markov(0.9, tau, r, T)
        assert g.null_value == pytest.approx(m.null_value, rel=1e-12)
        assert g.variance == pytest.approx(m.variance, rel=1e-10)
        assert g.bias == pytest.approx(m.bias, rel=1e-10)


#: Every series route, each at the family's parameters, as (rho, law, T) -> asymptotics.
SERIES_ROUTES = {
    **{kind: routes[0] for kind, routes in GENERAL_VS_MARKOV.items()},
    "raw-poisson-dispersion": lambda rho, law, T: raw_poi_dispersion_asym(
        RawMoments(PoissonArMoments(3.0, rho)), law, T
    ),
}


class TestTauOneIgnoresR:
    """At tau = 1 every position is observed, so the mask's lag-1
    autocorrelation r cannot move any variance or bias."""

    @pytest.mark.parametrize("kind", sorted(GENERAL_VS_MARKOV))
    @settings(max_examples=150, deadline=None)
    @given(
        r=st.floats(0.0, 1.0, exclude_max=True),
        rho=st.floats(0.0, 0.99),
        T=st.integers(1, 10**6),
    )
    def test_closed_forms(self, kind, r, rho, T):
        markov = GENERAL_VS_MARKOV[kind][1]
        got, want = markov(rho, 1.0, r, T), markov(rho, 1.0, 0.0, T)
        assert got.variance == pytest.approx(want.variance, rel=1e-12)
        assert got.bias == pytest.approx(want.bias, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(SERIES_ROUTES))
    @settings(max_examples=20, deadline=None)
    @given(
        r=st.floats(0.0, 1.0, exclude_max=True),
        rho=st.floats(0.0, 0.95),
        T=st.integers(1, 10**6),
    )
    def test_series_routes(self, kind, r, rho, T):
        route = SERIES_ROUTES[kind]
        got, want = route(rho, MissingSpec(1.0, r), T), route(rho, MissingSpec(1.0, 0.0), T)
        assert (got.variance, got.bias) == (want.variance, want.bias)


class TestRawMomentRoute:
    @pytest.mark.parametrize(
        "tau,r", [(1.0, 0.0), (0.8, 0.0), (0.8, 0.6), (0.4, 0.6), (0.4, 0.3)]
    )
    def test_matches_factorial_route(self, tau, r):
        raw = RawMoments(PoissonArMoments(3.0, 0.5))
        got = raw_poi_dispersion_asym(raw, MissingSpec(tau, r), 100)
        want = poi_dispersion_asym_markov(3.0, 0.5, tau, r, 100)
        assert got.variance == pytest.approx(want.variance, rel=1e-10)
        assert got.bias == pytest.approx(want.bias, rel=1e-10)

    def test_iid_complete_data_classical_variance(self):
        raw = RawMoments(PoissonArMoments(3.0, 0.0))
        got = raw_poi_dispersion_asym(raw, MissingSpec(1.0, 0.0), 500)
        assert got.variance * 500 == pytest.approx(2.0, rel=1e-12)


MARKOV_OPS = {
    "poisson-dispersion": lambda tau, r, T: poi_dispersion_asym_markov(3.0, 0.5, tau, r, T),
    "binomial-dispersion": lambda tau, r, T: bin_dispersion_asym_markov(
        10, 0.3, 0.5, tau, r, T
    ),
    "poisson-skewness": lambda tau, r, T: skew_asym_poisson_markov(3.0, 0.5, tau, r, T),
    "binomial-skewness": lambda tau, r, T: skew_asym_binomial_markov(
        10, 0.3, 0.5, tau, r, T
    ),
}


class TestShapeInTauAndR:
    @pytest.mark.parametrize("kind", sorted(MARKOV_OPS))
    def test_variance_monotone(self, kind):
        op = MARKOV_OPS[kind]
        taus = np.linspace(0.25, 1.0, 76)
        for r in (0.0, 0.3, 0.6):
            values = np.array([op(t, r, 100).variance for t in taus])
            biases = np.array([abs(op(t, r, 100).bias) for t in taus])
            assert np.all(np.diff(values) <= 1e-15)  # non-increasing in tau
            assert np.all(np.diff(biases) <= 1e-15)

    @pytest.mark.parametrize("kind", sorted(MARKOV_OPS))
    def test_variance_nondecreasing_in_r(self, kind):
        op = MARKOV_OPS[kind]
        for tau in np.linspace(0.25, 1.0, 16):
            prev_var, prev_bias = -np.inf, -np.inf
            for r in (0.0, 0.3, 0.6):
                asym = op(tau, r, 100)
                assert asym.variance >= prev_var - 1e-15
                assert abs(asym.bias) >= prev_bias - 1e-15
                prev_var, prev_bias = asym.variance, abs(asym.bias)

    @pytest.mark.parametrize("kind", sorted(MARKOV_OPS))
    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(0.01, 1.0), r=st.floats(0.0, 0.95), rho=st.floats(0.0, 0.95))
    def test_variance_positive(self, kind, tau, r, rho):
        if kind == "poisson-dispersion":
            asym = poi_dispersion_asym_markov(3.0, rho, tau, r, 100)
        elif kind == "binomial-dispersion":
            asym = bin_dispersion_asym_markov(10, 0.3, rho, tau, r, 100)
        elif kind == "poisson-skewness":
            asym = skew_asym_poisson_markov(3.0, rho, tau, r, 100)
        else:
            asym = skew_asym_binomial_markov(10, 0.3, rho, tau, r, 100)
        assert asym.variance > 0.0


class TestSequenceMaskLaw:
    def test_matches_markov_when_fed_markov_products(self):
        spec = MissingSpec(0.8, 0.6)
        law = SequenceMaskLaw(0.8, [spec.lagged_product(h) for h in range(1, 400)])
        g = clt_sigma_general(1, 1, PoissonArMoments(3.0, 0.5), law)
        want = sigma_poisson_markov(1, 1, 3.0, 0.5, 0.8, 0.6)
        assert g == pytest.approx(want, rel=1e-10)

    def test_uncorrelated_tail_beyond_given_lags(self):
        law = SequenceMaskLaw(0.8, [0.7])
        assert law.lagged_product(1) == 0.7
        assert law.lagged_product(2) == pytest.approx(0.64)

    def test_lag_zero_is_tau(self):
        assert SequenceMaskLaw(0.8, [0.7]).lagged_product(0) == 0.8

    def test_products_must_be_one_dimensional(self):
        with pytest.raises(
            ParameterError, match="^lagged products must be a one-dimensional sequence$"
        ):
            SequenceMaskLaw(0.8, [[0.5]])

    def test_domain(self):
        with pytest.raises(ParameterError):
            SequenceMaskLaw(0.8, [1.2])
        with pytest.raises(ParameterError):
            SequenceMaskLaw(1.2, [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_product_named(self, bad):
        # such a product would make the lag sums, and so variance and bias, NaN
        want = r"^lagged product tau\(2\) = (nan|inf) must lie in \[0, 0\.8\]$"
        with pytest.raises(ParameterError, match=want):
            SequenceMaskLaw(0.8, [0.7, bad])

    def test_product_above_tau_named(self):
        # E[O_t O_{t+h}] <= E[O_t] = tau
        want = r"^lagged product tau\(1\) = 0\.9 must lie in \[0, 0\.8\]$"
        with pytest.raises(ParameterError, match=want):
            SequenceMaskLaw(0.8, [0.9])
        assert SequenceMaskLaw(0.8, [0.8, 0.0]).lagged_product(1) == 0.8

    @pytest.mark.parametrize("h", [1.0, 1.5, True])
    def test_lag_type(self, h):
        # an integral float is still no index into the supplied products
        law = SequenceMaskLaw(0.8, [0.7])
        with pytest.raises(ParameterError, match=f"^h must be an integer, got {h!r}$"):
            law.lagged_product(h)
        assert law.lagged_product(np.int64(-1)) == 0.7
