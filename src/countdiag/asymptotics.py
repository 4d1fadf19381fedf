"""Asymptotic variance and bias of the dispersion and skewness indices under
amplitude-modulated (missing-data) sampling.

Two independent routes are provided for every quantity: general series
formulas driven by a moment oracle and an arbitrary mask law, and closed
forms for the Poisson/binomial AR(1) families under a Markov mask.  The two
routes are kept separate so they can cross-check each other.  Every general
index route is the delta method over one set of lag series, the sigma_ij of
:func:`clt_sigma_general`; the raw-moment dispersion route keeps its own
hand-expanded series as an independent check of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

from .errors import ConvergenceError, NumericalDegeneracyError, ParameterError
from .series import _check, _integer

#: Observation probabilities below this are rejected as numerically meaningless.
MIN_TAU = 0.01

#: A lag series stops once _SMALL_RUN successive terms are below _RTOL relative
#: to its running scale, and fails with ConvergenceError after _LAG_CAP lags.
_RTOL = 1e-12
_LAG_CAP = 10**6
_SMALL_RUN = 4


@dataclass(frozen=True)
class IndexAsymptotics:
    """Null value, asymptotic variance and bias of one index at sample size T.

    ``variance`` and ``bias`` include the 1/T factor exactly once, so the
    two-sided critical values at level alpha are
    ``null_value + bias +- z_{1-alpha/2} * sqrt(variance)``.
    """

    null_value: float
    variance: float
    bias: float

    @property
    def sd(self) -> float:
        return sqrt(self.variance)

    @property
    def mean(self) -> float:
        """First-order approximation to E[index]: null_value + bias."""
        return self.null_value + self.bias


class SequenceMaskLaw:
    """Mask law given by tau and user-supplied lagged products tau(h), h = 1..L.

    Beyond the supplied lags the mask is treated as uncorrelated, i.e.
    tau(h) = tau**2 for h > L.  Each tau(h) = E[O_t O_{t+h}] lies in [0, tau].
    """

    def __init__(self, tau: float, lagged_products):
        _check("tau", tau)
        vals = np.asarray(lagged_products, dtype=np.float64)
        if vals.ndim != 1:
            raise ParameterError("lagged products must be a one-dimensional sequence")
        bad = np.flatnonzero(~((vals >= 0.0) & (vals <= tau)))  # NaN fails both
        if bad.size:
            h = bad[0] + 1
            raise ParameterError(f"lagged product tau({h}) = {vals[h - 1]} must lie in [0, {tau}]")
        self.tau = float(tau)
        self._vals = vals

    def lagged_product(self, h: int) -> float:
        h = abs(_integer("h", h))
        if h == 0:
            return self.tau
        if h <= self._vals.size:
            return float(self._vals[h - 1])
        return self.tau**2


def kappa(s: int, tau: float, r: float, rho: float) -> float:
    """Variance kernel combining missingness (tau, r) and dependence rho.

    kappa(s) = (1/tau) (1 + r rho**s) / (1 - r rho**s)
             + 2 (1-r) rho**s / ((1 - r rho**s)(1 - rho**s)).

    At tau = 1 it collapses to (1 + rho**s)/(1 - rho**s) for any r, and at
    rho = 0 to 1/tau.
    """
    _check("s", s, "lag")
    if _check("tau", tau) < MIN_TAU:
        raise ParameterError(f"tau must be at least {MIN_TAU} for the asymptotics, got {tau}")
    _check("r", r)
    _check("rho", rho)
    x = rho**s
    if 1.0 - r * x <= 0.0 or 1.0 - x <= 0.0:
        raise NumericalDegeneracyError("variance kernel pole at r*rho**s = 1 or rho = 1")
    return (1.0 / tau) * (1.0 + r * x) / (1.0 - r * x) + 2.0 * (1.0 - r) * x / (
        (1.0 - r * x) * (1.0 - x)
    )


def _sum_lagged(term: Callable[[int], float]) -> float:
    """Sum term(h) over h = 1, 2, ... until the terms are negligible.

    Stops once _SMALL_RUN successive terms fall below _RTOL relative to the
    running scale; raises if _LAG_CAP lags are summed first.
    """
    total = 0.0
    scale = 1e-300
    small = 0
    for h in range(1, _LAG_CAP + 1):
        t = term(h)
        total += t
        scale = max(scale, abs(t), abs(total))
        if abs(t) <= _RTOL * scale:
            small += 1
            if small >= _SMALL_RUN:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"lagged series did not converge within {_LAG_CAP} lags (relative tolerance {_RTOL})"
    )


def clt_sigma_general(i: int, j: int, moments, mask_law) -> float:
    """sigma_ij of the limiting normal law of the factorial-moment estimates.

    ``moments`` is an oracle with ``univariate(k)`` and ``mixed(k, s, h)``;
    ``mask_law`` has ``tau`` and ``lagged_product(h)`` (e.g. MissingSpec or
    SequenceMaskLaw).  Evaluates (1/tau)(mu_(i,j)(0) - mu_(i) mu_(j)) +
    (1/tau**2) sum_{h>=1} tau(h) (mu_(j,i)(h) + mu_(i,j)(h) - 2 mu_(i) mu_(j))
    by direct summation of the lag series, truncated at a relative tolerance
    of 1e-12 and failing after 10**6 lags.
    """
    _check("i", i, "order")
    _check("j", j, "order")
    tau = mask_law.tau
    mi = moments.univariate(i)
    mj = moments.univariate(j)
    lag0 = moments.mixed(i, j, 0) - mi * mj

    def term(h: int) -> float:
        # on the diagonal both orders are one oracle call, and x + x == 2 * x exactly
        if i == j:
            both = 2.0 * moments.mixed(i, i, h)
        else:
            both = moments.mixed(j, i, h) + moments.mixed(i, j, h)
        return mask_law.lagged_product(h) * (both - 2.0 * mi * mj)

    return lag0 / tau + _sum_lagged(term) / tau**2


def _delta_method(grad, hess, moments, mask_law, T: int):
    """Variance g' Sigma g / T and bias tr(H Sigma) / (2T) of a smooth index.

    ``grad`` and ``hess`` are the gradient and Hessian of the index in the
    factorial moments (mu_(1), ..., mu_(k)), k = len(grad); Sigma holds the
    sigma_ij of those moments, each lag series summed once.
    """
    k = len(grad)
    sigma = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            sigma[i, j] = sigma[j, i] = clt_sigma_general(i + 1, j + 1, moments, mask_law)
    g, h = np.asarray(grad, dtype=np.float64), np.asarray(hess, dtype=np.float64)
    return float(g @ sigma @ g) / T, 0.5 * float(np.sum(h * sigma)) / T


def sigma_poisson_markov(
    i: int, j: int, mu: float, rho: float, tau: float, r: float
) -> float:
    """Closed-form sigma_ij for the Poisson AR family under a Markov mask."""
    _check("i", i, "order")
    _check("j", j, "order")
    _check("mu", mu)
    if i > j:
        i, j = j, i
    k1 = kappa(1, tau, r, rho)
    s11 = mu * k1
    if (i, j) == (1, 1):
        return s11
    if (i, j) == (1, 2):
        return 2.0 * mu * s11
    if (i, j) == (1, 3):
        return 3.0 * mu**2 * s11
    s22 = 4.0 * mu**2 * s11 + 2.0 * mu**2 * kappa(2, tau, r, rho)
    if (i, j) == (2, 2):
        return s22
    if (i, j) == (2, 3):
        return 3.0 * mu * s22 - 6.0 * mu**3 * s11
    if (i, j) == (3, 3):
        return (
            9.0 * mu**2 * s22
            - 27.0 * mu**4 * s11
            + 6.0 * mu**3 * kappa(3, tau, r, rho)
        )
    raise ParameterError(f"unsupported order pair ({i}, {j}); only i <= j <= 3")


def sigma_binomial_markov(
    i: int, j: int, n: int, pi: float, rho: float, tau: float, r: float
) -> float:
    """Closed-form sigma_ij for the binomial AR family under a Markov mask."""
    _check("i", i, "order")
    _check("j", j, "order")
    _check("n", n)
    _check("pi", pi)
    if i > j:
        i, j = j, i
    q = 1.0 - pi
    s11 = n * pi * q * kappa(1, tau, r, rho)
    if (i, j) == (1, 1):
        return s11
    if (i, j) == (1, 2):
        return 2.0 * (n - 1) * pi * s11
    if (i, j) == (1, 3):
        return 3.0 * (n - 1) * (n - 2) * pi**2 * s11
    n2 = n * (n - 1)
    s22 = 4.0 * (n - 1) ** 2 * pi**2 * s11 + 2.0 * n2 * q**2 * pi**2 * kappa(
        2, tau, r, rho
    )
    if (i, j) == (2, 2):
        return s22
    if (i, j) == (2, 3):
        return 3.0 * (n - 2) * pi * s22 - 6.0 * (n - 1) ** 2 * (n - 2) * pi**3 * s11
    if (i, j) == (3, 3):
        n3 = n * (n - 1) * (n - 2)
        return (
            9.0 * (n - 2) ** 2 * pi**2 * s22
            - 27.0 * (n - 1) ** 2 * (n - 2) ** 2 * pi**4 * s11
            + 6.0 * n3 * q**3 * pi**3 * kappa(3, tau, r, rho)
        )
    raise ParameterError(f"unsupported order pair ({i}, {j}); only i <= j <= 3")


def poi_dispersion_asym_general(moments, mask_law, T: int) -> IndexAsymptotics:
    """Asymptotics of the dispersion index for any count family, via series.

    Driven entirely by the moment oracle (orders up to four and joint moments
    up to (2, 2)) and the mask law; no Markov structure is assumed.  The delta
    method for mu_(2)/mu - mu + 1 in (mu, mu_(2)).
    """
    _check("T", T)
    mu = moments.univariate(1)
    if mu <= 0:
        raise ParameterError("mean must be positive")
    m2 = moments.univariate(2)
    grad = (-m2 / mu**2 - 1.0, 1.0 / mu)
    hess = ((2.0 * m2 / mu**3, -1.0 / mu**2), (-1.0 / mu**2, 0.0))
    variance, bias = _delta_method(grad, hess, moments, mask_law, T)
    return IndexAsymptotics(1.0, variance, bias)


def poi_dispersion_asym_markov(
    mu: float, rho: float, tau: float, r: float, T: int
) -> IndexAsymptotics:
    """Closed-form dispersion asymptotics for the Poisson AR family.

    variance = (2/T) kappa(2), bias = -(1/T) kappa(1).
    """
    _check("T", T)
    _check("mu", mu)
    variance = 2.0 / T * kappa(2, tau, r, rho)
    bias = -1.0 / T * kappa(1, tau, r, rho)
    return IndexAsymptotics(1.0, variance, bias)


def bin_dispersion_asym_general(n: int, moments, mask_law, T: int) -> IndexAsymptotics:
    """Asymptotics of the bounded-count dispersion index, via series.

    The delta method for the index N / D, N = mu_(2) + mu - mu**2 and
    D = mu - mu**2 / n, in (mu, mu_(2)).
    """
    _check("T", T)
    _check("n", n)
    mu = moments.univariate(1)
    if not 0.0 < mu < n:
        raise ParameterError(f"mean must lie strictly between 0 and n, got {mu}")
    m2 = moments.univariate(2)
    num, den = m2 + mu - mu**2, mu - mu**2 / n
    dnum, dden = 1.0 - 2.0 * mu, 1.0 - 2.0 * mu / n
    grad = ((dnum * den - num * dden) / den**2, 1.0 / den)
    h11 = (
        -2.0 - 2.0 * dnum * dden / den + 2.0 * num / n / den + 2.0 * num * dden**2 / den**2
    ) / den
    h12 = -dden / den**2
    hess = ((h11, h12), (h12, 0.0))
    variance, bias = _delta_method(grad, hess, moments, mask_law, T)
    return IndexAsymptotics(1.0, variance, bias)


def bin_dispersion_asym_markov(
    n: int, pi: float, rho: float, tau: float, r: float, T: int
) -> IndexAsymptotics:
    """Closed-form bounded-count dispersion asymptotics: the Poisson closed
    form compressed by the factor (1 - 1/n).  Does not depend on pi."""
    _check("T", T)
    _check("n", n)
    _check("pi", pi)
    shrink = 1.0 - 1.0 / n
    variance = 2.0 / T * shrink * kappa(2, tau, r, rho)
    bias = -1.0 / T * shrink * kappa(1, tau, r, rho)
    return IndexAsymptotics(1.0, variance, bias)


def skew_asym_general(moments, mask_law, T: int) -> IndexAsymptotics:
    """Asymptotics of the skewness index for any count family, via series.

    Delta-method combination of the sigma_ij for i, j <= 3 with the Jacobian
    d = (1/(mu_(2) mu)) (-mu_(3)/mu, -mu_(3)/mu_(2), 1) and the matching
    Hessian (whose (3,3) entry vanishes).  The null value is the population
    index mu_(3) / (mu_(2) mu) implied by the supplied moments: 1 for a
    Poisson marginal, 1 - 2/n for a binomial one.
    """
    _check("T", T)
    mu = moments.univariate(1)
    m2 = moments.univariate(2)
    m3 = moments.univariate(3)
    if mu <= 0 or m2 <= 0:
        raise ParameterError("degenerate moments: need mu > 0 and mu_(2) > 0")
    c = 1.0 / (m2 * mu)
    grad = (-m3 / mu * c, -m3 / m2 * c, c)
    h12, h13, h23 = m3 / (mu * m2) * c, -c / mu, -c / m2
    hess = (
        (2.0 * m3 / mu**2 * c, h12, h13),
        (h12, 2.0 * m3 / m2**2 * c, h23),
        (h13, h23, 0.0),
    )
    variance, bias = _delta_method(grad, hess, moments, mask_law, T)
    return IndexAsymptotics(m3 * c, variance, bias)


def skew_asym_poisson_markov(
    mu: float, rho: float, tau: float, r: float, T: int
) -> IndexAsymptotics:
    """Closed-form skewness asymptotics for the Poisson AR family.

    variance = (1/(T mu**3)) [8 mu kappa(2) + 6 kappa(3)],
    bias = -(2/(T mu**2)) [mu kappa(1) + 2 kappa(2)]; null value 1.
    """
    _check("T", T)
    _check("mu", mu)
    k1, k2, k3 = (kappa(s, tau, r, rho) for s in (1, 2, 3))
    variance = (8.0 * mu * k2 + 6.0 * k3) / (T * mu**3)
    bias = -2.0 / (T * mu**2) * (mu * k1 + 2.0 * k2)
    return IndexAsymptotics(1.0, variance, bias)


def skew_asym_binomial_markov(
    n: int, pi: float, rho: float, tau: float, r: float, T: int
) -> IndexAsymptotics:
    """Closed-form skewness asymptotics for the binomial AR family.

    Null value 1 - 2/n; converges to the Poisson closed form as n grows with
    the mean mu = n*pi held fixed.
    """
    _check("T", T)
    _check("n", n)
    _check("pi", pi)
    mu = n * pi
    k1, k2, k3 = (kappa(s, tau, r, rho) for s in (1, 2, 3))
    variance = (
        (n - 2)
        * (n - mu) ** 3
        / ((n - 1) * n**3)
        / (T * mu**3)
        * ((n - 2) / (n - mu) * 8.0 * mu * k2 + 6.0 * k3)
    )
    bias = (
        -(n - 2)
        * (n - mu) ** 2
        / ((n - 1) * n**2)
        * 2.0
        / (T * mu**2)
        * ((n - 1) / (n - mu) * mu * k1 + 2.0 * k2)
    )
    return IndexAsymptotics(1.0 - 2.0 / n, variance, bias)


def raw_poi_dispersion_asym(raw_moments, mask_law, T: int) -> IndexAsymptotics:
    """Dispersion asymptotics computed entirely from raw moments.

    Independent oracle for the factorial-moment route: the oracle must expose
    raw moments ``univariate(k) = E[X**k]`` and ``mixed(k, l, h) =
    E[X_t**k X_{t-h}**l]``.  Agrees with the factorial route exactly.
    """
    _check("T", T)
    tau = mask_law.tau
    mu = raw_moments.univariate(1)
    if mu <= 0:
        raise ParameterError("mean must be positive")
    m2, m3, m4 = (raw_moments.univariate(k) for k in (2, 3, 4))
    b = m2 / mu**2 + 1.0

    lag0_var = (
        b**2 * (m2 - mu**2)
        - 2.0 / mu * b * (m3 - mu * m2)
        + (m4 - m2**2) / mu**2
    )

    def var_term(h: int) -> float:
        return mask_law.lagged_product(h) * (
            b**2 * (raw_moments.mixed(1, 1, h) - mu**2)
            + (raw_moments.mixed(2, 2, h) - m2**2) / mu**2
            - b
            / mu
            * (raw_moments.mixed(2, 1, h) + raw_moments.mixed(1, 2, h) - 2.0 * mu * m2)
        )

    variance = (lag0_var + 2.0 / tau * _sum_lagged(var_term)) / (T * tau)

    lag0_bias = m2**2 - m3 * mu

    def bias_term(h: int) -> float:
        return mask_law.lagged_product(h) * (
            m2 * raw_moments.mixed(1, 1, h)
            - mu / 2.0 * (raw_moments.mixed(2, 1, h) + raw_moments.mixed(1, 2, h))
        )

    bias = (
        lag0_bias + 2.0 / tau * _sum_lagged(bias_term)
    ) / (T * tau * mu**3)
    return IndexAsymptotics(1.0, variance, bias)
