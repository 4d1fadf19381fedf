"""Falling factorials, sample factorial moments under an observation mask, and
closed-form model moments (univariate, joint, raw) for the two count families."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import DegenerateSeriesError, ParameterError
from .series import CountSeries

def falling_factorial(x, k: int):
    """x_(k) = x*(x-1)*...*(x-k+1), with x_(0) = 1 and zero whenever k > x >= 0.

    Integer input is computed in exact (arbitrary precision) integer
    arithmetic; array input is evaluated in float64 elementwise.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ParameterError(f"order k must be a non-negative integer, got {k}")
    if isinstance(x, (int, np.integer)):
        if x < 0:
            raise ParameterError(f"count must be non-negative, got {x}")
        out = 1
        for i in range(k):
            out *= int(x) - i
            if out == 0:
                break
        return out
    arr = np.asarray(x, dtype=np.float64)
    out = np.ones_like(arr)
    for i in range(k):
        out *= arr - i
    return out


@dataclass(frozen=True)
class MomentSummary:
    """Sample factorial moments of the observed part of a series.

    Attributes
    ----------
    m : int
        Highest order computed.
    muhat : np.ndarray
        ``muhat[k-1]`` is the k-th sample factorial moment for k = 1..m.
    n_observed : int
        Number of mask-1 positions that entered the averages.
    tauhat : float
        Observed fraction of the series.
    """

    m: int
    muhat: np.ndarray
    n_observed: int
    tauhat: float


def factorial_moments(values, mask, m: int, ends=None) -> np.ndarray:
    """Sample factorial moments of orders 1..m of each row of (..., T) values.

    Only mask-1 positions are read: the k-th moment of a row, ``muhat[k-1]``,
    is sum_t O_t (X_t)_(k) / sum_t O_t, NaN for a row with nothing observed.

    With ``ends``, strictly increasing lengths in 1..T, the moments of every
    prefix ``[..., :end]`` come out along a new last axis from one pass: sums
    over the segments between consecutive ends, accumulated.  Partial sums of
    integer-valued float64 below 2**53 are exact in any order, so each prefix
    equals its own call bit for bit.
    """
    if m < 1:
        raise ParameterError(f"max order must be >= 1, got {m}")
    observed = mask == 1
    x = np.where(observed, values, 0).astype(np.float64)
    if ends is None:
        def total(a, dtype=None):
            return a.sum(axis=-1, dtype=dtype)
    else:
        ends = np.asarray(ends, dtype=np.intp)
        T = x.shape[-1]
        if ends.ndim != 1 or ends.size == 0 or ends[0] < 1 or ends[-1] > T or np.any(
            np.diff(ends) <= 0
        ):
            raise ParameterError(
                f"prefix ends must increase strictly within 1..{T}, got {ends.tolist()}"
            )
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


def sample_factorial_moments(series: CountSeries, m: int) -> MomentSummary:
    """Estimate factorial moments from the observed positions only.

    The one-series view of :func:`factorial_moments`: unobserved positions
    contribute nothing to either numerator or denominator.
    """
    n_obs = series.n_observed
    if n_obs == 0:
        raise DegenerateSeriesError("series has no observed positions")
    muhat = factorial_moments(series.values, series.mask, m)
    return MomentSummary(m=m, muhat=muhat, n_observed=n_obs, tauhat=n_obs / series.T)


def poisson_factorial_moment(mu: float, k: int) -> float:
    """k-th factorial moment of Poi(mu): mu**k."""
    if not mu > 0:
        raise ParameterError(f"mu must be positive, got {mu}")
    return float(mu) ** k


def binomial_factorial_moment(n: int, pi: float, k: int) -> float:
    """k-th factorial moment of Bin(n, pi): n_(k) * pi**k (zero for k > n)."""
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must lie in (0, 1), got {pi}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return falling_factorial(int(n), k) * float(pi) ** k


def _product_coefficient(k: int, s: int, i: int) -> int:
    """C(k, i) C(s, i) i!, the weight of x_(k+s-i) in x_(k) x_(s) = sum_i
    C(k, i) C(s, i) i! x_(k+s-i)."""
    return comb(k, i) * comb(s, i) * factorial(i)


def bpoi_mixed_factorial(mu: float, rho: float, h: int, k: int, s: int) -> float:
    """Joint factorial moment E[(X_t)_(k) (X_{t-h})_(s)] for the Poisson AR family.

    Evaluates mu_(k)*mu_(s) * sum_i C(k,i) C(s,i) i! (rho**h / mu)**i, the
    closed form for a bivariate-Poisson pair with common-component intensity
    rho**h * mu.  Symmetric in (k, s).
    """
    if not mu > 0:
        raise ParameterError(f"mu must be positive, got {mu}")
    if not 0.0 <= rho < 1.0:
        raise ParameterError(f"rho must lie in [0, 1), got {rho}")
    if h < 1:
        raise ParameterError(f"lag must be >= 1, got {h}")
    if k < 0 or s < 0:
        raise ParameterError("orders must be non-negative")
    if k == 0:
        return poisson_factorial_moment(mu, s) if s > 0 else 1.0
    if s == 0:
        return poisson_factorial_moment(mu, k)
    ratio = rho**h / mu
    total = 0.0
    for i in range(min(k, s) + 1):
        total += _product_coefficient(k, s, i) * ratio**i
    return mu**k * mu**s * total


def bbin_mixed_factorial(n: int, pi: float, rho: float, h: int, k: int, s: int) -> float:
    """Joint factorial moment E[(X_t)_(k) (X_{t-h})_(s)] for the binomial AR family.

    Evaluates n_(k) n_(s) pi**(k+s) * sum_i [C(k,i) C(n-k,s-i) / C(n,s)] *
    (1 + rho**h (1-pi)/pi)**i, the bivariate-binomial closed form.  Symmetric
    in (k, s); zero when either order exceeds n.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must lie in (0, 1), got {pi}")
    if h < 1:
        raise ParameterError(f"lag must be >= 1, got {h}")
    if k < 0 or s < 0:
        raise ParameterError("orders must be non-negative")
    if k == 0:
        return binomial_factorial_moment(n, pi, s) if s > 0 else 1.0
    if s == 0:
        return binomial_factorial_moment(n, pi, k)
    if k > n or s > n:
        return 0.0
    a = 1.0 + (1.0 - pi) / pi * rho**h
    cns = comb(n, s)
    total = 0.0
    for i in range(min(k, s) + 1):
        total += comb(k, i) * comb(n - k, s - i) / cns * a**i
    return falling_factorial(n, k) * falling_factorial(n, s) * pi ** (k + s) * total


def lag0_mixed_factorial(univariate, k: int, s: int) -> float:
    """Lag-zero joint factorial moment E[(X_t)_(k) (X_t)_(s)].

    ``univariate`` supplies mu_(1), mu_(2), ... as a sequence; orders up to
    k + s must be present.  Expands the product through the falling-factorial
    identity x_(k) x_(s) = sum_i C(k, i) C(s, i) i! x_(k+s-i).
    """
    if k < 0 or s < 0:
        raise ParameterError("orders must be non-negative")
    if k + s > len(univariate):
        raise ParameterError(
            f"univariate moments up to order {k + s} required, got {len(univariate)}"
        )
    u = [1.0] + [float(v) for v in univariate]
    return sum(_product_coefficient(k, s, i) * u[k + s - i] for i in range(min(k, s) + 1))


@lru_cache(maxsize=None)
def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind S(j, k)."""
    if j < 0 or k < 0:
        raise ParameterError("indices must be non-negative")
    if j == k:
        return 1
    if k == 0 or k > j:
        return 0
    return k * stirling2(j - 1, k) + stirling2(j - 1, k - 1)


class _ArMoments:
    """The joint moments of an AR(1) oracle: lag zero from the univariate
    moments, other lags from the family's ``_lagged(k, s, h)``, h >= 1."""

    def mixed(self, k: int, s: int, h: int) -> float:
        if h < 0:
            k, s, h = s, k, -h
        if h == 0:
            uni = [self.univariate(j) for j in range(1, 7)]
            return lag0_mixed_factorial(uni, k, s)
        return self._lagged(k, s, h)


class PoissonArMoments(_ArMoments):
    """Factorial-moment oracle for the stationary Poisson AR(1) count family."""

    def __init__(self, mu: float, rho: float):
        if not mu > 0:
            raise ParameterError(f"mu must be positive, got {mu}")
        if not 0.0 <= rho < 1.0:
            raise ParameterError(f"rho must lie in [0, 1), got {rho}")
        self.mu = float(mu)
        self.rho = float(rho)

    def univariate(self, k: int) -> float:
        return 1.0 if k == 0 else poisson_factorial_moment(self.mu, k)

    def _lagged(self, k: int, s: int, h: int) -> float:
        return bpoi_mixed_factorial(self.mu, self.rho, h, k, s)


class BinomialArMoments(_ArMoments):
    """Factorial-moment oracle for the stationary binomial AR(1) count family."""

    def __init__(self, n: int, pi: float, rho: float):
        if n < 2:
            raise ParameterError(f"n must be >= 2, got {n}")
        if not 0.0 < pi < 1.0:
            raise ParameterError(f"pi must lie in (0, 1), got {pi}")
        if not 0.0 <= rho < 1.0:
            raise ParameterError(f"rho must lie in [0, 1), got {rho}")
        self.n = int(n)
        self.pi = float(pi)
        self.rho = float(rho)

    def univariate(self, k: int) -> float:
        return 1.0 if k == 0 else binomial_factorial_moment(self.n, self.pi, k)

    def _lagged(self, k: int, s: int, h: int) -> float:
        return bbin_mixed_factorial(self.n, self.pi, self.rho, h, k, s)


class RawMoments:
    """Raw-moment view over a factorial-moment oracle.

    Converts both univariate and joint moments through the Stirling expansion
    x**k = sum_a S(k, a) x_(a), so that E[X_t**k X_{t-h}**l] is a double sum
    over the underlying joint factorial moments.
    """

    def __init__(self, base):
        self.base = base

    def univariate(self, k: int) -> float:
        if k == 0:
            return 1.0
        return sum(stirling2(k, a) * self.base.univariate(a) for a in range(1, k + 1))

    def mixed(self, k: int, l: int, h: int) -> float:
        if h == 0:
            return self.univariate(k + l)
        if k == 0:
            return self.univariate(l)
        if l == 0:
            return self.univariate(k)
        total = 0.0
        for a in range(1, k + 1):
            sa = stirling2(k, a)
            for b in range(1, l + 1):
                total += sa * stirling2(l, b) * self.base.mixed(a, b, h)
        return total
