"""Mask-process estimation and serial-dependence estimation for partially
observed series: observed-pair autocovariances, per-lag critical bands, and
the Durbin-Levinson recursion for partial autocorrelations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateSeriesError, NumericalDegeneracyError, ParameterError
from .series import CountSeries, _check
from .moments import _observed_mean


@dataclass(frozen=True)
class AcfEstimate:
    """Autocorrelation estimates for a partially observed series.

    Attributes
    ----------
    rho_hat : np.ndarray
        Autocorrelation at lags 0..L; ``rho_hat[0] == 1``.  Values are stored
        unclipped, so finite-sample estimates may leave [-1, 1].
    tau_lag : np.ndarray
        Realized observed-pair fractions (1/T) * sum_t O_t O_{t+l}.
    T : int
        Length of the underlying series.
    """

    rho_hat: np.ndarray
    tau_lag: np.ndarray
    T: int


def _two_sided_z(alpha: float) -> float:
    """z_{1-alpha/2}, the standard normal quantile of a two-sided level-alpha
    test (Wichura's AS 241, through the standard library).

    An alpha so small that 1 - alpha/2 rounds to 1 gives an infinite z.
    """
    p = 1.0 - _check("alpha", alpha) / 2.0
    return math.inf if p == 1.0 else NormalDist().inv_cdf(p)


def estimate_r(mask) -> float:
    """Lag-1 sample autocorrelation of a binary mask.

    For a binary stationary chain this coincides with the lag-1 partial
    autocorrelation.  The numerator averages the T-1 adjacent-pair products,
    so a strictly alternating mask yields exactly -1 (out of the supported
    dependence range [0, 1); callers should treat negative estimates as 0).

    Raises
    ------
    ParameterError
        If the mask is shorter than two or holds an entry other than 0 and 1.
    DegenerateSeriesError
        If the mask is constant; dependence is then undefined and the
        conventional override is r = 0.
    """
    m = np.asarray(mask, dtype=np.float64)
    if m.size < 2:
        raise ParameterError("mask must contain at least two elements")
    bad = np.flatnonzero((m != 0.0) & (m != 1.0))
    if bad.size:
        i = bad[0]
        raise ParameterError(f"mask entry {m[i]:g} at position {i} (0-based) is neither 0 nor 1")
    mbar = m.mean()
    den = ((m - mbar) ** 2).sum() / m.size
    if den == 0.0:
        raise DegenerateSeriesError(
            "mask is constant; serial dependence is undefined (use r = 0)"
        )
    num = ((m[:-1] - mbar) * (m[1:] - mbar)).sum() / (m.size - 1)
    return float(num / den)


def _lag_sums(d: np.ndarray, max_lag: int) -> np.ndarray:
    """(1/T) * sum_t d_t d_{t+l} for l = 0..max_lag, one lag at a time.

    Each lag is numpy's pairwise ``sum`` of the elementwise products, not a
    BLAS dot product: OpenBLAS's ``ddot`` splits the sum by thread, so its
    bits change with ``OPENBLAS_NUM_THREADS``.
    """
    T = d.size
    return np.array([float((d[: T - l] * d[l:]).sum()) / T for l in range(max_lag + 1)])


def dr_autocovariance(series: CountSeries, max_lag: int) -> np.ndarray:
    """Missing-data autocovariances at lags 0..max_lag, after Dunsmuir and
    Robinson (1981).

    Entry l is (1/T) * sum_t O_t O_{t+l} (X_t - muhat)(X_{t+l} - muhat), with
    the amplitude-modulated mean estimate muhat and 1/T normalization (not
    1/(T-l)).  The series is centred and masked once for all lags.  With a
    fully observed series entry 0 is the ordinary biased sample variance.
    """
    T = series.T
    if _check("max lag", max_lag, "order") >= T:
        raise ParameterError(f"max lag must lie in [0, {T - 1}], got {max_lag}")
    muhat = _observed_mean(series)
    d = series.values.astype(np.float64)
    d -= muhat
    # a masked position holds (0 - muhat) * 0, the zero of O_t (X_t - muhat)
    # with its sign, whatever count it stores
    d[series.mask != 1] = (0.0 - muhat) * 0.0
    return _lag_sums(d, max_lag)


def dr_acf(series: CountSeries, max_lag: int) -> AcfEstimate:
    """Missing-data autocorrelation for lags 0..max_lag.

    Ratios of the lag-l to the lag-0 missing-data autocovariance, together
    with the realized observed-pair fraction per lag, which feeds the per-lag
    critical bands.
    """
    T = series.T
    if _check("max lag", max_lag, "lag") >= T:
        raise ParameterError(f"max lag must lie in [1, {T - 1}], got {max_lag}")
    acov = dr_autocovariance(series, max_lag)
    if acov[0] <= 0.0:
        raise DegenerateSeriesError("observed series has zero variance")
    o = series.mask == 1
    # tau(l): pairs (t, t+l) observed at both ends, over T as in the autocovariances
    tau_lag = np.array([np.count_nonzero(o[: T - l] & o[l:]) / T for l in range(max_lag + 1)])
    return AcfEstimate(acov / acov[0], tau_lag, T)


def durbin_levinson_pacf(acf_values) -> np.ndarray:
    """Partial autocorrelations phi_11..phi_LL from autocorrelations rho(1..L).

    Standard Durbin-Levinson recursion with implied rho(0) = 1; an AR(1)
    autocorrelation rho**h therefore cuts off after the first partial.

    Raises
    ------
    ParameterError
        If an autocorrelation is not finite; the message names its lag.
    NumericalDegeneracyError
        If a step produces |phi_kk| >= 1 or a non-positive prediction-error
        term, i.e. the implied Toeplitz system is singular.
    """
    rho = np.asarray(acf_values, dtype=np.float64)
    if rho.ndim != 1 or rho.size < 1:
        raise ParameterError("need a one-dimensional sequence of at least one lag")
    bad = np.flatnonzero(~np.isfinite(rho))
    if bad.size:
        i = bad[0]
        raise ParameterError(f"autocorrelation at lag {i + 1} is not finite, got {rho[i]}")
    L = rho.size
    pacf = np.empty(L)
    pacf[0] = rho[0]
    if abs(pacf[0]) >= 1.0:
        raise NumericalDegeneracyError(f"|phi_11| = {abs(pacf[0])} >= 1")
    phi = np.array([rho[0]])
    for k in range(2, L + 1):
        num = rho[k - 1] - float(phi @ rho[k - 2 :: -1])
        den = 1.0 - float(phi @ rho[: k - 1])
        if den <= 0.0:
            raise NumericalDegeneracyError(f"prediction error vanished at lag {k}")
        ph = num / den
        if abs(ph) >= 1.0:
            raise NumericalDegeneracyError(f"|phi_{k}{k}| = {abs(ph)} >= 1")
        phi = np.concatenate([phi - ph * phi[::-1], [ph]])
        pacf[k - 1] = ph
    return pacf


def acf_critical_band(tau_lag, T: int, alpha: float = 0.05) -> np.ndarray:
    """Per-lag half-width of the serial-independence band for the ACF.

    Under independence the lag-l autocorrelation estimate has asymptotic
    variance 1/tau(l) on the sqrt(T) scale, so the two-sided band at level
    alpha is +-z_{1-alpha/2} / sqrt(T * tau_lag[l]).  With full observation
    (tau_lag = 1) this degenerates to the textbook +-z/sqrt(T) band.  Lags
    with tau_lag = 0 get a NaN half-width (band undefined there).
    """
    _check("T", T)
    z = _two_sided_z(alpha)
    tl = np.asarray(tau_lag, dtype=np.float64)
    if tl.ndim != 1:
        raise ParameterError(f"tau_lag must be one-dimensional, got shape {tl.shape}")
    bad = np.flatnonzero(~((tl >= 0.0) & (tl <= 1.0)))  # NaN fails both
    if bad.size:
        l = bad[0]
        raise ParameterError(f"tau_lag must lie in [0, 1] at every lag, got {tl[l]} at lag {l}")
    with np.errstate(divide="ignore"):
        band = z / np.sqrt(T * tl)
    return np.where(tl == 0.0, np.nan, band)
