"""Exact stationary simulators for the count processes and the observation mask."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .series import Bar1, CountSeries, MissingSpec, PoiInar1, Seed, MASK_SENTINEL, _check


def _paths(x, T: int, step) -> np.ndarray:
    """Rows of int64 paths x_0..x_{T-1} with x_t = step(x_{t-1}, t).

    ``x`` holds x_0 of each path, or is a scalar for one path, whose draws are
    then scalars: numpy yields the same stream as for size-1 arrays, about ten
    times faster, and a list stores scalars faster than an array row.
    """
    count = 1 if np.ndim(x) == 0 else len(x)
    out = np.empty((count, T), dtype=np.int64)
    steps = [0] * T if count == 1 else out.T
    steps[0] = x
    for t in range(1, T):
        x = step(x, t)
        steps[t] = x
    if count == 1:
        out[0] = steps
    return out


def _poisson_paths(mu: float, rho: float, T: int, count: int, rng) -> np.ndarray:
    """``count`` PoINAR(1) paths of length T, one per row (see simulate_poi_inar1)."""
    x = rng.poisson(mu, size=None if count == 1 else count)
    eps = rng.poisson(mu * (1.0 - rho), size=(count, T - 1))
    eps = eps[0].tolist() if count == 1 else eps.T
    return _paths(x, T, lambda x, t: rng.binomial(x, rho) + eps[t - 1])


def _binomial_paths(n: int, pi: float, rho: float, T: int, count: int, rng) -> np.ndarray:
    """``count`` BAR(1) paths of length T, one per row (see simulate_bar1)."""
    alpha = pi * (1.0 - rho) + rho
    beta = pi * (1.0 - rho)
    x = rng.binomial(n, pi, size=None if count == 1 else count)
    return _paths(x, T, lambda x, t: rng.binomial(x, alpha) + rng.binomial(n - x, beta))


def simulate_poi_inar1(spec: PoiInar1, T: int, seed: Seed) -> CountSeries:
    """Simulate a Poisson INAR(1) path of length T, fully observed.

    The initial value is drawn from the stationary Poi(mu) marginal, so no
    burn-in is needed; each step applies binomial thinning to the previous
    count and adds a Poisson innovation.
    """
    _check("T", T)
    return CountSeries(_poisson_paths(spec.mu, spec.rho, T, 1, seed.generator())[0])


def simulate_bar1(spec: Bar1, T: int, seed: Seed) -> CountSeries:
    """Simulate a binomial AR(1) path of length T, fully observed.

    Starts from the stationary Bin(n, pi) marginal; each step uses two
    independent thinnings, one of the previous count with probability alpha
    and one of the head room n - X with probability beta.
    """
    _check("T", T)
    return CountSeries(_binomial_paths(spec.n, spec.pi, spec.rho, T, 1, seed.generator())[0])


def _markov_mask_from_uniforms(u: np.ndarray, tau: float, r: float) -> np.ndarray:
    """Build stationary int8 Markov mask paths from uniforms along the last axis.

    A latch: one uniform per step either forces the state (below P(1|0) -> 1,
    at or above P(1|1) -> 0) or copies the previous state.  The first step of
    each path is forced to u < tau, so on the flattened array every unforced
    step copies the last forced one before it, and each forced state is
    repeated over its run.  At r = 0 every step is forced and the mask is
    u < tau.  Requires r >= 0 so that P(1|0) <= tau <= P(1|1); ``u`` is freed
    here once read, so pass it without keeping a reference.
    """
    p_gain = tau * (1.0 - r)  # P(O_t = 1 | O_{t-1} = 0)
    p_stay = tau + (1.0 - tau) * r  # P(O_t = 1 | O_{t-1} = 1)
    if p_gain == p_stay:
        return np.less(u, tau, order="C").view(np.int8)
    gain = u < p_gain
    forced = gain | (u >= p_stay)
    gain[..., 0] = u[..., 0] < tau
    forced[..., 0] = True
    del u
    at = np.flatnonzero(forced)
    del forced
    state = gain.ravel()[at].view(np.int8)
    return np.repeat(state, np.diff(at, append=gain.size)).reshape(gain.shape)


def simulate_markov_mask(spec: MissingSpec, T: int, seed: Seed) -> np.ndarray:
    """Simulate a stationary binary Markov mask with mean tau and ACF r**h.

    The transition probabilities implied by E[O_t O_{t+h}] = tau**2 +
    tau*(1-tau)*r**h are P(1|1) = tau + (1-tau)*r and P(1|0) = tau*(1-r);
    the initial state is Bernoulli(tau).  ``r = 0`` yields an i.i.d. mask.
    """
    _check("T", T)
    return _markov_mask_from_uniforms(seed.generator().random(T), spec.tau, spec.r)


def apply_mask(series: CountSeries, mask) -> CountSeries:
    """Attach an observation mask to a series, hiding the masked values.

    Values at mask-0 positions are replaced by the sentinel; downstream
    estimators only ever touch mask-1 positions.  A fully masked result is
    accepted here and rejected by the estimators that cannot handle it.
    """
    mask = np.asarray(mask)
    if mask.shape != series.values.shape:
        raise ParameterError(
            f"mask length {mask.size} does not match series length {series.T}"
        )
    values = np.where(mask == 1, series.values, MASK_SENTINEL)
    return CountSeries(values, mask)
