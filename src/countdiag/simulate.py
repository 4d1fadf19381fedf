"""Exact stationary simulators for the count processes and the observation mask."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .series import (
    Bar1, CountSeries, MissingSpec, PoiInar1, Seed, MASK_SENTINEL, _check, _pack_mask, _thinnings,
    _as_1d_integers, _unpack_mask,
)


#: Probability mass a transition table may leave out: the spacing of
#: numpy's float64 uniforms, below which inversion cannot tell two laws apart.
_TAIL = 2.0**-53
#: Uniforms drawn at a time (1 MiB), as a block of steps of every path.
_BLOCK = 1 << 17
#: Uniforms turned into Python floats at a time on the single-path route: a whole
#: _BLOCK would keep 2**17 floats alive, 3.5 MiB more peak memory on a T = 1e5 path.
_SCALARS = 4096
#: Most entries a transition table may hold, K rows of cumulative and of
#: guide cells (16 MiB); a model whose table would hold more has none.
_TABLE = 1 << 21


def _poisson_pmf(lam: float, size: int) -> np.ndarray:
    """Poi(lam) probabilities of 0..size-1, by recursion outward from the mode,
    scaled to sum to 1 (the size used here leaves out less than _TAIL)."""
    m = min(int(lam), size - 1)
    p = np.empty(size)
    p[m] = math.exp(m * math.log(lam) - lam - math.lgamma(m + 1) if m else -lam)
    p[m + 1 :] = p[m] * np.cumprod(lam / np.arange(m + 1, size))
    p[:m] = p[m] * np.cumprod(np.arange(m, 0, -1) / lam)[::-1]
    return p / p.sum()


def _poisson_cut(lam: float) -> int:
    """The least K with P(Poi(lam) >= K) < _TAIL."""
    pmf = _poisson_pmf(lam, int(lam + 10.0 * math.sqrt(lam)) + 40)
    return int(np.count_nonzero(np.cumsum(pmf[::-1])[::-1] >= _TAIL))


def _guide_cells(J: int) -> int:
    """Guide cells per row of a table over J states: the power of two at or above 4J."""
    return 1 << (4 * J - 1).bit_length()


def _poisson_rows(mu: float, rho: float):
    """PoINAR(1) transition pmf rows, Bin(k, rho) * Poi(mu(1-rho)) over 0..J-1
    for the states k < K, or None if their table would not fit _TABLE.

    K leaves out less than _TAIL of the stationary Poi(mu); a row thins at
    most K - 1 counts, so J leaves out less than _TAIL of each row.
    """
    if 8.0 * mu * mu > _TABLE:  # K > mu and M >= 4K: no table fits, so skip finding K
        return None
    lam = mu * (1.0 - rho)
    K = _poisson_cut(mu)
    J = K - 1 + _poisson_cut(lam)
    if 2 * K * _guide_cells(J) > _TABLE:
        return None
    return _thinned(_poisson_pmf(lam, J), rho, K)


def _thinned(first: np.ndarray, p: float, K: int) -> np.ndarray:
    """K rows over the columns of ``first``: row k is ``first`` convolved with
    Bin(k, p), by row_{k+1} = (1-p) row_k + p shift(row_k)."""
    rows = np.empty((K, first.size))
    rows[0] = first
    for k in range(1, K):
        np.multiply(rows[k - 1], 1.0 - p, out=rows[k])
        rows[k, 1:] += p * rows[k - 1, :-1]
    return rows


def _binomial_rows(n: int, alpha: float, beta: float):
    """BAR(1) transition pmf rows, Bin(k, alpha) * Bin(n-k, beta) over 0..n
    for every state k <= n, or None if their table would not fit _TABLE."""
    N = n + 1
    if 2 * N * _guide_cells(N) > _TABLE:
        return None
    one = np.eye(1, N)[0]  # the pmf of 0
    thin, head = _thinned(one, alpha, N), _thinned(one, beta, N)[::-1]
    rows = np.zeros((N, N))
    for i in range(N):  # rows k >= i gain Bin(k, alpha)[i] * Bin(n-k, beta) shifted by i
        rows[i:, i:] += thin[i:, i, None] * head[i:, : N - i]
    return rows


class _Table(NamedTuple):
    """Inversion table of the transition pmf of the states k < K.

    ``cdf`` holds the K cumulative rows, each capped at 1.0, ending at 1.0 and
    padded with 1.0 to M columns.  ``guide`` holds, for row k and cell c < M,
    the flat index k*M + j of the least j with cdf[k, j] > c/M: a uniform u
    searches from cell floor(u*M) and never passes its answer.  ``closed``
    says that every row stays below K.
    """

    K: int
    M: int
    cdf: np.ndarray
    guide: np.ndarray
    closed: bool


def _cumulative(pmf: np.ndarray) -> np.ndarray:
    """The cumulative rows of one pmf row or of K rows, capped at 1.0, ending at 1.0."""
    cdf = np.minimum(np.cumsum(pmf, axis=-1), 1.0)
    cdf[..., -1] = 1.0
    return cdf


def _inversion_table(pmf: np.ndarray) -> _Table:
    """The _Table of a K x J transition pmf, with M = _guide_cells(J)."""
    K, J = pmf.shape
    M = _guide_cells(J)
    cdf = np.ones((K, M))
    cdf[:, :J] = _cumulative(pmf)
    cells = np.arange(M) / M
    guide = [np.searchsorted(row, cells, side="right") + k * M for k, row in enumerate(cdf)]
    return _Table(K, M, cdf.ravel(), np.concatenate(guide), J <= K)


def _exact_paths(x, T: int, step) -> np.ndarray:
    """Rows of int64 paths x_0..x_{T-1} with x_t = step(x_{t-1}).

    ``x`` holds x_0 of each path, or is a Python int for one path, whose draws
    are then scalars: numpy yields the same stream as for size-1 arrays, and
    scalar draws are much faster.
    """
    steps = [x]
    for _ in range(1, T):
        steps.append(x := step(x))
    return np.array(steps, dtype=np.int64).reshape(T, -1).T.copy()


def _inverted_path(x, T: int, rng, pmf: np.ndarray, step) -> np.ndarray:
    """One path by inversion in Python scalars, from the uniforms of the
    one-row vectorised route, read _SCALARS at a time.  Each step searches
    the cumulative row of its state with bisect, as a list built on the
    state's first visit; a state with no row takes ``step(x)``."""
    rows = [None] * len(pmf)
    path = [x]
    for t in range(1, T, _BLOCK):
        block = rng.random(min(_BLOCK, T - t))
        for i in range(0, block.size, _SCALARS):
            for u in block[i : i + _SCALARS].tolist():
                if x < len(rows):
                    if rows[x] is None:
                        rows[x] = _cumulative(pmf[x]).tolist()
                    x = bisect_right(rows[x], u)
                else:
                    x = step(x)
                path.append(x)
    return np.array([path], dtype=np.int64)


def _inverted_paths(x: np.ndarray, T: int, rng, table: _Table, step) -> np.ndarray:
    """Rows of paths by inversion, one vectorised step of every row at a time."""
    K, M, cdf, guide, closed = table
    count = len(x)
    out = np.empty((count, T), dtype=np.int64)
    out[:, 0] = x
    rows = max(1, _BLOCK // count)
    for t in range(1, T, rows):
        u = rng.random((min(rows, T - t), count))
        cells = (u * M).astype(np.intp)  # floor(u*M), exact as M is a power of two
        block = np.empty(u.shape, dtype=np.int64)
        for r, x_next in enumerate(block):
            beyond = None
            if not closed and x.max() >= K:  # a state without a row takes the exact step
                beyond = np.flatnonzero(x >= K)
                x_beyond = x[beyond]
                x = np.where(x >= K, 0, x)
            base = x * M
            at = guide[base + cells[r]]
            ahead = cdf[at] <= u[r]
            while ahead.any():
                at += ahead
                ahead = cdf[at] <= u[r]
            x = np.subtract(at, base, out=x_next)
            if beyond is not None:
                x[beyond] = step(x_beyond)
        out[:, t : t + len(block)] = block.T
    return out


def _paths(x, T: int, rng, rows, step) -> np.ndarray:
    """Rows of int64 paths x_0..x_{T-1} of a count Markov chain.

    ``x`` holds x_0 of each path, or is a scalar for one path.  A step
    inverts the transition CDF of the previous state: x_t is the least j with
    u < F(j | x_{t-1}), for one uniform u per path and step, drawn _BLOCK at a
    time.  ``rows()`` gives the transition pmf of the states below some K, or
    None for a model whose table would not fit _TABLE; then every step is the
    model's exact two-draw step ``step(x)``, for an array of states or one
    Python int, as is a step from a state at or above K.  One path runs in
    Python scalars, with the stream of the one-row vectorised route.  As the
    model alone picks the route, a path is the first T steps of the same
    seed's longer one, unless a state at or above K occurs before T.
    """
    pmf = rows() if T > 1 else None
    if pmf is None:
        return _exact_paths(x, T, step)
    if np.ndim(x) == 0:
        return _inverted_path(x, T, rng, pmf, step)
    return _inverted_paths(x, T, rng, _inversion_table(pmf), step)


def _poisson_chain(mu: float, rho: float, rng):
    """The PoINAR(1) transition as ``_paths`` takes it: (rows, step)."""
    lam = mu * (1.0 - rho)

    def step(x):  # thin each count and add an innovation
        return rng.binomial(x, rho) + rng.poisson(lam, size=np.shape(x) or None)

    return lambda: _poisson_rows(mu, rho), step


def _binomial_chain(n: int, pi: float, rho: float, rng):
    """The BAR(1) transition as ``_paths`` takes it: (rows, step)."""
    alpha, beta = _thinnings(pi, rho)

    def step(x):  # thin the count with alpha and the head room n - x with beta
        return rng.binomial(x, alpha) + rng.binomial(n - x, beta)

    return lambda: _binomial_rows(n, alpha, beta), step


def _poisson_paths(mu: float, rho: float, T: int, count: int, rng) -> np.ndarray:
    """``count`` PoINAR(1) paths of length T, one per row (see simulate_poi_inar1)."""
    x = rng.poisson(mu, size=None if count == 1 else count)
    return _paths(x, T, rng, *_poisson_chain(mu, rho, rng))


def _binomial_paths(n: int, pi: float, rho: float, T: int, count: int, rng) -> np.ndarray:
    """``count`` BAR(1) paths of length T, one per row (see simulate_bar1)."""
    x = rng.binomial(n, pi, size=None if count == 1 else count)
    return _paths(x, T, rng, *_binomial_chain(n, pi, rho, rng))


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


def _packed_steps(u: np.ndarray, p: float, first: np.ndarray) -> np.ndarray:
    """Rows of :func:`~countdiag.series._pack_mask` words whose bit t is
    u[:, t] < p, with bit 0 taken from ``first``."""
    steps = np.less(u, p)
    steps[:, 0] = first
    return _pack_mask(steps)


def _markov_mask_from_uniforms(u: np.ndarray, tau: float, r: float) -> np.ndarray:
    """Build stationary Markov mask paths from uniforms along the last axis,
    as :func:`~countdiag.series._pack_mask` words: each row of T steps
    becomes a row of ceil(T / 64) uint64 words, bit t holding step t.

    A latch: one uniform per step either forces the state (below P(1|0) -> 1,
    at or above P(1|1) -> 0) or copies the previous state.  The first step of
    each path is forced to u < tau.  At r = 0 every step is forced and the
    mask is u < tau.  Requires r >= 0 so that P(1|0) <= tau <= P(1|1).

    The latch runs 64 steps per machine word, on the gains g (forced to 1)
    and holds h (not forced to 0) of each row, packed the same way; a gain
    is also a hold.  In the sum s = g + h, a gain leaves a carry that runs
    up through the copy steps after it (h = 1, g = 0) and stops at the first
    forced 0 (h = 0), so a copy step's bit of s ^ h is the carry into it,
    which is the previous state, and the mask is ((s ^ h) | g) & h.  Bit 0
    is forced, so no carry enters a row.

    Each row's words add as one long integer.  A word of all ones passes the
    carry into it on; any other word passes on just its own overflow.  So the
    carry into a word is the overflow of the last word before it that is not
    all ones, found by one running maximum over the words.  The bits past T
    are 0 in g and h, forced 0s: they absorb the carry of the last step and
    read 0, and the carry out of a row's last word is dropped.  ``u`` is not
    written; it is freed here once read, so pass it without keeping a
    reference.
    """
    p_gain = tau * (1.0 - r)  # P(O_t = 1 | O_{t-1} = 0)
    p_stay = tau + (1.0 - tau) * r  # P(O_t = 1 | O_{t-1} = 1)
    if p_gain == p_stay:
        return _pack_mask(np.less(u, tau))
    shape, T = u.shape, u.shape[-1]
    u = u.reshape(-1, T)
    first = u[:, 0] < tau
    g = _packed_steps(u, p_gain, first)
    h = _packed_steps(u, p_stay, first)
    del u
    words = g.shape[1]
    s = g + h
    overflow = s < g
    # the last word at or before each that is not all ones; word 0 never is,
    # as bit 0 of s is 0
    stop = np.where(s != np.uint64(2**64 - 1), np.arange(words), 0)
    np.maximum.accumulate(stop, axis=1, out=stop)
    s[:, 1:] += np.take_along_axis(overflow, stop[:, :-1], axis=1)
    s ^= h
    s |= g
    s &= h
    return s.reshape(shape[:-1] + (words,))


def simulate_markov_mask(spec: MissingSpec, T: int, seed: Seed) -> np.ndarray:
    """Simulate a stationary binary Markov mask with mean tau and ACF r**h.

    The transition probabilities implied by E[O_t O_{t+h}] = tau**2 +
    tau*(1-tau)*r**h are P(1|1) = tau + (1-tau)*r and P(1|0) = tau*(1-r);
    the initial state is Bernoulli(tau).  ``r = 0`` yields an i.i.d. mask.
    """
    _check("T", T)
    return _unpack_mask(_markov_mask_from_uniforms(seed.generator().random(T), spec.tau, spec.r), T)


def apply_mask(series: CountSeries, mask) -> CountSeries:
    """Attach an observation mask to a series, hiding the masked values.

    Values at mask-0 positions are replaced by the sentinel; downstream
    estimators only ever touch mask-1 positions.  A fully masked result is
    accepted here and rejected by the estimators that cannot handle it.
    """
    mask = _as_1d_integers(mask, "mask")
    if mask.size != series.T:
        raise ParameterError(
            f"mask length {mask.size} does not match series length {series.T}"
        )
    values = np.where(mask == 1, series.values, MASK_SENTINEL)
    return CountSeries(values, mask)
