"""Sample factorial moments under an observation mask, and closed-form model
moments (univariate, joint, raw) for the two count families."""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, perm, prod

import numpy as np

from .errors import DegenerateSeriesError, ParameterError
from .series import _NONE_OBSERVED, CountSeries, _check, _integer


class Tally:
    """The counts of (..., T) rows as histogram keys, for masked factorial moments.

    Simulated and observed counts are small integers, so a row's factorial
    moments are its value histogram times a falling-factorial table.  The
    tally is the per-paths half of that product: position t of row i holds
    the bin key ``(i * S + s) * V + x - lo``, where s is the slot of t among
    the S prefix ``ends`` (strictly increasing, in 1..T; ``[T]`` for whole
    rows) and ``lo..lo+V-1`` the value window.  The per-mask half,
    :meth:`moments`, is one ``bincount`` of the keys weighted by the mask.
    The window starts at the least count and holds at most
    ``ends[-1] // S`` values, so the histogram never has more bins than the
    tally has positions, whatever the counts.  The rare counts above the
    window are kept aside (flat position, row-and-slot group, value), and
    their key is one spare bin past the windows; a second weighted
    ``bincount`` adds them per group.

    ``counts`` must be integers; an int64 array is overwritten with the keys,
    so pass one that nothing else reads.
    """

    def __init__(self, counts, ends):
        counts = np.asarray(counts)
        T = counts.shape[-1]
        bounds = np.asarray(ends, dtype=np.intp)
        if bounds.ndim != 1 or bounds.size == 0 or bounds[0] < 1 or bounds[-1] > T or np.any(
            np.diff(bounds) <= 0
        ):
            raise ParameterError(
                f"prefix ends must increase strictly within 1..{T}, got {bounds.tolist()}"
            )
        self.ends = bounds.tolist()
        self.lead = counts.shape[:-1]
        n, S = int(bounds[-1]), bounds.size
        rows = prod(self.lead)
        key = counts.astype(np.int64, copy=False)[..., :n].reshape(rows, n)
        lo, hi = (int(key.min()), int(key.max())) if key.size else (0, 0)
        V = max(1, min(hi - lo + 1, n // S))
        at = np.flatnonzero(key >= lo + V)
        row, col = np.divmod(at, n)
        value = key[row, col]
        for s in range(1, S):
            key[:, bounds[s - 1] : bounds[s]] += s * V
        key += (V * S * np.arange(rows) - lo)[:, None]
        key[row, col] = rows * S * V  # one spare bin past the windows
        row *= S
        row += np.searchsorted(bounds, col, side="right")  # the row-and-slot group
        self.outside = (at, row, value)
        self.key, self.lo, self.width, self.segments = key, lo, V, S

    def moments(self, mask, m: int) -> np.ndarray:
        """Factorial moments of orders 1..m over the mask-1 positions of each row.

        ``muhat[k-1]`` is sum_t O_t (X_t)_(k) / sum_t O_t, NaN for a row with
        nothing observed, and its last axis holds one entry per prefix
        ``[..., :end]``.  ``mask`` has the counts' shape, or a longer last axis.
        Every sum is of integer-valued float64, exact below 2**53 in any order,
        so each moment equals the elementwise masked sum bit for bit there.
        """
        if m < 1:
            raise ParameterError(f"max order must be >= 1, got {m}")
        rows, n = self.key.shape
        S, V = self.segments, self.width
        groups = rows * S
        observed = np.asarray(mask)[..., :n].reshape(rows, n) == 1
        hist = np.bincount(self.key.ravel(), weights=observed.ravel(), minlength=groups * V + 1)
        hist = hist[: groups * V].reshape(groups, V)
        at, group, value = self.outside
        seen = observed.ravel()[at]
        del observed
        group, value = group[seen], value[seen]
        n_obs = hist.sum(axis=1) + np.bincount(group, minlength=groups)
        # the table stops at the largest count observed within the window
        width = 1 + np.flatnonzero(hist.any(axis=0)).max(initial=0)
        table = np.stack(list(_falling(self.lo + np.arange(width), m)), axis=-1)
        sums = hist[:, :width] @ table
        del hist
        for k, fk in enumerate(_falling(value, m)):
            sums[:, k] += np.bincount(group, weights=fk, minlength=groups)
        n_obs = n_obs.reshape(rows, S).cumsum(axis=1)
        sums = sums.reshape(rows, S, m).cumsum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            muhat = np.moveaxis(sums / n_obs[..., None], -1, 0)
        return muhat.reshape((m,) + self.lead + (S,))


def _falling(x, m: int):
    """x_(1), ..., x_(m) of the entries of x in float64, by the products
    x_(k) = x (x-1) ... (x-k+1)."""
    x = fk = np.asarray(x, dtype=np.float64)
    yield fk
    for k in range(1, m):
        fk = fk * (x - k)
        yield fk


def sample_factorial_moments(series: CountSeries, m: int) -> np.ndarray:
    """Factorial moments of orders 1..m from the observed positions only.

    ``muhat[k-1]`` is the k-th moment, sum_t O_t (X_t)_(k) / sum_t O_t:
    unobserved positions contribute nothing to either numerator or
    denominator.  The one-series view of :class:`Tally`.
    """
    if series.n_observed == 0:
        raise DegenerateSeriesError(_NONE_OBSERVED)
    values, observed = series.values, series.mask == 1
    # masked positions take the first observed count: their keys are never
    # read, and the window still starts at the least observed count
    counts = np.where(observed, values, values[np.argmax(observed)])
    return Tally(counts, [series.T]).moments(series.mask, m)[..., 0]


def _observed_mean(series: CountSeries) -> float:
    """The float64 sum of the observed counts over their number, without a tally.

    Below 2**53 the sum is exact in any order, so the mean equals
    ``sample_factorial_moments(series, 1)[0]`` bit for bit; above, it rounds
    but never wraps, as an int64 sum of counts up to 2**63 - 1 would.
    """
    observed = series.observed_values()
    if observed.size == 0:
        raise DegenerateSeriesError(_NONE_OBSERVED)
    return float(observed.sum(dtype=np.float64)) / observed.size


def _product_coefficient(k: int, s: int, i: int) -> int:
    """C(k, i) C(s, i) i!, the weight of x_(k+s-i) in x_(k) x_(s) = sum_i
    C(k, i) C(s, i) i! x_(k+s-i)."""
    return comb(k, i) * comb(s, i) * factorial(i)


@lru_cache(maxsize=None)
def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind S(j, k)."""
    _check("j", j, "order")
    _check("k", k, "order")
    if j == k:
        return 1
    if k == 0 or k > j:
        return 0
    return k * stirling2(j - 1, k) + stirling2(j - 1, k - 1)


class _ArMoments:
    """The joint moments of an AR(1) oracle: lag zero from ``univariate`` by
    the identity of :func:`_product_coefficient`, other lags from the
    family's ``_lagged(k, s, h)``, h >= 1 and both orders >= 1.  Parameters
    are checked once, by the constructor."""

    def mixed(self, k: int, s: int, h: int) -> float:
        _check("k", k, "order")
        _check("s", s, "order")
        if _integer("h", h) < 0:
            k, s, h = s, k, -h
        if h == 0:
            u = self.univariate
            return sum(_product_coefficient(k, s, i) * u(k + s - i) for i in range(min(k, s) + 1))
        if k == 0 or s == 0:
            return self.univariate(k + s)
        return self._lagged(k, s, h)


class PoissonArMoments(_ArMoments):
    """Factorial-moment oracle for the stationary Poisson AR(1) count family."""

    def __init__(self, mu: float, rho: float):
        self.mu = float(_check("mu", mu))
        self.rho = float(_check("rho", rho))

    def univariate(self, k: int) -> float:
        """mu_(k) = mu**k."""
        return self.mu ** _check("k", k, "order")

    def _lagged(self, k: int, s: int, h: int) -> float:
        """mu_(k) mu_(s) sum_i C(k, i) C(s, i) i! (rho**h / mu)**i, the
        bivariate-Poisson closed form with common-component intensity
        rho**h mu."""
        mu = self.mu
        ratio = self.rho**h / mu
        total = 0.0
        for i in range(min(k, s) + 1):
            total += _product_coefficient(k, s, i) * ratio**i
        return mu**k * mu**s * total


class BinomialArMoments(_ArMoments):
    """Factorial-moment oracle for the stationary binomial AR(1) count family."""

    def __init__(self, n: int, pi: float, rho: float):
        self.n = _check("n", n)
        self.pi = float(_check("pi", pi))
        self.rho = float(_check("rho", rho))

    def univariate(self, k: int) -> float:
        """mu_(k) = n_(k) pi**k, zero for k > n."""
        return perm(self.n, _check("k", k, "order")) * self.pi**k

    def _lagged(self, k: int, s: int, h: int) -> float:
        """n_(k) n_(s) pi**(k+s) sum_i [C(k, i) C(n-k, s-i) / C(n, s)]
        (1 + rho**h (1-pi)/pi)**i, the bivariate-binomial closed form; zero
        when either order exceeds n."""
        n, pi = self.n, self.pi
        if k > n or s > n:
            return 0.0
        a = 1.0 + (1.0 - pi) / pi * self.rho**h
        if a == 1.0:
            # rho**h vanishes beside 1: the pair is independent and factorizes
            # exactly, where the weighted sum below would leave a rounding residue
            return self.univariate(k) * self.univariate(s)
        cns = comb(n, s)
        total = 0.0
        for i in range(min(k, s) + 1):
            total += comb(k, i) * comb(n - k, s - i) / cns * a**i
        return perm(n, k) * perm(n, s) * pi ** (k + s) * total


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
