"""Sample factorial moments under an observation mask, and closed-form model
moments (univariate, joint, raw) for the two count families."""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, perm, prod

import numpy as np

from .errors import DegenerateSeriesError, ParameterError
from .series import _NONE_OBSERVED, CountSeries, _check, _integer, _pack_mask, _unpack_mask


#: Most count values a tally holds as bit planes: 64 planes of packed words
#: take about as many bytes as the int64 counts they replace.
_PLANES = 64
#: The set bits of each byte value, for numpy before 2.0, which has no bitwise_count.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """The set bits of each uint64 word, as uint8."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    octets = np.ascontiguousarray(words).view(np.uint8)
    return _BYTE_BITS[octets].reshape(words.shape + (8,)).sum(axis=-1, dtype=np.uint8)


class Tally:
    """The counts of (..., T) rows, laid out for masked factorial moments.

    Simulated and observed counts are small integers, so a row's factorial
    moments are its histogram of values times a falling-factorial table.
    The tally is the per-paths half of that product, built once; the
    per-mask half, :meth:`moments`, reads the histogram of each row and
    prefix slot under a mask given as :func:`~countdiag.series._pack_mask`
    words.  Slot s of the S prefix ``ends`` (strictly increasing, in 1..T;
    ``[T]`` for whole rows) holds the positions from the end before it up to
    its own.  The counts alone pick one of two layouts:

    - **Bit planes**, when the counts span at most ``_PLANES`` values
      ``lo..lo+V-1``: one packed plane per value, whose bit t is set where a
      row's count at t is that value.  Each slot keeps its own copy of the
      words it spans, with the bits outside it cleared, so a read is the
      popcount of plane & mask, summed over each slot's words.
    - **Histogram keys**, for any other counts: position t of row i holds
      the bin key ``(i * S + s) * V + x - lo``, and a read is one
      ``bincount`` of the keys weighted by the unpacked mask.  The window
      starts at the least count and holds at most ``ends[-1] // S`` values,
      so the histogram never has more bins than the tally has positions,
      whatever the counts.  The rare counts above the window are kept aside
      (flat position, row-and-slot group, value), and their key is one spare
      bin past the windows; a second weighted ``bincount`` adds them per
      group.

    ``counts`` must be integers; an int64 array may be overwritten, so pass
    one that nothing else reads.
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
        if lo:
            key -= lo
        self.lo, self.segments, self.n = lo, S, n
        if hi - lo < _PLANES:
            self.width, self.outside = hi - lo + 1, None
            self._planes(key)
        else:
            self.width = V = min(hi - lo + 1, n // S)
            at = np.flatnonzero(key >= V)
            row, col = np.divmod(at, n)
            value = key[row, col] + lo
            for s in range(1, S):
                key[:, bounds[s - 1] : bounds[s]] += s * V
            key += (V * S * np.arange(rows))[:, None]
            key[row, col] = rows * S * V  # one spare bin past the windows
            row *= S
            row += np.searchsorted(bounds, col, side="right")  # the row-and-slot group
            self.outside = (at, row, value)
            self.key = key

    def _planes(self, key) -> None:
        """Build the (V, slot words, rows) planes of the counts ``key - lo``.

        The binary digits of the counts are packed into words once each.
        Before digit d, plane i for each i that 2**(d+1) divides holds the
        positions whose counts lie in i..i+2**(d+1)-1; digit d splits off the
        upper half into plane i + 2**d, if that value is in the window.
        """
        rows, n = key.shape
        V = self.width
        # per slot, the words it spans and the bits of each within the slot
        cols, bits = [], []
        for a, b in zip([0] + self.ends[:-1], self.ends):
            w = np.arange(a // 64, -(-b // 64))
            low = np.maximum(a - 64 * w, 0).astype(np.uint64)
            span = np.minimum(b - 64 * w, 64).astype(np.uint64) - low  # 1..64
            cols.append(w)
            bits.append(np.uint64(2**64 - 1) >> (np.uint64(64) - span) << low)
        self.first = np.cumsum([0] + [w.size for w in cols]).tolist()
        self.cols = np.concatenate(cols)
        self.planes = planes = np.empty((V, self.cols.size, rows), dtype=np.uint64)
        planes[0] = np.concatenate(bits)[:, None]
        digits = np.zeros((rows, 64 * -(-n // 64)), dtype=np.uint8)
        np.copyto(digits[:, :n], key, casting="unsafe")
        scratch = np.empty_like(digits)
        for d in reversed(range((V - 1).bit_length())):
            np.bitwise_and(digits, 1 << d, out=scratch)
            digit = np.packbits(scratch, axis=-1, bitorder="little").view("<u8").T[self.cols]
            for i in range(0, V - (1 << d), 2 << d):
                np.bitwise_and(planes[i], digit, out=planes[i + (1 << d)])
                planes[i] ^= planes[i + (1 << d)]

    def _histogram(self, words):
        """Per row and slot, the observed positions of each window value, as a
        (rows * S, V) float64 array, and the observed kept-aside counts as
        (group, value) arrays."""
        rows, S = prod(self.lead), self.segments
        words = np.asarray(words).reshape(rows, -1)
        if self.outside is None:
            hit = self.planes & words.T[self.cols]
            ones = _popcount(hit)
            del hit
            hist = np.empty((S, self.width, rows), dtype=np.min_scalar_type(self.n))
            for s in range(S):
                np.sum(ones[:, self.first[s] : self.first[s + 1]], axis=1, dtype=hist.dtype,
                       out=hist[s])
            hist = hist.transpose(2, 0, 1).reshape(rows * S, self.width).astype(np.float64)
            return hist, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
        observed = _unpack_mask(words, self.n).view(bool).reshape(rows, self.n)
        groups, V = rows * S, self.width
        hist = np.bincount(self.key.ravel(), weights=observed.ravel(), minlength=groups * V + 1)
        hist = hist[: groups * V].reshape(groups, V)
        at, group, value = self.outside
        seen = observed.ravel()[at]
        return hist, group[seen], value[seen]

    def moments(self, words, m: int) -> np.ndarray:
        """Factorial moments of orders 1..m over the mask-1 positions of each row.

        ``muhat[k-1]`` is sum_t O_t (X_t)_(k) / sum_t O_t, NaN for a row with
        nothing observed, and its last axis holds one entry per prefix
        ``[..., :end]``.  ``words`` are the mask's :func:`_pack_mask` words,
        with the counts' leading shape and at least their steps.  Every sum
        is of integer-valued float64, exact below 2**53 in any order, so each
        moment equals the elementwise masked sum bit for bit there, on either
        layout.
        """
        if m < 1:
            raise ParameterError(f"max order must be >= 1, got {m}")
        rows, S = prod(self.lead), self.segments
        groups = rows * S
        hist, group, value = self._histogram(words)
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
    return Tally(counts, [series.T]).moments(_pack_mask(series.mask), m)[..., 0]


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
