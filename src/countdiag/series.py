"""Domain types: partially observed count series, model and mask specifications."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import DegenerateSeriesError, ParameterError

#: Value stored at unobserved positions.  No estimator ever reads it.
MASK_SENTINEL = 0

_NONE_OBSERVED = "series has no observed positions"

#: The domain of every parameter, keyed by the name that messages print: a
#: (test, wording) pair for a finite real number, None for any finite real
#: number, or the least value of an integer.  Lags, moment orders and counts
#: share one entry each, whatever the caller names them.
_DOMAINS = {
    "mu": (lambda v: v > 0, "be positive"),
    "rho": (lambda v: 0 <= v < 1, "lie in [0, 1)"),
    "pi": (lambda v: 0 < v < 1, "lie in (0, 1)"),
    "alpha": (lambda v: 0 < v < 1, "lie in (0, 1)"),
    "tau": (lambda v: 0 < v <= 1, "lie in (0, 1]"),
    "r": (lambda v: 0 <= v < 1, "lie in [0, 1)"),
    "real": None,
    "n": 2,
    "T": 1,
    "replications": 1,
    "master_seed": 0,
    "lag": 1,
    "order": 0,
}


def _check(name: str, value, domain: str = None):
    """``value`` if it lies in the domain of ``domain`` (default ``name``), else
    a ParameterError naming ``name``.

    The type is checked first: an integer domain takes an integral number, any
    other a finite real one, and a bool is never a number.  The exact types
    int and float skip the slower abstract-class checks, since the series
    routes check the orders of every lag's moment.
    """
    rule = _DOMAINS[domain or name]
    if type(rule) is int:
        if (
            type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
        ) and value >= rule:
            return value
        wanted = f"an integer >= {rule}"
    elif (
        type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    ) and -math.inf < value < math.inf:
        if rule is None or rule[0](value):
            return value
        raise ParameterError(f"{name} must {rule[1]}, got {value}")
    else:
        wanted = "a finite real number"
    shown = repr(value) if isinstance(value, str) else value
    raise ParameterError(f"{name} must be {wanted}, got {shown}")


def _integer(name: str, value):
    """``value`` if it is an integral number other than a bool, of either sign,
    else a ParameterError naming ``name``."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return value
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def _as_1d_integers(x, name: str) -> np.ndarray:
    """``x`` as a non-empty one-dimensional array of integers that int64 holds,
    in its own dtype, else a ParameterError naming ``name``."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError(f"{name} must contain at least one element")
    if arr.dtype.kind not in "biuf":  # an object array holds, say, ints above 64 bits
        raise ParameterError(f"{name} must hold 64-bit integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or not np.all(arr == np.floor(arr)):
            raise ParameterError(f"{name} must contain integers")
    if arr.dtype.kind in "uf":  # the cast would wrap an entry beyond int64 to another one
        beyond = np.flatnonzero((arr >= 2**63) | (arr < -(2**63)))
        if beyond.size:
            i = beyond[0]
            bound = "exceeds 2**63 - 1" if arr[i] > 0 else "is below -2**63"
            raise ParameterError(f"{name} entry {arr[i]} at position {i} (0-based) {bound}")
    return arr


def _pack_mask(mask) -> np.ndarray:
    """A 0/1 mask as rows of uint64 words along its last axis, the one mask
    layout of the Monte Carlo engine: bit t of a row's words (little-endian
    bit order) holds step t, and the bits past the row's T steps are 0."""
    mask = np.asarray(mask)
    packed = np.packbits(mask, axis=-1, bitorder="little")
    words = np.zeros(mask.shape[:-1] + (8 * -(-mask.shape[-1] // 64),), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view("<u8")


def _unpack_mask(words, T: int) -> np.ndarray:
    """The int8 0/1 mask of the first T steps of rows of words that
    :func:`_pack_mask` laid out."""
    octets = np.asarray(words).astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=T, bitorder="little").view(np.int8)


@dataclass(eq=False)
class CountSeries:
    """A count time series together with its binary observation mask.

    Parameters
    ----------
    values : array_like of int
        The counts, length T.  Entries at unobserved positions are
        sentinels and are never read by any estimator.
    mask : array_like of {0, 1}, optional
        1 marks an observed position.  Defaults to all ones.
    """

    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = _as_1d_integers(self.values, "values").astype(np.int64)
        if self.mask is None:
            self.mask = np.ones_like(self.values, dtype=np.int8)
        else:
            mask = _as_1d_integers(self.mask, "mask")
            if mask.dtype.kind != "b":  # checked in its own dtype, before int8 wraps 256 to 0
                bad = (mask != 0) & (mask != 1)
                if bad.any():
                    i = int(np.argmax(bad))
                    raise ParameterError(
                        f"mask entries must be 0 or 1, got {int(mask[i])} at position {i} (0-based)"
                    )
            self.mask = mask.astype(np.int8)
        if self.mask.shape != self.values.shape:
            raise ParameterError(
                f"values and mask must have equal length, got "
                f"{self.values.size} and {self.mask.size}"
            )
        if np.any((self.values < 0) & (self.mask == 1)):
            i = int(np.flatnonzero((self.values < 0) & (self.mask == 1))[0])
            raise ParameterError(
                f"observed counts must be non-negative, got {self.values[i]} at position {i} "
                f"(0-based)"
            )

    @property
    def T(self) -> int:
        return int(self.values.size)

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    def observed_values(self) -> np.ndarray:
        return self.values[self.mask == 1]

    def compact(self) -> "CountSeries":
        """Drop unobserved positions, returning a shorter fully observed series."""
        observed = self.observed_values()
        if observed.size == 0:
            raise DegenerateSeriesError(_NONE_OBSERVED)
        return CountSeries(observed)


@dataclass(frozen=True)
class PoiInar1:
    """Poisson INAR(1) specification: Poi(mu) marginal, autocorrelation rho**h."""

    mu: float
    rho: float

    family: ClassVar[str] = "poisson"

    def __post_init__(self):
        _check("mu", self.mu)
        _check("rho", self.rho)

    @property
    def mean(self) -> float:
        return self.mu


@dataclass(frozen=True)
class Bar1:
    """Binomial AR(1) specification: Bin(n, pi) marginal, autocorrelation rho**h.

    The dependence parameter must satisfy
    ``max(-pi/(1-pi), -(1-pi)/pi) < rho < 1`` so that both thinning
    probabilities ``beta = pi*(1-rho)`` and ``alpha = beta + rho`` lie in (0, 1).
    A rho at which their float values round out of [0, 1] is rejected too.
    """

    n: int
    pi: float
    rho: float

    family: ClassVar[str] = "binomial"

    def __post_init__(self):
        _check("n", self.n)
        _check("pi", self.pi)
        _check("rho", self.rho, "real")
        lo = max(-self.pi / (1.0 - self.pi), -(1.0 - self.pi) / self.pi)
        if not lo < self.rho < 1.0:
            raise ParameterError(
                f"rho={self.rho} outside the admissible interval ({lo:.6g}, 1) "
                f"for pi={self.pi}"
            )
        alpha, beta = _thinnings(self.pi, self.rho)
        if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
            raise ParameterError(
                f"rho={self.rho} rounds the thinning probabilities alpha={alpha:.6g} and "
                f"beta={beta:.6g} out of [0, 1] for pi={self.pi}"
            )

    @property
    def mean(self) -> float:
        return self.n * self.pi


def _thinnings(pi: float, rho: float) -> tuple:
    """BAR(1)'s thinning probabilities (alpha, beta) = (beta + rho, pi*(1-rho))."""
    beta = pi * (1.0 - rho)
    return beta + rho, beta


ModelSpec = Union[PoiInar1, Bar1]


@dataclass(frozen=True)
class MissingSpec:
    """Stationary binary Markov observation process.

    Parameters
    ----------
    tau : float
        Stationary observation probability, in (0, 1].
    r : float
        Lag-1 autocorrelation of the mask, in [0, 1).  ``r = 0`` gives an
        i.i.d. mask; ``tau = 1`` forces full observation regardless of r.
    """

    tau: float
    r: float = 0.0

    def __post_init__(self):
        _check("tau", self.tau)
        _check("r", self.r)

    def lagged_product(self, h: int) -> float:
        """E[O_t O_{t+h}] = tau**2 + tau*(1-tau)*r**h (equals tau at h = 0)."""
        return self.tau**2 + self.tau * (1.0 - self.tau) * self.r ** abs(_integer("h", h))


@dataclass(frozen=True)
class Seed:
    """Reproducible random-stream address: a master seed plus a stream index.

    Identical (master, stream) pairs reproduce identical simulation output,
    independent of process or worker layout.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        _check("master_seed", self.master)
        _check("stream", self.stream, "master_seed")

    def generator(self) -> np.random.Generator:
        seed = np.random.SeedSequence([int(self.master), int(self.stream)])
        return np.random.default_rng(seed)
