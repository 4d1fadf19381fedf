"""Domain types: partially observed count series, model and mask specifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import ParameterError

#: Value stored at unobserved positions.  No estimator ever reads it.
MASK_SENTINEL = 0


def _as_1d_int64(x, name: str) -> np.ndarray:
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
    return arr.astype(np.int64)


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
        self.values = _as_1d_int64(self.values, "values")
        if self.mask is None:
            self.mask = np.ones_like(self.values, dtype=np.int8)
        else:
            mask = _as_1d_int64(self.mask, "mask")
            if not np.all((mask == 0) | (mask == 1)):  # before int8 wraps 256 to 0
                raise ParameterError("mask entries must be 0 or 1")
            self.mask = mask.astype(np.int8)
        if self.mask.shape != self.values.shape:
            raise ParameterError(
                f"values and mask must have equal length, got "
                f"{self.values.size} and {self.mask.size}"
            )
        observed = self.values[self.mask == 1]
        if observed.size and observed.min() < 0:
            raise ParameterError("observed counts must be non-negative")

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
        return CountSeries(self.observed_values())


@dataclass(frozen=True)
class PoiInar1:
    """Poisson INAR(1) specification: Poi(mu) marginal, autocorrelation rho**h."""

    mu: float
    rho: float

    family: ClassVar[str] = "poisson"

    def __post_init__(self):
        if not self.mu > 0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"rho must lie in [0, 1), got {self.rho}")

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def marginal(self) -> tuple:
        return (self.mu,)


@dataclass(frozen=True)
class Bar1:
    """Binomial AR(1) specification: Bin(n, pi) marginal, autocorrelation rho**h.

    The dependence parameter must satisfy
    ``max(-pi/(1-pi), -(1-pi)/pi) < rho < 1`` so that both thinning
    probabilities ``beta = pi*(1-rho)`` and ``alpha = beta + rho`` lie in (0, 1).
    """

    n: int
    pi: float
    rho: float

    family: ClassVar[str] = "binomial"

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ParameterError(f"n must be an integer >= 2, got {self.n}")
        if not 0.0 < self.pi < 1.0:
            raise ParameterError(f"pi must lie in (0, 1), got {self.pi}")
        lo = max(-self.pi / (1.0 - self.pi), -(1.0 - self.pi) / self.pi)
        if not lo < self.rho < 1.0:
            raise ParameterError(
                f"rho={self.rho} outside the admissible interval ({lo:.6g}, 1) "
                f"for pi={self.pi}"
            )

    @property
    def mean(self) -> float:
        return self.n * self.pi

    @property
    def marginal(self) -> tuple:
        return (self.n, self.pi)


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
        if not 0.0 < self.tau <= 1.0:
            raise ParameterError(f"tau must lie in (0, 1], got {self.tau}")
        if not 0.0 <= self.r < 1.0:
            raise ParameterError(f"r must lie in [0, 1), got {self.r}")

    def lagged_product(self, h: int) -> float:
        """E[O_t O_{t+h}] = tau**2 + tau*(1-tau)*r**h (equals tau at h = 0)."""
        return self.tau**2 + self.tau * (1.0 - self.tau) * self.r ** abs(h)


@dataclass(frozen=True)
class Seed:
    """Reproducible random-stream address: a master seed plus a stream index.

    Identical (master, stream) pairs reproduce identical simulation output,
    independent of process or worker layout.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if not (isinstance(self.master, (int, np.integer)) and 0 <= self.master < 2**64):
            raise ParameterError("master seed must be an unsigned 64-bit integer")
        if not (isinstance(self.stream, (int, np.integer)) and self.stream >= 0):
            raise ParameterError("stream index must be a non-negative integer")

    def generator(self) -> np.random.Generator:
        seed = np.random.SeedSequence([int(self.master), int(self.stream)])
        return np.random.default_rng(seed)
