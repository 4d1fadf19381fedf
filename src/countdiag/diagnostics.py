"""The index-kind table (estimator, closed form and CSV prefix of each index),
null-model parameter fitting under missingness, and the marginal
dispersion/skewness hypothesis tests."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateSeriesError, ParameterError
from .series import Bar1, CountSeries, MissingSpec, ModelSpec, PoiInar1, _check
from .moments import _observed_mean, sample_factorial_moments
from .missingness import _two_sided_z, dr_acf, estimate_r
from .asymptotics import (
    bin_dispersion_asym_markov,
    poi_dispersion_asym_markov,
    skew_asym_binomial_markov,
    skew_asym_poisson_markov,
)

FAMILY_POISSON = "poisson"
FAMILY_BINOMIAL = "binomial"

#: The keys of :data:`INDEX_KINDS`, "<family>-<index>".
KIND_POI_DISPERSION = "poisson-dispersion"
KIND_BIN_DISPERSION = "binomial-dispersion"
KIND_POI_SKEWNESS = "poisson-skewness"
KIND_BIN_SKEWNESS = "binomial-skewness"

_RHO_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class NullSpec:
    """Null hypothesis for a marginal test.

    Parameters
    ----------
    family : {"poisson", "binomial"}
        Marginal family of the hypothesized AR(1)-type null model.
    n : int, optional
        Structural upper bound of the counts; required for the binomial
        family and never estimated from data.
    alpha : float
        Test level.
    ignore_missing : bool
        If true, masked positions are dropped entirely before testing: the
        series is compacted, tau is set to 1, and the dependence parameter is
        re-estimated on the shortened series.  This deliberately reproduces
        the naive analysis that pretends there are no gaps.
    """

    family: str
    n: Optional[int] = None
    alpha: float = 0.05
    ignore_missing: bool = False

    def __post_init__(self):
        if self.family not in (FAMILY_POISSON, FAMILY_BINOMIAL):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family == FAMILY_BINOMIAL:
            _check("n", self.n)
        elif self.n is not None:
            raise ParameterError("'n' is only valid for the binomial family")
        _check("alpha", self.alpha)


@dataclass(frozen=True)
class FittedParams:
    """Plug-in parameter estimates used to evaluate the asymptotics."""

    mu: float
    rho: float
    tau: float
    r: float
    T: int
    n: Optional[int] = None


@dataclass(frozen=True)
class TestReport:
    """Outcome of one marginal index test.

    ``lower_critical`` and ``upper_critical`` are ``null_value + bias -+
    z_{1-alpha/2} * sd``; the interval is symmetric around null + bias.  For
    one-sided use the ``sided`` flag restricts which bound drives the
    decision (the bounds themselves are unchanged).  ``n_observed`` counts
    the observed positions the statistic read (None when the report was
    built from parameters alone).
    """

    kind: str
    statistic: float
    null_value: float
    bias: float
    sd: float
    lower_critical: float
    upper_critical: float
    decision: str
    fitted: FittedParams
    alpha: float
    sided: str = "two"
    n_observed: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)


def index_poi_dispersion(series: CountSeries) -> float:
    """Sample dispersion index for unbounded counts: muhat_(2)/muhat - muhat + 1."""
    return _index_value(series, KIND_POI_DISPERSION)


def index_bin_dispersion(series: CountSeries, n: int) -> float:
    """Sample dispersion index for counts bounded by n.

    (muhat_(2) + muhat - muhat**2) / (muhat (1 - muhat/n)); equals one in
    expectation under a Bin(n, pi) marginal.
    """
    return _index_value(series, KIND_BIN_DISPERSION, _check("n", n))


def index_skew(series: CountSeries) -> float:
    """Sample skewness index muhat_(3) / (muhat_(2) muhat)."""
    return _index_value(series, KIND_POI_SKEWNESS)


def _index_value(series: CountSeries, kind: str, n: Optional[int] = None) -> float:
    """One series' index, from a tally of its own order."""
    spec = INDEX_KINDS[kind]
    return spec.value(sample_factorial_moments(series, spec.order), n)


# Index formulas over factorial moments mu[k-1] (scalars, or one entry per
# series) and the bound n, each with the conditions under which it is defined.
_ALL_ZERO = "all observed counts are zero"


def _poisson_dispersion(mu, n):
    return mu[1] / mu[0] - mu[0] + 1.0, [(mu[0] > 0, _ALL_ZERO)]


def _binomial_dispersion(mu, n):
    m1 = mu[0]
    inside = (m1 > 0) & (m1 < n), "observed mean {mu} must lie strictly between 0 and n={n}"
    return (mu[1] + m1 - m1 * m1) / (m1 * (1.0 - m1 / n)), [inside]


def _skewness(mu, n):
    undefined = "all observed counts are <= 1; skewness undefined"
    return mu[2] / (mu[1] * mu[0]), [(mu[0] > 0, _ALL_ZERO), (mu[1] > 0, undefined)]


@dataclass(frozen=True)
class IndexKind:
    """One index of one null family: its estimator, closed form and CSV columns.

    ``formula`` reads the factorial moments ``muhat[k-1]`` up to ``order`` (any
    further ones are ignored), and ``markov(model, law, T)`` is the Markov
    closed form at a null model of the kind's family, a mask law and a length.
    It looks up its module-level target when called, so a wrapper installed on
    it (a profiler, the benchmark's tracer) sees every call.
    """

    family: str
    prefix: str  # column prefix in grid CSVs
    order: int  # highest factorial moment the formula reads
    formula: Callable
    markov: Callable

    def estimate(self, muhat, n: Optional[int] = None) -> np.ndarray:
        """The index for each entry of the moments ``muhat[k-1]``; NaN where undefined."""
        with np.errstate(divide="ignore", invalid="ignore"):
            value, conditions = self.formula(muhat, n)
        return np.where(np.logical_and.reduce([ok for ok, _ in conditions]), value, np.nan)

    def value(self, muhat, n: Optional[int] = None) -> float:
        """The index of one series from its moments ``muhat[k-1]``; raises
        DegenerateSeriesError where :meth:`estimate` gives NaN."""
        with np.errstate(divide="ignore", invalid="ignore"):
            value, conditions = self.formula(muhat, n)
        for ok, message in conditions:
            if not ok:
                raise DegenerateSeriesError(message.format(mu=muhat[0], n=n))
        return float(value)


class _KindTable(dict):
    def __missing__(self, kind):
        raise ParameterError(f"unknown index kind {kind!r}")


#: The index-kind table, keyed by "<family>-<index>"; an unknown key raises
#: ParameterError.
INDEX_KINDS = _KindTable({
    KIND_POI_DISPERSION: IndexKind(
        FAMILY_POISSON, "disp", 2, _poisson_dispersion,
        markov=lambda m, law, T: poi_dispersion_asym_markov(m.mu, m.rho, law.tau, law.r, T),
    ),
    KIND_BIN_DISPERSION: IndexKind(
        FAMILY_BINOMIAL, "disp", 2, _binomial_dispersion,
        markov=lambda m, law, T: bin_dispersion_asym_markov(m.n, m.pi, m.rho, law.tau, law.r, T),
    ),
    KIND_POI_SKEWNESS: IndexKind(
        FAMILY_POISSON, "skew", 3, _skewness,
        markov=lambda m, law, T: skew_asym_poisson_markov(m.mu, m.rho, law.tau, law.r, T),
    ),
    KIND_BIN_SKEWNESS: IndexKind(
        FAMILY_BINOMIAL, "skew", 3, _skewness,
        markov=lambda m, law, T: skew_asym_binomial_markov(m.n, m.pi, m.rho, law.tau, law.r, T),
    ),
})


def family_kinds(family: str) -> tuple:
    """The index kinds of one family, dispersion first."""
    return tuple(k for k, spec in INDEX_KINDS.items() if spec.family == family)


def _null_model(family: str, mu: float, rho: float, n: Optional[int] = None) -> ModelSpec:
    """The AR(1) null of one family from its mean, its dependence in the closed
    forms' domain [0, 1) and the bound NullSpec admits: PoINAR(1) or BAR(1), pi = mu / n."""
    _check("mu", mu)
    _check("rho", rho)
    if NullSpec(family, n).n is None:
        return PoiInar1(mu, rho)
    if not 0.0 < mu / n < 1.0:
        raise ParameterError(f"mu={mu} incompatible with n={n}")
    return Bar1(n, mu / n, rho)


def fit_null_params(series: CountSeries, n: Optional[int] = None) -> FittedParams:
    """Estimate (mu, rho, tau, r) from a partially observed series.

    mu comes from the amplitude-modulated mean, tau and r from the mask
    (r = 0 by convention for a constant mask), and rho from the lag-1
    missing-data autocorrelation.  rho and r are clamped into [0, 1) with a
    warning when outside, since the closed-form asymptotics assume
    non-negative dependence.  A series without two adjacent observed
    positions raises DegenerateSeriesError: its lag-1 autocorrelation reads
    0 whatever rho is.
    """
    if series.T < 2:
        raise DegenerateSeriesError(f"series too short to fit: T={series.T}, need T >= 2")
    mu = _observed_mean(series)
    acf = dr_acf(series, 1)
    tau = float(acf.tau_lag[0])
    if acf.tau_lag[1] == 0.0:
        raise DegenerateSeriesError(
            "rho cannot be estimated: no two adjacent positions are both observed "
            "(no lag-1 pair)"
        )
    try:
        r = estimate_r(series.mask)
    except DegenerateSeriesError:
        r = 0.0
    r = _clamp_dependence(r, "r")
    rho = _clamp_dependence(float(acf.rho_hat[1]), "rho")
    return FittedParams(mu=mu, rho=rho, tau=tau, r=r, T=series.T, n=n)


def _clamp_dependence(value: float, name: str) -> float:
    if value < 0.0:
        warnings.warn(
            f"estimated {name} = {value:.4f} < 0; clamped to 0 (closed forms "
            f"assume non-negative dependence)",
            stacklevel=3,
        )
        return 0.0
    if value >= 1.0:
        warnings.warn(
            f"estimated {name} = {value:.4f} >= 1; clamped below 1", stacklevel=3
        )
        return _RHO_MAX
    return value


def test_from_params(
    kind: str,
    family: str,
    mu: float,
    rho: float,
    tau: float,
    r: float,
    T: int,
    n: Optional[int] = None,
    alpha: float = 0.05,
    statistic: float = math.nan,
    sided: str = "two",
) -> TestReport:
    """Build a test report from explicit parameter estimates.

    The critical values are null + bias -+ z_{1-alpha/2} * sd, with bias and
    sd taken from the Markov closed-form asymptotics evaluated at the given
    plug-in parameters.  ``statistic`` may be NaN if only the critical values
    are of interest (the decision is then "retain").
    """
    if isinstance(statistic, bool) or not isinstance(statistic, numbers.Real):
        raise ParameterError(f"statistic must be a real number, got {statistic!r}")
    if sided not in ("two", "upper", "lower"):
        raise ParameterError(f"sided must be 'two', 'upper' or 'lower', got {sided!r}")
    spec = INDEX_KINDS[f"{family}-{kind}"]  # first, so a bad family fails as its kind
    asym = spec.markov(_null_model(family, mu, rho, n), MissingSpec(tau, r), T)
    z = _two_sided_z(alpha)
    lower = asym.mean - z * asym.sd
    upper = asym.mean + z * asym.sd
    if math.isnan(statistic):
        reject = False
    elif sided == "two":
        reject = statistic < lower or statistic > upper
    elif sided == "upper":
        reject = statistic > upper
    else:
        reject = statistic < lower
    fitted = FittedParams(mu=mu, rho=rho, tau=tau, r=r, T=T, n=n)
    return TestReport(
        kind=f"{family}-{kind}",
        statistic=statistic,
        null_value=asym.null_value,
        bias=asym.bias,
        sd=asym.sd,
        lower_critical=lower,
        upper_critical=upper,
        decision="reject" if reject else "retain",
        fitted=fitted,
        alpha=alpha,
        sided=sided,
    )


def test_indices(
    series: CountSeries, null: NullSpec, kinds, sided: str = "two"
) -> list:
    """Run marginal index tests of several kinds against one Poisson or binomial
    AR(1) null; one report per kind, in order.

    Fits the plug-in parameters from the series once (respecting the mask),
    tallies it once for the factorial moments of every kind, then compares
    each sample index against critical values from the matching closed-form
    asymptotics.  With ``null.ignore_missing`` the masked
    positions are dropped first and the dependence parameter is re-estimated
    on the compacted series.  A binomial null rejects observed counts above n.
    A lower critical value below 0, the least value of every index, is
    flagged with a warning unless the test is upper-sided.
    """
    if isinstance(kinds, str):
        raise ParameterError(f"kinds must list index kinds, got the string {kinds!r}")
    kinds = tuple(kinds)  # read three times below, so a generator is read once here
    specs = [INDEX_KINDS[f"{null.family}-{kind}"] for kind in kinds]
    if not specs:
        raise ParameterError("kinds must list at least one index kind")
    if len(set(kinds)) < len(kinds):
        raise ParameterError(f"kinds must list each index kind once, got {list(kinds)}")
    if null.family == FAMILY_BINOMIAL:
        above = np.flatnonzero((series.mask == 1) & (series.values > null.n))
        if above.size:
            raise ParameterError(
                f"observed count {series.values[above[0]]} at position {above[0]} (0-based) "
                f"exceeds the binomial bound n={null.n}; {above.size} observed counts do"
            )
    work = series.compact() if null.ignore_missing else series
    fitted = fit_null_params(work, n=null.n)
    muhat = sample_factorial_moments(work, max(spec.order for spec in specs))
    reports = []
    for kind, spec in zip(kinds, specs):
        report = test_from_params(
            kind,
            null.family,
            mu=fitted.mu,
            rho=fitted.rho,
            tau=fitted.tau,
            r=fitted.r,
            T=fitted.T,
            n=null.n,
            alpha=null.alpha,
            statistic=spec.value(muhat, null.n),
            sided=sided,
        )
        report = replace(report, n_observed=work.n_observed)
        if sided != "upper" and report.lower_critical < 0.0:  # every index is >= 0
            warnings.warn(
                f"fitted rho = {fitted.rho:.4f} gives the critical range [{report.lower_critical:.4f}, "
                f"{report.upper_critical:.4f}], below 0 where no index can fall: nearly vacuous test",
                stacklevel=2,
            )
        reports.append(report)
    return reports


def test_index(
    series: CountSeries, null: NullSpec, kind: str, sided: str = "two"
) -> TestReport:
    """Run one marginal index test against a Poisson or binomial AR(1) null
    (the one-kind call of :func:`test_indices`)."""
    (report,) = test_indices(series, null, (kind,), sided)
    return report
