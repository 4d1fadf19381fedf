"""Marginal dispersion and skewness diagnostics for count time series with
missing observations, with exact simulators, closed-form asymptotics and a
reproducible Monte Carlo harness."""

from .errors import (
    ConvergenceError,
    CountDiagError,
    CsvFormatError,
    DegenerateSeriesError,
    FileAccessError,
    NumericalDegeneracyError,
    ParameterError,
)
from .series import Bar1, CountSeries, MissingSpec, ModelSpec, PoiInar1, Seed
from .simulate import (
    apply_mask,
    simulate_bar1,
    simulate_markov_mask,
    simulate_poi_inar1,
)
from .moments import (
    BinomialArMoments,
    PoissonArMoments,
    RawMoments,
    sample_factorial_moments,
    stirling2,
)
from .missingness import (
    AcfEstimate,
    acf_critical_band,
    dr_acf,
    dr_autocovariance,
    durbin_levinson_pacf,
    estimate_r,
)
from .asymptotics import (
    IndexAsymptotics,
    SequenceMaskLaw,
    bin_dispersion_asym_general,
    bin_dispersion_asym_markov,
    clt_sigma_general,
    kappa,
    poi_dispersion_asym_general,
    poi_dispersion_asym_markov,
    raw_poi_dispersion_asym,
    sigma_binomial_markov,
    sigma_poisson_markov,
    skew_asym_binomial_markov,
    skew_asym_general,
    skew_asym_poisson_markov,
)
from .diagnostics import (
    INDEX_KINDS,
    FittedParams,
    NullSpec,
    TestReport,
    fit_null_params,
    index_bin_dispersion,
    index_poi_dispersion,
    index_skew,
    test_from_params,
    test_index,
    test_indices,
)
from .harness import (
    GridConfig,
    IndexStats,
    Scenario,
    ScenarioResult,
    emit_curves,
    grid_config_from_dict,
    load_series_csv,
    run_grid,
    run_scenario,
    scenario_asymptotics,
    write_grid_csv,
    write_series_csv,
)

__version__ = "0.1.0"
