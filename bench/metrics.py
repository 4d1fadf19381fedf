"""Metric names, units and their computation from timings and spans.

``END_TO_END`` and ``PER_LAYER`` are the single source of the printed names;
``BENCHMARK.json`` lists the same names, which the benchmark's tests check.
"""

from __future__ import annotations

import math
import statistics

from scipy.stats import mstats

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "rss_peak_mb": "MiB",
}

MARKOV_FORMS = (
    "asymptotics.poi_dispersion_asym_markov",
    "asymptotics.bin_dispersion_asym_markov",
    "asymptotics.skew_asym_poisson_markov",
    "asymptotics.skew_asym_binomial_markov",
)
INDEX_FORMS = (
    "diagnostics.index_poi_dispersion",
    "diagnostics.index_bin_dispersion",
    "diagnostics.index_skew",
)

PER_LAYER = {
    # Monte Carlo cell (mc workloads), per chunk or per cell of the traced grid
    "simulate.paths.ms_per_chunk": "ms",
    "simulate.paths.steps": "count",
    "simulate.paths.cell_frac": "frac",
    "simulate.mask.ms_per_chunk": "ms",
    "simulate.mask.chunks": "count",
    "harness.index_estimates.ms_per_chunk": "ms",
    "harness.run_scenario.self_ms": "ms",
    "harness.aggregate.ms_per_cell": "ms",
    "harness.pool.busy_frac": "frac",
    "harness.pool.chunks": "count",
    "harness.cells": "count",
    "harness.write_grid_csv.ms": "ms",
    "cli.main.self_ms": "ms",
    # one diagnosis (diagnose-long), per operation
    "harness.load_series_csv.ms": "ms",
    "harness.load_series_csv.bytes": "B",
    "harness.load_series_csv.op_frac": "frac",
    "diagnostics.fit_null_params.ms": "ms",
    "diagnostics.index.ms": "ms",
    "diagnostics.test_from_params.us": "us",
    "missingness.dr_acf.ms": "ms",
    "missingness.dr_acf.op_frac": "frac",
    "missingness.durbin_levinson_pacf.us": "us",
    "missingness.estimate_r.us": "us",
    "moments.sample_factorial_moments.calls": "count",
    "moments.sample_factorial_moments.ms": "ms",
    "series.CountSeries.calls": "count",
    "series.CountSeries.ms": "ms",
    "asymptotics.markov.calls": "count",
    "asymptotics.markov.us_per_call": "us",
    # the tracer itself
    "trace.overhead_frac": "frac",
}

#: Span names the per-layer metrics read; an absent one is reported.
EXPECTED_SPANS = (
    "simulate.paths", "simulate.mask", "harness.index_estimates", "harness.aggregate",
    "harness.run_scenario", "harness.write_grid_csv", "cli.main",
    "harness.load_series_csv", "diagnostics.fit_null_params", "diagnostics.test_from_params",
    "missingness.dr_acf", "missingness.durbin_levinson_pacf", "missingness.estimate_r",
    "moments.sample_factorial_moments", "series.CountSeries",
) + MARKOV_FORMS + INDEX_FORMS


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ten samples or fewer no
    such percentile exists and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median_hd(values):
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all order
    statistics.  The operations of one pass have clustered latencies, and the
    sample median jumps between clusters when noise reorders the middle ones;
    this estimate moves smoothly instead.  It is undefined for one value."""
    if len(values) < 2:
        return float(statistics.median(values))
    return float(mstats.hdquantiles(values, prob=(0.5,))[0])


def end_to_end(setup_s, passes, latencies, rss_mib):
    """``passes`` holds (seconds, reps) per completed pass; latencies are seconds."""
    wall = statistics.median(p[0] for p in passes)
    reps = passes[0][1]
    tail_value, _, _ = tail(latencies)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "reps_per_s": reps / wall,
        "op_ms.p50": 1e3 * median_hd(latencies),
        "op_ms.tail": 1e3 * tail_value,
        "rss_peak_mb": rss_mib,
    }


class _Spans:
    def __init__(self, summary):
        self.summary = summary

    def calls(self, *names):
        return sum(self.summary.get(n, {}).get("calls", 0) for n in names)

    def total_ms(self, *names):
        return sum(self.summary.get(n, {}).get("total_ns", 0) for n in names) / 1e6

    def self_ms(self, *names):
        return sum(self.summary.get(n, {}).get("self_ns", 0) for n in names) / 1e6

    def mean_ms(self, *names):
        calls = self.calls(*names)
        return self.total_ms(*names) / calls if calls else 0.0


def _per(value, count):
    return value / count if count else 0.0


def per_layer(summary, work, pool, overhead_frac):
    """Per-layer metrics from one traced pass.

    ``summary`` is ``Tracer.summary()``, ``work`` the tracer's per-call sizes,
    and ``pool`` the untraced run's ``{"busy_frac", "chunks"}``.  Layers a
    workload never calls read 0.
    """
    s = _Spans(summary)
    diagnoses = s.calls("op.diagnose")
    diagnose_ms = s.total_ms("op.diagnose")
    out = {
        "simulate.paths.ms_per_chunk": s.mean_ms("simulate.paths"),
        "simulate.paths.steps": work.get("simulate.paths", 0),
        "simulate.paths.cell_frac": _per(s.total_ms("simulate.paths"), s.total_ms("harness.run_scenario")),
        "simulate.mask.ms_per_chunk": s.mean_ms("simulate.mask"),
        "simulate.mask.chunks": s.calls("simulate.mask"),
        "harness.index_estimates.ms_per_chunk": s.mean_ms("harness.index_estimates"),
        "harness.run_scenario.self_ms": s.self_ms("harness.run_scenario"),
        "harness.aggregate.ms_per_cell": s.mean_ms("harness.aggregate"),
        "harness.pool.busy_frac": pool["busy_frac"],
        "harness.pool.chunks": pool["chunks"],
        "harness.cells": s.calls("harness.run_scenario"),
        "harness.write_grid_csv.ms": s.mean_ms("harness.write_grid_csv"),
        "cli.main.self_ms": _per(s.self_ms("cli.main"), s.calls("cli.main")),
        "harness.load_series_csv.ms": _per(s.total_ms("harness.load_series_csv"), diagnoses),
        "harness.load_series_csv.bytes": _per(work.get("harness.load_series_csv", 0), diagnoses),
        "harness.load_series_csv.op_frac": _per(s.total_ms("harness.load_series_csv"), diagnose_ms),
        "diagnostics.fit_null_params.ms": _per(s.total_ms("diagnostics.fit_null_params"), diagnoses),
        "diagnostics.index.ms": _per(s.total_ms(*INDEX_FORMS), diagnoses),
        "diagnostics.test_from_params.us": 1e3 * _per(s.total_ms("diagnostics.test_from_params"), diagnoses),
        "missingness.dr_acf.ms": _per(s.total_ms("missingness.dr_acf"), diagnoses),
        "missingness.dr_acf.op_frac": _per(s.total_ms("missingness.dr_acf"), diagnose_ms),
        "missingness.durbin_levinson_pacf.us": 1e3 * _per(s.total_ms("missingness.durbin_levinson_pacf"), diagnoses),
        "missingness.estimate_r.us": 1e3 * _per(s.total_ms("missingness.estimate_r"), diagnoses),
        "moments.sample_factorial_moments.calls": _per(s.calls("moments.sample_factorial_moments"), diagnoses),
        "moments.sample_factorial_moments.ms": _per(s.total_ms("moments.sample_factorial_moments"), diagnoses),
        "series.CountSeries.calls": _per(s.calls("series.CountSeries"), diagnoses),
        "series.CountSeries.ms": _per(s.total_ms("series.CountSeries"), diagnoses),
        "asymptotics.markov.calls": s.calls(*MARKOV_FORMS),
        "asymptotics.markov.us_per_call": 1e3 * s.mean_ms(*MARKOV_FORMS),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: out[name] for name in PER_LAYER}


def finite(metrics):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
