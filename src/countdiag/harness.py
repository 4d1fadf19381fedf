"""Monte Carlo engine: seeded, chunked, worker-pool replication of index
estimates over scenario grids, asymptotic-curve emission, and CSV ingestion
of real series."""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CountDiagError,
    CsvFormatError,
    FileAccessError,
    ParameterError,
)
from .series import Bar1, CountSeries, MissingSpec, ModelSpec, PoiInar1, _check, _pack_mask
from .simulate import _binomial_paths, _markov_mask_from_uniforms, _poisson_paths
from .moments import Tally
from .asymptotics import IndexAsymptotics
from .diagnostics import INDEX_KINDS, _null_model, family_kinds

#: Replications are simulated in vectorized chunks of this many paths.  Per
#: chunk index, each model's paths and each mask law's mask have their own
#: random stream, derived from (master seed, model or law key, chunk index), so
#: results do not depend on the worker count.
DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell: a model, a mask law, a length and a seed.

    ``mu`` is the mean the cell was configured with, which its grid row
    prints; it defaults to the model's mean, which for BAR(1) is n * pi and
    need not give back the mu that pi = mu / n came from.
    """

    model: ModelSpec
    missing: MissingSpec
    T: int
    replications: int
    master_seed: int
    mu: Optional[float] = None

    def __post_init__(self):
        _check("T", self.T)
        _check("replications", self.replications)
        if self.mu is None:
            object.__setattr__(self, "mu", self.model.mean)

    @property
    def index_kinds(self) -> tuple:
        return family_kinds(self.model.family)


def _real(v) -> float:
    """A real parameter by its float value, so that equal values (``1`` and
    ``1.0``, ``0.0`` and ``-0.0``) key one stream and print one way."""
    return float(v) + 0.0


def _axis(key: str, values) -> tuple:
    """A grid or curve axis as a tuple: one value, or a list, tuple or array
    of values, each in the domain of ``key`` and none equal to one listed
    before it (one cell, one stream, one row: 1 == 1.0 and 0.0 == -0.0)."""
    if isinstance(values, np.ndarray) and values.ndim == 0:
        values = values[()]
    values = tuple(values) if isinstance(values, (list, tuple, np.ndarray)) else (values,)
    if not values:
        raise ParameterError(f"{key} must list at least one value")
    seen = set()
    for value in values:
        if _check(key, value) in seen:
            raise ParameterError(f"{key} must list each value once, got {value} again")
        seen.add(value)
    return values


def _value(v) -> str:
    """A real parameter as keys spell it."""
    return repr(_real(v))


def _model_key(m: ModelSpec) -> str:
    """The spelling of a model in cell keys and path-stream seeds."""
    if isinstance(m, PoiInar1):
        return f"poi(mu={_value(m.mu)},rho={_value(m.rho)})"
    return f"bar(n={m.n},pi={_value(m.pi)},rho={_value(m.rho)})"


def _law_key(missing: MissingSpec) -> str:
    """The spelling of a mask law in cell keys and mask-stream seeds."""
    return f"mask(tau={_value(missing.tau)},r={_value(missing.r)})"


@dataclass(frozen=True)
class IndexStats:
    """Simulated versus asymptotic summary for one index in one scenario."""

    sim_mean: float
    sim_sd: float
    asym_mean: float
    asym_sd: float
    n_used: int
    n_failed: int


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    stats: dict
    error: Optional[str] = None


def _chunk_seed(master_seed: int, key: str, chunk_index: int):
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    return np.random.SeedSequence(
        [int(master_seed), int.from_bytes(digest, "big"), int(chunk_index)]
    )


def _index_estimates(tally: Tally, mask, kinds, n=None) -> dict:
    """Index estimates per replication row; NaN marks a degenerate one.

    ``tally`` is a :class:`Tally` of the paths, read once under ``mask``,
    given as packed words (see :func:`~countdiag.series._pack_mask`); each
    estimate has a last axis, one entry per prefix ``[:, :end]`` of the
    tally's ends.
    """
    muhat = tally.moments(mask, max(INDEX_KINDS[k].order for k in kinds))
    return {kind: INDEX_KINDS[kind].estimate(muhat, n) for kind in kinds}


def _run_unit(cells: Sequence[Scenario], chunk_index: int, size: int) -> list:
    """One chunk of replications of every cell; per cell, its index estimates.

    The cells share the master seed.  Each model's paths are drawn once, from
    the stream keyed by (master seed, model, chunk), at the cells' longest T,
    and tallied in place with the model's distinct T as prefix ends.  Each
    mask law's mask is drawn once, from (master seed, law, chunk), as packed
    words, and every tally is read under it; every cell takes the prefix of
    its own T.  An all-observed law (tau = 1) draws no stream and shares one
    mask of all-ones words whatever r is.  Laws are taken one at a time, so
    that a single mask is alive.
    """
    T = max(c.T for c in cells)

    def rng(key):
        seed = _chunk_seed(cells[0].master_seed, key, chunk_index)
        return np.random.default_rng(seed)

    lengths, laws = {}, {}
    for i, c in enumerate(cells):
        lengths.setdefault(c.model, set()).add(c.T)
        law = None if c.missing.tau >= 1.0 else c.missing
        laws.setdefault(law, {}).setdefault(c.model, []).append(i)
    tallies = {}
    for m, ends in lengths.items():
        stream = rng(_model_key(m))
        if isinstance(m, PoiInar1):
            paths, n = _poisson_paths(m.mu, m.rho, T, size, stream), None
        else:
            paths, n = _binomial_paths(m.n, m.pi, m.rho, T, size, stream), m.n
        tallies[m] = Tally(paths, sorted(ends)), n  # the tally overwrites the paths
        del paths
    out = [None] * len(cells)
    for law, by_model in laws.items():
        if law is None:
            mask = _pack_mask(np.ones((size, T), dtype=np.int8))
        else:
            # no name holds the uniforms, so the kernel frees them once read
            mask = _markov_mask_from_uniforms(rng(_law_key(law)).random((size, T)), law.tau, law.r)
        for m, members in by_model.items():
            tally, n = tallies[m]
            kinds = cells[members[0]].index_kinds
            est = _index_estimates(tally, mask, kinds, n)
            for i in members:
                e = tally.ends.index(cells[i].T)
                out[i] = {kind: est[kind][:, e] for kind in kinds}
        del mask
    return out


def _chunk_plan(replications: int, chunk_size: int):
    _check("chunk size", chunk_size, "replications")
    plan = []
    start = 0
    index = 0
    while start < replications:
        plan.append((index, min(chunk_size, replications - start)))
        start += chunk_size
        index += 1
    return plan


def scenario_asymptotics(scenario: Scenario, kind: str) -> IndexAsymptotics:
    """Closed-form asymptotics matching one scenario's true parameters."""
    return INDEX_KINDS[kind].markov(scenario.model, scenario.missing, scenario.T)


def _aggregate(scenario: Scenario, chunk_results: Sequence[dict]) -> ScenarioResult:
    stats = {}
    for kind in scenario.index_kinds:
        est = np.concatenate([c[kind] for c in chunk_results])
        finite = est[np.isfinite(est)]
        n_used = int(finite.size)
        n_failed = int(est.size - n_used)
        sim_mean = float(finite.mean()) if n_used >= 1 else math.nan
        sim_sd = float(finite.std(ddof=1)) if n_used >= 2 else math.nan
        asym = scenario_asymptotics(scenario, kind)
        stats[kind] = IndexStats(
            sim_mean=sim_mean,
            sim_sd=sim_sd,
            asym_mean=asym.mean,
            asym_sd=asym.sd,
            n_used=n_used,
            n_failed=n_failed,
        )
    return ScenarioResult(scenario=scenario, stats=stats)


def _simulate(cells: Sequence[Scenario], workers: int, chunk_size: int) -> list:
    """Per cell, the index estimates of each chunk of its replications.

    The cells share the replication count and master seed, as a grid's do;
    each chunk of replications is one unit of work over all of them.  Output
    is deterministic for a fixed (master seed, chunk size, longest T) no
    matter how many workers execute the units.
    """
    _check("workers", workers, "replications")
    plan = _chunk_plan(cells[0].replications, chunk_size)
    workers = min(workers, len(plan))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(_run_unit, cells, i, size) for i, size in plan]
            units = [f.result() for f in futures]
    else:
        units = [_run_unit(cells, i, size) for i, size in plan]
    return [[unit[i] for unit in units] for i in range(len(cells))]


def run_scenario(
    scenario: Scenario, workers: int = 1, chunk_size: int = DEFAULT_CHUNK
) -> ScenarioResult:
    """Run one scenario: simulate, mask, estimate, aggregate.

    Output is deterministic for a fixed (master seed, chunk size) no matter
    how many workers execute the chunks.  It equals the scenario's row of a
    grid whose longest length is the scenario's T.
    """
    (chunks,) = _simulate([scenario], workers, chunk_size)
    return _aggregate(scenario, chunks)


@dataclass(frozen=True)
class GridConfig:
    """Axes of a scenario grid; defaults mirror the standard study design.

    The field names are the keys of an ``mc`` config document, and an axis
    takes one value or a list, tuple or array of them, as a document's does.
    """

    family: str
    mu: float = 3.0
    rho: float = 0.5
    n: Optional[tuple] = None
    tau: tuple = (1.0, 0.8, 0.6, 0.4)
    r: tuple = (0.0, 0.3, 0.6)
    T: tuple = (100, 250, 500, 1000)
    replications: int = 10_000
    master_seed: int = 1

    def __post_init__(self):
        _check("replications", self.replications)
        _check("master_seed", self.master_seed)
        if self.family == "binomial" and self.n is None:
            object.__setattr__(self, "n", (10, 25))
        for key in ["tau", "r", "T"] + (["n"] if self.family == "binomial" else []):
            object.__setattr__(self, key, _axis(key, getattr(self, key)))
        self._models()

    def _models(self) -> dict:
        """The null model of each n of a binomial grid, or of a Poisson grid's one n."""
        ns = self.n if self.family == "binomial" else (self.n,)
        return {n: _null_model(self.family, self.mu, self.rho, n) for n in ns}

    def scenarios(self) -> list:
        """Grid cells in stable row order: tau desc, r asc, T asc, n asc."""
        models = self._models()
        cells = sorted(
            itertools.product(self.tau, self.r, self.T, models), key=lambda c: (-c[0], *c[1:])
        )
        return [
            Scenario(
                model=models[n],
                missing=MissingSpec(tau, r),
                T=T,
                replications=self.replications,
                master_seed=self.master_seed,
                mu=self.mu,
            )
            for tau, r, T, n in cells
        ]


def grid_config_from_dict(doc: dict) -> GridConfig:
    """Build a GridConfig from a JSON document, whose keys are the field names;
    unknown keys are rejected, and an axis may be a scalar or a list."""
    if not isinstance(doc, dict):
        raise ParameterError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(GridConfig)})
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    if "family" not in doc:
        raise ParameterError("config requires a 'family' key")
    return GridConfig(**doc)


def run_grid(
    config: GridConfig, workers: int = 1, chunk_size: int = DEFAULT_CHUNK
) -> list:
    """Run every scenario of a grid; per-scenario errors are recorded in the
    row and the grid continues."""
    scenarios = config.scenarios()
    results = []
    for s, chunks in zip(scenarios, _simulate(scenarios, workers, chunk_size)):
        try:
            results.append(_aggregate(s, chunks))
        except CountDiagError as err:
            results.append(ScenarioResult(scenario=s, stats={}, error=str(err)))
    return results


#: The grid columns of a cell, before its index columns.
_CELL_COLUMNS = ("family", "n", "mu", "rho", "tau", "r", "T", "replications")
#: The index column prefixes, in the order of the index-kind table.
_PREFIXES = tuple(dict.fromkeys(spec.prefix for spec in INDEX_KINDS.values()))
#: The grid columns of each index after its prefix: (suffix, IndexStats field).
_STAT_COLUMNS = (
    ("sim_mean", "sim_mean"), ("sim_sd", "sim_sd"), ("asym_mean", "asym_mean"),
    ("asym_sd", "asym_sd"), ("failures", "n_failed"),
)
_GRID_COLUMNS = (
    _CELL_COLUMNS + tuple(f"{p}_{s}" for p in _PREFIXES for s, _ in _STAT_COLUMNS) + ("error",)
)
#: The printed table's columns of each index: (grid column suffix, heading,
#: where {} stands for the prefix).
_TABLE_COLUMNS = (
    ("sim_mean", "{} sim"), ("asym_mean", "{} asym"), ("sim_sd", "sd sim"), ("asym_sd", "sd asym")
)


def result_rows(results: Sequence[ScenarioResult]) -> list:
    """Flatten scenario results to one dict per scenario."""
    rows = []
    for res in results:
        s, m = res.scenario, res.scenario.model
        row = dict(zip(_CELL_COLUMNS, (
            m.family, m.n if isinstance(m, Bar1) else "", _real(s.mu), _real(m.rho),
            _real(s.missing.tau), _real(s.missing.r), s.T, s.replications,
        )))
        for kind, stat in res.stats.items():
            prefix = INDEX_KINDS[kind].prefix
            for suffix, field in _STAT_COLUMNS:
                row[f"{prefix}_{suffix}"] = getattr(stat, field)
        row["error"] = res.error or ""
        rows.append(row)
    return rows


def write_grid_csv(results: Sequence[ScenarioResult], path) -> None:
    """Write grid results at full precision, one scenario per row."""
    _write_table(path, _GRID_COLUMNS, result_rows(results))


def _axis_value(v: float) -> str:
    """A tau or r for the printed table: two decimals where they are exact,
    else the shortest spelling of the value, so that no two values print alike."""
    fixed = f"{v:.2f}"
    return fixed if float(fixed) == v else repr(v)


def format_grid_table(results: Sequence[ScenarioResult]) -> str:
    """Render grid results as a plain-text table with 3-decimal entries; an
    error row reads ``error`` in the fail column, followed by its message."""
    columns = [f"{p}_{s}" for p in _PREFIXES for s, _ in _TABLE_COLUMNS]
    head = ["tau", "r", "T", "n"] + [h.format(p) for p in _PREFIXES for _, h in _TABLE_COLUMNS]
    lines = ["  ".join(f"{h:>9}" for h in head + ["fail"])]
    for row in result_rows(results):
        fails = max(int(row.get(f"{p}_failures") or 0) for p in _PREFIXES)
        cells = [
            _axis_value(row["tau"]), _axis_value(row["r"]), str(row["T"]), str(row["n"]),
        ] + [
            "" if row.get(c) is None or row.get(c) == "" else f"{row[c]:.3f}" for c in columns
        ] + ["error" if row["error"] else str(fails)]
        line = "  ".join(f"{c:>9}" for c in cells)
        lines.append(f"{line}  {row['error']}" if row["error"] else line)
    return "\n".join(lines)


_CURVE_COLUMNS = ("index", "tau", "r", "mu", "n", "t_variance", "t_bias")
#: The default curve grid of ``emit_curves`` and ``countdiag curves``: rho, the
#: r values, the taus as ``np.linspace`` arguments (least, greatest, points), mu.
CURVE_RHO, CURVE_R_VALUES, CURVE_TAUS, CURVE_MU = 0.5, (0.0, 0.3, 0.6), (0.25, 1.0, 76), 3.0


def emit_curves(
    kind: str,
    rho: float = CURVE_RHO,
    r_values: Sequence[float] = CURVE_R_VALUES,
    taus: Optional[Sequence[float]] = None,
    mu: float = CURVE_MU,
    n: Optional[int] = None,
) -> list:
    """Tabulate T-fold asymptotic variance and bias over a tau range.

    Returns one dict per (r, tau) pair with columns tau, r, mu, n,
    t_variance and t_bias, ready for external plotting.  Each tau and each
    r value is listed once, and r prints by its float value, as grid axes
    do.  The tau range must stay within [0.25, 1]: more than 75 percent
    missing data is not a practically meaningful regime.
    """
    if taus is None:
        taus = np.linspace(*CURVE_TAUS)
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1:
        raise ParameterError(f"taus must be one-dimensional, got shape {taus.shape}")
    if taus.size == 0 or taus.min() < 0.25 or taus.max() > 1.0:
        raise ParameterError("tau range must lie within [0.25, 1]")
    taus = _axis("tau", taus.tolist())
    r_values = _axis("r", r_values)
    spec = INDEX_KINDS[kind]
    model = _null_model(spec.family, mu, rho, n)
    rows = []
    for r in map(_real, r_values):
        for tau in taus:
            asym = spec.markov(model, MissingSpec(tau, r), 1)
            rows.append(dict(zip(_CURVE_COLUMNS, (
                kind, tau, r, _real(mu), "" if n is None else n, asym.variance, asym.bias
            ))))
    return rows


def write_curves_csv(rows: Sequence[dict], path) -> None:
    _write_table(path, _CURVE_COLUMNS, rows)


def _write_table(path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    """Write rows of ``columns`` under a header line; a missing column is empty."""
    with open_text(path, "w") as f:
        writer = csv.DictWriter(f, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)


def open_text(path, mode: str):
    """Open a UTF-8 text file for csv or json (mode "r" or "w").

    Reading skips a leading byte-order mark.  An OSError, such as a missing
    file or directory, becomes a FileAccessError naming the path.
    """
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    try:
        return open(path, mode, newline="", encoding=encoding)
    except OSError as err:
        action = "read" if mode == "r" else "write"
        raise FileAccessError(f"cannot {action} {path}: {err.strerror or err}") from None


def _parse_count_field(field: str, row_number: int) -> int:
    try:
        value = int(field)
    except ValueError:
        try:
            as_float = float(field)
        except ValueError:
            raise CsvFormatError(
                f"row {row_number}: {field!r} is not a count"
            ) from None
        if not as_float.is_integer():
            raise CsvFormatError(
                f"row {row_number}: {field!r} is not an integer"
            ) from None
        value = int(as_float)
    if value < 0:
        raise CsvFormatError(f"row {row_number}: negative count {value}")
    return value


def load_series_csv(path) -> CountSeries:
    """Read a count series from a one-observation-per-row CSV file.

    The last column holds the counts (an optional leading index column is
    ignored), and a literal NA token or an empty field marks a missing
    observation.  The first row is a header, and skipped, only if its last
    field is neither a number, NA nor empty; quoted fields are unquoted first.
    The file must be UTF-8 text (a leading byte-order mark is skipped), and
    every count at most 2**63 - 1.

    A file of plain lines (at most 18 digits, NA or nothing on each, LF or
    CRLF ends, an optional header) is read in one numpy pass over its bytes.
    Any other file goes through the csv module, with the same result; so does
    every file that fails, so that each error names its row the same way.
    """
    series = _read_plain_counts(path)
    return series if series is not None else _read_csv_rows(path)


#: The most digits a plain line holds, so that no count reaches 2**63.
_PLAIN_DIGITS = 18


def _read_plain_counts(path) -> Optional[CountSeries]:
    """The series in a file of plain lines, or None for any other file.

    After an optional UTF-8 byte-order mark and an optional header line, each
    line holds ASCII digits, NA or nothing, and ends with LF or CRLF (the last
    one may end the file instead).  The header rule is the csv reader's.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    crlf = (newlines > 0) & (buf[newlines - 1] == ord("\r"))
    starts = np.concatenate(([0], newlines + 1))
    ends = newlines - crlf
    if starts[-1] < buf.size:  # the last line has no newline
        ends = np.append(ends, buf.size)
    else:
        starts = starts[:-1]
    if starts.size == 0:
        return None
    skip = int(_is_header(_last_csv_field(data[: ends[0]])))
    starts, ends, crlf = starts[skip:], ends[skip:], crlf[skip:]
    if starts.size == 0:
        return None
    lengths = ends - starts
    two = np.flatnonzero(lengths == 2)
    na = two[(buf[starts[two]] == ord("N")) & (buf[starts[two] + 1] == ord("A"))]
    # Every byte of the body that is not a digit must be a newline, the CR of
    # a CRLF or a letter of an NA line: matching their count checks all lines.
    known = newlines.size - skip + np.count_nonzero(crlf) + 2 * na.size
    body = buf[starts[0] :]
    if np.count_nonzero(body - np.uint8(ord("0")) > 9) != known or lengths.max() > _PLAIN_DIGITS:
        return None
    observed = lengths > 0
    observed[na] = False
    digits = np.where(observed, lengths, 0)
    values = np.zeros(digits.size, dtype=np.int64)
    for place in range(int(digits.max())):
        byte = buf[ends - 1 - place]  # wraps round where place >= digits, which is masked
        values += np.where(digits > place, byte.astype(np.int64) - ord("0"), 0) * 10**place
    return CountSeries(values, observed)


def _last_csv_field(line: bytes) -> Optional[str]:
    """The stripped last field that the csv reader reads from a line without
    quotes, CR or NUL, or None for any other line."""
    if any(c in line for c in (b'"', b"\r", b"\0")) or len(line) >= csv.field_size_limit():
        return None
    try:
        return line.decode("utf-8").split(",")[-1].strip()
    except UnicodeDecodeError:
        return None


def _is_header(field: Optional[str]) -> bool:
    """Whether a first row's last field makes it a header: a field that is
    neither a number, NA nor empty (nor None, from a line left to the csv
    reader)."""
    if field in (None, "", "NA"):
        return False
    try:
        float(field)
    except ValueError:
        return True
    return False


def _read_csv_rows(path) -> CountSeries:
    """Read a series of any layout with the csv module, and word every error."""
    try:
        with open_text(path, "r") as f:
            reader = csv.reader(f)
            fields = [row[-1].strip() if row else "" for row in reader]
    except UnicodeDecodeError as err:
        raise CsvFormatError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:  # such as a field above csv.field_size_limit()
        raise CsvFormatError(f"{path}: row {reader.line_num}: {err}") from None
    if not fields:
        raise CsvFormatError(f"{path}: empty file")
    start = 1 if _is_header(fields[0]) else 0
    values, mask = [], []
    for i, field in enumerate(fields[start:], start=start + 1):
        if field in ("", "NA"):
            values.append(0)
            mask.append(0)
        else:
            values.append(_parse_count_field(field, i))
            mask.append(1)
    if not values:
        raise CsvFormatError(f"{path}: no data rows")
    try:
        values = np.asarray(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, value in enumerate(values) if value > np.iinfo(np.int64).max)
        raise CsvFormatError(
            f"row {start + 1 + i}: count {values[i]} exceeds 2**63 - 1"
        ) from None
    return CountSeries(values, np.asarray(mask))


def write_series_csv(series: CountSeries, path) -> None:
    """Write a count series one observation per row, NA for masked positions."""
    with open_text(path, "w") as f:
        f.write("x\n")
        for value, observed in zip(series.values, series.mask):
            f.write(f"{int(value)}\n" if observed else "NA\n")
