"""The benchmark's three workloads.

Each workload builds its inputs from a seed, offers one *pass* of timed
operations, and checks the output of every operation.  Calls into the package
go through module attributes at call time, so that the traced pass, which
patches those attributes, sees them.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from countdiag import cli, diagnostics, harness, missingness, simulate
from countdiag.series import Bar1, MissingSpec, PoiInar1, Seed

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "tests" / "data"

#: Replications per chunk; part of the harness seeding, so each workload pins
#: its own.  The pool workload halves it so that each cell has two chunks for
#: the two workers, at the replication count the serial grid uses.
CHUNK = 2048
POOL_CHUNK = 1024
#: The published grids were simulated with this many replications.
REFERENCE_REPLICATIONS = 10_000
#: Simulated means and sds must lie within this many standard errors of the
#: published ones, plus the rounding of the published three decimals.
Z_LIMIT = 5.0
ROUNDING = 5e-4

MU, RHO = 3.0, 0.5


@dataclass
class Op:
    """One timed operation.

    ``run`` does the timed work and returns what ``check`` needs; ``check``
    returns how many of the operation's ``attempts`` failed.  Attempts are
    grid rows for the Monte Carlo workloads and the operation itself
    otherwise.  ``reps`` is the number of replications (Monte Carlo) or
    operations it completes.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    reps: int = 1
    attempts: int = 1


@contextlib.contextmanager
def _quiet():
    """Send the CLI's printed tables to /dev/null; only the result line is ours."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        yield


# ---------------------------------------------------------------------------
# Monte Carlo grids through `countdiag mc`
# ---------------------------------------------------------------------------


def _load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name, newline="", encoding="utf-8") as f:
        return {
            (float(row["tau"]), float(row["r"]), int(row["T"])): {
                key: float(value) for key, value in row.items()
            }
            for row in csv.DictReader(f)
        }


class MonteCarloGrid:
    """``countdiag mc`` on a standard study grid, one grid per operation."""

    def __init__(self, name: str, doc: dict, workers: int, chunk: int = CHUNK):
        self.name = name
        self.doc = doc
        self.workers = workers
        self.chunk = chunk
        self.worst_z = 0.0

    @property
    def replications(self) -> int:
        return int(self.doc["replications"])

    def setup(self, seed: int, workdir: Path) -> None:
        doc = dict(self.doc, master_seed=seed)
        self.config_path = workdir / f"{self.name}.json"
        self.out_path = workdir / f"{self.name}.csv"
        self.config_path.write_text(json.dumps(doc), encoding="utf-8")
        self.scenarios = harness.grid_config_from_dict(doc).scenarios()
        self.expected = [
            {kind: harness.scenario_asymptotics(s, kind) for kind in s.index_kinds}
            for s in self.scenarios
        ]
        if doc["family"] == "poisson":
            refs = {None: _load_reference("reference_grid_poisson.csv")}
        else:
            refs = {n: _load_reference(f"reference_grid_binomial_n{n}.csv") for n in doc["n"]}
        self.references = refs
        # one full-size cell, so that the timed grids find the allocator warm
        warm = {"family": doc["family"], "tau": 0.8, "r": 0.3,
                "T": max(s.T for s in self.scenarios),
                "replications": self.chunk, "master_seed": seed}
        if doc["family"] == "binomial":
            warm["n"] = doc["n"][0]
        self.warm_path = workdir / f"{self.name}-warm.json"
        self.warm_path.write_text(json.dumps(warm), encoding="utf-8")

    def _argv(self, config, out, workers):
        return ["mc", "--config", str(config), "--out", str(out),
                "--workers", str(workers), "--chunk-size", str(self.chunk), "--quiet"]

    def warm_up(self) -> None:
        with _quiet():
            cli.main(self._argv(self.warm_path, self.out_path, 1))

    def ops(self, traced: bool = False) -> list:
        argv = self._argv(self.config_path, self.out_path, 1 if traced else self.workers)

        def run():
            with _quiet():
                return cli.main(argv)

        cells = len(self.scenarios)
        return [Op("grid", run, self.check, reps=cells * self.replications, attempts=cells)]

    def check(self, exit_code) -> int:
        cells = len(self.scenarios)
        if exit_code != 0:
            return cells
        with open(self.out_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != cells:
            return cells
        return sum(
            not self._row_ok(row, s, asym)
            for row, s, asym in zip(rows, self.scenarios, self.expected)
        )

    def _row_ok(self, row, scenario, asym) -> bool:
        key = (scenario.missing.tau, scenario.missing.r, scenario.T)
        if row["error"] or key != (float(row["tau"]), float(row["r"]), int(row["T"])):
            return False
        ref = self.references[getattr(scenario.model, "n", None)][key]
        ok = True
        for kind, a in asym.items():
            prefix = "disp" if kind.endswith("dispersion") else "skew"
            if float(row[f"{prefix}_asym_mean"]) != a.mean or float(row[f"{prefix}_asym_sd"]) != a.sd:
                ok = False
            used = self.replications - int(row[f"{prefix}_failures"])
            sim_mean, sim_sd = float(row[f"{prefix}_sim_mean"]), float(row[f"{prefix}_sim_sd"])
            ref_mean, ref_sd = ref[f"{prefix}_mean_sim"], ref[f"{prefix}_sd_sim"]
            # both columns are Monte Carlo estimates, so their errors add
            se_mean = math.sqrt(sim_sd**2 / used + ref_sd**2 / REFERENCE_REPLICATIONS)
            se_sd = math.sqrt(
                sim_sd**2 / (2 * (used - 1)) + ref_sd**2 / (2 * (REFERENCE_REPLICATIONS - 1))
            )
            for gap, se in ((abs(sim_mean - ref_mean), se_mean), (abs(sim_sd - ref_sd), se_sd)):
                self.worst_z = max(self.worst_z, gap / se)
                if not gap <= Z_LIMIT * se + ROUNDING:
                    ok = False
        return ok

    def kernel_bytes(self) -> dict:
        """Computed (not measured) bytes each chunk kernel writes or reads per chunk."""
        out = {}
        for T in sorted({s.T for s in self.scenarios}):
            cells = self.chunk * T
            out[f"T={T}"] = {
                "paths_int64_out": 8 * cells,
                "mask_int8_out": cells,
                "estimates_in_int64_int8": 9 * cells,
                "estimates_float64_out": 8 * self.chunk * 2,
            }
        return out


# ---------------------------------------------------------------------------
# `countdiag diagnose` on long series, plus the model-adequacy block
# ---------------------------------------------------------------------------


@dataclass
class _Case:
    path: Path
    family: str
    n: object
    ignore_missing: bool
    series: object  # what the adequacy block reads: compacted with --ignore-missing
    expected: dict


class DiagnoseLong:
    """One operation diagnoses one T=100,000 series through ``cli.main`` and
    then runs the ACF/PACF adequacy block on the same series in memory."""

    name = "diagnose-long"
    T = 100_000
    MAX_LAG = 50
    MASKS = ((1.0, 0.0), (0.8, 0.6), (0.6, 0.3), (0.4, 0.0))
    MODELS = (("poisson", None, PoiInar1(MU, RHO)), ("binomial", 10, Bar1(10, MU / 10, RHO)))

    def setup(self, seed: int, workdir: Path) -> None:
        self.json_path = workdir / "report.json"
        self.cases = []
        stream = 0
        for family, n, model in self.MODELS:
            draw = simulate.simulate_poi_inar1 if n is None else simulate.simulate_bar1
            path_series = draw(model, self.T, Seed(seed, stream))
            stream += 1
            for tau, r in self.MASKS:
                mask = simulate.simulate_markov_mask(MissingSpec(tau, r), self.T, Seed(seed, stream))
                stream += 1
                series = simulate.apply_mask(path_series, mask)
                path = workdir / f"{family}-tau{tau}-r{r}.csv"
                harness.write_series_csv(series, path)
                for ignore in (False, True):
                    null = diagnostics.NullSpec(family, n=n, ignore_missing=ignore)
                    expected = {
                        kind: diagnostics.test_index(series, null, kind)
                        for kind in ("dispersion", "skewness")
                    }
                    work = series.compact() if ignore else series
                    self.cases.append(_Case(path, family, n, ignore, work, expected))

    def _op(self, case: _Case) -> Op:
        argv = ["diagnose", "--input", str(case.path), "--null", case.family,
                "--index", "both", "--json", str(self.json_path)]
        if case.n is not None:
            argv += ["--n", str(case.n)]
        if case.ignore_missing:
            argv.append("--ignore-missing")

        def run():
            with _quiet():
                code = cli.main(argv)
            acf = missingness.dr_acf(case.series, self.MAX_LAG)
            pacf = missingness.durbin_levinson_pacf(acf.rho_hat[1:])
            band = missingness.acf_critical_band(acf.tau_lag, acf.T)
            return code, acf, pacf, band

        def check(output):
            code, acf, pacf, band = output
            if code != 0:
                return 1
            reports = json.loads(self.json_path.read_text(encoding="utf-8"))
            ok = len(reports) == 2
            for report in reports:
                want = case.expected[report["kind"].split("-", 1)[1]]
                ok = ok and (report["statistic"], report["lower_critical"], report["upper_critical"]) == (
                    want.statistic, want.lower_critical, want.upper_critical
                )
            observed_lags = acf.tau_lag > 0
            ok = ok and bool(np.all(np.isfinite(pacf))) and bool(np.all(np.isfinite(band[observed_lags])))
            return 0 if ok else 1

        return Op("diagnose", run, check)

    def warm_up(self) -> None:
        op = self._op(self.cases[0])
        op.run()

    def ops(self, traced: bool = False) -> list:
        return [self._op(case) for case in self.cases]


def make(name: str, workers: int):
    """The workload called ``name``; ``workers`` caps the mc pool size."""
    if name == "mc-poisson-serial":
        return MonteCarloGrid(name, {"family": "poisson", "replications": CHUNK}, workers=1)
    if name == "mc-binomial-pool":
        doc = {"family": "binomial", "n": [10, 25], "replications": CHUNK}
        return MonteCarloGrid(name, doc, workers=min(2, workers), chunk=POOL_CHUNK)
    if name == "diagnose-long":
        return DiagnoseLong()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc-poisson-serial", "mc-binomial-pool", "diagnose-long")
