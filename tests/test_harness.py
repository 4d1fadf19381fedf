import csv
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from countdiag import (
    Bar1,
    CsvFormatError,
    GridConfig,
    MissingSpec,
    ParameterError,
    PoiInar1,
    Scenario,
    emit_curves,
    grid_config_from_dict,
    load_series_csv,
    run_grid,
    run_scenario,
    scenario_asymptotics,
    write_grid_csv,
    write_series_csv,
)
from countdiag.harness import (
    IndexStats,
    ScenarioResult,
    _law_key,
    _model_key,
    _read_csv_rows,
    _read_plain_counts,
    format_grid_table,
    result_rows,
)
from countdiag import (
    bin_dispersion_asym_markov,
    poi_dispersion_asym_markov,
    skew_asym_binomial_markov,
    skew_asym_poisson_markov,
)


def small_scenario(**overrides):
    base = dict(
        model=PoiInar1(3.0, 0.5),
        missing=MissingSpec(0.8, 0.6),
        T=100,
        replications=400,
        master_seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_default_index_kinds(self):
        assert small_scenario().index_kinds == ("poisson-dispersion", "poisson-skewness")
        bar = small_scenario(model=Bar1(10, 0.3, 0.5))
        assert bar.index_kinds == ("binomial-dispersion", "binomial-skewness")

    def test_asymptotics_dispatch(self):
        s = small_scenario()
        direct = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 100)
        assert scenario_asymptotics(s, "poisson-dispersion").variance == direct.variance
        bar = small_scenario(model=Bar1(10, 0.3, 0.5))
        direct = skew_asym_binomial_markov(10, 0.3, 0.5, 0.8, 0.6, 100)
        assert scenario_asymptotics(bar, "binomial-skewness").bias == direct.bias

    @pytest.mark.parametrize(
        "config",
        [GridConfig("poisson", replications=1), GridConfig("binomial", n=(10, 25), replications=1)],
        ids=["poisson", "binomial"],
    )
    def test_asymptotics_of_every_standard_cell_equal_the_closed_form(self, config):
        # the closed form at the configured parameters, bit for bit (pi = mu / n)
        def bits(asym):
            return [float.hex(v) for v in dataclasses.astuple(asym)]

        for s in config.scenarios():
            dep = (config.rho, s.missing.tau, s.missing.r, s.T)
            if config.family == "poisson":
                direct = {
                    "poisson-dispersion": poi_dispersion_asym_markov(config.mu, *dep),
                    "poisson-skewness": skew_asym_poisson_markov(config.mu, *dep),
                }
            else:
                n = s.model.n
                direct = {
                    "binomial-dispersion": bin_dispersion_asym_markov(n, config.mu / n, *dep),
                    "binomial-skewness": skew_asym_binomial_markov(n, config.mu / n, *dep),
                }
            assert set(direct) == set(s.index_kinds)
            for kind, want in direct.items():
                assert bits(scenario_asymptotics(s, kind)) == bits(want)


class TestRunScenario:
    def test_deterministic_across_runs(self):
        a = run_scenario(small_scenario())
        b = run_scenario(small_scenario())
        for kind in a.stats:
            assert a.stats[kind].sim_mean == b.stats[kind].sim_mean
            assert a.stats[kind].sim_sd == b.stats[kind].sim_sd

    def test_chunking_does_not_change_results_only_seeding(self):
        # same chunk size, different worker counts must agree bit for bit
        s = small_scenario()
        seq = run_scenario(s, workers=1, chunk_size=64)
        par = run_scenario(s, workers=2, chunk_size=64)
        for kind in seq.stats:
            assert seq.stats[kind].sim_mean == par.stats[kind].sim_mean
            assert seq.stats[kind].sim_sd == par.stats[kind].sim_sd

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(
            ParameterError, match=f"^workers must be an integer >= 1, got {workers}$"
        ):
            run_scenario(small_scenario(), workers=workers)

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("size, name", [("workers", "workers"), ("chunk_size", "chunk size")])
    @pytest.mark.parametrize("grid", [False, True])
    def test_run_sizes_must_be_integers(self, grid, size, name, value):
        with pytest.raises(
            ParameterError, match=f"^{name} must be an integer >= 1, got {value}$"
        ):
            if grid:
                run_grid(GridConfig("poisson", tau=(0.8,), T=(50,), replications=8),
                         **{size: value})
            else:
                run_scenario(small_scenario(), **{size: value})

    def test_single_replication_flags_sd(self):
        res = run_scenario(small_scenario(replications=1))
        stat = res.stats["poisson-dispersion"]
        assert stat.n_used == 1
        assert math.isnan(stat.sim_sd)

    def test_degenerate_replications_counted(self):
        # T=2 with a sparse mask: many replications have no observed pair
        s = small_scenario(T=2, missing=MissingSpec(0.05, 0.0), replications=2000)
        res = run_scenario(s)
        stat = res.stats["poisson-dispersion"]
        assert stat.n_failed > 0
        assert stat.n_used + stat.n_failed == 2000

    def test_all_degenerate_cell_is_an_ordinary_row(self):
        # mu = 1e-6 and T = 2: every path is all zeros, so no replication has an index
        s = small_scenario(model=PoiInar1(1e-6, 0.5), missing=MissingSpec(1.0, 0.0), T=2,
                           replications=4)
        res = run_scenario(s)
        assert res.error is None
        for kind, stat in res.stats.items():
            assert (stat.n_used, stat.n_failed) == (0, 4)
            assert math.isnan(stat.sim_mean) and math.isnan(stat.sim_sd)
            asym = scenario_asymptotics(s, kind)
            assert (stat.asym_mean, stat.asym_sd) == (asym.mean, asym.sd)

    def test_close_to_asymptotics_at_large_T(self):
        res = run_scenario(small_scenario(T=500, replications=4000, master_seed=11))
        stat = res.stats["poisson-dispersion"]
        assert stat.sim_mean == pytest.approx(stat.asym_mean, abs=0.01)
        assert stat.sim_sd == pytest.approx(stat.asym_sd, abs=0.01)


class TestRunGrid:
    def test_default_poisson_grid_shape_and_order(self):
        config = GridConfig("poisson", replications=1)
        scenarios = config.scenarios()
        assert len(scenarios) == 48
        keys = [
            (-s.missing.tau, s.missing.r, s.T)
            for s in scenarios
        ]
        assert keys == sorted(keys)

    def test_order_of_unsorted_and_repeated_axes(self):
        # tau descending, then r, T and n ascending, whatever order the axes list
        config = GridConfig(
            "binomial", n=(25, 10), tau=(0.6, 1.0, 0.8), r=(0.3, 0.0), T=(100, 50),
            replications=1,
        )
        keys = [(s.missing.tau, s.missing.r, s.T, s.model.n) for s in config.scenarios()]
        assert keys == [
            (tau, r, T, n)
            for tau in (1.0, 0.8, 0.6) for r in (0.0, 0.3) for T in (50, 100) for n in (10, 25)
        ]
        # an axis value listed twice, in any spelling, would be one cell twice
        for key, values, again in [
            ("tau", (0.6, 1.0, 0.6), "0.6"), ("tau", (1, 1.0), "1.0"),
            ("r", (0.0, -0.0), "-0.0"), ("r", (0.3, 0.0, 0.3), "0.3"),
            ("T", (100, 50, 100), "100"), ("n", (25, 10, np.int64(25)), "25"),
        ]:
            with pytest.raises(
                ParameterError, match=f"^{key} must list each value once, got {again} again$"
            ):
                GridConfig("binomial", replications=1, **{key: values})

    def test_equal_values_key_one_stream(self, tmp_path):
        # 0, 0.0 and -0.0 are one mask law, so they draw one stream; they and
        # mu 3 and 3.0 print by their float value, in the CSV and the table
        printed = set()
        for r in (0, 0.0, -0.0, np.float64(0.0)):
            for mu in (3, 3.0):
                doc = {"family": "poisson", "mu": mu, "tau": 0.8, "r": r, "T": 50,
                       "replications": 64}
                results = run_grid(grid_config_from_dict(doc))
                s = results[0].scenario
                keys = (_model_key(s.model), _law_key(s.missing), s.T, s.replications)
                assert keys == ("poi(mu=3.0,rho=0.5)", "mask(tau=0.8,r=0.0)", 50, 64)
                write_grid_csv(results, tmp_path / "grid.csv")
                printed.add(((tmp_path / "grid.csv").read_bytes(), format_grid_table(results)))
        ((grid, table),) = printed
        assert grid.splitlines()[1].startswith(b"poisson,,3.0,0.5,0.8,0.0,50,64,")
        assert table.splitlines()[1].split()[:2] == ["0.80", "0.00"]

    def test_mu_prints_as_configured(self, tmp_path):
        # n * (mu / n) is 0.10000000000000002 at n = 11 and 0.09999999999999999 at n = 19
        doc = {"family": "binomial", "mu": 0.1, "n": [11, 19], "tau": 0.8, "r": 0.3, "T": 50,
               "replications": 64}
        results = run_grid(grid_config_from_dict(doc))
        assert [res.scenario.model.pi for res in results] == [0.1 / 11, 0.1 / 19]
        assert [row["mu"] for row in result_rows(results)] == [0.1, 0.1]
        write_grid_csv(results, tmp_path / "grid.csv")
        lines = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:3] for line in lines] == [
            ["binomial", "11", "0.1"], ["binomial", "19", "0.1"]
        ]

    def test_binomial_grid_carries_both_bounds(self):
        config = GridConfig("binomial", replications=1, n=(10, 25))
        scenarios = config.scenarios()
        assert len(scenarios) == 96
        first_two = scenarios[:2]
        assert [s.model.n for s in first_two] == [10, 25]

    def test_single_cell(self):
        config = GridConfig(
            "poisson", tau=(0.8,), r=(0.0,), T=(100,), replications=50
        )
        results = run_grid(config)
        assert len(results) == 1
        assert results[0].error is None

    def test_worker_counts_byte_identical(self, tmp_path):
        config = GridConfig(
            "poisson", tau=(0.8, 0.6), r=(0.0,), T=(100,), replications=256,
            master_seed=5,
        )
        payloads = []
        for workers in (1, 4, 16):
            out = tmp_path / f"grid_w{workers}.csv"
            write_grid_csv(run_grid(config, workers=workers, chunk_size=64), out)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_error_rows_recorded_and_grid_continues(self):
        # tau below the asymptotics floor poisons one cell only
        config = GridConfig(
            "poisson", tau=(0.8, 0.005), r=(0.0,), T=(50,), replications=20
        )
        results = run_grid(config)
        assert len(results) == 2
        assert results[0].error is None
        assert results[1].error is not None and results[1].stats == {}

    def test_error_row_prints_its_tau_and_error(self):
        # a failed cell must not read as a cell at tau 0.01 with no failures
        doc = {"family": "poisson", "tau": [0.8, 0.005], "r": 0.0, "T": 50, "replications": 20}
        results = run_grid(grid_config_from_dict(doc))
        error = "tau must be at least 0.01 for the asymptotics, got 0.005"
        assert results[1].error == error
        lines = format_grid_table(results).splitlines()
        assert lines[1].startswith("     0.80       0.00         50")
        assert lines[2] == (
            "    0.005       0.00         50" + " " * 11 + " " * 88 + "      error  " + error
        )

    def test_all_degenerate_cell_counts_its_failures(self, tmp_path):
        doc = {"family": "poisson", "mu": 1e-06, "tau": 1.0, "r": 0.0, "T": 2,
               "replications": 4}
        results = run_grid(grid_config_from_dict(doc))
        write_grid_csv(results, tmp_path / "grid.csv")
        with open(tmp_path / "grid.csv", newline="") as f:
            (row,) = csv.DictReader(f)
        assert row["disp_failures"] == row["skew_failures"] == "4"
        assert row["disp_sim_mean"] == row["skew_sim_sd"] == "nan"
        assert all(row[f"{p}_asym_{s}"] not in ("", "nan") for p in ("disp", "skew")
                   for s in ("mean", "sd"))
        assert row["error"] == ""
        assert format_grid_table(results).splitlines()[1].split()[-1] == "4"

    def test_rows_and_csv(self, tmp_path):
        config = GridConfig(
            "binomial", n=(10,), tau=(0.8,), r=(0.0,), T=(100,),
            replications=100,
        )
        results = run_grid(config)
        rows = result_rows(results)
        assert rows[0]["family"] == "binomial" and rows[0]["n"] == 10
        assert {"disp_sim_mean", "skew_asym_sd", "error"} <= set(rows[0])
        out = tmp_path / "grid.csv"
        write_grid_csv(results, out)
        header = out.read_text().splitlines()[0]
        assert header.startswith("family,n,mu,rho,tau,r,T,replications")
        table = format_grid_table(results)
        assert "disp sim" in table and len(table.splitlines()) == 2

    def test_layout_of_fixed_results(self, tmp_path):
        # every column of the grid CSV and of the printed table, for a cell and an error row
        cell = Scenario(Bar1(10, 0.3, 0.5), MissingSpec(0.8, 0.3), T=100, replications=50,
                        master_seed=1)
        stats = {
            "binomial-dispersion": IndexStats(0.875, 0.25, 0.9, 0.3125, 48, 2),
            "binomial-skewness": IndexStats(0.9375, 0.125, 0.95, 0.1875, 47, 3),
        }
        results = [
            ScenarioResult(cell, stats),
            ScenarioResult(cell, {}, error="all 50 replications degenerate"),
        ]
        out = tmp_path / "grid.csv"
        write_grid_csv(results, out)
        assert out.read_text().splitlines() == [
            "family,n,mu,rho,tau,r,T,replications,"
            "disp_sim_mean,disp_sim_sd,disp_asym_mean,disp_asym_sd,disp_failures,"
            "skew_sim_mean,skew_sim_sd,skew_asym_mean,skew_asym_sd,skew_failures,error",
            "binomial,10,3.0,0.5,0.8,0.3,100,50,0.875,0.25,0.9,0.3125,2,0.9375,0.125,0.95,0.1875,3,",
            "binomial,10,3.0,0.5,0.8,0.3,100,50,,,,,,,,,,,all 50 replications degenerate",
        ]
        assert format_grid_table(results).splitlines() == [
            "      tau          r          T          n   disp sim  disp asym     sd sim"
            "    sd asym   skew sim  skew asym     sd sim    sd asym       fail",
            "     0.80       0.30        100         10      0.875      0.900      0.250"
            "      0.312      0.938      0.950      0.125      0.188          3",
            "     0.80       0.30        100         10" + " " * 88
            + "      error  all 50 replications degenerate",
        ]


class TestGridStreams:
    """Paths are keyed by (seed, model, chunk) and masks by (seed, law, chunk),
    drawn at the grid's longest T; each cell reads a prefix."""

    @staticmethod
    def _lines(results, path):
        write_grid_csv(results, path)
        return path.read_text().splitlines()

    def test_sub_grid_reproduces_its_rows(self, tmp_path):
        axes = dict(n=(10, 25), T=(50, 120), replications=300, master_seed=4)
        full = GridConfig("binomial", tau=(1.0, 0.8, 0.6), r=(0.0, 0.6), **axes)
        sub = GridConfig("binomial", tau=(0.6,), r=(0.6,), **axes)
        full_lines = self._lines(run_grid(full, chunk_size=128), tmp_path / "full.csv")
        sub_lines = self._lines(run_grid(sub, workers=2, chunk_size=128), tmp_path / "sub.csv")
        assert len(sub_lines) == 5
        assert [line for line in full_lines if line in sub_lines] == sub_lines

    def test_one_cell_at_longest_T_equals_its_grid_row(self):
        config = GridConfig(
            "poisson", tau=(0.8, 0.6), r=(0.3,), T=(60, 150), replications=300,
            master_seed=9,
        )
        longest = [res for res in run_grid(config, chunk_size=128) if res.scenario.T == 150]
        assert len(longest) == 2
        for res in longest:
            single = run_scenario(res.scenario, chunk_size=128)
            assert result_rows([single]) == result_rows([res])

    def test_all_observed_rows_equal_across_r(self):
        config = GridConfig(
            "poisson", tau=(1.0,), r=(0.0, 0.3, 0.6), T=(80,), replications=200,
            master_seed=2,
        )
        rows = result_rows(run_grid(config, chunk_size=64))
        sim = [{k: v for k, v in row.items() if "sim" in k or "failures" in k} for row in rows]
        assert sim[0] == sim[1] == sim[2]

    @pytest.mark.parametrize("taus,rs", [((0.8,), (0.3,)), ((1.0, 0.8, 0.6), (0.0, 0.3, 0.6))])
    def test_one_tally_per_model_and_chunk(self, monkeypatch, taus, rs):
        import countdiag.harness as harness

        built = []

        class Recording(harness.Tally):
            def __init__(self, paths, ends):
                built.append(list(ends))
                super().__init__(paths, ends)

        monkeypatch.setattr(harness, "Tally", Recording)
        config = GridConfig(
            "binomial", n=(10, 25), tau=taus, r=rs, T=(50, 120), replications=300
        )
        run_grid(config, chunk_size=128)  # three chunks of two models
        assert built == [[50, 120]] * 6

    def test_rows_unchanged_by_other_laws_and_lengths(self, tmp_path):
        axes = dict(replications=300, master_seed=5)
        small = GridConfig("poisson", tau=(0.8,), r=(0.3,), T=(60, 150), **axes)
        large = GridConfig(
            "poisson", tau=(1.0, 0.8, 0.6), r=(0.0, 0.3), T=(60, 100, 150), **axes
        )
        small_lines = self._lines(run_grid(small, chunk_size=128), tmp_path / "small.csv")
        large_lines = self._lines(run_grid(large, chunk_size=128), tmp_path / "large.csv")
        assert len(small_lines) == 3
        assert [line for line in large_lines if line in small_lines] == small_lines

    def test_pool_capped_at_units(self, monkeypatch):
        import countdiag.harness as harness

        sizes = []
        pool = harness.ProcessPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", recording)
        config = GridConfig("poisson", tau=(0.8,), r=(0.0,), T=(50,), replications=256)
        run_grid(config, workers=16, chunk_size=64)  # four units
        run_grid(config, workers=16, chunk_size=256)  # one unit runs in process
        assert sizes == [4]


class TestGridConfigJson:
    def test_round_trip(self):
        doc = {
            "family": "binomial", "mu": 3.0, "rho": 0.5, "n": [10],
            "tau": [0.8], "r": [0.0, 0.6], "T": [100],
            "replications": 10, "master_seed": 3,
        }
        config = grid_config_from_dict(doc)
        assert config.n == (10,) and config.r == (0.0, 0.6)

    def test_scalars_accepted(self):
        config = grid_config_from_dict({"family": "poisson", "tau": 0.8, "T": 100})
        assert config.tau == (0.8,) and config.T == (100,)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError, match="unknown config keys: foo"):
            grid_config_from_dict({"family": "poisson", "foo": 1})

    def test_field_names_are_the_config_keys(self):
        config = GridConfig("binomial", n=(10,), tau=(0.8,), r=(0.3,), T=(50,), master_seed=7)
        doc = {f.name: getattr(config, f.name) for f in dataclasses.fields(GridConfig)}
        assert grid_config_from_dict(doc) == config
        for old in ("ns", "taus", "rs", "lengths"):
            with pytest.raises(ParameterError, match=f"unknown config keys: {old}"):
                grid_config_from_dict({"family": "binomial", old: [1]})

    def test_readme_example_is_the_config_of_its_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        doc = json.loads(block)
        assert grid_config_from_dict(doc) == GridConfig(**doc)

    def test_n_rejected_for_poisson(self):
        with pytest.raises(ParameterError):
            grid_config_from_dict({"family": "poisson", "n": [10]})

    def test_family_required(self):
        with pytest.raises(ParameterError):
            grid_config_from_dict({})

    @pytest.mark.parametrize("n", [10, (10, 25), (1, "x")])
    def test_n_rejected_for_poisson_in_python(self, n):
        with pytest.raises(ParameterError, match="^'n' is only valid for the binomial family$"):
            GridConfig("poisson", n=n, replications=1)

    def test_no_n_and_null_n_mean_no_n_given(self):
        assert GridConfig("binomial").n == (10, 25)
        assert grid_config_from_dict({"family": "binomial", "n": None}) == GridConfig("binomial")
        config = grid_config_from_dict({"family": "poisson", "n": None})
        assert config == GridConfig("poisson") and len(config.scenarios()) == 48

    def test_unknown_family_named_after_the_axes(self):
        with pytest.raises(ParameterError, match="^unknown family 'gaussian'$"):
            GridConfig("gaussian", replications=1)
        with pytest.raises(ParameterError, match="^T must list at least one value$"):
            GridConfig("gaussian", T=[], replications=1)


class TestGridConfigAxes:
    """GridConfig takes an axis as a config document may spell it, and stores
    it as a tuple, so that the frozen config can be hashed."""

    @pytest.mark.parametrize("key, values", [
        ("tau", (1.0, 0.8)), ("r", (0.0, 0.3)), ("T", (50, 100)), ("n", (10, 25)),
    ])
    def test_scalar_list_tuple_and_array_build_one_config(self, key, values):
        def config(axis):
            return GridConfig("binomial", replications=1, **{key: axis})

        one = values[0]  # a 0-d array is one value too
        for spellings, want in (
            ([one, [one], (one,), np.array([one]), np.array(one)], (one,)),
            ([list(values), values, np.array(values)], values),
        ):
            configs = [config(axis) for axis in spellings]
            assert set(configs) == {config(want)}  # each can be hashed, and all are equal
            assert all(type(getattr(c, key)) is tuple for c in configs)

    @pytest.mark.parametrize("build", [
        lambda doc: GridConfig(**doc), grid_config_from_dict,
    ])
    def test_ragged_list_names_the_bad_entry(self, build):
        with pytest.raises(ParameterError, match=r"^T must be an integer >= 1, got \[1, 2\]$"):
            build({"family": "poisson", "T": [50, [1, 2]]})

    def test_valid_documents_build_the_same_config(self):
        for doc in [
            {"family": "poisson"},
            {"family": "poisson", "tau": 0.8, "r": [0, 0.3], "T": 50, "replications": 8},
            {"family": "binomial", "mu": 2, "n": 10, "tau": [1, 0.6], "T": [100, 50]},
        ]:
            assert grid_config_from_dict(doc) == GridConfig(**doc)


class TestEmitCurves:
    def test_complete_data_endpoint(self):
        rows = emit_curves("poisson-dispersion", rho=0.5, r_values=(0.0,), taus=[1.0])
        assert rows[0]["t_variance"] == pytest.approx(10.0 / 3.0)
        assert rows[0]["t_bias"] == pytest.approx(-3.0)

    def test_variance_monotone_in_tau(self):
        taus = np.linspace(0.25, 1.0, 76)
        for r in (0.0, 0.3, 0.6):
            rows = emit_curves("poisson-dispersion", r_values=(r,), taus=taus)
            var = [row["t_variance"] for row in rows]
            assert all(a >= b - 1e-15 for a, b in zip(var, var[1:]))

    def test_binomial_curves_compressed_poisson(self):
        taus = np.linspace(0.25, 1.0, 20)
        poi = emit_curves("poisson-dispersion", taus=taus)
        for n in (10, 25):
            bino = emit_curves("binomial-dispersion", taus=taus, n=n)
            for p, b in zip(poi, bino):
                assert b["t_variance"] == pytest.approx(
                    (1 - 1 / n) * p["t_variance"], rel=1e-12
                )

    def test_tau_range_enforced(self):
        with pytest.raises(ParameterError):
            emit_curves("poisson-dispersion", taus=[0.1])

    def test_binomial_requires_n(self):
        with pytest.raises(ParameterError):
            emit_curves("binomial-skewness")

    def test_taus_must_be_one_dimensional(self):
        with pytest.raises(ParameterError, match=r"^taus must be one-dimensional, got shape \(1, 2\)$"):
            emit_curves("poisson-dispersion", taus=[[0.5, 0.6]])

    @pytest.mark.parametrize("taus, again", [
        ([0.5, 0.5], "0.5"), ([1.0, 0.5, 0.75, 1.0, 0.5], "1.0"), (np.linspace(0.5, 0.5, 3), "0.5"),
    ])
    def test_tau_listed_twice_is_error(self, taus, again):
        with pytest.raises(ParameterError, match=f"^tau must list each value once, got {again} again$"):
            emit_curves("poisson-dispersion", taus=taus, r_values=(0.0,))

    @pytest.mark.parametrize("r, shown", [("x", "'x'"), (True, "True")])
    def test_r_must_be_a_real_number(self, r, shown):
        with pytest.raises(ParameterError, match=f"^r must be a finite real number, got {shown}$"):
            emit_curves("poisson-dispersion", r_values=[0.3, r], taus=[1.0])

    def test_mu_and_r_print_by_their_float_value(self):
        (row,) = emit_curves("poisson-dispersion", mu=3, r_values=(0,), taus=[1.0])
        assert repr(row["mu"]) == "3.0" and repr(row["r"]) == "0.0"
        assert row == emit_curves("poisson-dispersion", mu=3.0, r_values=(0.0,), taus=[1.0])[0]


class TestSeriesCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("2\n3\nNA\n1\n")
        s = load_series_csv(p)
        assert list(s.values) == [2, 3, 0, 1]
        assert list(s.mask) == [1, 1, 0, 1]

    def test_header_tolerated(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x\n2\n3\n")
        assert load_series_csv(p).T == 2

    def test_index_column_ignored(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x\n1,2\n2,NA\n3,4\n")
        s = load_series_csv(p)
        assert list(s.values) == [2, 0, 4]
        assert list(s.mask) == [1, 0, 1]

    def test_empty_field_masked(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("2\n\n1\n")
        assert list(load_series_csv(p).mask) == [1, 0, 1]

    def test_negative_value_errors_with_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("2\n-1\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_series_csv(p)

    def test_non_integer_errors(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("2\n2.5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_series_csv(p)

    def test_quoted_first_value_is_data(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text('"3"\n"NA"\n4\n')
        s = load_series_csv(p)
        assert list(s.values) == [3, 0, 4]
        assert list(s.mask) == [1, 0, 1]

    def test_quoted_header_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text('"t","x"\n1,"2"\n2,3\n')
        assert list(load_series_csv(p).values) == [2, 3]

    @pytest.mark.parametrize("field", ["100000000000000000000", "9223372036854775808", "1e20"])
    def test_count_above_int64_errors_with_row(self, tmp_path, field):
        p = tmp_path / "s.csv"
        p.write_text(f"x\n3\nNA\n{field}\n4\n")
        with pytest.raises(CsvFormatError, match=r"^row 4: count \d+ exceeds 2\*\*63 - 1$"):
            load_series_csv(p)

    def test_largest_int64_count_accepted(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(f"3\n{2**63 - 1}\n")
        assert list(load_series_csv(p).values) == [3, 2**63 - 1]

    @pytest.mark.parametrize("text, values", [("3\n4\n5\n6\n", [3, 4, 5, 6]), ("x\n4\n5\n", [4, 5])])
    def test_byte_order_mark_skipped(self, tmp_path, text, values):
        p = tmp_path / "s.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert list(load_series_csv(p).values) == values

    def test_integral_float_accepted(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("2.0\n3\n")
        assert list(load_series_csv(p).values) == [2, 3]

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes("x\n2\n".encode("utf-16"))
        with pytest.raises(CsvFormatError, match="not UTF-8") as err:
            load_series_csv(p)
        assert str(p) in str(err.value)

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x\n")
        with pytest.raises(CsvFormatError, match=f"^{re.escape(str(p))}: no data rows$"):
            load_series_csv(p)

    def test_non_number_names_its_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\nabc\n2\n")
        with pytest.raises(CsvFormatError, match=r"^row 2: 'abc' is not a count$"):
            load_series_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_series_csv(p)

    @pytest.mark.parametrize("row", [1, 3])
    def test_field_above_the_csv_limit_names_path_and_row(self, tmp_path, row):
        lines = ["x", "3", "4", "5"]
        lines[row - 1] = ("h" if row == 1 else "7") * 200_000
        p = tmp_path / "wide.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError) as err:
            load_series_csv(p)
        assert str(err.value) == f"{p}: row {row}: field larger than field limit (131072)"

    def test_write_read_round_trip(self, tmp_path):
        from countdiag import CountSeries

        s = CountSeries([4, 1, 9, 2], [1, 0, 1, 1])
        p = tmp_path / "rt.csv"
        write_series_csv(s, p)
        back = load_series_csv(p)
        assert np.array_equal(back.mask, s.mask)
        assert np.array_equal(back.observed_values(), s.observed_values())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**12), st.integers(0, 1)), min_size=1, max_size=60
        )
    )
    def test_write_read_round_trip_property(self, rows):
        from countdiag import CountSeries
        from countdiag.series import MASK_SENTINEL

        values, mask = (np.array(a, dtype=np.int64) for a in zip(*rows))
        s = CountSeries(values, mask)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "rt.csv"
            write_series_csv(s, p)
            back = load_series_csv(p)
        assert np.array_equal(back.mask, s.mask)
        assert np.array_equal(back.values, np.where(mask == 1, values, MASK_SENTINEL))

    @staticmethod
    def _both_paths(data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "s.csv"
            p.write_bytes(data)
            return _read_plain_counts(p), _read_csv_rows(p)

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.integers(0, 10**18 - 1).flatmap(
                    lambda v: st.integers(len(str(v)), 18).map(str(v).zfill)  # leading zeros
                ),
                st.sampled_from(["NA", ""]),
            ),
            min_size=1,
            max_size=40,
        ),
        header=st.sampled_from([None, "x", "count", "Zählung", "t,x", "value "]),
        eol=st.sampled_from(["\n", "\r\n"]),
        final_eol=st.booleans(),
        bom=st.booleans(),
    )
    def test_plain_path_equals_csv_reader(self, lines, header, eol, final_eol, bom):
        text = eol.join(([header] if header is not None else []) + lines)
        if final_eol or lines[-1] == "":  # an empty last line needs its end to be a row
            text += eol
        data = (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")
        plain, rows = self._both_paths(data)
        assert plain is not None
        assert plain.T == rows.T == len(lines)
        assert plain.values.dtype == rows.values.dtype and plain.mask.dtype == rows.mask.dtype
        assert np.array_equal(plain.values, rows.values)
        assert np.array_equal(plain.mask, rows.mask)

    @pytest.mark.parametrize(
        "text",
        [
            '"3"\n4\n',  # quotes
            "t,x\n1,2\n",  # an index column
            "2\n-1\n",  # a sign
            "2\n 3\n",  # a space
            "2\r3\n",  # a lone CR
            "2.0\n3\n",
            "1e2\n3\n",
            "1_000\n3\n",
            "2\n٣\n",  # a non-ASCII digit
            "NA \n3\n",
            "2\nNa\n",
            "2\nnA\n",
            "2\n1234567890123456789\n",  # 19 digits
            "x\n",  # no data rows
            "",
        ],
    )
    def test_other_layouts_take_the_csv_reader(self, tmp_path, text):
        p = tmp_path / "s.csv"
        p.write_text(text, encoding="utf-8")
        assert _read_plain_counts(p) is None

    def test_largest_int64_count_read_by_the_csv_reader(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(f"x\n3\n{2**63 - 1}\n")
        assert _read_plain_counts(p) is None
        series = load_series_csv(p)
        assert list(series.values) == [3, 2**63 - 1] and list(series.mask) == [1, 1]

    def test_count_of_2_to_63_fails_in_the_csv_reader(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(f"x\n3\n{2**63}\n")
        assert _read_plain_counts(p) is None
        with pytest.raises(CsvFormatError, match=r"^row 3: count 9223372036854775808 exceeds 2\*\*63 - 1$"):
            load_series_csv(p)
