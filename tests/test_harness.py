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
from countdiag.harness import _read_csv_rows, _read_plain_counts, format_grid_table, result_rows
from countdiag import poi_dispersion_asym_markov, skew_asym_binomial_markov


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

    def test_key_distinguishes_cells(self):
        a, b = small_scenario(), small_scenario(T=250)
        assert a.key() != b.key()
        assert a.key() == small_scenario().key()

    def test_asymptotics_dispatch(self):
        s = small_scenario()
        direct = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 100)
        assert scenario_asymptotics(s, "poisson-dispersion").variance == direct.variance
        bar = small_scenario(model=Bar1(10, 0.3, 0.5))
        direct = skew_asym_binomial_markov(10, 0.3, 0.5, 0.8, 0.6, 100)
        assert scenario_asymptotics(bar, "binomial-skewness").bias == direct.bias


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
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            run_scenario(small_scenario(), workers=workers)

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
        axes = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        assert grid_config_from_dict(doc) == GridConfig(**axes)

    def test_n_rejected_for_poisson(self):
        with pytest.raises(ParameterError):
            grid_config_from_dict({"family": "poisson", "n": [10]})

    def test_family_required(self):
        with pytest.raises(ParameterError):
            grid_config_from_dict({})


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
