import json

import pytest

from countdiag import load_series_csv
from countdiag.cli import main


class TestSimulateCommand:
    def test_poisson_series_written(self, tmp_path):
        out = tmp_path / "series.csv"
        rc = main([
            "simulate", "--model", "poisson", "--mu", "3", "--rho", "0.5",
            "--tau", "0.8", "--r", "0.6", "-T", "400", "--seed", "9",
            "--out", str(out),
        ])
        assert rc == 0
        series = load_series_csv(out)
        assert series.T == 400
        assert 0 < series.n_observed < 400

    def test_binomial_series_bounded(self, tmp_path):
        out = tmp_path / "series.csv"
        rc = main([
            "simulate", "--model", "binomial", "--n", "10", "--pi", "0.3",
            "--rho", "0.5", "-T", "300", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        series = load_series_csv(out)
        assert series.values.max() <= 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--model", "poisson", "-T", "100", "--seed", "5"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_binomial_requires_params(self, tmp_path):
        rc = main([
            "simulate", "--model", "binomial", "-T", "10",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


class TestDiagnoseCommand:
    @pytest.fixture
    def series_file(self, tmp_path):
        out = tmp_path / "series.csv"
        main([
            "simulate", "--model", "binomial", "--n", "10", "--pi", "0.3",
            "--rho", "0.5", "--tau", "0.85", "--r", "0.3", "-T", "500",
            "--seed", "13", "--out", str(out),
        ])
        return out

    def test_human_readable_output(self, series_file, capsys):
        rc = main([
            "diagnose", "--input", str(series_file), "--null", "binomial",
            "--n", "10",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "binomial-dispersion test" in text
        assert "binomial-skewness test" in text
        assert "decision" in text

    def test_json_output(self, series_file, tmp_path, capsys):
        payload = tmp_path / "report.json"
        rc = main([
            "diagnose", "--input", str(series_file), "--null", "binomial",
            "--n", "10", "--alpha", "0.05", "--json", str(payload),
        ])
        assert rc == 0
        reports = json.loads(payload.read_text())
        assert len(reports) == 2
        kinds = {r["kind"] for r in reports}
        assert kinds == {"binomial-dispersion", "binomial-skewness"}
        for r in reports:
            assert r["lower_critical"] <= r["upper_critical"]
            assert r["decision"] in ("reject", "retain")

    def test_ignore_missing_flag(self, series_file, tmp_path):
        payload = tmp_path / "report.json"
        rc = main([
            "diagnose", "--input", str(series_file), "--null", "binomial",
            "--n", "10", "--ignore-missing", "--index", "dispersion",
            "--json", str(payload),
        ])
        assert rc == 0
        (report,) = json.loads(payload.read_text())
        assert report["fitted"]["tau"] == 1.0
        assert report["fitted"]["T"] == load_series_csv(series_file).n_observed

    def test_missing_n_is_error(self, series_file, capsys):
        rc = main(["diagnose", "--input", str(series_file), "--null", "binomial"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_counts_above_n_is_error(self, tmp_path, capsys):
        series = tmp_path / "above.csv"
        series.write_text("x\n3\n9\n5\n12\n4\n")
        rc = main(["diagnose", "--input", str(series), "--null", "binomial", "--n", "8"])
        assert rc == 2
        assert "count 9 at position 1" in capsys.readouterr().err


class TestMcCommand:
    def test_small_grid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "family": "poisson", "tau": [0.8], "r": [0.0, 0.6], "T": [100],
            "replications": 200, "master_seed": 2,
        }))
        out = tmp_path / "grid.csv"
        rc = main(["mc", "--config", str(config), "--out", str(out), "--quiet"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 scenarios
        assert "disp_sim_mean" in lines[0]

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "poisson", "bogus": 1}))
        rc = main(["mc", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err


class TestCurvesCommand:
    def test_curves_written(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main([
            "curves", "--index", "binomial-skewness", "--n", "10",
            "--points", "20", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,tau,r,mu,n,t_variance,t_bias"
        assert len(lines) == 1 + 3 * 20  # three r values by default

    def test_poisson_dispersion_endpoint(self, tmp_path):
        out = tmp_path / "curves.csv"
        main([
            "curves", "--index", "poisson-dispersion", "--r", "0",
            "--tau-min", "1.0", "--tau-max", "1.0", "--points", "1",
            "--out", str(out),
        ])
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(10.0 / 3.0)
        assert float(row[6]) == pytest.approx(-3.0)
