import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import countdiag
from countdiag import GridConfig, ParameterError, grid_config_from_dict, load_series_csv
from countdiag.cli import _cmd_simulate, build_parser, main
from countdiag.harness import emit_curves, write_curves_csv

#: Unwritable output paths under a temporary directory holding the file
#: ``file``, with the reason each gives.
UNWRITABLE_OUTS = [
    ("absent/out.csv", "No such file or directory"),
    (".", "Is a directory"),
    ("absent/", "Is a directory"),
    ("file/out.csv", "Not a directory"),
]


def _refuse(*args, **kwargs):
    raise AssertionError("the work ran before the output path was checked")


#: A small valid ``mc`` config document.
VALID_CONFIG = {"family": "poisson", "tau": [0.8], "r": [0.0], "T": [50],
                "replications": 8, "master_seed": 1}
#: Overrides of VALID_CONFIG that make it malformed, with the error each gives.
MALFORMED_CONFIGS = [
    ({"replications": "100"}, "replications must be an integer >= 1, got '100'"),
    ({"replications": 2.5}, "replications must be an integer >= 1, got 2.5"),
    ({"replications": True}, "replications must be an integer >= 1, got True"),
    ({"replications": 0}, "replications must be an integer >= 1, got 0"),
    ({"T": [100.5]}, "T must be an integer >= 1, got 100.5"),
    ({"T": []}, "T must list at least one value"),
    ({"tau": []}, "tau must list at least one value"),
    ({"r": []}, "r must list at least one value"),
    ({"master_seed": -1}, "master_seed must be an integer >= 0, got -1"),
    ({"master_seed": 1.5}, "master_seed must be an integer >= 0, got 1.5"),
    ({"mu": "3"}, "mu must be a finite real number, got '3'"),
    ({"rho": None}, "rho must be a finite real number, got None"),
    ({"tau": ["0.8"]}, "tau must be a finite real number, got '0.8'"),
    ({"r": [True]}, "r must be a finite real number, got True"),
    ({"family": "binomial", "n": []}, "n must list at least one value"),
    ({"family": "binomial", "n": [10.5]}, "n must be an integer >= 2, got 10.5"),
    ({"family": "binomial", "n": [False]}, "n must be an integer >= 2, got False"),
    ({"family": "binomial", "rho": -0.2}, "rho must lie in [0, 1), got -0.2"),
    ({"rho": 1.0}, "rho must lie in [0, 1), got 1.0"),
    ({"tau": [0.8, 0.8]}, "tau must list each value once, got 0.8 again"),
    ({"r": [0, 0.0]}, "r must list each value once, got 0.0 again"),
    ({"family": "binomial", "n": [10, 25, 10]}, "n must list each value once, got 10 again"),
    ({"family": "poisson", "n": [1, "x"]}, "'n' is only valid for the binomial family"),
]


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

    def test_out_in_missing_directory_is_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "series.csv"
        rc = main(["simulate", "--model", "poisson", "-T", "10", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )

    @pytest.mark.parametrize("model", [[], ["--model", "binomial", "--n", "8", "--pi", "0.4"]])
    @pytest.mark.parametrize("name, reason", UNWRITABLE_OUTS)
    def test_unwritable_out_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, model, name, reason
    ):
        # no kernel may run before the path is checked, however long the series
        for kernel in ("simulate_poi_inar1", "simulate_bar1", "simulate_markov_mask"):
            monkeypatch.setattr(countdiag.cli, kernel, _refuse)
        (tmp_path / "file").write_text("")
        out = os.path.join(tmp_path, name)
        argv = ["simulate", "--model", "poisson", *model, "--tau", "0.8", "-T", "2000000",
                "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tau", "1.5"], "tau must lie in (0, 1], got 1.5"),
            (["--r", "-0.5"], "r must lie in [0, 1), got -0.5"),
            (["--n", "5", "--pi", "0.3"], "--n is only valid for the binomial model"),
            (["--pi", "0.3"], "--pi is only valid for the binomial model"),
            (["--mu", "inf"], "mu must be a finite real number, got inf"),
            (
                ["--model", "binomial", "--n", "10", "--pi", "0.3", "--mu", "7"],
                "--mu is only valid for the poisson model",
            ),
            (
                ["--model", "binomial", "--n", "10", "--pi", "0.056153288322080525",
                 "--rho", "-0.05949407634450964"],
                "rho=-0.05949407634450964 rounds the thinning probabilities alpha=-6.93889e-18 "
                "and beta=0.0594941 out of [0, 1] for pi=0.056153288322080525",
            ),
        ],
    )
    def test_flag_out_of_range_or_not_applicable_is_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "series.csv"
        rc = main(["simulate", "--model", "poisson", "-T", "10", *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", [[], ["--model", "binomial", "--n", "8", "--pi", "0.4"]])
    def test_fully_observed_law_draws_no_mask(self, tmp_path, model):
        # tau = 1 gives an all-ones mask whatever r is, so the file is the unmasked one
        args = ["simulate", "--model", "poisson", *model, "-T", "200", "--seed", "3"]
        plain, with_r = tmp_path / "plain.csv", tmp_path / "r.csv"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--tau", "1", "--r", "0.5", "--out", str(with_r)]) == 0
        assert plain.read_bytes() == with_r.read_bytes()

    def test_binomial_requires_params(self, tmp_path):
        rc = main([
            "simulate", "--model", "binomial", "-T", "10",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, absent",
        [(["--n", "8"], "--pi"), (["--pi", "0.3"], "--n"), ([], "--n and --pi")],
    )
    def test_binomial_names_each_missing_flag(self, tmp_path, capsys, flags, absent):
        out = tmp_path / "series.csv"
        argv = ["simulate", "--model", "binomial", *flags, "-T", "10", "--out", str(out)]
        with pytest.raises(ParameterError, match=f"^binomial model requires {absent}$"):
            _cmd_simulate(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: binomial model requires {absent}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("name, reason", UNWRITABLE_OUTS)
    def test_unwritable_json_fails_before_diagnosing(
        self, series_file, tmp_path, capsys, monkeypatch, name, reason
    ):
        monkeypatch.setattr(countdiag.cli, "test_indices", _refuse)
        (tmp_path / "file").write_text("")
        payload = os.path.join(tmp_path, name)
        argv = ["diagnose", "--input", str(series_file), "--null", "poisson", "--json", payload]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {payload}: {reason}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "series.csv"]

    def test_json_counts_observed_positions(self, series_file, tmp_path):
        payload = tmp_path / "report.json"
        rc = main([
            "diagnose", "--input", str(series_file), "--null", "binomial",
            "--n", "10", "--json", str(payload),
        ])
        assert rc == 0
        n_observed = load_series_csv(series_file).n_observed
        assert n_observed < 500
        assert [r["n_observed"] for r in json.loads(payload.read_text())] == [n_observed] * 2

    def test_tau_below_the_floor_names_it(self, tmp_path, capsys):
        series = tmp_path / "sparse.csv"
        series.write_text("x\n2\n3\n4\n5\n6\n" + "NA\n" * 995)  # 5 of 1000 observed
        rc = main(["diagnose", "--input", str(series), "--null", "poisson"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: tau must be at least 0.01 for the asymptotics, got 0.005\n"
        )

    def test_no_lag1_pair_is_error(self, tmp_path, capsys):
        series = tmp_path / "alternate.csv"
        series.write_text("x\n" + "3\nNA\n5\nNA\n2\nNA\n4\nNA\n1\n")
        rc = main(["diagnose", "--input", str(series), "--null", "poisson"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: rho cannot be estimated: no two adjacent positions are both "
            "observed (no lag-1 pair)\n"
        )

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

    @pytest.mark.parametrize("flags", [[], ["--ignore-missing"]])
    def test_unobserved_series_is_error(self, tmp_path, capsys, flags):
        series = tmp_path / "na.csv"
        series.write_text("x\nNA\nNA\nNA\n")
        rc = main(["diagnose", "--input", str(series), "--null", "poisson", *flags])
        assert rc == 2
        assert capsys.readouterr().err == "error: series has no observed positions\n"

    def test_missing_n_is_error(self, series_file, capsys):
        rc = main(["diagnose", "--input", str(series_file), "--null", "binomial"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_error(self, tmp_path, capsys):
        series = tmp_path / "missing.csv"
        rc = main(["diagnose", "--input", str(series), "--null", "poisson"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {series}: No such file or directory\n"
        )

    def test_non_utf8_input_is_error(self, tmp_path, capsys):
        series = tmp_path / "utf16.csv"
        series.write_bytes("x\n3\n4\n".encode("utf-16"))
        rc = main(["diagnose", "--input", str(series), "--null", "poisson"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(series) in err

    def test_header_above_the_csv_field_limit_is_error(self, tmp_path, capsys):
        series = tmp_path / "wide.csv"
        series.write_text("h" * 200_000 + "\n3\n4\n5\n")
        rc = main(["diagnose", "--input", str(series), "--null", "poisson"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: {series}: row 1: field larger than field limit (131072)\n"
        )

    def test_n_for_poisson_null_is_error(self, series_file, tmp_path, capsys):
        payload = tmp_path / "report.json"
        rc = main([
            "diagnose", "--input", str(series_file), "--null", "poisson", "--n", "10",
            "--json", str(payload),
        ])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: 'n' is only valid for the binomial family\n")
        assert not payload.exists()

    def test_count_above_int64_is_error(self, tmp_path, capsys):
        series = tmp_path / "huge.csv"
        series.write_text("x\n3\n100000000000000000000\n4\n")
        rc = main(["diagnose", "--input", str(series), "--null", "poisson"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: row 3: count 100000000000000000000 exceeds 2**63 - 1\n"
        )

    def test_byte_order_mark_is_not_a_header(self, tmp_path, capsys):
        series = tmp_path / "bom.csv"
        series.write_bytes(b"\xef\xbb\xbf3\n4\n5\n6\n")
        with pytest.warns(UserWarning, match="nearly vacuous"):
            rc = main(["diagnose", "--input", str(series), "--null", "poisson", "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        reports = json.loads(out[out.index("\n[") :])
        assert [r["fitted"]["T"] for r in reports] == [4, 4]

    def test_warning_is_one_line_on_stderr(self, tmp_path):
        series = tmp_path / "four.csv"
        series.write_text("x\n3\n4\n5\n6\n")
        src = str(Path(countdiag.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        done = subprocess.run(
            [sys.executable, "-m", "countdiag.cli", "diagnose", "--input", str(series),
             "--null", "poisson"],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0
        assert done.stderr == (
            "warning: fitted rho = 0.2500 gives the critical range [-0.8921, 2.0587], "
            "below 0 where no index can fall: nearly vacuous test\n"
        )

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

    def test_missing_config_is_error(self, tmp_path, capsys):
        config = tmp_path / "missing.json"
        out = tmp_path / "grid.csv"
        rc = main(["mc", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {config}: No such file or directory\n"
        )
        assert not out.exists()

    def test_invalid_json_config_is_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"family": ')
        out = tmp_path / "grid.csv"
        rc = main(["mc", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}: not valid JSON "
            "(Expecting value: line 1 column 12 (char 11))\n"
        )
        assert not out.exists()

    def test_config_not_an_object_is_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        out = tmp_path / "grid.csv"
        rc = main(["mc", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: config must be a JSON object, got list\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_error(self, tmp_path, capsys, workers):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "poisson", "T": [20], "replications": 4}))
        out = tmp_path / "grid.csv"
        rc = main(["mc", "--config", str(config), "--out", str(out), "--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: workers must be an integer >= 1, got {workers}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name, reason", UNWRITABLE_OUTS)
    def test_unwritable_out_fails_before_the_grid(
        self, tmp_path, capsys, monkeypatch, name, reason
    ):
        monkeypatch.setattr(countdiag.cli, "run_grid", _refuse)
        (tmp_path / "file").write_text("")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(VALID_CONFIG))
        out = os.path.join(tmp_path, name)
        assert main(["mc", "--config", str(config), "--out", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]

    def test_config_with_byte_order_mark(self, tmp_path):
        config = tmp_path / "config.json"
        doc = {"family": "poisson", "tau": 0.8, "T": 20, "replications": 4}
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode("utf-8"))
        out = tmp_path / "grid.csv"
        assert main(["mc", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 r values

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "poisson", "bogus": 1}))
        rc = main(["mc", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", MALFORMED_CONFIGS)
    def test_malformed_config_is_error(self, tmp_path, capsys, override, message):
        doc = {**VALID_CONFIG, **override}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "grid.csv"
        rc = main(["mc", "--config", str(config), "--out", str(out), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("override, message", MALFORMED_CONFIGS)
    def test_malformed_config_is_the_same_error_in_python(self, override, message):
        # a config document and GridConfig's keyword arguments take one axis rule
        doc = {**VALID_CONFIG, **override}
        for build in (grid_config_from_dict, lambda doc: GridConfig(**doc)):
            with pytest.raises(ParameterError) as err:
                build(doc)
            assert str(err.value) == message


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

    @pytest.mark.parametrize("index, flags", [
        ("poisson-skewness", []), ("binomial-dispersion", ["--n", "10"]),
    ])
    def test_defaults_are_the_default_curve_grid(self, tmp_path, index, flags):
        out, want = tmp_path / "curves.csv", tmp_path / "want.csv"
        assert main(["curves", "--index", index, *flags, "--out", str(out)]) == 0
        write_curves_csv(emit_curves(index, n=10 if flags else None), want)
        assert out.read_bytes() == want.read_bytes()
        assert len(out.read_text().splitlines()) == 1 + 3 * 76

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

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--points", "-1"], "--points must be >= 1, got -1"),
            (["--points", "0"], "--points must be >= 1, got 0"),
            (["--r", "abc"], "--r value 'abc' is not a number"),
            (["--r", "0.3, x"], "--r value 'x' is not a number"),
            (["--r", ","], "--r must list at least one value, got ','"),
            (["--mu", "inf"], "mu must be a finite real number, got inf"),
        ],
    )
    def test_bad_input_is_typed_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "curves.csv"
        rc = main(["curves", "--index", "poisson-dispersion", *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_r_prints_by_its_float_value(self, tmp_path):
        out, want = tmp_path / "curves.csv", tmp_path / "want.csv"
        flags = ["--index", "poisson-dispersion", "--points", "2", "--tau-min", "0.5"]
        assert main(["curves", *flags, "--r=-0.0,0.3", "--out", str(out)]) == 0
        assert main(["curves", *flags, "--r=0,0.3", "--out", str(want)]) == 0
        assert out.read_bytes() == want.read_bytes()
        assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == [
            "0.0", "0.0", "0.3", "0.3"
        ]

    @pytest.mark.parametrize(
        "r, again",
        [("-0.0,0", "0.0"), ("0,-0.0", "-0.0"), ("0.3,0.6,0.30", "0.3"), ("0.6,0.6", "0.6")],
    )
    def test_r_listed_twice_is_error(self, tmp_path, capsys, r, again):
        out = tmp_path / "curves.csv"
        rc = main(["curves", "--index", "poisson-dispersion", f"--r={r}", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: r must list each value once, got {again} again\n"
        assert not out.exists()

    def test_tau_listed_twice_is_error(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        rc = main(["curves", "--index", "poisson-dispersion", "--tau-min", "0.5",
                   "--tau-max", "0.5", "--points", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: tau must list each value once, got 0.5 again\n"
        assert not out.exists()

    @pytest.mark.parametrize("index", ["binomial-dispersion", "binomial-skewness"])
    def test_mean_at_or_above_n_is_error(self, tmp_path, capsys, index):
        out = tmp_path / "curves.csv"
        rc = main(["curves", "--index", index, "--n", "2", "--mu", "3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: mu=3.0 incompatible with n=2\n"
        assert not out.exists()

    @pytest.mark.parametrize("index", ["poisson-dispersion", "poisson-skewness"])
    def test_n_for_poisson_index_is_error(self, tmp_path, capsys, index):
        out = tmp_path / "curves.csv"
        rc = main(["curves", "--index", index, "--n", "10", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: 'n' is only valid for the binomial family\n"
        assert not out.exists()


def _source_env() -> dict:
    """The environment of a child Python that imports countdiag from this tree."""
    src = str(Path(countdiag.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


class TestRuntimeDependencies:
    def test_simulate_and_diagnose_load_no_scipy(self, tmp_path):
        series = tmp_path / "series.csv"
        script = (
            "import sys\n"
            "from countdiag import cli\n"
            f"series = {str(series)!r}\n"
            "assert cli.main(['simulate', '--model', 'binomial', '--n', '8', '--pi', '0.55',\n"
            "                 '--rho', '0.8', '--tau', '0.89', '--r', '0.85', '-T', '300',\n"
            "                 '--seed', '7', '--out', series]) == 0\n"
            "assert cli.main(['diagnose', '--input', series, '--null', 'binomial',\n"
            "                 '--n', '8', '--json', '-']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_source_env()
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_runtime_checks_pass(self):
        """The checks that CI runs on the installed runtime (no test extra, and
        the numpy floor) pass on this tree, through ``python -m countdiag.cli``."""
        script = Path(__file__).with_name("runtime_checks.py")
        done = subprocess.run(
            [sys.executable, str(script), sys.executable, "-m", "countdiag.cli"],
            capture_output=True, text=True, env=_source_env(),
        )
        assert done.returncode == 0, done.stderr
