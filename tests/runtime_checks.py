"""Checks of the installed countdiag runtime, with numpy as its only dependency.

Usage::

    python tests/runtime_checks.py COUNTDIAG...

where ``COUNTDIAG...`` is the command that runs the command line, such as
``"$venv/bin/countdiag"`` or ``python -m countdiag.cli``.  The library checks
import countdiag into the interpreter that runs this script, so run it with
the Python of the environment under test.  CI runs it in a venv without the
test extra (no scipy) and again on the numpy floor; the tier-1 suite runs it
from the source tree.  New runtime checks go here, not into the workflow.

The script imports only the standard library and countdiag, writes only into
its own temporary directory, and exits non-zero at the first failed check.
"""

import csv
import itertools
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from countdiag import (
    CountSeries, GridConfig, MissingSpec, ParameterError, PoiInar1, Seed, emit_curves, run_grid,
    sample_factorial_moments, simulate_markov_mask, simulate_poi_inar1,
)
from countdiag.moments import Tally


def cli_checks(countdiag: list, tmp: Path) -> None:
    def run(*args, code=0, absent=None) -> subprocess.CompletedProcess:
        """Run countdiag with ``args``; it must exit with ``code``, and the
        path ``absent`` must not exist afterwards."""
        done = subprocess.run([*countdiag, *map(str, args)], capture_output=True)
        assert done.returncode == code, (args, done.returncode, done.stderr.decode())
        assert absent is None or not absent.exists(), (args, absent)
        return done

    def read(name: str) -> bytes:
        return (tmp / name).read_bytes()

    def lines(name: str) -> int:
        """``wc -l``: the number of newlines in a file."""
        return read(name).count(b"\n")

    def write(name: str, data: bytes) -> Path:
        (tmp / name).write_bytes(data)
        return tmp / name

    series = tmp / "series.csv"
    run("simulate", "--model", "binomial", "--n", "8", "--pi", "0.55", "--rho", "0.8",
        "--tau", "0.89", "--r", "0.85", "-T", "744", "--seed", "7", "--out", series)
    run("diagnose", "--input", series, "--null", "binomial", "--n", "8", "--json", "-")
    grid = write("grid.json", b'{"family": "poisson", "tau": 0.8, "r": 0.3, "T": [50, 100], '
                              b'"replications": 64}')
    run("mc", "--config", grid, "--out", tmp / "grid.csv")
    assert lines("grid.csv") == 3

    # an axis value listed twice
    repeat = write("repeat.json",
                   b'{"family": "poisson", "tau": [0.8, 0.8], "T": 50, "replications": 8}')
    no_grid = tmp / "no-grid.csv"
    run("mc", "--config", repeat, "--out", no_grid, code=2, absent=no_grid)

    # an output path in a missing directory: exit 2, the path named, nothing written
    missing = tmp / "missing" / "grid.csv"
    err = run("mc", "--config", grid, "--out", missing, code=2, absent=missing.parent).stderr
    assert f"error: cannot write {missing}: No such file or directory".encode() in err.split(
        b"\n"), err
    # diagnose checks its --json path before it diagnoses: nothing printed
    done = run("diagnose", "--input", series, "--null", "binomial", "--n", "8",
               "--json", missing, code=2, absent=missing.parent)
    assert done.stdout == b"", done.stdout

    # a cell whose every replication is degenerate is an ordinary row
    degenerate = write("degenerate.json", b'{"family": "poisson", "mu": 1e-06, "tau": 1.0, '
                                          b'"r": 0.0, "T": 2, "replications": 4}')
    run("mc", "--config", degenerate, "--out", tmp / "degenerate.csv", "--quiet")
    with open(tmp / "degenerate.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    assert (row["disp_failures"], row["skew_failures"], row["error"]) == ("4", "4", ""), row

    # equal values key one stream and print one way
    for r in ("0", "0.0", "-0.0"):
        config = write(f"r{r}.json", b'{"family": "poisson", "tau": 0.8, "r": %s, "T": 50, '
                                     b'"replications": 64}' % r.encode())
        out = run("mc", "--config", config, "--out", tmp / f"r{r}.csv").stdout
        pattern = f"r{r}.csv".encode()  # as sed reads it: '.' is any byte
        write(f"r{r}.txt", b"\n".join(
            re.sub(pattern, b"r.csv", line, count=1) for line in out.split(b"\n")
        ))
    for r in ("0.0", "-0.0"):
        for suffix in ("csv", "txt"):
            assert read(f"r0.{suffix}") == read(f"r{r}.{suffix}"), (r, suffix)

    run("curves", "--index", "binomial-skewness", "--n", "10", "--out", tmp / "curves.csv")
    assert lines("curves.csv") == 229  # 76 taus x 3 r values + header

    no_curves = tmp / "no-curves.csv"
    for args in (
        ("--index", "poisson-dispersion", "--r=-0.0,0"),  # an r value twice, spelled two ways
        ("--index", "poisson-dispersion", "--points", "0"),
        ("--index", "poisson-skewness", "--mu", "inf"),
        # a tau twice: linspace(0.5, 0.5, 2)
        ("--index", "poisson-dispersion", "--tau-min", "0.5", "--tau-max", "0.5",
         "--points", "2"),
    ):
        run("curves", *args, "--out", no_curves, code=2, absent=no_curves)

    no_series = tmp / "no-series.csv"
    for args in (
        ("--model", "poisson", "--tau", "1.5", "-T", "10"),
        ("--model", "poisson", "--mu", "inf", "-T", "10"),
        # rho one ulp inside its bound rounds alpha below 0
        ("--model", "binomial", "--n", "10", "--pi", "0.056153288322080525",
         "--rho", "-0.05949407634450964", "-T", "50"),
    ):
        run("simulate", *args, "--out", no_series, code=2, absent=no_series)

    all_na = write("all-na.csv", b"x\nNA\nNA\nNA\n")
    run("diagnose", "--input", all_na, "--null", "poisson", "--ignore-missing", code=2)
    run("diagnose", "--input", series, "--null", "poisson", "--n", "8", code=2)
    bom = write("bom.csv", b"\xef\xbb\xbf3\n4\n5\n6\n")
    out = run("diagnose", "--input", bom, "--null", "poisson", "--json", "-").stdout
    assert b'"T": 4,' in out  # no header taken from the byte-order mark
    # a header above the csv module's field limit
    wide = write("wide.csv", b"h" * 200000 + b"\n3\n4\n5\n")
    run("diagnose", "--input", wide, "--null", "poisson", code=2)

    # a binomial grid prints mu as configured, though n * (mu / n) is not 0.1
    mu = write("mu.json", b'{"family": "binomial", "mu": 0.1, "n": [11, 19], "tau": 0.8, '
                          b'"r": 0.3, "T": 50, "replications": 64}')
    run("mc", "--config", mu, "--out", tmp / "mu.csv", "--quiet")
    with open(tmp / "mu.csv", "rb") as f:
        next(f)  # tail -n +2 | cut -d, -f3
        assert [line.rstrip(b"\n").split(b",")[2] for line in f] == [b"0.1", b"0.1"]

    # a binomial mean at or above n
    err = run("curves", "--index", "binomial-dispersion", "--n", "2", "--mu", "3",
              "--out", no_curves, code=2, absent=no_curves).stderr
    assert b"incompatible with n=2" in err, err
    # a binomial model without --pi
    err = run("simulate", "--model", "binomial", "--n", "8", "-T", "10",
              "--out", no_series, code=2, absent=no_series).stderr
    assert b"error: binomial model requires --pi" in err.split(b"\n"), err

    # the numpy byte path of the CSV reader, on a long series and on CRLF line ends
    long = tmp / "long.csv"
    run("simulate", "--model", "poisson", "-T", "100000", "--tau", "0.8", "--r", "0.6",
        "--seed", "3", "--out", long)
    out = run("diagnose", "--input", long, "--null", "poisson", "--json", "-").stdout
    assert b'"T": 100000,' in out
    crlf = write("crlf.csv", b"x\r\n3\r\nNA\r\n5\r\n4\r\n2\r\n")
    out = run("diagnose", "--input", crlf, "--null", "poisson", "--json", "-").stdout
    assert b'"T": 5,' in out

    # both routes of the path kernel: the exact step (a large mu has no
    # table) and the inversion table (the smallest n, and rho = 0)
    for name, args, T in (
        ("big-mu.csv", ("--model", "poisson", "--mu", "5000"), 200),
        ("n2.csv", ("--model", "binomial", "--n", "2", "--pi", "0.3", "--rho", "0.5"), 200),
        ("rho0.csv", ("--model", "poisson", "--rho", "0"), 20000),
    ):
        run("simulate", *args, "-T", T, "--seed", "3", "--out", tmp / name)
        assert lines(name) == T + 1, name

    # a series is the first T steps of the same seed's longer one, on the
    # table (mu = 3, n = 8), on large tables whose rows a single path
    # builds as it visits them (mu = 60, n = 400) and on the exact step
    # (mu = 5000 has no table)
    for model in (
        ("poisson",), ("binomial", "--n", "8", "--pi", "0.55"), ("poisson", "--mu", "5000"),
        ("poisson", "--mu", "60"), ("binomial", "--n", "400", "--pi", "0.3"),
    ):
        for T in (300, 20000):
            run("simulate", "--model", *model, "-T", T, "--seed", "11",
                "--out", tmp / f"prefix-{T}.csv")
        with open(tmp / "prefix-20000.csv", "rb") as f:  # head -n 301
            head = b"".join(itertools.islice(f, 301))
        assert head == read("prefix-300.csv"), model


def library_checks() -> None:
    # Python callers take the axis rule of a config document, and run
    # sizes and curve values the checks of every other parameter
    config = GridConfig("poisson", tau=0.8, r=0.3, T=50, replications=8)
    assert len(config.scenarios()) == 1
    hash(config)  # its axes are tuples
    mu = emit_curves("poisson-dispersion", mu=3, r_values=(0,), taus=[1.0])[0]["mu"]
    assert repr(mu) == "3.0", mu
    # one family-and-bound rule: a Poisson grid takes no n, and a binomial
    # one with n=None (no n given) takes the standard axis
    assert GridConfig("binomial", n=None, T=50, replications=8).n == (10, 25)
    for name, call in (
        ("chunk_size=1.5", lambda: run_grid(config, chunk_size=1.5)),
        ("a Poisson grid with n=10", lambda: GridConfig("poisson", n=10, T=50, replications=8)),
        ("taus=[[0.5, 0.6]]", lambda: emit_curves("poisson-dispersion", taus=[[0.5, 0.6]])),
    ):
        try:
            call()
        except ParameterError:
            pass
        else:
            raise AssertionError(f"{name} ran")

    # the packed mask latch (packbits/unpackbits bit order, uint64 wrap-around)
    # against a plain loop over the same uniforms, with carries across words
    T = 100000
    for tau, r in ((0.9, 0.999), (0.6, 0.3)):
        u = Seed(7).generator().random(T).tolist()
        p_gain, p_stay = tau * (1.0 - r), tau + (1.0 - tau) * r
        state = u[0] < tau
        want = [state]
        for x in u[1:]:
            state = x < p_gain or (state and x < p_stay)
            want.append(state)
        got = simulate_markov_mask(MissingSpec(tau, r), T, Seed(7))
        assert got.tolist() == [int(s) for s in want], (tau, r)

    # the tally's two layouts (bit planes read by popcount, the byte table
    # before numpy 2.0; histogram keys for counts spanning more than 64
    # values) against a plain loop of exact sums over a masked series
    values = simulate_poi_inar1(PoiInar1(3.0, 0.5), T, Seed(8)).values.tolist()
    mask = simulate_markov_mask(MissingSpec(0.8, 0.6), T, Seed(8, 1)).tolist()
    for far in (None, 1000):
        if far is not None:
            values[T // 3], mask[T // 3] = far, 1
        assert hasattr(Tally(values, [T]), "planes") == (far is None), far
        sums, seen = [0, 0, 0], 0
        for x, o in zip(values, mask):
            if o:
                seen += 1
                sums = [sums[0] + x, sums[1] + x * (x - 1), sums[2] + x * (x - 1) * (x - 2)]
        got = sample_factorial_moments(CountSeries(values, mask), 3).tolist()
        assert got == [s / seen for s in sums], (far, got)


def main(countdiag: list) -> int:
    if not countdiag:
        print("usage: python tests/runtime_checks.py COUNTDIAG...", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        cli_checks(countdiag, Path(tmp))
    library_checks()
    print("runtime checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
