"""Command line interface: simulate series, diagnose real data, run Monte
Carlo grids, and emit asymptotic curve tables."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from .errors import CountDiagError, ParameterError
from .series import Bar1, MissingSpec, PoiInar1, Seed
from .simulate import apply_mask, simulate_bar1, simulate_markov_mask, simulate_poi_inar1
from .diagnostics import INDEX_KINDS, NullSpec, TestReport, test_indices
from .harness import (
    DEFAULT_CHUNK,
    emit_curves,
    format_grid_table,
    grid_config_from_dict,
    load_series_csv,
    open_text,
    run_grid,
    write_curves_csv,
    write_grid_csv,
    write_series_csv,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="countdiag",
        description=(
            "Dispersion and skewness diagnostics for count time series "
            "with missing observations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a synthetic series to CSV")
    sim.add_argument("--model", choices=["poisson", "binomial"], required=True)
    sim.add_argument("--mu", type=float, help="mean (poisson model, default 3.0)")
    sim.add_argument("--rho", type=float, default=0.5, help="lag-1 autocorrelation")
    sim.add_argument("--n", type=int, help="upper bound (binomial model)")
    sim.add_argument("--pi", type=float, help="success probability (binomial model)")
    sim.add_argument("--tau", type=float, default=1.0, help="observation probability")
    sim.add_argument("--r", type=float, default=0.0, help="mask lag-1 autocorrelation")
    sim.add_argument("-T", "--length", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")

    diag = sub.add_parser("diagnose", help="test a series against a null model")
    diag.add_argument("--input", required=True, help="series CSV (NA = missing)")
    diag.add_argument("--null", choices=["poisson", "binomial"], required=True)
    diag.add_argument("--n", type=int, help="upper bound (binomial null)")
    diag.add_argument("--alpha", type=float, default=0.05)
    diag.add_argument("--ignore-missing", action="store_true",
                      help="drop masked points instead of modelling them")
    diag.add_argument("--index", choices=["dispersion", "skewness", "both"],
                      default="both")
    diag.add_argument("--sided", choices=["two", "upper", "lower"], default="two")
    diag.add_argument("--json", dest="json_out",
                      help="also write the reports as JSON ('-' for stdout)")

    mc = sub.add_parser("mc", help="run a Monte Carlo scenario grid")
    mc.add_argument("--config", required=True, help="grid config JSON")
    mc.add_argument("--out", required=True, help="output CSV path")
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK)
    mc.add_argument("--quiet", action="store_true", help="suppress the table printout")

    cur = sub.add_parser("curves", help="emit T-fold variance/bias curve tables")
    cur.add_argument("--index", required=True, choices=list(INDEX_KINDS))
    cur.add_argument("--rho", type=float, default=0.5)
    cur.add_argument("--r", default="0,0.3,0.6", help="comma separated r values")
    cur.add_argument("--tau-min", type=float, default=0.25)
    cur.add_argument("--tau-max", type=float, default=1.0)
    cur.add_argument("--points", type=int, default=76)
    cur.add_argument("--mu", type=float, default=3.0)
    cur.add_argument("--n", type=int)
    cur.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_simulate(args) -> int:
    seed = Seed(args.seed)
    missing = MissingSpec(args.tau, args.r)
    other, flags = ("binomial", ("n", "pi")) if args.model == "poisson" else ("poisson", ("mu",))
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ParameterError(f"--{flag} is only valid for the {other} model")
    if args.model == "poisson":
        mu = 3.0 if args.mu is None else args.mu
        series = simulate_poi_inar1(PoiInar1(mu, args.rho), args.length, seed)
    else:
        if args.n is None or args.pi is None:
            raise CountDiagError("binomial model requires --n and --pi")
        series = simulate_bar1(Bar1(args.n, args.pi, args.rho), args.length, seed)
    if missing.tau < 1.0:
        mask = simulate_markov_mask(missing, args.length, Seed(args.seed, 1))
        series = apply_mask(series, mask)
    write_series_csv(series, args.out)
    print(f"wrote {series.T} observations ({series.n_observed} observed) to {args.out}")
    return 0


def _render_report(report: TestReport) -> str:
    fitted = report.fitted
    lines = [
        f"{report.kind} test (alpha={report.alpha}, {report.sided}-sided)",
        f"  statistic        {report.statistic:.4f}",
        f"  null value       {report.null_value:.4f}",
        f"  bias             {report.bias:.4f}",
        f"  sd               {report.sd:.4f}",
        f"  critical range   [{report.lower_critical:.4f}, {report.upper_critical:.4f}]",
        f"  decision         {report.decision}",
        (
            f"  fitted           mu={fitted.mu:.4f} rho={fitted.rho:.4f} "
            f"tau={fitted.tau:.4f} r={fitted.r:.4f} T={fitted.T}"
            + (f" n={fitted.n}" if fitted.n is not None else "")
        ),
    ]
    return "\n".join(lines)


def _cmd_diagnose(args) -> int:
    series = load_series_csv(args.input)
    null = NullSpec(
        family=args.null,
        n=args.n,
        alpha=args.alpha,
        ignore_missing=args.ignore_missing,
    )
    kinds = ["dispersion", "skewness"] if args.index == "both" else [args.index]
    reports = test_indices(series, null, kinds, sided=args.sided)
    for report in reports:
        print(_render_report(report))
    if args.json_out:
        payload = json.dumps([r.to_dict() for r in reports], indent=2)
        if args.json_out == "-":
            print(payload)
        else:
            with open_text(args.json_out, "w") as f:
                f.write(payload + "\n")
    return 0


def _cmd_mc(args) -> int:
    with open_text(args.config, "r") as f:
        try:
            doc = json.load(f)
        except ValueError as err:
            raise ParameterError(f"{args.config}: not valid JSON ({err})") from None
    config = grid_config_from_dict(doc)
    results = run_grid(config, workers=args.workers, chunk_size=args.chunk_size)
    write_grid_csv(results, args.out)
    if not args.quiet:
        print(format_grid_table(results))
    print(f"wrote {len(results)} scenario rows to {args.out}")
    return 0


def _cmd_curves(args) -> int:
    if args.points < 1:
        raise ParameterError(f"--points must be >= 1, got {args.points}")
    r_values = []
    for tok in args.r.split(","):
        if tok.strip() == "":
            continue
        try:
            r_values.append(float(tok))
        except ValueError:
            raise ParameterError(f"--r value {tok.strip()!r} is not a number") from None
    if not r_values:
        raise ParameterError(f"--r must list at least one value, got {args.r!r}")
    taus = np.linspace(args.tau_min, args.tau_max, args.points)
    rows = emit_curves(
        args.index, rho=args.rho, r_values=r_values, taus=taus, mu=args.mu, n=args.n
    )
    write_curves_csv(rows, args.out)
    print(f"wrote {len(rows)} curve points to {args.out}")
    return 0


def _format_warning(message, *args, **kwargs) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one command; a warning it shows prints as one ``warning:`` line."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "diagnose": _cmd_diagnose,
        "mc": _cmd_mc,
        "curves": _cmd_curves,
    }
    formatter, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return handlers[args.command](args)
    except CountDiagError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatter


if __name__ == "__main__":
    sys.exit(main())
