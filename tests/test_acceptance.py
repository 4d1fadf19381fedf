"""Acceptance gate.

Every numbered criterion below runs at its stated tolerance and prints one
pass/fail line (run pytest with -s to see them on success).
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import norm

from countdiag import (
    BinomialArMoments,
    GridConfig,
    MissingSpec,
    PoiInar1,
    Bar1,
    PoissonArMoments,
    RawMoments,
    Seed,
    bin_dispersion_asym_general,
    bin_dispersion_asym_markov,
    clt_sigma_general,
    durbin_levinson_pacf,
    poi_dispersion_asym_general,
    poi_dispersion_asym_markov,
    raw_poi_dispersion_asym,
    run_grid,
    sigma_binomial_markov,
    sigma_poisson_markov,
    simulate_bar1,
    simulate_markov_mask,
    simulate_poi_inar1,
    skew_asym_binomial_markov,
    skew_asym_general,
    skew_asym_poisson_markov,
)
from countdiag import test_from_params as params_report
from countdiag.harness import _index_estimates
from countdiag.moments import Tally
from countdiag.series import _pack_mask, _unpack_mask
from countdiag.simulate import _markov_mask_from_uniforms, _poisson_paths

from conftest import (
    GRID_LENGTHS,
    GRID_RS,
    GRID_TAUS,
    bartlett_ar1_se,
    batch_se,
    binomial_lag_closed_form,
    binomial_support,
    brute_force_moment,
    falling_array,
    poisson_lag_closed_form,
    poisson_support,
)

MC_SEED = 1729
R_MC = 10_000
PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
TAU_R = list(itertools.product(GRID_TAUS, GRID_RS))


def _report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def relgap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def closed_form_row(family, n, tau, r, T):
    """Asymptotic (mean, sd) for both indices of one grid row."""
    if family == "poisson":
        d = poi_dispersion_asym_markov(3.0, 0.5, tau, r, T)
        s = skew_asym_poisson_markov(3.0, 0.5, tau, r, T)
    else:
        d = bin_dispersion_asym_markov(n, 3.0 / n, 0.5, tau, r, T)
        s = skew_asym_binomial_markov(n, 3.0 / n, 0.5, tau, r, T)
    return d.mean, d.sd, s.mean, s.sd


@pytest.fixture(scope="session")
def mc_grids():
    """The full study grids at R = 10,000, shared across acceptance tests."""
    grids, timings = {}, {}
    specs = {
        "poisson": GridConfig("poisson", replications=R_MC, master_seed=MC_SEED),
        "binomial10": GridConfig(
            "binomial", n=(10,), replications=R_MC, master_seed=MC_SEED
        ),
        "binomial25": GridConfig(
            "binomial", n=(25,), replications=R_MC, master_seed=MC_SEED
        ),
    }
    for name, config in specs.items():
        start = time.time()
        results = run_grid(config)
        timings[name] = time.time() - start
        by_cell = {}
        for res in results:
            assert res.error is None, res.error
            cell = (res.scenario.missing.tau, res.scenario.missing.r, res.scenario.T)
            by_cell[cell] = res
        grids[name] = by_cell
    return grids, timings


def test_criterion_1_asymptotic_columns(reference_grids):
    start = time.time()
    worst = 0.0
    for name, rows in reference_grids.items():
        family = "poisson" if name == "poisson" else "binomial"
        n = {"poisson": None, "binomial10": 10, "binomial25": 25}[name]
        for row in rows:
            got = closed_form_row(family, n, row["tau"], row["r"], row["T"])
            want = (
                row["disp_mean_asym"],
                row["disp_sd_asym"],
                row["skew_mean_asym"],
                row["skew_sd_asym"],
            )
            worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    elapsed = time.time() - start
    _report(
        "criterion 1: asymptotic columns of all 144 grid rows within 0.001",
        worst <= 0.001 and elapsed < 1.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_monte_carlo_reproduction(mc_grids, reference_grids):
    grids, timings = mc_grids
    worst = {"T100": 0.0, "T250+": 0.0}
    failures = []
    for name, rows in reference_grids.items():
        cells = grids[name]
        for row in rows:
            res = cells[(row["tau"], row["r"], row["T"])]
            disp, skew = res.stats.values()
            checks = [
                (disp.sim_mean, row["disp_mean_sim"]),
                (disp.sim_sd, row["disp_sd_sim"]),
                (skew.sim_mean, row["skew_mean_sim"]),
                (skew.sim_sd, row["skew_sd_sim"]),
            ]
            tol = 0.015 if row["T"] == 100 else 0.010
            bucket = "T100" if row["T"] == 100 else "T250+"
            for got, want in checks:
                gap = abs(got - want)
                worst[bucket] = max(worst[bucket], gap)
                if gap > tol:
                    failures.append((name, row["tau"], row["r"], row["T"], got, want))
    total_time = sum(timings.values())
    _report(
        "criterion 2: R=10,000 simulated columns within 0.010 (0.015 at T=100)",
        not failures and total_time < 900.0,
        f"worst T=100 gap {worst['T100']:.4f}, worst T>=250 gap {worst['T250+']:.4f}, "
        f"grids ran in {total_time:.0f}s" + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_3_published_critical_values():
    cases = []

    peak = dict(mu=0.6117, rho=0.3325, tau=0.916, r=0.0, T=225, n=3)
    rep = params_report("dispersion", "binomial", statistic=1.3451, **peak)
    cases += [("peak dispersion upper", rep.upper_critical, 1.1685)]
    assert rep.decision == "reject"
    rep = params_report("skewness", "binomial", statistic=0.3422, **peak)
    cases += [
        ("peak skewness lower", rep.lower_critical, -0.1235),
        ("peak skewness upper", rep.upper_critical, 0.7337),
    ]
    assert rep.decision == "retain"

    cloud = dict(mu=4.4804, rho=0.8285, tau=0.8898, r=0.8765, T=744, n=8)
    rep = params_report("dispersion", "binomial", statistic=2.6908, **cloud)
    cases += [("cloud dispersion upper", rep.upper_critical, 1.2169)]
    assert rep.decision == "reject"
    rep = params_report("skewness", "binomial", statistic=0.9788, sided="upper", **cloud)
    cases += [("cloud skewness upper", rep.upper_critical, 0.7875)]
    assert rep.decision == "reject"

    naive = dict(mu=0.6117, rho=0.3605, tau=1.0, r=0.0, T=206, n=3)
    rep = params_report("dispersion", "binomial", statistic=1.3451, **naive)
    cases += [("deletion-variant dispersion upper", rep.upper_critical, 1.1728)]
    assert rep.decision == "reject"
    rep = params_report("skewness", "binomial", statistic=0.3422, **naive)
    cases += [
        ("deletion-variant skewness lower", rep.lower_critical, -0.1331),
        ("deletion-variant skewness upper", rep.upper_critical, 0.7391),
    ]

    compensation = [
        (1.00, 6.133, 0.558, (0.621, 1.320), (0.870, 1.108)),
        (0.85, 6.343, 0.462, (0.644, 1.308), (0.881, 1.100)),
        (0.70, 6.476, 0.302, (0.658, 1.304), (0.888, 1.098)),
        (0.55, 6.591, 0.269, (0.623, 1.334), (0.879, 1.106)),
        (0.40, 6.396, 0.295, (0.557, 1.387), (0.852, 1.126)),
    ]
    for tau, mu, rho, disp_bounds, skew_bounds in compensation:
        common = dict(mu=mu, rho=rho, tau=tau, r=0.0, T=120)
        rep = params_report("dispersion", "poisson", **common)
        cases += [
            (f"benefits tau={tau} dispersion lower", rep.lower_critical, disp_bounds[0]),
            (f"benefits tau={tau} dispersion upper", rep.upper_critical, disp_bounds[1]),
        ]
        rep = params_report("skewness", "poisson", **common)
        cases += [
            (f"benefits tau={tau} skewness lower", rep.lower_critical, skew_bounds[0]),
            (f"benefits tau={tau} skewness upper", rep.upper_critical, skew_bounds[1]),
        ]

    worst = max(abs(got - want) for _, got, want in cases)
    bad = [label for label, got, want in cases if abs(got - want) > 5e-4]
    _report(
        "criterion 3: all published critical values within 0.0005",
        not bad,
        f"{len(cases)} values, worst gap {worst:.2e}" + (f", bad: {bad}" if bad else ""),
    )


def test_criterion_4_oracle_equivalence():
    start = time.time()
    oracles = [
        ("poisson", PoissonArMoments(3.0, 0.5), None),
        ("binomial10", BinomialArMoments(10, 0.3, 0.5), 10),
        ("binomial25", BinomialArMoments(25, 3.0 / 25, 0.5), 25),
    ]
    worst_sigma = worst_index = worst_raw = 0.0
    for tau, r in TAU_R:
        law = MissingSpec(tau, r)
        # (a) series covariances against the closed-form entries
        for name, mom, n in oracles:
            for i, j in PAIRS:
                series = clt_sigma_general(i, j, mom, law)
                if n is None:
                    closed = sigma_poisson_markov(i, j, 3.0, 0.5, tau, r)
                else:
                    closed = sigma_binomial_markov(i, j, n, 3.0 / n, 0.5, tau, r)
                worst_sigma = max(worst_sigma, relgap(series, closed))
        # (b) general index asymptotics against the closed forms
        for T in GRID_LENGTHS:
            pd = poi_dispersion_asym_general(oracles[0][1], law, T)
            pm = poi_dispersion_asym_markov(3.0, 0.5, tau, r, T)
            worst_index = max(
                worst_index, relgap(pd.variance, pm.variance), relgap(pd.bias, pm.bias)
            )
            ps = skew_asym_general(oracles[0][1], law, T)
            psm = skew_asym_poisson_markov(3.0, 0.5, tau, r, T)
            worst_index = max(
                worst_index, relgap(ps.variance, psm.variance), relgap(ps.bias, psm.bias)
            )
            for _, mom, n in oracles[1:]:
                bd = bin_dispersion_asym_general(n, mom, law, T)
                bm = bin_dispersion_asym_markov(n, 3.0 / n, 0.5, tau, r, T)
                worst_index = max(
                    worst_index, relgap(bd.variance, bm.variance), relgap(bd.bias, bm.bias)
                )
                bs = skew_asym_general(mom, law, T)
                bsm = skew_asym_binomial_markov(n, 3.0 / n, 0.5, tau, r, T)
                worst_index = max(
                    worst_index, relgap(bs.variance, bsm.variance), relgap(bs.bias, bsm.bias)
                )
            # (c) raw-moment route against the factorial route
            raw = raw_poi_dispersion_asym(RawMoments(oracles[0][1]), law, T)
            worst_raw = max(
                worst_raw, relgap(raw.variance, pm.variance), relgap(raw.bias, pm.bias)
            )
    elapsed = time.time() - start
    ok = max(worst_sigma, worst_index, worst_raw) <= 1e-10 and elapsed < 10.0
    _report(
        "criterion 4: dual-route equivalences within 1e-10 over the study grid",
        ok,
        f"sigma {worst_sigma:.1e}, index {worst_index:.1e}, raw {worst_raw:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_property_suites():
    details = []

    # (a) joint-moment formulas against the per-pair closed forms, 1e-10
    worst = 0.0
    for k, s in PAIRS:
        for h in (1, 2, 3, 5):
            worst = max(
                worst,
                relgap(
                    PoissonArMoments(3.0, 0.5).mixed(k, s, h),
                    poisson_lag_closed_form(3.0, 0.5, h, k, s),
                ),
            )
            for n in (10, 25):
                worst = max(
                    worst,
                    relgap(
                        BinomialArMoments(n, 3.0 / n, 0.5).mixed(k, s, h),
                        binomial_lag_closed_form(n, 3.0 / n, 0.5, h, k, s),
                    ),
                )
    assert worst <= 1e-10
    details.append(f"joint moments {worst:.1e}")

    # (b) lag-zero identities against the brute-force pmf oracle, 1e-9
    worst = 0.0
    for support, oracle in (
        (poisson_support(3.0), PoissonArMoments(3.0, 0.5)),
        (binomial_support(10, 0.3), BinomialArMoments(10, 0.3, 0.5)),
    ):
        for k, s in PAIRS:
            brute = brute_force_moment(
                lambda x: falling_array(x, k) * falling_array(x, s), support
            )
            worst = max(worst, relgap(oracle.mixed(k, s, 0), brute))
    assert worst <= 1e-9
    details.append(f"lag-0 identities {worst:.1e}")

    # (c) simulator calibration within 3 standard errors
    T = 100_000
    poi = simulate_poi_inar1(PoiInar1(3.0, 0.5), T, Seed(MC_SEED, 1)).values
    assert abs(poi.mean() - 3.0) < 3 * np.sqrt(3.0 * 3.0 / T)
    bar = simulate_bar1(Bar1(10, 0.3, 0.5), T, Seed(MC_SEED, 2)).values
    assert abs(bar.mean() - 3.0) < 3 * np.sqrt(2.1 * 3.0 / T)
    for values in (poi, bar):
        d = values - values.mean()
        c0 = (d * d).sum()
        for h in (1, 2, 3):
            acf = (d[:-h] * d[h:]).sum() / c0
            assert abs(acf - 0.5**h) < 3 * bartlett_ar1_se(0.5, h, T)
    mask = simulate_markov_mask(MissingSpec(0.8, 0.6), 1_000_000, Seed(MC_SEED, 3))
    mask = mask.astype(np.float64)
    assert abs(mask.mean() - 0.8) < 3 * batch_se(mask)
    spec = MissingSpec(0.8, 0.6)
    for h in (1, 2, 3):
        prods = mask[:-h] * mask[h:]
        assert abs(prods.mean() - spec.lagged_product(h)) < 3 * batch_se(prods)
    details.append("simulator calibration 3SE")

    # (d) Durbin-Levinson cutoff for AR(1) autocorrelations, 1e-12
    worst = 0.0
    for rho in np.arange(0.1, 0.95, 0.1):
        pacf = durbin_levinson_pacf([rho**h for h in range(1, 7)])
        worst = max(worst, abs(pacf[0] - rho), float(np.max(np.abs(pacf[1:]))))
    assert worst <= 1e-12
    details.append(f"DL cutoff {worst:.1e}")

    # (e) empirical test size at T=1000 under the true null
    T = 1000
    rng = np.random.default_rng(np.random.SeedSequence([MC_SEED, 4]))
    x = _poisson_paths(3.0, 0.5, T, R_MC, rng)
    o = _unpack_mask(_markov_mask_from_uniforms(rng.random((R_MC, T)), 0.8, 0.6), T)
    est = _index_estimates(
        Tally(x.copy(), [T]), _pack_mask(o), ("poisson-dispersion", "poisson-skewness")
    )
    z = norm.ppf(0.975)
    sizes = {}
    for kind, asym in (
        ("poisson-dispersion", poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, T)),
        ("poisson-skewness", skew_asym_poisson_markov(3.0, 0.5, 0.8, 0.6, T)),
    ):
        e = est[kind][:, 0]
        lo, hi = asym.mean - z * asym.sd, asym.mean + z * asym.sd
        sizes[kind] = float(((e < lo) | (e > hi)).mean())
        assert abs(sizes[kind] - 0.05) <= 0.015, (kind, sizes[kind])
    # with plug-in parameter estimates the size may inflate but stays <= 8%
    xm = x.astype(np.float64)
    of = o.astype(np.float64)
    n_obs = of.sum(1)
    mu = (of * np.where(o == 1, xm, 0)).sum(1) / n_obs
    d = (np.where(o == 1, xm, 0) - mu[:, None]) * of
    rho1 = np.clip(
        ((d[:, :-1] * d[:, 1:]).sum(1) / T) / ((d * d).sum(1) / T), 0.0, 1 - 1e-9
    )
    tauh = of.mean(1)
    obar = of.mean(1)
    num = ((of[:, :-1] - obar[:, None]) * (of[:, 1:] - obar[:, None])).sum(1) / (T - 1)
    den = ((of - obar[:, None]) ** 2).sum(1) / T
    rh = np.clip(num / den, 0.0, 1 - 1e-9)
    e = est["poisson-dispersion"][:, 0]
    rejected = 0
    for i in range(R_MC):
        asym = poi_dispersion_asym_markov(mu[i], rho1[i], tauh[i], rh[i], T)
        rejected += (e[i] < asym.mean - z * asym.sd) or (e[i] > asym.mean + z * asym.sd)
    fitted_size = rejected / R_MC
    assert fitted_size <= 0.08, fitted_size
    details.append(
        "sizes "
        + ", ".join(f"{k.split('-')[1]} {v:.3f}" for k, v in sizes.items())
        + f", fitted {fitted_size:.3f}"
    )

    _report("criterion 5: property suites", True, "; ".join(details))


def test_criterion_6_limit_checks():
    details = []

    # complete data: the quoted closed forms are recovered exactly
    worst = 0.0
    for rho in (0.3, 0.5, 0.8):
        T = 200
        d = poi_dispersion_asym_markov(3.0, rho, 1.0, 0.0, T)
        worst = max(
            worst,
            relgap(d.variance * T, 2 * (1 + rho**2) / (1 - rho**2)),
            relgap(d.bias * T, -(1 + rho) / (1 - rho)),
        )
        b = bin_dispersion_asym_markov(10, 0.3, rho, 1.0, 0.0, T)
        worst = max(
            worst, relgap(b.variance * T, 2 * 0.9 * (1 + rho**2) / (1 - rho**2))
        )
        # r has no effect once tau = 1
        d_r = poi_dispersion_asym_markov(3.0, rho, 1.0, 0.6, T)
        worst = max(worst, relgap(d.variance, d_r.variance))
    assert worst <= 1e-12
    details.append(f"complete-data forms {worst:.1e}")

    # binomial -> Poisson as n grows, mu fixed
    n = 1000
    p_d = poi_dispersion_asym_markov(3.0, 0.5, 0.8, 0.6, 250)
    b_d = bin_dispersion_asym_markov(n, 3.0 / n, 0.5, 0.8, 0.6, 250)
    assert relgap(b_d.variance, p_d.variance) <= 2.0 / n
    assert relgap(b_d.bias, p_d.bias) <= 2.0 / n
    p_s = skew_asym_poisson_markov(3.0, 0.5, 0.8, 0.6, 250)
    b_s = skew_asym_binomial_markov(n, 3.0 / n, 0.5, 0.8, 0.6, 250)
    assert abs(b_s.null_value - p_s.null_value) <= 2.0 / n * (1 + 1e-12)
    # skewness variance/bias converge at O(1/n); verify the rate empirically
    gap_1k = relgap(b_s.variance, p_s.variance)
    b_s10 = skew_asym_binomial_markov(10 * n, 3.0 / (10 * n), 0.5, 0.8, 0.6, 250)
    gap_10k = relgap(b_s10.variance, p_s.variance)
    assert gap_1k <= 12.0 / n and 8.0 <= gap_1k / gap_10k <= 12.0
    details.append(
        f"dispersion gap {relgap(b_d.variance, p_d.variance) * n:.2f}/n, "
        f"skew variance gap {gap_1k * n:.2f}/n (O(1/n))"
    )

    _report("criterion 6: limit checks", True, "; ".join(details))


def test_harness_calibration_matches_published_gaps(mc_grids, reference_grids):
    """Our |sim - asym| gaps stay within 1.5x the published gaps plus MC noise."""
    grids, timings = mc_grids
    violations = []
    for name, rows in reference_grids.items():
        cells = grids[name]
        for row in rows:
            res = cells[(row["tau"], row["r"], row["T"])]
            disp, skew = res.stats.values()
            for stat, mean_key, sd_key in (
                (disp, "disp_mean_sim", "disp_sd_sim"),
                (skew, "skew_mean_sim", "skew_sd_sim"),
            ):
                n_used = stat.n_used
                # both our column and the published one carry R=10,000 MC
                # noise, hence the sqrt(2); 5e-4 covers table rounding
                se_mean = stat.sim_sd / np.sqrt(n_used) * np.sqrt(2)
                se_sd = stat.sim_sd / np.sqrt(2 * n_used) * np.sqrt(2)
                paper_gap = abs(row[mean_key] - row[mean_key.replace("sim", "asym")])
                ours = abs(stat.sim_mean - stat.asym_mean)
                if ours > 1.5 * paper_gap + 4 * se_mean + 5e-4:
                    violations.append((name, row["tau"], row["r"], row["T"], "mean"))
                paper_gap = abs(row[sd_key] - row[sd_key.replace("sim", "asym")])
                ours = abs(stat.sim_sd - stat.asym_sd)
                if ours > 1.5 * paper_gap + 4 * se_sd + 5e-4:
                    violations.append((name, row["tau"], row["r"], row["T"], "sd"))
    poisson_time = timings["poisson"]
    _report(
        "harness calibration: gaps within 1.5x published gaps plus MC noise",
        not violations and poisson_time < 600.0,
        f"poisson grid in {poisson_time:.0f}s"
        + (f", violations: {violations[:4]}" if violations else ""),
    )
