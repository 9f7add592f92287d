"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Order-of-growth criteria compare normalized residuals against the
frozen first-run maxima in ``gcdsums/data/calibration.txt`` (factor-2
regression bound); exact identities use the stated tolerances directly.
"""

import math
import time

import numpy as np
import pytest

import gcdsums as G
from gcdsums.asymptotics import (delta_integral_ratio, divisor_delta_a,
                                 divisor_delta_a_series, limit_ratio_grid,
                                 load_calibration, residual_scan,
                                 standard_grid, tau_gcd_log_avg_routes)
from gcdsums.series import (mu_series_report, series_identity_compare,
                            series_theta_bracket)

from conftest import CATALOG
from oracles import euler_gamma_oracle, zeta_euler_maclaurin

CALIBRATION = load_calibration()
GRID = standard_grid()


def criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_c01_exact_identity_suite(catalog_tables):
    start = time.monotonic()
    worst = 0.0
    for f, g in catalog_tables:
        for direct, ident in G.apostol_audits(f, g, 5000):
            worst = max(worst, abs(direct - ident) / (1.0 + abs(direct)))
    elapsed = time.monotonic() - start
    criterion(1, "direct vs identity log sums, k <= 5000, catalog pairs",
              worst <= 1e-9 and elapsed < 30.0,
              f"worst rel gap {worst:.2e}, {elapsed:.1f}s")


def test_c02_ramanujan_log_identity_suite():
    start = time.monotonic()
    worst = 0.0
    for lhs, rhs in G.toth_audits(10 ** 4):
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    elapsed = time.monotonic() - start
    criterion(2, "log-weighted Ramanujan average identity, k <= 1e4",
              worst <= 1e-10 and elapsed < 30.0,
              f"worst rel gap {worst:.2e}, {elapsed:.1f}s")


def test_c03_cesaro_suite():
    worst = 0.0
    for spec in (G.ONE, G.TAU, G.ID):
        lhs, rhs = G.cesaro_average_profile(spec, 2000)
        worst = max(worst, float(np.max(
            np.abs(lhs[1:] - rhs[1:]) / (1.0 + np.abs(lhs[1:])))))
    criterion(3, "Cesaro average identity, f in {1, tau, id}, x <= 2000",
              worst <= 1e-10, f"worst rel gap {worst:.2e}")


def test_c04_decomposition_exactness():
    worst = 0.0
    bound_ok = True
    for f_spec, g_spec in CATALOG:
        f, g = G.sieve(f_spec, 10 ** 4), G.sieve(g_spec, 10 ** 4)
        for x in (10.0, 100.0, 1000.0, 10000.0):
            dec = G.apostol_log_average_terms(f, g, x)
            ks = G.apostol_log_average(f, g, x)
            worst = max(worst, abs(dec.total - ks) / (1.0 + abs(ks)))
            bound_ok = bound_ok and abs(dec.remainder_term) <= dec.remainder_bound
    criterion(4, "six-term decomposition equals the average, with the 1/12 "
              "remainder bound", worst <= 1e-8 and bound_ok,
              f"worst rel gap {worst:.2e}")


def test_c05_stirling_bracket():
    start = time.monotonic()
    table = G.log_factorial_table(10 ** 6)
    ok = bool(np.all((table.theta[1:] > 0.0) & (table.theta[1:] < 1.0)))
    elapsed = time.monotonic() - start
    criterion(5, "Stirling theta in (0,1) for all l <= 1e6",
              ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_c06_constants():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    checks = [
        abs(G.zeta(2.0) - math.pi ** 2 / 6.0) <= 1e-14,
        abs(G.zeta(3.0) - zeta_euler_maclaurin(3.0)) <= 1e-10,
        abs(G.zeta(0.5) - zeta_euler_maclaurin(0.5)) <= 1e-10,
        abs(G.zeta_prime(2.0) - float(mpmath.zeta(2, derivative=1))) <= 1e-10,
        abs(G.euler_gamma() - euler_gamma_oracle()) <= 1e-10,
    ]
    criterion(6, "zeta(2), zeta(3), zeta'(2), gamma, zeta(1/2) vs oracles",
              all(checks))


def test_c07_tau_log_avg_residual():
    start = time.monotonic()
    scan = residual_scan("tau-log-avg", GRID)
    limit = 2.0 * CALIBRATION[("tau-log-avg", "")]
    routes_ok = True
    worst_route = 0.0
    for x in GRID:
        a, b = tau_gcd_log_avg_routes(float(x))
        gap = abs(a - b) / (1.0 + abs(a))
        worst_route = max(worst_route, gap)
        routes_ok = routes_ok and gap <= 1e-8
    elapsed = time.monotonic() - start
    criterion(7, "tau gcd log average: normalized residual vs calibration "
              "and two-route agreement",
              scan.max_normalized() <= limit and routes_ok and elapsed < 120.0,
              f"max |norm| {scan.max_normalized():.3f} <= {limit:.3f}, "
              f"routes {worst_route:.1e}, {elapsed:.1f}s")


def test_c08_ramanujan_avg_theta_bracket():
    c = G.constants()
    coeff = c.log_sqrt_2pi / c.zeta2 + c.zeta_prime_2 / (2.0 * c.zeta2 ** 2)
    ok = True
    details = []
    grid = (1e4, 1e5, 1e6)
    for x, value in zip(grid, residual_scan("ramanujan-log-avg", grid).exact):
        r = value / x - coeff
        slack = 3.0 * math.log(x) ** 2 / x
        lo, hi = -slack, 1.0 / (12.0 * c.zeta3) + slack
        ok = ok and lo <= r <= hi
        details.append(f"x={x:g}: {r:.5f} in [{lo:.5f},{hi:.5f}]")
    criterion(8, "x-normalized Ramanujan-average residual inside the "
              "theta bracket", ok, "; ".join(details))


def test_c09_thm22_residuals():
    ok = True
    details = []
    for name in ("id-log-avg", "phi-log-avg"):
        scan = residual_scan(name, GRID)
        limit = 2.0 * CALIBRATION[(name, "")]
        ok = ok and scan.max_normalized() <= limit
        details.append(f"{name}: {scan.max_normalized():.4f} <= {limit:.4f}")
    criterion(9, "id and phi log-average residuals vs calibration "
              "(after mu-weighted Delta corrections)", ok, "; ".join(details))


def test_c10_thm23_residuals():
    ok = True
    details = []
    for name in ("idpow-log-avg", "jordan-log-avg"):
        scan = residual_scan(name, GRID, a=-0.5)
        limit = 2.0 * CALIBRATION[(name, "-0.5")]
        ok = ok and scan.max_normalized() <= limit
        details.append(f"{name}: {scan.max_normalized():.4f} <= {limit:.4f}")
    criterion(10, "exponent-shifted log-average residuals at a = -1/2 vs "
              "calibration", ok, "; ".join(details))


def test_c11_voronoi_checks():
    limit = 2.0 * CALIBRATION[("delta-integral-ratio", "")]
    ratios = [abs(delta_integral_ratio(float(x))) for x in GRID if x >= 1e3]
    integral_ok = max(ratios) <= limit
    exact = divisor_delta_a(1e4, -0.5)
    gap_small = abs(exact - divisor_delta_a_series(1e4, -0.5, 1000))
    gap_big = abs(exact - divisor_delta_a_series(1e4, -0.5, 10))
    series_ok = gap_small < gap_big
    criterion(11, "Delta integral ratio bounded and Delta_a expansion "
              "improves from N=10 to N=1e3",
              integral_ok and series_ok,
              f"max ratio {max(ratios):.4f} <= {limit:.4f}; "
              f"gaps {gap_big:.3f} -> {gap_small:.3f}")


def test_c12_dirichlet_series():
    pairs = {name: (G.sieve(f, 10 ** 5), G.sieve(g, 10 ** 5))
             for name, (f, g) in zip(
                 ("id,mu", "one,one", "phi,one", "idpow,mu"), CATALOG)}
    trend_ok = True
    for name, (f, g) in pairs.items():
        for s in (3.0, 4.0):
            gaps = [series_identity_compare(f, g, s, K).gap
                    for K in (100, 1000, 10 ** 4, 10 ** 5)]
            for prev, cur in zip(gaps, gaps[1:]):
                trend_ok = trend_ok and cur <= 1.5 * prev

    k0 = 25
    n = k0 * k0
    fv = np.zeros(n + 1)
    fv[1:k0 + 1] = np.arange(1, k0 + 1, dtype=np.float64)
    gv = np.zeros(n + 1)
    gv[1:k0 + 1] = G.sieve_values(G.MU, k0)[1:]
    finite = series_identity_compare(G.FunctionTable(G.ID, n, fv),
                                     G.FunctionTable(G.MU, n, gv), 3.0, n)
    finite_ok = finite.gap <= 1e-10 * (1.0 + abs(finite.lhs))

    bracket, = series_theta_bracket(pairs["id,mu"][0], 3.0, [10 ** 5])

    report, = mu_series_report(3.0, [10 ** 5], *pairs["id,mu"])
    print(f"    [report] id,mu series at s=3, K=1e5: lhs={report.lhs:.8f}; "
          f"constant-tail match={report.matches_constant_tail}, "
          f"ratio-tail match={report.matches_ratio_tail} (reported, "
          "not asserted)")

    criterion(12, "series gap trends, finite-support equality, theta "
              "bracket containment",
              trend_ok and finite_ok and bracket.contains,
              f"finite gap {finite.gap:.1e}; bracket lhs {bracket.lhs:.6f} "
              f"in [{bracket.lo:.6f},{bracket.hi:.6f}]")


def test_c13_limit_ratios():
    ok = True
    details = []
    for variant, a in (("id", None), ("phi", None), ("idpow", -0.5),
                       ("jordan", -0.5)):
        r_small, r_large = limit_ratio_grid(variant, [1e4, 1e6], a)
        improved = abs(r_large - 1.0) < abs(r_small - 1.0)
        ok = ok and improved
        details.append(f"{variant}: {abs(r_small-1):.4f} -> {abs(r_large-1):.4f}")
    criterion(13, "normalized log averages approach their limits from "
              "x=1e4 to x=1e6", ok, "; ".join(details))
