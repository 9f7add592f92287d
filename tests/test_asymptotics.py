import math

import numpy as np
import pytest

import gcdsums as G
from gcdsums.asymptotics import (SCAN_TARGETS, STATISTICS, divisor_delta,
                                 divisor_delta_a, divisor_delta_a_series,
                                 delta_integral_ratio, exact_value,
                                 limit_ratio, main_term, mu_delta_sum,
                                 residual_scan, standard_grid, summatory,
                                 tau_gcd_log_avg_routes)
from gcdsums.errors import DomainError

from oracles import naive_value

GAMMA = G.euler_gamma()


def test_delta_examples():
    assert divisor_delta(1.0) == pytest.approx(2.0 - 2.0 * GAMMA, abs=1e-12)
    tau_sum_10 = sum(naive_value("tau", n) for n in range(1, 11))
    assert tau_sum_10 == 27
    assert divisor_delta(10.0) == pytest.approx(
        27.0 - (10.0 * math.log(10.0) + (2 * GAMMA - 1) * 10.0), abs=1e-12)
    assert abs(divisor_delta(10.0) - 2.4298) < 1e-3
    with pytest.raises(DomainError):
        divisor_delta(0.5)


def test_delta_soft_bound_at_1e6():
    assert abs(divisor_delta(1e6)) < 1e3


def test_delta_matches_naive_small():
    for x in (1.0, 2.0, 7.5, 30.0, 100.0):
        exact = sum(naive_value("tau", n) for n in range(1, int(x) + 1))
        smooth = x * math.log(x) + (2 * GAMMA - 1) * x
        assert divisor_delta(x) == pytest.approx(exact - smooth, abs=1e-10)


def test_integral_ratio_against_quadrature_oracle():
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def delta_fn(y):
        exact = sum(naive_value("tau", n) for n in range(1, int(y) + 1))
        return exact - (y * math.log(y) + (2 * GAMMA - 1) * y)

    oracle, _ = scipy_integrate.quad(delta_fn, 1.0, 2.0, limit=200)
    assert delta_integral_ratio(2.0) == pytest.approx(oracle / 2.0, abs=1e-9)


def test_integral_ratio_boundedness():
    r3 = delta_integral_ratio(1e3)
    assert abs(r3) < 1.0
    r4 = delta_integral_ratio(1e4)
    r5 = delta_integral_ratio(1e5)
    assert abs(r5) <= 2.0 * max(abs(r4), 0.05)
    with pytest.raises(DomainError):
        delta_integral_ratio(1.5)


def test_delta_a_regression_and_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    value = divisor_delta_a(10.0, -0.5)
    exact = math.fsum(naive_value("sigmapow", n, -0.5) for n in range(1, 11))
    smooth = (float(mpmath.zeta(1.5)) * 10.0
              + float(mpmath.zeta(0.5)) / 0.5 * 10.0 ** 0.5
              - float(mpmath.zeta(0.5)) / 2.0)
    assert value == pytest.approx(exact - smooth, abs=1e-10)
    # frozen regression value
    assert value == pytest.approx(1.3335012949278, abs=1e-10)
    with pytest.raises(DomainError):
        divisor_delta_a(10.0, -1.5)


def test_delta_a_series_trend():
    exact = divisor_delta_a(1e4, -0.5)
    gaps = {n: abs(exact - divisor_delta_a_series(1e4, -0.5, n))
            for n in (10, 100, 1000)}
    assert gaps[1000] < gaps[10]
    assert gaps[100] <= 1.5 * gaps[10]
    assert gaps[1000] <= 1.5 * gaps[100]
    # single-term case is just the n = 1 cosine
    single = divisor_delta_a_series(1e4, -0.5, 1)
    expected = (1e4 ** 0.0 / (math.pi * math.sqrt(2.0))
                * math.cos(4.0 * math.pi * 100.0 - math.pi / 4.0))
    assert single == pytest.approx(expected, rel=1e-12)


def test_mu_delta_sum_examples():
    assert mu_delta_sum(1.0, "mu") == pytest.approx(-(2.0 - 2.0 * GAMMA),
                                                    abs=1e-12)
    assert mu_delta_sum(1.0, "mu_star_mu") == pytest.approx(
        -(2.0 - 2.0 * GAMMA), abs=1e-12)
    with pytest.raises(DomainError):
        mu_delta_sum(10.0, "nope")


def test_mu_delta_sum_against_double_loop():
    mu = [naive_value("mu", n) for n in range(0, 101)]
    for x in (100.0, 100.5):
        expected = 0.0
        for n in range(1, 101):
            y = x / n
            tau_sum = sum(naive_value("tau", m) for m in range(1, int(y) + 1))
            delta = tau_sum - (y * math.log(y) + (2 * GAMMA - 1) * y)
            expected += mu[n] / n * delta
        expected *= math.log(x) - 1.0
        assert mu_delta_sum(x, "mu") == pytest.approx(expected, abs=1e-9), x


def test_summatory_examples():
    exact, main = summatory("power_sum", 4.0, -0.5)
    assert exact == pytest.approx(1 + 2 ** -0.5 + 3 ** -0.5 + 0.5, rel=1e-14)
    assert main == pytest.approx(4 ** 0.5 / 0.5 + G.zeta(0.5), rel=1e-12)

    exact, _ = summatory("id_phi", 1.0)
    assert exact == 1.0

    exact, main = summatory("tau_over_n", 100.0)
    oracle = math.fsum(naive_value("tau", n) / n for n in range(1, 101))
    assert exact == pytest.approx(oracle, rel=1e-12)
    assert main == pytest.approx(0.5 * math.log(100.0) ** 2
                                 + 2 * GAMMA * math.log(100.0), rel=1e-12)
    with pytest.raises(DomainError):
        summatory("not-a-statistic", 10.0)
    with pytest.raises(DomainError):
        summatory("power_sum", 10.0)  # missing a


def test_statistic_residuals_are_modest():
    # each statistic's residual over a small grid stays within a few
    # normalizer units; catches main-term transcription slips
    grid = standard_grid(1e3, 1e5, 5)
    for name, stat in STATISTICS.items():
        a = -0.5 if stat.needs_a else None
        scan = residual_scan(name, grid, a)
        assert scan.max_normalized() < 10.0, (name, scan.normalized)


def test_main_term_examples():
    c = G.constants()
    lx = math.log(100.0)
    expected = (c.zeta2 * 100.0 * lx - 2 * c.zeta2 * 100.0 + lx ** 3 / 12.0
                + (c.gamma - 1 + math.log(2 * math.pi)) / 4.0 * lx ** 2)
    assert main_term("tau-log-avg", 100.0) == pytest.approx(expected, rel=1e-14)
    assert abs(expected - 444.17) < 0.1

    coeff = c.log_sqrt_2pi / c.zeta2 + c.zeta_prime_2 / (2 * c.zeta2 ** 2)
    assert main_term("ramanujan-log-avg", 1.0 + 1e-9) / (1.0 + 1e-9) == \
        pytest.approx(coeff, rel=1e-9)
    assert coeff == pytest.approx(0.38540, abs=1e-5)


def test_main_term_theta_linearity():
    c = G.constants()
    for target, a, coeff in [
        ("ramanujan-log-avg", None, lambda x: x / c.zeta3),
        ("id-log-avg", None, lambda x: c.zeta3 * x / c.zeta2),
        ("phi-log-avg", None, lambda x: c.zeta3 * x / c.zeta2 ** 2),
        ("idpow-log-avg", -0.5,
         lambda x: c.zeta(2.5) * x ** 0.5 / (0.5 * c.zeta(1.5))),
        ("jordan-log-avg", -0.5,
         lambda x: c.zeta(2.5) * x ** 0.5 / (0.5 * c.zeta(1.5) ** 2)),
    ]:
        for x in (100.0, 1e4):
            lo = main_term(target, x, a, theta=0.0)
            hi = main_term(target, x, a, theta=1.0 / 12.0)
            assert hi - lo == pytest.approx(coeff(x) / 12.0, rel=1e-9), target
    with pytest.raises(DomainError):
        main_term("idpow-log-avg", 100.0)  # missing a
    with pytest.raises(DomainError):
        main_term("ramanujan-log-avg", 100.0, theta=0.2)


def test_residual_scan_single_point_composition():
    # every entry, rebuilt from the public pieces: the log averages carry
    # log(x/e) on their Delta correction and, where the main term has a
    # Stirling slot, the exact remainder; the statistics carry neither
    x = 1000.0
    for name in list(SCAN_TARGETS) + list(STATISTICS):
        log_average = name in SCAN_TARGETS
        t = SCAN_TARGETS[name] if log_average else STATISTICS[name]
        a = -0.5 if t.needs_a else None
        scan = residual_scan(name, [x], a)
        exact = exact_value(name, x, a)
        main = main_term(name, x, a)
        corr = (mu_delta_sum(x, t.weight, a if t.delta_a else None,
                             log_factor=log_average) if t.weight else 0.0)
        rem = 0.0
        if log_average and main_term(name, x, a, theta=1 / 12) != main:
            f, g = (G.sieve(spec, 1000) for spec in t.pair(a))
            rem = G.apostol_log_average_terms(f, g, x).remainder_term
        assert scan.exact[0] == exact, name
        assert scan.main[0] == main, name
        assert scan.correction[0] == corr + rem, name
        assert scan.residual[0] == exact - main - corr - rem, name
        if not log_average:
            assert scan.residual_lo[0] == scan.residual[0] \
                == scan.residual_hi[0], name
    assert (SCAN_TARGETS["tau-log-avg"].weight is None
            and residual_scan("tau-log-avg", [x]).correction[0] == 0.0)
    assert residual_scan("power_sum", [x], -0.5).normalizer_label == "x^-0.5"


def test_residual_scan_theta_envelope_order():
    scan = residual_scan("id-log-avg", [100.0, 1000.0])
    assert np.all(scan.residual_lo <= scan.residual + 1e-9)
    assert np.all(scan.residual <= scan.residual_hi + 1e-9)


def test_residual_scan_validation():
    with pytest.raises(DomainError):
        residual_scan("tau-log-avg", [100.0, 50.0])
    with pytest.raises(DomainError):
        residual_scan("nope", [100.0])
    with pytest.raises(DomainError):
        residual_scan("idpow-log-avg", [100.0], a=0.5)


def test_thm22_regression_value_at_1e3():
    scan = residual_scan("id-log-avg", [1000.0])
    # frozen first-run value of the normalized residual
    assert scan.normalized[0] == pytest.approx(-0.043937, abs=1e-4)


def test_two_route_exact_side():
    for x in (100.0, 1e3):
        a, b = tau_gcd_log_avg_routes(x)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_limit_ratio_improves():
    r1 = limit_ratio("id", 1e3)
    r2 = limit_ratio("id", 1e4)
    assert abs(r2 - 1.0) < abs(r1 - 1.0)
    with pytest.raises(DomainError):
        limit_ratio("nope", 1e3)


def test_sigma_minus1_log_bound():
    from gcdsums.asymptotics import load_calibration
    bound = load_calibration()[("sigma_minus1", "")]
    for x in standard_grid(1e3, 1e6, 4):
        exact, _ = summatory("sigma_minus1", float(x))
        assert exact <= 2.0 * bound * math.log(x)


def test_ramanujan_avg_calibration_regression():
    from gcdsums.asymptotics import load_calibration
    scan = residual_scan("ramanujan-log-avg", standard_grid())
    limit = 2.0 * load_calibration()[("ramanujan-log-avg", "")]
    assert scan.max_normalized() <= limit


def test_standard_grid_integer_ascending():
    grid = standard_grid()
    assert list(grid.astype(int)) == [1000, 3162, 10000, 31623, 100000,
                                      316228, 1000000]
    assert np.all(np.diff(grid) > 0)
