import math

import numpy as np
import pytest

import gcdsums as G
from gcdsums import stirling
from gcdsums.errors import DomainError
from gcdsums.zeta import LOG_SQRT_2PI


def test_examples():
    t = G.log_factorial_table(10)
    assert t.log_factorial[1] == 0.0
    assert t.log_factorial[4] == pytest.approx(math.log(24), rel=1e-15)
    v1 = t.value(1)
    # theta(1) = 12 * (0 - (0 - 1 + 0 + log sqrt(2 pi)))
    assert v1.theta == pytest.approx(12.0 * (1.0 - LOG_SQRT_2PI), rel=1e-12)
    assert 0.972 < v1.theta < 0.973


def test_log_factorial_monotone():
    t = G.log_factorial_table(5000)
    assert np.all(np.diff(t.log_factorial[1:]) > 0)


def test_theta_bracket_small_table():
    t = G.log_factorial_table(4096)
    assert np.all(t.rho[1:] > 0)
    assert np.all((t.theta[1:] > 0) & (t.theta[1:] < 1))


def test_theta_against_log_gamma_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    t = G.log_factorial_table(10 ** 6)
    rng = np.random.default_rng(99)
    for l in rng.integers(1, 10 ** 6 + 1, size=100):
        l = int(l)
        lf = mpmath.loggamma(l + 1)
        approx = (l * mpmath.log(l) - l + mpmath.log(l) / 2
                  + mpmath.log(2 * mpmath.pi) / 2)
        theta_oracle = float(12 * l * (lf - approx))
        assert abs(t.theta[l] - theta_oracle) <= 1e-9


def test_rho_within_one_ulp_at_the_seam_and_far_out():
    # the recurrence below _MIN_CAPACITY meets the series at 1024
    mpmath = pytest.importorskip("mpmath")
    t = G.log_factorial_table(1 << 20)
    with mpmath.workdps(50):
        for l in (1023, 1024, 1025, 1 << 20):
            exact = (mpmath.loggamma(l + 1) - l * mpmath.log(l) + l
                     - mpmath.log(l) / 2 - mpmath.log(2 * mpmath.pi) / 2)
            ulp = np.spacing(float(exact))
            assert abs(mpmath.mpf(float(t.rho[l])) - exact) <= ulp, l


def test_theta_range_from_the_series():
    # no table: the series alone reaches l where float64 theta hits 1
    l = np.array([1024, 10 ** 6, 2 * 10 ** 7])
    rho = stirling._remainder_series(l)
    theta = (12 * l * rho).astype(np.float64)
    assert np.all(rho > 0)
    assert np.all((theta > 0) & (theta < 1))
    far = np.array([25_000_000])
    assert float((12 * far * stirling._remainder_series(far))[0]) == 1.0


def test_rho_consistent_with_direct_subtraction():
    # at small l the plain difference L - approx is well conditioned and
    # must agree with the recurrence values
    t = G.log_factorial_table(50)
    direct = t.log_factorial[1:] - t.approx[1:]
    assert np.allclose(direct, t.rho[1:], rtol=0, atol=1e-13)


def test_value_accessor_and_errors():
    t = G.log_factorial_table(10)
    v = t.value(4)
    assert v.l == 4
    assert v.rho == pytest.approx(v.log_factorial - v.approx, abs=1e-13)
    with pytest.raises(DomainError):
        t.value(11)
    with pytest.raises(DomainError):
        G.log_factorial_table(0)


def test_derived_rows_match_the_stored_ones():
    # approx and theta are derived on read: theta within 1 ulp of 12 l rho
    # formed in extended precision, value(l) equal to the arrays
    t = G.log_factorial_table(1 << 20)
    theta, approx = t.theta, t.approx
    assert not theta.flags.writeable and not approx.flags.writeable
    l = np.unique(np.geomspace(1, 1 << 20, 400).astype(np.int64))
    extended = (stirling._rho_extended(1 << 20)[l] * (12 * l)).astype(np.float64)
    assert np.all(np.abs(theta[l] - extended) <= np.spacing(extended))
    for i in l[::20]:
        v = t.value(int(i))
        assert (v.approx, v.theta, v.rho) == (approx[i], theta[i], t.rho[i])
