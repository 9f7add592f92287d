import math

import numpy as np
import pytest

import gcdsums as G
from gcdsums.errors import DomainError
from gcdsums.zeta import _borwein_weights

from oracles import (euler_gamma_oracle, fraction_borwein_weights,
                     zeta_euler_maclaurin)


def test_zeta2_analytic():
    assert abs(G.zeta(2.0) - math.pi ** 2 / 6.0) <= 1e-14


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
def test_zeta_against_euler_maclaurin(s):
    assert G.zeta(s) == pytest.approx(zeta_euler_maclaurin(s), abs=1e-12)


def test_zeta_known_values():
    assert G.zeta(3.0) == pytest.approx(1.2020569031595943, abs=1e-12)
    assert G.zeta(0.5) == pytest.approx(-1.4603545088095868, abs=1e-12)


def test_zeta_prime_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for s in (2.0, 2.5, 3.0, 3.5, 4.0):
        oracle = float(mpmath.zeta(s, derivative=1))
        assert G.zeta_prime(s) == pytest.approx(oracle, abs=1e-10)


def test_zeta_prime_finite_difference():
    h = 1e-5
    for s in (2.5, 3.0):
        fd = (G.zeta(s + h) - G.zeta(s - h)) / (2.0 * h)
        assert abs(G.zeta_prime(s) - fd) <= 1e-6


def test_zeta_prime_negative():
    for s in (1.5, 2.0, 3.0, 4.0, 6.0):
        assert G.zeta_prime(s) < 0.0


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 3.5])
def test_zeta_partial_sum_plus_tail(s):
    n = 10 ** 6
    karr = np.arange(1, n + 1, dtype=np.float64)
    partial = float(np.sum(karr ** (-s)).astype(np.float64))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    assert abs(G.zeta(s) - (partial + tail)) <= 1e-9


def test_euler_gamma():
    assert G.euler_gamma() == pytest.approx(euler_gamma_oracle(), abs=1e-12)
    assert G.euler_gamma() == pytest.approx(0.5772156649015329, abs=1e-12)
    # coefficient combinations used by the main terms
    g = G.euler_gamma()
    assert 2 * g - 1 == pytest.approx(0.15443132980306573, abs=1e-10)
    assert g - 1 + math.log(2 * math.pi) == pytest.approx(1.4150927313108778, abs=1e-9)


def test_constant_set_cache_reproducible():
    c = G.constants()
    first = c.zeta(2.5)
    again = c.zeta(2.5)
    assert first == again
    assert c.zeta2 == G.zeta(2.0)
    assert c.zeta_prime_2 == G.zeta_prime(2.0)
    fresh = G.ConstantSet()
    assert abs(fresh.zeta(2.5) - first) <= 1e-12


def test_constant_set_takes_no_arguments():
    fresh = G.ConstantSet()
    assert fresh.gamma == G.euler_gamma() == G.constants().gamma
    assert fresh.log_sqrt_2pi == G.LOG_SQRT_2PI
    assert fresh._zeta_cache is not G.constants()._zeta_cache
    with pytest.raises(TypeError):
        G.ConstantSet(gamma=0.5)


def test_domain_errors():
    for bad in (0.0, -1.0, 1.0):
        with pytest.raises(DomainError):
            G.zeta(bad)
    for bad in (1.0, 0.5):
        with pytest.raises(DomainError):
            G.zeta_prime(bad)


def test_borwein_weights_equal_the_fraction_route():
    # summed in ints, each e_k is int / int: the bytes of the Fractions'
    got = _borwein_weights(50)
    assert [w.hex() for w in got] == \
        [w.hex() for w in fraction_borwein_weights(50)]
