"""Riemann zeta and related constants on real arguments.

zeta(s) is evaluated with Borwein's accelerated alternating-series
algorithm for the eta function,

    zeta(s) = 1/(1 - 2^(1-s)) * sum_{k=0}^{n-1} (-1)^k e_k / (k+1)^s,
    e_k = (d_n - d_k)/d_n,
    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!),

valid for all real s > 0, s != 1, with error O((3+sqrt(8))^-n).  The
coefficients are exact integers, so e_k is correctly rounded.  At n = 50
the truncation error is below 1e-30 over the arguments used here.

zeta_prime(s) (s > 1) differentiates the same expression term by term.
Both are memoized through :class:`ConstantSet`.  The module also holds
the constants that the main terms and series brackets share:
``LOG_SQRT_2PI`` and the range [THETA_LO, THETA_HI] of the Stirling slot.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import require

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# the Stirling slot Theta of the main terms ranges over [THETA_LO, THETA_HI]
THETA_LO = 0.0
THETA_HI = 1.0 / 12.0

_BORWEIN_N = 50


@lru_cache(maxsize=4)
def _borwein_weights(n: int) -> tuple[float, ...]:
    """e_k = (d_n - d_k)/d_n for k < n.  Each term of d_k is an integer
    (up to sign, the coefficient of x^i in T_n(2x - 1), T_n the Chebyshev
    polynomial), so d_k is summed in ints and int / int rounds e_k
    correctly."""
    d = []
    acc = 0
    for i in range(n + 1):
        acc += (n * math.factorial(n + i - 1) * 4 ** i
                // (math.factorial(n - i) * math.factorial(2 * i)))
        d.append(acc)
    d_n = d[n]
    return tuple((d_n - d_k) / d_n for d_k in d[:n])


def _eta_sums(s: float) -> tuple[float, float]:
    """(A, A') where A(s) = sum (-1)^k e_k (k+1)^(-s)."""
    e = _borwein_weights(_BORWEIN_N)
    terms = []
    dterms = []
    for k, ek in enumerate(e):
        sign = 1.0 if k % 2 == 0 else -1.0
        base = math.log(k + 1)
        w = sign * ek * math.exp(-s * base)
        terms.append(w)
        dterms.append(-base * w)
    return math.fsum(terms), math.fsum(dterms)


def zeta(s: float) -> float:
    """zeta(s) for real s > 0, s != 1, accurate to ~1e-14 relative."""
    require(s > 0.0, "zeta requires s > 0")
    require(s != 1.0, "zeta has a pole at s = 1")
    p = 1.0 / (1.0 - 2.0 ** (1.0 - s))
    a, _ = _eta_sums(s)
    return p * a


def zeta_prime(s: float) -> float:
    """zeta'(s) for real s > 1 by term-differentiated acceleration."""
    require(s > 1.0, "zeta_prime requires s > 1")
    q = 2.0 ** (1.0 - s)
    p = 1.0 / (1.0 - q)
    dp = -(p * p) * math.log(2.0) * q
    a, da = _eta_sums(s)
    return dp * a + p * da


def euler_gamma() -> float:
    """Euler's constant, correctly rounded."""
    return float(np.euler_gamma)


class ConstantSet:
    """Memoized zeta values and the constants every main term needs.

    Cache inserts are idempotent, so concurrent warm-up from several
    threads is safe under the GIL.
    """

    gamma = euler_gamma()
    log_sqrt_2pi = LOG_SQRT_2PI

    def __init__(self):
        self._zeta_cache = {}
        self._zeta_prime_cache = {}

    @property
    def zeta2(self) -> float:
        return self.zeta(2.0)

    @property
    def zeta3(self) -> float:
        return self.zeta(3.0)

    @property
    def zeta_prime_2(self) -> float:
        return self.zeta_prime(2.0)

    def zeta(self, s: float) -> float:
        if s not in self._zeta_cache:
            self._zeta_cache[s] = zeta(s)
        return self._zeta_cache[s]

    def zeta_prime(self, s: float) -> float:
        if s not in self._zeta_prime_cache:
            self._zeta_prime_cache[s] = zeta_prime(s)
        return self._zeta_prime_cache[s]


_CONSTANTS = ConstantSet()


def constants() -> ConstantSet:
    """Process-wide memoized constant set."""
    return _CONSTANTS
