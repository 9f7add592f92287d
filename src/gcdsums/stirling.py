"""Exact log-factorials and their Stirling remainders.

For l >= 1 let L(l) = sum_{m<=l} log m and

    approx(l) = l log l - l + (1/2) log l + log sqrt(2 pi),
    rho(l)    = L(l) - approx(l),
    theta(l)  = 12 l rho(l).

rho(l) ~ 1/(12 l) and theta(l) = 1 - 1/(30 l^2) + O(l^-4), so theta lies
in (0, 1) and approaches 1.  The stored float64 theta is below 1 up to
about l = 2.4e7 and rounds to exactly 1.0 from about l = 2.45e7 on, where
1/(30 l^2) drops under half an ulp of 1.  Subtracting two ~l log l sized
numbers would lose rho, so from l = _MIN_CAPACITY on the table evaluates
the remainder series 1/(12 l) - 1/(360 l^3) + 1/(1260 l^5) - 1/(1680 l^7)
(relative truncation error < l^-8) in extended precision, and below that
it runs the cancellation-free backward recurrence

    rho(l-1) = rho(l) + t_l,   t_l = (l - 1/2) log(l / (l-1)) - 1,

seeded at l = _MIN_CAPACITY, where each t_l = sum_{i>=1} x^{2i} / (2i+1)
with x = 1/(2l-1) is a positive fast-converging series.

log_factorial itself is a plain extended-precision cumulative sum of
log m, so identity checks elsewhere reuse one consistent L(l) array.

Entry l depends on nothing past max(l, _MIN_CAPACITY), so the four arrays
share the tables' capacity cache as the rows of one array, and a request
gets read-only slices that equal a direct build bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accum import cumsum_extended
from .errors import require
from .tables import _MIN_CAPACITY, _capacity_cached
from .zeta import LOG_SQRT_2PI

# the Stirling slot Theta of the main terms ranges over [THETA_LO, THETA_HI]
THETA_LO = 0.0
THETA_HI = 1.0 / 12.0

# x^{2i}/(2i+1) with x <= 1/(2*2-1); 20 terms reach relative 1e-19
_SERIES_TERMS = 20
# coefficients of the remainder series in 1/l^2, highest power first
_REMAINDER_COEFFS = tuple(np.longdouble(1) / c for c in (-1680, 1260, -360, 12))


@dataclass(frozen=True)
class StirlingValue:
    l: int
    log_factorial: float
    approx: float
    rho: float
    theta: float


@dataclass(frozen=True)
class StirlingTable:
    """Arrays indexed by l (slot 0 unused); immutable after construction."""

    l_max: int
    log_factorial: np.ndarray
    approx: np.ndarray
    rho: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return self.l_max

    def value(self, l: int) -> StirlingValue:
        require(1 <= l <= self.l_max, f"l={l} outside 1..{self.l_max}")
        return StirlingValue(l, float(self.log_factorial[l]), float(self.approx[l]),
                             float(self.rho[l]), float(self.theta[l]))


def _transition_terms(l_values: np.ndarray) -> np.ndarray:
    """t_l = (l - 1/2) log(l/(l-1)) - 1 for l >= 2, as a positive series."""
    x2 = 1.0 / (2.0 * l_values.astype(np.float64) - 1.0) ** 2
    acc = np.full_like(x2, 1.0 / (2 * _SERIES_TERMS + 1))
    for i in range(_SERIES_TERMS - 1, 0, -1):
        acc = 1.0 / (2 * i + 1) + x2 * acc
    return x2 * acc


def _remainder_series(l_values: np.ndarray) -> np.ndarray:
    """The remainder series of rho at each l, by Horner's rule in longdouble."""
    inv_l2 = np.square(l_values, dtype=np.longdouble)
    np.reciprocal(inv_l2, out=inv_l2)
    acc = np.full_like(inv_l2, _REMAINDER_COEFFS[0])
    for c in _REMAINDER_COEFFS[1:]:
        acc *= inv_l2
        acc += c
    del inv_l2
    acc /= l_values
    return acc


def _rho_extended(l_max: int) -> np.ndarray:
    """rho(l) for l = 0..l_max in longdouble (slot 0 holds 0)."""
    seed = _MIN_CAPACITY
    rho = np.zeros(max(l_max, seed) + 1, dtype=np.longdouble)
    rho[seed:] = _remainder_series(np.arange(seed, len(rho)))
    # rho(l) = rho(seed) + sum_{j=l+1..seed} t_j, accumulated high-to-low
    t = _transition_terms(np.arange(2, seed + 1))
    rho[1:seed] = np.cumsum(t[::-1].astype(np.longdouble))[::-1]
    rho[1:seed] += rho[seed]
    return rho[:l_max + 1]


def _build_arrays(l_max: int) -> np.ndarray:
    """Rows L, approx, rho, theta of l = 0..l_max, all zero at l = 0."""
    out = np.zeros((4, l_max + 1))
    log_factorial, approx, rho, theta = out
    n = np.arange(l_max + 1, dtype=np.float64)
    logs = np.zeros(l_max + 1)
    logs[1:] = np.log(n[1:])
    cumsum_extended(logs[1:], out=log_factorial[1:])
    approx[1:] = n[1:] * logs[1:] - n[1:] + 0.5 * logs[1:] + LOG_SQRT_2PI
    # each temporary is freed once used: the build's transient peak is a
    # large share of a series command's peak memory
    del n, logs

    rho_long = _rho_extended(l_max)
    rho[:] = rho_long
    rho_long *= np.arange(0, 12 * (l_max + 1), 12, dtype=np.longdouble)
    theta[:] = rho_long  # 12 l rho(l), formed in place
    return out


def _build(l_max: int) -> StirlingTable:
    """A table built at exactly l_max, bypassing the cache."""
    arrays = _build_arrays(l_max)
    arrays.setflags(write=False)
    return StirlingTable(l_max, *arrays)


def log_factorial_table(l_max: int) -> StirlingTable:
    """Table of L(l), approx(l), rho(l), theta(l) for l = 1..l_max."""
    require(l_max >= 1, "l_max must be >= 1")
    l_max = int(l_max)
    a = _capacity_cached("stirling", l_max, _build_arrays)
    n = l_max + 1
    return StirlingTable(l_max, a[0, :n], a[1, :n], a[2, :n], a[3, :n])
