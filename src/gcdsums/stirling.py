"""Exact log-factorials and their Stirling remainders.

For l >= 1 let L(l) = sum_{m<=l} log m and

    approx(l) = l log l - l + (1/2) log l + log sqrt(2 pi),
    rho(l)    = L(l) - approx(l),
    theta(l)  = 12 l rho(l).

rho(l) ~ 1/(12 l) and theta(l) = 1 - 1/(30 l^2) + O(l^-4), so theta lies
strictly in (0, 1) for every l but approaches 1; certifying that in
float64 needs more care than subtracting two ~l log l sized numbers.  The
table therefore computes rho by the cancellation-free backward recurrence

    rho(l-1) = rho(l) + t_l,   t_l = (l - 1/2) log(l / (l-1)) - 1,

where each t_l = sum_{i>=1} x^{2i} / (2i+1) with x = 1/(2l-1) is a
positive fast-converging series, and the recurrence is seeded well past
the table end from the remainder series
1/(12 l) - 1/(360 l^3) + 1/(1260 l^5) - 1/(1680 l^7).

log_factorial itself is a plain extended-precision cumulative sum of
log m, so identity checks elsewhere reuse one consistent L(l) array.

One table is kept, built at a power-of-two capacity and rebuilt larger
only when a request exceeds it; smaller requests get read-only slices.
log_factorial and approx are prefix-exact, so a slice equals a direct
build bit for bit; rho and theta depend on the seed point, which moves
with the capacity, by at most two roundings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accum import cumsum_extended
from .errors import require
from .tables import _pow2_ceil
from .zeta import LOG_SQRT_2PI

_SEED_MIN = 1024
# x^{2i}/(2i+1) with x <= 1/(2*2-1); 20 terms reach relative 1e-19
_SERIES_TERMS = 20


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


def _rho_seed(l: int) -> float:
    """Remainder series at l; relative truncation error < l^-8."""
    li = float(l)
    return (1.0 / (12.0 * li) - 1.0 / (360.0 * li ** 3)
            + 1.0 / (1260.0 * li ** 5) - 1.0 / (1680.0 * li ** 7))


def _build(l_max: int) -> StirlingTable:
    n = np.arange(l_max + 1, dtype=np.float64)
    logs = np.zeros(l_max + 1)
    logs[1:] = np.log(n[1:])
    log_factorial = np.zeros(l_max + 1)
    log_factorial[1:] = cumsum_extended(logs[1:])

    approx = np.zeros(l_max + 1)
    approx[1:] = n[1:] * logs[1:] - n[1:] + 0.5 * logs[1:] + LOG_SQRT_2PI
    # each temporary is freed once used: the build's transient peak is a
    # large share of a series command's peak memory
    del n, logs

    seed_l = max(l_max, _SEED_MIN)
    t = _transition_terms(np.arange(2, seed_l + 1))
    # rho(l) = rho(seed) + sum_{j=l+1..seed} t_j, accumulated high-to-low
    suffix = np.cumsum(t[::-1].astype(np.longdouble))
    del t
    rho_long = np.zeros(seed_l + 1, dtype=np.longdouble)
    rho_long[seed_l] = _rho_seed(seed_l)
    rho_long[1:seed_l] = suffix[::-1]
    del suffix
    rho_long[1:seed_l] += rho_long[seed_l]
    rho_long = rho_long[:l_max + 1]
    theta = np.arange(l_max + 1, dtype=np.longdouble)
    theta *= 12.0
    theta *= rho_long

    rho = rho_long.astype(np.float64)
    rho[0] = 0.0
    del rho_long
    theta64 = theta.astype(np.float64)
    theta64[0] = 0.0

    for arr in (log_factorial, approx, rho, theta64):
        arr.setflags(write=False)
    return StirlingTable(l_max, log_factorial, approx, rho, theta64)


# the largest table built so far; a larger request replaces it
_table: StirlingTable | None = None


def log_factorial_table(l_max: int) -> StirlingTable:
    """Table of L(l), approx(l), rho(l), theta(l) for l = 1..l_max."""
    global _table
    require(l_max >= 1, "l_max must be >= 1")
    l_max = int(l_max)
    if _table is None or _table.l_max < l_max:
        _table = None  # drop the old arrays before building the new ones
        _table = _build(max(_pow2_ceil(l_max), _SEED_MIN))
    t = _table
    return StirlingTable(l_max, t.log_factorial[:l_max + 1],
                         t.approx[:l_max + 1], t.rho[:l_max + 1],
                         t.theta[:l_max + 1])
