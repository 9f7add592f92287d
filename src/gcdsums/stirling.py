"""Exact log-factorials and their Stirling remainders.

For l >= 1 let L(l) = sum_{m<=l} log m and

    approx(l) = l log l - l + (1/2) log l + log sqrt(2 pi),
    rho(l)    = L(l) - approx(l),
    theta(l)  = 12 l rho(l).

rho(l) ~ 1/(12 l) and theta(l) = 1 - 1/(30 l^2) + O(l^-4), so theta lies
in (0, 1) and approaches 1.  The float64 theta, 12 l times the stored
float64 rho, is below 1 up to l = 15,784,319; from there on 1/(30 l^2)
is smaller than the rounding of rho, and theta is 1.0 or just below it
(both still occur at l = 4e7; no l up to 4e7 gives more than 1.0).

Subtracting two ~l log l sized numbers would lose rho, so from
l = _MIN_CAPACITY on the table evaluates the remainder series
1/(12 l) - 1/(360 l^3) + 1/(1260 l^5) - 1/(1680 l^7) (relative truncation
error < l^-8) in extended precision, and below that it runs the
cancellation-free backward recurrence

    rho(l-1) = rho(l) + t_l,   t_l = (l - 1/2) log(l / (l-1)) - 1,

seeded at l = _MIN_CAPACITY, where each t_l = sum_{i>=1} x^{2i} / (2i+1)
with x = 1/(2l-1) is a positive fast-converging series.

log_factorial itself is a plain extended-precision cumulative sum of
log m, so identity checks elsewhere reuse one consistent L(l) array.

Each row is built at the l_max asked for, read-only, and freed with its
last reference; entry l depends on nothing past l, so a row equals the
first l_max + 1 entries of a wider row bit for bit.  Neither row reads
the other: the per-k audits and the Dirichlet series read L alone
(``log_factorial_row``), and ``log_factorial_table`` is the public view
of both.  The scans build no rho row: they form rho a block at a time
(``rho_block``, which fills the row too), so their blocks equal the
row's entries bit for bit.  approx and theta are derived from l and rho
when read; the package itself reads only L and rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accum import _BLOCK, running_sum
from .errors import require
from .tables import _MIN_CAPACITY
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
    """L(l) and rho(l) indexed by l (slot 0 unused), read-only.

    approx and theta are derived from them on read, as new read-only
    arrays: nothing in the package reads them, so they are not stored.
    """

    l_max: int
    log_factorial: np.ndarray
    rho: np.ndarray

    def __len__(self) -> int:
        return self.l_max

    @property
    def approx(self) -> np.ndarray:
        out = np.zeros(self.l_max + 1)
        out[1:] = _approx(np.arange(1, self.l_max + 1, dtype=np.float64))
        out.setflags(write=False)
        return out

    @property
    def theta(self) -> np.ndarray:
        out = np.arange(0, 12 * (self.l_max + 1), 12, dtype=np.float64)
        out *= self.rho
        out.setflags(write=False)
        return out

    def value(self, l: int) -> StirlingValue:
        require(1 <= l <= self.l_max, f"l={l} outside 1..{self.l_max}")
        rho = self.rho[l]
        return StirlingValue(l, float(self.log_factorial[l]),
                             float(_approx(np.array([l], dtype=np.float64))[0]),
                             float(rho), float(np.float64(12 * l) * rho))


def _approx(l: np.ndarray) -> np.ndarray:
    """l log l - l + (1/2) log l + log sqrt(2 pi) at each float64 l."""
    logs = np.log(l)
    return l * logs - l + 0.5 * logs + LOG_SQRT_2PI


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


def _rho_below_seed() -> np.ndarray:
    """rho(l) for l = 1.._MIN_CAPACITY - 1 in longdouble, by the backward
    recurrence seeded with the series at l = _MIN_CAPACITY."""
    seed = _MIN_CAPACITY
    # rho(l) = rho(seed) + sum_{j=l+1..seed} t_j, accumulated high-to-low
    t = _transition_terms(np.arange(2, seed + 1))
    rho = np.cumsum(t[::-1].astype(np.longdouble))[::-1]
    rho += _remainder_series(np.arange(seed, seed + 1))[0]
    return rho


def _fill_log_factorial(row: np.ndarray) -> None:
    """row[l] = L(l) for l = 0..len(row) - 1, as running longdouble sums
    of log l, a block of ``_BLOCK`` at a time."""
    total = np.longdouble(0.0)
    for lo in range(1, len(row), _BLOCK):
        hi = min(lo + _BLOCK, len(row))
        sums = running_sum(np.log(np.arange(lo, hi, dtype=np.float64)), total)
        row[lo:hi] = sums
        total = sums[-1]


def rho_block(lo: int, hi: int) -> np.ndarray:
    """rho(l) for l = lo..hi-1 (lo >= 1) as float64, the entries of the
    rho row: the backward recurrence below _MIN_CAPACITY and the remainder
    series from there on.  The series' longdouble temporaries (about five
    float64 blocks) are freed before it returns."""
    out = np.empty(hi - lo)
    below = min(max(_MIN_CAPACITY - lo, 0), hi - lo)
    if below:
        out[:below] = _rho_below_seed()[lo - 1:lo - 1 + below]
    out[below:] = _remainder_series(np.arange(lo + below, hi))
    return out


def _fill_rho(row: np.ndarray) -> None:
    """row[l] = rho(l) for l = 1..len(row) - 1, a block of ``_BLOCK`` at a
    time."""
    for lo in range(1, len(row), _BLOCK):
        hi = min(lo + _BLOCK, len(row))
        row[lo:hi] = rho_block(lo, hi)


def _row(fill, l_max: int) -> np.ndarray:
    """Entries 0..l_max of the row that ``fill`` writes, read-only.

    ``fill`` writes the row a block of ``_BLOCK`` at a time, so the peak
    is the row plus a few blocks (a float64 log and its longdouble running
    sums, or the series' int64 l and two longdouble arrays).
    """
    require(l_max >= 1, "l_max must be >= 1")
    row = np.zeros(int(l_max) + 1)
    fill(row)
    row.setflags(write=False)
    return row


def log_factorial_row(l_max: int) -> np.ndarray:
    """L(l) for l = 0..l_max, read-only; builds no rho."""
    return _row(_fill_log_factorial, l_max)


def rho_row(l_max: int) -> np.ndarray:
    """rho(l) for l = 0..l_max, read-only; builds no L."""
    return _row(_fill_rho, l_max)


def log_factorial_table(l_max: int) -> StirlingTable:
    """Table of L(l), approx(l), rho(l), theta(l) for l = 1..l_max."""
    return StirlingTable(int(l_max), log_factorial_row(l_max), rho_row(l_max))
