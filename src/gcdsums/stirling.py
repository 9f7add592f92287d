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
l = SEED on the table evaluates the remainder series
1/(12 l) - 1/(360 l^3) + 1/(1260 l^5) - 1/(1680 l^7) (relative truncation
error < l^-8) in extended precision, and below that it runs the
cancellation-free backward recurrence

    rho(l-1) = rho(l) + t_l,   t_l = (l - 1/2) log(l / (l-1)) - 1,

seeded at l = SEED, where each t_l = sum_{i>=1} x^{2i} / (2i+1)
with x = 1/(2l-1) is a positive fast-converging series.

log_factorial itself is the prefix sum of log m by ``_accum.prefix_rows``,
carried like every other prefix (``_accum.chained_sums``), so identity
checks elsewhere reuse one consistent L(l) array.

Each row is built at the l_max asked for, read-only, and freed with its
last reference; entry l depends on nothing past l, so a row equals the
first l_max + 1 entries of a wider row bit for bit.  Neither row reads
the other: the per-k audits read L alone (``log_factorial_row``), and
``log_factorial_table`` is the public view of both.  The Dirichlet series
build no row: they sum L eighth by eighth by the same rule, with the
row's bytes.  The scans build no rho row: they form rho a block at a
time (``rho_block``, which fills the row too), so their blocks equal the
row's entries bit for bit.  approx and theta are derived from l and rho
when read; the package itself reads only L and rho.

``one_weight_sums`` gives the prefix sums of the g = 1 weights of the
six-term expansion (1, log l, log l / l, 1/l, rho(l)/l, 1/l^2), and of
l^a for -1 < a < 0, each asked for, in closed form above each n's own
t(n) = min(max(isqrt(n), 1024), n): L(v) by Stirling and the remainder
series, and the others by Euler-Maclaurin.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._accum import _BLOCK, prefix_rows
from .errors import require
from .tables import _Frozen
from .zeta import LOG_SQRT_2PI

# rho(l) is the remainder series from l = SEED on and the backward
# recurrence below it; the closed forms of ``one_weight_sums`` hold from
# here on
SEED = 1024

# x^{2i}/(2i+1) with x <= 1/(2*2-1); 20 terms reach relative 1e-19
_SERIES_TERMS = 20
# coefficients of the remainder series in 1/l^2, highest power first
_REMAINDER_COEFFS = tuple(np.longdouble(1) / c for c in (-1680, 1260, -360, 12))
# B_2, B_4, B_6, B_8 and B_10 as (numerator, denominator): the
# Euler-Maclaurin forms in ``one_weight_sums`` read them through B_8, that
# of l^a through B_10
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66))


class StirlingValue(NamedTuple):
    l: int
    log_factorial: float
    approx: float
    rho: float
    theta: float


class StirlingTable(_Frozen):
    """L(l) and rho(l) indexed by l (slot 0 unused), read-only.

    approx and theta are derived from them on read, as new read-only
    arrays: nothing in the package reads them, so they are not stored.
    """

    __slots__ = ("l_max", "log_factorial", "rho")

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


def _ld(num: int, den: int) -> np.longdouble:
    """num/den in longdouble: the numerator of the reduced fraction over
    its denominator."""
    g = math.gcd(num, den)
    return np.longdouble(num // g) / (den // g)


def _power_sum_coeffs(s: int) -> list[np.longdouble]:
    """B_2k/(2k)! (s)_(2k-1), k = 1..4, with (s)_m the rising factorial
    s (s+1) ... (s+m-1): the coefficients of ``_power_sum``."""
    return [_ld(b * math.prod(range(s, s + 2 * k - 1)),
                d * math.factorial(2 * k))
            for k, (b, d) in enumerate(_BERNOULLI[:4], 1)]


def _real_power_coeffs() -> list[np.longdouble]:
    """B_2k/(2k)!, k = 1..5: the coefficients of ``_real_power_sum``
    before the falling factorials of a."""
    return [_ld(b, d * math.factorial(2 * k))
            for k, (b, d) in enumerate(_BERNOULLI, 1)]


def _harmonic(m: int) -> tuple[int, int]:
    """H_m = 1 + 1/2 + ... + 1/m as (numerator, denominator)."""
    num, den = 0, 1
    for i in range(1, m + 1):
        num, den = num * i + den, den * i
    return num, den


def _harmonic_coeffs() -> list[tuple[np.longdouble, np.longdouble]]:
    """(B_2k/(2k), H_(2k-1)), k = 1..4: the coefficients of the 1/l and
    log l / l forms of ``one_weight_sums``."""
    return [(_ld(b, d * 2 * k), _ld(*_harmonic(2 * k - 1)))
            for k, (b, d) in enumerate(_BERNOULLI[:4], 1)]


def _power_sum(u: np.ndarray, s: int) -> np.ndarray:
    """Phi_s(v) = v^(1-s)/(1-s) + v^-s/2 - sum_k B_2k/(2k)! (s)_(2k-1)
    v^(1-s-2k) at u = 1/v, for an integer s >= 2: the Euler-Maclaurin
    form, through B_8, of sum_{l<=v} l^-s up to a constant."""
    w = u * u
    acc = np.zeros_like(u)
    for c in reversed(_power_sum_coeffs(s)):
        acc += c
        acc *= w
    acc = 0.5 * u - acc
    acc -= np.longdouble(1) / (s - 1)
    for _ in range(s - 1):
        acc *= u
    return acc


def _real_power_sum(v: np.ndarray, a: float) -> np.ndarray:
    """Phi_a(v) = v^(1+a)/(1+a) + v^a/2 + sum_k B_2k/(2k)! (a)_(2k-1)
    v^(a-2k+1), k = 1..5, at each longdouble v, with (a)_m the falling
    factorial a (a-1) ... (a-m+1): the Euler-Maclaurin form, through
    B_10, of sum_{l<=v} l^a for -1 < a < 0, less its constant zeta(-a)."""
    a = np.longdouble(a)
    w = np.reciprocal(v * v)
    acc = np.zeros_like(v)
    for k, c in reversed(list(enumerate(_real_power_coeffs(), 1))):
        for i in range(2 * k - 1):
            c *= a - i
        acc *= w
        acc += c
    acc /= v
    acc += v / (1 + a) + np.longdouble(0.5)
    return acc * np.power(v, a)


def one_weight_sums(v: np.ndarray, kinds, a: float | None = None) -> list[np.ndarray]:
    """Phi(v) for each g = 1 weight of ``kinds`` (of 1, log l, log l / l,
    1/l, rho(l)/l, 1/l^2 and l^a, with the a given), in longdouble, at
    each integer v >= SEED: sum_{l<=v} of the weight up to a constant of
    its own, so Phi(v) - Phi(t) is the sum over t < l <= v.  Only the
    kinds asked, named as in ``identities._KINDS`` with v = 1, are
    formed, in the order asked.

    - 1: v, exactly;
    - log l: log v! by Stirling, (v + 1/2) log v - v plus the remainder
      series, less log sqrt(2 pi);
    - log l / l, 1/l, l^-2 and rho(l)/l = sum_j c_j l^-2j (the remainder
      series' own coefficients): Euler-Maclaurin through B_8, with
      d^m/dl^m (log l / l) = (-1)^m m! (log l - H_m) / l^(m+1);
    - l^a: ``_real_power_sum``, through B_10.

    From v, t >= SEED = 1024 on, every first omitted term is
    below 1e-30 (the largest, 1/(1188 t^9) of the Stirling series, is
    7e-31; the B_10 term of log l / l is 3e-32, and the B_12 term of l^a
    below 2e-35), far below the longdouble rounding of Phi.
    """
    v = np.asarray(v, dtype=np.int64)
    u = np.reciprocal(v.astype(np.longdouble))
    lg = (np.log(v.astype(np.longdouble))
          if {"v log m", "v log m/m", "v/m"} & set(kinds) else None)

    def tail(coeff):  # sum_k coeff(B_2k/(2k), H_(2k-1)) v^-2k, by Horner
        acc = np.zeros_like(u)
        for b, h in reversed(_harmonic_coeffs()):
            acc += coeff(b, h)
            acc *= u * u
        return acc

    forms = {
        "v": lambda: v.astype(np.longdouble),
        "v log m": lambda: ((v + np.longdouble(0.5)) * lg - v
                            + _remainder_series(v)),
        "v log m/m": lambda: 0.5 * lg * (lg + u) - tail(
            lambda b, h: b * (lg - h)),
        "v/m": lambda: lg + 0.5 * u - tail(lambda b, h: b),
        "v rho/m": lambda: sum(c * _power_sum(u, 2 * j) for j, c in
                               enumerate(reversed(_REMAINDER_COEFFS), 1)),
        "|v|/m^2": lambda: _power_sum(u, 2),
        "m^a": lambda: _real_power_sum(v.astype(np.longdouble), a),
    }
    return [forms[kind]() for kind in kinds]


def _rho_below_seed() -> np.ndarray:
    """rho(l) for l = 1..SEED - 1 in longdouble, by the backward
    recurrence seeded with the series at l = SEED."""
    # rho(l) = rho(SEED) + sum_{j=l+1..SEED} t_j, accumulated high-to-low
    t = _transition_terms(np.arange(2, SEED + 1))
    rho = np.cumsum(t[::-1].astype(np.longdouble))[::-1]
    rho += _remainder_series(np.arange(SEED, SEED + 1))[0]
    return rho


def _logs(lo: int, hi: int) -> tuple[np.ndarray]:
    """log l for l = lo..hi-1, the one weight whose prefix sums are L."""
    return (np.log(np.arange(lo, hi, dtype=np.float64)),)


def rho_block(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """rho(l) for l = lo..hi-1 (lo >= 1) as float64, the entries of the
    rho row, written into out: the backward recurrence below SEED and the
    remainder series from there on, an eighth of ``_BLOCK`` at a time, so
    that its longdouble temporaries stay small."""
    below = min(max(SEED - lo, 0), hi - lo)
    if below:
        out[:below] = _rho_below_seed()[lo - 1:lo - 1 + below]
    for a in range(lo + below, hi, _BLOCK // 8):
        b = min(a + _BLOCK // 8, hi)
        out[a - lo:b - lo] = _remainder_series(np.arange(a, b))
    return out


def _fill_rho(row: np.ndarray) -> None:
    """row[l] = rho(l) for l = 1..len(row) - 1, a block of ``_BLOCK`` at a
    time."""
    for lo in range(1, len(row), _BLOCK):
        hi = min(lo + _BLOCK, len(row))
        rho_block(lo, hi, row[lo:hi])


def _row(fill, l_max: int) -> np.ndarray:
    """Entries 0..l_max of the row that ``fill`` writes, read-only.

    ``fill`` works an eighth of ``_BLOCK`` at a time, so the peak is the
    row plus under a block (the l, their float64 logs and the longdouble
    workspace of ``prefix_rows``).
    """
    require(l_max >= 1, "l_max must be >= 1")
    row = np.zeros(int(l_max) + 1)
    fill(row)
    row.setflags(write=False)
    return row


def log_factorial_row(l_max: int) -> np.ndarray:
    """L(l) for l = 0..l_max, read-only: the prefix sums of log l by
    ``_accum.prefix_rows``, rounded once; builds no rho."""
    return _row(lambda row: prefix_rows(_logs, len(row) - 1, row[None]),
                l_max)


def log_factorial_table(l_max: int) -> StirlingTable:
    """Table of L(l), approx(l), rho(l), theta(l) for l = 1..l_max."""
    return StirlingTable(int(l_max), log_factorial_row(l_max),
                         _row(_fill_rho, l_max))
