"""Truncated Dirichlet series of log-weighted gcd sums vs closed forms.

With F(s) = sum f(k)/k^s, G(s) = sum g(k)/k^s and
G_L(s) = sum g(k) L(k)/k^s (L(k) = log k!), the per-k identity for
u(k) = sum_{j<=k} s_k(j) log j factorizes term by term into

    U(s) = sum u(k)/k^s = -F'(s) G(s-1) + F(s) G_L(s),

absolutely convergent for Re s > max(sigma_f, sigma_g + 1).  Expanding
L(k) by the Stirling form turns G_L into
-G'(s-1) - G(s-1) - G'(s)/2 + log sqrt(2 pi) G(s) + Theta G(s+1) with
Theta in (0, 1/12), which gives bracketed closed forms once F and G are
zeta quotients.  Everything here is evaluated with both sides truncated
at the same K; convergence-trend assertions replace absolute equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accum import _BLOCK, ascending, hyperbola_sum, quotient_prefixes, ramp
from .errors import require
from .identities import _with_mu
from .stirling import THETA_HI, THETA_LO, log_factorial_row
from .tables import FunctionTable, abscissa, cut
from .zeta import LOG_SQRT_2PI, constants

# coefficient of the (1 + log K)^2 / K^(s-2) truncation allowance; the
# catalog u(k) grow like k log^2 k times an O(1) factor, so the tail of
# sum u(k)/k^s beyond K is below this for the pairs used here
_TAIL_COEFF = 10.0


@dataclass(frozen=True)
class SeriesComparison:
    s: float
    truncation: int
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class ThetaBracket:
    s: float
    truncation: int
    lhs: float
    lo: float
    hi: float
    allowance: float

    @property
    def contains(self) -> bool:
        return self.lo <= self.lhs <= self.hi


def _powers(lo: int, hi: int, s: float) -> np.ndarray:
    """l^-s for l = lo..hi-1."""
    return np.arange(lo, hi, dtype=np.float64) ** (-s)


def dirichlet_partial_sum(f: FunctionTable, s: float, k_max: int,
                          log_weight: bool = False) -> float:
    """sum_{k<=K} f(k) (log k)^w / k^s with w = 0 or 1.

    Note F'(s) = -(the log-weighted sum).
    """
    cut(k_max, f)
    return _power_sum(f.values[1:k_max + 1].copy(), s, log_weight)


def _power_sum(terms: np.ndarray, s: float, log_weight: bool = False) -> float:
    """np.sum of terms[k - 1] k^-s (log k)^w for k = 1..len(terms), w = 0
    or 1, in terms itself: the powers and logs are formed an eighth of
    ``_BLOCK`` at a time, with the products and sum of the whole-K forms,
    so no other K-length array is made."""
    for lo in range(1, len(terms) + 1, _BLOCK // 8):
        part = terms[lo - 1:lo - 1 + _BLOCK // 8]
        part *= _powers(lo, lo + len(part), s)
        if log_weight:
            part *= np.log(np.arange(lo, lo + len(part), dtype=np.float64))
    return float(np.sum(terms))


def log_factorial_partial_sum(g: FunctionTable, s: float, k_max: int) -> float:
    """sum_{k<=K} g(k) L(k) / k^s with exact L(k) = log k!."""
    cut(k_max, g)
    return _log_factorial_dot(g, log_factorial_row(k_max), s, k_max)


def _log_factorial_dot(g: FunctionTable, lf: np.ndarray, s: float,
                       k_max: int) -> float:
    """``log_factorial_partial_sum`` with the log l! row lf given."""
    return _power_sum(g.values[1:k_max + 1] * lf[1:k_max + 1], s)


def _u_partial_sum(f: FunctionTable, g: FunctionTable | None, s: float,
                   ks, lf: np.ndarray | None = None) -> list[float]:
    """sum_{k<=K} u(k) k^-s at each K of ks (ascending) as the hyperbola
    sums over d*l <= K of
    (f(d) log d d^-s) (g(l) l^(1-s)) + (f(d) d^-s) (g(l) L(l) l^-s).

    g given as None is the constant 1.  The four weights are formed a
    block of ``_accum._BLOCK`` at a time, with the products and powers of
    the whole-K forms, and one ``quotient_prefixes`` pass up to the
    largest K serves every K, as no weight depends on K.  So the peak is
    the tables it reads (f and g), the log l! row (built here unless given
    as lf, with at least max(ks) + 1 entries) and a few blocks; no other
    K-length array is formed.
    """
    k_max = max(ks)
    if lf is None:
        lf = log_factorial_row(k_max)
    fv, gv = f.values, None if g is None else g.values
    buf = np.empty((3, min(_BLOCK, k_max)))  # a row is rewritten once read

    def weights(lo, hi):
        # log l equals the LOG sieve, and the powers _powers(1, K + 1, .),
        # bit for bit
        lg, p, w = buf[:, :hi - lo]
        np.log(ramp(lg, lo), out=lg)
        p = ramp(p, lo)
        p **= -s
        g = np.ones(hi - lo) if gv is None else gv[lo:hi]
        yield np.multiply(np.multiply(fv[lo:hi], lg, out=w), p, out=w)
        q = ramp(lg, lo)
        q **= -(s - 1.0)
        yield np.multiply(g, q, out=q)
        yield np.multiply(fv[lo:hi], p, out=w)
        yield np.multiply(np.multiply(g, lf[lo:hi], out=w), p, out=w)

    return [hyperbola_sum([(1, w_log, c_id), (1, w, c_lf)])
            for w_log, c_id, w, c_lf in quotient_prefixes(weights, ks)]


def series_identity_compare(f: FunctionTable, g: FunctionTable, s: float,
                            k_max: int) -> SeriesComparison:
    """Truncated U(s) against -F'(s) G(s-1) + F(s) G_L(s) at the same K:
    the grid of one of ``series_identity_grid``."""
    return series_identity_grid(f, g, s, [k_max])[0]


def series_identity_grid(f: FunctionTable, g: FunctionTable, s: float,
                         ks) -> list[SeriesComparison]:
    """``series_identity_compare`` at each K of ks (ascending), from one
    log l! row at the largest K for both sides and one pass for every
    lhs: the bytes of the comparisons at each K alone."""
    alpha = max(abscissa(f.spec), abscissa(g.spec) + 1.0)
    require(alpha < s < math.inf,
            f"s={s} not finite or in the divergence region (need s > {alpha})")
    ks = [cut(k, f, g) for k in ascending(ks)]
    lf = log_factorial_row(ks[-1])
    rhs = [dirichlet_partial_sum(f, s, k, log_weight=True)
           * dirichlet_partial_sum(g, s - 1.0, k)
           + dirichlet_partial_sum(f, s, k) * _log_factorial_dot(g, lf, s, k)
           for k in ks]
    return [SeriesComparison(s, k, lhs, r) for k, lhs, r
            in zip(ks, _u_partial_sum(f, g, s, ks, lf), rhs)]


def _tail_allowance(s: float, k_max: int) -> float:
    return _TAIL_COEFF * (1.0 + math.log(k_max)) ** 2 * k_max ** (2.0 - s)


def _zetas(s: float) -> tuple[float, float, float, float, float]:
    """zeta(s), zeta'(s), zeta(s-1), zeta'(s-1) and zeta(s+1), the values
    both closed forms read."""
    C = constants()
    return (C.zeta(s), C.zeta_prime(s), C.zeta(s - 1.0),
            C.zeta_prime(s - 1.0), C.zeta(s + 1.0))


def series_theta_bracket(f: FunctionTable, s: float, k_max: int) -> ThetaBracket:
    """Truncated U_{f*mu,1}(s) against its zeta closed form bracket.

    rhs(theta) = (F z' - F' z) z(s-1)/z^2 - (z(s-1) + z'(s-1)) F/z
                 - F z'/(2 z) + log sqrt(2 pi) F + theta F z(s+1)/z

    evaluated with F, F' truncated at K and exact zeta values; the
    interval is [rhs(0), rhs(1/12)] widened by the truncation allowance.
    f*mu is built up to K only.
    """
    require(max(abscissa(f.spec), 2.0) < s < math.inf,
            f"s={s} too small for the bracket, or not finite")
    lhs, = _u_partial_sum(_with_mu(f, cut(k_max, f)), None, s, [k_max])

    big_f = dirichlet_partial_sum(f, s, k_max)
    big_f_prime = -dirichlet_partial_sum(f, s, k_max, log_weight=True)
    z, zp, zm1, zpm1, zp1 = _zetas(s)

    def rhs(theta: float) -> float:
        return ((big_f * zp - big_f_prime * z) * zm1 / z ** 2
                - (zm1 + zpm1) * big_f / z
                - big_f * zp / (2.0 * z)
                + LOG_SQRT_2PI * big_f
                + theta * big_f * zp1 / z)

    allowance = _tail_allowance(s, k_max)
    return ThetaBracket(s, k_max, lhs, rhs(THETA_LO) - allowance,
                        rhs(THETA_HI) + allowance, allowance)


@dataclass(frozen=True)
class MuSeriesReport:
    """Numerical comparison of two closed-form candidates for U_{id,mu}(s).

    Both equal z(s-1) z'(s)/(2 z(s)^2) + log sqrt(2 pi) z(s-1)/z(s)
    + Theta z(s-1)/z(s+1) plus a trailing part; the candidates differ in
    that trailing part:

      constant_tail:  -1
      ratio_tail:     -z'(s-1)/z(s-1) + (z(s)/z(s-1)) (z'(s-1)/z(s-1) - 1)

    The report carries the truncated series value and each candidate's
    bracket so callers can see which one the data supports.
    """

    s: float
    truncation: int
    lhs: float
    constant_tail_lo: float
    constant_tail_hi: float
    ratio_tail_lo: float
    ratio_tail_hi: float
    allowance: float

    @property
    def matches_constant_tail(self) -> bool:
        return self.constant_tail_lo <= self.lhs <= self.constant_tail_hi

    @property
    def matches_ratio_tail(self) -> bool:
        return self.ratio_tail_lo <= self.lhs <= self.ratio_tail_hi


def mu_series_report(s: float, k_max: int, id_table: FunctionTable,
                     mu_table: FunctionTable) -> MuSeriesReport:
    """Compare truncated U_{id,mu}(s) against both closed-form candidates."""
    require(2.0 < s < math.inf, "the id,mu series needs a finite s > 2")
    cut(k_max, id_table, mu_table)
    lhs, = _u_partial_sum(id_table, mu_table, s, [k_max])
    z, zp, zm1, zpm1, zp1 = _zetas(s)
    head = lambda theta: (zm1 * zp / (2.0 * z ** 2) + LOG_SQRT_2PI * zm1 / z
                          + theta * zm1 / zp1)
    constant_tail = -1.0
    ratio_tail = -zpm1 / zm1 + (z / zm1) * (zpm1 / zm1 - 1.0)
    allowance = _tail_allowance(s, k_max)
    return MuSeriesReport(
        s, k_max, lhs,
        head(THETA_LO) + constant_tail - allowance,
        head(THETA_HI) + constant_tail + allowance,
        head(THETA_LO) + ratio_tail - allowance,
        head(THETA_HI) + ratio_tail + allowance,
        allowance,
    )
