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

Both sides come from one blocked pass (``_passes``): the four weights of
the lhs's hyperbola sums have as prefix sums at K the truncated -F'(s),
G(s-1), F(s) and G_L(s) of the rhs, read as the hi[0] of their pairs, so
a K list costs one pass up to its largest K and every sum follows the
one rule of ``_accum.chained_sums``.  The weights are formed an eighth
of a block at a time, L(l) summed from eighth to eighth by the same
rule, and each table is served by an ``_accum.reader``: the pass holds
one block per table of ``tables.Blocks`` and a few eighths, and no
K-length array and no log l! row is built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._accum import (_BLOCK, ascending, chained_sums, hyperbola_sum,
                     quotient_prefixes, ramp, reader)
from .errors import require
from .tables import FunctionTable, _with_mu, abscissa, blocks, cut
from .zeta import LOG_SQRT_2PI, THETA_HI, THETA_LO, constants

# coefficient of the (1 + log K)^2 / K^(s-2) truncation allowance; the
# catalog u(k) grow like k log^2 k times an O(1) factor, so the tail of
# sum u(k)/k^s beyond K is below this for the pairs used here
_TAIL_COEFF = 10.0


class SeriesComparison(NamedTuple):
    s: float
    truncation: int
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


class ThetaBracket(NamedTuple):
    s: float
    truncation: int
    lhs: float
    lo: float
    hi: float
    allowance: float

    @property
    def contains(self) -> bool:
        return self.lo <= self.lhs <= self.hi


def _weights(f: FunctionTable | None, g: FunctionTable | None, s: float,
             k_max: int, h: FunctionTable | None = None):
    """The ``weights(lo, hi)`` of one ``quotient_prefixes`` pass for
    sum u(k) k^-s up to k_max: where a table h is given, h(d) log d d^-s
    and h(d) d^-s, whose sums at K are -H'(s) and H(s); then f(d) log d
    d^-s, f(d) d^-s, g(l) l^(1-s) and g(l) L(l) l^-s, whose sums at K are
    the truncated -F'(s), F(s), G(s-1) and G_L(s).

    f, g and h are tables (arrays or ``tables.Blocks``) or None, the
    constant 1, each served by an ``_accum.reader`` of its own.  The pass
    asks for an eighth of ``_BLOCK`` at a time, in ascending order from
    1, and the writer forms it in three eighths of its own: log l, l^-s,
    and the log weights and then L(l) (l^(1-s) is written over log l once
    no weight reads it).  L(l) = log l! is carried from eighth to eighth
    by ``chained_sums``, after f's weights, every entry carried as
    ``stirling.log_factorial_row``'s are, so it has the row's bytes and
    no row is built.
    """
    *reads, read_g = [reader(None if t is None else t.values, k_max)
                      for t in ((f, g) if h is None else (h, f, g))]
    lg, p, lf = np.empty((3, min(_BLOCK // 8, k_max)))
    sums = np.empty(min(_BLOCK // 8, k_max), np.longdouble)
    carry = [np.longdouble(0.0)] * 2  # L(lo - 1)

    def weights(lo, hi):
        n = hi - lo
        # log l equals the LOG sieve, and the powers the whole-K ones,
        # bit for bit
        lgs = np.log(ramp(lg[:n], lo), out=lg[:n])
        ps, lfs = ramp(p[:n], lo), lf[:n]
        ps **= -s
        for read in reads:
            w = read(lo, hi)
            yield np.multiply(np.multiply(w, lgs, out=lfs), ps, out=lfs)
            yield np.multiply(w, ps, out=w)
        # L(l), into the eighth the log weights were written to
        part, before = chained_sums(lgs, carry, sums)
        lfs[:] = np.add(part, before, out=part)
        c = read_g(lo, hi)
        q = ramp(lgs, lo)
        q **= -(s - 1.0)
        yield np.multiply(c, q, out=q)
        yield np.multiply(np.multiply(c, lfs, out=lfs), ps, out=lfs)

    return weights


def _passes(f, g, s: float, ks, h=None):
    """For each K of ks (ascending), the lhs sum_{k<=K} u(k) k^-s and the
    sums at K of the pass's weights: -H'(s) and H(s) where h is given,
    else -F'(s), G(s-1), F(s) and G_L(s), each the hi[0] of its pair
    (the pass forms them in the order of ``_weights``).
    The lhs is the hyperbola sums over d*l <= K of
    (f(d) log d d^-s) (g(l) l^(1-s)) + (f(d) d^-s) (g(l) L(l) l^-s),
    from one ``quotient_prefixes`` pass up to the largest K for every K,
    as no weight depends on K.  It holds the tables it is given, or what
    their blocks share, the readers' and the writer's buffers and the
    pairs; no K-length array."""
    ks = ascending(ks)
    for pairs in quotient_prefixes(lambda: _weights(f, g, s, ks[-1], h), ks):
        sums = [float(hi[0]) for _, hi in pairs]
        f_log, f_sum, g_id, g_lf = sums[-4:]
        yield (hyperbola_sum([(1, *pairs[-4::2]), (1, *pairs[-3::2])]),
               [f_log, g_id, f_sum, g_lf] if h is None else sums[:2])


def _u_partial_sum(f: FunctionTable | None, g: FunctionTable | None, s: float,
                   ks) -> list[float]:
    """sum_{k<=K} u(k) k^-s at each K of ks (ascending): the lhs of
    ``_passes``; g given as None is the constant 1."""
    return [lhs for lhs, _ in _passes(f, g, s, ks)]


def series_identity_compare(f: FunctionTable, g: FunctionTable, s: float,
                            k_max: int) -> SeriesComparison:
    """Truncated U(s) against -F'(s) G(s-1) + F(s) G_L(s) at the same K:
    the grid of one of ``series_identity_grid``."""
    return series_identity_grid(f, g, s, [k_max])[0]


def series_identity_grid(f: FunctionTable, g: FunctionTable, s: float,
                         ks) -> list[SeriesComparison]:
    """``series_identity_compare`` at each K of ks (ascending), both sides
    from one pass: the lhs, and the rhs from the prefix sums at K of the
    lhs's own weights, so the bytes of the comparisons at each K alone."""
    alpha = max(abscissa(f.spec), abscissa(g.spec) + 1.0)
    require(alpha < s < math.inf,
            f"s={s} not finite or in the divergence region (need s > {alpha})")
    ks = [cut(k, f, g) for k in ascending(ks)]
    return [SeriesComparison(s, k, lhs, f_log * g_id + f_sum * g_lf)
            for k, (lhs, (f_log, g_id, f_sum, g_lf))
            in zip(ks, _passes(f, g, s, ks))]


def _tail_allowance(s: float, k_max: int) -> float:
    return _TAIL_COEFF * (1.0 + math.log(k_max)) ** 2 * k_max ** (2.0 - s)


def _zetas(s: float) -> tuple[float, float, float, float, float]:
    """zeta(s), zeta'(s), zeta(s-1), zeta'(s-1) and zeta(s+1), the values
    both closed forms read."""
    C = constants()
    return (C.zeta(s), C.zeta_prime(s), C.zeta(s - 1.0),
            C.zeta_prime(s - 1.0), C.zeta(s + 1.0))


def series_theta_bracket(f: FunctionTable, s: float,
                         ks) -> list[ThetaBracket]:
    """Truncated U_{f*mu,1}(s) against its zeta closed form bracket, at
    each K of ks (ascending).

    rhs(theta) = (F z' - F' z) z(s-1)/z^2 - (z(s-1) + z'(s-1)) F/z
                 - F z'/(2 z) + log sqrt(2 pi) F + theta F z(s+1)/z

    evaluated with F, F' truncated at K and exact zeta values; the
    interval is [rhs(0), rhs(1/12)] widened by the truncation allowance.
    The blocks of f*mu, prepared up to the largest K only, and of f are
    read in one pass, for the lhs and for F and F' at every K alike.
    """
    require(max(abscissa(f.spec), 2.0) < s < math.inf,
            f"s={s} too small for the bracket, or not finite")
    ks = [cut(k, f) for k in ascending(ks)]
    z, zp, zm1, zpm1, zp1 = _zetas(s)

    def bracket(k, lhs, f_log, big_f):
        big_f_prime = -f_log
        lo, hi = ((big_f * zp - big_f_prime * z) * zm1 / z ** 2
                  - (zm1 + zpm1) * big_f / z
                  - big_f * zp / (2.0 * z)
                  + LOG_SQRT_2PI * big_f
                  + theta * big_f * zp1 / z for theta in (THETA_LO, THETA_HI))
        allowance = _tail_allowance(s, k)
        return ThetaBracket(s, k, lhs, lo - allowance, hi + allowance,
                            allowance)

    return [bracket(k, lhs, *sums) for k, (lhs, sums) in zip(
        ks, _passes(blocks(_with_mu(f.spec), ks[-1]), None, s, ks, f))]


class MuSeriesReport(NamedTuple):
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


def mu_series_report(s: float, ks, id_table: FunctionTable,
                     mu_table: FunctionTable) -> list[MuSeriesReport]:
    """Compare truncated U_{id,mu}(s) against both closed-form candidates
    at each K of ks (ascending), from one pass."""
    require(2.0 < s < math.inf, "the id,mu series needs a finite s > 2")
    ks = [cut(k, id_table, mu_table) for k in ascending(ks)]
    z, zp, zm1, zpm1, zp1 = _zetas(s)
    lo, hi = (zm1 * zp / (2.0 * z ** 2) + LOG_SQRT_2PI * zm1 / z
              + theta * zm1 / zp1 for theta in (THETA_LO, THETA_HI))
    constant_tail = -1.0
    ratio_tail = -zpm1 / zm1 + (z / zm1) * (zpm1 / zm1 - 1.0)

    def report(k, lhs):
        allowance = _tail_allowance(s, k)
        return MuSeriesReport(s, k, lhs, lo + constant_tail - allowance,
                              hi + constant_tail + allowance,
                              lo + ratio_tail - allowance,
                              hi + ratio_tail + allowance, allowance)

    return [report(k, lhs) for k, lhs in
            zip(ks, _u_partial_sum(id_table, mu_table, s, ks))]
