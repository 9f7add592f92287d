"""Main-term evaluators, divisor-problem remainders and residual scans.

The paper's log averages and the summatory statistics behind them are
one kind of record, a ``Target``, whose exact side and main term are
data.  The exact side, ``sums(a)``, is a tuple of (scale, term list),
each list Dirichlet hyperbola sums over d*l <= x for
``identities._hyperbola_sums``, weights named (None, a spec or a table;
kind).  A log average's are ``identities.six_terms(f, g)``, the last its
exact Stirling remainder.  A statistic sum_{m<=x} (f * h)(m) / m is one
list, H(f(d)/d, h(l)/l): a weight of the constant 1 (the count for id,
l^a for id_{1+a}, 1/l, l^-2, log l / l) takes its closed-form g = 1
prefix, any other the v/m of its operand's blocks, so no statistic
sieves its product.  The main term, ``main(a, theta)``, is the displayed
formula as terms (p, j, c), each c x^p log^j x with p = 0, 1 or 1 + a
and j <= 3, the zeta / zeta' / gamma constants of c evaluated by the
zeta module; one evaluator, ``_value``, sums it, and the normalizer
x^p log^j x, at x.  ``residual_scan``, ``main_term`` and ``summatory``
run every target through the same steps; ``limit_ratio_grid`` divides
by a leading term.  Because the error bounds carry no explicit
constants, order-of-growth claims are checked by calibration
regression: the first run freezes the normalized residuals over a
standard geometric grid and later runs must stay within 2x of the
frozen maxima.

Each family of main terms is one term list in k, the count of factors
1/zeta(2) (or 1/zeta(2 + a)): k = 1 for f = id and id_{1+a}, k = 2 for
phi and phi_{1+a}, since phi = id * mu puts one more 1/zeta(s) in the
Dirichlet series.  A family written in a gives its id and phi members at
a = 0.0, whatever a they are handed.

The Stirling-remainder coefficient Theta is never fitted to a single
number.  Main terms take theta in [0, 1/12] as a parameter, read by one
coefficient, the Stirling slot.  Scans report residuals against both
bracket ends and, as the calibrated quantity, the residual after
subtracting the exactly computed remainder component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._accum import _BLOCK, dot, hyperbola_prefixes, hyperbola_sum, ramp
from .errors import DomainError, require
from .identities import _hyperbola_sums, _one_pairs, six_terms
from .tables import (ID, MU, PHI, VON_MANGOLDT, _primes_upto, blocks, convolve,
                     cut, jordan, sieve_values, sigma_pow)
from .zeta import LOG_SQRT_2PI, THETA_HI, THETA_LO, constants


def _floors(xs) -> list[int]:
    """floor(x) at each x of a grid that is not empty, the largest checked
    by ``cut`` first, so an x out of range fails before any table."""
    require(len(xs) > 0, "grid is empty")
    cut(max(xs))
    return [cut(x) for x in xs]


# ---------------------------------------------------------------------------
# divisor-problem remainders


def _require_a(a: float | None) -> float:
    if a is None:
        raise DomainError("this operation requires the exponent a")
    require(-1.0 < a < 0.0, f"a={a} outside (-1, 0)")
    return float(a)


def _sigma_a_smooth(y, a: float) -> np.ndarray:
    c = constants()
    return (c.zeta(1.0 - a) * y + c.zeta(1.0 + a) / (1.0 + a) * y ** (1.0 + a)
            - 0.5 * c.zeta(-a))


def _delta_sum(a: float | None):
    """(a checked, the kind w whose H(w, count) of the g = 1 pairs is the
    sum of tau, or of sigma_a with a, its smooth part by the log given)."""
    if a is None:
        slope = 2.0 * constants().gamma - 1.0
        return None, "v", lambda y, log=np.log: y * log(y) + slope * y
    a = _require_a(a)
    return a, "m^a", lambda y, log=None: _sigma_a_smooth(y, a)


def _delta_prefixes(ns, a: float | None):
    """(the pair at each n of ns, in any order, smooth part) of Delta's
    divisor sum: ``hyperbola_prefixes`` of the g = 1 pairs of one
    ``_one_pairs`` call over the distinct n; no sieve."""
    a, kind, smooth = _delta_sum(a)
    grid = sorted(set(ns))
    pairs = dict(zip(grid, (hyperbola_prefixes(n, p[kind], p["v"]) for n, p
                            in zip(grid, _one_pairs(grid, a, {kind, "v"})))))
    return [pairs[n] for n in ns], smooth


def divisor_delta_grid(xs, a: float | None = None) -> list[float]:
    """Delta(x) = sum_{n<=x} tau(n) - (x log x + (2 gamma - 1) x) at every
    x of xs, in any order, or with a, for -1 < a < 0, Delta_a(x) =
    sum_{n<=x} sigma_a(n) - (zeta(1-a) x + zeta(1+a) x^(1+a)/(1+a)
    - zeta(-a)/2), by H(count, count) or H(l^a, count) of the g = 1 pairs
    and no sieve; the largest x is checked first."""
    xs = list(xs)  # read twice, so an iterator is listed first
    a, kind, smooth = _delta_sum(a)
    ns = _floors(xs)
    grid = sorted(set(ns))
    sums = dict(zip(grid, _hyperbola_sums(
        grid, [[(1, (None, kind), (None, "v"))]], a)))
    # math.log, as np.log would round a few x otherwise
    return [sums[n][0] - float(smooth(x, math.log)) for x, n in zip(xs, ns)]


def divisor_delta(x: float) -> float:
    """Delta(x): the grid of one of ``divisor_delta_grid``."""
    return divisor_delta_grid([x])[0]


def divisor_delta_a(x: float, a: float) -> float:
    """Delta_a(x): the grid of one of ``divisor_delta_grid``."""
    return divisor_delta_grid([x], _require_a(a))[0]


def delta_integral_ratio(big_x: float) -> float:
    """(1/X) * integral_1^X Delta(y) dy, evaluated exactly.

    The step part integrates to X * T(X) - sum_{n<=X} n tau(n) with
    T(X) = sum_{n<=X} tau(n); the smooth part has a closed antiderivative.
    """
    require(big_x >= 2.0, "X must be >= 2")
    count = next(_one_pairs([cut(big_x)], None, ["v"]))["v"]
    # sum_{m<=n} m tau(m) = H(U, U), U(u) = u (u + 1) / 2; exact products
    u = tuple(v * (v + 1) / 2 for v in count)
    step_integral = (big_x * hyperbola_sum([(1, count, count)])
                     - hyperbola_sum([(1, u, u)]))
    slope = 2.0 * constants().gamma - 1.0
    at_x, at_1 = (0.5 * y * y * math.log(y) - 0.25 * y * y
                  + 0.5 * slope * y * y for y in (big_x, 1.0))
    return (step_integral - (at_x - at_1)) / big_x


def divisor_delta_a_series(x: float, a: float, n_terms: int) -> float:
    """Truncated cosine expansion of Delta_a(x) with n_terms terms."""
    a = _require_a(a)
    require(x >= 1.0, "x must be >= 1")
    require(n_terms >= 1, "n_terms must be >= 1")
    sig = sieve_values(sigma_pow(a), n_terms)
    narr = np.arange(1, n_terms + 1, dtype=np.float64)
    amp = sig[1:] * narr ** (-0.75 - 0.5 * a)
    phase = np.cos(4.0 * math.pi * np.sqrt(narr * x) - 0.25 * math.pi)
    return (x ** (0.25 + 0.5 * a) / (math.pi * math.sqrt(2.0))
            * dot(amp, phase))


_WEIGHT_SPECS = {"mu": MU, "mu_star_mu": convolve(MU, MU)}


def mu_delta_sum(x: float, kind: str, a: float | None = None,
                 log_factor: bool = True) -> float:
    """sum_{n<=x} w(n)/n * Delta(x/n) * log(x/e) with w = mu or mu*mu.

    With ``a`` given, Delta_a replaces Delta.  ``log_factor=False`` drops
    the log(x/e) factor (the bare form corrects the unweighted summatory
    statistics; the weighted form corrects the log averages).  The grid
    of one of ``mu_delta_grid``."""
    return mu_delta_grid([x], kind, a, log_factor)[0]


def mu_delta_grid(xs, kind: str, a: float | None = None,
                  log_factor: bool = True, primes=None) -> list[float]:
    """``mu_delta_sum`` at every x of xs, in any order: Delta's pairs at
    every x from ``_delta_prefixes``, which sieves nothing, then one pass
    over the weights' ``tables.blocks`` (the primes given, if any) up to
    the largest x, which is checked first.

    Each x stays one term per n <= x, as each summand T(x/n) - smooth(x/n)
    cancels inside itself: a ``hyperbola_sum`` minus the smooth sum erred
    6.6e-10 (mu) and 3.9e-9 (mu*mu) relative to a longdouble oracle at
    x = 1e6, against 1.4e-11 and 2.6e-11 per term.

    Peak memory: what the weight blocks share (the primes up to the
    largest x for mu*mu, up to its square root for mu), the weight fill's
    blocks, two blocks of ``_accum._BLOCK`` the pass owns (the weights and
    one x's Delta values), formed an eighth of n at a time, and Delta's
    pairs at every x, sum 2 (isqrt(n) + 1) floats; no x-length array.  Each block of weights is dotted against
    the Delta values of every x it reaches, one dot per (x, block), and
    each x's partial dots add by ``math.fsum``.  For x below ``_BLOCK`` + 1
    that is one dot, as in the whole-array form.  Past it the additions
    come in another order: on x = 1e5 to 1e7 the sum erred at most
    7.7e-16 times the sum of the terms' absolute values against their
    exact sum, where one dot over all terms erred up to 7.9e-15.
    """
    if kind not in _WEIGHT_SPECS:
        raise DomainError(f"unknown weight kind {kind!r}")
    xs = list(xs)  # read twice, so an iterator is listed first
    ns = _floors(xs)
    pairs, smooth = _delta_prefixes(ns, a)  # every x's, before wv's blocks
    top = max(ns)
    wv = blocks(_WEIGHT_SPECS[kind], top, primes).values
    weights, deltas = np.empty((2, min(_BLOCK, top)))  # the pass's
    narr = np.empty(min(_BLOCK // 8, top))
    partials = [[] for _ in ns]
    for lo in range(0, top, _BLOCK):
        size = min(_BLOCK, top - lo)
        wv.fill(weights[:size], lo + 1)
        for a in range(0, size, _BLOCK // 8):
            b = min(a + _BLOCK // 8, size)
            weights[a:b] /= ramp(narr[:b - a], lo + 1 + a)
        for i, (x, n, (p_lo, p_hi)) in enumerate(zip(xs, ns, pairs)):
            if n <= lo:
                continue
            hi = min(lo + _BLOCK, n)
            r = len(p_lo) - 1
            # floor(x/d) = floor(n/d) for integer d, so one integer path
            # serves any x; P(n // d) is p_hi[d] up to d = r, then
            # p_lo[n // d], n / d truncated (exact for n < 2^52)
            k = min(max(r - lo, 0), hi - lo)
            deltas[:k] = p_hi[lo + 1:lo + 1 + k]
            for a in range(0, hi - lo, _BLOCK // 8):
                b = min(a + _BLOCK // 8, hi - lo)
                m, j = ramp(narr[:b - a], lo + 1 + a), max(a, k)
                deltas[j:b] = p_lo[np.divide(n, m[j - a:]).astype(np.intp)]
                deltas[a:b] -= smooth(np.divide(x, m))
            partials[i].append(dot(weights[:hi - lo], deltas[:hi - lo]))
    out = [math.fsum(p) for p in partials]
    if log_factor:
        out = [v * (math.log(x) - 1.0) for v, x in zip(out, xs)]
    return out


# ---------------------------------------------------------------------------
# targets: an exact side and the displayed main term it is checked against


def _value(terms, x: float) -> float:
    """sum c x^p log^j x over the terms (p, j, c), by ``math.fsum``."""
    lx = math.log(x)
    return math.fsum(c * x ** p * lx ** j for p, j, c in terms)


def _norm(normalizer, a: float | None):
    """(the term list of a normalizer (p, j), p None read as a; its label)"""
    p, j = (a, normalizer[1]) if normalizer[0] is None else normalizer
    label = " ".join(f"{s}^{e:g}" for s, e in (("x", p), ("log", j)) if e)
    return ((p, j, 1.0),), label or "const"


# the one dataclass record: ``dataclasses.replace`` swaps a field of a
# registered target (perfbench's tracer wraps ``main`` so)
@dataclass(frozen=True)
class Target:
    """A summatory quantity and the displayed main term it is checked against.

    ``sums(a)`` and ``main(a, theta)`` are its two sides as data (see the
    module docstring).  ``parts(xs, a)`` runs the lists of ``sums(a)``
    for an ascending grid xs (one x is a grid of one) by one
    ``_hyperbola_sums`` call, one ``quotient_prefixes`` pass per table,
    and gives the float64 arrays (exact, stirling_remainder): at each x
    the ``math.fsum`` of the scaled lists, and the last list's value
    where the main term reads theta (0.0 elsewhere), the exact component
    its Stirling slot stands for.  Its peak holds a few blocks and what
    they share, no x-long array.  The mu-weighted Delta correction
    (``correction(xs, a)``, one ``mu_delta_grid`` call for a grid) sums
    ``weight`` against Delta (Delta_a where ``needs_a``), times log(x/e)
    for a log average.  Both take the primes up to the largest x, for
    the weight mu * mu to share.
    """

    name: str
    sums: object            # callable a -> ((scale, term list), ...)
    main: object            # callable (a, theta) -> ((p, j, c), ...)
    normalizer: tuple       # (p, j): x^p log^j x, p None for the exponent a
    needs_a: bool = False
    weight: str | None = None       # mu-weighted Delta correction kind

    def parts(self, xs, a: float | None,
              primes=None) -> tuple[np.ndarray, np.ndarray]:
        """(exact, stirling_remainder) at each x of xs, ascending."""
        scales, lists = zip(*self.sums(a))
        rows = scales * np.array(list(_hyperbola_sums(_floors(xs), lists, a,
                                                      primes)))
        stirling = self.main(a, THETA_LO) != self.main(a, THETA_HI)
        return (np.array([math.fsum(row) for row in rows]),
                rows[:, -1] if stirling else np.zeros(len(rows)))

    def correction(self, xs, a: float | None, primes=None) -> np.ndarray:
        """The mu-weighted Delta correction at each x of xs (0.0 if none)."""
        if self.weight is None:
            return np.zeros(len(xs))
        # a log average's last list, of rho(l)/l, puts log(x/e) on it
        last = [kind for _, *names in self.sums(a)[-1][1] for _, kind in names]
        return np.array(mu_delta_grid(xs, self.weight,
                                      a if self.needs_a else None,
                                      "v rho/m" in last, primes))


# main terms, one term list per family in k (see the module docstring); at
# a = 0.0, 1 + a is 1 and (1 + a) * z is z, bit for bit


def _log_avg_main(k: int):
    """The log average of f = id (k = 1) or phi (k = 2):
        x log^2 x / zeta(2)^k
        + (2 gamma - 3 - k zeta'(2)/zeta(2)) x log x / zeta(2)^k
        - (4 gamma - 3 - 2k zeta'(2)/zeta(2) + zeta'(2)/2 - Theta zeta(3)
           - zeta(2) log sqrt(2 pi)) x / zeta(2)^k."""
    def main(a, theta):
        C = constants()
        z2, zp2, g, zk = C.zeta2, C.zeta_prime_2, C.gamma, C.zeta2 ** k
        return ((1, 2, 1 / zk),
                (1, 1, (2 * g - 3 - k * zp2 / z2) / zk),
                (1, 0, -(4 * g - 3 - 2 * k * zp2 / z2 + zp2 / 2
                         - theta * C.zeta3 - z2 * LOG_SQRT_2PI) / zk))
    return main


def _pow_log_avg_main(k: int):
    """The log average of f = id_{1+a} (k = 1) or phi_{1+a} (k = 2), with
    Z = (1 + a) zeta(2 + a)^k:
        zeta(1-a)/zeta(2)^k x log x - 2 zeta(1-a)/zeta(2)^k x
        + zeta(1+a)/Z x^(1+a) log x
        - ((2+a) zeta(1+a)/(1+a) + zeta'(2+a)/2 - Theta zeta(3+a))/Z x^(1+a)
        + log sqrt(2 pi) / ((1 + a) zeta(2 + a)^(k-1)) x^(1+a)."""
    def main(a, theta):
        C = constants()
        zk, z1ma, z1pa, z2pa = (C.zeta2 ** k, C.zeta(1 - a), C.zeta(1 + a),
                                C.zeta(2 + a))
        big_z = (1 + a) * z2pa ** k
        return ((1, 1, z1ma / zk), (1, 0, -2 * z1ma / zk),
                (1 + a, 1, z1pa / big_z),
                (1 + a, 0, -((2 + a) * z1pa / (1 + a) + C.zeta_prime(2 + a) / 2
                             - theta * C.zeta(3 + a)) / big_z),
                (1 + a, 0, LOG_SQRT_2PI / ((1 + a) * z2pa ** (k - 1))))
    return main


def _phi_stat_main(k: int):
    """sum_{m<=x} (f * phi)(m) / m for f = id (k = 1) and phi (k = 2):
    x log x / zeta(2)^k + (2 gamma - 1 - k zeta'(2)/zeta(2)) x / zeta(2)^k."""
    def main(a):
        C = constants()
        zk = C.zeta2 ** k
        return ((1, 1, 1 / zk),
                (1, 0, (2 * C.gamma - 1 - k * C.zeta_prime_2 / C.zeta2) / zk))
    return main


def _pow_phi_stat_main(k: int):
    """The same for f = id_{1+a} (k = 1) and phi_{1+a} (k = 2):
    zeta(1-a)/zeta(2)^k x + zeta(1+a)/((1+a) zeta(2+a)^k) x^(1+a)."""
    def main(a):
        C = constants()
        return ((1, 0, C.zeta(1 - a) / C.zeta2 ** k),
                (1 + a, 0, C.zeta(1 + a) / ((1 + a) * C.zeta(2 + a) ** k)))
    return main


def _over_zeta_main(k: int, top):
    """sum_{m<=x} (f * h)(m) / m for f = id_{1+a} (k = 1) and phi_{1+a}
    (k = 2), where h's Dirichlet series is T(s) / zeta(s) and top(C, a)
    gives T(2 + a): T(2 + a)/((1 + a) zeta(2 + a)^k) x^(1+a), with T = 1
    for h = mu, -zeta'(2 + a) for h = Lambda, zeta(3 + a) for h =
    J_{-1}."""
    def main(a):
        C = constants()
        return ((1 + a, 0, top(C, a) / ((1 + a) * C.zeta(2 + a) ** k)),)
    return main


def _statistics() -> dict[str, Target]:
    """The summatory statistics, each one term list; ``stat`` runs the
    main term of an entry that takes no a at a = 0.0, as the id and phi
    members of the families written in a (``*_lambda``, ``*_jordan_m1``,
    ``*_over_n``) need."""
    phi_m1 = jordan(-1.0)
    C = constants()
    z2, g = C.zeta2, C.gamma
    lam = lambda k: _over_zeta_main(k, lambda C, a: -C.zeta_prime(2 + a))
    j_m1 = lambda k: _over_zeta_main(k, lambda C, a: C.zeta(3 + a))
    over_n = _over_zeta_main(1, lambda C, a: 1.0)  # phi (a = 0) and J_{1+a}

    def stat(name, terms, main, norm=(0, 0), needs_a=False, **kw):
        """The sum of terms (or of terms(a)) against main(a)."""
        at = terms if callable(terms) else lambda a: terms
        return Target(name, lambda a: ((1, at(a)),),
                      lambda a, theta: main(a if needs_a else 0.0),
                      norm, needs_a=needs_a, **kw)

    # sum_{m<=x} (f * h)(m) / m is H(f(d)/d, h(l)/l), which never sieves
    # f * h: f(m)/m is the count of 1 for f = id, m^a of 1 for id_{1+a}
    # and the v/m of any other f's blocks
    one = lambda kind: (None, kind)
    count, over = one("v"), lambda f: (f, "v/m")
    # the normalizer (0, j) is log^j x
    defs = [
        stat("id_phi", ((1, count, over(PHI)),), _phi_stat_main(1),
             norm=(0, 1), weight="mu"),
        stat("phi_phi", ((1, over(PHI), over(PHI)),), _phi_stat_main(2),
             norm=(0, 2), weight="mu_star_mu"),
        stat("idpow_phi", ((1, one("m^a"), over(PHI)),),
             _pow_phi_stat_main(1), needs_a=True, weight="mu"),
        stat("jordan_phi", lambda a: ((1, over(jordan(1 + a)), over(PHI)),),
             _pow_phi_stat_main(2), norm=(0, 2), needs_a=True,
             weight="mu_star_mu"),
        # sum_{d*l<=x} log(d) / (d l) ~ log^3 x / 6 + gamma log^2 x / 2
        stat("divisor_log", ((1, one("v log m/m"), one("v/m")),),
             lambda a: ((0, 3, 1 / 6), (0, 2, 0.5 * g)), norm=(0, 1)),
        # sum_{d*l<=x} (log d + log l - 1) / l
        #     ~ zeta(2) x log x - 2 zeta(2) x - log^2 x / 4
        stat("sigma_logne", ((1, one("v log m/m"), count),
                             (1, one("v/m"), one("v log m")),
                             (-1, one("v/m"), count)),
             lambda a: ((1, 1, z2), (1, 0, -2 * z2), (0, 2, -0.25)),
             norm=(0, 5 / 3)),
        # the l^a prefix at x ~ x^(1+a)/(1+a) + zeta(-a)
        stat("power_sum", ((1, one("m^a")),),
             lambda a: ((1 + a, 0, 1 / (1 + a)), (0, 0, C.zeta(-a))),
             norm=(None, 0), needs_a=True),
        stat("jordan_over_n", ((1, over(MU), one("m^a")),), over_n,
             needs_a=True),
        # sum_{d*l<=x} 1 / (d^2 l), O(log x): no main term
        stat("sigma_minus1", ((1, one("|v|/m^2"), one("v/m")),),
             lambda a: (), norm=(0, 1)),
        stat("phi_over_n", ((1, over(MU), count),), over_n, norm=(0, 2 / 3)),
        # sum_{d*l<=x} 1 / (d l) ~ log^2 x / 2 + 2 gamma log x and
        # sum_{d*l<=x} 1 / d ~ zeta(2) x - log x / 2
        stat("tau_over_n", ((1, one("v/m"), one("v/m")),),
             lambda a: ((0, 2, 0.5), (0, 1, 2 * g))),
        stat("sigma_over_n", ((1, one("v/m"), count),),
             lambda a: ((1, 0, z2), (0, 1, -0.5)), norm=(0, 2 / 3)),
        stat("id_lambda", ((1, count, over(VON_MANGOLDT)),), lam(1),
             norm=(0, 1)),
        stat("phi_lambda", ((1, over(PHI), over(VON_MANGOLDT)),), lam(2),
             norm=(0, 5 / 3)),
        stat("idpow_lambda", ((1, one("m^a"), over(VON_MANGOLDT)),), lam(1),
             norm=(0, 1), needs_a=True),
        stat("jordan_lambda", lambda a: (
            (1, over(jordan(1 + a)), over(VON_MANGOLDT)),), lam(2),
             norm=(0, 1), needs_a=True),
        stat("id_jordan_m1", ((1, count, over(phi_m1)),), j_m1(1),
             norm=(0, 1)),
        stat("phi_jordan_m1", ((1, over(PHI), over(phi_m1)),), j_m1(2),
             norm=(0, 5 / 3)),
        stat("idpow_jordan_m1", ((1, one("m^a"), over(phi_m1)),), j_m1(1),
             needs_a=True),
        stat("jordan_jordan_m1", lambda a: (
            (1, over(jordan(1 + a)), over(phi_m1)),), j_m1(2), norm=(0, 1),
             needs_a=True),
    ]
    return {s.name: s for s in defs}


def _scan_targets() -> dict[str, Target]:
    """The paper's log averages, each the lists of ``six_terms(f, g)`` for
    its (f, g) (None for 1, never sieved); id and phi share
    ``_log_avg_main``, id_{1+a} and phi_{1+a} ``_pow_log_avg_main``."""
    C = constants()
    z2, zp2 = C.zeta2, C.zeta_prime_2

    def target(name, pair, main, power, **kw):
        """The log average of (f, g) = pair(a), normalized by log^power x."""
        return Target(name, lambda a: six_terms(*pair(a)), main, (0, power),
                      **kw)

    defs = [
        # zeta(2) x log x - 2 zeta(2) x + log^3 x / 12
        # + (gamma - 1 + log 2 pi) / 4 log^2 x
        target("tau-log-avg", lambda a: (None, None), lambda a, theta: (
            (1, 1, z2), (1, 0, -2 * z2), (0, 3, 1 / 12),
            (0, 2, (C.gamma - 1 + math.log(2 * math.pi)) / 4.0)), 5 / 3),
        # (log sqrt(2 pi) / zeta(2) + zeta'(2) / (2 zeta(2)^2)
        # + Theta / zeta(3)) x
        target("ramanujan-log-avg", lambda a: (ID, MU), lambda a, theta: (
            (1, 0, LOG_SQRT_2PI / z2 + zp2 / (2 * z2 ** 2)
             + theta / C.zeta3),), 2),
        target("id-log-avg", lambda a: (PHI, None), _log_avg_main(1), 2,
               weight="mu"),
        target("phi-log-avg", lambda a: (convolve(PHI, MU), None),
               _log_avg_main(2), 3, weight="mu_star_mu"),
        target("idpow-log-avg", lambda a: (jordan(1 + a), None),
               _pow_log_avg_main(1), 1, needs_a=True, weight="mu"),
        target("jordan-log-avg",
               lambda a: (convolve(jordan(1 + a), MU), None),
               _pow_log_avg_main(2), 3, needs_a=True, weight="mu_star_mu"),
    ]
    return {t.name: t for t in defs}


SCAN_TARGETS: dict[str, Target] = _scan_targets()
STATISTICS: dict[str, Target] = _statistics()


def _lookup(name: str, a: float | None,
            statistic: bool = False) -> tuple[Target, float | None]:
    """The entry named ``name`` (a statistic only, with ``statistic``) and
    the exponent to run it with, checked where the entry needs one; an
    exponent given to an entry that takes none is refused.

    The registries are read at call time, so an entry replaced in them is
    the one that runs.
    """
    registries = (STATISTICS,) if statistic else (SCAN_TARGETS, STATISTICS)
    for registry in registries:
        if name in registry:
            t = registry[name]
            if t.needs_a:
                return t, _require_a(a)
            require(a is None, f"{name} takes no exponent a (got a={a})")
            return t, None
    raise DomainError(f"unsupported statistic {name!r}" if statistic
                      else f"unknown target {name!r}")


def summatory(statistic: str, x: float, a: float | None = None) -> tuple[float, float]:
    """(exact, main) for one summatory statistic at x."""
    t, a = _lookup(statistic, a, statistic=True)
    return float(t.parts([x], a)[0][0]), _value(t.main(a, THETA_LO), x)


def main_term(target: str, x: float, a: float | None = None,
              theta: float = 0.0) -> float:
    """Displayed main term of a target at x, Stirling slot at theta."""
    require(x > 1.0, "x must be > 1")
    require(THETA_LO <= theta <= THETA_HI, "theta outside [0, 1/12]")
    t, a = _lookup(target, a)
    return _value(t.main(a, theta), x)


# ---------------------------------------------------------------------------
# residual scans


class ResidualScan(NamedTuple):
    """Exact vs main values over a grid, with corrections and residuals.

    ``correction`` holds the mu-weighted Delta sum (where the formula has
    one) plus, for theta-bearing targets, the exact Stirling remainder
    component; ``residual = exact - main - correction`` is the calibrated
    quantity.  ``residual_lo``/``residual_hi`` bracket the residual with
    the remainder replaced by its theta = 1/12 and theta = 0 ends.
    """

    target: str
    a: float | None
    grid: np.ndarray
    exact: np.ndarray
    main: np.ndarray
    correction: np.ndarray
    residual: np.ndarray
    normalized: np.ndarray
    residual_lo: np.ndarray
    residual_hi: np.ndarray
    normalizer_label: str

    def max_normalized(self) -> float:
        return float(np.max(np.abs(self.normalized)))

    def rows(self):
        for i, x in enumerate(self.grid):
            yield (float(x), float(self.exact[i]), float(self.main[i]),
                   float(self.correction[i]), float(self.residual[i]),
                   float(self.normalized[i]))


def residual_scan(target: str, grid, a: float | None = None) -> ResidualScan:
    """Scan a target over an ascending grid of x values: its exact side
    and Delta correction, each one call for the whole grid."""
    grid = np.asarray(list(grid), dtype=np.float64)
    require(len(grid) >= 1, "grid is empty")
    require(bool(np.all(np.diff(grid) > 0)), "grid must be strictly ascending")
    require(float(grid[0]) > 1.0, "grid points must exceed 1")

    t, a = _lookup(target, a)
    # the largest x is checked first, so an x out of range fails before
    # any sieve; the exact side shares one list of the primes up to there
    # with the weight mu * mu (mu lists the few it needs itself)
    primes = (_primes_upto(cut(grid[-1])) if t.weight == "mu_star_mu"
              else None)
    exact, rem = t.parts(grid, a, primes)
    norm, label = _norm(t.normalizer, a)
    main0, main_hi, norms = (np.array([_value(terms, x) for x in grid])
                             for terms in (t.main(a, THETA_LO),
                                           t.main(a, THETA_HI), norm))
    corr = t.correction(grid, a, primes)
    residual_hi = exact - main0 - corr
    residual = residual_hi - rem
    residual_lo = exact - main_hi - corr
    return ResidualScan(target=target, a=a, grid=grid, exact=exact,
                        main=main0, correction=corr + rem,
                        residual=residual, normalized=residual / norms,
                        residual_lo=residual_lo, residual_hi=residual_hi,
                        normalizer_label=label)


def standard_grid(lo: float = 1e3, hi: float = 1e6, points: int = 7) -> np.ndarray:
    """Geometric grid rounded to integers so Delta(x/n) uses exact
    integer floors.  ``points`` goes through ``tables.cut`` before the
    grid is allocated."""
    points = cut(points)
    pts = np.sort(np.rint(np.geomspace(lo, hi, points)).astype(np.int64))
    # the repeats dropped by a diff mask: np.unique would import numpy.ma
    return pts[np.concatenate(([True], np.diff(pts) > 0))].astype(np.float64)


# ---------------------------------------------------------------------------
# cross checks used by the acceptance suite


def tau_gcd_log_avg_routes(x: float) -> tuple[float, float]:
    """The tau-log-avg exact side computed two ways, neither of which
    sieves.

    Route one is the total of ``six_terms(None, None)``.  Route two assembles
    the three summatory statistics the paper reduces tau-log-avg to
    (sigma log(n/e), divisor-log and tau/n, each a hyperbola sum of the
    g = 1 pairs) plus the decomposition's exact Stirling remainder.  Both
    read the pairs of ``identities._one_pairs``, closed forms above
    t(x) = min(max(isqrt(x), 1024), x), so they agree whether or not
    those prefixes are right: the routes check the six-term algebra and
    its regrouping into the statistics.  Both add by the one
    ``hyperbola_sum``, so route two's tau/n and divisor-log parts equal
    route one's const and half-log terms by bytes; what is left between
    the routes is the grouping of the first three terms into sigma
    log(n/e).  The prefixes themselves are checked elsewhere: each closed
    form against mpmath (``tests/oracles.py::mp_one_prefix``), and route
    two against the whole-array sums of the SIGMA, DIVISOR_LOG and TAU
    sieves at x <= 1e6.  The remainder is pinned to a log-gamma oracle.
    """
    six = six_terms(None, None)  # f = g = 1, and no remainder bound
    terms = [scale * s for (scale, _), s in zip(six, next(_hyperbola_sums(
        [cut(x)], [lists for _, lists in six])))]
    s1 = summatory("sigma_logne", x)[0]
    s2 = 0.5 * summatory("divisor_log", x)[0]
    s3 = LOG_SQRT_2PI * summatory("tau_over_n", x)[0]
    return math.fsum(terms), s1 + s2 + s3 + terms[-1]


_LIMIT_VARIANTS = {"id": "id-log-avg", "phi": "phi-log-avg",
                   "idpow": "idpow-log-avg", "jordan": "jordan-log-avg"}


def limit_ratio_grid(variant: str, xs, a: float | None = None) -> list[float]:
    """L(x; f) / (c x^p log^j x), the leading term of its main term, at
    every x of xs, in any order, from one exact-side pass
    (``Target.parts``) up to the largest x; it tends to 1 as x grows.
    Every x must exceed 1, where log x > 0, as for ``main_term``."""
    if variant not in _LIMIT_VARIANTS:
        raise DomainError(f"unknown limit variant {variant!r}")
    xs = list(xs)  # read twice, so an iterator is listed first
    require(all(x > 1.0 for x in xs), "x must be > 1")
    t, a = _lookup(_LIMIT_VARIANTS[variant], a)
    grid = sorted(xs)
    exact = dict(zip(grid, t.parts(grid, a)[0]))
    # the largest p, then the largest j: log x > 0 and 1 + a < 1
    p, j, c = max(t.main(a, THETA_LO), key=lambda term: term[:2])
    return [float(exact[x]) / (c * x ** p * math.log(x) ** j) for x in xs]


# ---------------------------------------------------------------------------
# calibration files


def default_calibration_path() -> Path:
    return Path(__file__).parent / "data" / "calibration.txt"


def load_calibration(path: Path | str | None = None) -> dict[tuple[str, str], float]:
    """The rows ``target,a,max_normalized`` of a calibration file, keyed
    by (target, a); a line that is not such a row is a DomainError naming
    the path and line number."""
    path = Path(path) if path is not None else default_calibration_path()
    out: dict[tuple[str, str], float] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            target, a_text, value = line.split(",")
            out[(target, a_text)] = float(value)
        except ValueError:
            raise DomainError(f"{path}:{number}: not a calibration row: "
                              f"{line!r}") from None
    return out


def write_calibration(rows, path: Path | str) -> None:
    lines = ["# target,a,max_normalized"]
    for target, a_text, value in rows:
        lines.append(f"{target},{a_text},{value:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def calibrate(grid=None, a: float = -0.5):
    """Compute the frozen regression rows over the standard grid."""
    grid = standard_grid() if grid is None else np.asarray(grid, float)
    rows = []
    for name, target in SCAN_TARGETS.items():
        use_a = a if target.needs_a else None
        scan = residual_scan(name, grid, use_a)
        a_text = f"{use_a:g}" if use_a is not None else ""
        rows.append((name, a_text, scan.max_normalized()))
    ratios = [abs(delta_integral_ratio(x)) for x in grid if x >= 2]
    rows.append(("delta-integral-ratio", "", max(ratios)))
    bound = max(summatory("sigma_minus1", x)[0] / math.log(x) for x in grid)
    rows.append(("sigma_minus1", "", bound))
    return rows
