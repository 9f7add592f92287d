"""Main-term evaluators, divisor-problem remainders and residual scans.

Exact summatory values come from the sieves; main terms are the displayed
asymptotic formulas with all zeta / zeta' / gamma constants evaluated by
the zeta module.  Because the error bounds carry no explicit constants,
order-of-growth claims are checked by calibration regression: the first
run freezes the normalized residuals over a standard geometric grid and
later runs must stay within 2x of the frozen maxima.

The paper's log averages and the summatory statistics behind them are
one kind of record, a ``Target``: an exact side with the exact Stirling
remainder its main term's theta slot stands for, the main term, a
normalizer and an optional mu-weighted Delta correction.  ``residual_scan``,
``main_term``, ``exact_value`` and ``summatory`` run every target through
the same steps.

The Stirling-remainder coefficient Theta is never fitted to a single
number.  Main terms take theta in [0, 1/12] as a parameter; scans report
residuals against both bracket ends and, as the calibrated quantity, the
residual after subtracting the exactly computed remainder component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._accum import dot, prefix_with_zero
from .errors import DomainError, require
from .identities import apostol_log_average_terms
from .stirling import THETA_HI, THETA_LO
from .tables import (DIVISOR_LOG, ID, MAX_SIEVE, MU, ONE, PHI, SIGMA, TAU,
                     VON_MANGOLDT, FunctionSpec, _capacity_cached,
                     convolve, id_pow, jordan, pointwise_pow_spec, sieve,
                     sieve_values, sigma_pow)
from .zeta import LOG_SQRT_2PI, constants


def _cut(x: float) -> int:
    require(x >= 1.0, "x must be >= 1")
    require(x <= MAX_SIEVE, f"x={x} beyond supported sieve range {MAX_SIEVE}")
    return int(math.floor(x))


def _prefix_build(spec: FunctionSpec, over_n: bool, log_ratio: bool,
                  n: int) -> np.ndarray:
    """Prefix sums of spec's values on 0..n, optionally weighted by
    log(m/e) and divided by m; entry m depends on nothing past m."""
    vals = sieve_values(spec, n)
    if log_ratio or over_n:
        vals, narr = vals.copy(), np.arange(1, n + 1, dtype=np.float64)
        if log_ratio:
            vals[1:] *= np.log(narr) - 1.0
        if over_n:
            vals[1:] /= narr
    return prefix_with_zero(vals)


def _prefix(spec: FunctionSpec, n: int, over_n: bool = False,
            log_ratio: bool = False) -> np.ndarray:
    key = ("prefix", spec, over_n, log_ratio)
    return _capacity_cached(
        key, n, lambda cap: _prefix_build(spec, over_n, log_ratio, cap))[:n + 1]


def top_down(fn, xs) -> list:
    """[fn(x) for x in xs], with the calls made in descending x.

    The first call then grows the cached tables to the largest size and
    the rest are served by slices of them; slices equal smaller builds
    bit for bit, so the results do not depend on the order.
    """
    order = sorted(range(len(xs)), key=lambda i: xs[i], reverse=True)
    out = [None] * len(xs)
    for i in order:
        out[i] = fn(xs[i])
    return out


# ---------------------------------------------------------------------------
# divisor-problem remainders


# n * tau(n); its prefix sums feed the Delta integral
_N_TAU = pointwise_pow_spec(TAU, 1.0)


def divisor_delta(x: float) -> float:
    """Delta(x) = sum_{n<=x} tau(n) - (x log x + (2 gamma - 1) x)."""
    n = _cut(x)
    gamma = constants().gamma
    exact = float(_prefix(TAU, n)[n])
    return exact - (x * math.log(x) + (2.0 * gamma - 1.0) * x)


def delta_integral_ratio(big_x: float) -> float:
    """(1/X) * integral_1^X Delta(y) dy, evaluated exactly.

    The step part integrates to X * T(X) - sum_{n<=X} n tau(n) with
    T(X) = sum_{n<=X} tau(n); the smooth part has a closed antiderivative.
    """
    require(big_x >= 2.0, "X must be >= 2")
    n = _cut(big_x)
    gamma = constants().gamma
    t_prefix = float(_prefix(TAU, n)[n])
    nt_prefix = float(_prefix(_N_TAU, n)[n])
    step_integral = big_x * t_prefix - nt_prefix

    def smooth_antiderivative(y: float) -> float:
        return (0.5 * y * y * math.log(y) - 0.25 * y * y
                + 0.5 * (2.0 * gamma - 1.0) * y * y)

    smooth = smooth_antiderivative(big_x) - smooth_antiderivative(1.0)
    return (step_integral - smooth) / big_x


def _require_a(a: float | None) -> float:
    if a is None:
        raise DomainError("this operation requires the exponent a")
    require(-1.0 < a < 0.0, f"a={a} outside (-1, 0)")
    return float(a)


def _sigma_a_smooth(y, a: float) -> np.ndarray:
    c = constants()
    return (c.zeta(1.0 - a) * y + c.zeta(1.0 + a) / (1.0 + a) * y ** (1.0 + a)
            - 0.5 * c.zeta(-a))


def divisor_delta_a(x: float, a: float) -> float:
    """Delta_a(x) = sum_{n<=x} sigma_a(n) - (zeta(1-a) x
    + zeta(1+a) x^(1+a)/(1+a) - zeta(-a)/2), for -1 < a < 0."""
    a = _require_a(a)
    n = _cut(x)
    exact = float(_prefix(sigma_pow(a), n)[n])
    return exact - float(_sigma_a_smooth(x, a))


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
    statistics; the weighted form corrects the log averages).

    It stays one term per n <= x, as each summand T(x/n) - smooth(x/n)
    cancels inside itself: a ``hyperbola_sum`` minus the smooth sum erred
    6.6e-10 (mu) and 3.9e-9 (mu*mu) relative to a longdouble oracle at
    x = 1e6, against 1.4e-11 and 2.6e-11 per term.
    """
    if kind not in _WEIGHT_SPECS:
        raise DomainError(f"unknown weight kind {kind!r}")
    n = _cut(x)
    narr = np.arange(1, n + 1, dtype=np.float64)
    w = sieve_values(_WEIGHT_SPECS[kind], n)[1:n + 1] / narr
    # floor(x/d) = floor(n/d) for integer d, so one integer path serves any x
    q = n // np.arange(1, n + 1, dtype=np.int64)
    y = x / narr
    gamma = constants().gamma
    if a is None:
        t_prefix = _prefix(TAU, n)
        deltas = t_prefix[q] - (y * np.log(y) + (2.0 * gamma - 1.0) * y)
    else:
        a = _require_a(a)
        s_prefix = _prefix(sigma_pow(a), n)
        deltas = s_prefix[q] - _sigma_a_smooth(y, a)
    total = dot(w, deltas)
    if log_factor:
        total *= math.log(x) - 1.0
    return total


# ---------------------------------------------------------------------------
# targets: an exact side and the displayed main term it is checked against


@dataclass(frozen=True)
class Normalizer:
    kind: str  # "log_pow" | "x_pow" | "const"
    power: float | None = 0.0  # None stands for the exponent a

    def at(self, a: float | None) -> "Normalizer":
        """This normalizer with the exponent a in place of a power of None."""
        return self if self.power is not None else Normalizer(self.kind, a)

    def value(self, x: float) -> float:
        if self.kind == "log_pow":
            return math.log(x) ** self.power
        if self.kind == "x_pow":
            return x ** self.power
        return 1.0

    def label(self) -> str:
        if self.kind == "log_pow":
            return f"log^{self.power:g}"
        if self.kind == "x_pow":
            return f"x^{self.power:g}"
        return "const"


@dataclass(frozen=True)
class Target:
    """A summatory quantity and the displayed main term it is checked against.

    ``parts(x, a)`` gives (exact, stirling_remainder): the exact side and
    the exactly computed component that the main term's Stirling slot
    stands for (0.0 where the main term has no slot).  ``main(x, a,
    theta)`` is the displayed main term with the slot at theta.  The
    mu-weighted Delta correction sums ``weight`` against Delta (Delta_a
    with ``delta_a``), times log(x/e) with ``log_factor``.  A log average
    keeps its (f, g) specs in ``pair(a)``; a statistic leaves it None.
    """

    name: str
    parts: object           # callable (x, a) -> (exact, stirling_remainder)
    main: object            # callable (x, a, theta) -> float
    normalizer: Normalizer
    needs_a: bool = False
    weight: str | None = None       # mu-weighted Delta correction kind
    delta_a: bool = False           # correction uses Delta_a
    log_factor: bool = True         # correction carries log(x/e)
    pair: object = None             # callable a -> (f, g) specs, or None

    def correction(self, x: float, a: float | None) -> float:
        """The mu-weighted Delta correction at x (0.0 where there is none)."""
        if self.weight is None:
            return 0.0
        return mu_delta_sum(x, self.weight, a if self.delta_a else None,
                            log_factor=self.log_factor)


def _stat_main(stat_name):
    C = constants()
    z2 = C.zeta2
    zp2 = C.zeta_prime_2
    g = C.gamma

    def id_phi(x, a):
        return x / z2 * math.log(x) + x / z2 * (2 * g - 1 - zp2 / z2)

    def phi_phi(x, a):
        return (x / z2 ** 2 * math.log(x)
                + x / z2 ** 2 * (2 * g - 1 - 2 * zp2 / z2))

    def idpow_phi(x, a):
        return (C.zeta(1 - a) / z2 * x
                + C.zeta(1 + a) / ((1 + a) * C.zeta(2 + a)) * x ** (1 + a))

    def jordan_phi(x, a):
        return (C.zeta(1 - a) / z2 ** 2 * x
                + C.zeta(1 + a) / ((1 + a) * C.zeta(2 + a) ** 2) * x ** (1 + a))

    def divisor_log(x, a):
        return math.log(x) ** 3 / 6.0 + 0.5 * g * math.log(x) ** 2

    def sigma_logne(x, a):
        return z2 * x * math.log(x) - 2 * z2 * x - 0.25 * math.log(x) ** 2

    def power_sum(x, a):
        return x ** (1 + a) / (1 + a) + C.zeta(-a)

    def jordan_over_n(x, a):
        return x ** (1 + a) / ((1 + a) * C.zeta(2 + a))

    def zero(x, a):
        return 0.0

    def phi_over_n(x, a):
        return x / z2

    def tau_over_n(x, a):
        return 0.5 * math.log(x) ** 2 + 2 * g * math.log(x)

    def sigma_over_n(x, a):
        return z2 * x - 0.5 * math.log(x)

    def id_lambda(x, a):
        return -zp2 / z2 * x

    def phi_lambda(x, a):
        return -zp2 / z2 ** 2 * x

    def idpow_lambda(x, a):
        return -C.zeta_prime(2 + a) / ((1 + a) * C.zeta(2 + a)) * x ** (1 + a)

    def jordan_lambda(x, a):
        return -C.zeta_prime(2 + a) / ((1 + a) * C.zeta(2 + a) ** 2) * x ** (1 + a)

    def id_jordan_m1(x, a):
        return C.zeta3 / z2 * x

    def phi_jordan_m1(x, a):
        return C.zeta3 / z2 ** 2 * x

    def idpow_jordan_m1(x, a):
        return C.zeta(3 + a) / ((1 + a) * C.zeta(2 + a)) * x ** (1 + a)

    def jordan_jordan_m1(x, a):
        return C.zeta(3 + a) / ((1 + a) * C.zeta(2 + a) ** 2) * x ** (1 + a)

    return locals()[stat_name]


def _statistics() -> dict[str, Target]:
    log = lambda p: Normalizer("log_pow", p)
    const = Normalizer("const")
    phi_m1 = jordan(-1.0)

    def stat(name, spec, over_n=True, norm=const, main_name=None,
             log_ratio=False, **kw):
        """A sieved prefix sum of spec(a) (or of spec), divided by n with
        ``over_n`` and weighted by log(n/e) with ``log_ratio``."""
        spec_at = spec if callable(spec) else lambda a: spec
        main = _stat_main(main_name or name)

        def parts(x, a):
            n = _cut(x)
            return float(_prefix(spec_at(a), n, over_n, log_ratio)[n]), 0.0

        return Target(name, parts, lambda x, a, theta: main(x, a), norm,
                      log_factor=False, **kw)

    defs = [
        stat("id_phi", convolve(ID, PHI), norm=log(1), weight="mu"),
        stat("phi_phi", convolve(PHI, PHI), norm=log(2), weight="mu_star_mu"),
        stat("idpow_phi", lambda a: convolve(id_pow(1 + a), PHI),
             needs_a=True, weight="mu", delta_a=True),
        stat("jordan_phi", lambda a: convolve(jordan(1 + a), PHI), norm=log(2),
             needs_a=True, weight="mu_star_mu", delta_a=True),
        stat("divisor_log", DIVISOR_LOG, norm=log(1)),
        stat("sigma_logne", SIGMA, norm=log(5 / 3), log_ratio=True),
        stat("power_sum", id_pow, over_n=False,
             norm=Normalizer("x_pow", None), needs_a=True),
        stat("jordan_over_n", lambda a: jordan(1 + a), needs_a=True),
        stat("sigma_minus1", sigma_pow(-1.0), norm=log(1), main_name="zero"),
        stat("phi_over_n", PHI, norm=log(2 / 3)),
        stat("tau_over_n", TAU),
        stat("sigma_over_n", SIGMA, norm=log(2 / 3)),
        stat("id_lambda", convolve(ID, VON_MANGOLDT), norm=log(1)),
        stat("phi_lambda", convolve(PHI, VON_MANGOLDT), norm=log(5 / 3)),
        stat("idpow_lambda", lambda a: convolve(id_pow(1 + a), VON_MANGOLDT),
             norm=log(1), needs_a=True),
        stat("jordan_lambda", lambda a: convolve(jordan(1 + a), VON_MANGOLDT),
             norm=log(1), needs_a=True),
        stat("id_jordan_m1", convolve(ID, phi_m1), norm=log(1)),
        stat("phi_jordan_m1", convolve(PHI, phi_m1), norm=log(5 / 3)),
        stat("idpow_jordan_m1", lambda a: convolve(id_pow(1 + a), phi_m1),
             needs_a=True),
        stat("jordan_jordan_m1", lambda a: convolve(jordan(1 + a), phi_m1),
             norm=log(1), needs_a=True),
    ]
    return {s.name: s for s in defs}


def _target_main(name):
    C = constants()
    z2, z3, zp2 = C.zeta2, C.zeta3, C.zeta_prime_2
    g = C.gamma
    ls2p = LOG_SQRT_2PI

    def tau_log_avg(x, a, theta):
        lx = math.log(x)
        return (z2 * x * lx - 2 * z2 * x + lx ** 3 / 12.0
                + (g - 1 + math.log(2 * math.pi)) / 4.0 * lx ** 2)

    def ramanujan_log_avg(x, a, theta):
        return (ls2p / z2 + zp2 / (2 * z2 ** 2) + theta / z3) * x

    def id_log_avg(x, a, theta):
        lx = math.log(x)
        return (x * lx ** 2 / z2
                + (2 * g - 3 - zp2 / z2) * x * lx / z2
                - (4 * g - 3 - 2 * zp2 / z2 + zp2 / 2 - theta * z3
                   - z2 * ls2p) * x / z2)

    def phi_log_avg(x, a, theta):
        lx = math.log(x)
        return (x * lx ** 2 / z2 ** 2
                + (2 * g - 3 - 2 * zp2 / z2) * x * lx / z2 ** 2
                - (4 * g - 3 - 4 * zp2 / z2 + zp2 / 2 - theta * z3
                   - z2 * ls2p) * x / z2 ** 2)

    def idpow_log_avg(x, a, theta):
        lx = math.log(x)
        z1ma = C.zeta(1 - a)
        z1pa = C.zeta(1 + a)
        z2pa = C.zeta(2 + a)
        zp2pa = C.zeta_prime(2 + a)
        z3pa = C.zeta(3 + a)
        xa = x ** (1 + a)
        return (z1ma / z2 * x * lx - 2 * z1ma / z2 * x
                + z1pa / ((1 + a) * z2pa) * xa * lx
                - ((2 + a) * z1pa / (1 + a) + zp2pa / 2 - theta * z3pa)
                / ((1 + a) * z2pa) * xa
                + ls2p / (1 + a) * xa)

    def jordan_log_avg(x, a, theta):
        lx = math.log(x)
        z1ma = C.zeta(1 - a)
        z1pa = C.zeta(1 + a)
        z2pa = C.zeta(2 + a)
        zp2pa = C.zeta_prime(2 + a)
        z3pa = C.zeta(3 + a)
        xa = x ** (1 + a)
        return (z1ma / z2 ** 2 * x * lx - 2 * z1ma / z2 ** 2 * x
                + z1pa / ((1 + a) * z2pa ** 2) * xa * lx
                - ((2 + a) * z1pa / (1 + a) + zp2pa / 2 - theta * z3pa)
                / ((1 + a) * z2pa ** 2) * xa
                + ls2p / ((1 + a) * z2pa) * xa)

    return locals()[name.replace("-", "_")]


def _scan_targets() -> dict[str, Target]:
    def target(name, pair, power, stirling=True, **kw):
        """The log average of the (f, g) = pair(a) sums; with ``stirling``
        the main term has a slot for the exact Stirling remainder."""
        def parts(x, a):
            n = _cut(x)
            f_spec, g_spec = pair(a)
            dec = apostol_log_average_terms(sieve(f_spec, n), sieve(g_spec, n),
                                            x)
            return dec.total, dec.remainder_term if stirling else 0.0

        return Target(name, parts, _target_main(name),
                      Normalizer("log_pow", power), pair=pair, **kw)

    defs = [
        target("tau-log-avg", lambda a: (ONE, ONE), 5 / 3, stirling=False),
        target("ramanujan-log-avg", lambda a: (ID, MU), 2),
        target("id-log-avg", lambda a: (PHI, ONE), 2, weight="mu"),
        target("phi-log-avg", lambda a: (convolve(PHI, MU), ONE), 3,
               weight="mu_star_mu"),
        target("idpow-log-avg", lambda a: (jordan(1 + a), ONE), 1,
               needs_a=True, weight="mu", delta_a=True),
        target("jordan-log-avg", lambda a: (convolve(jordan(1 + a), MU), ONE),
               3, needs_a=True, weight="mu_star_mu", delta_a=True),
    ]
    return {t.name: t for t in defs}


SCAN_TARGETS: dict[str, Target] = _scan_targets()
STATISTICS: dict[str, Target] = _statistics()


def _lookup(name: str, a: float | None,
            statistic: bool = False) -> tuple[Target, float | None]:
    """The entry named ``name`` (a statistic only, with ``statistic``) and
    the exponent to run it with, checked where the entry needs one.

    The registries are read at call time, so an entry replaced in them is
    the one that runs.
    """
    registries = (STATISTICS,) if statistic else (SCAN_TARGETS, STATISTICS)
    for registry in registries:
        if name in registry:
            t = registry[name]
            return t, _require_a(a) if t.needs_a else a
    raise DomainError(f"unsupported statistic {name!r}" if statistic
                      else f"unknown target {name!r}")


def summatory(statistic: str, x: float, a: float | None = None) -> tuple[float, float]:
    """(exact, main) for one summatory statistic at x."""
    t, a = _lookup(statistic, a, statistic=True)
    return t.parts(x, a)[0], t.main(x, a, THETA_LO)


def main_term(target: str, x: float, a: float | None = None,
              theta: float = 0.0) -> float:
    """Displayed main term of a target at x, Stirling slot at theta."""
    require(x > 1.0, "x must be > 1")
    require(THETA_LO <= theta <= THETA_HI, "theta outside [0, 1/12]")
    t, a = _lookup(target, a)
    return t.main(x, a, theta)


def exact_value(target: str, x: float, a: float | None = None) -> float:
    """Exact (sieved) summatory value of a target at x."""
    t, a = _lookup(target, a)
    return t.parts(x, a)[0]


# ---------------------------------------------------------------------------
# residual scans


@dataclass(frozen=True)
class ResidualScan:
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
    """Scan a target over an ascending grid of x values."""
    grid = np.asarray(list(grid), dtype=np.float64)
    require(len(grid) >= 1, "grid is empty")
    require(bool(np.all(np.diff(grid) > 0)), "grid must be strictly ascending")
    require(float(grid[0]) > 1.0, "grid points must exceed 1")
    require(float(grid[-1]) <= MAX_SIEVE, "grid beyond supported sieve range")

    t, a = _lookup(target, a)
    exact, rem = np.array(top_down(lambda x: t.parts(x, a), grid)).T
    main0 = np.array([t.main(x, a, THETA_LO) for x in grid])
    main_hi = np.array([t.main(x, a, THETA_HI) for x in grid])
    corr = np.array(top_down(lambda x: t.correction(x, a), grid))
    residual_hi = exact - main0 - corr
    residual = residual_hi - rem
    residual_lo = exact - main_hi - corr
    normalizer = t.normalizer.at(a)
    norms = np.array([normalizer.value(x) for x in grid])
    return ResidualScan(target=target, a=a, grid=grid, exact=exact,
                        main=main0, correction=corr + rem,
                        residual=residual, normalized=residual / norms,
                        residual_lo=residual_lo, residual_hi=residual_hi,
                        normalizer_label=normalizer.label())


def standard_grid(lo: float = 1e3, hi: float = 1e6, points: int = 7) -> np.ndarray:
    """Geometric grid rounded to integers so Delta(x/n) uses exact
    integer floors."""
    pts = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(np.int64))
    return pts.astype(np.float64)


# ---------------------------------------------------------------------------
# cross checks used by the acceptance suite


def tau_gcd_log_avg_routes(x: float) -> tuple[float, float]:
    """The tau-log-avg exact side computed two ways.

    Route one is the six-term decomposition's total; route two assembles
    the three sieved summatory statistics (sigma log(n/e), divisor-log,
    tau/n) plus the decomposition's exact Stirling remainder.  The routes
    share only that remainder, which the tests pin to a log-gamma oracle.
    """
    one = sieve(ONE, _cut(x))
    dec = apostol_log_average_terms(one, one, x)
    s1 = summatory("sigma_logne", x)[0]
    s2 = 0.5 * summatory("divisor_log", x)[0]
    s3 = LOG_SQRT_2PI * summatory("tau_over_n", x)[0]
    return dec.total, s1 + s2 + s3 + dec.remainder_term


_LIMIT_VARIANTS = {
    # target, log power p, limit constant factory
    "id": ("id-log-avg", 2, lambda C, a: 1.0 / C.zeta2),
    "phi": ("phi-log-avg", 2, lambda C, a: 1.0 / C.zeta2 ** 2),
    "idpow": ("idpow-log-avg", 1, lambda C, a: C.zeta(1 - a) / C.zeta2),
    "jordan": ("jordan-log-avg", 1, lambda C, a: C.zeta(1 - a) / C.zeta2 ** 2),
}


def limit_ratio(variant: str, x: float, a: float | None = None) -> float:
    """L(x; f) / (limit * x log^p x); tends to 1 as x grows."""
    if variant not in _LIMIT_VARIANTS:
        raise DomainError(f"unknown limit variant {variant!r}")
    target, p, limit_fn = _LIMIT_VARIANTS[variant]
    t, a = _lookup(target, a)
    value = t.parts(x, a)[0]
    limit = limit_fn(constants(), a)
    return value / (limit * x * math.log(x) ** p)


# ---------------------------------------------------------------------------
# calibration files


def default_calibration_path() -> Path:
    return Path(__file__).parent / "data" / "calibration.txt"


def load_calibration(path: Path | str | None = None) -> dict[tuple[str, str], float]:
    path = Path(path) if path is not None else default_calibration_path()
    out: dict[tuple[str, str], float] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        target, a_text, value = line.split(",")
        out[(target, a_text)] = float(value)
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
