"""Gcd-sum identities and their summatory log-weighted averages.

Core objects, for tables f, g and integers k, j:

- ``anderson_apostol(f, g, k, j)``: s_k(j) = sum_{d | gcd(k,j)} f(d) g(k/d);
  the Ramanujan sum c_k(j) is the special case f = id, g = mu.
- ``apostol_log_sum*``: u(k) = sum_{j<=k} s_k(j) log j, computed either by
  the brute-force sum over every j <= k (oracle) or through the exact
  identity

      u(k) = (f.log * g.id)(k) + (f * g.L)(k),      L(m) = log m!,

  which is the production path for summatory work.
- ``apostol_log_average(f, g, x)``: sum_{k<=x} u(k)/k, and its exact
  six-term expansion over pairs d*l <= x obtained by replacing L(l) with
  the Stirling form l log l - l + (1/2) log l + log sqrt(2 pi) + rho(l)
  (``apostol_log_average_terms``), one Dirichlet hyperbola sum per term
  (``_accum.hyperbola_sum``, the one kernel for pairs d*l <= x).
  Scans take it for a whole grid from one pass
  (``apostol_log_average_grid``), for both the exact side and the
  Stirling remainder; the per-k sum is the reference it is checked
  against.  For g = 1 every g-side prefix is a smooth function of l, so
  above a table of max(isqrt(x), 1024) entries it is a closed form
  (Stirling and Euler-Maclaurin) and the pass sieves only the f side.
- ``gcd_log_average(f, x)``: sum_{k<=x} (1/k) sum_{j<=k} f(gcd(k,j)) log j,
  evaluated as the (f*mu, 1) case of the above since
  sum_{d | gcd} (f*mu)(d) = f(gcd).
- ``cesaro_*``: the unweighted identity sum_{j<=k} f(gcd(j,k)) = (f*phi)(k)
  and its summatory average.

The brute-force sides (``apostol_log_sum_direct``, ``toth_identity``'s
lhs, ``cesaro_*``'s lhs) still visit every j <= k, in a scratch buffer of
k floats; gcd(j, k) is found by divisor strides rather than by Euclid.
For each divisor m of k, taken in ascending order, s_k(m) (apostol) or
f(m) (cesaro) is stored to every multiple of m, so the last store to j
comes from the largest divisor of k dividing j, which is gcd(j, k): sigma(k)
strided stores and tau(k) Python iterations per k.  Toth's lhs forms
c_k(j) = sum_{d | (j,k)} d mu(k/d) by its definition instead: the d = 1
term stored, then one strided add of d mu(k/d) per d > 1 with
mu(k/d) != 0; its values are integers, so the adds are exact.

Each audit has one per-k kernel, given D[m] = the divisors of each m | k.
The ``*_audits`` batches that ``identity`` runs take D from one
``divisor_lists`` sieve, build each table once and share one scratch
buffer of kmax floats; a table passed as a list of Python floats gives
the same IEEE products as numpy scalars.  The public per-k functions
build no sieve: they take log m from ``np.log`` (the LOG sieve's bytes),
log d from ``math.log`` as the batches do, and mu, phi and Lambda at the
divisors of k from the divisors themselves, mu and phi as exact integers,
so their values equal the batches' bit for bit.

All sums over x cut at floor(x); an integer x includes k = x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._accum import (_BLOCK, ascending, block_of, dot, fsum, hyperbola_sum,
                     prefix_with_zero, quotient_prefixes, ramp, running_sum)
from .errors import require
from .stirling import SEED, log_factorial_row, one_weight_sums, rho_block
from .tables import (LOG, MU, PHI, VON_MANGOLDT, FunctionSpec, FunctionTable,
                     convolve, cut, divisor_lists, divisors_of, nonnegative,
                     sieve, sieve_values)
from .zeta import LOG_SQRT_2PI


@dataclass(frozen=True)
class GcdSumResult:
    """Direct vs identity-based value of sum_j s_k(j) log j."""

    k: int
    direct: float
    via_identity: float
    abs_gap: float


@dataclass(frozen=True)
class AverageDecomposition:
    """The six exact components of sum_{k<=x} u(k)/k over pairs d*l <= x.

    log_d_term       sum (f(d) log d / d) g(l)
    log_l_term       sum (f(d)/d) g(l) log l
    unit_term        -sum (f(d)/d) g(l)
    half_log_term    (1/2) sum (f(d)/d) g(l) log l / l
    const_term       log sqrt(2 pi) * sum (f(d)/d) g(l)/l
    remainder_term   sum (f(d)/d) g(l) rho(l)/l   (exact Stirling remainder)

    remainder_bound is (1/12) sum |f(d)|/d |g(l)|/l^2, which dominates
    |remainder_term| because 0 < rho(l) < 1/(12 l).
    """

    x: float
    log_d_term: float
    log_l_term: float
    unit_term: float
    half_log_term: float
    const_term: float
    remainder_term: float
    remainder_bound: float

    @property
    def terms(self) -> tuple[float, ...]:
        return (self.log_d_term, self.log_l_term, self.unit_term,
                self.half_log_term, self.const_term, self.remainder_term)

    @property
    def total(self) -> float:
        return fsum(self.terms)


def anderson_apostol(f: FunctionTable, g: FunctionTable, k: int, j: int) -> float:
    """s_k(j) = sum_{d | gcd(k,j)} f(d) g(k/d)."""
    cut(k, f, g)
    require(j >= 1, "j must be >= 1")
    m = math.gcd(k, j)
    return fsum(f.values[d] * g.values[k // d] for d in divisors_of(m))


def ramanujan_sum(k: int, j: int) -> int:
    """c_k(j) = sum_{d | gcd(j,k)} d mu(k/d), exact integer arithmetic."""
    require(k >= 1 and j >= 1, "k and j must be >= 1")
    from .tables import mobius_of
    m = math.gcd(k, j)
    return sum(d * mobius_of(k // d) for d in divisors_of(m))


def _gather_by_gcd(values: np.ndarray, divs: list[int], k: int,
                   buf: np.ndarray) -> np.ndarray:
    """out[j-1] = values[gcd(j, k)] for j = 1..k, by divisor strides, in
    out, the head of buf (a float64 buffer of at least k entries).

    ``divs`` holds the divisors of k, ascending: a later, larger divisor m
    overwrites the multiples of m, so slot j ends with the largest divisor
    of k that divides j.
    """
    out = buf[:k]
    for m in divs:
        out[m - 1::m] = values[m]
    return out


def _apostol_direct(fv, gv, logs: np.ndarray, k: int, D, buf) -> float:
    divs = D[k]
    term = {d: fv[d] * gv[k // d] for d in divs}.__getitem__
    out = buf[:k]
    for m in divs:  # ascending, as in the gather: slot j ends with s_k(gcd)
        out[m - 1::m] = fsum(map(term, D[m]))
    return dot(logs[1:k + 1], out)


def _apostol_identity(fv, gv, lf, lg, k: int, D) -> float:
    return fsum(fv[d] * (lg[d] * gv[l] * l + gv[l] * lf[l])
                for d, l in zip(D[k], reversed(D[k])))  # l = k/d


def _toth_sides(mu, logs: np.ndarray, lam_k, lf, k: int, D,
                buf) -> tuple[float, float]:
    # c_k(j) = sum_{d | (j,k)} d mu(k/d): the d = 1 term stored, then one
    # strided add per d > 1 with mu(k/d) != 0; exact, as its values are
    # integers below 2^53
    divs = D[k]
    c = buf[:k]
    c.fill(mu[k])
    for d in divs[1:]:
        m = mu[k // d]
        if m:
            c[d - 1::d] += d * m
    lhs = dot(logs[1:k + 1], c) / k
    return lhs, float(lam_k) + fsum(mu[d] / d * lf[d] for d in divs if mu[d])


def _cesaro_sides(fv: np.ndarray, phi, k: int, D, buf) -> tuple[float, float]:
    return (float(_gather_by_gcd(fv, D[k], k, buf).sum()),
            fsum(fv[d] * phi[k // d] for d in D[k]))


def _divisor_map(k: int) -> dict[int, list[int]]:
    """D[m] = the divisors of m, ascending, for each m | k."""
    divs = divisors_of(k)
    return {m: [d for d in divs if m % d == 0] for m in divs}


def _mobius_on(D) -> dict[int, int]:
    """mu(m) for each m | k, exact, from D = ``_divisor_map(k)`` (whose
    keys ascend): sum_{d|m} mu(d) is 1 at m = 1 and 0 past it."""
    mu = {}
    for m, divs in D.items():
        mu[m] = 1 if m == 1 else -sum(mu[d] for d in divs[:-1])
    return mu


def _logs(k: int) -> np.ndarray:
    """log m in slot m = 1..k (slot 0 holds 0), the LOG sieve's bytes."""
    logs = np.zeros(k + 1)
    np.log(np.arange(1, k + 1, dtype=np.float64), out=logs[1:])
    return logs


def apostol_log_sum_direct(f: FunctionTable, g: FunctionTable, k: int) -> float:
    """Brute-force sum_{j<=k} s_k(j) log j over every j; the oracle path."""
    cut(k, f, g)
    return _apostol_direct(f.values, g.values, _logs(k), k, _divisor_map(k),
                           np.empty(k))


def apostol_log_sum(f: FunctionTable, g: FunctionTable, k: int) -> float:
    """sum_{j<=k} s_k(j) log j through the exact log-factorial identity."""
    cut(k, f, g)
    lf = log_factorial_row(k)
    D = _divisor_map(k)
    lg = {d: math.log(d) for d in D}
    return _apostol_identity(f.values, g.values, lf, lg, k, D)


def log_sum_audit(f: FunctionTable, g: FunctionTable, k: int) -> GcdSumResult:
    direct = apostol_log_sum_direct(f, g, k)
    ident = apostol_log_sum(f, g, k)
    return GcdSumResult(k, direct, ident, abs(direct - ident))


def toth_identity(k: int) -> tuple[float, float]:
    """Both sides of the log-weighted Ramanujan-sum average identity.

    lhs = (1/k) sum_{j<=k} c_k(j) log j
    rhs = Lambda(k) + sum_{d|k} (mu(d)/d) log d!
    """
    cut(k)
    D = _divisor_map(k)
    divs = D[k]
    # k = p^e exactly when its divisors are 1, p, ..., p^e
    lam_k = (math.log(divs[1]) if k > 1 and divs[1] ** (len(divs) - 1) == k
             else 0.0)
    return _toth_sides(_mobius_on(D), _logs(k), lam_k, log_factorial_row(k),
                       k, D, np.empty(k))


def cesaro_identity(f: FunctionTable, k: int) -> tuple[float, float]:
    """sum_{j<=k} f(gcd(j,k)) against (f*phi)(k)."""
    cut(k, f)
    D = _divisor_map(k)
    mu = _mobius_on(D)
    phi = {m: sum(mu[d] * (m // d) for d in D[m]) for m in D}  # mu * id
    return _cesaro_sides(f.values, phi, k, D, np.empty(k))


def _batch(kernel, D):
    """kernel(k, buf) for k = 1..kmax, with one scratch buffer of kmax
    floats for every k; D[k] is dropped once 2k > kmax (its last use)."""
    kmax = len(D) - 1
    buf = np.empty(kmax)
    for k in range(1, kmax + 1):
        yield kernel(k, buf)
        if 2 * k > kmax:
            D[k] = None


def apostol_audits(f: FunctionTable, g: FunctionTable, kmax: int):
    """(``apostol_log_sum_direct``, ``apostol_log_sum``) for k = 1..kmax."""
    cut(kmax, f, g)
    D, logs = divisor_lists(kmax), _logs(kmax)
    fv, gv = f.values[:kmax + 1].tolist(), g.values[:kmax + 1].tolist()
    lf = log_factorial_row(kmax).tolist()
    lg = [0.0, *map(math.log, range(1, kmax + 1))]
    return _batch(lambda k, buf: (_apostol_direct(fv, gv, logs, k, D, buf),
                                  _apostol_identity(fv, gv, lf, lg, k, D)), D)


def toth_audits(kmax: int):
    """``toth_identity(k)`` for k = 1..kmax."""
    D, logs = divisor_lists(kmax), _logs(kmax)
    mu = sieve_values(MU, kmax).astype(np.int64).tolist()
    lam = sieve_values(VON_MANGOLDT, kmax)
    lf = log_factorial_row(kmax).tolist()
    return _batch(lambda k, buf: _toth_sides(mu, logs, lam[k], lf, k, D, buf),
                  D)


def cesaro_audits(f: FunctionTable, kmax: int):
    """``cesaro_identity(f, k)`` for k = 1..kmax."""
    cut(kmax, f)
    D, phi = divisor_lists(kmax), sieve_values(PHI, kmax).tolist()
    return _batch(lambda k, buf: _cesaro_sides(f.values, phi, k, D, buf), D)


# ---------------------------------------------------------------------------
# summatory averages


def identity_sum_table(fv: np.ndarray, gv: np.ndarray | None,
                       log_fact: np.ndarray, n: int) -> np.ndarray:
    """u(k) for all k <= n via the identity, one strided update per
    d <= r = isqrt(n), then one per l <= r, descending, for all d > r.

    u(k) = sum_{d*l = k} (f(d) log d) (g(l) l) + f(d) (g(l) log l!), added
    in ascending d; the per-d log is ``math.log``; gv None is 1.  Rows with
    f(d) = 0 are skipped.  Reference only: it serves the per-k
    ``apostol_log_average``; summatory values and the series partial sums
    are hyperbola sums over d*l <= n instead.
    """
    larr = np.arange(n + 1, dtype=np.float64)
    g = np.ones(n + 1) if gv is None else gv[:n + 1]
    g_id = g * larr
    g_lf = g * log_fact[:n + 1]
    u = np.zeros(n + 1)
    ds = np.flatnonzero(fv[1:n + 1]) + 1
    r = math.isqrt(n)
    for d in ds[ds <= r].tolist():
        m = n // d
        u[d::d] += (fv[d] * math.log(d)) * g_id[1:m + 1] + fv[d] * g_lf[1:m + 1]
    ds = ds[ds > r]
    f = fv[ds]
    f_log = f * np.fromiter(map(math.log, ds.tolist()), np.float64, len(ds))
    for l in range(n // (r + 1), 0, -1):
        c = np.searchsorted(ds, n // l, side="right")
        u[ds[:c] * l] += f_log[:c] * g_id[l] + f[:c] * g_lf[l]
    return u


def apostol_log_average(f: FunctionTable, g: FunctionTable | None,
                        x: float) -> float:
    """sum_{k<=x} u(k)/k with u through the identity path; g None is 1."""
    n = cut(x, f, g)
    lf = log_factorial_row(n)
    u = identity_sum_table(f.values, None if g is None else g.values, lf, n)
    k = np.arange(1, n + 1, dtype=np.float64)
    return dot(u[1:], 1.0 / k)


def _g_weights(gv: np.ndarray | None, lo: int, hi: int, buf: np.ndarray,
               a: float | None = None):
    """The g-side weights at l = lo..hi-1: g, g log, g log/l, g/l, g rho/l
    and |g|/l^2, one after another, then l^a where a is given (the bytes
    of the ``idpow:a`` sieve's power), each in a row of buf that is
    rewritten once read; gv None is the constant 1."""
    g, lg, inv, out = buf[:, :hi - lo]
    block_of(gv, lo, g)
    np.log(ramp(inv, lo), out=lg)  # equal to the LOG sieve bit for bit
    np.divide(1.0, inv, out=inv)
    yield g
    yield np.multiply(g, lg, out=out)
    gi = np.multiply(g, inv, out=g)
    yield np.multiply(gi, lg, out=out)
    yield gi
    rho = rho_block(lo, hi, lg)
    yield np.multiply(rho, gi, out=rho)
    yield np.multiply(np.abs(gi, out=out), inv, out=out)
    if a is not None:
        yield np.power(ramp(out, lo), a, out=out)


def _f_weights(fv: np.ndarray, lo: int, hi: int, buf: np.ndarray,
               signed: bool = True):
    """The f-side weights at d = lo..hi-1: f/d, f log d/d and, for a signed
    f, |f|/d, in the two rows of buf (d is counted twice, for 1/d and log d)."""
    w, lg = buf[:, :hi - lo]
    np.divide(1.0, ramp(lg, lo), out=lg)
    yield np.multiply(block_of(fv, lo, w), lg, out=w)
    yield np.multiply(w, np.log(ramp(lg, lo), out=lg), out=lg)
    if signed:
        yield np.abs(w, out=lg)


def _one_pairs(ns, a: float | None = None):
    """The ``on_quotients`` pairs of the six g-side weights for g = 1 (1,
    log l, log l / l, 1/l, rho(l)/l and 1/l^2), then of l^a where a is
    given, at each n of ns (ascending), with no pass past
    t = min(max(isqrt(max n), 1024), max n).

    Up to t, the weights of ``_g_weights`` are summed a block at a time
    by ``running_sum``, so every prefix P(v) at v <= t has the bytes of
    the pass over all of 1..n.  Above t, P(v) = P(t) + Phi(v) - Phi(t)
    with the longdouble P(t) of that sum and the closed forms Phi of
    ``stirling.one_weight_sums``, rounded once: the count is exact, and
    every other entry is within an ulp of the pass's.  It holds six (or
    seven) (t + 1)-float tables and, per n, its pairs and a few longdouble
    arrays of isqrt(n) + 1 entries; nothing of length n.
    """
    ns = ascending(ns)
    t = min(max(math.isqrt(ns[-1]), SEED), ns[-1])
    width = 6 if a is None else 7
    table = np.zeros((width, t + 1))
    totals = [np.longdouble(0.0)] * width
    buf = np.empty((4, min(_BLOCK, t)))
    lsums = np.empty(buf.shape[1], np.longdouble)
    for start in range(1, t + 1, _BLOCK):
        stop = min(start + _BLOCK, t + 1)
        for k, block in enumerate(_g_weights(None, start, stop, buf, a)):
            sums = running_sum(block, totals[k], lsums)
            table[k, start:stop] = sums
            totals[k] = sums[-1]
    # P(t) - Phi(t), read only above t
    offsets = [p - phi[0] for p, phi in
               zip(totals, one_weight_sums(np.array([t]), a))]
    for n in ns:
        r = math.isqrt(n)
        v = n // np.maximum(np.arange(r + 1), 1)
        above = int(np.count_nonzero(v > t))  # v descends
        his = np.empty((width, r + 1))
        his[:, above:] = table[:, v[above:]]
        if above:
            for row, p, phi in zip(his, offsets,
                                   one_weight_sums(v[:above], a)):
                row[:above] = p + phi
        yield list(zip(table[:, :r + 1], his))


def _average_pairs(fv: np.ndarray | None, gv: np.ndarray | None, ns,
                   signed: bool = True):
    """The ``on_quotients`` pairs of the six-term expansion's weights at
    each n of ns (ascending): the six of ``_g_weights``, then the three of
    ``_f_weights``; fv or gv given as None is the constant 1; f not
    ``signed`` (f >= 0) takes the f/d pair for |f|/d.

    For a given g, all nine come from one ``quotient_prefixes`` pass, in
    one buffer of four blocks, the f side's after the g side's.  For g = 1
    the six g-side pairs come from ``_one_pairs``, closed forms above a
    table of t <= max(isqrt(max n), 1024) entries, and the pass carries
    only the f-side weights; for f = 1 too there is no pass, since 1/d,
    log d/d and |1|/d are the g-side's 1/l, log l/l and 1/l.
    """
    if fv is None:
        return ([*g, g[3], g[2], g[3]] for g in _one_pairs(ns))
    buf = np.empty((2 if gv is None else 4, min(_BLOCK, max(ns))))
    if gv is None:
        pairs = ([*g, *f] for g, f in zip(_one_pairs(ns), quotient_prefixes(
            lambda lo, hi: _f_weights(fv, lo, hi, buf, signed), ns)))
    else:
        pairs = quotient_prefixes(lambda lo, hi: chain(
            _g_weights(gv, lo, hi, buf),
            _f_weights(fv, lo, hi, buf[:2], signed)), ns)
    return (p if signed else [*p, p[6]] for p in pairs)


def apostol_log_average_grid(f: FunctionTable | None,
                             g: FunctionTable | None,
                             xs) -> list[AverageDecomposition]:
    """``apostol_log_average_terms`` at every x of an ascending grid, from
    ``_average_pairs`` up to the largest x.  f and g are tables or
    ``tables.Blocks``; either given as None is the constant 1, which is
    then never sieved; for g = 1 the g-side prefixes above a table of
    t = max(isqrt(max x), 1024) entries are closed forms.

    Peak memory: the tables it is given, or what their blocks share, plus
    a few blocks of ``_accum._BLOCK`` and the pairs of one run of
    ``quotient_prefixes``, sum 2 (isqrt(n) + 1) floats per weight and
    never more than max(n) + 1; rho is formed per block.  From blocks, or
    for f = g = 1, it holds no array of length x.
    """
    ns = [cut(x, f, g) for x in xs]
    fv, gv = (None if t is None else t.values for t in (f, g))
    signed = f is not None and not nonnegative(f.spec)
    return [_decomposition(x, *pairs)
            for x, pairs in zip(xs, _average_pairs(fv, gv, ns, signed))]


def _decomposition(x, cg, cg_log, cg_log_over, cg_over, cg_rho, cg_abs, fw,
                   fw_log, fw_abs) -> AverageDecomposition:
    return AverageDecomposition(
        x=float(x),
        log_d_term=hyperbola_sum([(1, fw_log, cg)]),
        log_l_term=hyperbola_sum([(1, fw, cg_log)]),
        unit_term=-hyperbola_sum([(1, fw, cg)]),
        half_log_term=0.5 * hyperbola_sum([(1, fw, cg_log_over)]),
        const_term=LOG_SQRT_2PI * hyperbola_sum([(1, fw, cg_over)]),
        remainder_term=hyperbola_sum([(1, fw, cg_rho)]),
        remainder_bound=hyperbola_sum([(1, fw_abs, cg_abs)]) / 12.0,
    )


def apostol_log_average_terms(f: FunctionTable | None,
                              g: FunctionTable | None,
                              x: float) -> AverageDecomposition:
    """Exact six-term expansion of ``apostol_log_average`` over d*l <= x,
    one ``hyperbola_sum`` of an f-side and a g-side weight per term (and
    per remainder_bound), each product added once by ``math.fsum``: the
    grid of one of ``apostol_log_average_grid``."""
    return apostol_log_average_grid(f, g, [x])[0]


def _with_mu(f: FunctionTable, n: int) -> FunctionTable:
    """Table of f*mu on 1..n; log * mu is Lambda."""
    return sieve(VON_MANGOLDT if f.spec == LOG else convolve(f.spec, MU), n)


def gcd_log_average(f: FunctionTable, x: float) -> float:
    """sum_{k<=x} (1/k) sum_{j<=k} f(gcd(k,j)) log j.

    Evaluated exactly as the (f*mu, 1) case of ``apostol_log_average``,
    since sum_{d | gcd} (f*mu)(d) = f(gcd); same identity path underneath.
    """
    n = cut(x, f)
    return apostol_log_average(_with_mu(f, n), None, x)


def gcd_log_average_terms(f: FunctionTable, x: float) -> AverageDecomposition:
    """Exact expansion of ``gcd_log_average``; grouping the first three
    terms gives sum (f*phi)(n)/n log(n/e), the fourth is
    (1/2) sum (f*Lambda)(n)/n and the fifth log sqrt(2 pi) sum f(n)/n."""
    n = cut(x, f)
    return apostol_log_average_terms(_with_mu(f, n), None, x)


def _cesaro_terms(fv: np.ndarray, n: int) -> np.ndarray:
    """(1/k) sum_{j<=k} f(gcd(j,k)) in slot k = 1..n by the double loop;
    slot 0 holds 0."""
    terms, buf = np.zeros(n + 1), np.empty(n)
    for k, divs in enumerate(divisor_lists(n)[1:], 1):
        terms[k] = _gather_by_gcd(fv, divs, k, buf).sum() / k
    return terms


def cesaro_average(f: FunctionTable, x: float) -> tuple[float, float]:
    """Both routes of sum_{k<=x}(1/k) sum_j f(gcd(j,k)) (no log weight).

    lhs is the double loop, rhs is sum_{n<=x} (f*phi)(n)/n.
    """
    n = cut(x, f)
    lhs = float(np.sum(_cesaro_terms(f.values, n)[1:]))
    conv = sieve_values(convolve(f.spec, PHI), n)
    rhs = dot(conv[1:n + 1], 1.0 / np.arange(1, n + 1, dtype=np.float64))
    return lhs, rhs


def cesaro_average_profile(f_spec: FunctionSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative lhs and rhs of ``cesaro_average`` at every integer x <= n."""
    n = cut(n)
    lhs = prefix_with_zero(_cesaro_terms(sieve_values(f_spec, n), n))
    conv = sieve_values(convolve(f_spec, PHI), n).copy()
    conv[1:] /= np.arange(1, n + 1, dtype=np.float64)
    rhs = prefix_with_zero(conv)
    return lhs, rhs
