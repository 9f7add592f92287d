"""Gcd-sum identities and their summatory log-weighted averages.

Core objects, for tables f, g and integers k, j:

- s_k(j) = sum_{d | gcd(k,j)} f(d) g(k/d), the Anderson-Apostol sum; the
  Ramanujan sum c_k(j) is the special case f = id, g = mu.
- ``apostol_log_sum*``: u(k) = sum_{j<=k} s_k(j) log j, computed either by
  the brute-force sum over every j <= k (oracle) or through the exact
  identity

      u(k) = (f.log * g.id)(k) + (f * g.L)(k),      L(m) = log m!,

  which is the production path for summatory work.
- ``apostol_log_average(f, g, x)``: sum_{k<=x} u(k)/k, and its exact
  six-term expansion over pairs d*l <= x obtained by replacing L(l) with
  the Stirling form l log l - l + (1/2) log l + log sqrt(2 pi) + rho(l)
  (``six_terms``, ``apostol_log_average_terms``), one Dirichlet hyperbola
  sum per term (``_accum.hyperbola_sum``, the one kernel for pairs
  d*l <= x).  Scans run its lists for a whole grid, one pass per table;
  the per-k sum is the reference it is checked against.  For g = 1 every
  g-side prefix is a smooth function of l, so above x's own
  t(x) = min(max(isqrt(x), 1024), x) it is a closed form (Stirling and
  Euler-Maclaurin) and only the f side is sieved.
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

Each audit has one per-k kernel, given D[m] = the divisors of each m | k
(toth's and cesaro's read D[k] alone).  The ``*_audits`` batches that
``identity`` runs build each table once and share one scratch buffer of
kmax floats; apostol's takes D from one ``divisor_lists`` sieve, and
toth's and cesaro's take each D[k] in turn from ``iter_divisor_lists``,
which holds one run of 2048 k at a time.  A table passed as a list of
Python floats gives the same IEEE products as numpy scalars.  The public
per-k functions build no sieve: they take log m from ``np.log`` (the
LOG sieve's bytes), log d from ``math.log`` as the batches do, and mu,
phi and Lambda at the divisors of k from the divisors themselves, mu and
phi as exact integers, so their values equal the batches' bit for bit.

Each hyperbola sum, of the six terms and of the statistics in
``asymptotics`` alike, is a term list for ``_hyperbola_sums``, the one
place where a weight's name, None (the constant 1), a spec or a table,
becomes pairs, of a kind of ``_KINDS`` that one writer, ``_weigh``,
forms an eighth of a block at a time.  Each pass opens its table and
drops it when it ends (``_accum.quotient_prefixes``), and the g = 1
prefixes are summed by ``_accum.prefix_rows``: this module forms no
prefix sum.

All sums over x cut at floor(x); an integer x includes k = x.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from ._accum import (_BLOCK, ascending, dot, hyperbola_sum, prefix_rows,
                     prefix_with_zero, quotient_prefixes, ramp, reader)
from .stirling import SEED, log_factorial_row, one_weight_sums, rho_block
from .tables import (MU, PHI, VON_MANGOLDT, FunctionSpec, FunctionTable, Kind,
                     _primes_upto, _with_mu, blocks, convolve, cut,
                     divisor_lists, divisors_of, iter_divisor_lists,
                     nonnegative, sieve, sieve_values)
from .zeta import LOG_SQRT_2PI


class AverageDecomposition(NamedTuple):
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
        return math.fsum(self.terms)


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
        out[m - 1::m] = math.fsum(map(term, D[m]))
    return dot(logs[1:k + 1], out)


def _apostol_identity(fv, gv, lf, lg, k: int, D) -> float:
    return math.fsum(fv[d] * (lg[d] * gv[l] * l + gv[l] * lf[l])
                     for d, l in zip(D[k], reversed(D[k])))  # l = k/d


def _toth_sides(mu, logs: np.ndarray, lam_k, lf, k: int, divs,
                buf) -> tuple[float, float]:
    # c_k(j) = sum_{d | (j,k)} d mu(k/d): the d = 1 term stored, then one
    # strided add per d > 1 with mu(k/d) != 0; exact, as its values are
    # integers below 2^53
    c = buf[:k]
    c.fill(mu[k])
    for d in divs[1:]:
        m = mu[k // d]
        if m:
            c[d - 1::d] += d * m
    lhs = dot(logs[1:k + 1], c) / k
    return lhs, float(lam_k) + math.fsum(mu[d] / d * lf[d] for d in divs
                                         if mu[d])


def _cesaro_sides(fv: np.ndarray, phi, k: int, divs,
                  buf) -> tuple[float, float]:
    return (float(_gather_by_gcd(fv, divs, k, buf).sum()),
            math.fsum(fv[d] * phi[k // d] for d in divs))


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
                       k, divs, np.empty(k))


def cesaro_identity(f: FunctionTable, k: int) -> tuple[float, float]:
    """sum_{j<=k} f(gcd(j,k)) against (f*phi)(k)."""
    cut(k, f)
    D = _divisor_map(k)
    mu = _mobius_on(D)
    phi = {m: sum(mu[d] * (m // d) for d in D[m]) for m in D}  # mu * id
    return _cesaro_sides(f.values, phi, k, D[k], np.empty(k))


def _batch(kernel, lists, kmax: int):
    """kernel(k, D[k], buf) for k = 1..kmax, D[k] the k-th of lists (the
    divisor lists of 1..kmax in turn), with one scratch buffer of kmax
    floats for every k."""
    buf = np.empty(kmax)
    for k, divs in enumerate(lists, 1):
        yield kernel(k, divs, buf)


def apostol_audits(f: FunctionTable, g: FunctionTable, kmax: int):
    """(``apostol_log_sum_direct``, ``apostol_log_sum``) for k = 1..kmax."""
    cut(kmax, f, g)
    D, logs = divisor_lists(kmax), _logs(kmax)
    fv, gv = f.values[:kmax + 1].tolist(), g.values[:kmax + 1].tolist()
    lf = log_factorial_row(kmax).tolist()
    lg = [0.0, *map(math.log, range(1, kmax + 1))]

    def sides(k, divs, buf):
        # k reads D[m] for every m | k, so D[k] is last read by k once
        # 2k > kmax, and dropped then
        both = (_apostol_direct(fv, gv, logs, k, D, buf),
                _apostol_identity(fv, gv, lf, lg, k, D))
        if 2 * k > kmax:
            D[k] = None
        return both

    return _batch(sides, islice(D, 1, None), kmax)


def toth_audits(kmax: int):
    """``toth_identity(k)`` for k = 1..kmax."""
    lists, logs = iter_divisor_lists(kmax), _logs(kmax)
    mu = sieve_values(MU, kmax).astype(np.int64).tolist()
    lam = sieve_values(VON_MANGOLDT, kmax)
    lf = log_factorial_row(kmax).tolist()
    return _batch(lambda k, divs, buf: _toth_sides(mu, logs, lam[k], lf, k,
                                                   divs, buf), lists, kmax)


def cesaro_audits(f: FunctionTable, kmax: int):
    """``cesaro_identity(f, k)`` for k = 1..kmax."""
    cut(kmax, f)
    phi = sieve_values(PHI, kmax).tolist()
    return _batch(lambda k, divs, buf: _cesaro_sides(f.values, phi, k, divs,
                                                     buf),
                  iter_divisor_lists(kmax), kmax)


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


# the weights a hyperbola sum reads of a table, by kind, for its values v at
# m (1 without a table): the g = 1 ones, |v|/m, then the Delta corrections'
_KINDS = ("v", "v log m", "v log m/m", "v/m", "v rho/m", "|v|/m^2", "m^a",
          "|v|/m", "v/m^2", "v log m/m^2", "v/m^(2+a)")


def _weigh(values, kinds, top: int, a: float | None = None):
    """The ``weights(lo, hi)`` of a pass over values (an array,
    ``tables.Blocks`` or None, the constant 1) up to top: the weights
    ``kinds`` at m = lo..hi-1, at most an eighth of ``_BLOCK``, in the
    order of ``_KINDS``, each rewritten once read: in v, the buffer of
    values' ``_accum.reader``, which then turns into v/m = v * (1/m) and
    v/m^2 = v/m * (1/m), or in m, one eighth where a kind but v is asked.
    m holds exact integers when 1/m, log m or m^a is taken, so no weight
    depends on where its span starts or stops."""
    read = reader(values, top)
    scratch = np.empty(0 if kinds == ["v"] else min(_BLOCK // 8, top))

    def weights(lo, hi):
        v, m = read(lo, hi), scratch[:hi - lo]
        if "v" in kinds:
            yield v
        if "v log m" in kinds:
            yield np.multiply(v, np.log(ramp(m, lo), out=m), out=m)
        if not set(kinds) <= {"v", "v log m", "m^a"}:
            np.multiply(v, np.divide(1.0, ramp(m, lo), out=m), out=v)
        if "v log m/m" in kinds:
            yield np.multiply(v, np.log(ramp(m, lo), out=m), out=m)
        if "v/m" in kinds:
            yield v
        if "v rho/m" in kinds:
            yield np.multiply(rho_block(lo, hi, m), v, out=m)
        if "|v|/m^2" in kinds:
            np.divide(1.0, ramp(m, lo), out=m)
            yield np.abs(np.multiply(v, m, out=m), out=m)
        if "m^a" in kinds:
            yield np.power(ramp(m, lo), a, out=m)
        if "|v|/m" in kinds:
            yield np.abs(v, out=m)
        if {"v/m^2", "v log m/m^2", "v/m^(2+a)"} & set(kinds):
            np.multiply(v, np.divide(1.0, ramp(m, lo), out=m), out=v)
        if "v/m^2" in kinds:
            yield v
        if "v log m/m^2" in kinds:
            yield np.multiply(v, np.log(ramp(m, lo), out=m), out=m)
        if "v/m^(2+a)" in kinds:
            yield np.multiply(v, np.power(ramp(m, lo), -a, out=m), out=m)
    return weights


def _table_pairs(build, kinds, ns, a: float | None = None):
    """The ``quotient_prefixes`` pairs of the weights ``kinds`` of one
    table (v/m^(2+a) with the a given) at each n of ns (ascending), a dict
    kind -> pair per n, from one pass per run.  Each pass opens the values
    that ``build()`` makes (as ``_weigh`` takes them), then their
    ``_weigh`` up to max(ns), and drops them when it ends: tables built in
    turn never live at once, and each is built before its pass allocates."""
    kinds = [k for k in _KINDS if k in kinds]
    return (dict(zip(kinds, pairs)) for pairs in quotient_prefixes(
        lambda: _weigh(build(), kinds, max(ns), a), ns))


def _one_pairs(ns, a: float | None, kinds):
    """The pairs of ``_table_pairs`` for the ``kinds`` asked of the
    constant 1 (of 1, log l, log l / l, 1/l, rho(l)/l, 1/l^2 and l^a with
    the a given) at each n of ns (ascending), from one table of those
    kinds by ``prefix_rows``.  n reads it up to its own t(n) = min(max(
    isqrt(n), 1024), n), the bytes of the pass over 1..n, and above it
    P(v) = P(t(n)) + Phi(v) - Phi(t(n)), the longdouble P(t(n)) of a
    table that stops at t(n) and the closed forms Phi of
    ``stirling.one_weight_sums``, rounded once: the count exact, every
    other entry within an ulp of the pass's, and n's pairs the same in
    every grid.  It holds a (t + 1)-float row per kind, t the largest
    n's, one more such table up to a smaller t(n) while it sums it, and
    per n its pairs and a few longdouble arrays of isqrt(n) + 1 entries;
    nothing of length n.
    """
    ns = ascending(ns)
    kinds = [k for k in _KINDS if k in kinds]
    own = {n: min(max(math.isqrt(n), SEED), n) for n in ns}
    top = own[ns[-1]]
    table = np.zeros((len(kinds), top + 1))
    sums = {}
    # the table, and P(t(n)) where n reads closed forms past it from a
    # table that stops at t(n), as for n alone: no row entry is that carry
    for t in {top, *(t for n, t in own.items() if t < n)}:
        sums[t] = prefix_rows(
            _weigh(None, kinds, t, a), t,
            table if t == top else np.empty((len(kinds), t + 1)))
    for n in ns:
        r = math.isqrt(n)
        v = n // np.maximum(np.arange(r + 1), 1)
        above = int(np.count_nonzero(v > own[n]))  # v descends
        his = np.empty((len(kinds), r + 1))
        his[:, above:] = table[:, v[above:]]
        if above:
            phis = one_weight_sums(np.append(own[n], v[:above]), kinds, a)
            for row, p, phi in zip(his, sums[own[n]], phis):
                row[:above] = (p - phi[0]) + phi[1:]
        yield dict(zip(kinds, zip(table[:, :r + 1], his)))


def _hyperbola_sums(ns, sums, a: float | None = None, xs=None):
    """For each n of ns (ascending), or x of xs, whose floors they are,
    one value per term list of ``sums``: a term (sign, w, c) is sign *
    H(w, c), H the Dirichlet hyperbola sum (Tenenbaum, Introduction to
    Analytic and Probabilistic Number Theory, I.3.2), (sign, w) is sign *
    W(n), and a list of one (f, w_1, ...), f callable, f(x, n, W_1, ...).  A
    weight is (name, kind), a kind of ``_KINDS``.  Name None, the constant
    1, takes its pairs from ``_one_pairs`` (l^a with the a given); a
    table, or a spec by its ``tables.blocks`` up to max(ns), from one
    ``_table_pairs`` pass per run for every kind named of it, over the
    distinct n, one pass after another, so one table lives at a time.
    Two or more specs other than n^a share one list of the primes.
    """
    named = {}
    for terms in sums:
        for _, *names in terms:
            for name, kind in names:
                named.setdefault(name, set()).add(kind)
    ns = ascending(ns)
    grid = sorted(set(ns))
    sieved = [h for h in named if isinstance(h, FunctionSpec)
              and h.kind is not Kind.ID_POW]
    primes = _primes_upto(grid[-1]) if len(sieved) > 1 else None

    def values(name):  # a table's, or a spec's blocks', as its pass opens
        return (name if isinstance(name, FunctionTable)
                else blocks(name, grid[-1], primes)).values
    found = zip(*(_one_pairs(grid, a, kinds) if name is None
                  else _table_pairs(partial(values, name), kinds, grid, a)
                  for name, kinds in named.items()))

    def weigh(names):  # their pairs at the n of the loop
        return [pairs[name][kind] for name, kind in names]
    last = None
    for x, n in zip(ns if xs is None else xs, ns):
        if n != last:
            pairs, last = dict(zip(named, next(found))), n
        yield [terms[0][0](x, n, *weigh(terms[0][1:]))
               if callable(terms[0][0]) else
               hyperbola_sum([(sign, *weigh(names)) for sign, *names in terms])
               for terms in sums]


def six_terms(f, g):
    """The six term lists of sum_{k<=x} u(k)/k over d*l <= x and their
    scales, in the order of ``AverageDecomposition.terms``, for f and g
    named as in ``_hyperbola_sums``: the last is of rho(l)/l."""
    over = (f, "v/m")
    return ((1, ((1, (f, "v log m/m"), (g, "v")),)),
            (1, ((1, over, (g, "v log m")),)),
            (-1, ((1, over, (g, "v")),)),
            (0.5, ((1, over, (g, "v log m/m")),)),
            (LOG_SQRT_2PI, ((1, over, (g, "v/m")),)),
            (1, ((1, over, (g, "v rho/m")),)))


def apostol_log_average_grid(f: FunctionTable | None,
                             g: FunctionTable | None,
                             xs) -> list[AverageDecomposition]:
    """``apostol_log_average_terms`` at every x of an ascending grid: the
    lists of ``six_terms(f, g)`` and the bound's, for tables f and g, None
    the constant 1, never sieved.  An f that ``tables.nonnegative``
    accepts names |f(d)|/d as f(d)/d.

    Peak memory: the tables it is given, or what their blocks share, plus
    a block of ``_accum._BLOCK`` for blocks, a few eighths of one and the
    pairs of one run of ``quotient_prefixes``, sum 2 (isqrt(n) + 1)
    floats per weight and never more than max(n) + 1.  From blocks, or
    for f = g = 1, it holds no array of length x.
    """
    ns = [cut(x, f, g) for x in xs]
    six = six_terms(f, g)
    absolute = (f, "v/m" if f is None or nonnegative(f.spec) else "|v|/m")
    sums = _hyperbola_sums(ns, [terms for _, terms in six]
                           + [[(1, absolute, (g, "|v|/m^2"))]])
    return [AverageDecomposition(float(x), *(scale * s for (scale, _), s
                                             in zip(six, values)),
                                 bound / 12.0)
            for x, (*values, bound) in zip(xs, sums)]


def apostol_log_average_terms(f: FunctionTable | None,
                              g: FunctionTable | None,
                              x: float) -> AverageDecomposition:
    """Exact six-term expansion of ``apostol_log_average`` over d*l <= x,
    and its remainder_bound: the grid of one of
    ``apostol_log_average_grid``."""
    return apostol_log_average_grid(f, g, [x])[0]


def gcd_log_average(f: FunctionTable, x: float) -> float:
    """sum_{k<=x} (1/k) sum_{j<=k} f(gcd(k,j)) log j.

    Evaluated exactly as the (f*mu, 1) case of ``apostol_log_average``,
    since sum_{d | gcd} (f*mu)(d) = f(gcd); same identity path underneath.
    """
    n = cut(x, f)
    return apostol_log_average(sieve(_with_mu(f.spec), n), None, x)


def _cesaro_terms(fv: np.ndarray, n: int) -> np.ndarray:
    """(1/k) sum_{j<=k} f(gcd(j,k)) in slot k = 1..n by the double loop;
    slot 0 holds 0."""
    terms, buf = np.zeros(n + 1), np.empty(n)
    for k, divs in enumerate(iter_divisor_lists(n), 1):
        terms[k] = _gather_by_gcd(fv, divs, k, buf).sum() / k
    return terms


def cesaro_average_profile(f_spec: FunctionSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both routes of sum_{k<=x} (1/k) sum_{j<=k} f(gcd(j,k)) (no log
    weight), cumulative at every integer x <= n: lhs by the double loop,
    rhs as sum_{m<=x} (f*phi)(m)/m."""
    n = cut(n)
    lhs = prefix_with_zero(_cesaro_terms(sieve_values(f_spec, n), n))
    conv = sieve_values(convolve(f_spec, PHI), n).copy()
    conv[1:] /= np.arange(1, n + 1, dtype=np.float64)
    rhs = prefix_with_zero(conv)
    return lhs, rhs
