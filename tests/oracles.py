"""Independent test oracles.

Everything here but the former routes named last below is deliberately
written without touching the production sieves or series accelerations:
naive divisor enumeration, trial-division factorization, Euler-Maclaurin
zeta, and harmonic-sum extrapolation for Euler's constant.

The ``loop_*`` functions are the plain sieve loops (one Python iteration
per divisor or prime up to n) that the production kernels replaced; the
kernels must reproduce them bit for bit.  ``split_convolve`` and
``split_identity_sum`` take the same divisor sums in about 2 sqrt(n)
strided updates with the plain loop's bytes: the convolution oracle of
the tables that are not products of prime powers, and the independent
form of ``identity_sum_table``.  ``euclid_gather`` is likewise
the Euclid-based gcd gather the per-k brute-force audits replaced, and
``loop_s_by_gcd`` and ``matrix_toth`` are those audits' per-k tables as
they were before the divisor sieve: an O(tau(k)^2) divisibility scan and
an int64 divisibility-matrix product.

The ``*_longdouble`` functions are the pair sums over d*l <= n as the
O(n) gather the hyperbola kernel replaced, with every weight, prefix and
sum in ``np.longdouble``; they take the f and g values (and rho) as given.

``factored_value`` is a multiplicative function at n from the
factorization of n and its rule at each prime power, in mpmath.

``mp_one_prefix`` is the exact prefix sum of a g = 1 weight of the
six-term expansion, ``mp_power_prefix`` that of l^a, from mpmath's
special functions, and ``mp_sigma_a_sum`` the sum of sigma_a over its
floor groups of l^a prefixes.

``integer_tau_prefixes`` and ``sieved_sigma_a_prefixes`` are the two
routes that Delta's divisor sums at the quotients took before
``_accum.hyperbola_prefixes``: tau's by the integer hyperbola in int64,
and sigma_a's from one pass over its sieved blocks.

``anderson_apostol`` and ``ramanujan_sum`` are s_k(j) and c_k(j) at one
(k, j) by the divisors of gcd(k, j), mu by trial division
(``mobius_of``), ``read_table_values`` reads a ``sieve`` CSV dump
back into a values array, and ``format_value`` is the text of one CSV
cell, the reference of ``csvio.write_rows``' per-row formats.

The ``fraction_*`` functions are the exact constants of ``zeta`` and
``stirling`` (Borwein's weights, the Euler-Maclaurin coefficients) as
``Fraction`` arithmetic forms them, the package's integer pairs' reference.

``CLOSURE_MAINS`` and ``CLOSURE_NORMALIZERS`` are every registry entry's
main term and normalizer as ``asymptotics`` wrote them before its term
lists: one closure main(x, a, theta) per entry, each formula's own order
of operations, and the ``Normalizer`` record (renamed
``ClosureNormalizer`` here) with its three kinds.
"""

import functools
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np

from gcdsums._accum import _BLOCK, quotient_prefixes
from gcdsums.errors import require
from gcdsums.identities import _table_pairs
from gcdsums.tables import FunctionTable, blocks, cut, divisors_of, sigma_pow
from gcdsums.zeta import LOG_SQRT_2PI, constants

# Bernoulli numbers B_2, B_4, ..., B_16
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510)]


def naive_divisors(n: int) -> list[int]:
    """The divisors of n, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def naive_factorize(n: int) -> dict[int, int]:
    out = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def naive_mobius(n: int) -> int:
    exps = naive_factorize(n).values()
    if any(e >= 2 for e in exps):
        return 0
    return -1 if len(exps) % 2 else 1


def naive_phi(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def naive_von_mangoldt(n: int) -> float:
    fact = naive_factorize(n)
    if len(fact) == 1:
        (p, _), = fact.items()
        return math.log(p)
    return 0.0


def naive_value(kind: str, n: int, a: float | None = None) -> float:
    if kind == "one":
        return 1.0
    if kind == "id":
        return float(n)
    if kind == "idpow":
        return float(n) ** a
    if kind == "log":
        return math.log(n)
    if kind == "mu":
        return float(naive_mobius(n))
    if kind == "phi":
        return float(naive_phi(n))
    if kind == "jordan":
        return math.fsum(naive_mobius(d) * (n // d) ** a
                         for d in naive_divisors(n))
    if kind == "lambda":
        return naive_von_mangoldt(n)
    if kind == "tau":
        return float(len(naive_divisors(n)))
    if kind == "sigma":
        return float(sum(naive_divisors(n)))
    if kind == "sigmapow":
        return math.fsum(float(d) ** a for d in naive_divisors(n))
    if kind == "divlog":
        return math.fsum(math.log(d) for d in naive_divisors(n))
    raise ValueError(kind)


def anderson_apostol(f: FunctionTable, g: FunctionTable, k: int, j: int) -> float:
    """s_k(j) = sum_{d | gcd(k,j)} f(d) g(k/d)."""
    cut(k, f, g)
    require(j >= 1, "j must be >= 1")
    m = math.gcd(k, j)
    return math.fsum(f.values[d] * g.values[k // d] for d in divisors_of(m))


def ramanujan_sum(k: int, j: int) -> int:
    """c_k(j) = sum_{d | gcd(j,k)} d mu(k/d), exact integer arithmetic."""
    require(k >= 1 and j >= 1, "k and j must be >= 1")
    m = math.gcd(k, j)
    return sum(d * mobius_of(k // d) for d in divisors_of(m))


def mobius_of(n: int) -> int:
    """mu(n) by trial-division factorization (exact integer)."""
    require(n >= 1, "n must be >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if m > 1:
        result = -result
    return result


def read_table_values(path) -> np.ndarray:
    """Read a table dump back into a values array (slot 0 = 0)."""
    lines = Path(path).read_text().splitlines()
    values = [0.0]
    for line in lines[1:]:
        if not line.strip():
            continue
        _, value = line.split(",")
        values.append(float(value))
    return np.asarray(values, dtype=np.float64)


def format_value(v) -> str:
    """One CSV cell: ``%d`` at an integer, 17 significant digits else."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _mp_prime_power(spec, p: int, e: int):
    """f(p^e) for a spec of mu, phi, idpow, sigmapow and conv, in mpmath."""
    kind, a = spec.kind.value, spec.exponent
    if kind == "idpow":
        return mpmath.mpf(p) ** (e * mpmath.mpf(a))
    if kind == "sigmapow":
        return mpmath.fsum(mpmath.mpf(p) ** (i * mpmath.mpf(a))
                           for i in range(e + 1))
    if kind == "mu":
        return mpmath.mpf((1, -1, 0)[min(e, 2)])
    if kind == "phi":
        return mpmath.mpf(p ** e - p ** (e - 1) if e else 1)
    if kind == "conv":
        f, g = spec.operands
        return mpmath.fsum(_mp_prime_power(f, p, i)
                           * _mp_prime_power(g, p, e - i)
                           for i in range(e + 1))
    raise ValueError(kind)


def factored_value(spec, n: int):
    """f(n) for a multiplicative spec (a tree of mu, phi, idpow, sigmapow
    and conv) as the product of f(p^e) over the factorization of n by trial
    division, each f(p^e) from its rule at 30 digits, as an mpmath number."""
    with mpmath.workdps(_MP_DIGITS):
        out = mpmath.mpf(1)
        for p, e in naive_factorize(n).items():
            out *= _mp_prime_power(spec, p, e)
        return out


def zeta_euler_maclaurin(s: float, n_cut: int = 60, terms: int = 8) -> float:
    """Euler-Maclaurin evaluation of zeta(s), valid well below s = 1."""
    head = math.fsum(k ** (-s) for k in range(1, n_cut + 1))
    tail = n_cut ** (1.0 - s) / (s - 1.0) - 0.5 * n_cut ** (-s)
    correction = 0.0
    for j in range(1, terms + 1):
        b = float(_BERNOULLI[j - 1])
        prod = 1.0
        for i in range(2 * j - 1):
            prod *= s + i
        correction += b / math.factorial(2 * j) * prod * \
            n_cut ** (-s - 2 * j + 1)
    return head + tail + correction


def euler_gamma_oracle(n_cut: int = 10 ** 5) -> float:
    """gamma from the harmonic sum with Euler-Maclaurin extrapolation."""
    harmonic = math.fsum(1.0 / k for k in range(1, n_cut + 1))
    return (harmonic - math.log(n_cut) - 0.5 / n_cut
            + 1.0 / (12.0 * n_cut ** 2) - 1.0 / (120.0 * n_cut ** 4))


def _loop_primes(n: int) -> list[int]:
    is_prime = [True] * (n + 1)
    primes = []
    for p in range(2, n + 1):
        if is_prime[p]:
            primes.append(p)
            for m in range(p * p, n + 1, p):
                is_prime[m] = False
    return primes


def loop_mobius(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in _loop_primes(n):
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p::p * p] = 0
    return mu


def loop_totient(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=np.int64)
    for p in _loop_primes(n):
        phi[p::p] //= p
        phi[p::p] *= p - 1
    return phi


def loop_von_mangoldt(n: int) -> np.ndarray:
    """Lambda on 0..n, one Python iteration per prime and per power."""
    lam = np.zeros(n + 1, dtype=np.float64)
    for p in _loop_primes(n):
        log_p = math.log(p)
        q = p
        while q <= n:
            lam[q] = log_p
            q *= p
    return lam


def row_divisor_weight_sieve(n: int, weight, dtype) -> np.ndarray:
    """sum_{d|m} weight(d) for m <= n, one whole row of pairs per d <= sqrt(n)."""
    out = np.zeros(n + 1, dtype=dtype)
    for d in range(1, math.isqrt(n) + 1):
        larr = np.arange(d, n // d + 1, dtype=np.int64)
        out[d * d::d] += weight(np.int64(d)) + weight(larr)
        out[d * d] -= weight(np.int64(d))
    return out


def loop_convolve(fv: np.ndarray, gv: np.ndarray, n: int) -> np.ndarray:
    """(f*g)(k) for k <= n, one strided update per nonzero f(d)."""
    if np.count_nonzero(gv[1:n + 1]) < np.count_nonzero(fv[1:n + 1]):
        fv, gv = gv, fv
    out = np.zeros(n + 1, dtype=np.float64)
    for d in (np.nonzero(fv[1:n + 1])[0] + 1):
        out[d::d] += fv[d] * gv[1:n // d + 1]
    return out


# the split kernel: a plain divisor loop's bytes in about 2 sqrt(n) strided
# updates, fast enough to be the product oracle of the sieved statistics
# at 10^6; its row and column slices are at most this long
_SPLIT_BLOCK = 1 << 16
# the first values that ``split_convolve`` counts to pick its order
_SPLIT_PREFIX = 1024


def _add_blocked(out: np.ndarray, step: int, lo: int, end: int,
                 terms) -> None:
    """out[step * i] += terms(i) for i in lo..end, where ``terms`` maps a
    slice of i to an array, ``_SPLIT_BLOCK`` entries at a time."""
    for b in range(lo, end + 1, _SPLIT_BLOCK):
        e = min(b + _SPLIT_BLOCK, end + 1)
        out[step * b:step * e:step] += terms(slice(b, e))


def divisor_pair_sum(fv: np.ndarray, n: int, term) -> np.ndarray:
    """out[k] = sum_{d*l = k} term(d, l) for k <= n, added in ascending d.

    ``term`` is called with one index an int and the other a slice: rows
    d <= r = isqrt(n) against every l, then columns l <= n // (r+1)
    against every d > r, in descending l.  Every pair d*l <= n has
    d <= r or l <= n // (r+1), and each entry still adds its terms in
    ascending d, the order of the plain divisor loop, so the float
    results are bit-identical to it.  Rows with fv[d] == 0 are skipped,
    so ``term`` must vanish where fv does; the columns add those zeros,
    which leaves every sum bit-unchanged for finite operands.
    """
    r = math.isqrt(n)
    out = np.zeros(n + 1, dtype=np.float64)
    for d in (np.nonzero(fv[1:r + 1])[0] + 1):
        _add_blocked(out, d, 1, n // d, lambda l: term(d, l))
    for l in range(n // (r + 1), 0, -1):
        _add_blocked(out, l, r + 1, n // l, lambda d: term(d, l))
    return out


def split_convolve(fv: np.ndarray, gv: np.ndarray, n: int) -> np.ndarray:
    """(f*g)(k) for k <= n by ``divisor_pair_sum``, d over the operand with
    fewer nonzero values among its first ``_SPLIT_PREFIX``: a fixed prefix,
    so every build from there up adds in the same order."""
    w = min(n, _SPLIT_PREFIX) + 1
    if np.count_nonzero(gv[1:w]) < np.count_nonzero(fv[1:w]):
        fv, gv = gv, fv
    return divisor_pair_sum(fv, n, lambda d, l: fv[d] * gv[l])


def split_identity_sum(fv: np.ndarray, gv: np.ndarray,
                       log_fact: np.ndarray, n: int) -> np.ndarray:
    """u(k) = sum_{d|k} f(d) (log d g(l) l + g(l) log l!), l = k/d, by
    ``divisor_pair_sum``, the per-d log by ``math.log``."""
    larr = np.arange(n + 1, dtype=np.float64)
    g_id = gv[:n + 1] * larr
    g_lf = gv[:n + 1] * log_fact[:n + 1]
    f_log = np.zeros(n + 1)
    f_log[1:] = fv[1:n + 1] * np.fromiter(map(math.log, range(1, n + 1)),
                                          dtype=np.float64, count=n)
    return divisor_pair_sum(
        fv, n, lambda d, l: f_log[d] * g_id[l] + fv[d] * g_lf[l])


def euclid_gather(values: np.ndarray, k: int) -> np.ndarray:
    """values[gcd(j, k)] for j = 1..k, with gcd by Euclid (np.gcd)."""
    return values[np.gcd(np.arange(1, k + 1), k)]


def loop_s_by_gcd(fv: np.ndarray, gv: np.ndarray, k: int) -> np.ndarray:
    """s_k(m) = sum_{d | m} f(d) g(k/d) at every divisor m of k, 0 elsewhere."""
    divs = naive_divisors(k)
    table = np.zeros(k + 1)
    for m in divs:
        table[m] = math.fsum(fv[d] * gv[k // d] for d in divs if m % d == 0)
    return table


def matrix_toth(mu: np.ndarray, logs: np.ndarray, lam: np.ndarray,
                lf: np.ndarray, k: int) -> tuple[float, float]:
    """Both sides of the log-weighted Ramanujan-sum identity at k, with
    c_k on the divisors of k as one integer divisibility-matrix product
    and c_k(j) = c_k(gcd(j, k)) spread by ``euclid_gather``."""
    divs = naive_divisors(k)
    dv = np.array(divs)
    c_by = np.zeros(k + 1)
    c_terms = dv * mu[k // dv].astype(np.int64)
    c_by[dv] = (dv[:, None] % dv[None, :] == 0) @ c_terms
    lhs = float(np.dot(logs[1:k + 1], euclid_gather(c_by, k))) / k
    rhs = float(lam[k]) + math.fsum(mu[d] / d * lf[d] for d in divs)
    return lhs, rhs


def _pair_sum_longdouble(w, c, n: int):
    """sum_{d*l<=n} w(d) c(l) = sum_d w(d) C(n // d), all in longdouble;
    w and c hold the values at 1..n."""
    q = n // np.arange(1, n + 1) - 1
    return np.sum(w * np.cumsum(c)[q])


def six_term_longdouble(fv: np.ndarray, gv: np.ndarray, rho: np.ndarray,
                        n: int) -> list:
    """The six terms of ``apostol_log_average_terms`` at n, in longdouble."""
    ld = np.longdouble
    l = np.arange(1, n + 1, dtype=ld)
    logs = np.log(l)
    g = gv[1:n + 1].astype(ld)
    w = fv[1:n + 1].astype(ld) / l
    log_sqrt_2pi = ld("0.9189385332046727417803297364056176398614")
    return [_pair_sum_longdouble(w * logs, g, n),
            _pair_sum_longdouble(w, g * logs, n),
            -_pair_sum_longdouble(w, g, n),
            _pair_sum_longdouble(w, g * logs / l, n) / 2,
            log_sqrt_2pi * _pair_sum_longdouble(w, g / l, n),
            _pair_sum_longdouble(w, g * rho[1:n + 1].astype(ld) / l, n)]


def series_lhs_longdouble(fv: np.ndarray, gv: np.ndarray, s: float, k: int):
    """sum_{k'<=K} u(k') k'^-s as the pair sum over d*l <= K of
    f(d) g(l) (dl)^-s (l log d + log l!), in longdouble."""
    ld = np.longdouble
    l = np.arange(1, k + 1, dtype=ld)
    logs = np.log(l)
    powers = l ** ld(-s)
    f = fv[1:k + 1].astype(ld) * powers
    g = gv[1:k + 1].astype(ld) * powers
    return (_pair_sum_longdouble(f * logs, g * l, k)
            + _pair_sum_longdouble(f, g * np.cumsum(logs), k))


def series_rhs_terms(fv: np.ndarray, gv: np.ndarray, lf: np.ndarray, s: float,
                     k: int, log_last: bool = False) -> list[np.ndarray]:
    """The terms of the series rhs's truncated -F'(s), G(s-1), F(s) and
    G_L(s) at K as whole-K float64 arrays: (f(d) log d) d^-s, g(l) l^(1-s),
    f(d) d^-s and (g(l) L(l)) l^-s, in the series' weight writer's product
    order, or with ``log_last`` (f(d) d^-s) log d, as ``np_sum_series_sums``
    formed it."""
    ks = np.arange(1, k + 1, dtype=np.float64)
    p, logs = ks ** (-s), np.log(ks)
    f, g = fv[1:k + 1], gv[1:k + 1]
    return [f * p * logs if log_last else f * logs * p,
            g * ks ** (-(s - 1.0)), f * p, g * lf[1:k + 1] * p]


def _two_sum(a, b):
    """s = a + b rounded and its rounding error e, exactly a + b = s + e
    (Knuth, TAOCP vol. 2, 4.2.2), for floats or arrays alike."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def double_double_sum(terms: np.ndarray, start=(0.0, 0.0)):
    """start + sum(terms) as a double-double (hi, lo), for float64 terms
    and a double-double start: the terms are added pairwise by TwoSum,
    whose rounding errors are exact, and each level's errors summed by
    ``np.sum``, so hi + lo is within about (log2 n)^2 2^-106 sum |terms|
    of the exact sum (compare Ogita, Rump & Oishi, SIAM J. Sci. Comput.
    26 (2005), Sum2)."""
    x, err = np.asarray(terms, dtype=np.float64), 0.0
    while len(x) > 1:
        if len(x) % 2:
            x = np.append(x, 0.0)
        x, e = _two_sum(x[0::2], x[1::2])
        err += float(np.sum(e))
    hi, lo = _two_sum(start[0], float(x[0]) if len(x) else 0.0)
    return _two_sum(hi, lo + start[1] + err)


def carried_cumsum(values: np.ndarray) -> np.ndarray:
    """The prefix sums of float64 values as ``_accum`` forms every prefix,
    from whole arrays, rounded once: each eighth of ``_BLOCK`` (a row of
    one 2-d array, and the tail) summed from zero by a longdouble cumsum,
    plus the sum of the eighths before it, carried as a longdouble pair
    by TwoSum over each eighth's pairwise longdouble sum."""
    e = _BLOCK // 8
    cut = len(values) - len(values) % e
    rows = values[:cut].astype(np.longdouble).reshape(-1, e)
    tail = values[cut:].astype(np.longdouble)
    totals = [*rows.sum(axis=1), np.sum(tail)]
    np.cumsum(rows, axis=1, out=rows)
    np.cumsum(tail, out=tail)
    out, hi, lo = np.empty(len(values)), np.longdouble(0.0), np.longdouble(0.0)
    for i, (sums, total) in enumerate(zip([*rows, tail], totals)):
        out[i * e:i * e + len(sums)] = sums + (hi + lo)
        hi, err = _two_sum(hi, total)
        lo += err
    return out


def np_sum_series_sums(fv: np.ndarray, gv: np.ndarray, lf: np.ndarray,
                       s: float, k: int) -> list[float]:
    """-F'(s), G(s-1), F(s) and G_L(s) at K as the series formed them before
    they were streamed: ``np.sum`` (pairwise, in float64) of each whole-K
    product."""
    return [float(np.sum(t))
            for t in series_rhs_terms(fv, gv, lf, s, k, log_last=True)]


# ---------------------------------------------------------------------------
# whole-array forms of the blocked stages: each builds every n-length
# temporary at once, as the stages did before they were blocked, and must
# give the same bytes (mu_delta_sum within one block; past it, whose
# partial dots add in another order, ``fsum_mu_delta`` bounds it)


def on_quotients(values: np.ndarray, n: int):
    """The ``quotient_prefixes`` pair (lo, hi) of one array at n alone:
    lo[i] = P(i) for i <= isqrt(n), hi[d] = P(n // d), hi[0] = P(n), with
    no full-length P formed."""
    (pair,), = quotient_prefixes(lambda: lambda lo, hi: (values[lo:hi],),
                                 [n])
    return pair


def integer_tau_prefixes(n: int):
    """The ``quotient_prefixes`` pairs at n of tau(m) and of m tau(m), by
    the integer hyperbola: with s = isqrt(v) and T(u) = u (u + 1) / 2,

        D(v) = sum_{m<=v} tau(m)   = 2 sum_{i<=s} floor(v/i) - s^2,
        S(v) = sum_{m<=v} m tau(m) = 2 sum_{i<=s} i T(floor(v/i)) - T(s)^2,

    in int64 at the 2 isqrt(n) + 1 quotients, each pair (v, i <= s) formed
    by repeat ``_BLOCK`` // 8 or so at a time.  Every partial sum up to
    10^7 is an integer below 2^53, so its float64 is exact."""
    r = math.isqrt(n)
    # the points of hi (n // d for d = 1..r) then of lo (r..1); lo[0] is 0
    v = np.concatenate((n // np.arange(1, r + 1), np.arange(r, 0, -1)))
    s = np.searchsorted(np.arange(1, r + 1) ** 2, v, side="right")  # isqrt(v)
    t = s * (s + 1) // 2
    d_sum, s_sum, ends = -s * s, -t * t, np.cumsum(s)
    cuts = np.searchsorted(ends, np.arange(_BLOCK // 8, ends[-1], _BLOCK // 8))
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(v)]):
        heads = ends[a:b] - ends[a] + s[a] - s[a:b]
        i = np.arange(1, heads[-1] + s[b - 1] + 1) - np.repeat(heads, s[a:b])
        q = np.repeat(v[a:b], s[a:b]) // i
        d_sum[a:b] += 2 * np.add.reduceat(q, heads)
        s_sum[a:b] += 2 * np.add.reduceat(i * (q * (q + 1) // 2), heads)
    return [(np.append(0.0, p[r:][::-1]), np.append(p[:1], p[:r]) * 1.0)
            for p in (d_sum, s_sum)]


def sieved_sigma_a_prefixes(ns, a: float) -> list:
    """The ``quotient_prefixes`` pair of sigma_a at each n of ns
    (ascending), from one pass per run over the blocks of its sieve."""
    sigma = blocks(sigma_pow(a), ns[-1]).values
    return [p["v"] for p in _table_pairs(lambda: sigma, ["v"], ns)]


def whole_array_on_quotients(values: np.ndarray, n: int):
    """(lo, hi) of ``on_quotients`` from one full-length prefix
    (``carried_cumsum``): lo[i] = P(i) for i <= isqrt(n), hi[d] = P(n // d),
    hi[0] = P(n)."""
    full = np.zeros(n + 1)
    full[1:] = carried_cumsum(values[1:n + 1])
    r = math.isqrt(n)
    return full[:r + 1].copy(), full[n // np.maximum(np.arange(r + 1), 1)]


def whole_array_prefix(values: np.ndarray, n: int, over_n: bool = False,
                       log_ratio: bool = False) -> np.ndarray:
    """The prefix sums P(0..n) of values[1..n] weighted by log(m/e) with
    ``log_ratio`` and divided by m with ``over_n``, from one longdouble
    cumsum of the whole weighted array."""
    vals = values[1:n + 1].copy()
    narr = np.arange(1, n + 1, dtype=np.float64)
    if log_ratio:
        vals *= np.log(narr) - 1.0
    if over_n:
        vals /= narr
    return np.append(0.0, np.cumsum(vals.astype(np.longdouble))
                     .astype(np.float64))


def whole_array_average_pairs(fv: np.ndarray, gv: np.ndarray, rho: np.ndarray,
                              logs: np.ndarray, n: int) -> list:
    """The nine weights of the six-term expansion at n as whole arrays
    (g, g log, g log/l, g/l, g rho/l, |g|/l^2, f/d, f log d/d, |f|/d),
    each taken to its ``whole_array_on_quotients`` pair."""
    inv = np.append(0.0, 1.0 / np.arange(1, n + 1))
    gv, logs = gv[:n + 1], logs[:n + 1]
    gi = gv * inv
    w = fv[:n + 1] * inv
    weights = (gv, gv * logs, gi * logs, gi, gi * rho[:n + 1],
               np.abs(gi) * inv, w, w * logs, np.abs(w))
    return [whole_array_on_quotients(v, n) for v in weights]


def _mu_delta_terms(x: float, weights: np.ndarray, prefix: np.ndarray,
                    smooth):
    """The weights w(n)/n and Delta values P(x // n) - smooth(x/n) of
    ``mu_delta_sum``'s terms for n <= x, one n-length array each."""
    n = math.floor(x)
    narr = np.arange(1, n + 1, dtype=np.float64)
    w = weights[1:n + 1] / narr
    q = n // np.arange(1, n + 1, dtype=np.int64)
    y = x / narr
    return w, prefix[q] - smooth(y)


def whole_array_mu_delta(x: float, weights: np.ndarray, prefix: np.ndarray,
                         smooth) -> float:
    """sum_{n<=x} w(n)/n (P(x/n) - smooth(x/n)) with one n-length array per
    step and one dot; ``weights`` and ``prefix`` are indexed from 0."""
    return float(np.dot(*_mu_delta_terms(x, weights, prefix, smooth)))


def fsum_mu_delta(x: float, weights: np.ndarray, prefix: np.ndarray,
                  smooth) -> tuple[float, float]:
    """The ``math.fsum`` of the products ``whole_array_mu_delta`` dots,
    which is the correctly rounded sum of those rounded products, and the
    fsum of their absolute values (the scale of any summation error)."""
    w, deltas = _mu_delta_terms(x, weights, prefix, smooth)
    terms = w * deltas
    return math.fsum(terms), math.fsum(np.abs(terms))


# the Stirling remainder series' coefficients in 1/l^2, highest power first
_STIRLING_COEFFS = tuple(np.longdouble(1) / c for c in (-1680, 1260, -360, 12))
_STIRLING_SERIES_TERMS = 20


def whole_array_stirling(l_max: int, seed: int = 1024) -> np.ndarray:
    """Rows log l! and rho(l) for l = 0..l_max, each from whole arrays: the
    ``carried_cumsum`` of log l, the remainder series 1/(12 l) - ... from
    l = seed on, and below it the backward recurrence rho(l-1) = rho(l)
    + (l - 1/2) log(l/(l-1)) - 1 with its terms as a series in 1/(2l-1)^2."""
    out = np.zeros((2, l_max + 1))
    logs = np.log(np.arange(1, l_max + 1, dtype=np.float64))
    out[0, 1:] = carried_cumsum(logs)
    out[1] = whole_array_rho(l_max, seed)
    return out


def whole_array_rho(l_max: int, seed: int = 1024) -> np.ndarray:
    """rho(l) for l = 0..l_max in longdouble (slot 0 holds 0)."""
    rho = np.zeros(max(l_max, seed) + 1, dtype=np.longdouble)
    l_values = np.arange(seed, len(rho))
    inv_l2 = 1 / np.square(l_values, dtype=np.longdouble)
    acc = np.full_like(inv_l2, _STIRLING_COEFFS[0])
    for c in _STIRLING_COEFFS[1:]:
        acc = acc * inv_l2 + c
    rho[seed:] = acc / l_values
    x2 = 1.0 / (2.0 * np.arange(2, seed + 1, dtype=np.float64) - 1.0) ** 2
    t = np.full_like(x2, 1.0 / (2 * _STIRLING_SERIES_TERMS + 1))
    for i in range(_STIRLING_SERIES_TERMS - 1, 0, -1):
        t = 1.0 / (2 * i + 1) + x2 * t
    t = x2 * t
    rho[1:seed] = np.cumsum(t[::-1].astype(np.longdouble))[::-1]
    rho[1:seed] += rho[seed]
    return rho[:l_max + 1]


# ---------------------------------------------------------------------------
# exact prefix sums of the g = 1 weights, in mpmath at 30 digits

_MP_DIGITS = 30
# the prefixes at v up to here are summed term by term
MP_DIRECT = 2048
# the Stirling remainder series rho(l) = sum_j c_j l^(1-2j) for j = 1..4
_RHO_SERIES = (Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260),
               Fraction(-1, 1680))


def _mp_rho(l: int):
    """rho(l) = log l! - (l log l - l + (1/2) log l + log sqrt(2 pi))."""
    return (mpmath.loggamma(l + 1) - (l + 0.5) * mpmath.log(l) + l
            - mpmath.log(2 * mpmath.pi) / 2)


@functools.cache
def _mp_direct() -> list[list]:
    """Each weight's prefix sums at v = 0..MP_DIRECT, term by term, with
    rho(l) from mpmath's log-gamma."""
    with mpmath.workdps(_MP_DIGITS):
        terms = [lambda l: 1, mpmath.log, lambda l: mpmath.log(l) / l,
                 lambda l: mpmath.mpf(1) / l, lambda l: _mp_rho(l) / l,
                 lambda l: mpmath.mpf(1) / l ** 2]
        rows = []
        for term in terms:
            row = [mpmath.mpf(0)]
            for l in range(1, MP_DIRECT + 1):
                row.append(row[-1] + term(l))
            rows.append(row)
        return rows


@functools.cache
def _mp_hurwitz(s: int, a: int):
    """The Hurwitz zeta(s, a) = sum_{l>=a} l^-s for an even s >= 2, as
    mpmath's polygamma psi^(s-1)(a) / (s-1)!, 4x quicker than its zeta."""
    return mpmath.psi(s - 1, a) / mpmath.factorial(s - 1)


@functools.cache
def _mp_stieltjes(a: int):
    """The generalized Stieltjes constant gamma_1(a)."""
    return mpmath.stieltjes(1, a)


def mp_one_prefix(k: int, v: int):
    """sum_{l<=v} of the k-th g = 1 weight (1, log l, log l / l, 1/l,
    rho(l)/l, 1/l^2), exact to 30 digits, as an mpmath number.

    Past ``MP_DIRECT``: v itself, log-gamma, the Stieltjes constants
    gamma_1(1) - gamma_1(v + 1), the harmonic numbers, and Hurwitz zeta
    values, zeta(2) - zeta(2, v + 1) and, for rho(l)/l, the series in
    1/l^2 above ``MP_DIRECT`` (its next term sums to below 1e-30 there).
    """
    direct = _mp_direct()
    if v <= MP_DIRECT:
        return direct[k][v]
    with mpmath.workdps(_MP_DIGITS):
        if k == 0:
            return mpmath.mpf(v)
        if k == 1:
            return mpmath.loggamma(v + 1)
        if k == 2:
            return _mp_stieltjes(1) - _mp_stieltjes(v + 1)
        if k == 3:
            return mpmath.harmonic(v)
        if k == 4:
            a, b = MP_DIRECT + 1, v + 1
            return direct[4][MP_DIRECT] + mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator
                * (_mp_hurwitz(2 * j, a) - _mp_hurwitz(2 * j, b))
                for j, c in enumerate(_RHO_SERIES, 1))
        if k == 5:
            return mpmath.zeta(2) - _mp_hurwitz(2, v + 1)
    raise ValueError(k)


# the prefixes of l^a up to here are summed term by term: a term costs
# about 22 us and a Hurwitz zeta 0.5 ms, so this balances the two over
# the quotients of a few n of about 10^6
MP_POWER_DIRECT = 1 << 14


@functools.cache
def _mp_power_direct(a: float) -> list:
    """sum_{l<=v} l^a at v = 0..MP_POWER_DIRECT, term by term."""
    with mpmath.workdps(_MP_DIGITS):
        row = [mpmath.mpf(0)]
        for l in range(1, MP_POWER_DIRECT + 1):
            row.append(row[-1] + mpmath.mpf(l) ** a)
        return row


@functools.cache
def _mp_zeta(s: float):
    with mpmath.workdps(_MP_DIGITS):
        return mpmath.zeta(s)


def mp_power_prefix(v: int, a: float):
    """sum_{l<=v} l^a = zeta(-a) - zeta(-a, v + 1), the Hurwitz zeta
    function, exact to 30 digits, as an mpmath number; summed term by term
    up to ``MP_POWER_DIRECT``."""
    if v <= MP_POWER_DIRECT:
        return _mp_power_direct(a)[v]
    with mpmath.workdps(_MP_DIGITS):
        return _mp_zeta(-a) - mpmath.zeta(-a, v + 1)


def mp_sigma_a_sum(v: int, a: float):
    """sum_{m<=v} sigma_a(m) = sum_{d<=v} d^a floor(v/d), exact to 30
    digits, over the floor groups: q times the l^a prefixes
    (``mp_power_prefix``) at the ends of the d with floor(v/d) = q."""
    with mpmath.workdps(_MP_DIGITS):
        total, below, d = mpmath.mpf(0), mpmath.mpf(0), 1
        while d <= v:
            q = v // d
            end = mp_power_prefix(v // q, a)
            total += q * (end - below)
            below, d = end, v // q + 1
        return total


def ulps_from(got: float, exact) -> float:
    """|got - exact| in units of the last place of float(exact)."""
    return float(abs(mpmath.mpf(got) - exact)
                 / np.spacing(abs(float(exact))))


def fraction_ld(q: Fraction) -> np.longdouble:
    """q in longdouble: the numerator of the reduced Fraction over its
    denominator."""
    return np.longdouble(q.numerator) / q.denominator


def fraction_borwein_weights(n: int) -> list[float]:
    """Borwein's e_k = (d_n - d_k)/d_n, k < n, with d_k summed in Fractions
    and each e_k rounded by ``float``."""
    d, acc = [], Fraction(0)
    for i in range(n + 1):
        acc += Fraction(n * math.factorial(n + i - 1) * 4 ** i,
                        math.factorial(n - i) * math.factorial(2 * i))
        d.append(acc)
    return [float((d[n] - d_k) / d[n]) for d_k in d[:n]]


def fraction_power_sum_coeffs(s: int) -> list[Fraction]:
    """B_2k/(2k)! s (s+1) ... (s+2k-2), k = 1..4."""
    return [_BERNOULLI[k - 1] * math.prod(range(s, s + 2 * k - 1))
            / math.factorial(2 * k) for k in range(1, 5)]


def fraction_real_power_coeffs() -> list[Fraction]:
    """B_2k/(2k)!, k = 1..5."""
    return [_BERNOULLI[k - 1] / math.factorial(2 * k) for k in range(1, 6)]


def fraction_harmonic_coeffs() -> list[tuple[Fraction, Fraction]]:
    """(B_2k/(2k), H_(2k-1)), k = 1..4, H_m = 1 + 1/2 + ... + 1/m."""
    return [(_BERNOULLI[k - 1] / (2 * k),
             sum(Fraction(1, i) for i in range(1, 2 * k)))
            for k in range(1, 5)]


# ---------------------------------------------------------------------------
# main terms and normalizers as closures in x, as ``asymptotics`` wrote them
# before its term lists; the reference of the lists and of ``_value``


def _log_avg_main(k: int):
    """The id (k = 1) and phi (k = 2) log averages, Stirling slot at theta."""
    def main(x, a, theta):
        C = constants()
        z2, zp2, g = C.zeta2, C.zeta_prime_2, C.gamma
        lx, zk = math.log(x), z2 ** k
        return (x * lx ** 2 / zk
                + (2 * g - 3 - k * zp2 / z2) * x * lx / zk
                - (4 * g - 3 - 2 * k * zp2 / z2 + zp2 / 2 - theta * C.zeta3
                   - z2 * LOG_SQRT_2PI) * x / zk)
    return main


def _pow_log_avg_main(k: int):
    """The id_{1+a} (k = 1) and phi_{1+a} (k = 2) log averages."""
    def main(x, a, theta):
        C = constants()
        lx, zk, xa = math.log(x), C.zeta2 ** k, x ** (1 + a)
        z1ma, z1pa, z2pa = C.zeta(1 - a), C.zeta(1 + a), C.zeta(2 + a)
        return (z1ma / zk * x * lx - 2 * z1ma / zk * x
                + z1pa / ((1 + a) * z2pa ** k) * xa * lx
                - ((2 + a) * z1pa / (1 + a) + C.zeta_prime(2 + a) / 2
                   - theta * C.zeta(3 + a)) / ((1 + a) * z2pa ** k) * xa
                + LOG_SQRT_2PI / ((1 + a) * z2pa ** (k - 1)) * xa)
    return main


def _phi_stat_main(k: int):
    """sum_{m<=x} (f * phi)(m) / m for f = id (k = 1) and phi (k = 2)."""
    def main(x, a):
        C = constants()
        zk = C.zeta2 ** k
        return (x / zk * math.log(x)
                + x / zk * (2 * C.gamma - 1 - k * C.zeta_prime_2 / C.zeta2))
    return main


def _pow_phi_stat_main(k: int):
    """The same for f = id_{1+a} (k = 1) and phi_{1+a} (k = 2)."""
    def main(x, a):
        C = constants()
        return (C.zeta(1 - a) / C.zeta2 ** k * x
                + C.zeta(1 + a) / ((1 + a) * C.zeta(2 + a) ** k) * x ** (1 + a))
    return main


def _over_zeta_main(k: int, top):
    """sum_{m<=x} (f * h)(m) / m for f = id_{1+a} (k = 1) and phi_{1+a}
    (k = 2), where h's Dirichlet series is T(s) / zeta(s) and top(C, a)
    gives T(2 + a): -zeta'(2 + a) for h = Lambda, zeta(3 + a) for h =
    J_{-1}."""
    def main(x, a):
        C = constants()
        return top(C, a) / ((1 + a) * C.zeta(2 + a) ** k) * x ** (1 + a)
    return main


def _closure_mains() -> dict:
    """{entry name: main(x, a, theta)}, a statistic's main at the a it is
    handed (0.0 for an entry that takes none)."""
    C = constants()
    z2, zp2, g = C.zeta2, C.zeta_prime_2, C.gamma
    lam = lambda k: _over_zeta_main(k, lambda C, a: -C.zeta_prime(2 + a))
    j_m1 = lambda k: _over_zeta_main(k, lambda C, a: C.zeta(3 + a))

    def phi_over_n(x, a):  # phi (a = 0) and J_{1+a} over n
        return x ** (1 + a) / ((1 + a) * C.zeta(2 + a))

    def tau_log_avg(x, a, theta):
        lx = math.log(x)
        return (z2 * x * lx - 2 * z2 * x + lx ** 3 / 12.0
                + (C.gamma - 1 + math.log(2 * math.pi)) / 4.0 * lx ** 2)

    def ramanujan_log_avg(x, a, theta):
        return (LOG_SQRT_2PI / z2 + zp2 / (2 * z2 ** 2) + theta / C.zeta3) * x

    statistics = {
        "id_phi": _phi_stat_main(1),
        "phi_phi": _phi_stat_main(2),
        "idpow_phi": _pow_phi_stat_main(1),
        "jordan_phi": _pow_phi_stat_main(2),
        "divisor_log": lambda x, a: (math.log(x) ** 3 / 6.0
                                     + 0.5 * g * math.log(x) ** 2),
        "sigma_logne": lambda x, a: (z2 * x * math.log(x) - 2 * z2 * x
                                     - 0.25 * math.log(x) ** 2),
        "power_sum": lambda x, a: x ** (1 + a) / (1 + a) + C.zeta(-a),
        "jordan_over_n": phi_over_n,
        "sigma_minus1": lambda x, a: 0.0,
        "phi_over_n": phi_over_n,
        "tau_over_n": lambda x, a: (0.5 * math.log(x) ** 2
                                    + 2 * g * math.log(x)),
        "sigma_over_n": lambda x, a: z2 * x - 0.5 * math.log(x),
        "id_lambda": lam(1),
        "phi_lambda": lam(2),
        "idpow_lambda": lam(1),
        "jordan_lambda": lam(2),
        "id_jordan_m1": j_m1(1),
        "phi_jordan_m1": j_m1(2),
        "idpow_jordan_m1": j_m1(1),
        "jordan_jordan_m1": j_m1(2),
    }
    return {
        "tau-log-avg": tau_log_avg,
        "ramanujan-log-avg": ramanujan_log_avg,
        "id-log-avg": _log_avg_main(1),
        "phi-log-avg": _log_avg_main(2),
        "idpow-log-avg": _pow_log_avg_main(1),
        "jordan-log-avg": _pow_log_avg_main(2),
        **{name: lambda x, a, theta, main=main: main(x, a)
           for name, main in statistics.items()},
    }


CLOSURE_MAINS = _closure_mains()


class ClosureNormalizer(NamedTuple):
    kind: str  # "log_pow" | "x_pow" | "const"
    power: float | None = 0.0  # None stands for the exponent a

    def at(self, a: float | None) -> "ClosureNormalizer":
        """This normalizer with the exponent a in place of a power of None."""
        return self if self.power is not None else ClosureNormalizer(self.kind, a)

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


def _closure_normalizers() -> dict:
    log = lambda p: ClosureNormalizer("log_pow", p)
    const = ClosureNormalizer("const")
    return {
        "tau-log-avg": log(5 / 3), "ramanujan-log-avg": log(2),
        "id-log-avg": log(2), "phi-log-avg": log(3),
        "idpow-log-avg": log(1), "jordan-log-avg": log(3),
        "id_phi": log(1), "phi_phi": log(2), "idpow_phi": const,
        "jordan_phi": log(2), "divisor_log": log(1),
        "sigma_logne": log(5 / 3),
        "power_sum": ClosureNormalizer("x_pow", None),
        "jordan_over_n": const, "sigma_minus1": log(1),
        "phi_over_n": log(2 / 3), "tau_over_n": const,
        "sigma_over_n": log(2 / 3), "id_lambda": log(1),
        "phi_lambda": log(5 / 3), "idpow_lambda": log(1),
        "jordan_lambda": log(1), "id_jordan_m1": log(1),
        "phi_jordan_m1": log(5 / 3), "idpow_jordan_m1": const,
        "jordan_jordan_m1": log(1),
    }


CLOSURE_NORMALIZERS = _closure_normalizers()
