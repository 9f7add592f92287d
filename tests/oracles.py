"""Independent test oracles.

Everything here is deliberately written without touching the production
sieves or series accelerations: naive divisor enumeration, trial-division
factorization, Euler-Maclaurin zeta, and harmonic-sum extrapolation for
Euler's constant.

The ``loop_*`` functions are the plain sieve loops (one Python iteration
per divisor or prime up to n) that the production kernels replaced; the
kernels must reproduce them bit for bit.  ``euclid_gather`` is likewise
the Euclid-based gcd gather the per-k brute-force audits replaced, and
``loop_s_by_gcd`` and ``matrix_toth`` are those audits' per-k tables as
they were before the divisor sieve: an O(tau(k)^2) divisibility scan and
an int64 divisibility-matrix product.

The ``*_longdouble`` functions are the pair sums over d*l <= n as the
O(n) gather the hyperbola kernel replaced, with every weight, prefix and
sum in ``np.longdouble``; they take the f and g values (and rho) as given.
"""

import math
from fractions import Fraction

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_16
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510)]


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


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


def loop_identity_sum(fv: np.ndarray, gv: np.ndarray,
                      log_fact: np.ndarray, n: int) -> np.ndarray:
    """u(k) = sum_{d|k} f(d) (log d g(l) l + g(l) log l!), l = k/d."""
    larr = np.arange(n + 1, dtype=np.float64)
    g_id = gv[:n + 1] * larr
    g_lf = gv[:n + 1] * log_fact[:n + 1]
    u = np.zeros(n + 1)
    for d in (np.nonzero(fv[1:n + 1])[0] + 1):
        m = n // d
        u[d::d] += (fv[d] * math.log(d)) * g_id[1:m + 1] + fv[d] * g_lf[1:m + 1]
    return u


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
