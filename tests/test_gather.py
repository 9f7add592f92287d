"""The divisor-stride gcd gather of the per-k brute-force audits.

``_gather_by_gcd`` must equal the Euclid gather it replaced by bytes, and
each audit built on it must equal its former Euclid-based form bit for bit.
"""

import numpy as np
import pytest

import gcdsums as G
from gcdsums import identities
from gcdsums._accum import dot, fsum
from gcdsums.stirling import log_factorial_table
from gcdsums.tables import divisors_of, sieve_values

from oracles import euclid_gather, naive_divisors

SAMPLED_K = [1, 2, 12, 360, 997, 1024, 2310, 4096, 5000]


def test_divisors_of_matches_naive():
    for n in range(1, 3001):
        assert divisors_of(n) == naive_divisors(n), n


def _non_integer_table(k):
    return np.random.default_rng(k).standard_normal(k + 1)


def _gathers_equal(k):
    values = _non_integer_table(k)
    got = identities._gather_by_gcd(values, divisors_of(k), k)
    return got.dtype == np.float64 and \
        got.tobytes() == euclid_gather(values, k).tobytes()


def test_gather_matches_euclid_every_k():
    for k in range(1, 3001):
        assert _gathers_equal(k), k


@pytest.mark.parametrize("k", [5000, 9999, 10000])
def test_gather_matches_euclid_large_k(k):
    assert _gathers_equal(k)


# the audits as they were written with the Euclid gather


def _old_apostol_direct(f, g, k):
    _, table = identities._s_by_gcd(f.values, g.values, k)
    logs = sieve_values(G.LOG, k)
    return dot(logs[1:k + 1], euclid_gather(table, k))


def _old_toth(k):
    mu = sieve_values(G.MU, k)
    logs = sieve_values(G.LOG, k)
    lam = sieve_values(G.VON_MANGOLDT, k)
    lf = log_factorial_table(k).log_factorial
    divs = divisors_of(k)
    c_by = np.zeros(k + 1)
    for m in divs:
        c_by[m] = fsum(d * mu[k // d] for d in divs if m % d == 0)
    lhs = dot(logs[1:k + 1], euclid_gather(c_by, k)) / k
    rhs = float(lam[k]) + fsum(mu[d] / d * lf[d] for d in divs)
    return lhs, rhs


def _old_cesaro(f, k):
    phi = sieve_values(G.PHI, k)
    lhs = float(euclid_gather(f.values, k).sum())
    rhs = fsum(f.values[d] * phi[k // d] for d in divisors_of(k))
    return lhs, rhs


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def test_audits_bit_equal_to_euclid_forms(catalog_tables):
    for f, g in catalog_tables:
        for k in SAMPLED_K:
            assert _bits(identities.apostol_log_sum_direct(f, g, k)) == \
                _bits(_old_apostol_direct(f, g, k)), (f.spec, k)
    for k in SAMPLED_K + [10000]:
        assert _bits(*identities.toth_identity(k)) == _bits(*_old_toth(k)), k
    for spec in (G.TAU, G.ID, G.id_pow(0.5), G.MU):
        f = G.sieve(spec, 5000)
        for k in SAMPLED_K:
            assert _bits(*identities.cesaro_identity(f, k)) == \
                _bits(*_old_cesaro(f, k)), (spec, k)
