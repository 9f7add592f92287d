"""The per-k brute-force audits: divisors, gcd gather and batches.

``_gather_by_gcd`` must equal the Euclid gather it replaced by bytes, and
each audit built on it must equal its former Euclid-based form bit for bit.
The batch generators behind ``identity`` must equal the public per-k
functions bit for bit, the per-k functions must build no sieve, and the
divisor lists the batches take, whole or a run at a time, must equal
naive divisor enumeration.
"""

import math
import tracemalloc

import numpy as np
import pytest

import gcdsums as G
from gcdsums import identities
from gcdsums._accum import dot
from gcdsums.errors import DomainError
from gcdsums.stirling import log_factorial_table
from gcdsums.tables import (MAX_SIEVE, divisor_lists, divisors_of,
                            iter_divisor_lists, sieve_values)

from oracles import euclid_gather, loop_s_by_gcd, matrix_toth, naive_divisors

SAMPLED_K = [1, 2, 12, 360, 997, 1024, 2310, 4096, 5000]


def test_divisors_of_matches_naive():
    lists = divisor_lists(3000)
    assert len(lists) == 3001 and lists[0] == []
    for n in range(1, 3001):
        assert divisors_of(n) == naive_divisors(n) == lists[n], n


def test_divisor_sieve_memory_budget():
    tracemalloc.start()
    try:
        lists = divisor_lists(10 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, lists)) == 93668
    # about 1.8 MB, 180 bytes per m, measured
    assert peak < 2.5e6


@pytest.mark.parametrize("n", [0, MAX_SIEVE + 1])
def test_divisor_sieve_rejects_size_before_allocating(n):
    with pytest.raises(DomainError):
        divisor_lists(n)
    with pytest.raises(DomainError):
        G.toth_audits(n)


@pytest.mark.parametrize("n", [1, 2, 2047, 2048, 2049, 4097, 10 ** 4])
def test_divisor_runs_match_divisors_of(n):
    # runs of 2048: the edges, and a short last run
    got = list(iter_divisor_lists(n))
    assert got == [divisors_of(m) for m in range(1, n + 1)]


@pytest.mark.parametrize("n", [0, MAX_SIEVE + 1])
def test_batches_by_runs_reject_size_when_called(n):
    # before any list exists, not at the first k
    f = G.sieve(G.ONE, 10)
    with pytest.raises(DomainError):
        iter_divisor_lists(n)
    with pytest.raises(DomainError):
        G.cesaro_audits(f, n)


def _non_integer_table(k):
    return np.random.default_rng(k).standard_normal(k + 1)


def _gathers_equal(k):
    # in the head of a wider NaN-filled buffer, as the batches reuse it
    values = _non_integer_table(k)
    buf = np.full(k + 7, np.nan)
    got = identities._gather_by_gcd(values, divisors_of(k), k, buf)
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
    table = loop_s_by_gcd(f.values, g.values, k)
    logs = sieve_values(G.LOG, k)
    return dot(logs[1:k + 1], euclid_gather(table, k))


def _old_toth(k):
    return matrix_toth(sieve_values(G.MU, k), sieve_values(G.LOG, k),
                       sieve_values(G.VON_MANGOLDT, k),
                       log_factorial_table(k).log_factorial, k)


def _old_cesaro(f, k):
    phi = sieve_values(G.PHI, k)
    lhs = float(euclid_gather(f.values, k).sum())
    rhs = math.fsum(f.values[d] * phi[k // d] for d in divisors_of(k))
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


def test_batches_bit_equal_to_per_k(catalog_tables):
    for f, g in catalog_tables:
        for k, sides in enumerate(G.apostol_audits(f, g, 3000), 1):
            assert _bits(*sides) == _bits(G.apostol_log_sum_direct(f, g, k),
                                          G.apostol_log_sum(f, g, k)), (f.spec, k)
    for k, sides in enumerate(G.toth_audits(10000), 1):
        if k <= 3000 or k == 10000:
            assert _bits(*sides) == _bits(*G.toth_identity(k)), k
    for spec in (G.ONE, G.TAU, G.ID, G.id_pow(0.5)):
        f = G.sieve(spec, 3000)
        for k, sides in enumerate(G.cesaro_audits(f, 3000), 1):
            assert _bits(*sides) == _bits(*G.cesaro_identity(f, k)), (spec, k)


def test_per_k_functions_build_no_sieve(monkeypatch, catalog_tables):
    # log m, and mu, phi and Lambda at the divisors of k, come without a
    # table, so a per-k call costs no O(k) sieve
    from gcdsums import tables

    def refuse(spec, n):
        raise AssertionError(f"sieved {spec} at {n}")

    f, g = catalog_tables[0]
    monkeypatch.setattr(tables, "_block_fill", refuse)
    for k in SAMPLED_K:
        identities.apostol_log_sum_direct(f, g, k)
        identities.toth_identity(k)
        identities.cesaro_identity(f, k)
