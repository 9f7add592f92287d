"""The one capacity cache behind ``sieve_values``, the scan prefixes and
the Stirling table.

Each key keeps its largest array; a smaller request must get a slice
equal by bytes to a direct build at the smaller size, so a scan's values
do not depend on the order its points are evaluated in.
"""

import numpy as np
import pytest

import gcdsums as G
from gcdsums import asymptotics, tables
from gcdsums.tables import MAX_SIEVE, parse_spec


def _clear():
    tables._grown.clear()


@pytest.fixture
def fresh_cache():
    # not restored afterwards: holding the old arrays would stack them
    # under the 10^7-entry tables built here
    _clear()
    yield
    _clear()


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("text", ["phi", "conv:id,phi", "jordan:0.5",
                                  "conv:mu,mu"])
def test_sieve_slice_after_large_request(fresh_cache, text):
    spec = parse_spec(text)
    big = tables.sieve_values(spec, 1 << 20)
    assert len(big) == (1 << 20) + 1
    for n in (1024, 1500, 5000, 65537, (1 << 20) - 1):
        small = tables.sieve_values(spec, n)
        assert len(small) == n + 1
        assert not small.flags.writeable
        assert _same_bytes(small, tables._sieve_values(spec, n)), n


@pytest.mark.parametrize("spec, over_n, log_ratio", [
    (G.TAU, False, False), (G.SIGMA, True, True),
    (G.convolve(G.ID, G.PHI), True, False)])
def test_prefix_slice_equals_fresh_build(fresh_cache, spec, over_n, log_ratio):
    asymptotics._prefix(spec, 300_000, over_n, log_ratio)
    for n in (1, 999, 1024, 4097, 123_456, 300_000):
        got = asymptotics._prefix(spec, n, over_n, log_ratio)
        want = asymptotics._prefix_build(spec, over_n, log_ratio, n)
        assert not got.flags.writeable
        assert _same_bytes(got, want), n


def test_cache_keeps_largest_array_per_key(fresh_cache):
    tables.sieve_values(G.PHI, 5000)
    tables.sieve_values(G.PHI, 100)
    assert len(tables._grown[("sieve", G.PHI)]) == 8192 + 1
    assert len(tables.sieve_values(G.PHI, 20000)) == 20000 + 1
    for a in np.linspace(-0.9, -0.1, tables._CACHE_KEYS + 5):
        tables.sieve_values(G.id_pow(float(a)), 10)
    assert len(tables._grown) == tables._CACHE_KEYS
    assert ("sieve", G.PHI) not in tables._grown


@pytest.mark.parametrize("n, capacity", [
    (1, 1024), (1024, 1024), (1025, 2048), (5000, 8192), (1 << 20, 1 << 20),
    (9_000_000, MAX_SIEVE), (MAX_SIEVE, MAX_SIEVE),
    (MAX_SIEVE + 1, MAX_SIEVE + 1), (30_000_000, 30_000_000)])
def test_one_capacity_rule(n, capacity):
    assert tables._capacity(n) == capacity


def test_capacity_capped_for_every_table(fresh_cache):
    # the prefix and the sieve under it stop at MAX_SIEVE, not at 2^24
    asymptotics._prefix(G.TAU, 9_000_000)
    assert len(tables._grown[("prefix", G.TAU, False, False)]) == MAX_SIEVE + 1
    assert len(tables._grown[("sieve", G.TAU)]) == MAX_SIEVE + 1
    _clear()
    G.log_factorial_table(3000)
    assert tables._grown["stirling"].shape == (2, 4096 + 1)


@pytest.mark.parametrize("target, a", [("id_phi", None), ("sigma_logne", None),
                                       ("jordan_phi", -0.5),
                                       ("id-log-avg", None),
                                       ("tau-log-avg", None),
                                       ("jordan-log-avg", -0.5)])
def test_scan_matches_ascending_pointwise_scan(fresh_cache, target, a):
    grid = asymptotics.standard_grid(1e3, 2e5, 5)
    pointwise = [asymptotics.residual_scan(target, [x], a) for x in grid]
    _clear()
    scan = asymptotics.residual_scan(target, grid, a)
    for field in ("exact", "main", "correction", "residual", "normalized"):
        want = np.concatenate([getattr(p, field) for p in pointwise])
        assert _same_bytes(getattr(scan, field), want), field
