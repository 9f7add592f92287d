"""The one capacity cache behind ``sieve_values`` and the Stirling rows.

Each key keeps its largest array; a smaller request must get a slice
equal by bytes to a direct build at the smaller size, so a scan's values
do not depend on the order its points are evaluated in.  A scan caches
only the weight sieve of its Delta correction, which ``mu_delta_sum``
reads once per x.  Its exact side reads each table once for the whole
grid, built outside the cache (``tables.sieve_once``), and forms g = 1
and rho per block; prefix sums are not cached, the log l! row is built
only for the per-k audits and the series, and tau's prefix at the
quotients comes from the integer hyperbola, not a sieve.  The series
bracket caches f, mu and the log l! row: its f*mu is built from f and
mu, and its g = 1 is formed per block too.
"""

import numpy as np
import pytest

import gcdsums as G
from gcdsums import asymptotics, stirling, tables
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


_GRID = asymptotics.standard_grid(1e3, 1e5, 3)


@pytest.mark.parametrize("run, specs, rows", [
    (lambda: asymptotics.residual_scan("id-log-avg", _GRID), [G.MU], []),
    (lambda: asymptotics.residual_scan("id_phi", _GRID), [G.MU], []),
    (lambda: [asymptotics.delta_integral_ratio(x) for x in _GRID],
     [], []),
    (lambda: G.series_theta_bracket(G.sieve(G.ID, 10 ** 5), 3.0, 10 ** 5),
     [G.ID, G.MU], ["log_factorial"])],
    ids=["id-log-avg", "id_phi", "delta_integral_ratio",
         "series_theta_bracket"])
def test_cache_holds_only_what_a_scan_reads(fresh_cache, run, specs, rows):
    run()
    want = ({("sieve", spec) for spec in specs}
            | {("stirling", row) for row in rows})
    assert set(tables._grown) == want


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
    # the sieve stops at MAX_SIEVE, not at 2^24
    tables.sieve_values(G.TAU, 9_000_000)
    assert list(tables._grown) == [("sieve", G.TAU)]
    assert len(tables._grown[("sieve", G.TAU)]) == MAX_SIEVE + 1
    _clear()
    # each Stirling row on its own key, at the same capacity
    stirling.rho_row(3000)
    assert list(tables._grown) == [("stirling", "rho")]
    stirling.log_factorial_row(3000)
    G.log_factorial_table(3000)
    assert list(tables._grown) == [("stirling", "rho"),
                                   ("stirling", "log_factorial")]
    for row in tables._grown.values():
        assert row.shape == (4096 + 1,)


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


def _recording_mobius(monkeypatch):
    calls = []
    real = tables._mobius_values

    def record(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(tables, "_mobius_values", record)
    return calls


@pytest.mark.parametrize("text", ["conv:jordan:0.5,mu", "conv:mu,mu"])
def test_shared_operand_sieved_once_per_build(fresh_cache, monkeypatch, text):
    spec = parse_spec(text)
    n = 5000
    # built without sharing: every operand sieved on its own
    left, right = (tables._sieve_values(op, n) for op in spec.operands)
    unshared = tables._convolve_values(left, right, n)
    calls = _recording_mobius(monkeypatch)
    got = tables.sieve_values(spec, n)
    assert calls == [tables._capacity(n)]
    assert _same_bytes(got, unshared[:n + 1])
    # the operands are dropped after the build: only the result is cached
    assert list(tables._grown) == [("sieve", spec)]


def test_jordan_scan_sieves_mu_twice(fresh_cache, monkeypatch):
    # once for conv:jordan:0.5,mu (the exact side, built outside the cache),
    # once for conv:mu,mu (the Delta weights, cached with the sigma_a sieve
    # of Delta_a), both at the capacity of the largest x
    calls = _recording_mobius(monkeypatch)
    asymptotics.residual_scan("jordan-log-avg", [1e3, 2e4], -0.5)
    assert calls == [32768, 32768]
    assert set(tables._grown) == {("sieve", G.convolve(G.MU, G.MU)),
                                  ("sieve", G.sigma_pow(-0.5))}
