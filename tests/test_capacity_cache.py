"""Tables built for the call that reads them, in place of a shared cache.

The sieves and the two Stirling rows were once kept in a capacity cache
that served smaller requests as slices of the largest array built.  Now
every table is built for its caller and freed with it, so what the cache
promised is promised by the builds themselves: a build at n equals the
first n + 1 entries of any wider build, bit for bit, so a scan's values
do not depend on the size or order its points are evaluated in.  A scan
builds each table once: its exact side for the largest x, and its Delta
correction (``mu_delta_grid``) its weight sieve, once for the whole grid.
Delta's divisor sum, sigma_a for ``Delta_a`` as tau for ``Delta``, is a
hyperbola sum of the g = 1 pairs, so no scan builds a sigma_a table.
The g = 1 pairs keep the same promise: a grid shares one g = 1 table,
but each n reads it only up to its own t(n) = min(max(isqrt(n), 1024),
n) and takes closed forms above it, so n's pairs are the same in every
grid (``tests/test_block_buffers.py::test_tau_count_prefixes_alone``).
"""

from collections import Counter

import numpy as np
import pytest

import gcdsums as G
from gcdsums import asymptotics, series, stirling, tables
from gcdsums.tables import parse_spec

_WIDE = 1 << 20
# around the Stirling seed (1024), a block edge and above
_SIZES = [1, 6, 1023, 1024, 1025, 5000, 65537]


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


# every kind; the products of prime powers (phi, sigma_a and the conv trees of mu, phi,
# id_a and sigma_a) take f(p) from one expression on both sides of
# isqrt(n), so a prime that is large in a small build and small in a wide
# one scales its multiples by the same bytes, and last in both
@pytest.mark.parametrize("text", ["phi", "conv:id,phi", "jordan:0.5",
                                  "jordan:-1", "conv:jordan:0.5,mu",
                                  "conv:mu,mu", "mu", "idpow:-0.5", "lambda",
                                  "sigmapow:-0.5", "divlog", "ptlog:phi",
                                  "ptpow:0.5,mu"])
def test_sieve_slice_after_large_request(text):
    spec = parse_spec(text)
    wide = tables.sieve_values(spec, _WIDE)
    assert len(wide) == _WIDE + 1
    for n in _SIZES:
        small = tables.sieve_values(spec, n)
        assert len(small) == n + 1
        assert not small.flags.writeable
        assert _same_bytes(small, wide[:n + 1]), n


_B = 1 << 16
# every kind ``tables.blocks`` builds, and the sizes around one and two
# blocks
_BLOCK_SPECS = ["mu", "lambda", "phi", "idpow:0.5", "idpow:-0.5",
                "sigmapow:-0.5", "sigmapow:-1", "jordan:0.5", "jordan:-1",
                "conv:mu,mu", "conv:phi,mu", "conv:jordan:0.5,mu", "log",
                "divlog", "ptlog:lambda", "ptpow:0.5,mu"]
_BLOCK_N = [1, 2, _B - 1, _B, _B + 1, 2 * _B + 1, 10 ** 6 + 7]


@pytest.mark.parametrize("text", _BLOCK_SPECS)
def test_blocks_equal_a_wider_build(text):
    # each block at each size has the bytes of the same entries of one
    # wider whole build, whether read in order, in reverse or twice, as the
    # passes read them (from 1) or as the whole build writes them (from 0)
    spec = parse_spec(text)
    wide = tables.sieve_values(spec, 10 ** 6 + _B)
    for n in _BLOCK_N:
        values = tables.blocks(spec, n).values
        for start in (0, 1):
            los = list(range(start, n + 1, _B))
            for lo in los + los[::-1]:
                hi = min(lo + _B, n + 1)
                assert _same_bytes(values[lo:hi], wide[lo:hi]), (n, lo)


@pytest.mark.parametrize("row", [stirling.log_factorial_row,
                                 lambda n: stirling.log_factorial_table(n).rho],
                         ids=["log_factorial", "rho"])
def test_stirling_row_is_a_slice_of_a_wider_row(row):
    wide = row(_WIDE)
    for n in _SIZES:
        small = row(n)
        assert small.shape == (n + 1,)
        assert not small.flags.writeable
        assert _same_bytes(small, wide[:n + 1]), n


@pytest.mark.parametrize("target, a", [("id_phi", None), ("sigma_logne", None),
                                       ("jordan_phi", -0.5),
                                       ("id-log-avg", None),
                                       ("tau-log-avg", None),
                                       ("jordan-log-avg", -0.5)])
def test_scan_matches_ascending_pointwise_scan(target, a):
    grid = asymptotics.standard_grid(1e3, 2e5, 5)
    pointwise = [asymptotics.residual_scan(target, [x], a) for x in grid]
    scan = asymptotics.residual_scan(target, grid, a)
    for field in ("exact", "main", "correction", "residual", "normalized"):
        want = np.concatenate([getattr(p, field) for p in pointwise])
        assert _same_bytes(getattr(scan, field), want), field


def _recording(monkeypatch, name):
    """Calls of the tables function ``name``, recorded as argument tuples."""
    calls = []
    real = getattr(tables, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tables, name, record)
    return calls


@pytest.mark.parametrize("text", ["conv:jordan:0.5,mu", "conv:mu,mu"])
def test_multiplicative_tree_builds_no_operand(monkeypatch, text):
    # built from its prime powers in one pass: no operand is sieved, mu
    # (which the tree repeats) not even once
    spec = parse_spec(text)
    n = 5000
    builds = _recording(monkeypatch, "_block_fill")
    primes = _recording(monkeypatch, "_primes_upto")
    tables.sieve_values(spec, n)
    assert builds == [(spec, n)]
    # the primes up to n are listed once, not once per block
    assert primes.count((n,)) == 1


_GRID = [1e3, 7e3, 2e4]


@pytest.mark.parametrize("target, a, specs", [
    ("id-log-avg", None, ["phi", "mu"]),
    ("id_phi", None, ["phi", "mu"]),
    ("jordan-log-avg", -0.5, ["conv:conv:mu,idpow:0.5,mu", "conv:mu,mu"])])
def test_delta_corrected_scan_builds_each_table_once(monkeypatch, target, a,
                                                     specs):
    # the exact side and the Delta correction each prepare their tables'
    # blocks for the largest x, once per scan, not once per x
    calls = _recording(monkeypatch, "_block_fill")
    asymptotics.residual_scan(target, _GRID, a)
    assert Counter(spec for spec, _ in calls) == Counter(map(parse_spec, specs))
    assert all(n == _GRID[-1] for _, n in calls)


# each statistic that reads a sieved operand, at a = -0.5: the operands
# it builds in place of the product whose sum it is (id and id_{1+a} are
# the count and l^a pairs of the g = 1 side, built by no sieve)
_OPERANDS = {
    "id_phi": ["phi"],
    "phi_phi": ["phi"],
    "idpow_phi": ["phi"],
    "jordan_phi": ["jordan:0.5", "phi"],
    "jordan_over_n": ["mu"],
    "phi_over_n": ["mu"],
    "id_lambda": ["lambda"],
    "phi_lambda": ["phi", "lambda"],
    "idpow_lambda": ["lambda"],
    "jordan_lambda": ["jordan:0.5", "lambda"],
    "id_jordan_m1": ["jordan:-1"],
    "phi_jordan_m1": ["phi", "jordan:-1"],
    "idpow_jordan_m1": ["jordan:-1"],
    "jordan_jordan_m1": ["jordan:0.5", "jordan:-1"],
}


@pytest.mark.parametrize("name", sorted(_OPERANDS))
def test_statistic_builds_its_operands_not_their_product(monkeypatch, name):
    # a hyperbola sum of its two operands: each sieved operand's blocks
    # prepared once, for the largest x, and the product never
    calls = _recording(monkeypatch, "_block_fill")
    t = asymptotics.STATISTICS[name]
    t.parts(_GRID, -0.5 if t.needs_a else None)
    built = [spec for spec, _ in calls]
    assert built == [parse_spec(text) for text in _OPERANDS[name]]
    assert all(n == _GRID[-1] for _, n in calls)


def test_jordan_scan_sieves_no_mu(monkeypatch):
    # conv:jordan:0.5,mu (the exact side) and conv:mu,mu (the Delta
    # weights) are each one product of prime powers at the largest x, and
    # neither sieves mu
    builds = _recording(monkeypatch, "_block_fill")
    asymptotics.residual_scan("jordan-log-avg", [1e3, 2e4], -0.5)
    assert Counter(builds) == Counter(
        (parse_spec(text), 20000)
        for text in ("conv:jordan:0.5,mu", "conv:mu,mu"))


def _holds_sigma_pow(spec):
    return (spec.kind is tables.Kind.SIGMA_POW
            or any(map(_holds_sigma_pow, spec.operands)))


_TARGETS = {**asymptotics.SCAN_TARGETS, **asymptotics.STATISTICS}


@pytest.mark.parametrize("target", sorted(_TARGETS))
def test_scan_builds_no_sigma_pow_table(monkeypatch, target):
    # Delta_a's sum of sigma_a is H(l^a, count) of the g = 1 pairs, and no
    # exact side reads a sigma_a table either
    calls = _recording(monkeypatch, "_block_fill")
    a = -0.5 if _TARGETS[target].needs_a else None
    asymptotics.residual_scan(target, _GRID, a)
    assert not [spec for spec, _ in calls if _holds_sigma_pow(spec)]


@pytest.mark.parametrize("text", ["id", "phi", "idpow:0.5", "log"])
def test_series_bracket_builds_f_mu_up_to_k(monkeypatch, text):
    # f*mu is built up to K, not to f's range, and the bracket's lhs is
    # the one from f*mu built over all of f; f*mu is one table, a product
    # of prime powers or, for log, Lambda, so mu is never sieved
    spec = parse_spec(text)
    f_mu = G.VON_MANGOLDT if text == "log" else tables.convolve(spec, G.MU)
    f = G.sieve(spec, 10 ** 5)
    whole = G.sieve(tables._with_mu(spec), f.n_max)
    for k in (6, 100, 1000, 5000, 10 ** 5):
        calls = _recording(monkeypatch, "_block_fill")
        lhs = G.series_theta_bracket(f, 3.0, [k])[0].lhs
        monkeypatch.undo()
        assert calls == [(f_mu, k)], k
        assert lhs == series._u_partial_sum(whole, None, 3.0, [k])[0], k
