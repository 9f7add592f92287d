"""The Dirichlet-hyperbola kernel and the blocked extended-precision cumsum.

``hyperbola_sum`` must equal a brute-force double loop exactly on
integer-valued weights, ``on_quotients`` must carry the bytes of
``prefix_with_zero`` at every quotient, the pairs of k^-3, k^-4 and
mu(k)/k^2 to 1e7 must be within half an ulp of the exact sums of their
terms, and the six-term expansion
(each term and the total) and the Dirichlet series must stay within a
few ulps of longdouble oracles.  The g = 1 prefixes, closed forms above
their table, must each be within an ulp of their exact sums from mpmath;
rho(l)/l, whose float64 weights round, within 1.5 in its table and 1.25
above it.  So must the prefixes of l^a, against mpmath's Hurwitz zeta.
``hyperbola_prefixes``, the Dirichlet product at every quotient, must
equal a double loop on integer weights, and give sum sigma_a within an
ulp of the sieved pass it replaced and of mpmath.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gcdsums as G
from gcdsums import _accum, asymptotics, identities, series
from gcdsums.identities import identity_sum_table
from gcdsums.stirling import log_factorial_table
from gcdsums.tables import MU, ONE, TAU, blocks, sieve_values

from oracles import (MP_DIRECT, carried_cumsum, double_double_sum,
                     mp_one_prefix, mp_power_prefix, mp_sigma_a_sum,
                     on_quotients, series_lhs_longdouble,
                     sieved_sigma_a_prefixes, six_term_longdouble, ulps_from)

_BOUNDARY_N = sorted({m for r in range(1, 41)
                      for m in (r * r - 1, r * r, r * r + r, r * r + r + 1)
                      if m > 400})


@pytest.mark.parametrize("length", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                                    10 ** 6 + 7])
def test_cumsum_extended_matches_one_longdouble_cumsum(length):
    # the blocked prefix row against the whole-array form of its carry
    v = np.random.default_rng(length).standard_normal(length + 1) * 1e3
    want = np.append(0.0, carried_cumsum(v[1:]))
    assert _accum.prefix_with_zero(v).tobytes() == want.tobytes()


def test_quotient_prefixes_within_half_an_ulp_of_exact_sums():
    # k^-3, k^-4 and mu(k)/k^2 to 1e7, one pass: each pair at eight
    # quotients, hi[0] among them, within half an ulp of the exact sum of
    # the same float64 terms (one longdouble running sum drops every term
    # below half its ulp: 237 ulps for k^-3), each block's terms summed
    # by the oracle as the pass asks for them
    n = 10 ** 7
    r = math.isqrt(n)
    ds = [0, 2, 3, 7, 10, 151, 1000, r]
    vs = [n // max(d, 1) for d in ds]
    mu = _accum.reader(blocks(MU, n).values, n)
    totals, exact = [(0.0, 0.0)] * 3, [{} for _ in range(3)]

    def weights(lo, hi):
        inv = 1.0 / _accum.ramp(np.empty(hi - lo), lo)
        sq = inv * inv
        for i, t in enumerate((sq * inv, sq * sq, mu(lo, hi) * sq)):
            for v in vs:
                if lo <= v < hi:
                    exact[i][v] = sum(map(Fraction, double_double_sum(
                        t[:v - lo + 1], totals[i])))
            totals[i] = double_double_sum(t, totals[i])
            yield t

    (pairs,) = _accum.quotient_prefixes(lambda: weights, [n])
    for (_, hi), want in zip(pairs, exact):
        for d, v in zip(ds, vs):
            got = hi[d]
            assert abs(Fraction(got) - want[v]) <= Fraction(math.ulp(got)) / 2


@pytest.mark.parametrize("kind,factor", [
    ("v", 1.5),            # the plain tau sum
    ("v log m/m", 4.0),    # weighted by log m and divided by m
], ids=["v", "v-log-m-over-m"])
def test_prefix_build_peak_memory(kind, factor):
    """The blocked prefix pass stays below the bound the full-length
    prefix build it replaced was held to: factor n-length arrays."""
    n = 2 ** 20
    values = sieve_values(TAU, n)  # built before the measurement
    tracemalloc.start()
    try:
        pairs, = identities._table_pairs(lambda: values, [kind], [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(pairs[kind][1][0])
    assert peak < factor * 8 * (n + 1)


def _brute_pair_sum(w: list[int], c: list[int], n: int) -> int:
    return sum(w[d] * c[l] for d in range(1, n + 1) for l in range(1, n // d + 1))


@pytest.mark.parametrize("n_values", [range(1, 401), _BOUNDARY_N],
                         ids=["all_n_to_400", "near_squares_to_1681"])
def test_hyperbola_sum_equals_double_loop(n_values):
    rng = np.random.default_rng(7)
    size = max(n_values) + 1
    w = rng.integers(-50, 51, size)
    c = rng.integers(-50, 51, size)
    w[0] = c[0] = 0
    wl, cl = w.tolist(), c.tolist()
    for n in n_values:
        pairs = [on_quotients(v.astype(float), n) for v in (w, c)]
        got = _accum.hyperbola_sum([(1, *pairs)])
        assert got == _brute_pair_sum(wl, cl, n), n


def _quotients(n):
    """The quotients of n in the order of a pair's entries, lo then hi."""
    r = math.isqrt(n)
    return [*range(r + 1), *(n // max(d, 1) for d in range(r + 1))]


@pytest.mark.parametrize("n_values", [range(1, 201), _BOUNDARY_N[::8]],
                         ids=["all_n_to_200", "near_squares"])
def test_hyperbola_prefixes_equal_double_loop(n_values):
    rng = np.random.default_rng(11)
    size = max(n_values) + 1
    w, c = rng.integers(-50, 51, (2, size))
    w[0] = c[0] = 0
    wl, cl = w.tolist(), c.tolist()
    for n in n_values:
        pairs = [on_quotients(v.astype(float), n) for v in (w, c)]
        lo, hi = _accum.hyperbola_prefixes(n, *pairs)
        want = [_brute_pair_sum(wl, cl, v) for v in _quotients(n)]
        assert [*lo, *hi] == want, n


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 65537, 10 ** 6, 10 ** 7])
def test_sigma_a_pairs_within_an_ulp_of_the_sieved_pass(n):
    # H(l^a, count) against the pass over sigma_a's blocks, both rounded
    # once from longdouble
    (got,), _ = asymptotics._delta_prefixes([n], -0.5)
    want, = sieved_sigma_a_prefixes([n], -0.5)
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= np.spacing(w)), n


@pytest.mark.parametrize("a", [-0.9, -0.5, -0.1])
def test_sigma_a_pairs_against_mpmath(a):
    # sampled quotients of n up to 10^7: measured at most 0.63 ulp, where
    # the sieved pass erred up to 0.92 at the same quotients
    for n in (10 ** 7, 10 ** 6 + 3):
        (pair,), _ = asymptotics._delta_prefixes([n], a)
        r = math.isqrt(n)
        for i in (0, 1, 100, r):
            for v, got in ((n // max(i, 1), pair[1][i]), (i, pair[0][i])):
                assert ulps_from(got, mp_sigma_a_sum(v, a)) <= 1.0, (n, v)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 99, 1000, 4097, 65536])
def test_on_quotients_equals_prefix_at_every_quotient(n):
    v = np.random.default_rng(n).standard_normal(n + 1)
    full = _accum.prefix_with_zero(v)
    lo, hi = on_quotients(v, n)
    r = math.isqrt(n)
    assert lo.tobytes() == full[:r + 1].tobytes()
    assert hi[0] == full[n]
    assert hi[1:].tobytes() == full[[n // d for d in range(1, r + 1)]].tobytes()
    quotients = {n // i for i in range(1, n + 1)}
    assert quotients <= set(range(r + 1)) | {n // d for d in range(1, r + 1)}


@pytest.mark.parametrize("k_max", [1, 2, 3, 17, 1000])
def test_series_partial_sum_matches_per_k_table(catalog_tables, k_max):
    for f, g in catalog_tables:
        lf = log_factorial_table(k_max).log_factorial
        u = identity_sum_table(f.values, g.values, lf, k_max)
        for s in (3.0, 4.0):
            want = float(np.dot(u[1:], np.arange(1, k_max + 1.0) ** -s))
            got = series._u_partial_sum(f, g, s, [k_max])[0]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_exact_side_against_longdouble_oracle():
    n = 10 ** 6
    f, g = G.sieve(G.ID, n), G.sieve(G.MU, n)
    dec = G.apostol_log_average_terms(f, g, float(n))
    rho = log_factorial_table(n).rho
    oracle = float(sum(six_term_longdouble(f.values, g.values, rho, n)))
    assert abs(dec.total - oracle) <= 2e-14 * abs(oracle)


def test_exact_side_with_one_against_longdouble_oracle():
    # g = 1: its prefixes are closed forms above t = 1024
    n = 10 ** 6
    f = G.sieve(G.PHI, n)
    dec = G.apostol_log_average_terms(f, None, float(n))
    rho = log_factorial_table(n).rho
    oracle = float(sum(six_term_longdouble(f.values, sieve_values(ONE, n),
                                           rho, n)))
    assert abs(dec.total - oracle) <= 2e-14 * abs(oracle)


@pytest.mark.parametrize("n", [10 ** 5, 301414])
def test_each_term_against_longdouble_oracle(n):
    # every product of a term's hyperbola sum is added once by math.fsum,
    # so each term is within a few ulps of its longdouble pair sum (the
    # g = 1 prefixes above the table are closed forms, within an ulp)
    rho = log_factorial_table(n).rho
    one = sieve_values(ONE, n)
    for f, g in ((None, None), (G.PHI, None), (G.ID, G.MU)):
        ft, gt = (None if spec is None else G.sieve(spec, n)
                  for spec in (f, g))
        dec = G.apostol_log_average_terms(ft, gt, float(n))
        oracle = six_term_longdouble(
            *(one if t is None else t.values for t in (ft, gt)), rho, n)
        for k, (got, want) in enumerate(zip(dec.terms, oracle)):
            assert abs(got - want) <= 4 * 2.0 ** -52 * abs(want), (f, g, k)


# 10^6 (t = 1024) and two random n past 1024^2 (t = isqrt(n))
_ONE_N = [10 ** 6, *map(int, np.random.default_rng(19).integers(2 ** 20, 4 * 10 ** 6, 2))]


@pytest.mark.parametrize("n", _ONE_N)
def test_one_prefixes_against_mpmath(n):
    # rho(l)/l is the exception: its float64 weights rho(l) * (1/l) carry
    # up to 1.5 ulps each, the first few dominate its sum, and so the
    # table's prefixes (the sieve's bytes) reach 1.47 ulps at v = 7 and
    # its P(t) is 0.5 ulp off, which each closed form above the table
    # inherits through its anchor.  log l / l past the direct sums is
    # checked at every 64th quotient, as mpmath's Stieltjes constant
    # costs 30 ms.
    n = int(n)
    pairs, = identities._one_pairs([n], None, identities._KINDS[:6])
    t = max(math.isqrt(n), 1024)
    for k, (lo, hi) in enumerate(pairs.values()):
        for i, (v, got) in enumerate(zip(_quotients(n), [*lo, *hi])):
            if k == 2 and v > MP_DIRECT and i % 64:
                continue
            bound = 1.0 if k != 4 else 1.5 if v <= t else 1.25
            assert ulps_from(got, mp_one_prefix(k, v)) <= bound, (k, v)


@pytest.mark.parametrize("n", _ONE_N)
@pytest.mark.parametrize("a", [-0.9, -0.5, -0.1])
def test_power_prefixes_against_mpmath(n, a):
    # the l^a pair, summed up to t and Euler-Maclaurin past it, at every
    # quotient of n: within an ulp of zeta(-a) - zeta(-a, v + 1)
    n = int(n)
    pairs, = identities._one_pairs([n], a, ["m^a"])
    lo, hi = pairs["m^a"]
    for v, got in zip(_quotients(n), [*lo, *hi]):
        assert ulps_from(got, mp_power_prefix(v, a)) <= 1.0, v


@pytest.mark.parametrize("s", [3.0, 4.0])
def test_series_lhs_against_longdouble_oracle(s):
    # log l! is taken as it is: through the six-term Stirling split of
    # apostol_log_average_terms the lhs erred 7.6e-15 (s = 3) and 2.8e-14
    # (s = 4) here
    k_max = 10 ** 4
    f, g = G.sieve(G.id_pow(0.5), k_max), G.sieve(G.MU, k_max)
    oracle = float(series_lhs_longdouble(f.values, g.values, s, k_max))
    got = series._u_partial_sum(f, g, s, [k_max])[0]
    assert abs(got - oracle) <= 5e-15 * abs(oracle)
