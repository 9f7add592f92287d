"""The blocked O(x) stages of a scan against their whole-array forms.

``mu_delta_sum``, the prefix sums at the quotients (``on_quotients``,
the six-term weights of ``apostol_log_average_terms``, the Dirichlet
series' weights and the exact sides of the statistics and the Delta
diagnostics) and the Stirling rows work a block of ``_accum._BLOCK`` at
a time.  Each must give the bytes of the whole-array form in ``oracles``
at sizes around the block edge; past one block, ``mu_delta_sum``, whose
partial dots add in another order, must instead come within a few ulps
of the exact sum of its terms.  Each must peak at the tables it is given
plus its declared count of n-length arrays (the tables it builds among
them), its declared count of blocks and, for the one pass over a whole
grid, its declared quotient-set floats, and each sieve build at its
result and live operands plus a few blocks (a product of prime powers at
its result, a block and a few floats per prime), and Toth's per-k audits
at their tables and lists plus one run of divisor lists.  The pass over
a grid must give the bytes of the passes over its points one at a time,
and rho formed per block the bytes of the rho row.  A pass must ask its
weights an eighth of a block at a time, fill each block of a table once
and drop the table, with no reference cycle, before its pairs arrive.
The constant 1 formed per block (in the series and the per-k reference)
must equal the ONE sieve, and tau's prefixes by ``hyperbola_prefixes``
the tau sieve's and the integer hyperbola's, by bytes.  The g = 1
six-term prefixes must equal the ONE sieve's by bytes up to n = 1024
and, closed forms past their table, within an ulp; f = g = 1 must hold
no array of length x.  The exact sides that are hyperbola sums of
those g = 1 prefixes (five divisor statistics, ``power_sum`` and
``Delta_a``) sieve nothing, and
the sieved whole-array prefix stays their oracle: each must come within
4 ulps of it, relative.  The other statistics, hyperbola sums of their
two operands, must come within 2 ulps of it, and build no table of their
product.
"""

import functools
import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcdsums as G
from gcdsums import _accum, asymptotics, identities, series, stirling, tables
from gcdsums.tables import (DIVISOR_LOG, ID, LOG, MU, ONE, PHI, SIGMA, TAU,
                            VON_MANGOLDT, convolve, id_pow, jordan,
                            pointwise_pow_spec, sieve_values, sigma_pow)
from gcdsums.zeta import constants

from oracles import (carried_cumsum, fsum_mu_delta,
                     integer_tau_prefixes, on_quotients, series_rhs_terms,
                     split_convolve, whole_array_average_pairs,
                     whole_array_mu_delta, whole_array_on_quotients,
                     whole_array_prefix, whole_array_rho,
                     whole_array_stirling)

_B = _accum._BLOCK
SIZES = [1, _B - 1, _B, _B + 1, 10 ** 6 + 7, 100.5]


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_pairs(got, want):
    return len(got) == len(want) and all(
        _same_bytes(g, w) for gp, wp in zip(got, want) for g, w in zip(gp, wp))


@pytest.mark.parametrize("x", SIZES)
@pytest.mark.parametrize("kind, weight", [("mu", MU),
                                          ("mu_star_mu", convolve(MU, MU))])
@pytest.mark.parametrize("a", [None, -0.5])
def test_mu_delta_sum_equals_whole_array_form(x, kind, weight, a):
    n = math.floor(x)
    if a is None:
        slope = 2.0 * constants().gamma - 1.0
        prefix = whole_array_prefix(sieve_values(TAU, n), n)

        def smooth(y):
            return y * np.log(y) + slope * y
    else:
        # the pairs mu_delta_sum reads, on the quotients of n: the blocked
        # dot is checked here, and the pairs against their oracles in
        # test_hyperbola
        (lo, hi), = asymptotics._delta_prefixes([n], a)[0]
        prefix = np.zeros(n + 1)
        prefix[:len(lo)] = lo
        prefix[n // np.arange(1, len(hi))] = hi[1:]

        def smooth(y):
            return asymptotics._sigma_a_smooth(y, a)
    weights = sieve_values(weight, n)
    got = asymptotics.mu_delta_sum(x, kind, a, log_factor=False)
    if n <= _B:
        # one block: the one dot of the whole-array form
        assert got == whole_array_mu_delta(x, weights, prefix, smooth)
    else:
        # the blocks' dots add in another order: within a few ulps of the
        # exact sum of the same products, scaled by the sum of their sizes
        want, size = fsum_mu_delta(x, weights, prefix, smooth)
        assert abs(got - want) <= 4 * 2.0 ** -52 * size
    assert asymptotics.mu_delta_sum(x, kind, a) == got * (math.log(x) - 1.0)


@pytest.mark.parametrize("x", SIZES)
def test_on_quotients_equals_whole_array_form(x):
    n = math.floor(x)
    v = np.random.default_rng(n).standard_normal(n + 1) * 1e3
    assert _same_pairs([on_quotients(v, n)],
                       [whole_array_on_quotients(v, n)])


_GRIDS = {
    "repeated_n": [500.2, 500.7, 1500, 2e5],
    "below_1024": [1, 2, 3, 4, 5, 31, 32, 33, 100.5, 1023],
    "single_point": [_B + 1],
    "benchmark": asymptotics.standard_grid(1e3, 1e6, 7),
    "dense_runs": range(1000, 2001),
}


@pytest.mark.parametrize("grid", _GRIDS.values(), ids=_GRIDS)
def test_grid_pass_equals_per_n_passes(grid):
    ns = [math.floor(x) for x in grid]
    v = np.random.default_rng(len(ns)).standard_normal(max(ns) + 1) * 1e3

    def weights(lo, hi):
        yield v[lo:hi]
        yield v[lo:hi] / np.arange(lo, hi)

    got = list(_accum.quotient_prefixes(lambda: weights, ns))
    assert len(got) == len(ns)
    for n, pairs in zip(ns, got):
        alone, = _accum.quotient_prefixes(lambda: weights, [n])
        assert _same_pairs(pairs, alone), n
    runs = list(_accum._runs(sorted(set(ns))))
    assert (len(runs) > 1) == (grid is _GRIDS["dense_runs"])
    assert all(len(run) == 1 or sum(2 * (math.isqrt(n) + 1) for n in run)
               <= max(ns) + 1 for run in runs)


def test_grid_pass_rejects_a_descending_grid():
    with pytest.raises(ValueError):
        next(_accum.quotient_prefixes(
            lambda: lambda lo, hi: (_VALUES[lo:hi],), [10, 9]))


def test_grid_pass_opens_each_run_and_drops_it_before_its_pairs():
    # a dense grid that ``_runs`` splits: one ``open_pass`` per run, and
    # what it made is freed when that run's first pair arrives
    ns = list(_GRIDS["dense_runs"])
    runs = list(_accum._runs(ns))
    assert len(runs) > 1
    opened = []

    def open_pass():
        values = np.ones(ns[-1] + 1)
        opened.append(weakref.ref(values))
        return lambda lo, hi: (values[lo:hi],)

    firsts = {run[0]: i for i, run in enumerate(runs, 1)}
    for n, ((_, hi),) in zip(ns, _accum.quotient_prefixes(open_pass, ns)):
        assert hi[0] == n
        if n in firsts:
            assert len(opened) == firsts[n]
            assert opened[-1]() is None, n
    assert len(opened) == len(runs)


def test_table_pass_builds_its_table_once_per_run():
    # ``identities._table_pairs`` opens its builder inside each run's pass
    ns = list(_GRIDS["dense_runs"])
    built = []

    def build():
        built.append(None)
        return np.ones(ns[-1] + 1)

    pairs = list(identities._table_pairs(build, ["v"], ns))
    assert len(built) == len(list(_accum._runs(ns)))
    assert [p["v"][1][0] for p in pairs] == ns


def test_table_pass_drops_its_blocks_before_its_pairs():
    # with the collector off, each run's ``tables.blocks`` table, and the
    # reader that serves it, is freed by reference counts alone by the
    # time that run's first pair arrives: nothing of the pass holds a
    # reference cycle (a table has no weak references; its fill has)
    ns = list(_GRIDS["dense_runs"])
    runs = list(_accum._runs(ns))
    fills = []

    def build():
        values = tables.blocks(PHI, ns[-1]).values
        fills.append(weakref.ref(values.fill))
        return values

    firsts = {run[0]: i for i, run in enumerate(runs, 1)}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n, pairs in zip(ns, identities._table_pairs(
                build, ["v", "v/m", "v rho/m"], ns)):
            assert pairs["v/m"][1][0] > 0
            if n in firsts:
                assert len(fills) == firsts[n]
                assert fills[-1]() is None, n
    finally:
        if enabled:
            gc.enable()
    assert len(fills) == len(runs)


@pytest.mark.parametrize("grid", [[1], [_B - 1], [_B], [_B + 1], [3 * _B + 5],
                                  _GRIDS["dense_runs"]],
                         ids=["1", "B-1", "B", "B+1", "3B+5", "dense_runs"])
def test_table_pass_asks_for_eighths_and_fills_each_block_once(monkeypatch,
                                                               grid):
    # the pass asks its weights for spans of at most an eighth of a block
    # that tile 1..max(n) of each run in ascending order, and the reader
    # fills a table's block once, a whole block at a time
    ns = list(grid)
    runs = list(_accum._runs(ns))
    asked, filled = [], []
    real = identities.quotient_prefixes

    def spy(open_pass, ns):
        def spied_pass():
            weights = open_pass()
            asked.append([])

            def spied(lo, hi):
                asked[-1].append((lo, hi))
                return weights(lo, hi)
            return spied
        return real(spied_pass, ns)

    monkeypatch.setattr(identities, "quotient_prefixes", spy)
    values = tables.blocks(PHI, ns[-1]).values

    def counted(out, lo):
        filled.append(lo)
        values.fill(out, lo)

    kinds = _F_KINDS + ("v", "v log m", "v rho/m")
    got = list(identities._table_pairs(lambda: tables.Blocks(counted), kinds,
                                       ns))
    assert len(asked) == len(runs)
    for spans, run in zip(asked, runs):
        assert all(0 < hi - lo <= _B // 8 for lo, hi in spans)
        assert [lo for lo, _ in spans] == [1] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == run[-1] + 1
    assert filled == [lo for run in runs for lo in range(1, run[-1] + 1, _B)]
    # and the pairs of the table read whole
    monkeypatch.setattr(identities, "quotient_prefixes", real)
    fv = sieve_values(PHI, ns[-1])
    want = list(identities._table_pairs(lambda: fv, kinds, ns))
    assert all(_same_pairs([p[k] for k in kinds], [w[k] for k in kinds])
               for p, w in zip(got, want))


# the six g-side kinds of the six-term expansion and the three f-side
# ones, in the order of ``whole_array_average_pairs``
_G_KINDS = ("v", "v log m", "v log m/m", "v/m", "v rho/m", "|v|/m^2")
_F_KINDS = ("v/m", "v log m/m", "|v|/m")


def _kind_pairs(values, kinds, n):
    """The pairs of one table's kinds at n alone, rho formed per block."""
    pairs, = identities._table_pairs(lambda: values, kinds, [n])
    return [pairs[k] for k in kinds]


@pytest.mark.parametrize("x", SIZES)
@pytest.mark.parametrize("f, g", [(G.ID, G.MU), (G.PHI, G.ONE)])
def test_average_weights_equal_whole_array_form(x, f, g):
    # rho formed per block must give the bytes of the rho row
    n = math.floor(x)
    fv, gv, rho = (sieve_values(f, n), sieve_values(g, n),
                   G.log_factorial_table(n).rho)
    assert _same_pairs(_kind_pairs(gv, _G_KINDS, n)
                       + _kind_pairs(fv, _F_KINDS, n),
                       whole_array_average_pairs(fv, gv, rho,
                                                 sieve_values(LOG, n), n))


def _within_ulps(got, want, ulps):
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want)
                       <= ulps * np.spacing(np.maximum(abs(got), abs(want)))))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3 * _B + 7))
def test_average_weights_with_one_per_block_equal_one_sieve(n):
    # g = 1 (and f = 1) from its closed forms past t = 1024: the ONE
    # sieve's bytes up to there, past it each prefix within an ulp of the
    # sieve's and each of the seven terms within 4 ulps of 1.0, relative
    got, = identities._one_pairs([n], None, _G_KINDS)
    got = list(got.values())
    want = _kind_pairs(sieve_values(ONE, n), _G_KINDS, n)
    if n <= 1024:
        assert _same_pairs(got, want)
        return
    assert all(_within_ulps(g, w, 1) for gp, wp in zip(got, want)
               for g, w in zip(gp, wp))
    phi, one = G.sieve(PHI, n), G.sieve(ONE, n)
    for f, f_sieved in ((phi, phi), (None, one)):
        terms = [np.array([*d.terms, d.remainder_bound]) for d, in
                 (identities.apostol_log_average_grid(f, None, [n]),
                  identities.apostol_log_average_grid(f_sieved, one, [n]))]
        assert np.all(abs(terms[0] - terms[1])
                      <= 4 * 2.0 ** -52 * abs(terms[1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, _B - 1, _B, _B + 1])
def test_series_and_per_k_reference_with_one_equal_one_sieve(n):
    fmu, one = G.sieve(convolve(PHI, MU), n), G.sieve(ONE, n)
    assert (series._u_partial_sum(fmu, None, 3.5, [n])[0]
            == series._u_partial_sum(fmu, one, 3.5, [n])[0])
    lf = stirling.log_factorial_row(n)
    assert _same_bytes(identities.identity_sum_table(fmu.values, None, lf, n),
                       identities.identity_sum_table(fmu.values, one.values,
                                                     lf, n))


# perfect squares (1, 4, 1024, 10^6) and the block and capacity edges
_TAU_N = [1, 2, 3, 4, 5, 1023, 1024, 1025, 65537, 999_999, 10 ** 6,
          3_000_017, 9_999_991, 10 ** 7]


@pytest.fixture(scope="module")
def tau_values():
    return sieve_values(TAU, max(_TAU_N))


@pytest.mark.parametrize("n", _TAU_N)
def test_tau_prefixes_equal_tau_sieve_prefixes(tau_values, n):
    # sum tau = H(count, count) and sum m tau(m) = H(T, T), T(u) =
    # u (u + 1) / 2, by ``hyperbola_prefixes`` as the Delta sides form
    # them: the bytes of the sieve's prefixes and of the integer hyperbola
    (d_pair,), _ = asymptotics._delta_prefixes([n], None)
    count = next(identities._one_pairs([n], None, ["v"]))["v"]
    t = tuple(u * (u + 1) / 2 for u in count)
    s_pair = _accum.hyperbola_prefixes(n, t, t)
    assert _same_pairs([d_pair], [whole_array_on_quotients(tau_values, n)])
    m_tau = tau_values[:n + 1] * np.arange(n + 1)
    assert _same_pairs([s_pair], [whole_array_on_quotients(m_tau, n)])
    assert _same_pairs([d_pair, s_pair], integer_tau_prefixes(n))


@pytest.mark.parametrize("k", [1, 7, _B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("s", [3.0, 4.0])
def test_blocked_powers_equal_whole_array_powers(k, s):
    # the series' weight writer powers each block of exact integers
    # (``_accum.ramp``) in place
    for e in (s, s - 1.0):
        whole = np.arange(1, k + 1, dtype=np.float64) ** (-e)
        blocks = []
        for lo in range(1, k + 1, _B):
            block = _accum.ramp(np.empty(min(lo + _B, k + 1) - lo), lo)
            block **= -e
            blocks.append(block)
        assert _same_bytes(np.concatenate(blocks), whole)


@pytest.mark.parametrize("k", [1, 7, _B // 8 - 1, _B // 8, _B // 8 + 1,
                               _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("s", [3.0, 4.0])
def test_power_sums_equal_whole_array_form(k, s):
    # each sum at K, from the blocks and the L(l) carried from block to
    # block: the carried prefix at K of the whole-K products, in the
    # weight writer's product order
    ft, gt = G.sieve(PHI, k), G.sieve(MU, k)
    f_log, g_id, f_sum, g_lf = (
        carried_cumsum(t)[-1] for t in
        series_rhs_terms(ft.values, gt.values, stirling.log_factorial_row(k),
                         s, k))
    (_, sums), = series._passes(ft, gt, s, [k])
    assert sums == [f_log, g_id, f_sum, g_lf]


@pytest.mark.parametrize("k", [1, 7, _B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("f, g, s", [(ID, MU, 3.0), (PHI, ONE, 4.0)])
def test_u_partial_sum_equals_whole_array_form(k, f, g, s):
    ft, gt = G.sieve(f, k), G.sieve(g, k)
    lf, logs = whole_array_stirling(k)[0], sieve_values(LOG, k)

    def pair(values, e):
        # the whole-K weight, as the series formed it before the blocking
        whole = values[1:k + 1] * np.arange(1, k + 1, dtype=np.float64) ** (-e)
        return whole_array_on_quotients(np.append(0.0, whole), k)

    want = _accum.hyperbola_sum([
        (1, pair(ft.values * logs, s), pair(gt.values, s - 1.0)),
        (1, pair(ft.values, s), pair(gt.values * lf, s))])
    assert series._u_partial_sum(ft, gt, s, [k])[0] == want


# each statistic's spec at a = -0.5 and whether its terms are divided by m
# (over_n) and weighted by log(m/e) (log_ratio), as ``_statistics`` defines
# it; a product with Lambda, which no conv tree holds, as its two operands,
# convolved by the oracle kernel
_A = -0.5
_PHI_M1 = jordan(-1.0)
_STATISTIC_SUMS = {
    "id_phi": (convolve(ID, PHI), True, False),
    "phi_phi": (convolve(PHI, PHI), True, False),
    "idpow_phi": (convolve(id_pow(1 + _A), PHI), True, False),
    "jordan_phi": (convolve(jordan(1 + _A), PHI), True, False),
    "divisor_log": (DIVISOR_LOG, True, False),
    "sigma_logne": (SIGMA, True, True),
    "power_sum": (id_pow(_A), False, False),
    "jordan_over_n": (jordan(1 + _A), True, False),
    "sigma_minus1": (sigma_pow(-1.0), True, False),
    "phi_over_n": (PHI, True, False),
    "tau_over_n": (TAU, True, False),
    "sigma_over_n": (SIGMA, True, False),
    "id_lambda": ((ID, VON_MANGOLDT), True, False),
    "phi_lambda": ((PHI, VON_MANGOLDT), True, False),
    "idpow_lambda": ((id_pow(1 + _A), VON_MANGOLDT), True, False),
    "jordan_lambda": ((jordan(1 + _A), VON_MANGOLDT), True, False),
    "id_jordan_m1": (convolve(ID, _PHI_M1), True, False),
    "phi_jordan_m1": (convolve(PHI, _PHI_M1), True, False),
    "idpow_jordan_m1": (convolve(id_pow(1 + _A), _PHI_M1), True, False),
    "jordan_jordan_m1": (convolve(jordan(1 + _A), _PHI_M1), True, False),
}


def _statistic(name):
    spec, over_n, log_ratio = _STATISTIC_SUMS[name]
    t = asymptotics.STATISTICS[name]
    a = _A if t.needs_a else None

    def got(ns):
        # the whole grid in one pass, ascending
        exact, remainder = t.parts([float(n) for n in ns[::-1]], a)
        assert not remainder.any()
        return exact[::-1].tolist()

    # one whole-array prefix for every n: P(n) of a longdouble cumsum does
    # not depend on the entries past n, and a sieve at n is the first
    # n + 1 entries of a wider one
    top = max(_PREFIX_N)
    prefix = functools.cache(lambda: whole_array_prefix(
        split_convolve(*(sieve_values(op, top) for op in spec), top)
        if isinstance(spec, tuple) else sieve_values(spec, top),
        top, over_n, log_ratio))
    return got, lambda n: float(prefix()[n])


def _delta(n):
    gamma = constants().gamma
    p = whole_array_prefix(sieve_values(TAU, n), n)
    return float(p[n]) - (n * math.log(n) + (2.0 * gamma - 1.0) * n)


def _sigma_a_sum(n):
    return float(whole_array_prefix(sieve_values(sigma_pow(_A), n), n)[n])


def _delta_a(n):
    return _sigma_a_sum(n) - float(asymptotics._sigma_a_smooth(float(n), _A))


def _delta_integral(n):
    # both step sums, of tau(m) and of m tau(m), from whole-array prefixes
    t = whole_array_prefix(sieve_values(TAU, n), n)[n]
    nt = whole_array_prefix(
        sieve_values(pointwise_pow_spec(TAU, 1.0), n), n)[n]
    slope = 2.0 * constants().gamma - 1.0

    def smooth(y):
        return 0.5 * y * y * math.log(y) - 0.25 * y * y + 0.5 * slope * y * y

    step = n * float(t) - float(nt)
    return (step - (smooth(n) - smooth(1.0))) / n


def _per_x(fn):
    return lambda ns: [fn(n) for n in ns]


_EXACT_SIDES = {
    "divisor_delta": (_per_x(asymptotics.divisor_delta), _delta),
    "divisor_delta_a": (lambda ns: asymptotics.divisor_delta_grid(ns, _A),
                        _delta_a),
    "delta_integral_ratio": (_per_x(asymptotics.delta_integral_ratio),
                             _delta_integral),
}
# descending: two fixed-seed random n <= 1e6, then around the block edge
# and the smallest build size
_PREFIX_N = [*sorted(random.Random(23).sample(range(2, 10 ** 6 + 1), 2),
                     reverse=True),
             300_000, 123_456, _B + 1, _B, _B - 1, 4097, 1024, 999, 1]
# the sides that are hyperbola sums, in ulps of the sieved sum, relative
# to it (to the sigma_a sum for Delta_a): 4 for those of the g = 1 pairs
# alone, which sieve nothing, and 2 for the other statistics, the sums
# of two operands (measured at most 1.19); the Delta sides keep its bytes
_HYPERBOLA_ULPS = {**dict.fromkeys(asymptotics.STATISTICS, 2),
                   **dict.fromkeys(["tau_over_n", "sigma_over_n",
                                    "divisor_log", "sigma_minus1",
                                    "sigma_logne", "power_sum",
                                    "divisor_delta_a"], 4)}


@pytest.mark.parametrize("side", sorted(asymptotics.STATISTICS)
                         + sorted(_EXACT_SIDES))
def test_exact_side_equals_whole_array_prefix(side):
    got, want = (_EXACT_SIDES[side] if side in _EXACT_SIDES
                 else _statistic(side))
    # X >= 2 for the Delta integral
    ns = [n for n in _PREFIX_N if n >= 2 or side != "delta_integral_ratio"]
    for n, value in zip(ns, got(ns)):
        oracle = want(n)
        if side not in _HYPERBOLA_ULPS:
            assert value == oracle, n
            continue
        scale = _sigma_a_sum(n) if side == "divisor_delta_a" else oracle
        assert (abs(value - oracle)
                <= _HYPERBOLA_ULPS[side] * 2.0 ** -52 * abs(scale)), n


def _filled_rows(n):
    """The rows log l! and rho filled at exactly l = 0..n, as one array."""
    out = np.zeros((2, n + 1))
    _accum.prefix_rows(stirling._logs, n, out[:1])
    stirling._fill_rho(out[1])
    return out


@pytest.mark.parametrize("x", SIZES)
def test_stirling_build_equals_whole_array_form(x):
    # the row fills at an exact length, as a direct build makes them
    n = math.floor(x)
    assert _same_bytes(_filled_rows(n), whole_array_stirling(n))


@pytest.mark.parametrize("x", SIZES)
def test_each_stirling_row_equals_whole_array_form(x):
    # each row built without the other
    n = math.floor(x)
    both = whole_array_stirling(n)
    rho, lf = (stirling.log_factorial_table(n).rho,
               stirling.log_factorial_row(n))
    assert _same_bytes(rho, whole_array_rho(n).astype(np.float64))
    assert _same_bytes(rho, both[1])
    assert _same_bytes(lf, both[0])


# peaks at n = 2^18, where one block is a quarter of an n-length array:
# stage -> (call, its declared n-length float64 arrays, float64 blocks
# and other floats allowed besides); a table a stage is given is built
# before the measurement, and one it builds is measured whole
_N = 1 << 18
_VALUES = np.ones(_N + 1)
_GEOM_N = [int(x) for x in asymptotics.standard_grid(1e3, _N, 7)]
_DENSE_N = list(range(_N - 600, _N + 1))


def _quotient_floats(ns):
    """The floats one weight's pairs hold over the grid ns."""
    return sum(2 * (math.isqrt(n) + 1) for n in ns)


def _grid_pass(ns):
    """One weight's pass over the grid ns, each n's pairs dropped once
    read, as the exact sides read them."""
    def run():
        pairs = _accum.quotient_prefixes(
            lambda: lambda lo, hi: (_VALUES[lo:hi],), ns)
        return [hi[0] for ((_, hi),) in pairs]
    return run


@functools.cache
def _id_mu():
    """The tables f = id and g = mu on 1.._N, built once, before any
    measurement that reads them."""
    return G.sieve(G.ID, _N), G.sieve(G.MU, _N)


@functools.cache
def _id_mu_blocks():
    """The tables id and mu on 1.._N as ``tables.blocks``, built once."""
    return tables.blocks(G.ID, _N), tables.blocks(G.MU, _N)


@functools.cache
def _count():
    """The count's pair at _N, the g = 1 weight 1, built once."""
    return next(identities._one_pairs([_N], None, ["v"]))["v"]


def _terms():
    return identities.apostol_log_average_terms(*_id_mu(), float(_N))


def _u_sum():
    return series._u_partial_sum(*_id_mu(), 3.0, [_N])


_K = 10 ** 4


def _toth():
    for _ in identities.toth_audits(_K):
        pass


def _build(text):
    """A sieve build: its peak is the result and the operands live at
    once, each part freed after its last use."""
    spec = tables.parse_spec(text)
    return lambda: tables.sieve_values(spec, _N)


# the primes up to _N, which a product of prime powers and Lambda hold
# with a float each; and those up to 2^20, for the scans there
_PRIMES = len(tables._primes_upto(_N))
_PRIMES_20 = len(tables._primes_upto(1 << 20))


_STAGES = {
    # a block of the mu weights and the Delta values, one dot each, and
    # Delta's pairs at the quotients, with a sigma_a's from the g = 1
    # table (declared as seven rows of 1025 floats; it forms two, the
    # count and l^a); the weights are read a block at a time, and the
    # Delta values formed an eighth of a block at a time into a block of
    # the pass's
    "mu_delta_sum": (
        lambda: asymptotics.mu_delta_sum(_N, "mu"), 1 + 1 / 8, 1, 0),
    "mu_delta_sum_a": (lambda: asymptotics.mu_delta_sum(_N, "mu", -0.5),
                       1 + 1 / 8, 1, _quotient_floats([_N]) + 7 * 1025),
    # the same over a grid, declared in blocks: Delta_a's pairs from
    # ``hyperbola_prefixes``, then the pass's weights and Delta blocks and
    # an eighth of n, with the fill's and the eighths' temporaries, every
    # x's pairs and, for mu*mu, what its blocks share (measured 3.57 and
    # 3.97 blocks; no sigma_a table)
    "mu_delta_grid_mu": (
        lambda: asymptotics.mu_delta_grid(_GEOM_N, "mu", -0.5), 0, 5,
        _quotient_floats(_GEOM_N)),
    "mu_delta_grid_mu_star_mu": (
        lambda: asymptotics.mu_delta_grid(_GEOM_N, "mu_star_mu", -0.5), 0, 5,
        _quotient_floats(_GEOM_N) + 2 * _PRIMES),
    # the result and, per block, its int32 signed product of small primes
    "build_mu": (_build("mu"), 1 + 1 / 8, 1, 0),
    # a product of prime powers: the result, per prime its int64 value and
    # its factor (above isqrt(n)), and a block's multiples of the primes
    # up to isqrt(n) and of the large ones, an eighth of a block at a time
    "build_phi": (_build("phi"), 1, 1, 6 * _PRIMES),
    "build_sigmapow": (_build("sigmapow:-0.5"), 1, 1, 6 * _PRIMES),
    "build_conv_mu_mu": (_build("conv:mu,mu"), 1, 1, 6 * _PRIMES),
    "build_conv_jordan_mu": (_build("conv:conv:mu,idpow:0.5,mu"), 1, 1,
                             6 * _PRIMES),
    # the result, counted and powered in place
    "build_idpow": (_build("idpow:0.5"), 1, 1, 0),
    # the result, its operand's blocks weighted in place (declared as the
    # former whole-table build, which held the operand and its copy)
    "build_ptlog_one": (_build("ptlog:one"), 2, 2, 0),
    "build_ptpow_mu": (_build("ptpow:0.5,mu"), 2, 2, 0),
    # tau's product build, its blocks weighted by log(m) / 2 in place
    "build_divlog": (_build("divlog"), 1, 2, 6 * _PRIMES),
    # the result, the primes in int64 with log p at each, a segment of
    # the bool prime sieve while they are listed, and 1 KB (128 floats) of
    # the arrays' headers
    "build_lambda": (_build("lambda"), 1 + 1 / 8, 0, 2 * _PRIMES + 128),
    # a pass's running sums: an eighth of a block of longdouble
    "on_quotients": (lambda: on_quotients(_VALUES, _N), 0, 1, 0),
    # one pass for a whole grid: every point's quotient set ...
    "grid_pass": (_grid_pass(_GEOM_N), 0, 1, _quotient_floats(_GEOM_N)),
    # ... and for a dense one, runs whose sets hold at most max(ns) + 1
    "grid_pass_runs": (_grid_pass(_DENSE_N), 0, 1, _N + 1),
    # rho formed per block, its block first
    "apostol_log_average_terms": (_terms, 0, 4, 0),
    # f = g = 1 at x = 10^6: six tables of t + 1 = 1025 floats, and per x
    # its pairs and the closed forms' longdouble arrays over isqrt(x) + 1
    # entries (measured 39 floats per table entry); nothing of length x
    "one_closed_forms": (
        lambda: identities.apostol_log_average_grid(None, None, [1e6]),
        0, 0, 48 * 1025),
    # no log l! row, no K-length array and no block: an eighth each for
    # the copies of the arrays f and g, log l, l^-s and L(l), and the
    # writer's and the pass's longdouble eighths (measured 1.24 blocks;
    # 4.62 while the writer formed whole blocks in four of its own)
    "u_partial_sum": (_u_sum, 0, 1.5, 0),
    # both sides of a K list from tables given as blocks: the same
    # eighths, one block per table (id's and mu's) and a block's
    # temporaries of the mu fill (measured 4.33; 5.96 with the writer's
    # four blocks)
    "series_identity_grid": (
        lambda: series.series_identity_grid(*_id_mu_blocks(), 3.0,
                                            [100, 1000, _N]), 0, 4.5, 0),
    # the writer's eighths, a block each of f, given, and of f*mu,
    # prepared up to K, which share per prime above isqrt(K) P and f(P),
    # read in one pass (measured 4.88 blocks with those; 6.38 with the
    # writer's four blocks)
    "series_theta_bracket": (
        lambda: series.series_theta_bracket(_id_mu_blocks()[0], 3.0, [_N]),
        0, 3, 6 * _PRIMES),
    # hyperbola sums of the g = 1 pairs at _N, so t = 1024: declared as
    # six tables of t + 1 floats, the pairs over isqrt(_N) + 1 entries and
    # the closed forms above t (it forms the four kinds it names: measured
    # 14 floats per table entry); no sieve
    "statistic_exact_side": (
        lambda: asymptotics.summatory("sigma_logne", _N), 0, 0, 24 * 1025),
    # the same with l^a, declared as a seventh table (it forms the count
    # and l^a: measured 10 per entry)
    "divisor_delta_a": (
        lambda: asymptotics.divisor_delta_a(_N, -0.5), 0, 0, 28 * 1025),
    # id * phi as the hyperbola sum of its operands: phi, cast from int32,
    # a pass over it (three blocks), its pairs and those of the g = 1
    # side; no table of id * phi, the product (measured 1.76 arrays)
    "statistic_operands": (lambda: asymptotics.summatory("id_phi", _N),
                           1 + 1 / 2, 3, _quotient_floats([_N]) + 24 * 1025),
    # phi * Lambda, two sieved operands: the one list of the primes and
    # the 2 floats per prime that one operand's blocks share, each table
    # built after the last is dropped, a pass's blocks and the pairs
    # (measured 2.12 blocks besides the primes; both tables at once held
    # a float more per prime)
    "statistic_two_operands": (
        lambda: asymptotics.summatory("phi_lambda", _N), 0, 2.25,
        3 * _PRIMES + _quotient_floats([_N])),
    # the Dirichlet product at every quotient: its chunks of about an
    # eighth of a block of terms, ten floats each (the indices and the
    # longdouble products), and a few longdouble arrays over the
    # quotients; no array of the O(n^(3/4)) terms (measured 1.43 blocks)
    "hyperbola_prefixes": (
        lambda: _accum.hyperbola_prefixes(_N, _count(), _count()), 0, 1.5,
        8 * _quotient_floats([_N])),
    # sum tau and sum m tau(m) at n, two hyperbola sums of the g = 1
    # table's count pair: no sieve
    "delta_integral_ratio": (
        lambda: asymptotics.delta_integral_ratio(_N), 0, 1, 0),
    # Delta's pairs over a grid, from one g = 1 table of the kinds asked
    # (here t = 1024): its row and eighth-block buffer per kind, the count
    # (and l^a), every x's pairs, and ``hyperbola_prefixes``' chunks and
    # longdouble arrays at the largest x (measured 1.50 and 1.54 blocks
    # in all)
    "delta_prefixes": (
        lambda: asymptotics._delta_prefixes(_GEOM_N, None), 0, 1.5,
        _quotient_floats(_GEOM_N) + 8 * _quotient_floats([_N]) + 2 * 1025),
    "delta_prefixes_a": (
        lambda: asymptotics._delta_prefixes(_GEOM_N, -0.5), 0, 1.5,
        _quotient_floats(_GEOM_N) + 8 * _quotient_floats([_N]) + 4 * 1025),
    # Toth's audits to k = 10^4, each k's sides dropped once read: k + 1
    # floats each for the logs, Lambda, the scratch buffer and mu's list,
    # four per k for the list of L(k) (a pointer and a float object) and
    # one for its row while the list is formed, and one run of divisor
    # lists, 2048 lists of at most 256 bytes with their divisors' int
    # objects (measured 1.15 MB in all, the run up to 247 bytes a list;
    # the whole sieve held 1.8 MB, 180 bytes a list)
    "toth_audits": (_toth, 0, 1, 9 * (_K + 1)),
    # the log l! row: the result, one row of n + 1 entries, and an eighth
    # of a block of l, logs and longdouble sums
    "log_factorial_row": (lambda: stirling.log_factorial_row(_N), 1, 1, 0),
    # both rows of ``log_factorial_table``, and an eighth of a block of
    # the rho fill's l and longdouble temporaries (measured 0.63 blocks)
    "rho_row": (lambda: stirling.log_factorial_table(_N), 2, 1, 0),
    # a scan at x = 2^20 reads each table a block at a time: a pass's
    # table block and eighths, the Delta correction's weight and Delta
    # blocks, and what the blocks share, per prime above isqrt(x) P and
    # f(P) for a product and nothing for mu; no x-long array (measured
    # 5.15 and 5.89 blocks with those; 6.03 and 6.76 while every pass held
    # a block-sized scratch beside its table's block)
    "scan_id_log_avg": (
        lambda: asymptotics.residual_scan("id-log-avg", [1 << 20]), 0, 3,
        2 * _PRIMES_20),
    "scan_jordan_log_avg": (
        lambda: asymptotics.residual_scan("jordan-log-avg", [1 << 20], -0.5),
        0, 3.75, 2 * _PRIMES_20),
}


@pytest.mark.parametrize("stage", sorted(_STAGES))
def test_stage_peak_is_its_declared_arrays(stage):
    run, arrays, blocks, floats = _STAGES[stage]
    run()  # the tables it is given are built outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (arrays * (_N + 1) + blocks * _B + floats)
