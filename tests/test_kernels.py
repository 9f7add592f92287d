"""The sieve builders against the plain loops they replaced.

mu, phi and Lambda must reproduce their reference loops in ``oracles``
bit for bit (mu and phi as the float64 casts of their loops' values), the
split oracle kernels their plain loops, and ``identity_sum_table`` the
split form.  Every array ``sieve_values`` gives must equal the same
entries of a wider build by bytes, and a pointwise weighting the whole
array of its operand weighted at once.  The tables built from their prime
powers (phi, sigma_a and the conv trees of mu, phi, id_a and sigma_a)
must keep the bytes of the reference loops where their values are
integers, and elsewhere come within a few ulps of
``oracles.factored_value``, no further than the convolution kernel.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcdsums as G
from gcdsums import _accum, identities, stirling, tables
from gcdsums.errors import DomainError
from gcdsums.tables import parse_spec

from oracles import (factored_value, loop_convolve, loop_mobius,
                     loop_totient, loop_von_mangoldt, naive_mobius, naive_phi,
                     naive_value, row_divisor_weight_sieve, split_convolve,
                     split_identity_sum, ulps_from)

# the primitives a conv tree may hold, and the others
_MULTIPLICATIVE = ["one", "id", "mu", "phi", "tau", "sigma", "idpow:-0.5",
                   "idpow:0.5", "sigmapow:-1", "jordan:0.5", "jordan:-1"]
_PRIMITIVES = _MULTIPLICATIVE + ["lambda", "log", "divlog"]
_EXPONENTS = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0])
_primitive = st.sampled_from(_PRIMITIVES)
_factor = st.sampled_from(_MULTIPLICATIVE)
_conv = st.builds("conv:{},{}".format, _factor, _factor)
_operand = st.one_of(_primitive, _conv)

# the spec grammar: primitives, conv pairs of the multiplicative ones,
# jordan:a and pointwise log/power weightings of either
grammar_specs = st.one_of(
    _primitive,
    _conv,
    st.builds("jordan:{:g}".format, _EXPONENTS),
    st.builds("ptlog:{}".format, _operand),
    st.builds("ptpow:{:g},{}".format, _EXPONENTS, _operand),
).map(parse_spec)

# r^2 - 1, r^2 and r^2 + 2r bracket the row/column split at r = isqrt(n);
# 9170 is the smallest d whose np.log and math.log differ (numpy 2.4 on
# x86-64), so a kernel taking its log weights from np.log fails there
_R = 36
KERNEL_SIZES = [1, 2, 3, 4, _R * _R - 1, _R * _R, _R * _R + 2 * _R, 1000,
                4096, 9170]
_PAIRS = [("id", "mu"), ("phi", "mu"), ("mu", "idpow:0.5"), ("one", "one"),
          ("log", "mu"), ("lambda", "tau"), ("ptlog:mu", "sigmapow:-1")]


def _reference_sieve(spec, n):
    """spec's values with each pointwise weighting, and divlog's tau(m)
    log(m) / 2, applied to its operand's whole array at once; the trees
    below them from ``sieve_values``, whose builders the tests here check
    against the loops and the factored oracle."""
    weights = {tables.Kind.POINTWISE_LOG: np.log,
               tables.Kind.POINTWISE_POW: lambda m: m ** spec.exponent,
               tables.Kind.DIVISOR_LOG: lambda m: np.log(m) / 2}
    if spec.kind not in weights:
        return G.sieve_values(spec, n)
    operand = G.TAU if spec.kind is tables.Kind.DIVISOR_LOG else spec.operands[0]
    fv = _reference_sieve(operand, n).copy()
    fv[1:] *= weights[spec.kind](np.arange(1, n + 1, dtype=np.float64))
    return fv


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_kernels_match_reference_loops(n):
    mu, phi = G.sieve_values(G.MU, n), G.sieve_values(G.PHI, n)
    assert _same_bytes(mu, loop_mobius(n).astype(np.float64))
    assert _same_bytes(phi, loop_totient(n).astype(np.float64))
    lf = G.log_factorial_table(n).log_factorial
    for f, g in _PAIRS:
        fv = G.sieve_values(parse_spec(f), n)
        gv = G.sieve_values(parse_spec(g), n)
        assert _same_bytes(split_convolve(fv, gv, n),
                           loop_convolve(fv, gv, n)), (f, g)
        assert _same_bytes(identities.identity_sum_table(fv, gv, lf, n),
                           split_identity_sum(fv, gv, lf, n)), (f, g)


@pytest.mark.parametrize("n", [1, 2, 10, 1024, 65537, 10 ** 6])
def test_von_mangoldt_equals_per_prime_loop(n):
    # log p set at every prime at once, the higher powers from the
    # p <= isqrt(n) only; math.log keeps the loop's bytes
    assert _same_bytes(G.sieve_values(G.VON_MANGOLDT, n),
                       loop_von_mangoldt(n))


def test_totient_dtype_holds_every_sieve_size():
    # phi(n) <= n <= MAX_SIEVE, the largest n that ``cut`` lets through, and
    # so is every partial product of its factors phi(p^e): float64 holds
    # each exactly
    assert tables.MAX_SIEVE < 2 ** 53
    assert G.sieve_values(G.PHI, 1).dtype == np.float64


def test_mobius_and_totient_sieves_match_naive():
    n_max = 500
    mu = np.array([0] + [naive_mobius(k) for k in range(1, n_max + 1)])
    phi = np.array([0] + [naive_phi(k) for k in range(1, n_max + 1)])
    for n in range(1, n_max + 1):
        assert np.array_equal(G.sieve_values(G.MU, n), mu[:n + 1]), n
        assert np.array_equal(G.sieve_values(G.PHI, n), phi[:n + 1]), n


def _integer_references(n):
    """The integer-valued multiplicative specs and their reference loops."""
    mu, phi = loop_mobius(n).astype(np.float64), loop_totient(n) * 1.0
    idv = np.arange(n + 1, dtype=np.float64)
    return {
        "phi": phi,
        "tau": row_divisor_weight_sieve(n, np.ones_like, np.int64) * 1.0,
        "sigma": row_divisor_weight_sieve(n, lambda v: v, np.int64) * 1.0,
        "conv:mu,mu": loop_convolve(mu, mu, n),
        "conv:phi,mu": loop_convolve(phi, mu, n),
        "conv:id,mu": loop_convolve(idv, mu, n),
    }


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_integer_products_equal_reference_loops(n):
    # exact integers below 2^53 either way, so equal by bytes (no -0.0
    # where a zero factor meets a negative one)
    for text, want in _integer_references(n).items():
        got = G.sieve_values(parse_spec(text), n)
        assert _same_bytes(got, want), text


def test_integer_products_equal_factored_oracle():
    n = 2048
    for text, want in _integer_references(n).items():
        spec = parse_spec(text)
        assert [factored_value(spec, m) for m in range(1, n + 1)] \
            == want[1:].tolist(), text


def _kernel_values(spec, n):
    """A multiplicative tree as the former builds made it: each conv by the
    split convolution kernel, sigma_a by the divisor-weight loop."""
    if spec.kind is tables.Kind.CONVOLVE:
        fv, gv = (_kernel_values(op, n) for op in spec.operands)
        return split_convolve(fv, gv, n)
    if spec.kind is tables.Kind.SIGMA_POW:
        a = spec.exponent
        return row_divisor_weight_sieve(
            n, lambda v: np.asarray(v, dtype=np.float64) ** a, np.float64)
    return G.sieve_values(spec, n)


# fixed-seed n <= 10^6 and every n below 200; each table's error against
# the factored oracle, in ulps of the exact value, is at most 4 (measured
# 1.7 to 3.5) and, for the Jordan family, whose divisor sums cancel, no
# more than the kernel's in the max and in the mean; sigma_a, a sum of
# positive divisor terms, keeps the max but rounds once per prime factor,
# so its mean may reach 1.1 times the kernel's (measured 0.53 and 0.52
# against 0.49 and 0.51 ulp)
_ULP_N = 10 ** 6
_ULP_RNG = random.Random(24)
_ULP_SAMPLE = sorted(set(range(2, 200)) | {
    _ULP_RNG.randrange(2, _ULP_N + 1) for _ in range(600)})


@pytest.mark.parametrize("text", ["jordan:0.5", "jordan:-0.5", "jordan:-1",
                                  "conv:jordan:0.5,mu", "sigmapow:-0.5",
                                  "sigmapow:-1"])
def test_float_products_within_ulps_of_factored_oracle(text):
    spec = parse_spec(text)
    got = G.sieve_values(spec, _ULP_N)
    kernel = _kernel_values(spec, _ULP_N)
    exact = [factored_value(spec, m) for m in _ULP_SAMPLE]
    ulps, kernel_ulps = (
        np.array([ulps_from(t[m], x) for m, x in zip(_ULP_SAMPLE, exact)])
        for t in (got, kernel))
    assert ulps.max() <= 4.0
    assert ulps.max() <= kernel_ulps.max()
    mean_ratio = 1.1 if spec.kind is tables.Kind.SIGMA_POW else 1.0
    assert ulps.mean() <= mean_ratio * kernel_ulps.mean()


def test_divlog_within_2_ulps_of_divisor_fsum():
    # tau(m) log(m) / 2 from tau's blocks against the fsum of log d over
    # the divisors d of m (measured at most 1 ulp)
    got = G.sieve_values(G.DIVISOR_LOG, _ULP_N)
    for m in _ULP_SAMPLE:
        want = naive_value("divlog", m)
        assert abs(got[m] - want) <= 2 * np.spacing(want), m


@settings(max_examples=60, deadline=None)
@given(grammar_specs, st.integers(min_value=1, max_value=4096))
def test_grammar_sieves_match_reference_loops(spec, n):
    assert _same_bytes(G.sieve_values(spec, n), _reference_sieve(spec, n))


@settings(max_examples=40, deadline=None)
@given(grammar_specs, grammar_specs, st.integers(min_value=1, max_value=4096))
def test_identity_sum_table_matches_reference_loop(f_spec, g_spec, n):
    fv = tables.sieve_values(f_spec, n)
    gv = tables.sieve_values(g_spec, n)
    lf = G.log_factorial_table(n).log_factorial
    assert _same_bytes(identities.identity_sum_table(fv, gv, lf, n),
                       split_identity_sum(fv, gv, lf, n))


@settings(max_examples=80, deadline=None)
@given(grammar_specs, st.integers(min_value=1, max_value=4096))
def test_cached_slice_is_bit_identical(spec, n):
    got = tables.sieve_values(spec, n)
    assert _same_bytes(got, G.sieve_values(spec, 4096)[:n + 1])
    assert _same_bytes(got, tables.blocks(spec, 4096).values[0:n + 1])


def _direct_stirling(l_max):
    """A table from the row fills at exactly l_max."""
    rows = np.zeros((2, l_max + 1))
    _accum.prefix_rows(stirling._logs, l_max, rows[:1])
    stirling._fill_rho(rows[1])
    return stirling.StirlingTable(l_max, *rows)


@pytest.mark.parametrize("l_max", [1, 7, stirling.SEED - 1, stirling.SEED,
                                   stirling.SEED + 1, 5000, 4 * 4096 + 1])
def test_stirling_slice_matches_direct_build(l_max):
    direct = _direct_stirling(l_max)
    table = G.log_factorial_table(l_max)
    wider = _direct_stirling(1 << 16)
    assert table.l_max == l_max
    for name in ("log_factorial", "approx", "rho", "theta"):
        want = getattr(direct, name)
        assert _same_bytes(getattr(table, name), want), name
        assert _same_bytes(getattr(wider, name)[:l_max + 1], want), name
    for arr in (table.log_factorial, table.approx, table.rho, table.theta):
        assert len(arr) == l_max + 1
        assert not arr.flags.writeable


def test_stirling_table_grows_and_keeps_its_bounds():
    big = G.log_factorial_table(3000)
    small = G.log_factorial_table(10)
    assert small.log_factorial[10] == big.log_factorial[10]
    assert small.value(10).log_factorial == pytest.approx(math.log(3628800.0),
                                                          rel=1e-15)
    with pytest.raises(DomainError):
        small.value(11)
