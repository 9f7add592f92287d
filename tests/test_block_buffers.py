"""Passes that own their block buffers, and scans that list their primes once.

A blocked pass fills buffers of its own block after block, so a table's
``fill`` must write the same bytes into a reused buffer whatever it held
before and in whatever order the blocks come, and a scan reads no block
by slicing (which allocates).  A scan whose tables share the primes up
to its largest x lists them once and hands them to each table; a table
built from a given list equals one that lists its own.  The product
builder takes f(p) at the primes above isqrt(n) from the row of p alone,
with the bytes of the former form that stacked a row of ones on it.  An
f that cannot be negative takes its f/d pair for |f|/d, and id-log-avg's
exact side peaks no higher than when each block was allocated anew.  The
g = 1 pairs of an n, read from a table shared by its grid, are the bytes
of n alone.
"""

import functools
import random
import tracemalloc

import numpy as np
import pytest

from gcdsums import _accum, asymptotics, identities, tables
from gcdsums.tables import Kind, parse_spec

_B = _accum._BLOCK


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_longdouble(a, b):
    """Equal values and signs: a longdouble's padding bytes are not data."""
    return (a.dtype == b.dtype == np.longdouble and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# every kind ``_block_fill`` prepares: n^a, mu, Lambda, the products of
# prime powers and the weightings of another fill
_FILL_SPECS = ["idpow:0.5", "mu", "lambda", "phi", "sigmapow:-0.5",
               "jordan:0.5", "conv:jordan:0.5,mu", "conv:mu,mu", "log",
               "divlog", "ptpow:0.5,mu"]


@pytest.mark.parametrize("text", _FILL_SPECS)
def test_fill_into_a_reused_buffer_in_any_order(text):
    spec = parse_spec(text)
    n = 3 * _B + 7
    want = tables.sieve_values(spec, n)
    los = list(range(0, n + 1, _B))
    random.Random(27).shuffle(los)
    for primes in (None, tables._primes_upto(n)):
        fill = tables.blocks(spec, n, primes).values.fill
        buf = np.full(_B, np.nan)
        for lo in los:
            out = buf[:min(_B, n + 1 - lo)]
            fill(out, lo)
            assert _same_bytes(out, want[lo:lo + len(out)]), (lo, primes)


def _stacked_prime_power_values(spec, q):
    """The former form of ``tables._prime_power_values``: row 0 of q is 1
    and row e holds p^e, so f(p) at the large primes stacked a row of
    ones on the row of p."""
    kind = spec.kind
    if kind is Kind.ID_POW:
        return np.exp(spec.exponent * np.log(q))
    if kind is Kind.SIGMA_POW:
        return np.cumsum(np.exp(spec.exponent * np.log(q)), axis=0)
    if kind is Kind.CONVOLVE:
        f, g = (_stacked_prime_power_values(op, q) for op in spec.operands)
        return np.array([sum(f[i] * g[e - i] for i in range(e + 1))
                         for e in range(len(q))])
    out = q - q / q[1] if kind is Kind.TOTIENT else np.zeros_like(q)
    out[0] = 1.0
    if kind is Kind.MOEBIUS:
        out[1] = -1.0
    return out


@pytest.mark.parametrize("text", ["idpow:0.5", "idpow:-1", "sigmapow:-0.5",
                                  "phi", "mu", "jordan:0.5", "jordan:-1",
                                  "conv:jordan:0.5,mu", "conv:mu,mu",
                                  "conv:sigmapow:0.3,conv:phi,mu"])
def test_prime_values_from_the_row_of_p_alone(text):
    spec = parse_spec(text)
    n = 10 ** 6
    primes = tables._primes_upto(n).astype(np.longdouble)
    large = primes[-4096:]
    one_row = tables._prime_power_values(spec, large[None])[0]
    stacked = _stacked_prime_power_values(
        spec, np.stack([np.ones_like(large), large]))[1]
    assert _same_longdouble(one_row, stacked)
    # the primes up to isqrt(n), every power e >= 1 in its row e - 1
    small = primes[:168]
    q = np.minimum(np.cumprod(np.full((19, 168), small), axis=0), n)
    whole = _stacked_prime_power_values(spec, np.vstack([np.ones(168), q]))
    assert _same_longdouble(tables._prime_power_values(spec, q), whole[1:])


@pytest.mark.parametrize("target, a, shared", [
    ("jordan-log-avg", -0.5, True), ("jordan_phi", -0.5, True),
    ("idpow-log-avg", -0.5, False), ("id-log-avg", None, False)])
def test_scan_lists_its_primes_once(monkeypatch, target, a, shared):
    # the exact side's table and a correction's product mu * mu read one
    # list; mu takes its head, or lists the few it needs itself, and
    # Delta_a's divisor sum sieves nothing
    calls = []
    real = tables._primes_upto

    def record(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(tables, "_primes_upto", record)
    monkeypatch.setattr(asymptotics, "_primes_upto", record)
    asymptotics.residual_scan(target, [1e3, 2e4], a)
    assert calls.count(20000) == 1
    # with a shared list, its recursion is the only other listing
    assert (len(calls) == len(set(calls))) is shared, calls


def test_scans_read_no_block_by_slicing(monkeypatch):
    def refuse(self, s):
        raise AssertionError(f"sliced {s}")

    monkeypatch.setattr(tables.Blocks, "__getitem__", refuse)
    for target, a in [("id-log-avg", None), ("jordan-log-avg", -0.5),
                      ("ramanujan-log-avg", None), ("phi_lambda", None)]:
        asymptotics.residual_scan(target, [1e3, 3 * _B + 5], a)


@pytest.mark.parametrize("text, rule", [
    ("phi", True), ("idpow:-0.5", True), ("sigmapow:0.5", True),
    ("conv:phi,idpow:0.5", True),
    # conservative: mu, Lambda and a conv holding mu say nothing, phi_1
    # (mu * id) among them
    ("mu", False), ("lambda", False), ("conv:jordan:0.5,mu", False),
    ("jordan:1", False)])
def test_nonnegative_f_takes_its_f_over_d_pair(text, rule):
    spec = parse_spec(text)
    assert tables.nonnegative(spec) is rule
    ns = [1, 1000, _B + 1, 3 * _B + 5]
    f = tables.blocks(spec, ns[-1])
    # remainder_bound is (1/12) H(|f(d)|/d, 1/l^2), the scans' path keeping
    # the |f|/d pass of an f that may be < 0
    bounds = [d.remainder_bound for d in
              identities.apostol_log_average_grid(f, None, ns)]
    kind = "v/m" if rule else "|v|/m"
    assert bounds == [s / 12.0 for s, in identities._hyperbola_sums(
        ns, [[(1, (f, kind), (None, "|v|/m^2"))]])]
    if rule:
        fv = tables.sieve_values(spec, ns[-1])
        assert np.all(fv >= 0)
        for pairs in identities._table_pairs(lambda: fv, ["v/m", "|v|/m"],
                                             ns):
            assert all(_same_bytes(g, w) for g, w in zip(pairs["v/m"],
                                                         pairs["|v|/m"]))


_ALONE_N = [1, 2, 1024, 10 ** 6 + 3, 2 * 10 ** 6 + 7, 5 * 10 ** 6 + 1]
_ONE_A = [None, -0.9, -0.5, -0.1]


def _one_kinds(a):
    """Every kind of the constant 1: l^a where a is given."""
    return identities._KINDS[:6] + (() if a is None else ("m^a",))


@functools.cache
def _in_a_grid(a):
    """Every kind's g = 1 pairs, and Delta's, at each n of _ALONE_N in one
    grid up to 10^7, whose largest n reads a wider table: once per a."""
    ns = [*_ALONE_N, 10 ** 7]
    return (dict(zip(ns, identities._one_pairs(ns, a, _one_kinds(a)))),
            dict(zip(ns, asymptotics._delta_prefixes(ns, a)[0])))


@pytest.mark.parametrize("n", _ALONE_N)
def test_tau_count_prefixes_alone(n):
    # n reads the g = 1 table up to its own t(n) and takes closed forms
    # above it, so its pairs of every kind, asked alone or together, are
    # its pairs in any grid, and so are Delta's sums of tau and sigma_a
    for a in _ONE_A:
        kinds = _one_kinds(a)
        alone, = identities._one_pairs([n], a, kinds)
        pairs, deltas = _in_a_grid(a)
        assert list(alone) == list(kinds)
        for kind in kinds:
            one, = identities._one_pairs([n], a, [kind])
            assert list(one) == [kind]
            for got in (pairs[n][kind], one[kind]):
                assert all(_same_bytes(x, y)
                           for x, y in zip(alone[kind], got)), (a, kind)
        (d,), _ = asymptotics._delta_prefixes([n], a)
        assert all(_same_bytes(x, y) for x, y in zip(d, deltas[n])), a


def test_id_log_avg_exact_side_peak_not_above_per_block_allocation():
    # 9.07 blocks: the peak at 2^20 when every block, its weights and its
    # longdouble sums were allocated anew (measured 4752449 bytes)
    t = asymptotics.SCAN_TARGETS["id-log-avg"]
    t.parts([1 << 20], None)
    tracemalloc.start()
    try:
        t.parts([1 << 20], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.07 * 8 * _B
