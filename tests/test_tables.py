import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcdsums as G
from gcdsums import tables
from gcdsums.errors import DomainError
from gcdsums.tables import (MAX_NESTING, Kind, parse_spec, pointwise_log_spec,
                            pointwise_pow_spec)

from oracles import naive_value, split_convolve

RTOL = 1e-12


def rel_ok(a, b, tol=RTOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


def test_sieve_examples():
    assert G.sieve(G.MU, 1).values[1] == 1
    assert G.sieve(G.MU, 12).values[12] == 0  # 12 = 2^2 * 3
    assert G.sieve(G.sigma_pow(-1.0), 4).values[4] == pytest.approx(1.75, abs=0)
    assert G.sieve(G.jordan(-1.0), 2).values[2] == pytest.approx(-0.5, abs=0)


def test_first_values_match_definitions():
    for spec, expected in [(G.MU, 1), (G.PHI, 1), (G.VON_MANGOLDT, 0),
                           (G.LOG, 0), (G.TAU, 1), (G.sigma_pow(-0.5), 1),
                           (G.SIGMA, 1), (G.ONE, 1), (G.ID, 1)]:
        assert G.sieve(spec, 8).values[1] == expected


def test_table_shape_and_immutability():
    t = G.sieve(G.TAU, 100)
    assert len(t) == 100
    assert t.n_max == 100
    assert t.values.shape == (101,)
    assert t[100] == 9.0
    with pytest.raises(ValueError):
        t.values[5] = 3.0
    with pytest.raises(DomainError):
        t[101]
    # tables and their specs are read-only records, not tuples
    for record, name in [(t, "n_max"), (t, "values"), (G.MU, "exponent"),
                         (t.spec, "kind")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert G.MU != (Kind.MOEBIUS, None, ())


@pytest.mark.parametrize("text", ["phi", "mu", "lambda", "idpow:0.5",
                                  "conv:jordan:0.5,mu", "ptlog:one"])
def test_blocks_table_indexes_as_its_sieve(text):
    # a table from ``blocks`` reads one entry as a one-entry slice
    spec, n = parse_spec(text), 100
    whole, streamed = G.sieve(spec, n), tables.blocks(spec, n)
    for m in (1, 2, 5, 64, 97, n):
        assert streamed[m] == whole[m]
    for table in (whole, streamed):
        for m in (0, -1, n + 1):
            with pytest.raises(DomainError):
                table[m]


def test_mobius_range_and_integrality():
    t = G.sieve(G.MU, 5000)
    assert set(np.unique(t.values[1:])) <= {-1.0, 0.0, 1.0}
    for spec in (G.TAU, G.SIGMA, G.PHI):
        vals = G.sieve(spec, 5000).values[1:]
        assert np.all(vals == np.rint(vals))


def test_mertens_function_from_blocks():
    # M(x) = sum_{n<=x} mu(n), summed a block at a time as the scans read
    # mu, against the published M(10^6) = 212 and M(10^7) = 1037
    from gcdsums import tables
    mu = tables.blocks(G.MU, 10 ** 7).values
    block = 1 << 16
    partial = [int(mu[lo:min(lo + block, 10 ** 7 + 1)].sum())
               for lo in range(0, 10 ** 7 + 1, block)]
    m6 = sum(partial[:10 ** 6 // block]) + int(
        mu[10 ** 6 // block * block:10 ** 6 + 1].sum())
    assert (m6, sum(partial)) == (212, 1037)


def test_von_mangoldt_structure():
    t = G.sieve(G.VON_MANGOLDT, 200)
    for n in range(1, 201):
        assert t.values[n] == pytest.approx(naive_value("lambda", n), abs=1e-14)


@pytest.mark.parametrize("kind,a", [
    ("one", None), ("id", None), ("idpow", -0.5), ("mu", None),
    ("phi", None), ("jordan", -1.0), ("lambda", None), ("log", None),
    ("tau", None), ("sigma", None), ("sigmapow", -0.5), ("divlog", None),
])
def test_primitive_sieves_match_naive_oracle(kind, a):
    n_max = 10 ** 4
    spec = parse_spec(kind if a is None else f"{kind}:{a}")
    t = G.sieve(spec, n_max)
    rng = np.random.default_rng(7)
    sample = np.concatenate([np.arange(1, 200),
                             rng.integers(200, n_max + 1, size=120)])
    for n in sample:
        n = int(n)
        assert rel_ok(t.values[n], naive_value(kind, n, a)), (kind, n)


def test_convolution_identities():
    n = 2000
    mu = G.sieve(G.MU, n)
    one = G.sieve(G.ONE, n)
    log = G.sieve(G.LOG, n)
    ida = G.id_pow(-0.5)

    # mobius inversion: mu * 1 = unit element
    e = G.sieve(G.convolve(G.MU, G.ONE), n).values
    assert e[1] == 1.0 and np.all(e[2:] == 0.0)

    pairs = [
        (G.sieve(G.convolve(G.MU, G.ID), n).values, G.sieve(G.PHI, n)),
        (G.sieve(G.convolve(G.MU, ida), n).values, G.sieve(G.jordan(-0.5), n)),
        (G.sieve(G.convolve(G.ONE, ida), n).values,
         G.sieve(G.sigma_pow(-0.5), n)),
        # log is no product of prime powers: its convolutions are refused,
        # and the oracle kernel takes them
        (split_convolve(mu.values, log.values, n), G.sieve(G.VON_MANGOLDT, n)),
        (split_convolve(one.values, log.values, n), G.sieve(G.DIVISOR_LOG, n)),
    ]
    for built, direct in pairs:
        gap = np.abs(built - direct.values)
        assert np.all(gap <= RTOL * (1.0 + np.abs(direct.values))), direct.spec
    for f in (mu, one):
        with pytest.raises(DomainError, match="cannot convolve ptlog"):
            G.convolve(f.spec, log.spec)


@pytest.mark.parametrize("n", [1, 6, 100, 1023, 1024, 5000])
def test_derived_convolution_equals_sieve_of_its_spec(n):
    # a product of prime powers reads no operand table, so at any n its
    # sieve is the head of a wider build, bit for bit
    pairs = [("mu", "mu"), ("phi", "mu"), ("jordan:0.5", "mu"),
             ("mu", "idpow:-0.5"), ("sigmapow:-1", "id")]
    for f, g in pairs:
        spec = G.convolve(parse_spec(f), parse_spec(g))
        derived = G.sieve(spec, 5000).values[:n + 1]
        assert derived.tobytes() == G.sieve(spec, n).values.tobytes(), (f, g)


def test_convolution_examples():
    n = 100
    assert G.sieve(G.convolve(G.ONE, G.ID), n).values[6] == 12  # sigma(6)
    assert G.sieve(G.convolve(G.MU, G.ID), n).values[6] == 2    # phi(6)


def test_mu_log_cancellation():
    # sum_{d|n} mu(d) * log n = 0 for n >= 2
    n = 500
    mu_one = G.sieve(G.convolve(G.MU, G.ONE), n).values
    logs = np.log(np.arange(1, n + 1))
    assert np.all(np.abs(mu_one[2:] * logs[1:]) == 0.0)


def test_pointwise_examples():
    n = 10
    assert G.sieve(pointwise_log_spec(G.ONE), n).values[1] == 0.0
    assert G.sieve(pointwise_pow_spec(G.ID, -1.0), n).values[7] == \
        pytest.approx(1.0, abs=1e-15)
    assert G.sieve(pointwise_log_spec(G.MU), n).values[4] == 0.0


def test_multiplicativity_spot_check():
    n_max = 10 ** 4
    rng = np.random.default_rng(2024)
    specs = [G.MU, G.PHI, G.TAU, G.SIGMA, G.sigma_pow(-0.5), G.jordan(-0.5),
             G.id_pow(-0.25), G.ONE, G.ID]
    tables = {s: G.sieve(s, n_max) for s in specs}
    pairs = []
    while len(pairs) < 200:
        m = int(rng.integers(2, 120))
        n = int(rng.integers(2, n_max // m))
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    for spec, t in tables.items():
        for m, n in pairs:
            assert rel_ok(t.values[m * n], t.values[m] * t.values[n]), (spec, m, n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mu", "one", "id", "tau", "phi"]),
       st.sampled_from(["one", "id", "sigma", "idpow:-0.5"]),
       st.sampled_from(["one", "mu", "phi"]))
def test_convolution_associativity(fa, fb, fc):
    n = 120
    a, b, c = map(parse_spec, (fa, fb, fc))
    left = G.sieve(G.convolve(G.convolve(a, b), c), n).values
    right = G.sieve(G.convolve(a, G.convolve(b, c)), n).values
    assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _factors(depth):
    """Trees at most depth deep that a conv may hold: mu, phi, idpow,
    sigmapow and conv of these."""
    leaves = st.one_of(
        st.sampled_from([G.MU, G.PHI, G.ONE, G.ID, G.TAU, G.SIGMA]),
        st.builds(G.id_pow, _FINITE), st.builds(G.sigma_pow, _FINITE))
    if depth == 1:
        return leaves
    inner = _factors(depth - 1)
    return st.one_of(leaves, st.builds(G.jordan, _FINITE),
                     st.builds(G.convolve, inner, inner))


def _specs(depth):
    """Spec trees at most depth deep, from every constructor and name."""
    leaves = st.one_of(_factors(1),
                       st.sampled_from([G.VON_MANGOLDT, G.DIVISOR_LOG]))
    if depth == 1:
        return leaves
    inner = _specs(depth - 1)
    return st.one_of(leaves, st.just(G.LOG), _factors(depth),
                     st.builds(pointwise_log_spec, inner),
                     st.builds(pointwise_pow_spec, inner, _FINITE))


@settings(max_examples=300, deadline=None)
@example(pointwise_pow_spec(G.convolve(G.TAU, G.ONE), -1.0))
@example(G.convolve(G.convolve(G.MU, G.MU), G.ONE))
@example(G.id_pow(0.1234567))
@given(_specs(MAX_NESTING))
def test_spec_grammar_round_trip(spec):
    copy = parse_spec(spec.label())
    assert copy == spec
    # equal and hashable by value, printed as its label
    assert hash(copy) == hash(spec) and {spec: 1}[copy] == 1
    assert str(spec) == spec.label()


def test_named_functions_are_family_members():
    assert len(Kind) == 9
    named = {"id": G.id_pow(1.0), "sigma": G.sigma_pow(1.0),
             "log": pointwise_log_spec(G.ONE),
             "jordan:0.5": G.convolve(G.MU, G.id_pow(0.5))}
    assert [G.ID, G.SIGMA, G.LOG, G.jordan(0.5)] == list(named.values())
    for text, spec in named.items():
        assert parse_spec(text) == spec
    labels = {"ptpow:-1,conv:sigmapow:0,idpow:0":
              pointwise_pow_spec(G.convolve(G.TAU, G.ONE), -1.0),
              "conv:conv:mu,mu,idpow:0": G.convolve(G.convolve(G.MU, G.MU), G.ONE),
              "conv:conv:mu,idpow:0.5,mu": parse_spec("conv:jordan:0.5,mu"),
              "idpow:0.1234567": G.id_pow(0.1234567)}
    for text, spec in labels.items():
        assert spec.label() == text and parse_spec(text) == spec


def test_spec_validation_errors():
    with pytest.raises(DomainError):
        parse_spec("nope")
    with pytest.raises(DomainError):
        G.FunctionSpec(Kind.ID_POW)  # missing exponent
    with pytest.raises(DomainError):
        G.FunctionSpec(Kind.MOEBIUS, exponent=1.0)  # takes none
    with pytest.raises(DomainError):
        G.FunctionSpec(Kind.CONVOLVE, operands=(G.MU,))  # takes two
    with pytest.raises(DomainError):
        G.id_pow(float("nan"))
    with pytest.raises(DomainError):
        G.sieve(G.MU, 0)
    with pytest.raises(DomainError):
        G.sieve(G.id_pow(500.0), 10 ** 4)  # overflows float64
    deep = G.convolve(G.convolve(G.convolve(G.MU, G.ONE), G.ONE), G.ONE)
    with pytest.raises(DomainError):
        G.convolve(deep, G.ONE)  # nesting depth 5


@pytest.mark.parametrize("operand", [
    G.VON_MANGOLDT, G.LOG, G.DIVISOR_LOG, pointwise_pow_spec(G.TAU, -1.0),
    pointwise_log_spec(G.PHI)], ids=str)
def test_conv_of_other_kinds_refused(operand):
    # a conv tree holds only kinds whose tables are products of prime
    # powers; any other operand, on either side, is refused when the spec
    # is formed, naming it
    for make in (lambda: G.convolve(operand, G.MU),
                 lambda: G.convolve(G.ONE, operand),
                 lambda: G.convolve(G.convolve(operand, G.MU), G.MU)):
        with pytest.raises(DomainError, match=f"cannot convolve {operand}"):
            make()


def test_abscissa_rules():
    assert G.abscissa(G.ONE) == 1.0
    assert G.abscissa(G.ID) == 2.0
    assert G.abscissa(G.id_pow(0.5)) == 1.5
    assert G.abscissa(G.convolve(G.PHI, G.MU)) == 2.0
    assert G.abscissa(G.jordan(-0.5)) == 1.0


def _traced_peak(build):
    """The result of build() and the tracemalloc peak of the call."""
    import tracemalloc
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [G.SIGMA, G.DIVISOR_LOG, G.TAU],
                         ids=["sigma", "divlog", "tau"])
def test_divisor_weight_sieve_peak_near_its_result(spec):
    # the divisor-weight tables, written from their blocks (divlog weighs
    # tau's): the result, what the blocks share and a few blocks; the
    # former row sieve peaked at 3x the result before its rows were
    # blocked
    out, peak = _traced_peak(lambda: G.sieve_values(spec, 1 << 20))
    assert peak < 1.5 * out.nbytes


# each build's declared peak at 2^20, in results (measured in brackets):
# a product of prime powers holds the result, the primes, its factors at
# the primes above isqrt(n) and a few blocks (1.32); lambda the result,
# the bool prime sieve and the primes twice (1.16); a pointwise weighting
# the result, what its operand's blocks share and a few blocks (1.13; it
# held its operand and a copy, 2.00, when it weighed a whole table)
@pytest.mark.parametrize("text, results", [
    ("phi", 1.5), ("sigmapow:-0.5", 1.5), ("conv:mu,mu", 1.5),
    ("conv:jordan:0.5,mu", 1.5), ("lambda", 1.25), ("ptlog:one", 2.1),
    ("ptpow:0.5,mu", 2.1)])
def test_sieve_build_peak_near_its_result(text, results):
    from gcdsums import tables
    spec = parse_spec(text)
    out, peak = _traced_peak(lambda: tables.sieve_values(spec, 1 << 20))
    assert peak < results * out.nbytes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1000, 1 << 16, (1 << 16) + 1,
                               (1 << 17) + 5])
def test_blocked_divisor_weight_sieve_equals_whole_rows(n):
    # the divisor-weight tables, built a block at a time, against the sums
    # of whole rows of divisor pairs: tau and sigma (integer weights summed
    # in int64 rows, cast once) by bytes, sigma_{-1/2} and divlog (float
    # terms, each row rounding once per divisor) within 1e-13 relative;
    # n = 2^17 + 5 spans two blocks
    from oracles import row_divisor_weight_sieve
    weights = [(G.TAU, lambda v: np.ones_like(v), np.int64),
               (G.SIGMA, lambda v: v, np.int64),
               (G.sigma_pow(-0.5),
                lambda v: np.asarray(v, dtype=np.float64) ** -0.5, np.float64),
               (G.DIVISOR_LOG,
                lambda v: np.log(np.asarray(v, dtype=np.float64)), np.float64)]
    for spec, weight, dtype in weights:
        got = G.sieve_values(spec, n)
        want = row_divisor_weight_sieve(n, weight, dtype).astype(np.float64)
        if dtype is np.int64:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), spec


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1 << 16, (1 << 16) + 1,
                               (1 << 17) + 5])
def test_one_and_tau_builds_equal_their_former_sieves(n):
    # the named functions are built as members of their families (one and
    # id are idpow:0 and 1, tau and sigma sigmapow:0 and 1, log is ptlog:one);
    # their values keep the bytes of the builds they had of their own.
    # jordan:a, conv:mu,idpow:a, is a product of prime powers, which moves
    # its last bits off the kernel's: test_kernels holds it to the
    # factored oracle
    from gcdsums import tables
    from oracles import row_divisor_weight_sieve
    tau = row_divisor_weight_sieve(n, lambda v: np.ones_like(v), np.int64)
    sigma = row_divisor_weight_sieve(n, lambda v: v, np.int64)
    one = np.ones(n + 1)
    one[0] = 0.0
    log = np.zeros(n + 1)
    log[1:] = np.log(np.arange(1, n + 1, dtype=np.float64))
    former = [(G.TAU, tau.astype(np.float64)), (G.ONE, one),
              (G.ID, np.arange(n + 1, dtype=np.float64)),
              (G.SIGMA, sigma.astype(np.float64)), (G.LOG, log)]
    for spec, want in former:
        got = tables.sieve_values(spec, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), spec
