import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcdsums as G
from gcdsums.errors import DomainError
from gcdsums.tables import Kind, parse_spec

from oracles import naive_value

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


def test_mobius_range_and_integrality():
    t = G.sieve(G.MU, 5000)
    assert set(np.unique(t.values[1:])) <= {-1.0, 0.0, 1.0}
    for spec in (G.TAU, G.SIGMA, G.PHI):
        vals = G.sieve(spec, 5000).values[1:]
        assert np.all(vals == np.rint(vals))


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
    idt = G.sieve(G.ID, n)
    log = G.sieve(G.LOG, n)
    ida = G.sieve(G.id_pow(-0.5), n)

    # mobius inversion: mu * 1 = unit element
    e = G.dirichlet_convolve(mu, one).values
    assert e[1] == 1.0 and np.all(e[2:] == 0.0)

    pairs = [
        (G.dirichlet_convolve(mu, idt), G.sieve(G.PHI, n)),
        (G.dirichlet_convolve(mu, ida), G.sieve(G.jordan(-0.5), n)),
        (G.dirichlet_convolve(one, ida), G.sieve(G.sigma_pow(-0.5), n)),
        (G.dirichlet_convolve(mu, log), G.sieve(G.VON_MANGOLDT, n)),
        (G.dirichlet_convolve(one, log), G.sieve(G.DIVISOR_LOG, n)),
    ]
    for built, direct in pairs:
        gap = np.abs(built.values - direct.values)
        assert np.all(gap <= RTOL * (1.0 + np.abs(direct.values))), built.spec


def test_convolution_examples():
    n = 100
    one = G.sieve(G.ONE, n)
    idt = G.sieve(G.ID, n)
    mu = G.sieve(G.MU, n)
    assert G.dirichlet_convolve(one, idt).values[6] == 12  # sigma(6)
    assert G.dirichlet_convolve(mu, idt).values[6] == 2    # phi(6)


def test_mu_log_cancellation():
    # sum_{d|n} mu(d) * log n = 0 for n >= 2
    n = 500
    mu_one = G.dirichlet_convolve(G.sieve(G.MU, n), G.sieve(G.ONE, n)).values
    logs = np.log(np.arange(1, n + 1))
    assert np.all(np.abs(mu_one[2:] * logs[1:]) == 0.0)


def test_pointwise_examples():
    n = 10
    one = G.sieve(G.ONE, n)
    idt = G.sieve(G.ID, n)
    mu = G.sieve(G.MU, n)
    assert G.pointwise_log(one).values[1] == 0.0
    assert G.pointwise_power(idt, -1.0).values[7] == pytest.approx(1.0, abs=1e-15)
    assert G.pointwise_log(mu).values[4] == 0.0


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
@given(st.sampled_from(["mu", "one", "id", "tau", "lambda"]),
       st.sampled_from(["one", "id", "log", "idpow:-0.5"]),
       st.sampled_from(["one", "mu", "phi"]))
def test_convolution_associativity(fa, fb, fc):
    n = 120
    a = G.sieve(parse_spec(fa), n)
    b = G.sieve(parse_spec(fb), n)
    c = G.sieve(parse_spec(fc), n)
    left = G.dirichlet_convolve(G.dirichlet_convolve(a, b), c).values
    right = G.dirichlet_convolve(a, G.dirichlet_convolve(b, c)).values
    assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


def test_spec_grammar_round_trip():
    texts = ["mu", "one", "id", "idpow:-0.5", "jordan:0.5", "sigmapow:-1",
             "conv:tau,one", "conv:jordan:0.5,mu", "ptlog:mu", "ptpow:-1,id"]
    for text in texts:
        spec = parse_spec(text)
        assert parse_spec(spec.label()) == spec


def test_spec_validation_errors():
    with pytest.raises(DomainError):
        parse_spec("nope")
    with pytest.raises(DomainError):
        G.FunctionSpec(Kind.ID_POW)  # missing exponent
    with pytest.raises(DomainError):
        G.id_pow(float("nan"))
    with pytest.raises(DomainError):
        G.sieve(G.MU, 0)
    with pytest.raises(DomainError):
        G.sieve(G.id_pow(500.0), 10 ** 4)  # overflows float64
    deep = G.convolve(G.convolve(G.convolve(G.MU, G.ONE), G.ONE), G.ONE)
    with pytest.raises(DomainError):
        G.convolve(deep, G.ONE)  # nesting depth 5


def test_convolve_size_mismatch():
    with pytest.raises(DomainError):
        G.dirichlet_convolve(G.sieve(G.MU, 10), G.sieve(G.ONE, 11))


def test_abscissa_rules():
    assert G.abscissa(G.ONE) == 1.0
    assert G.abscissa(G.ID) == 2.0
    assert G.abscissa(G.id_pow(0.5)) == 1.5
    assert G.abscissa(G.convolve(G.PHI, G.MU)) == 2.0
    assert G.abscissa(G.jordan(-0.5)) == 1.0


@pytest.mark.parametrize("name", ["_tau_values", "_sigma_pow_values"])
def test_divisor_weight_sieve_peak_near_its_result(name):
    # rows go in blocks: taking the d = 1 row whole peaked at 3x the result
    import tracemalloc
    from gcdsums import tables
    build = getattr(tables, name)
    args = (1 << 20,) if name == "_tau_values" else (1 << 20, -0.5)
    tracemalloc.start()
    try:
        out = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1000, 1 << 16, (1 << 16) + 1,
                               (1 << 17) + 5])
def test_blocked_divisor_weight_sieve_equals_whole_rows(n):
    # n = 2^17 + 5 puts the rows of d = 1 and d = 2 over one block
    from gcdsums import tables
    from oracles import row_divisor_weight_sieve
    weights = [(lambda v: np.ones_like(v), np.int64),
               (lambda v: v, np.int64),
               (lambda v: np.asarray(v, dtype=np.float64) ** -0.5, np.float64),
               (lambda v: np.log(np.asarray(v, dtype=np.float64)), np.float64)]
    for weight, dtype in weights:
        got = tables._divisor_weight_sieve(n, weight, dtype)
        want = row_divisor_weight_sieve(n, weight, dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
