import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcdsums as G
from gcdsums import cli
from gcdsums.errors import DomainError
from gcdsums.tables import _with_mu
from gcdsums.zeta import LOG_SQRT_2PI

from oracles import anderson_apostol, ramanujan_sum, split_convolve


def rel_gap(a, b):
    return abs(a - b) / (1.0 + abs(a))


@pytest.fixture(scope="module")
def small_tables():
    n = 400
    return {name: G.sieve(spec, n) for name, spec in
            [("one", G.ONE), ("id", G.ID), ("mu", G.MU), ("phi", G.PHI),
             ("tau", G.TAU), ("idpow", G.id_pow(0.5))]}


def test_anderson_apostol_examples(small_tables):
    t = small_tables
    assert anderson_apostol(t["one"], t["one"], 6, 4) == 2.0
    assert anderson_apostol(t["tau"], t["phi"], 1, 1) == \
        t["tau"].values[1] * t["phi"].values[1]
    assert anderson_apostol(t["id"], t["mu"], 4, 2) == -2.0
    with pytest.raises(DomainError):
        anderson_apostol(t["id"], t["mu"], 401, 1)


def test_ramanujan_examples():
    assert ramanujan_sum(1, 1) == 1
    assert ramanujan_sum(2, 1) == -1
    assert ramanujan_sum(6, 6) == 2
    # c_k(k) = phi(k)
    phi = G.sieve(G.PHI, 60)
    for k in range(1, 61):
        assert ramanujan_sum(k, k) == int(phi.values[k])


def test_log_sum_examples(small_tables):
    t = small_tables
    assert G.apostol_log_sum_direct(t["id"], t["mu"], 1) == 0.0
    assert G.apostol_log_sum(t["id"], t["mu"], 1) == 0.0
    assert G.apostol_log_sum_direct(t["id"], t["mu"], 2) == \
        pytest.approx(math.log(2), rel=1e-15)
    assert G.apostol_log_sum(t["id"], t["mu"], 2) == \
        pytest.approx(math.log(2), rel=1e-15)
    assert G.apostol_log_sum_direct(t["one"], t["one"], 2) == \
        pytest.approx(2 * math.log(2), rel=1e-15)
    assert G.apostol_log_sum(t["one"], t["one"], 4) == \
        pytest.approx(G.apostol_log_sum_direct(t["one"], t["one"], 4), rel=1e-14)


def test_direct_vs_identity_small_sweep(catalog_tables):
    for f, g in catalog_tables:
        for k in range(1, 301):
            direct = G.apostol_log_sum_direct(f, g, k)
            gap = abs(direct - G.apostol_log_sum(f, g, k))
            assert gap <= 1e-9 * (1.0 + abs(direct)), (f.spec, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=2000))
def test_toth_identity_property(k):
    lhs, rhs = G.toth_identity(k)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_toth_examples():
    assert G.toth_identity(1) == (0.0, 0.0)
    lhs, rhs = G.toth_identity(2)
    assert lhs == pytest.approx(0.5 * math.log(2), rel=1e-14)
    assert rhs == pytest.approx(0.5 * math.log(2), rel=1e-14)
    lhs, rhs = G.toth_identity(12)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_cesaro_identity_examples(small_tables):
    t = small_tables
    for k in (1, 5, 12, 100):
        lhs, rhs = G.cesaro_identity(t["one"], k)
        assert lhs == k and rhs == pytest.approx(k, rel=1e-12)
    assert G.cesaro_identity(t["tau"], 4) == (7.0, 7.0)
    lhs, rhs = G.cesaro_identity(t["id"], 6)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.sampled_from(["one", "id", "tau", "phi"]))
def test_cesaro_identity_property(k, name):
    t = G.sieve({"one": G.ONE, "id": G.ID, "tau": G.TAU,
                 "phi": G.PHI}[name], 400)
    lhs, rhs = G.cesaro_identity(t, k)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_remark_exact_stirling_form():
    """(1/k) sum c_k(j) log j minus the two divisor main terms equals the
    exact mu-weighted Stirling remainder, which lies in
    (0, (1/12) sum_{d|k} |mu(d)|/d^2)."""
    kmax = 1000
    mu = G.sieve_values(G.MU, kmax)
    table = G.log_factorial_table(kmax)
    for k in range(2, kmax + 1):
        divs = G.divisors_of(k)
        lhs, _ = G.toth_identity(k)
        main = (0.5 * math.fsum(mu[d] / d * math.log(d) for d in divs)
                + LOG_SQRT_2PI * math.fsum(mu[d] / d for d in divs))
        remainder = math.fsum(mu[d] * table.rho[d] / d for d in divs)
        bound = math.fsum(abs(mu[d]) / d ** 2 for d in divs) / 12.0
        assert lhs - main == pytest.approx(remainder, abs=1e-12)
        assert 0.0 < remainder < bound


def test_average_examples(small_tables):
    t = small_tables
    assert G.apostol_log_average(t["id"], t["mu"], 1.0) == 0.0
    assert G.apostol_log_average(t["id"], t["mu"], 2.0) == \
        pytest.approx(0.5 * math.log(2), rel=1e-14)
    assert G.apostol_log_average(t["one"], t["one"], 2.0) == \
        pytest.approx(math.log(2), rel=1e-14)
    # realness of the cut: x = 2.7 includes k = 1, 2 only
    assert G.apostol_log_average(t["one"], t["one"], 2.7) == \
        pytest.approx(math.log(2), rel=1e-14)
    with pytest.raises(DomainError):
        G.apostol_log_average(t["one"], t["one"], 0.5)


def test_decomposition_examples(small_tables):
    t = small_tables
    # at x = 1 the only pair is d = l = 1 and the terms cancel exactly:
    # -1 + log sqrt(2 pi) + rho(1) = 0
    dec = G.apostol_log_average_terms(t["id"], t["mu"], 1.0)
    assert dec.total == pytest.approx(0.0, abs=1e-14)
    assert dec.log_d_term == 0.0 and dec.log_l_term == 0.0
    dec = G.apostol_log_average_terms(t["id"], t["mu"], 2.0)
    assert dec.total == pytest.approx(0.5 * math.log(2), rel=1e-12)
    dec = G.apostol_log_average_terms(t["one"], t["one"], 10.0)
    ks = G.apostol_log_average(t["one"], t["one"], 10.0)
    assert dec.total == pytest.approx(ks, rel=1e-12)
    assert abs(dec.remainder_term) <= dec.remainder_bound


@pytest.mark.parametrize("x, over", [(math.inf, math.inf),
                                     (math.nan, math.nan), (0.5, 0.5),
                                     (401.0, 2e7)])
def test_averages_reject_x_out_of_range(small_tables, x, over):
    # x is checked before it is floored (inf raised OverflowError); x is
    # beyond the 400-entry tables, over beyond MAX_SIEVE for the constant 1
    f = small_tables["id"]
    with pytest.raises(DomainError):
        G.apostol_log_average_terms(None, None, over)
    with pytest.raises(DomainError):  # gcd_log_average's expansion
        G.apostol_log_average_terms(G.sieve(_with_mu(f.spec), f.n_max), None,
                                    x)
    with pytest.raises(DomainError):
        G.gcd_log_average(f, x)
    with pytest.raises(DomainError):  # the Cesaro routes, cut at x
        G.cesaro_average_profile(f.spec, over)


def test_decomposition_matches_average_on_catalog(catalog_tables):
    for f, g in catalog_tables:
        for x in (10.0, 100.0, 1000.0):
            dec = G.apostol_log_average_terms(f, g, x)
            ks = G.apostol_log_average(f, g, x)
            assert rel_gap(dec.total, ks) <= 1e-8
            assert abs(dec.remainder_term) <= dec.remainder_bound


def test_exact_value_matches_per_k_reference():
    # a scan target's exact side (the six-term decomposition) against the
    # per-k identity sum and, for small x, the brute-force j-loop
    for name, target in G.SCAN_TARGETS.items():
        a = -0.5 if target.needs_a else None
        # (f, g) as named by the first of its ``six_terms`` lists
        (_, ((_, (f, _), (g, _)),)), *_ = target.sums(a)
        f, g = (G.sieve(G.ONE if s is None else s, 1000) for s in (f, g))
        for x in (2.0, 17.0, 50.5, 1000.0):
            value = target.parts([x], a)[0][0]
            assert value == pytest.approx(
                G.apostol_log_average(f, g, x), rel=1e-12), (name, x)
            if x <= 60:
                brute = sum(G.apostol_log_sum_direct(f, g, k) / k
                            for k in range(1, int(x) + 1))
                assert value == pytest.approx(brute, rel=1e-12), (name, x)


def test_remainder_term_against_log_gamma_oracle(catalog_tables):
    # sum_{dl<=x} (f(d)/d) g(l) rho(l)/l with rho from log Gamma at 30 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x = 300
    rho = [mpmath.mpf(0)] + [
        mpmath.loggamma(l + 1) - (l * mpmath.log(l) - l + mpmath.log(l) / 2
                                  + mpmath.log(2 * mpmath.pi) / 2)
        for l in range(1, x + 1)]
    for f, g in catalog_tables:
        oracle = mpmath.fsum(
            mpmath.mpf(float(f.values[d])) / d * float(g.values[l]) * rho[l] / l
            for d in range(1, x + 1) for l in range(1, x // d + 1))
        value = G.apostol_log_average_terms(f, g, float(x)).remainder_term
        assert abs(value - float(oracle)) <= 1e-12 * (1.0 + abs(value)), \
            (f.spec, g.spec)


def test_gcd_log_average_equals_general_form(small_tables):
    # L(x; f) = K(x; f*mu, 1) exactly: same identity path underneath
    t = small_tables
    for x in (1.0, 3.0, 50.0, 200.0):
        one = G.sieve(G.ONE, 400)
        fmu = G.sieve(G.convolve(G.ID, G.MU), 400)
        assert G.gcd_log_average(t["id"], x) == pytest.approx(
            G.apostol_log_average(fmu, one, x), rel=1e-9, abs=1e-12)


def test_gcd_log_average_brute_force():
    idt = G.sieve(G.ID, 200)
    taut = G.sieve(G.TAU, 200)
    for f, x in ((idt, 200), (taut, 50)):
        brute = 0.0
        for k in range(1, x + 1):
            s = 0.0
            for j in range(2, k + 1):
                s += f.values[math.gcd(j, k)] * math.log(j)
            brute += s / k
        assert G.gcd_log_average(f, float(x)) == pytest.approx(brute, rel=1e-11)


def test_gcd_log_average_harmonic_sanity():
    # f = 1: every s_k(j) = 1, so the average is sum_{k<=x} L(k)/k
    one = G.sieve(G.ONE, 10)
    lf = G.log_factorial_table(3).log_factorial
    expected = sum(lf[k] / k for k in (1, 2, 3))
    assert G.gcd_log_average(one, 3.0) == pytest.approx(expected, rel=1e-14)


def test_gcd_log_average_terms_grouping():
    # grouped decomposition terms equal the sieved per-n groupings
    x = 300
    idt = G.sieve(G.ID, x)
    dec = G.apostol_log_average_terms(G.sieve(_with_mu(idt.spec), x), None,
                                      float(x))
    narr = np.arange(1, x + 1, dtype=np.float64)
    id_phi = G.sieve_values(G.convolve(G.ID, G.PHI), x)[1:]
    # Lambda is in no conv tree: id * Lambda by the oracle kernel
    id_lam = split_convolve(G.sieve_values(G.ID, x),
                            G.sieve_values(G.VON_MANGOLDT, x), x)[1:]
    group_a = float(np.sum(id_phi / narr * (np.log(narr) - 1.0)))
    group_b = 0.5 * float(np.sum(id_lam / narr))
    group_c = LOG_SQRT_2PI * float(np.sum(narr / narr))
    assert dec.log_d_term + dec.log_l_term + dec.unit_term == \
        pytest.approx(group_a, rel=1e-12)
    assert dec.half_log_term == pytest.approx(group_b, rel=1e-12)
    assert dec.const_term == pytest.approx(group_c, rel=1e-12)


def test_cesaro_average_examples():
    # both routes at x, entry x of the cumulative profiles
    lhs, rhs = G.cesaro_average_profile(G.ONE, 10)
    assert (lhs[3], rhs[3]) == (3.0, 3.0)
    lhs, rhs = G.cesaro_average_profile(G.TAU, 10)
    assert lhs[4] == pytest.approx(rhs[4], rel=1e-12)
    lhs, rhs = G.cesaro_average_profile(G.ID, 10)
    assert lhs[10] == pytest.approx(rhs[10], rel=1e-12)


def test_cesaro_average_profile_agreement():
    lhs, rhs = G.cesaro_average_profile(G.TAU, 300)
    assert np.all(np.abs(lhs[1:] - rhs[1:]) <= 1e-10 * (1.0 + np.abs(lhs[1:])))


def test_identity_csv_audit_schema(capsys, catalog_tables):
    # the identity command's row at k is k, the pair
    # apostol_log_sum_direct / apostol_log_sum at k, and their gap
    f, g = catalog_tables[0]  # id, mu: the command's defaults
    assert cli.main(["identity", "--which", "apostol", "--kmax", "37"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    k, direct, ident, gap = int(row[0]), *map(float, row[1:])
    assert k == 37
    assert (direct, ident) == (G.apostol_log_sum_direct(f, g, 37),
                               G.apostol_log_sum(f, g, 37))
    assert gap == abs(direct - ident)
