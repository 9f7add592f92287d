import math

import numpy as np
import pytest

import gcdsums as G
from gcdsums import _accum, series, stirling
from gcdsums.errors import DomainError
from gcdsums.series import (mu_series_report, series_identity_compare,
                            series_identity_grid, series_theta_bracket)
from gcdsums.tables import blocks

from oracles import np_sum_series_sums, series_rhs_terms


def dirichlet_partial_sum(f, s, k, log_weight=False):
    """sum_{k<=K} f(k) (log k)^w / k^s with w = 0 or 1, from a one-point
    pass of ``series._passes``."""
    (_, (f_log, _, f_sum, _)), = series._passes(f, None, s, [k])
    return f_log if log_weight else f_sum


def log_factorial_partial_sum(g, s, k):
    """sum_{k<=K} g(k) L(k) / k^s, L(k) = log k!, from a one-point pass of
    ``series._passes``."""
    (_, (*_, g_lf)), = series._passes(None, g, s, [k])
    return g_lf


@pytest.fixture(scope="module")
def tables():
    n = 10 ** 4
    return {name: G.sieve(spec, n) for name, spec in
            [("one", G.ONE), ("id", G.ID), ("mu", G.MU), ("phi", G.PHI),
             ("idpow", G.id_pow(0.5))]}


def test_partial_sum_examples(tables):
    t = tables
    assert dirichlet_partial_sum(t["one"], 2.0, 1) == 1.0
    # tail of sum 1/k^2 beyond 1e3 is just under 1.01e-3
    assert abs(dirichlet_partial_sum(t["one"], 2.0, 1000) - G.zeta(2.0)) \
        <= 1.01e-3
    assert abs(dirichlet_partial_sum(t["mu"], 2.0, 10 ** 4)
               - 1.0 / G.zeta(2.0)) <= 2e-4
    with pytest.raises(DomainError):  # a K of 0 is refused
        series_identity_grid(t["one"], t["one"], 3.0, [0])


def test_log_factorial_sum_examples(tables):
    t = tables
    assert log_factorial_partial_sum(t["one"], 4.0, 1) == 0.0
    assert log_factorial_partial_sum(t["one"], 4.0, 2) == \
        pytest.approx(math.log(2) / 16.0, rel=1e-15)
    gap = abs(log_factorial_partial_sum(t["mu"], 4.0, 10 ** 4)
              - log_factorial_partial_sum(t["mu"], 4.0, 10 ** 3))
    # frozen: observed 3.05e-8 (the mu cancellation leaves a few 1e-8)
    assert gap < 1e-7


def test_identity_compare_trivial_k1(tables):
    t = tables
    cmp = series_identity_compare(t["id"], t["mu"], 3.0, 1)
    assert cmp.lhs == 0.0 and cmp.rhs == 0.0 and cmp.gap == 0.0


@pytest.mark.parametrize("pair,s", [
    (("id", "mu"), 3.0), (("one", "one"), 4.0), (("phi", "one"), 3.0),
    (("idpow", "mu"), 4.0)])
def test_identity_compare_gap_shrinks(tables, pair, s):
    f, g = tables[pair[0]], tables[pair[1]]
    gaps = [series_identity_compare(f, g, s, K).gap for K in (100, 10000)]
    assert gaps[1] < gaps[0]


def _record_rows(monkeypatch):
    """The l_max of every Stirling row built from here on: both rows
    (log l! and rho) are built by ``stirling._row``."""
    built = []
    row = stirling._row
    monkeypatch.setattr(stirling, "_row", lambda fill, l_max:
                        built.append(l_max) or row(fill, l_max))
    return built


@pytest.mark.parametrize("k_max", [1, 1000, 10 ** 4])
def test_identity_compare_builds_one_log_factorial_row(tables, monkeypatch,
                                                       k_max):
    # no log l! row: L(l) is carried from block to block, and both sides
    # have the bytes of the one-point passes of the partial-sum functions
    f, g = tables["phi"], tables["one"]
    lhs = series._u_partial_sum(f, g, 3.0, [k_max])[0]
    rhs = (dirichlet_partial_sum(f, 3.0, k_max, log_weight=True)
           * dirichlet_partial_sum(g, 2.0, k_max)
           + dirichlet_partial_sum(f, 3.0, k_max)
           * log_factorial_partial_sum(g, 3.0, k_max))
    built = _record_rows(monkeypatch)
    cmp = series_identity_compare(f, g, 3.0, k_max)
    assert built == []
    assert (cmp.lhs, cmp.rhs) == (lhs, rhs)


@pytest.mark.parametrize("pair,s", [(("id", "mu"), 3.0), (("phi", "one"), 4.0)])
def test_identity_grid_equals_per_k_compares(tables, monkeypatch, pair, s):
    # one pass and no log l! row for the whole K list, with the bytes of
    # each K compared alone
    f, g = tables[pair[0]], tables[pair[1]]
    ks = [1, 100, 1000, 10 ** 4]
    alone = [series_identity_compare(f, g, s, k) for k in ks]
    built = _record_rows(monkeypatch)
    assert series.series_identity_grid(f, g, s, ks) == alone
    assert built == []


def test_identity_grid_over_several_runs_equals_per_k_compares(tables):
    # a dense K list runs as several passes, each from l = 1, so L(l)
    # restarts with each; blocks or arrays give the same bytes
    f, g = (blocks(spec, 3000) for spec in (G.PHI, G.ONE))
    ks = list(range(2000, 2101))
    assert len(list(_accum._runs(ks))) > 1
    grid = series.series_identity_grid(f, g, 3.0, ks)
    assert grid == [series_identity_compare(tables["phi"], tables["one"], 3.0,
                                            k) for k in ks]


def test_identity_compare_divergence_guard(tables):
    with pytest.raises(DomainError):
        series_identity_compare(tables["id"], tables["mu"], 2.0, 100)
    with pytest.raises(DomainError):
        series_identity_compare(tables["one"], tables["one"], 1.5, 100)


def test_finite_support_exact_equality():
    k0 = 25
    n = k0 * k0
    fv = np.zeros(n + 1)
    fv[1:k0 + 1] = np.arange(1, k0 + 1, dtype=np.float64)
    gv = np.zeros(n + 1)
    gv[1:k0 + 1] = G.sieve_values(G.MU, k0)[1:]
    f = G.FunctionTable(G.ID, n, fv)
    g = G.FunctionTable(G.MU, n, gv)
    cmp = series_identity_compare(f, g, 3.0, n)
    assert cmp.gap <= 1e-10 * (1.0 + abs(cmp.lhs))


def test_theta_bracket_phi_one(tables):
    b, = series_theta_bracket(tables["id"], 3.0, [10 ** 4])
    assert b.contains
    # interval width equals the theta span plus both allowances
    c = G.constants()
    f3 = dirichlet_partial_sum(tables["id"], 3.0, 10 ** 4)
    span = (1.0 / 12.0) * f3 * c.zeta(4.0) / c.zeta(3.0)
    assert b.hi - b.lo == pytest.approx(span + 2 * b.allowance, rel=1e-12)
    with pytest.raises(DomainError):
        series_theta_bracket(tables["id"], 2.0, [100])


@pytest.mark.parametrize("k", [1, 6, 100, 1000, 10 ** 4])
def test_theta_bracket_of_log_reads_lambda(k):
    # log * mu is Lambda: the bracket's lhs for f = log is the one from
    # Lambda's blocks up to K, and the bracket still contains it
    b, = series_theta_bracket(G.sieve(G.LOG, 10 ** 4), 3.0, [k])
    lam = blocks(G.VON_MANGOLDT, k)
    assert b.lhs == series._u_partial_sum(lam, None, 3.0, [k])[0]
    assert b.contains


def test_mu_series_report(tables):
    r, = mu_series_report(3.0, [10 ** 4], tables["id"], tables["mu"])
    # the constant-tail closed form is supported by the data, the
    # ratio-tail variant is not; report both rather than asserting the
    # displayed variant
    assert r.matches_constant_tail
    assert not r.matches_ratio_tail
    assert r.ratio_tail_lo > r.lhs or r.ratio_tail_hi < r.lhs


def test_k_lists_are_one_pass_of_their_weights(tables, monkeypatch):
    # the bracket and the report take a K list in one pass, with the
    # bytes of each K alone; the report's pass holds the four weights of
    # the lhs, and the bracket's two more for F' and F, read at K as hi[0]
    ks = [1, 100, 1000, 10 ** 4]
    alone = ([series_theta_bracket(tables["id"], 3.0, [k])[0] for k in ks],
             [mu_series_report(3.0, [k], tables["id"], tables["mu"])[0]
              for k in ks])
    passes, widths = [], set()
    real = series.quotient_prefixes

    def record(open_pass, ns):
        def counted_pass():
            weights = open_pass()

            def counted(lo, hi):
                n = 0
                for w in weights(lo, hi):
                    n += 1
                    yield w
                widths.add(n)
            return counted
        passes.append(ns)
        return real(counted_pass, ns)

    monkeypatch.setattr(series, "quotient_prefixes", record)
    assert (series_theta_bracket(tables["id"], 3.0, ks),
            mu_series_report(3.0, ks, tables["id"], tables["mu"])) == alone
    assert passes == [ks, ks] and widths == {6, 4}


@pytest.mark.parametrize("k_max", [0, 10 ** 4 + 1, 10 ** 5])
def test_mu_series_report_rejects_k_outside_its_tables(tables, k_max):
    # the same range rule as the other series: K in 1..n_max of both tables
    with pytest.raises(DomainError):
        mu_series_report(3.0, [k_max], tables["id"], tables["mu"])


@pytest.fixture(scope="module")
def catalog_tables():
    n = 10 ** 5
    return n, stirling.log_factorial_row(n), {
        text: G.sieve(G.parse_spec(text), n)
        for text in ("id", "mu", "one", "phi", "idpow:0.5")}


@pytest.mark.parametrize("k", [10 ** 4, 10 ** 5])
@pytest.mark.parametrize("s", [3.0, 4.0])
@pytest.mark.parametrize("pair", [("id", "mu"), ("one", "one"), ("phi", "one"),
                                  ("idpow:0.5", "mu")],
                         ids=["id-mu", "one-one", "phi-one", "idpow-mu"])
def test_rhs_sums_within_an_ulp_of_fsum(catalog_tables, pair, s, k):
    # -F'(s), G(s-1), F(s) and G_L(s), the longdouble running sums of the
    # pass rounded once, against math.fsum of the same float64 terms:
    # within an ulp, and never further from it than the np.sum of the
    # whole-K products that the rhs was before the pass gave it
    n, lf, t = catalog_tables
    f, g = t[pair[0]], t[pair[1]]
    got = [dirichlet_partial_sum(f, s, k, log_weight=True),
           dirichlet_partial_sum(g, s - 1.0, k),
           dirichlet_partial_sum(f, s, k),
           log_factorial_partial_sum(g, s, k)]
    exact = [math.fsum(terms) for terms
             in series_rhs_terms(f.values, g.values, lf, s, k)]
    old = np_sum_series_sums(f.values, g.values, lf, s, k)
    old_exact = [math.fsum(terms) for terms
                 in series_rhs_terms(f.values, g.values, lf, s, k,
                                     log_last=True)]
    for name, a, e, b, be in zip(("F'", "G(s-1)", "F", "G_L"), got, exact,
                                 old, old_exact):
        assert abs(a - e) <= np.spacing(abs(e)), name
        assert abs(a - e) <= abs(b - be), name
