import dataclasses
import math

import numpy as np
import pytest

import gcdsums as G
from gcdsums.asymptotics import (SCAN_TARGETS, STATISTICS, Target, _norm,
                                 _value, calibrate,
                                 divisor_delta, divisor_delta_a,
                                 divisor_delta_grid,
                                 divisor_delta_a_series,
                                 delta_integral_ratio, limit_ratio_grid,
                                 load_calibration, main_term,
                                 mu_delta_grid, mu_delta_sum, residual_scan,
                                 standard_grid,
                                 summatory, tau_gcd_log_avg_routes,
                                 write_calibration)
from gcdsums import asymptotics, identities
from gcdsums.errors import DomainError
from gcdsums.identities import _KINDS, _hyperbola_sums, six_terms
from gcdsums.tables import (DIVISOR_LOG, SIGMA, TAU, FunctionSpec,
                            FunctionTable, blocks, sieve_values)
from gcdsums.zeta import LOG_SQRT_2PI, THETA_HI, THETA_LO

from oracles import (CLOSURE_MAINS, CLOSURE_NORMALIZERS, naive_value,
                     whole_array_prefix)

GAMMA = G.euler_gamma()


def test_delta_examples():
    assert divisor_delta(1.0) == pytest.approx(2.0 - 2.0 * GAMMA, abs=1e-12)
    tau_sum_10 = sum(naive_value("tau", n) for n in range(1, 11))
    assert tau_sum_10 == 27
    assert divisor_delta(10.0) == pytest.approx(
        27.0 - (10.0 * math.log(10.0) + (2 * GAMMA - 1) * 10.0), abs=1e-12)
    assert abs(divisor_delta(10.0) - 2.4298) < 1e-3
    with pytest.raises(DomainError):
        divisor_delta(0.5)


def test_delta_soft_bound_at_1e6():
    assert abs(divisor_delta(1e6)) < 1e3


def test_delta_matches_naive_small():
    for x in (1.0, 2.0, 7.5, 30.0, 100.0):
        exact = sum(naive_value("tau", n) for n in range(1, int(x) + 1))
        smooth = x * math.log(x) + (2 * GAMMA - 1) * x
        assert divisor_delta(x) == pytest.approx(exact - smooth, abs=1e-10)


def test_integral_ratio_against_quadrature_oracle():
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def delta_fn(y):
        exact = sum(naive_value("tau", n) for n in range(1, int(y) + 1))
        return exact - (y * math.log(y) + (2 * GAMMA - 1) * y)

    oracle, _ = scipy_integrate.quad(delta_fn, 1.0, 2.0, limit=200)
    assert delta_integral_ratio(2.0) == pytest.approx(oracle / 2.0, abs=1e-9)


def test_integral_ratio_boundedness():
    r3 = delta_integral_ratio(1e3)
    assert abs(r3) < 1.0
    r4 = delta_integral_ratio(1e4)
    r5 = delta_integral_ratio(1e5)
    assert abs(r5) <= 2.0 * max(abs(r4), 0.05)
    with pytest.raises(DomainError):
        delta_integral_ratio(1.5)


def test_delta_a_regression_and_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    value = divisor_delta_a(10.0, -0.5)
    exact = math.fsum(naive_value("sigmapow", n, -0.5) for n in range(1, 11))
    smooth = (float(mpmath.zeta(1.5)) * 10.0
              + float(mpmath.zeta(0.5)) / 0.5 * 10.0 ** 0.5
              - float(mpmath.zeta(0.5)) / 2.0)
    assert value == pytest.approx(exact - smooth, abs=1e-10)
    # frozen regression value
    assert value == pytest.approx(1.3335012949278, abs=1e-10)
    with pytest.raises(DomainError):
        divisor_delta_a(10.0, -1.5)


def test_delta_a_series_trend():
    exact = divisor_delta_a(1e4, -0.5)
    gaps = {n: abs(exact - divisor_delta_a_series(1e4, -0.5, n))
            for n in (10, 100, 1000)}
    assert gaps[1000] < gaps[10]
    assert gaps[100] <= 1.5 * gaps[10]
    assert gaps[1000] <= 1.5 * gaps[100]
    # single-term case is just the n = 1 cosine
    single = divisor_delta_a_series(1e4, -0.5, 1)
    expected = (1e4 ** 0.0 / (math.pi * math.sqrt(2.0))
                * math.cos(4.0 * math.pi * 100.0 - math.pi / 4.0))
    assert single == pytest.approx(expected, rel=1e-12)


def test_mu_delta_sum_examples():
    assert mu_delta_sum(1.0, "mu") == pytest.approx(-(2.0 - 2.0 * GAMMA),
                                                    abs=1e-12)
    assert mu_delta_sum(1.0, "mu_star_mu") == pytest.approx(
        -(2.0 - 2.0 * GAMMA), abs=1e-12)
    with pytest.raises(DomainError):
        mu_delta_sum(10.0, "nope")


def test_mu_delta_sum_against_double_loop():
    mu = [naive_value("mu", n) for n in range(0, 101)]
    for x in (100.0, 100.5):
        expected = 0.0
        for n in range(1, 101):
            y = x / n
            tau_sum = sum(naive_value("tau", m) for m in range(1, int(y) + 1))
            delta = tau_sum - (y * math.log(y) + (2 * GAMMA - 1) * y)
            expected += mu[n] / n * delta
        expected *= math.log(x) - 1.0
        assert mu_delta_sum(x, "mu") == pytest.approx(expected, abs=1e-9), x


def test_summatory_examples():
    exact, main = summatory("power_sum", 4.0, -0.5)
    assert exact == pytest.approx(1 + 2 ** -0.5 + 3 ** -0.5 + 0.5, rel=1e-14)
    assert main == pytest.approx(4 ** 0.5 / 0.5 + G.zeta(0.5), rel=1e-12)

    exact, _ = summatory("id_phi", 1.0)
    assert exact == 1.0

    exact, main = summatory("tau_over_n", 100.0)
    oracle = math.fsum(naive_value("tau", n) / n for n in range(1, 101))
    assert exact == pytest.approx(oracle, rel=1e-12)
    assert main == pytest.approx(0.5 * math.log(100.0) ** 2
                                 + 2 * GAMMA * math.log(100.0), rel=1e-12)
    with pytest.raises(DomainError):
        summatory("not-a-statistic", 10.0)
    with pytest.raises(DomainError):
        summatory("power_sum", 10.0)  # missing a


def test_statistic_residuals_are_modest():
    # each statistic's residual over a small grid stays within a few
    # normalizer units; catches main-term transcription slips
    grid = standard_grid(1e3, 1e5, 5)
    for name, stat in STATISTICS.items():
        a = -0.5 if stat.needs_a else None
        scan = residual_scan(name, grid, a)
        assert scan.max_normalized() < 10.0, (name, scan.normalized)


def test_main_term_examples():
    c = G.constants()
    lx = math.log(100.0)
    expected = (c.zeta2 * 100.0 * lx - 2 * c.zeta2 * 100.0 + lx ** 3 / 12.0
                + (c.gamma - 1 + math.log(2 * math.pi)) / 4.0 * lx ** 2)
    assert main_term("tau-log-avg", 100.0) == pytest.approx(expected, rel=1e-14)
    assert abs(expected - 444.17) < 0.1

    coeff = c.log_sqrt_2pi / c.zeta2 + c.zeta_prime_2 / (2 * c.zeta2 ** 2)
    assert main_term("ramanujan-log-avg", 1.0 + 1e-9) / (1.0 + 1e-9) == \
        pytest.approx(coeff, rel=1e-9)
    assert coeff == pytest.approx(0.38540, abs=1e-5)


# every entry's main term at x = 10, 1e3 and 1e6, frozen as hex: a = -0.5
# where the entry needs a, and the log averages at theta = 0 and 1/12
_FROZEN_MAINS = {
    ("tau-log-avg", 0.0):
        "0x1.f7b38d21ec7e3p+2 0x1.fb548750348a6p+12 0x1.2891f71a777a9p+24",
    ("tau-log-avg", 1 / 12):
        "0x1.f7b38d21ec7e3p+2 0x1.fb548750348a6p+12 0x1.2891f71a777a9p+24",
    ("ramanujan-log-avg", 0.0):
        "0x1.ed4ff60ae07cdp+1 0x1.816678387f618p+8 0x1.785e11672c653p+18",
    ("ramanujan-log-avg", 1 / 12):
        "0x1.23064a09cccccp+2 0x1.c6b9d3af4ffffp+8 0x1.bc1178b9341ffp+18",
    ("id-log-avg", 0.0):
        "0x1.7afc37b0072d8p+4 0x1.801b300b46fe6p+14 0x1.95513fc692384p+26",
    ("id-log-avg", 1 / 12):
        "0x1.84ba8e1d209aep+4 0x1.810ec67bee7a1p+14 0x1.958cb801131bfp+26",
    ("phi-log-avg", 0.0):
        "0x1.e12fd2b7ebcccp+3 0x1.f352aef642bc4p+13 0x1.ffcb9b85c3be0p+25",
    ("phi-log-avg", 1 / 12):
        "0x1.ed0892f0399e9p+3 0x1.f47ad9bbc255bp+13 0x1.0009f4fb7db28p+26",
    ("idpow-log-avg", 0.0):
        "0x1.1d7d09b229b95p+4 0x1.e51bb2b556584p+12 0x1.1e31167335597p+24",
    ("idpow-log-avg", 1 / 12):
        "0x1.21d1995cabd30p+4 0x1.e5470051ff6d4p+12 0x1.1e316c0912a29p+24",
    ("jordan-log-avg", 0.0):
        "0x1.fa5f3caeaeb3ep+2 0x1.275dec722d8eep+12 0x1.5c070d903440ep+23",
    ("jordan-log-avg", 1 / 12):
        "0x1.0080517c4e62cp+3 0x1.276e7ff1e6621p+12 0x1.5c074f161b3c1p+23",
    ("id_phi", 0.0):
        "0x1.266dd6b22e6d4p+4 0x1.21fca14517d33p+12 0x1.0dc0420a0930ep+23",
    ("phi_phi", 0.0):
        "0x1.a96384722100cp+3 0x1.7ae9830abd580p+11 0x1.54d5a597fd14cp+22",
    ("idpow_phi", 0.0):
        "0x1.8b10fa586e964p+3 0x1.8431d4f238afap+10 0x1.83747bf20b3a7p+20",
    ("jordan_phi", 0.0):
        "0x1.09a471c6c6550p+3 0x1.dbf7c9c0fdd6dp+9 0x1.d73632db14460p+19",
    ("divisor_log", 0.0):
        "0x1.c84cefba90742p+1 0x1.12d4d58d48326p+6 0x1.ee93a0be7f8d0p+8",
    ("sigma_logne", 0.0):
        "0x1.d36fd866ca4cbp+1 0x1.f7d012c1da3acp+12 0x1.2890a81dee4b6p+24",
    ("power_sum", 0.0):
        "0x1.374f10ebabe53p+2 0x1.ee481640cfe87p+5 0x1.f3a2898d3e063p+10",
    ("jordan_over_n", 0.0):
        "0x1.35e342a1bd4c7p+1 0x1.835c134a2c9f8p+4 0x1.7ecb1b36bab4dp+9",
    ("sigma_minus1", 0.0):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("phi_over_n", 0.0):
        "0x1.8512c6c009aaep+2 0x1.2ff6ab46078d8p+9 0x1.28d6e34263603p+19",
    ("tau_over_n", 0.0):
        "0x1.53c8b602e5854p+2 0x1.fd5441d90720cp+4 0x1.bd886beda7ce0p+6",
    ("sigma_over_n", 0.0):
        "0x1.e9899c3711f25p+3 0x1.9a5ebb6b84da4p+10 0x1.9197f28ba50bep+20",
    ("id_lambda", 0.0):
        "0x1.6cc668bb577d0p+2 0x1.1cfb01d25c59ap+9 0x1.164d1fc76e2f9p+19",
    ("phi_lambda", 0.0):
        "0x1.bb836508e6f5ap+1 0x1.5a7ea6eef46fep+8 0x1.525faf055ab54p+18",
    ("idpow_lambda", 0.0):
        "0x1.30a3622e9deb1p+3 0x1.7ccc3aba4565cp+6 0x1.784f1011b9625p+11",
    ("jordan_lambda", 0.0):
        "0x1.d27437c14e724p+1 0x1.2388a2d8d1076p+5 0x1.2018d96f17cf9p+10",
    ("id_jordan_m1", 0.0):
        "0x1.d3b03474c47f5p+2 0x1.6d61a8fb39837p+9 0x1.64d15f05562a6p+19",
    ("phi_jordan_m1", 0.0):
        "0x1.1c5205474bac2p+2 0x1.bc40283f663cfp+8 0x1.b1d6a74de9d78p+18",
    ("idpow_jordan_m1", 0.0):
        "0x1.9fb5dff0c99f2p+1 0x1.03d1abf67e037p+5 0x1.00c197db4922bp+10",
    ("jordan_jordan_m1", 0.0):
        "0x1.3e432ddca34f4p+0 0x1.8dd3f953cc230p+3 0x1.892369e344bd6p+8",
}


@pytest.mark.parametrize("name, theta", list(_FROZEN_MAINS))
def test_main_term_pinned(name, theta):
    t = SCAN_TARGETS[name] if name in SCAN_TARGETS else STATISTICS[name]
    a = -0.5 if t.needs_a else None
    for x, text in zip((10.0, 1e3, 1e6), _FROZEN_MAINS[name, theta].split()):
        want = float.fromhex(text)
        got = main_term(name, x, a, theta)
        assert abs(got - want) <= 4 * math.ulp(want), (name, x, got.hex())


def test_main_term_pins_cover_every_entry():
    thetas = {name: {theta for n, theta in _FROZEN_MAINS if n == name}
              for name, _ in _FROZEN_MAINS}
    assert thetas == {**{name: {0.0, 1 / 12} for name in SCAN_TARGETS},
                      **{name: {0.0} for name in STATISTICS}}


def test_main_term_theta_linearity():
    c = G.constants()
    for target, a, coeff in [
        ("ramanujan-log-avg", None, lambda x: x / c.zeta3),
        ("id-log-avg", None, lambda x: c.zeta3 * x / c.zeta2),
        ("phi-log-avg", None, lambda x: c.zeta3 * x / c.zeta2 ** 2),
        ("idpow-log-avg", -0.5,
         lambda x: c.zeta(2.5) * x ** 0.5 / (0.5 * c.zeta(1.5))),
        ("jordan-log-avg", -0.5,
         lambda x: c.zeta(2.5) * x ** 0.5 / (0.5 * c.zeta(1.5) ** 2)),
    ]:
        for x in (100.0, 1e4):
            lo = main_term(target, x, a, theta=0.0)
            hi = main_term(target, x, a, theta=1.0 / 12.0)
            assert hi - lo == pytest.approx(coeff(x) / 12.0, rel=1e-9), target
    with pytest.raises(DomainError):
        main_term("idpow-log-avg", 100.0)  # missing a
    with pytest.raises(DomainError):
        main_term("ramanujan-log-avg", 100.0, theta=0.2)


_ENTRIES = {**SCAN_TARGETS, **STATISTICS}


@pytest.mark.parametrize("seed, name", list(enumerate(_ENTRIES)),
                         ids=list(_ENTRIES))
def test_term_lists_match_the_closures(seed, name):
    # 200 seeded points: x log-uniform on [3, 1e12], a on (-0.95, -0.05)
    # where the entry takes one, theta on [0, 1/12]; the terms' fsum is
    # within 4 ulps of the largest term of the closure the list replaced
    t = _ENTRIES[name]
    rng = np.random.default_rng(seed)
    for _ in range(200):
        x = float(np.exp(rng.uniform(math.log(3.0), math.log(1e12))))
        a = float(rng.uniform(-0.95, -0.05)) if t.needs_a else None
        theta = float(rng.uniform(THETA_LO, THETA_HI))
        terms = t.main(a, theta)
        got = _value(terms, x)
        want = CLOSURE_MAINS[name](x, 0.0 if a is None else a, theta)
        largest = max((abs(c * x ** p * math.log(x) ** j)
                       for p, j, c in terms), default=0.0)
        assert abs(got - want) <= 4 * math.ulp(largest), (name, x, a, theta)


def test_term_list_format_and_normalizers():
    # every term is (p, j, c) with p = 0, 1 or 1 + a and j <= 3; only the
    # log averages with a Stirling slot have a coefficient that reads
    # theta, one each; every normalizer is the closure form's, bit for bit
    slotted = set(SCAN_TARGETS) - {"tau-log-avg"}
    for name, t in _ENTRIES.items():
        for a in ((-0.95, -0.5, -0.05) if t.needs_a else (None,)):
            lo, hi = t.main(a, THETA_LO), t.main(a, THETA_HI)
            powers = (0, 1) if a is None else (0, 1, 1 + a)
            assert isinstance(lo, tuple) and isinstance(hi, tuple), name
            for term in lo:
                assert isinstance(term, tuple) and len(term) == 3, name
                p, j, c = term
                assert p in powers and j in (0, 1, 2, 3), (name, term)
                assert isinstance(c, float), (name, term)
            assert [u[:2] for u in lo] == [v[:2] for v in hi], name
            moved = sum(u != v for u, v in zip(lo, hi))
            assert moved == (name in slotted), (name, moved)
            old = CLOSURE_NORMALIZERS[name].at(a)
            norm, label = _norm(t.normalizer, a)
            assert label == old.label(), name
            for x in (1.5, 3.0, 1e3, 1e6 + 0.5, 1e12):
                assert _value(norm, x) == old.value(x), (name, x)


def test_exact_sides_are_well_formed_term_lists():
    # every entry's sums(a) is a tuple of (scale, term list); a term is
    # (sign, w, c) or (sign, w), a weight (name, kind) with a kind of
    # ``_KINDS`` and a name None, a spec or a table; a log average's lists
    # are ``six_terms`` of the (f, g) its first list names, the last of
    # rho(l)/l, and a statistic's are one list
    for name, t in _ENTRIES.items():
        for a in ((-0.9, -0.5, -0.1) if t.needs_a else (None,)):
            sums = t.sums(a)
            assert isinstance(sums, tuple) and sums, name
            for scale, terms in sums:
                assert isinstance(scale, (int, float)) and terms, name
                for sign, *weights in terms:
                    assert sign in (1, -1) and len(weights) in (1, 2), name
                    for w, kind in weights:
                        assert kind in _KINDS, (name, kind)
                        assert w is None or isinstance(
                            w, (FunctionSpec, FunctionTable)), (name, w)
            if name in SCAN_TARGETS:
                (_, ((_, (f, _), (g, _)),)), *_ = sums
                assert sums == six_terms(f, g), name
                assert sums[-1][1][0][2][1] == "v rho/m", name
            else:
                assert len(sums) == 1, name


@pytest.mark.parametrize("spec", [G.PHI, G.MU, G.VON_MANGOLDT,
                                  G.jordan(0.5),
                                  G.convolve(G.PHI, G.MU)], ids=str)
def test_a_spec_its_table_and_its_blocks_give_the_same_sums(spec):
    # the three names of one table's values in ``_hyperbola_sums``
    ns = [1, 1000, 65537, 3 * 65536 + 5]

    def sums(name):
        return list(_hyperbola_sums(ns, [
            [(1, (name, "v log m/m"), (None, "v")),
             (-1, (name, "|v|/m"), (name, "v rho/m"))],
            [(1, (name, "v/m"), (name, "|v|/m^2")), (1, (name, "v"))]]))

    want = sums(spec)
    assert sums(G.sieve(spec, ns[-1])) == want
    assert sums(blocks(spec, ns[-1])) == want


def _spy_kinds(monkeypatch):
    """The kinds that every ``_table_pairs`` and ``_one_pairs`` call is
    asked for, recorded as each is made."""
    asked = []

    def spy(module, fn):
        original = getattr(module, fn)

        def call(*args):
            asked.append(set(args[-1] if fn == "_one_pairs" else args[1]))
            return original(*args)
        monkeypatch.setattr(module, fn, call)

    for module, fn in ((identities, "_table_pairs"),
                       (identities, "_one_pairs"),
                       (asymptotics, "_one_pairs")):
        spy(module, fn)
    return asked


@pytest.mark.parametrize("name, a", [("phi-log-avg", None),
                                     ("jordan-log-avg", -0.5)])
def test_log_average_scans_form_no_bound_weight(monkeypatch, name, a):
    # the remainder bound's |v|/m and |v|/m^2 are not part of a scan
    asked = _spy_kinds(monkeypatch)
    residual_scan(name, standard_grid(1e3, 1e5, 3), a)
    kinds = set().union(*asked)
    assert "v rho/m" in kinds
    assert not kinds & {"|v|/m", "|v|/m^2"}, kinds


@pytest.mark.parametrize("name, a, lists", [("jordan_phi", -0.5, 1),
                                            ("ramanujan-log-avg", None, 0),
                                            ("id-log-avg", None, 0)])
def test_primes_listed_once_where_two_operands_sieve(monkeypatch, name, a,
                                                     lists):
    # jordan_phi's two operands share one list of the primes; the
    # (id, mu) of ramanujan-log-avg, id a power, and id-log-avg's phi
    # alone list none to share
    calls = []
    for module in (identities, asymptotics):
        monkeypatch.setattr(module, "_primes_upto", lambda n, f=(
            module._primes_upto): calls.append(n) or f(n))
    grid = standard_grid(1e3, 1e5, 3)
    _ENTRIES[name].parts(grid, a)
    assert len(calls) == lists
    calls.clear()
    residual_scan(name, grid, a)
    assert len(calls) == lists


# each limit variant's leading term as it was tabled: (target, log power
# p, k) of x log^p x / zeta(2)^k, times zeta(1 - a) where the target
# takes a
_LIMITS = {"id": ("id-log-avg", 2, 1), "phi": ("phi-log-avg", 2, 2),
           "idpow": ("idpow-log-avg", 1, 1),
           "jordan": ("jordan-log-avg", 1, 2)}


@pytest.mark.parametrize("variant", list(_LIMITS))
def test_limit_ratio_divides_by_the_leading_term(variant):
    target, p, k = _LIMITS[variant]
    t = SCAN_TARGETS[target]
    c = G.constants()
    xs = [1e4, 10.0, 2000.5, 317.0]
    for a in ((-0.9, -0.5, -0.1) if t.needs_a else (None,)):
        exact = dict(zip(sorted(xs), t.parts(sorted(xs), a)[0]))
        limit = (c.zeta(1 - a) if t.needs_a else 1.0) / c.zeta2 ** k
        want = [float(exact[x]) / (limit * x * math.log(x) ** p)
                for x in xs]
        assert limit_ratio_grid(variant, xs, a) == want, (variant, a)


def test_residual_scan_single_point_composition():
    # every entry, rebuilt from the public pieces: the log averages carry
    # log(x/e) on their Delta correction and, where the main term has a
    # Stirling slot, the exact remainder; the statistics carry neither
    x = 1000.0
    for name in list(SCAN_TARGETS) + list(STATISTICS):
        log_average = name in SCAN_TARGETS
        t = SCAN_TARGETS[name] if log_average else STATISTICS[name]
        a = -0.5 if t.needs_a else None
        scan = residual_scan(name, [x], a)
        exact = t.parts([x], a)[0][0]
        main = main_term(name, x, a)
        corr = (mu_delta_sum(x, t.weight, a if t.needs_a else None,
                             log_factor=log_average) if t.weight else 0.0)
        rem = 0.0
        if log_average and main_term(name, x, a, theta=1 / 12) != main:
            (_, ((_, (f, _), (g, _)),)), *_ = t.sums(a)  # six_terms'
            f, g = (G.sieve(G.ONE if s is None else s, 1000) for s in (f, g))
            rem = G.apostol_log_average_terms(f, g, x).remainder_term
        assert scan.exact[0] == exact, name
        assert scan.main[0] == main, name
        assert scan.correction[0] == corr + rem, name
        assert scan.residual[0] == exact - main - corr - rem, name
        if not log_average:
            assert scan.residual_lo[0] == scan.residual[0] \
                == scan.residual_hi[0], name
    assert (SCAN_TARGETS["tau-log-avg"].weight is None
            and residual_scan("tau-log-avg", [x]).correction[0] == 0.0)
    assert residual_scan("power_sum", [x], -0.5).normalizer_label == "x^-0.5"


@pytest.mark.parametrize("name, a", [("id-log-avg", None),
                                     ("jordan-log-avg", -0.5),
                                     ("sigma_logne", None)])
def test_residual_scan_reads_the_exact_side_once(monkeypatch, name, a):
    # the exact side is one grid-level call per scan, not one per x
    calls = []
    parts = Target.parts

    def spy(self, xs, a, primes=None):
        calls.append(list(xs))
        return parts(self, xs, a, primes)

    monkeypatch.setattr(Target, "parts", spy)
    grid = standard_grid(1e3, 3e4, 4)
    residual_scan(name, grid, a)
    assert calls == [grid.tolist()]


def test_delta_a_grid_in_any_order_equals_points():
    # Delta_a and Delta alike: divisor_delta_a and divisor_delta are its
    # grids of one
    xs = [5000.0, 1000.5, 70000.0, 1000.0, 5000.0]
    got = divisor_delta_grid(xs, -0.5)
    assert got == [divisor_delta_a(x, -0.5) for x in xs]
    assert divisor_delta_grid(xs) == [divisor_delta(x) for x in xs]
    with pytest.raises(DomainError):
        divisor_delta_grid([1e3, 2e7], -0.5)
    with pytest.raises(DomainError, match="requires the exponent a"):
        divisor_delta_a(1e3, None)


@pytest.mark.parametrize("a", [None, -0.5])
def test_delta_readers_make_one_one_pairs_call_per_grid(monkeypatch, a):
    # one g = 1 table per grid, of the kinds each reader asks: the count,
    # and l^a with a
    from gcdsums import identities
    calls = []

    def counted(real):
        def one_pairs(ns, a, kinds):
            calls.append((list(ns), set(kinds)))
            return real(ns, a, kinds)
        return one_pairs

    for module in (identities, G.asymptotics):
        monkeypatch.setattr(module, "_one_pairs",
                            counted(module._one_pairs))
    kinds = {"v"} if a is None else {"v", "m^a"}
    xs = [5000.0, 1000.5, 7e4, 1000.0]
    mu_delta_grid(xs, "mu", a)
    assert calls == [([1000, 5000, 70000], kinds)]
    calls.clear()
    divisor_delta_grid(xs, a)
    assert calls == [([1000, 5000, 70000], kinds)]
    calls.clear()
    delta_integral_ratio(7e4)
    assert calls == [([70000], {"v"})]


@pytest.mark.parametrize("call", [
    lambda: residual_scan("id-log-avg", []),
    lambda: mu_delta_grid([], "mu"),
    lambda: mu_delta_grid([], "mu_star_mu", -0.5),
    lambda: divisor_delta_grid([]),
    lambda: divisor_delta_grid([], -0.5),
    lambda: limit_ratio_grid("id", []),
    lambda: limit_ratio_grid("jordan", [], -0.5),
], ids=["residual_scan", "mu_delta_grid", "mu_delta_grid_a",
        "divisor_delta_grid", "divisor_delta_grid_a", "limit_ratio_grid",
        "limit_ratio_grid_a"])
def test_empty_grid_is_refused(call):
    with pytest.raises(DomainError, match="grid is empty"):
        call()


@pytest.mark.parametrize("grid", [
    lambda xs: divisor_delta_grid(xs, -0.5),
    lambda xs: mu_delta_grid(xs, "mu", -0.5),
    lambda xs: mu_delta_grid(xs, "mu_star_mu")],
    ids=["delta_a", "mu", "mu_mu"])
def test_delta_grid_of_a_generator_equals_its_list(grid):
    # each reads its xs more than once, so a generator is listed first
    xs = [5000.0, 1000.5, 7e4]
    assert grid(x for x in xs) == grid(xs)


def test_residual_scan_theta_envelope_order():
    scan = residual_scan("id-log-avg", [100.0, 1000.0])
    assert np.all(scan.residual_lo <= scan.residual + 1e-9)
    assert np.all(scan.residual <= scan.residual_hi + 1e-9)


def test_residual_scan_validation():
    with pytest.raises(DomainError):
        residual_scan("tau-log-avg", [100.0, 50.0])
    with pytest.raises(DomainError):
        residual_scan("nope", [100.0])
    with pytest.raises(DomainError):
        residual_scan("idpow-log-avg", [100.0], a=0.5)


@pytest.mark.parametrize("call", [
    lambda: residual_scan("id-log-avg", [100.0], a=-0.5),
    lambda: residual_scan("sigma_logne", [100.0], a=5.0),
    lambda: summatory("id_phi", 100.0, -0.5),
    lambda: limit_ratio_grid("phi", [1e3], -0.5),
    lambda: main_term("tau-log-avg", 100.0, -0.5),
    lambda: residual_scan("ramanujan-log-avg", [100.0], -0.5).exact,
], ids=["scan-target", "scan-statistic", "summatory", "limit_ratio",
        "main_term", "exact_value"])
def test_exponent_refused_where_none_is_taken(monkeypatch, call):
    # an a handed to an entry that takes none is refused before any table
    from gcdsums import tables
    calls = []
    monkeypatch.setattr(tables, "_block_fill", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match="takes no exponent a"):
        call()
    assert calls == []


def test_divisor_sums_of_one_build_no_sieve(monkeypatch):
    # the five divisor statistics, sum m^a, Delta_a and both routes of
    # tau-log-avg are hyperbola sums of the g = 1 pairs: no table is sieved
    from gcdsums import cli, tables

    def refuse(*args):
        raise AssertionError(f"sieved {args}")

    monkeypatch.setattr(tables, "_block_fill", refuse)
    grid = standard_grid(1e3, 1e7, 9)
    for name in ("tau_over_n", "sigma_over_n", "divisor_log", "sigma_minus1",
                 "sigma_logne"):
        residual_scan(name, grid)
    residual_scan("power_sum", grid, -0.5)
    divisor_delta_grid(grid, -0.5)
    tau_gcd_log_avg_routes(1e7)
    for a in ([], ["--a", "-0.5"]):
        assert cli.main(["delta", "--which", "point",
                         "--grid", "geom:1e3,1e7,9", *a]) == 0


def test_thm22_regression_value_at_1e3():
    scan = residual_scan("id-log-avg", [1000.0])
    # frozen first-run value of the normalized residual
    assert scan.normalized[0] == pytest.approx(-0.043937, abs=1e-4)


def test_two_route_exact_side():
    # both routes read the g = 1 pairs; the sieved whole-array sums of
    # SIGMA, DIVISOR_LOG and TAU check route two's statistics apart from
    # them, each within 4 ulps (see test_blocked_stages)
    x_random = float(np.random.default_rng(21).integers(2, 10 ** 6))
    for x in (100.0, 1e3, x_random):
        a, b = tau_gcd_log_avg_routes(x)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))
        n = math.floor(x)
        sums = [whole_array_prefix(sieve_values(spec, n), n, True,
                                   spec == SIGMA)[n] * c
                for spec, c in ((SIGMA, 1.0), (DIVISOR_LOG, 0.5),
                                (TAU, LOG_SQRT_2PI))]
        remainder = G.apostol_log_average_terms(None, None, x).remainder_term
        size = sum(map(abs, sums)) + abs(remainder)
        assert abs(b - math.fsum([*sums, remainder])) <= 8 * 2.0 ** -52 * size


def test_routes_form_no_remainder_bound(monkeypatch):
    # route one sums the six lists alone: no g = 1 pairs of |v|/m^2, the
    # bound's weight, are asked for, and its total and remainder are those
    # of the decomposition
    asked = set()
    real = identities._one_pairs

    def spy(ns, a, kinds):
        asked.update(kinds)
        return real(ns, a, kinds)

    monkeypatch.setattr(identities, "_one_pairs", spy)
    x = 1e5
    a, b = tau_gcd_log_avg_routes(x)
    assert "|v|/m^2" not in asked and asked <= set(_KINDS)
    monkeypatch.setattr(identities, "_one_pairs", real)
    dec = G.apostol_log_average_terms(None, None, x)
    assert a == dec.total
    assert b ==(summatory("sigma_logne", x)[0]
                 + 0.5 * summatory("divisor_log", x)[0]
                 + LOG_SQRT_2PI * summatory("tau_over_n", x)[0]
                 + dec.remainder_term)


@pytest.mark.parametrize("x", [1e3, 301414.0, 1e6, 8084462.0, 1e7])
def test_routes_share_the_one_kernel(x):
    # the six-term sums and the statistics add by the same hyperbola
    # kernel over the same g = 1 pairs, so route one's const and half-log
    # terms are route two's tau/n and divisor-log parts, bit for bit
    dec = G.apostol_log_average_terms(None, None, x)
    assert dec.const_term == LOG_SQRT_2PI * summatory("tau_over_n", x)[0]
    assert dec.half_log_term == 0.5 * summatory("divisor_log", x)[0]


def test_limit_ratio_improves():
    r1, r2 = limit_ratio_grid("id", [1e3, 1e4])
    assert abs(r2 - 1.0) < abs(r1 - 1.0)
    # one pass for the grid, in any order, gives each x's own ratio
    assert limit_ratio_grid("id", [1e4, 1e3]) == [r2, r1]
    assert limit_ratio_grid("id", [1e3]) == [r1]
    assert limit_ratio_grid("id", iter([1e4, 1e3])) == [r2, r1]
    with pytest.raises(DomainError):
        limit_ratio_grid("nope", [1e3])


@pytest.mark.parametrize("xs", [[1.0], [1e3, 1.0], [0.5], [1e3, -2.0]])
def test_limit_ratio_refuses_x_not_above_1_before_its_exact_side(
        monkeypatch, xs):
    # log x = 0 at x = 1 is in the ratio's denominator: refused, as by
    # ``main_term``, before any exact side is built
    def refuse(*args, **kwargs):
        raise AssertionError("exact side built")

    monkeypatch.setitem(SCAN_TARGETS, "id-log-avg", dataclasses.replace(
        SCAN_TARGETS["id-log-avg"], sums=refuse))
    with pytest.raises(DomainError, match="x must be > 1"):
        limit_ratio_grid("id", xs)


def test_sigma_minus1_log_bound():
    from gcdsums.asymptotics import load_calibration
    bound = load_calibration()[("sigma_minus1", "")]
    for x in standard_grid(1e3, 1e6, 4):
        exact, _ = summatory("sigma_minus1", float(x))
        assert exact <= 2.0 * bound * math.log(x)


def test_ramanujan_avg_calibration_regression():
    from gcdsums.asymptotics import load_calibration
    scan = residual_scan("ramanujan-log-avg", standard_grid())
    limit = 2.0 * load_calibration()[("ramanujan-log-avg", "")]
    assert scan.max_normalized() <= limit


def test_standard_grid_integer_ascending():
    grid = standard_grid()
    assert list(grid.astype(int)) == [1000, 3162, 10000, 31623, 100000,
                                      316228, 1000000]
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("lo, hi, points", [
    (1e3, 1e6, 7), (1e3, 1e7, 9), (1.0, 10.0, 50), (2.0, 3.0, 1),
    (1.4, 2.6, 4), (5.0, 5.0, 3), (1e6, 1e3, 7), (1.0, 1e7, 300)])
def test_standard_grid_equals_unique_form(lo, hi, points):
    # repeats dropped by a diff mask, as np.unique would drop them
    want = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(np.int64))
    got = standard_grid(lo, hi, points)
    assert got.dtype == np.float64
    assert got.tobytes() == want.astype(np.float64).tobytes()


def test_calibrate_rows_round_trip_through_a_file(tmp_path):
    frozen = G.asymptotics.default_calibration_path().read_bytes()
    rows = calibrate(grid=[1e3, 4e3])
    keys = [(name, a_text) for name, a_text, _ in rows]
    assert keys == [("tau-log-avg", ""), ("ramanujan-log-avg", ""),
                    ("id-log-avg", ""), ("phi-log-avg", ""),
                    ("idpow-log-avg", "-0.5"), ("jordan-log-avg", "-0.5"),
                    ("delta-integral-ratio", ""), ("sigma_minus1", "")]
    values = [float(value) for *_, value in rows]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    path = tmp_path / "calibration.txt"
    write_calibration(rows, path)
    loaded = load_calibration(path)
    assert list(loaded) == keys
    assert [loaded[key].hex() for key in keys] == [v.hex() for v in values]
    # the frozen file is read, never written
    assert G.asymptotics.default_calibration_path().read_bytes() == frozen
