"""The blocked O(x) stages of a scan against their whole-array forms.

``mu_delta_sum``, the log-average prefixes (``on_quotients`` and the six-term
weights of ``apostol_log_average_terms``) and the Stirling build work a block
of ``_accum._BLOCK`` at a time.  Each must give the bytes of the whole-array
form in ``oracles`` at sizes around the block edge, and peak at the cached
tables it reads plus its declared count of n-length arrays and a few blocks.
"""

import math
import tracemalloc

import numpy as np
import pytest

import gcdsums as G
from gcdsums import _accum, asymptotics, identities, stirling
from gcdsums.tables import LOG, MU, TAU, convolve, sieve_values, sigma_pow
from gcdsums.zeta import constants

from oracles import (whole_array_average_pairs, whole_array_mu_delta,
                     whole_array_on_quotients, whole_array_stirling)

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
        prefix = asymptotics._prefix(TAU, n)

        def smooth(y):
            return y * np.log(y) + slope * y
    else:
        prefix = asymptotics._prefix(sigma_pow(a), n)

        def smooth(y):
            return asymptotics._sigma_a_smooth(y, a)
    want = whole_array_mu_delta(x, sieve_values(weight, n), prefix, smooth)
    assert asymptotics.mu_delta_sum(x, kind, a, log_factor=False) == want
    assert (asymptotics.mu_delta_sum(x, kind, a)
            == want * (math.log(x) - 1.0))


@pytest.mark.parametrize("x", SIZES)
def test_on_quotients_equals_whole_array_form(x):
    n = math.floor(x)
    v = np.random.default_rng(n).standard_normal(n + 1) * 1e3
    assert _same_pairs([_accum.on_quotients(v, n)],
                       [whole_array_on_quotients(v, n)])


@pytest.mark.parametrize("x", SIZES)
@pytest.mark.parametrize("f, g", [(G.ID, G.MU), (G.PHI, G.ONE)])
def test_average_weights_equal_whole_array_form(x, f, g):
    n = math.floor(x)
    args = (sieve_values(f, n), sieve_values(g, n),
            G.log_factorial_table(n).rho, sieve_values(LOG, n), n)
    assert _same_pairs(identities._average_pairs(*args),
                       whole_array_average_pairs(*args))


@pytest.mark.parametrize("x", SIZES)
def test_stirling_build_equals_whole_array_form(x):
    n = math.floor(x)
    assert _same_bytes(stirling._build_arrays(n), whole_array_stirling(n))


# peaks at n = 2^18, where one block is a quarter of an n-length array:
# stage -> (call, its declared n-length float64 arrays, float64 blocks
# allowed besides); a first call fills the caches the stage reads
_N = 1 << 18
_VALUES = np.ones(_N + 1)


def _terms():
    f, g = G.sieve(G.ID, _N), G.sieve(G.MU, _N)
    return identities.apostol_log_average_terms(f, g, float(_N))


_STAGES = {
    "mu_delta_sum": (lambda: asymptotics.mu_delta_sum(_N, "mu"), 2, 6),
    "mu_delta_sum_a": (lambda: asymptotics.mu_delta_sum(_N, "mu", -0.5), 2, 6),
    "on_quotients": (lambda: _accum.on_quotients(_VALUES, _N), 0, 5),
    "apostol_log_average_terms": (_terms, 0, 10),
    # the result, two rows of n + 1 entries
    "stirling_build": (lambda: stirling._build_arrays(_N), 2, 8),
}


@pytest.mark.parametrize("stage", sorted(_STAGES))
def test_stage_peak_is_its_declared_arrays(stage):
    run, arrays, blocks = _STAGES[stage]
    run()  # the cached tables it reads are built outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (arrays * (_N + 1) + blocks * _B)
