"""Accumulation helpers.

Every accumulation over more than a handful of terms goes through one of
these, so the numerical contract (pairwise or extended-precision
summation) is kept in a single place:

- ``np.dot`` / ``np.sum`` already use pairwise blocking,
- long running prefix sums are done in ``np.longdouble`` and rounded once,
- short heterogeneous sums use ``math.fsum``,
- sums over the pairs d*l <= n go through ``hyperbola_sum``.
"""

import math

import numpy as np

_BLOCK = 1 << 16


def fsum(values) -> float:
    return math.fsum(values)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def cumsum_extended(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cumulative sum in extended precision, written to float64 ``out``.
    Blocks seeded with the running longdouble total make the same
    additions as one longdouble ``np.cumsum``, holding one block."""
    total = np.longdouble(0.0)
    for lo in range(0, len(values), _BLOCK):
        block = values[lo:lo + _BLOCK].astype(np.longdouble)
        block[0] += total
        total = np.cumsum(block, out=block)[-1]
        out[lo:lo + len(block)] = block
    return out


def prefix_with_zero(values: np.ndarray) -> np.ndarray:
    """Prefix sums P with P[0] = 0 and P[m] = values[1] + ... + values[m].

    ``values`` is indexed from 0; entry 0 is ignored (tables store n = 1..N
    at positions 1..N).
    """
    out = np.empty(len(values), dtype=np.float64)
    out[0] = 0.0
    cumsum_extended(values[1:], out=out[1:])
    return out


def on_quotients(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``prefix_with_zero`` sums P of ``values`` at the quotients of n only:
    (lo, hi) with lo[i] = P(i) for i <= r = isqrt(n), hi[d] = P(n // d) for
    1 <= d <= r and hi[0] = P(n).  The full-length P is dropped."""
    r = math.isqrt(n)
    full = prefix_with_zero(values[:n + 1])
    return full[:r + 1].copy(), full[n // np.maximum(np.arange(r + 1), 1)]


def hyperbola_sum(w_pair, c_pair) -> float:
    """sum_{d*l <= n} w(d) c(l) from the ``on_quotients`` pairs W, C, both
    taken at the same n:

        sum_{d<=r} w(d) C(n//d) + sum_{l<=r} c(l) W(n//l) - W(r) C(r),

    two dots of length r = isqrt(n).  w and c on 1..r are differences of
    lo, whose roundings telescope against the steps of the other prefix.
    """
    (w_lo, w_hi), (c_lo, c_hi) = w_pair, c_pair
    return (dot(np.diff(w_lo), c_hi[1:]) + dot(np.diff(c_lo), w_hi[1:])
            - w_lo[-1] * c_lo[-1])
