"""Accumulation helpers.

Every accumulation over more than a handful of terms goes through one of
these, so the numerical contract (pairwise or extended-precision
summation) is kept in a single place:

- ``np.dot`` / ``np.sum`` already use pairwise blocking,
- long running prefix sums are done in ``np.longdouble`` and rounded once;
  the exact sides keep them at the quotients n // i (``quotient_prefixes``),
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


def running_sum(block: np.ndarray, total) -> np.ndarray:
    """block's cumulative sums in longdouble, seeded with ``total`` (the
    sum of everything before it).  Chained over consecutive blocks, with
    each result's last entry as the next total, these make the same
    additions in the same order as one longdouble ``np.cumsum``."""
    sums = block.astype(np.longdouble)
    sums[0] += total
    return np.cumsum(sums, out=sums)


def block_of(values: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    """values[lo:hi], or for values None (the constant 1) a block of ones,
    which makes the same products as a slice of the ONE sieve."""
    return np.ones(hi - lo) if values is None else values[lo:hi]


def prefix_with_zero(values: np.ndarray) -> np.ndarray:
    """Prefix sums P with P[0] = 0 and P[m] = values[1] + ... + values[m],
    in extended precision, holding one block of ``_BLOCK`` at a time.

    ``values`` is indexed from 0; entry 0 is ignored (tables store n = 1..N
    at positions 1..N).
    """
    out = np.empty(len(values), dtype=np.float64)
    out[0] = 0.0
    total = np.longdouble(0.0)
    for lo in range(1, len(values), _BLOCK):
        sums = running_sum(values[lo:lo + _BLOCK], total)
        out[lo:lo + len(sums)] = sums
        total = sums[-1]
    return out


def quotient_prefixes(weights, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``on_quotients`` pairs of several weights, in one blocked pass.

    ``weights(lo, hi)`` gives each weight's values at lo..hi-1, an
    iterable of arrays (a generator forms them one at a time); it is
    called once per block of ``_BLOCK`` covering 1..n, in ascending
    order.  Each weight's running sums are chained with ``running_sum``
    and sampled at the quotients of n as its blocks pass; a block and its
    sums are released before the next one is formed, so the pass holds
    one weight's block, its longdouble sums and 2 (isqrt(n) + 1) floats
    per pair, never an n-length array.  The pairs equal
    ``prefix_with_zero`` sampled at the quotients, bit for bit.
    """
    r = math.isqrt(n)
    # hi's positions n // d for d = r..1 and n itself (d = 0), ascending
    at = (n // np.maximum(np.arange(r + 1), 1))[::-1]
    pairs, totals = [], []
    for start in range(1, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        i, j = np.searchsorted(at, (start, stop))
        for k, block in enumerate(weights(start, stop)):
            if k == len(pairs):
                pairs.append((np.zeros(r + 1), np.empty(r + 1)))
                totals.append(np.longdouble(0.0))
            lo, hi_reversed = pairs[k]
            sums = running_sum(block, totals[k])
            totals[k] = sums[-1]
            if start <= r:
                lo[start:r + 1] = sums[:r + 1 - start]
            hi_reversed[i:j] = sums[at[i:j] - start]
            del block, sums  # before the next block is formed
    return [(lo, hi_reversed[::-1].copy()) for lo, hi_reversed in pairs]


def on_quotients(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``prefix_with_zero`` sums P of ``values`` at the quotients of n only:
    (lo, hi) with lo[i] = P(i) for i <= r = isqrt(n), hi[d] = P(n // d) for
    1 <= d <= r and hi[0] = P(n).  No full-length P is formed."""
    return quotient_prefixes(lambda lo, hi: (values[lo:hi],), n)[0]


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
