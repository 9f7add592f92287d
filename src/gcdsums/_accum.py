"""Accumulation helpers.

Every accumulation over more than a handful of terms goes through one of
these, so the numerical contract (pairwise or extended-precision
summation) is kept in a single place:

- ``np.dot`` / ``np.sum`` already use pairwise blocking,
- every prefix sum follows one rule, ``chained_sums``, and is rounded
  once: each eighth of a block, in a workspace of ``_BLOCK // 8``
  entries, is summed from zero by one longdouble cumsum, and the sum
  before it is carried as a longdouble pair (hi, lo), advanced by the
  eighth's pairwise longdouble sum through TwoSum, so no term is lost
  below an ulp of the total.  Only here: a whole row by ``prefix_rows``,
  which adds hi + lo to every entry, and at the quotients n // i of a
  grid by ``quotient_prefixes``, which adds it to the entries it
  samples and sums each eighth no further than the last of them, one
  pass per run of the grid that asks its weights an eighth at a time,
  each table served by a ``reader``, opened when it starts and dropped
  when it ends, so nothing is cached between passes (the one other
  caller is the Dirichlet series' log l!, summed eighth by eighth),
- a prefix of a smooth weight past a table (a weight of the constant 1,
  ``identities._one_pairs``) is the table's longdouble sum P(t) plus
  a longdouble closed form Phi(v) - Phi(t), rounded once
  (``stirling.one_weight_sums``), t = min(max(isqrt(n), 1024), n) of
  n's own, so n's pairs do not depend on the grid,
- short heterogeneous sums use ``math.fsum``,
- sums over the pairs d*l <= n go through ``hyperbola_sum`` (each product
  added once by ``math.fsum``); at every n // i, ``hyperbola_prefixes``.
"""

import math
from itertools import chain

import numpy as np

_BLOCK = 1 << 16


def dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def chained_sums(block, carry, out: np.ndarray, upto=None):
    """block's running sums from zero, one longdouble cumsum into the head
    of out (a workspace of ``_BLOCK // 8`` entries, the block given a
    slice at a time), and the sum of everything before block, which the
    caller adds to the sums it reads.  That sum is kept in ``carry``, a
    longdouble pair [hi, lo], and returned as hi + lo; this advances it
    by block's pairwise longdouble sum through TwoSum (Knuth, TAOCP
    vol. 2, 4.2.2), so no term is lost below an ulp of the total and no
    rounding of the cumsum is carried on.  As the carry does not read
    the cumsum, it stops at entry ``upto`` where given (the entries past
    it are left as block's values)."""
    sums = out[:len(block)]
    sums[:] = block
    total = np.sum(sums)
    np.cumsum(sums[:upto], out=sums[:upto])
    hi, lo = carry
    carry[0] = hi + total
    t = carry[0] - hi
    carry[1] = lo + ((hi - (carry[0] - t)) + (total - t))
    return sums, hi + lo


_ROW = np.arange(_BLOCK // 8, dtype=np.float64)  # 0, 1, ..., 2^13 - 1


def ramp(out: np.ndarray, lo: int) -> np.ndarray:
    """lo, lo + 1, ... written into out, exactly and with no temporary:
    an eighth of ``_BLOCK`` at a time, one add of its first value to the
    fixed row 0..2^13 - 1."""
    for s in range(0, len(out), len(_ROW)):
        part = out[s:s + len(_ROW)]
        np.add(_ROW[:len(part)], lo + s, out=part)
    return out


def reader(values, top: int):
    """``read(lo, hi)``: values[lo:hi] of ``tables.Blocks``, an array, or
    None, the constant 1 (ones make the products of the ONE sieve), for
    spans of at most an eighth of ``_BLOCK`` asked in ascending order,
    each once, in a buffer the caller may write over: an eighth-size copy
    of the array or of ones, or the block up to top that ``Blocks`` fills
    when a span passes the last one's end.  No cycle holds ``read``, so
    its table is freed with its last reference."""
    whole = not (values is None or isinstance(values, np.ndarray))
    buf = np.empty(min(_BLOCK if whole else _BLOCK // 8, top))
    start = end = 0

    def read(lo, hi):
        nonlocal start, end
        if not whole:
            buf[:hi - lo] = 1.0 if values is None else values[lo:hi]
            return buf[:hi - lo]
        if hi > end:
            start, end = lo, min(lo + len(buf), top + 1)
            values.fill(buf[:end - start], start)
        return buf[lo - start:hi - start]
    return read


def prefix_rows(weights, n: int, rows: np.ndarray) -> list:
    """rows[k, m] = w_k(1) + ... + w_k(m) for m = 1..n, in extended
    precision and rounded once, for the weights w_k that ``weights(lo,
    hi)`` gives at lo..hi-1, an iterable of arrays in the order of rows;
    column 0 is left as it is.  It is asked for an eighth of ``_BLOCK``
    at a time, in ascending order, and each array is summed by
    ``chained_sums`` before the next is asked for, in one longdouble
    workspace of ``_BLOCK // 8`` entries, every entry carried.  Returns
    each weight's longdouble sum up to n."""
    carries = [[np.longdouble(0.0)] * 2 for _ in rows]
    buf = np.empty(min(_BLOCK // 8, n), np.longdouble)
    for lo in range(1, n + 1, _BLOCK // 8):
        hi = min(lo + _BLOCK // 8, n + 1)
        for k, block in enumerate(weights(lo, hi)):
            sums, before = chained_sums(block, carries[k], buf)
            rows[k, lo:hi] = np.add(sums, before, out=sums)
    return [hi + lo for hi, lo in carries]


def prefix_with_zero(values: np.ndarray) -> np.ndarray:
    """Prefix sums P with P[0] = 0 and P[m] = values[1] + ... + values[m],
    by ``prefix_rows``.

    ``values`` is indexed from 0; entry 0 is ignored (tables store n = 1..N
    at positions 1..N).
    """
    out = np.zeros(len(values))
    prefix_rows(lambda lo, hi: (values[lo:hi],), len(values) - 1, out[None])
    return out


def ascending(ns) -> list[int]:
    """ns as ints, checked to be ascending (an n may repeat)."""
    ns = [int(n) for n in ns]
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be ascending")
    return ns


def _runs(ns: list[int]):
    """ns (ascending, distinct) cut into consecutive runs whose quotient
    sets, sum 2 (isqrt(n) + 1) floats, hold at most max(ns) + 1 floats, or
    into a single n: a run's pass holds no more than one whole prefix
    would."""
    budget, run, held = ns[-1] + 1, [], 0
    for n in ns:
        size = 2 * (math.isqrt(n) + 1)
        if run and held + size > budget:
            yield run
            run, held = [], 0
        run.append(n)
        held += size
    yield run


def _one_pass(weights, ns: list[int]) -> list[list]:
    """The pairs of every n of ns (ascending, distinct), from one blocked
    pass up to max(ns): the weights are asked for an eighth of a block at
    a time, each summed by ``chained_sums`` up to the last entry any n
    samples there, and the sums that land in it at every n's quotients
    (lo, hi and hi[0]) are carried and sampled."""
    rs = [math.isqrt(n) for n in ns]
    pairs = [[] for _ in ns]  # per n, per weight: (lo, hi)
    carries, buf = [], np.empty(_BLOCK // 8, np.longdouble)
    for a in range(1, ns[-1] + 1, _BLOCK // 8):
        b = min(a + _BLOCK // 8, ns[-1] + 1)
        live = [(p, n, r) for p, n, r in zip(pairs, ns, rs) if n >= a]
        # the sums the eighth needs: no n samples past its last quotient
        # below b, nor lo past r
        upto = max([0] + [max(min(r, b - 1), n // (n // b + 1)) + 1 - a
                          for _, n, r in live])
        for k, block in enumerate(weights(a, b)):
            if k == len(carries):
                carries.append([np.longdouble(0.0)] * 2)
                for p, r in zip(pairs, rs):
                    p.append((np.zeros(r + 1), np.empty(r + 1)))
            sums, before = chained_sums(block, carries[k], buf, upto)
            for p, n, r in live:
                lo, hi = p[k]
                if a <= r:
                    np.add(sums[:r + 1 - a], before, out=lo[a:min(r + 1, b)])
                # hi[d] = P(n // d) for the d <= r with n // d in [a, b)
                d_lo, d_hi = n // b + 1, min(n // a, r)
                if d_lo <= d_hi:
                    at = n // np.arange(d_lo, d_hi + 1) - a
                    np.add(sums[at], before, out=hi[d_lo:d_hi + 1])
                if a <= n < b:
                    hi[0] = sums[n - a] + before
    return pairs


def quotient_prefixes(open_pass, ns):
    """The quotient pairs of several weights at every n of a grid, in one
    blocked pass per run of ``_runs``: for the prefix sums P of a weight
    (P(0) = 0) and r = isqrt(n), the pair (lo, hi) with lo[i] = P(i) for
    i <= r, hi[d] = P(n // d) for 1 <= d <= r and hi[0] = P(n).

    ``open_pass()`` is called once per run, when its pass starts, and
    gives the pass's ``weights(lo, hi)``: each weight's values at
    lo..hi-1, an iterable of arrays (a generator forms them one at a
    time), asked for once per eighth of ``_BLOCK`` covering 1..max(n) of
    the run, in ascending order, as a ``reader`` serves a table; a value
    must not depend on where its span starts or stops.  What it returns,
    and so every table and buffer the opener made, is dropped when the
    pass ends, before the run's pairs are yielded: the tables of two
    passes never live at once.
    ``ns`` is ascending and may repeat an n.  This yields, for each n of
    ns in turn, the list of its pairs, one per weight; a repeated n yields
    the same list again.  Each weight's prefix sums are formed by
    ``chained_sums`` and sampled at the quotients of every n as its
    eighths pass.  Each array is read before the next is asked for, so
    ``weights`` may write them all into buffers of its own, and the sums
    go into one longdouble eighth of the pass's (128 KB).  So a pass
    holds these and sum 2 (isqrt(n) + 1) floats per weight over its run,
    at most max(ns) + 1, never a whole prefix.  The sums do not depend on
    n, so each pair equals ``prefix_with_zero`` sampled at the
    quotients of its n, bit for bit, and the pass over a grid gives the
    bytes of the passes over its points one at a time.
    """
    ns = ascending(ns)
    i = 0
    for run in _runs(sorted(set(ns))):
        done = dict(zip(run, _one_pass(open_pass(), run)))
        while i < len(ns) and ns[i] in done:
            yield done[ns[i]]
            i += 1
        del done  # before the next run's pass


def hyperbola_sum(terms) -> float:
    """The sum over the terms (sign, w_pair, c_pair) of
    sign * sum_{d*l <= n} w(d) c(l), and over the terms (sign, w_pair) of
    sign * W(n), from the ``quotient_prefixes`` pairs W, C of each term,
    all taken at the same n:

        sum_{d<=r} w(d) C(n//d) + sum_{l<=r} c(l) W(n//l) - W(r) C(r),

    r = isqrt(n).  w and c on 1..r are differences of lo, whose roundings
    telescope against the steps of the other prefix.  Every product is
    added once by ``math.fsum``: the correctly rounded sum of the rounded
    products, whatever their order, so a term's bytes do not depend on
    the side its pairs are given on.  Against exact sums from mpmath at
    n <= 1e7, H(l^-2, 1/l) erred at most 0.52 * 2^-52 relative, and up
    to 6.5 * 2^-52 by two float64 dots; the pairs are within an ulp.
    """
    products, corners = [], []
    for sign, (w_lo, w_hi), *c in terms:
        if not c:  # W(n) alone
            corners.append(sign * float(w_hi[0]))
            continue
        (c_lo, c_hi), = c
        products += [sign * np.diff(w_lo) * c_hi[1:],
                     sign * np.diff(c_lo) * w_hi[1:]]
        corners.append(-sign * float(w_lo[-1] * c_lo[-1]))
    # a memoryview yields Python floats one at a time, with no list of them
    return math.fsum(chain(corners, *map(memoryview, products)))


def hyperbola_prefixes(n: int, w_pair, c_pair):
    """The ``quotient_prefixes`` pair at n of the Dirichlet product of two
    weights, from their pairs W, C at n: at each quotient v, s = isqrt(v),

        H(v) = sum_{d<=s} w(d) C(v//d) + sum_{l<=s} c(l) W(v//l) - W(s) C(s).

    A quotient of a quotient of n is one of n, so the pairs hold every
    prefix read; w and c are differences of lo, as in ``hyperbola_sum``.
    The O(n^(3/4)) terms are formed about ``_BLOCK`` // 8 at a time, and
    each v's summed in longdouble and rounded once: exact on integers.
    """
    r = len(w_pair[0]) - 1
    # a quotient u at u up to r, and n // k at 2r + 1 - k past it
    W, C = (np.concatenate((lo, hi[r:0:-1])).astype(np.longdouble)
            for lo, hi in (w_pair, c_pair))
    w, c = (np.diff(lo).astype(np.longdouble) for lo, _ in (w_pair, c_pair))
    v = np.concatenate((np.arange(1, r + 1), n // np.arange(r, 0, -1)))
    s = np.searchsorted(np.arange(1, r + 1) ** 2, v, side="right")
    out = np.append(0.0, -W[s] * C[s])  # H(0), and H's corners
    ends = np.cumsum(s)
    cuts = np.searchsorted(ends, np.arange(_BLOCK // 8, ends[-1], _BLOCK // 8))
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(v)]):
        heads = ends[a:b] - ends[a] + s[a] - s[a:b]
        i = np.arange(heads[-1] + s[b - 1]) - np.repeat(heads, s[a:b])
        q = np.repeat(v[a:b], s[a:b]) // (i + 1)
        q = np.where(q <= r, q, 2 * r + 1 - n // q)  # where v // d is
        terms = w[i] * C[q]
        terms += c[i] * W[q]
        out[a + 1:b + 1] += np.add.reduceat(terms, heads)
    out = out.astype(np.float64)
    return out[:r + 1], out[np.r_[2 * r, 2 * r:r:-1]]  # hi[0] = hi[1]
