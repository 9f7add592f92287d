"""Sieved value tables of classical arithmetical functions.

A :class:`FunctionSpec` is a small symbolic description of an arithmetical
function (mu, phi, Lambda, n^a, sigma_a, divisor logs, Dirichlet
convolutions and pointwise log/power weightings of those).  ``sieve``
turns a spec into a :class:`FunctionTable`: an immutable float64 array of
exact values on 1..n_max.  The named functions are members of these
families: 1 and n are id_0 and id_1, tau and sigma are sigma_0 and
sigma_1, log n is 1 weighted by log, and phi_a is mu * id_a.

phi, sigma_a and every conv tree of mu, phi, id_a and sigma_a are
products of their values at prime powers, and mu the sign of an integer
product of primes; n, tau, sigma and phi are integers below 2^53, so all
are exact.  These,
n^a and Lambda are built a block at a time by ``blocks``, which a scan
reads in place of a whole table; a whole table is its blocks written
into one array.

Other convolutions do O(n_max log n_max) work in about 2 sqrt(n_max) strided
updates: every pair d*l <= n_max has d <= r = isqrt(n_max) or
l <= n_max // (r+1), so one update per small d (a row) and one per small
l (a column) cover all pairs, each taken a block at a time so that no
temporary is n_max long.  The columns run in descending l,
so each entry still adds its terms in ascending d, the order of the plain
divisor loop, and the float results are bit-identical to it.  The
product builder splits its primes at r the same way.

No table is cached: each is built for the call that reads it and freed
with its last reference, so a caller that reads one table at several
sizes builds it once, at the largest.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._accum import _BLOCK
from .errors import DomainError, require

MAX_NESTING = 4

# exponents |a|*log(n_max) beyond this overflow float64
_MAX_EXP_PRODUCT = 700.0

# a block strikes the multiples of a prime below this a slice at a time,
# the rest together (``_multiples``)
_TINY = 256

# smallest size a table is built at (see ``sieve_values``)
_MIN_CAPACITY = 1024

# O(x) memory is accepted up to here: every x, k, K and sieve size past it
# is rejected before any allocation
MAX_SIEVE = 10_000_000


class Kind(Enum):
    ID_POW = "idpow"
    MOEBIUS = "mu"
    TOTIENT = "phi"
    VON_MANGOLDT = "lambda"
    SIGMA_POW = "sigmapow"
    DIVISOR_LOG = "divlog"
    CONVOLVE = "conv"
    POINTWISE_LOG = "ptlog"
    POINTWISE_POW = "ptpow"


_NEEDS_EXPONENT = {Kind.ID_POW, Kind.SIGMA_POW, Kind.POINTWISE_POW}
_UNARY = {Kind.POINTWISE_LOG, Kind.POINTWISE_POW}
# the kinds of the trees that ``_product_fill`` builds
_MULTIPLICATIVE = {Kind.ID_POW, Kind.MOEBIUS, Kind.TOTIENT, Kind.SIGMA_POW,
                   Kind.CONVOLVE}


@dataclass(frozen=True)
class FunctionSpec:
    """Symbolic descriptor of an arithmetical function."""

    kind: Kind
    exponent: float | None = None
    operands: tuple["FunctionSpec", ...] = field(default=())

    def __post_init__(self):
        if self.kind in _NEEDS_EXPONENT:
            if self.exponent is None or not math.isfinite(self.exponent):
                raise DomainError(f"{self.kind.value} requires a finite exponent")
        elif self.exponent is not None:
            raise DomainError(f"{self.kind.value} takes no exponent")
        n_ops = len(self.operands)
        if self.kind is Kind.CONVOLVE:
            require(n_ops == 2, "convolution takes two operands")
        elif self.kind in _UNARY:
            require(n_ops == 1, f"{self.kind.value} takes one operand")
        else:
            require(n_ops == 0, f"{self.kind.value} takes no operands")
        require(self.depth() <= MAX_NESTING, f"nesting deeper than {MAX_NESTING}")

    def depth(self) -> int:
        if not self.operands:
            return 1
        return 1 + max(op.depth() for op in self.operands)

    def label(self) -> str:
        """Grammar string that :func:`parse_spec` reads back to this spec.
        An exponent is written as ``:g`` writes it unless that drops digits."""
        params = [op.label() for op in self.operands]
        if self.exponent is not None:
            a = f"{self.exponent:g}"
            if float(a) != self.exponent:
                a = repr(float(self.exponent))
            params.insert(0, a)
        if not params:
            return self.kind.value
        return f"{self.kind.value}:{','.join(params)}"

    def __str__(self) -> str:
        return self.label()


# primitive specs
MU = FunctionSpec(Kind.MOEBIUS)
PHI = FunctionSpec(Kind.TOTIENT)
VON_MANGOLDT = FunctionSpec(Kind.VON_MANGOLDT)
DIVISOR_LOG = FunctionSpec(Kind.DIVISOR_LOG)


def id_pow(a: float) -> FunctionSpec:
    """n ↦ n^a."""
    return FunctionSpec(Kind.ID_POW, exponent=float(a))


def sigma_pow(a: float) -> FunctionSpec:
    """sigma_a = 1 * id_a."""
    return FunctionSpec(Kind.SIGMA_POW, exponent=float(a))


def convolve(f: FunctionSpec, g: FunctionSpec) -> FunctionSpec:
    return FunctionSpec(Kind.CONVOLVE, operands=(f, g))


def pointwise_log_spec(f: FunctionSpec) -> FunctionSpec:
    return FunctionSpec(Kind.POINTWISE_LOG, operands=(f,))


def pointwise_pow_spec(f: FunctionSpec, a: float) -> FunctionSpec:
    return FunctionSpec(Kind.POINTWISE_POW, exponent=float(a), operands=(f,))


def jordan(a: float) -> FunctionSpec:
    """phi_a = mu * id_a (phi_1 is Euler's totient, sieved as ``PHI``)."""
    return convolve(MU, id_pow(a))


# the named members of the families above, by their builds
ONE = id_pow(0.0)
ID = id_pow(1.0)
TAU = sigma_pow(0.0)
SIGMA = sigma_pow(1.0)
LOG = pointwise_log_spec(ONE)


_SIMPLE_NAMES = {
    "one": ONE,
    "1": ONE,
    "id": ID,
    "mu": MU,
    "phi": PHI,
    "lambda": VON_MANGOLDT,
    "log": LOG,
    "tau": TAU,
    "sigma": SIGMA,
    "divlog": DIVISOR_LOG,
}
_EXPONENT_FAMILIES = {"idpow": id_pow, "sigmapow": sigma_pow, "jordan": jordan}


def parse_spec(text: str) -> FunctionSpec:
    """Parse the prefix grammar that :meth:`FunctionSpec.label` writes.

    A spec is a name from ``_SIMPLE_NAMES``; ``idpow:a``, ``sigmapow:a``
    or ``jordan:a``; or an operator with a fixed number of parameters,
    ``conv:f,g``, ``ptlog:f`` or ``ptpow:a,f``, whose operands are specs
    in turn, to any depth up to ``MAX_NESTING``.  So
    ``conv:conv:mu,mu,idpow:0`` is (mu * mu) * 1, and
    ``parse_spec(spec.label()) == spec`` for every spec.
    """
    # words (names and exponents) at even indices, ':' and ',' between them
    tokens = [t.strip() for t in re.split(r"([:,])", text)]
    pos = 0

    def fail(why):
        raise DomainError(f"bad function spec {text!r}: {why}")

    def word(sep):
        """The next word, which must follow sep (nothing for the first)."""
        nonlocal pos
        if sep is not None:
            if tokens[pos:pos + 1] != [sep]:
                fail(f"expected {sep!r} after {''.join(tokens[:pos])!r}")
            pos += 1
        pos += 1
        return tokens[pos - 1]

    def exponent(sep):
        a = word(sep)
        try:
            return float(a)
        except ValueError:
            pass
        fail(f"bad exponent {a!r}")

    def spec(sep, depth):
        if depth > MAX_NESTING:
            fail(f"nesting deeper than {MAX_NESTING}")
        name = word(sep)
        if name in _SIMPLE_NAMES:
            return _SIMPLE_NAMES[name]
        if name in _EXPONENT_FAMILIES:
            return _EXPONENT_FAMILIES[name](exponent(":"))
        if name == "conv":
            return convolve(spec(":", depth + 1), spec(",", depth + 1))
        if name == "ptlog":
            return pointwise_log_spec(spec(":", depth + 1))
        if name == "ptpow":
            a = exponent(":")
            return pointwise_pow_spec(spec(",", depth + 1), a)
        fail(f"unknown name {name!r}")

    result = spec(None, 1)
    if pos < len(tokens):
        fail(f"unexpected {''.join(tokens[pos:])!r} after a whole spec")
    return result


def abscissa(spec: FunctionSpec) -> float:
    """Abscissa of absolute convergence of sum |f(k)| / k^s (conservative)."""
    k = spec.kind
    if k in (Kind.MOEBIUS, Kind.VON_MANGOLDT, Kind.DIVISOR_LOG):
        return 1.0
    if k is Kind.TOTIENT:
        return 2.0
    if k is Kind.ID_POW:
        return 1.0 + spec.exponent
    if k is Kind.SIGMA_POW:
        return max(1.0, 1.0 + spec.exponent)
    if k is Kind.CONVOLVE:
        return max(abscissa(spec.operands[0]), abscissa(spec.operands[1]))
    if k is Kind.POINTWISE_LOG:
        return abscissa(spec.operands[0])
    if k is Kind.POINTWISE_POW:
        return abscissa(spec.operands[0]) + spec.exponent
    raise DomainError(f"no abscissa rule for {spec}")


@dataclass(frozen=True)
class FunctionTable:
    """Exact values of an arithmetical function on 1..n_max.

    ``values`` has length n_max + 1; slot 0 is unused and holds 0 so that
    ``values[n]`` is the value at n.  The array is read-only: tables are
    immutable after construction and safe to share across threads.  A
    table from ``blocks`` has ``Blocks`` instead, read by slices only.
    """

    spec: FunctionSpec
    n_max: int
    values: np.ndarray

    def __len__(self) -> int:
        return self.n_max

    def __getitem__(self, n: int) -> float:
        require(1 <= n <= self.n_max, f"index {n} outside 1..{self.n_max}")
        return float(self.values[n])


def cut(x: float, *tables: FunctionTable | None) -> int:
    """floor(x), for x in 1..n_max: n_max is the smallest range of the
    given tables (None, the constant 1, has none), ``MAX_SIEVE`` if none
    has one.  x is checked before it is floored, so inf and nan are
    rejected as out of range."""
    n_max = min((t.n_max for t in tables if t is not None), default=MAX_SIEVE)
    require(1 <= x < n_max + 1, f"{x} outside 1..{n_max}")
    return int(math.floor(x))


def _primes_upto(n: int) -> np.ndarray:
    """The primes up to n, above r = isqrt(n) by segments of 8 ``_BLOCK``
    of the sieve of Eratosthenes (Bays and Hudson, BIT 17 (1977) 121-127)."""
    r, step = math.isqrt(n), 8 * _BLOCK
    small = _primes_upto(r) if r > 1 else np.empty(0, dtype=np.int64)
    segments = [small]
    for lo in range(r + 1, n + 1, step):
        prime = np.ones(min(step, n + 1 - lo), dtype=bool)
        for p in small.tolist():
            prime[max(p * p, -(-lo // p) * p) - lo::p] = False
        segments.append(np.flatnonzero(prime) + lo)
    return np.concatenate(segments)


def _prime_power_values(spec: FunctionSpec, q: np.ndarray) -> np.ndarray:
    """f(p^e) for a multiplicative spec, where row e of q holds p^e at the
    primes p = q[1] (min(p^e, n): rows past n are not read), in longdouble,
    so that a factor whose terms cancel (p^(1/2) - 2) keeps its digits when
    it is rounded to float64; p^a is exp(a log p), 4x quicker than powl."""
    kind = spec.kind
    if kind is Kind.ID_POW:
        return np.exp(spec.exponent * np.log(q))
    if kind is Kind.SIGMA_POW:
        return np.cumsum(np.exp(spec.exponent * np.log(q)), axis=0)
    if kind is Kind.CONVOLVE:
        f, g = (_prime_power_values(op, q) for op in spec.operands)
        return np.array([sum(f[i] * g[e - i] for i in range(e + 1))
                         for e in range(len(q))])
    out = q - q / q[1] if kind is Kind.TOTIENT else np.zeros_like(q)
    out[0] = 1.0
    if kind is Kind.MOEBIUS:
        out[1] = -1.0
    return out


def _multiples(ps: np.ndarray, first: np.ndarray, lo: int, hi: int):
    """The multiples first[i] + k ps[i] (first >= lo) below hi of each ps[i]
    in turn, as offsets from lo, and how many each has, by one cumsum."""
    counts = np.maximum((hi - 1 - first) // ps + 1, 0)
    steps, ran = np.repeat(ps, counts), counts > 0
    heads = first[ran] - lo
    tails = heads + ps[ran] * (counts[ran] - 1)
    steps[(np.cumsum(counts) - counts)[ran]] = heads - np.append(0, tails[:-1])
    return np.cumsum(steps, out=steps), counts


def _large_hits(large: np.ndarray, r: int, lo: int, hi: int):
    """Each m = k P in lo..hi-1 with P in ``large``, the primes above r =
    isqrt(n), as (m - lo, index of P), ``_BLOCK`` // 8 or so at a time: the
    P in [lo/k, (hi-1)/k] for all k at once, expanded by repeat, cumsum."""
    ks = np.arange(1, (hi - 1) // (r + 1) + 1)
    begin = np.searchsorted(large, -(-lo // ks))
    counts = np.maximum(
        np.searchsorted(large, (hi - 1) // ks, side="right") - begin, 0)
    cuts = np.searchsorted(np.cumsum(counts), np.arange(
        _BLOCK // 8, counts.sum(), _BLOCK // 8)).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(ks)]):
        c = counts[a:b]
        index = np.repeat(begin[a:b] - np.cumsum(c) + c, c)
        index += np.arange(len(index))
        yield np.repeat(ks[a:b], c) * large[index] - lo, index


def _product_fill(spec: FunctionSpec, n: int):
    """A multiplicative spec on blocks of 0..n: m is the product of f(p^e)
    over the p^e || m in ascending p, each f(p) one longdouble expression,
    so no byte depends on n or the block.  A p < ``_TINY`` scales strided
    slices, the other p <= r = isqrt(n) (p^3 > n) scale by one
    ``np.multiply.at``, and P > r, the largest prime factor, last."""
    r, primes = math.isqrt(n), _primes_upto(n)
    small, large = np.split(primes, [np.searchsorted(primes, r, side="right")])
    q = np.full((max(n.bit_length(), 3), len(small)), small, np.longdouble)
    q[0] = 1.0
    rows = _prime_power_values(
        spec, np.minimum(np.cumprod(q, axis=0), n)).astype(np.float64)
    # 4096 primes at a time, so the longdouble temporaries stay small
    at_big = np.concatenate([_prime_power_values(spec, np.stack(
        [np.ones(len(P), np.longdouble), P]))[1].astype(np.float64)
        for P in np.array_split(large, len(large) // 4096 + 1)])
    t = int(np.searchsorted(small, max(_TINY, round(n ** (1 / 3)) + 1)))
    tiny, mid = list(zip(small[:t].tolist(), rows[:, :t].T.tolist())), small[t:]
    sq = mid * mid  # p^3 > n: f(p^2) stands for f(p) where p^2 | m

    def fill(out: np.ndarray, lo: int) -> None:
        hi = lo + len(out)
        out.fill(1.0)
        out[:1 - min(lo, 1)] = 0.0  # slot 0
        for p, f in tiny:
            b, e = max(-(-lo // p), 1), (hi - 1) // p + 1
            factors, step, k = np.full(max(e - b, 0), f[1]), p, 2
            while step < e:  # p^k divides p*i where p^(k-1) divides i
                factors[-b % step::step] = f[k]
                step, k = step * p, k + 1
            out[p * b - lo:p * e - lo:p] *= factors
        first = -(-max(lo, 1) // mid) * mid
        at, counts = _multiples(mid, first, lo, hi)
        factors = np.repeat(rows[1, t:], counts)
        hit, c = _multiples(sq, -(-max(lo, 1) // sq) * sq, lo, hi)
        i = np.repeat(np.arange(len(sq)), c)
        factors[(np.cumsum(counts) - counts)[i] + (hit + lo - first[i])
                // mid[i]] = rows[2, t:][i]
        np.multiply.at(out, at, factors)
        for at, index in _large_hits(large, r, lo, hi):
            out[at] *= at_big[index]
        out += 0.0  # -0.0, a zero factor times a negative one, to 0.0
    return fill


def _mobius_fill(n: int):
    """mu on blocks: each p <= r = isqrt(n) multiplies its multiples by -p
    and zeroes those of p^2, so a product short of a squarefree m marks
    its one prime above r, one more change of sign."""
    small = _primes_upto(math.isqrt(n))
    t = int(np.searchsorted(small, _TINY))

    def fill(out: np.ndarray, lo: int) -> None:
        hi = lo + len(out)
        v = np.ones(hi - lo, np.int32 if hi <= 2 ** 31 else np.int64)
        for p in small[:t].tolist():
            v[max(-(-lo // p), 1) * p - lo::p] *= -p
            v[-lo % (p * p)::p * p] = 0
        mid, sq = small[t:], small[t:] ** 2
        at, counts = _multiples(mid, -(-max(lo, 1) // mid) * mid, lo, hi)
        np.multiply.at(v, at, np.repeat(-mid.astype(v.dtype), counts))
        v[_multiples(sq, -(-lo // sq) * sq, lo, hi)[0]] = 0
        v[:1 - min(lo, 1)] = 0  # slot 0
        flip = v < 0
        np.abs(v, out=v)
        flip ^= v < np.arange(lo, hi, dtype=v.dtype)
        np.multiply(v != 0, 1 - 2 * flip.view(np.int8), out=out)
    return fill


def _von_mangoldt_fill(n: int):
    """Lambda on blocks: ``math.log`` of p at the listed p^k <= n."""
    primes = _primes_upto(n)  # logged 4096 at a time, each listed int 36 B
    logs = np.concatenate([np.fromiter(map(math.log, P.tolist()), np.float64)
                           for P in np.array_split(primes, len(primes) // 4096 + 1)])
    r = np.searchsorted(primes, math.isqrt(n), side="right")
    pk = sorted((p ** k, log_p) for p, log_p in zip(primes[:r].tolist(),
                logs[:r].tolist()) for k in range(2, n.bit_length()) if p ** k <= n)
    runs = [(primes, logs), (np.array([q for q, _ in pk], dtype=np.int64),
                             np.array([log_p for _, log_p in pk]))]

    def fill(out: np.ndarray, lo: int) -> None:
        out.fill(0.0)
        for at, log_p in runs:
            a, b = np.searchsorted(at, [lo, lo + len(out)])
            out[at[a:b] - lo] = log_p[a:b]
    return fill


def _power_fill(a: float):
    """n^a on blocks, powered in place (slot 0 stays 0: 0 ** a warns)."""
    def fill(out: np.ndarray, lo: int) -> None:
        out.fill(1.0)
        out[0] = lo
        np.cumsum(out, out=out)  # lo, lo + 1, ... exactly, with no temporary
        np.power(out[1 - min(lo, 1):], a, out=out[1 - min(lo, 1):])
    return fill


@dataclass(frozen=True)
class Blocks:
    """A table's values from ``blocks``: ``values[lo:hi]``, for any 0 <= lo
    < hi <= n_max + 1, as often and in any order, has the bytes of those of
    ``sieve_values``; ``fill(out, lo)`` writes them into out."""

    fill: object

    def __getitem__(self, s: slice) -> np.ndarray:
        out = np.empty(s.stop - s.start)
        self.fill(out, s.start)
        return out


def _streams(spec: FunctionSpec) -> bool:
    """n^a, Lambda and the multiplicative trees are built a block at a time."""
    return (spec.kind is Kind.VON_MANGOLDT
            or {s.kind for s in (spec, *_all_parts(spec))} <= _MULTIPLICATIVE)


def _block_fill(spec: FunctionSpec, n: int):
    """spec's fill on 0..n, prepared; read from its table if not streamed."""
    if spec.kind is Kind.ID_POW:
        return _power_fill(spec.exponent)
    if spec.kind is Kind.MOEBIUS:
        return _mobius_fill(n)
    if spec.kind is Kind.VON_MANGOLDT:
        return _von_mangoldt_fill(n)
    if _streams(spec):
        return _product_fill(spec, n)
    values = sieve_values(spec, n)
    return lambda out, lo: np.copyto(out, values[lo:lo + len(out)])


def blocks(spec: FunctionSpec, n: int) -> FunctionTable:
    """The table of spec on 1..n with ``Blocks`` as values, n and exponents
    checked first: its reader holds a few blocks and what they share,
    O(pi(n)) floats (O(sqrt(n)) for mu, none for n^a), not n + 1."""
    n = cut(n)
    for a in _exponents(spec):
        _check_exponent(a, n)
    return FunctionTable(spec, n, Blocks(_block_fill(spec, n)))


def _divisor_weight_sieve(n: int, weight) -> np.ndarray:
    """out[m] = sum_{d|m} weight(d), accumulated over pairs d <= m/d.

    ``weight`` maps a divisor (scalar or int64 array) to its contribution;
    the loop runs d up to sqrt(n) and credits both members of each divisor
    pair, counting the square root of a perfect square once.  Each row of
    cofactors l is taken in blocks of ``_BLOCK``, so the temporaries stay
    small next to ``out`` (the d = 1 row whole would take three more
    n-long arrays); every entry still gets the same one addition per d.
    """
    out = np.zeros(n + 1, dtype=np.float64)
    for d in range(1, math.isqrt(n) + 1):
        wd = weight(np.int64(d))
        _add_blocked(out, d, d, n // d, lambda l: wd + weight(
            np.arange(l.start, l.stop, dtype=np.int64)))
        out[d * d] -= wd
    return out


def _add_blocked(out: np.ndarray, step: int, lo: int, end: int,
                 terms) -> None:
    """out[step * i] += terms(i) for i in lo..end, where ``terms`` maps a
    slice of i to an array; the slices hold at most ``_BLOCK`` entries, so
    no temporary is longer than a block."""
    for b in range(lo, end + 1, _BLOCK):
        e = min(b + _BLOCK, end + 1)
        out[step * b:step * e:step] += terms(slice(b, e))


def _divisor_pair_sum(fv: np.ndarray, n: int, term) -> np.ndarray:
    """out[k] = sum_{d*l = k} term(d, l) for k <= n, added in ascending d.

    ``term`` is called with one index an int and the other a slice (rows
    d <= isqrt(n) against every l, then columns l <= n // (isqrt(n)+1)
    against every d > isqrt(n), in descending l) and returns the pair
    terms as an array.  Rows with fv[d] == 0 are skipped, so ``term`` must
    vanish where fv does; the columns add those zeros, which leaves every
    sum bit-unchanged for finite operands.  Each row and column is taken
    in slices of ``_BLOCK`` (``_add_blocked``), so the temporaries stay
    small next to ``out`` (the d = 1 row and the l = 1 column whole are
    n-long); every entry still gets the same one addition per (d, l), in
    the same order.
    """
    r = math.isqrt(n)
    out = np.zeros(n + 1, dtype=np.float64)
    for d in (np.nonzero(fv[1:r + 1])[0] + 1):
        _add_blocked(out, d, 1, n // d, lambda l: term(d, l))
    for l in range(n // (r + 1), 0, -1):
        _add_blocked(out, l, r + 1, n // l, lambda d: term(d, l))
    return out


def _convolve_values(fv: np.ndarray, gv: np.ndarray, n: int) -> np.ndarray:
    """(f*g)(k) = sum_{d|k} f(d) g(k/d) for k <= n, summed in ascending d.

    d runs over the factor with fewer nonzero values among its first
    ``_MIN_CAPACITY``.  The split loop is as fast either way, but the
    choice fixes the summation order: the other order moves float results
    in the last bits (conv:log,mu's).  Counting a fixed prefix, not all n
    values, makes every build from ``_MIN_CAPACITY`` up pick the same
    order.  Multiplicative trees are built from their prime powers instead.
    """
    w = min(n, _MIN_CAPACITY) + 1
    if np.count_nonzero(gv[1:w]) < np.count_nonzero(fv[1:w]):
        fv, gv = gv, fv
    return _divisor_pair_sum(fv, n, lambda d, l: fv[d] * gv[l])


def _overflows(a: float, n: int) -> bool:
    return n > 1 and abs(a) * math.log(n) > _MAX_EXP_PRODUCT


def _check_exponent(a: float, n: int) -> None:
    if _overflows(a, n):
        raise DomainError(f"exponent {a} overflows float64 at n_max={n}")


def _all_parts(spec: FunctionSpec):
    """Every operand sieved on the way to spec, once per use."""
    for part in spec.operands:
        yield part
        yield from _all_parts(part)


def _exponents(spec: FunctionSpec) -> list[float]:
    """The exponent of spec and of every part sieved on the way to it."""
    return [s.exponent for s in (spec, *_all_parts(spec))
            if s.exponent is not None]


def _sieve_values(spec: FunctionSpec, n: int) -> np.ndarray:
    """spec's values on 0..n, each operand sieved for the build it is in."""
    for a in _exponents(spec):
        _check_exponent(a, n)
    return _build_values(spec, n, lambda node: _sieve_values(node, n))


def _build_values(spec: FunctionSpec, n: int, part) -> np.ndarray:
    """spec's values on 0..n, taking the values of each of its operands
    from ``part``."""
    kind = spec.kind
    if _streams(spec):
        # a whole table is its blocks, written into one array
        source = blocks(spec, n).values  # prepared before out is formed
        out = np.empty(n + 1)
        for lo in range(0, n + 1, _BLOCK):
            source.fill(out[lo:lo + _BLOCK], lo)
        return out
    if kind is Kind.DIVISOR_LOG:
        return _divisor_weight_sieve(
            n, lambda v: np.log(np.asarray(v, dtype=np.float64)))
    if kind is Kind.CONVOLVE:
        fv, gv = map(part, spec.operands)
        return _convolve_values(fv, gv, n)
    if kind in _UNARY:
        # the weights a block at a time, so no temporary is n long
        weigh = (np.log if kind is Kind.POINTWISE_LOG
                 else lambda m: m ** spec.exponent)
        fv = part(spec.operands[0]).copy()
        for lo in range(1, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            fv[lo:hi] *= weigh(np.arange(lo, hi, dtype=np.float64))
        return fv
    raise DomainError(f"cannot sieve {spec}")


def sieve_values(spec: FunctionSpec, n_max: int) -> np.ndarray:
    """Read-only value array for spec on 0..n_max (slot 0 is 0), built for
    this call and freed with its last reference.

    It is built at max(n_max, ``_MIN_CAPACITY``) and sliced: only the
    convolution kernel needs that floor, as it picks its summation order
    from its operands' first ``_MIN_CAPACITY`` values (conv:log,mu differs
    at n = 6 below it).  Every other entry depends only on data at indices
    <= its own and a product of prime powers takes each f(p) from one
    expression, so the array is the first n_max + 1 entries of any larger
    build bit for bit.  A spec that ``blocks`` streams is its blocks
    written into the array: the peak is the array, what the blocks share
    (O(pi(n_max)) floats) and a few blocks.
    Every exponent in the spec's tree is checked against n_max; where the
    larger size would overflow float64 and n_max does not, the array is
    built at n_max.
    """
    n_max = cut(n_max)
    for a in _exponents(spec):
        _check_exponent(a, n_max)
    size = max(n_max, _MIN_CAPACITY)
    if any(_overflows(a, size) for a in _exponents(spec)):
        size = n_max
    vals = _sieve_values(spec, size)
    vals.setflags(write=False)
    return vals[:n_max + 1]


def sieve(spec: FunctionSpec, n_max: int) -> FunctionTable:
    """Build the exact value table of ``spec`` on 1..n_max."""
    n_max = cut(n_max)
    return FunctionTable(spec, n_max, sieve_values(spec, n_max))


def _derived(spec: FunctionSpec, n: int, *operands) -> FunctionTable:
    """The table of spec on 1..n, built by ``_build_values`` from the given
    operand values (in the order of ``spec.operands``) instead of sieves,
    so ``dirichlet_convolve(sieve(f), sieve(g))`` is ``sieve(conv:f,g)``
    (a multiplicative tree reads none; the kernel's from 1024 up).  An
    operand given as a spec is sieved up to n only if the build reads it."""
    given = iter(operands)

    def part(_):
        v = next(given)
        return sieve_values(v, n) if isinstance(v, FunctionSpec) else v

    vals = _build_values(spec, n, part)
    vals.setflags(write=False)
    return FunctionTable(spec, n, vals)


def dirichlet_convolve(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    """Table of (f*g)(n) = sum_{d|n} f(d) g(n/d)."""
    require(f.n_max == g.n_max,
            f"table sizes differ: {f.n_max} != {g.n_max}")
    return _derived(convolve(f.spec, g.spec), f.n_max, f.values, g.values)


def pointwise_log(f: FunctionTable) -> FunctionTable:
    """Table of f(n) * log n."""
    return _derived(pointwise_log_spec(f.spec), f.n_max, f.values)


def pointwise_power(f: FunctionTable, a: float) -> FunctionTable:
    """Table of f(n) * n^a."""
    _check_exponent(a, f.n_max)
    return _derived(pointwise_pow_spec(f.spec, a), f.n_max, f.values)


def divisors_of(n: int) -> list[int]:
    """Sorted divisors of n by trial division up to sqrt(n)."""
    require(n >= 1, "n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_lists(n: int) -> list[list[int]]:
    """Ascending divisors of every m <= n, as lists indexed by m (slot 0 empty):
    about n ln n appends and 180 bytes per m at n = 10^4.  n is bounded by
    ``MAX_SIEVE`` before any allocation."""
    n = cut(n)
    lists = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for divs in lists[d::d]:
            divs.append(d)
    return lists


def mobius_of(n: int) -> int:
    """mu(n) by trial-division factorization (exact integer)."""
    require(n >= 1, "n must be >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if m > 1:
        result = -result
    return result
