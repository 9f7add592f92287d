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
are exact.  A conv tree may hold only these kinds (log * mu is Lambda,
spelled ``lambda``); any other is refused when its spec is formed.  Every
table is built a block at a time by ``blocks``, which a scan reads in
place of a whole table: the pointwise weightings and divlog weigh their
operand's (tau's) blocks.  A whole table is its blocks written into one
array.

No table is cached: each is built for the call that reads it and freed
with its last reference, so a caller that reads one table at several
sizes builds it once, at the largest.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from functools import partial

import numpy as np

from ._accum import _BLOCK, ramp
from .errors import DomainError, require

MAX_NESTING = 4

# exponents |a|*log(n_max) beyond this overflow float64
_MAX_EXP_PRODUCT = 700.0

# a block strikes the multiples of a prime below this a slice at a time,
# the rest together (``_multiples``)
_TINY = 256

# the m whose divisor lists ``iter_divisor_lists`` builds at a time
_DIVISOR_RUN = 2048

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
# the kinds of a conv tree: each is a product of its values at prime
# powers, which ``_product_fill`` builds
_MULTIPLICATIVE = {Kind.ID_POW, Kind.MOEBIUS, Kind.TOTIENT, Kind.SIGMA_POW,
                   Kind.CONVOLVE}


class _Frozen:
    """Base of the read-only records: the constructor sets each name of
    ``__slots__`` once, in order, and any later assignment raises."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FunctionSpec(_Frozen):
    """Symbolic descriptor of an arithmetical function, equal and hashable
    by its kind, exponent and operands."""

    __slots__ = ("kind", "exponent", "operands")

    def __init__(self, kind: Kind, exponent: float | None = None,
                 operands: tuple["FunctionSpec", ...] = ()):
        super().__init__(kind, exponent, operands)
        if self.kind in _NEEDS_EXPONENT:
            if self.exponent is None or not math.isfinite(self.exponent):
                raise DomainError(f"{self.kind.value} requires a finite exponent")
        elif self.exponent is not None:
            raise DomainError(f"{self.kind.value} takes no exponent")
        n_ops = len(self.operands)
        if self.kind is Kind.CONVOLVE:
            require(n_ops == 2, "convolution takes two operands")
            for op in self.operands:
                require(op.kind in _MULTIPLICATIVE,
                        f"cannot convolve {op}: a conv tree holds only mu, "
                        "phi, idpow, sigmapow and conv")
        elif self.kind in _UNARY:
            require(n_ops == 1, f"{self.kind.value} takes one operand")
        else:
            require(n_ops == 0, f"{self.kind.value} takes no operands")
        require(self.depth() <= MAX_NESTING, f"nesting deeper than {MAX_NESTING}")

    def _key(self) -> tuple:
        return self.kind, self.exponent, self.operands

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


def _with_mu(spec: FunctionSpec) -> FunctionSpec:
    """The spec of f*mu for f's spec; log * mu is Lambda."""
    return VON_MANGOLDT if spec == LOG else convolve(spec, MU)


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
    in turn, to any depth up to ``MAX_NESTING``; a ``conv`` tree holds
    only ``mu``, ``phi``, ``idpow``, ``sigmapow`` and ``conv`` (so also
    ``one``, ``id``, ``tau``, ``sigma`` and ``jordan``).  So
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
            f, g = spec(":", depth + 1), spec(",", depth + 1)
            try:
                return convolve(f, g)
            except DomainError as exc:
                fail(exc)
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


def nonnegative(spec: FunctionSpec) -> bool:
    """Whether spec is >= 0 everywhere by its kind: phi, n^a, sigma_a and
    a conv of two such (conservative: False says nothing)."""
    if spec.kind is Kind.CONVOLVE:
        return all(map(nonnegative, spec.operands))
    return spec.kind in (Kind.TOTIENT, Kind.ID_POW, Kind.SIGMA_POW)


class FunctionTable(_Frozen):
    """Exact values of an arithmetical function on 1..n_max.

    ``values`` has length n_max + 1; slot 0 is unused and holds 0 so that
    ``values[n]`` is the value at n.  The array is read-only: tables are
    immutable after construction and safe to share across threads.  A
    table from ``blocks`` has ``Blocks`` instead, read by slices only
    (``table[n]`` reads a one-entry slice).
    """

    __slots__ = ("spec", "n_max", "values")

    def __len__(self) -> int:
        return self.n_max

    def __getitem__(self, n: int) -> float:
        require(1 <= n <= self.n_max, f"index {n} outside 1..{self.n_max}")
        return float(self.values[n:n + 1][0])


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
    """f(p^e) for a multiplicative spec, where row e - 1 of q holds p^e at
    the primes p = q[0] (min(p^e, n): rows past n are not read; f(p) needs
    the row of p alone), in longdouble, so that a factor whose terms
    cancel (p^(1/2) - 2) keeps its digits when it is rounded to float64;
    p^a is exp(a log p), 4x quicker than powl."""
    kind = spec.kind
    if kind in (Kind.ID_POW, Kind.SIGMA_POW):
        out = np.exp(spec.exponent * np.log(q))
        if kind is Kind.SIGMA_POW:
            out[0] += 1.0
            np.cumsum(out, axis=0, out=out)
        return out
    if kind is Kind.CONVOLVE:
        f, g = (_prime_power_values(op, q) for op in spec.operands)
        return np.array([sum([g[e], *(f[i] * g[e - 1 - i] for i in range(e)),
                              f[e]]) for e in range(len(q))])
    out = q - q / q[0] if kind is Kind.TOTIENT else np.zeros_like(q)
    if kind is Kind.MOEBIUS:
        out[0] = -1.0
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


def _product_fill(spec: FunctionSpec, n: int, primes: np.ndarray | None):
    """A multiplicative spec on blocks of 0..n: m is the product of f(p^e)
    over the p^e || m in ascending p, each f(p) one longdouble expression,
    so no byte depends on n or the block.  A p < ``_TINY`` scales strided
    slices, the other p <= r = isqrt(n) (p^3 > n) scale by one
    ``np.multiply.at``, and P > r, the largest prime factor, last."""
    r = math.isqrt(n)
    primes = _primes_upto(n) if primes is None else primes
    small, large = np.split(primes, [np.searchsorted(primes, r, side="right")])
    q = np.full((max(n.bit_length() - 1, 2), len(small)), small, np.longdouble)
    rows = _prime_power_values(
        spec, np.minimum(np.cumprod(q, axis=0), n)).astype(np.float64)
    # 4096 primes at a time, so the longdouble temporaries stay small
    at_big = np.concatenate([_prime_power_values(spec, np.array(
        [P], np.longdouble))[0].astype(np.float64)
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
            factors, step, k = np.full(max(e - b, 0), f[0]), p, 1
            while step < e:  # p^(k+1) divides p*i where p^k divides i
                factors[-b % step::step] = f[k]
                step, k = step * p, k + 1
            out[p * b - lo:p * e - lo:p] *= factors
        first = -(-max(lo, 1) // mid) * mid
        at, counts = _multiples(mid, first, lo, hi)
        factors = np.repeat(rows[0, t:], counts)
        hit, c = _multiples(sq, -(-max(lo, 1) // sq) * sq, lo, hi)
        i = np.repeat(np.arange(len(sq)), c)
        factors[(np.cumsum(counts) - counts)[i] + (hit + lo - first[i])
                // mid[i]] = rows[1, t:][i]
        np.multiply.at(out, at, factors)
        for at, index in _large_hits(large, r, lo, hi):
            out[at] *= at_big[index]
        out += 0.0  # -0.0, a zero factor times a negative one, to 0.0
    return fill


def _mobius_fill(n: int, primes: np.ndarray | None):
    """mu on blocks: each p <= r = isqrt(n) multiplies its multiples by -p
    and zeroes those of p^2, so a product short of a squarefree m marks
    its one prime above r, one more change of sign.  Of a list of primes
    given it keeps a copy of those up to r, so the rest are not held."""
    r = math.isqrt(n)
    small = (_primes_upto(r) if primes is None else
             primes[:np.searchsorted(primes, r, side="right")].copy())
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


def _von_mangoldt_fill(n: int, primes: np.ndarray | None):
    """Lambda on blocks: ``math.log`` of p at the listed p^k <= n."""
    # logged 4096 at a time, each listed int 36 B
    primes = _primes_upto(n) if primes is None else primes
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
        s = 1 - min(lo, 1)
        np.power(ramp(out, lo)[s:], a, out=out[s:])
    return fill


class Blocks(_Frozen):
    """A table's values from ``blocks``: ``values[lo:hi]``, for any 0 <= lo
    < hi <= n_max + 1, as often and in any order, has the bytes of those of
    ``sieve_values``; ``fill(out, lo)`` writes them into out, a buffer of
    the reader's, which a pass reuses block after block."""

    __slots__ = ("fill",)

    def __getitem__(self, s: slice) -> np.ndarray:
        out = np.empty(s.stop - s.start)
        self.fill(out, s.start)
        return out


def _weighted_fill(spec: FunctionSpec, n: int, primes: np.ndarray | None):
    """f(m) log m, f(m) m^a or tau(m) log(m) / 2 (divlog, the sum of
    log d over the divisors d of m) on blocks: f's fill, then each m >= 1
    weighted by one numpy operation."""
    kind, a = spec.kind, spec.exponent
    inner = _block_fill(TAU if kind is Kind.DIVISOR_LOG else spec.operands[0],
                        n)(primes)
    weigh = {Kind.POINTWISE_LOG: np.log, Kind.POINTWISE_POW: lambda m: m ** a,
             Kind.DIVISOR_LOG: lambda m: np.log(m) / 2}[kind]

    def fill(out: np.ndarray, lo: int) -> None:
        inner(out, lo)
        s = 1 - min(lo, 1)  # slot 0 keeps f's 0
        out[s:] *= weigh(np.arange(lo + s, lo + len(out), dtype=np.float64))
    return fill


def _block_fill(spec: FunctionSpec, n: int):
    """spec's fill on 0..n, as a function of the primes up to n (None to
    list those it needs) that prepares it."""
    if spec.kind is Kind.ID_POW:
        return lambda primes: _power_fill(spec.exponent)
    if spec.kind is Kind.MOEBIUS:
        return partial(_mobius_fill, n)
    if spec.kind is Kind.VON_MANGOLDT:
        return partial(_von_mangoldt_fill, n)
    if spec.kind in _MULTIPLICATIVE:
        return partial(_product_fill, spec, n)
    return partial(_weighted_fill, spec, n)


def blocks(spec: FunctionSpec, n: int,
           primes: np.ndarray | None = None) -> FunctionTable:
    """The table of spec on 1..n with ``Blocks`` as values, n and exponents
    checked first: it holds what its blocks share, O(pi(n)) floats
    (O(sqrt(n)) for mu, none for n^a), and no block; its reader fills
    buffers of its own.  Tables built together take the primes up to n."""
    n = cut(n)
    for a in _exponents(spec):
        _check_exponent(a, n)
    return FunctionTable(spec, n, Blocks(_block_fill(spec, n)(primes)))


def _check_exponent(a: float, n: int) -> None:
    if n > 1 and abs(a) * math.log(n) > _MAX_EXP_PRODUCT:
        raise DomainError(f"exponent {a} overflows float64 at n_max={n}")


def _exponents(spec: FunctionSpec) -> list[float]:
    """The exponents of spec's tree, in prefix order."""
    own = [] if spec.exponent is None else [spec.exponent]
    return own + [a for op in spec.operands for a in _exponents(op)]


def sieve_values(spec: FunctionSpec, n_max: int) -> np.ndarray:
    """Read-only value array for spec on 0..n_max (slot 0 is 0): the blocks
    of ``blocks(spec, n_max)`` written into one array, built for this call
    and freed with its last reference.

    No entry depends on n_max or the block (the product builder takes
    each f(p) from one expression and multiplies in ascending p), so the
    array is the first n_max + 1 entries of any larger build bit for bit.
    What the blocks share is prepared before the array is allocated, so
    the peak is the array, O(pi(n_max)) floats and a few blocks.
    """
    source = blocks(spec, n_max)
    out = np.empty(source.n_max + 1)
    for lo in range(0, len(out), _BLOCK):
        source.values.fill(out[lo:lo + _BLOCK], lo)
    out.setflags(write=False)
    return out


def sieve(spec: FunctionSpec, n_max: int) -> FunctionTable:
    """Build the exact value table of ``spec`` on 1..n_max."""
    n_max = cut(n_max)
    return FunctionTable(spec, n_max, sieve_values(spec, n_max))


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


def _divisor_run(k0: int, k1: int) -> list[list[int]]:
    """The ascending divisors of each m of k0..k1-1 (k0 >= 1), as lists
    indexed by m - k0, d ascending: each d below the run's size appended
    to its multiples there, then each larger d, which has one multiple
    q d there at most, taken by q descending, so no d is visited that
    divides no m of the run."""
    size = k1 - k0
    lists = [[] for _ in range(size)]
    for d in range(1, size):
        for divs in lists[-k0 % d::d]:
            divs.append(d)
    for q in range((k1 - 1) // size, 0, -1):
        ds = range(max(size, -(-k0 // q)), -(-k1 // q))  # q d in k0..k1-1
        for divs, d in zip(lists[q * ds.start - k0::q], ds):
            divs.append(d)
    return lists


def divisor_lists(n: int) -> list[list[int]]:
    """Ascending divisors of every m <= n, as lists indexed by m (slot 0 empty):
    about n ln n appends and 180 bytes per m at n = 10^4.  n is bounded by
    ``MAX_SIEVE`` before any allocation.  A reader that takes each m's
    list once, in turn, holds less with ``iter_divisor_lists``."""
    lists = _divisor_run(1, cut(n) + 1)
    lists.insert(0, [])
    return lists


def iter_divisor_lists(n: int):
    """The lists of ``divisor_lists(n)`` for m = 1..n in turn, built
    ``_DIVISOR_RUN`` consecutive m at a time: a run is dropped once its
    last list is read, so one run lives at a time, at most 0.5 MB at
    n = 10^4 where the whole sieve takes 1.8 MB.  n is bounded by
    ``MAX_SIEVE`` when this is called, before any list exists."""
    n = cut(n)
    return (divs for k0 in range(1, n + 1, _DIVISOR_RUN)
            for divs in _divisor_run(k0, min(k0 + _DIVISOR_RUN, n + 1)))
