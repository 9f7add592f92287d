"""Sieved value tables of classical arithmetical functions.

A :class:`FunctionSpec` is a small symbolic description of an arithmetical
function (mu, phi, tau, sigma_a, Lambda, n^a, log n, Dirichlet
convolutions and pointwise log/power weightings of those).  ``sieve``
turns a spec into a :class:`FunctionTable`: an immutable float64 array of
exact values on 1..n_max.

Integer-valued functions (mu, phi, tau, sigma) are sieved in int64 and
converted once, so their float values are exact as long as they fit in 53
bits.

Convolutions do O(n_max log n_max) work in about 2 sqrt(n_max) Python
iterations: every pair d*l <= n_max has d <= r = isqrt(n_max) or
l <= n_max // (r+1), so one strided update per small d (a row) and one
per small l (a column) cover all pairs.  The columns run in descending l,
so each entry still adds its terms in ascending d, the order of the plain
divisor loop, and the float results are bit-identical to it.  The mu and
phi sieves split their primes at r the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._accum import _BLOCK
from .errors import DomainError, require

MAX_NESTING = 4

# exponents |a|*log(n_max) beyond this overflow float64
_MAX_EXP_PRODUCT = 700.0

# smallest capacity of a cached value array
_MIN_CAPACITY = 1024

# O(x) memory is accepted up to here: scans reject larger x, and no cached
# capacity rounds a request up past it
MAX_SIEVE = 10_000_000


class Kind(Enum):
    ONE = "one"
    ID = "id"
    ID_POW = "idpow"
    MOEBIUS = "mu"
    TOTIENT = "phi"
    JORDAN = "jordan"
    VON_MANGOLDT = "lambda"
    LOG = "log"
    TAU = "tau"
    SIGMA = "sigma"
    SIGMA_POW = "sigmapow"
    DIVISOR_LOG = "divlog"
    CONVOLVE = "conv"
    POINTWISE_LOG = "ptlog"
    POINTWISE_POW = "ptpow"


_NEEDS_EXPONENT = {Kind.ID_POW, Kind.JORDAN, Kind.SIGMA_POW, Kind.POINTWISE_POW}
_UNARY = {Kind.POINTWISE_LOG, Kind.POINTWISE_POW}


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
        """Grammar string understood by :func:`parse_spec`."""
        if self.kind is Kind.CONVOLVE:
            return f"conv:{self.operands[0].label()},{self.operands[1].label()}"
        if self.kind is Kind.POINTWISE_LOG:
            return f"ptlog:{self.operands[0].label()}"
        if self.kind is Kind.POINTWISE_POW:
            return f"ptpow:{self.exponent:g},{self.operands[0].label()}"
        if self.kind in _NEEDS_EXPONENT:
            return f"{self.kind.value}:{self.exponent:g}"
        return self.kind.value

    def __str__(self) -> str:
        return self.label()


# primitive specs
ONE = FunctionSpec(Kind.ONE)
ID = FunctionSpec(Kind.ID)
MU = FunctionSpec(Kind.MOEBIUS)
PHI = FunctionSpec(Kind.TOTIENT)
VON_MANGOLDT = FunctionSpec(Kind.VON_MANGOLDT)
LOG = FunctionSpec(Kind.LOG)
TAU = FunctionSpec(Kind.TAU)
SIGMA = FunctionSpec(Kind.SIGMA)
DIVISOR_LOG = FunctionSpec(Kind.DIVISOR_LOG)


def id_pow(a: float) -> FunctionSpec:
    """n ↦ n^a."""
    return FunctionSpec(Kind.ID_POW, exponent=float(a))


def jordan(a: float) -> FunctionSpec:
    """phi_a = mu * id_a (phi_1 is Euler's totient)."""
    return FunctionSpec(Kind.JORDAN, exponent=float(a))


def sigma_pow(a: float) -> FunctionSpec:
    """sigma_a = 1 * id_a."""
    return FunctionSpec(Kind.SIGMA_POW, exponent=float(a))


def convolve(f: FunctionSpec, g: FunctionSpec) -> FunctionSpec:
    return FunctionSpec(Kind.CONVOLVE, operands=(f, g))


def pointwise_log_spec(f: FunctionSpec) -> FunctionSpec:
    return FunctionSpec(Kind.POINTWISE_LOG, operands=(f,))


def pointwise_pow_spec(f: FunctionSpec, a: float) -> FunctionSpec:
    return FunctionSpec(Kind.POINTWISE_POW, exponent=float(a), operands=(f,))


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


def parse_spec(text: str) -> FunctionSpec:
    """Parse the ``name[:param]`` mini-grammar.

    Examples: ``mu``, ``idpow:-0.5``, ``jordan:0.5``, ``conv:tau,one``,
    ``ptlog:mu``, ``ptpow:-1,id``.  Convolution operands must themselves be
    primitive (one nesting level), which covers every pair used by the
    identity and scan commands.
    """
    text = text.strip()
    if text in _SIMPLE_NAMES:
        return _SIMPLE_NAMES[text]
    head, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"unknown function spec {text!r}")
    try:
        if head == "idpow":
            return id_pow(float(rest))
        if head == "jordan":
            return jordan(float(rest))
        if head == "sigmapow":
            return sigma_pow(float(rest))
        if head == "conv":
            left, _, right = rest.partition(",")
            if not _:
                raise DomainError(f"conv needs two operands in {text!r}")
            return convolve(parse_spec(left), parse_spec(right))
        if head == "ptlog":
            return pointwise_log_spec(parse_spec(rest))
        if head == "ptpow":
            a_text, _, inner = rest.partition(",")
            if not _:
                raise DomainError(f"ptpow needs an exponent and an operand in {text!r}")
            return pointwise_pow_spec(parse_spec(inner), float(a_text))
    except ValueError as exc:
        raise DomainError(f"bad parameter in spec {text!r}: {exc}") from None
    raise DomainError(f"unknown function spec {text!r}")


def abscissa(spec: FunctionSpec) -> float:
    """Abscissa of absolute convergence of sum |f(k)| / k^s (conservative)."""
    k = spec.kind
    if k in (Kind.ONE, Kind.MOEBIUS, Kind.VON_MANGOLDT, Kind.LOG, Kind.TAU,
             Kind.DIVISOR_LOG):
        return 1.0
    if k in (Kind.ID, Kind.TOTIENT, Kind.SIGMA):
        return 2.0
    if k is Kind.ID_POW:
        return 1.0 + spec.exponent
    if k in (Kind.JORDAN, Kind.SIGMA_POW):
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
    immutable after construction and safe to share across threads.
    """

    spec: FunctionSpec
    n_max: int
    values: np.ndarray

    def __len__(self) -> int:
        return self.n_max

    def __getitem__(self, n: int) -> float:
        require(1 <= n <= self.n_max, f"index {n} outside 1..{self.n_max}")
        return float(self.values[n])


def _primes_upto(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def _split_primes(n: int):
    """The primes p <= r = isqrt(n), and the pairs (k, P) that cover the rest.

    A prime p > r divides m <= n at most once, as m = k*p with k <= n // (r+1).
    So for each such k, P holds the primes in (r, n // k], and the pairs
    reach every multiple of a large prime in about sqrt(n) iterations.
    """
    r = math.isqrt(n)
    primes = _primes_upto(n)
    cut = np.searchsorted(primes, r, side="right")
    large = primes[cut:]
    ends = np.searchsorted(large, n // np.arange(1, n // (r + 1) + 1), side="right")
    return primes[:cut], [(k, large[:end]) for k, end in enumerate(ends, 1)]


def _mobius_values(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    small, large = _split_primes(n)
    for p in small:
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    for k, P in large:
        mu[k * P] *= -1
    return mu


def _totient_values(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=np.int64)
    small, large = _split_primes(n)
    for p in small:
        phi[p::p] //= p
        phi[p::p] *= p - 1
    for k, P in large:
        multiples = k * P
        phi[multiples] //= P
        phi[multiples] *= P - 1
    return phi


def _von_mangoldt_values(n: int) -> np.ndarray:
    lam = np.zeros(n + 1, dtype=np.float64)
    for p in _primes_upto(n):
        log_p = math.log(p)
        q = p
        while q <= n:
            lam[q] = log_p
            q *= p
    return lam


def _divisor_weight_sieve(n: int, weight, dtype) -> np.ndarray:
    """out[m] = sum_{d|m} weight(d), accumulated over pairs d <= m/d.

    ``weight`` maps a divisor (scalar or int64 array) to its contribution;
    the loop runs d up to sqrt(n) and credits both members of each divisor
    pair, counting the square root of a perfect square once.  Each row of
    cofactors l is taken in blocks of ``_BLOCK``, so the temporaries stay
    small next to ``out`` (the d = 1 row whole would take three more
    n-long arrays); every entry still gets the same one addition per d.
    """
    out = np.zeros(n + 1, dtype=dtype)
    for d in range(1, math.isqrt(n) + 1):
        wd = weight(np.int64(d))
        for lo in range(d, n // d + 1, _BLOCK):
            hi = min(lo + _BLOCK, n // d + 1)
            larr = np.arange(lo, hi, dtype=np.int64)
            out[d * lo:d * hi:d] += wd + weight(larr)
        out[d * d] -= wd
    return out


def _tau_values(n: int) -> np.ndarray:
    return _divisor_weight_sieve(n, lambda v: np.ones_like(v), np.int64)


def _sigma_values(n: int) -> np.ndarray:
    return _divisor_weight_sieve(n, lambda v: v, np.int64)


def _sigma_pow_values(n: int, a: float) -> np.ndarray:
    return _divisor_weight_sieve(
        n, lambda v: np.asarray(v, dtype=np.float64) ** a, np.float64)


def _divisor_log_values(n: int) -> np.ndarray:
    return _divisor_weight_sieve(
        n, lambda v: np.log(np.asarray(v, dtype=np.float64)), np.float64)


def _divisor_pair_sum(fv: np.ndarray, n: int, term) -> np.ndarray:
    """out[k] = sum_{d*l = k} term(d, l) for k <= n, added in ascending d.

    ``term`` is called with one index an int and the other a slice (rows
    d <= isqrt(n) against every l, then columns l <= n // (isqrt(n)+1)
    against every d > isqrt(n), in descending l) and returns the pair
    terms as an array.  Rows with fv[d] == 0 are skipped, so ``term`` must
    vanish where fv does; the columns add those zeros, which leaves every
    sum bit-unchanged for finite operands.
    """
    r = math.isqrt(n)
    out = np.zeros(n + 1, dtype=np.float64)
    for d in (np.nonzero(fv[1:r + 1])[0] + 1):
        out[d::d] += term(d, slice(1, n // d + 1))
    for l in range(n // (r + 1), 0, -1):
        m = n // l
        out[l * (r + 1):l * m + 1:l] += term(slice(r + 1, m + 1), l)
    return out


def _convolve_values(fv: np.ndarray, gv: np.ndarray, n: int) -> np.ndarray:
    """(f*g)(k) = sum_{d|k} f(d) g(k/d) for k <= n, summed in ascending d.

    d runs over the factor with fewer nonzero values among its first
    ``_MIN_CAPACITY``.  The split loop is as fast either way, but the
    choice fixes the summation order: the other order moves float results
    in the last bits (the jordan scan's exact side by 1 ulp).  Counting a
    fixed prefix, not all n values, makes every cached capacity pick the
    same order.
    """
    w = min(n, _MIN_CAPACITY) + 1
    if np.count_nonzero(gv[1:w]) < np.count_nonzero(fv[1:w]):
        fv, gv = gv, fv
    return _divisor_pair_sum(fv, n, lambda d, l: fv[d] * gv[l])


def _check_exponent(a: float, n: int) -> None:
    if n > 1 and abs(a) * math.log(n) > _MAX_EXP_PRODUCT:
        raise DomainError(f"exponent {a} overflows float64 at n_max={n}")


def _sieve_values(spec: FunctionSpec, n: int) -> np.ndarray:
    kind = spec.kind
    if kind is Kind.ONE:
        vals = np.ones(n + 1, dtype=np.float64)
        vals[0] = 0.0
        return vals
    if kind is Kind.ID:
        return np.arange(n + 1, dtype=np.float64)
    if kind is Kind.ID_POW:
        _check_exponent(spec.exponent, n)
        vals = np.zeros(n + 1, dtype=np.float64)
        vals[1:] = np.arange(1, n + 1, dtype=np.float64) ** spec.exponent
        return vals
    if kind is Kind.LOG:
        vals = np.zeros(n + 1, dtype=np.float64)
        vals[1:] = np.log(np.arange(1, n + 1, dtype=np.float64))
        return vals
    if kind is Kind.MOEBIUS:
        return _mobius_values(n).astype(np.float64)
    if kind is Kind.TOTIENT:
        return _totient_values(n).astype(np.float64)
    if kind is Kind.VON_MANGOLDT:
        return _von_mangoldt_values(n)
    if kind is Kind.TAU:
        return _tau_values(n).astype(np.float64)
    if kind is Kind.SIGMA:
        return _sigma_values(n).astype(np.float64)
    if kind is Kind.SIGMA_POW:
        _check_exponent(spec.exponent, n)
        return _sigma_pow_values(n, spec.exponent)
    if kind is Kind.DIVISOR_LOG:
        return _divisor_log_values(n)
    if kind is Kind.JORDAN:
        _check_exponent(spec.exponent, n)
        mu = _mobius_values(n).astype(np.float64)
        ida = _sieve_values(id_pow(spec.exponent), n)
        return _convolve_values(mu, ida, n)
    if kind is Kind.CONVOLVE:
        fv = _sieve_values(spec.operands[0], n)
        gv = _sieve_values(spec.operands[1], n)
        return _convolve_values(fv, gv, n)
    if kind is Kind.POINTWISE_LOG:
        fv = _sieve_values(spec.operands[0], n).copy()
        fv[1:] *= np.log(np.arange(1, n + 1, dtype=np.float64))
        return fv
    if kind is Kind.POINTWISE_POW:
        _check_exponent(spec.exponent, n)
        fv = _sieve_values(spec.operands[0], n).copy()
        fv[1:] *= np.arange(1, n + 1, dtype=np.float64) ** spec.exponent
        return fv
    raise DomainError(f"cannot sieve {spec}")


def _capacity(n: int) -> int:
    """The power of two >= n, at least _MIN_CAPACITY, at most max(n, MAX_SIEVE)."""
    pow2 = 1 << max(0, (n - 1).bit_length())
    return min(max(pow2, _MIN_CAPACITY), max(n, MAX_SIEVE))


# key -> the largest read-only array built for it so far, in build order
_grown: dict = {}
_CACHE_KEYS = 64


def _capacity_cached(key, n: int, build) -> np.ndarray:
    """Read-only array cached under key, with entries 0..n or more.

    ``build(capacity)`` makes entries 0..capacity along the array's last
    axis.  Each key keeps only its largest array: a request within it is
    served by that array (callers slice it), a larger request replaces it
    with a build at ``_capacity(n)``.  At most ``_CACHE_KEYS`` keys are
    kept, the one built longest ago dropped first.  Only build functions
    whose entry m depends on nothing past max(m, ``_MIN_CAPACITY``) may
    share this cache, so that a slice equals a build of any size.
    """
    arr = _grown.get(key)
    if arr is None or arr.shape[-1] <= n:
        _grown.pop(key, None)
        arr = None  # drop the old array before building the new one
        arr = build(_capacity(n))
        arr.setflags(write=False)
        _grown[key] = arr
        if len(_grown) > _CACHE_KEYS:
            del _grown[next(iter(_grown))]
    return arr


def sieve_values(spec: FunctionSpec, n_max: int) -> np.ndarray:
    """Read-only value array for spec on 0..n_max (slot 0 is 0).

    One array per spec is cached, built at ``_capacity(n_max)`` and
    replaced only by a larger one.  All sieves fill index n only from data
    at indices <= n, and a convolution picks its summation order from its
    operands' first ``_MIN_CAPACITY`` values, so a slice of a larger
    cached array is bit-identical to a direct build of any size >=
    ``_MIN_CAPACITY``.  A direct build below that can differ in the last
    bit where a convolution's sparser operand changes with n (conv:log,mu
    at n = 6).
    """
    require(n_max >= 1, "n_max must be >= 1")
    return _capacity_cached(("sieve", spec), n_max,
                            lambda n: _sieve_values(spec, n))[:n_max + 1]


def sieve(spec: FunctionSpec, n_max: int) -> FunctionTable:
    """Build the exact value table of ``spec`` on 1..n_max."""
    require(n_max >= 1, "n_max must be >= 1")
    return FunctionTable(spec, n_max, sieve_values(spec, n_max))


def dirichlet_convolve(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    """Table of (f*g)(n) = sum_{d|n} f(d) g(n/d)."""
    require(f.n_max == g.n_max,
            f"table sizes differ: {f.n_max} != {g.n_max}")
    vals = _convolve_values(f.values, g.values, f.n_max)
    vals.setflags(write=False)
    return FunctionTable(convolve(f.spec, g.spec), f.n_max, vals)


def pointwise_log(f: FunctionTable) -> FunctionTable:
    """Table of f(n) * log n."""
    vals = f.values.copy()
    vals[1:] *= np.log(np.arange(1, f.n_max + 1, dtype=np.float64))
    vals.setflags(write=False)
    return FunctionTable(pointwise_log_spec(f.spec), f.n_max, vals)


def pointwise_power(f: FunctionTable, a: float) -> FunctionTable:
    """Table of f(n) * n^a."""
    _check_exponent(a, f.n_max)
    vals = f.values.copy()
    vals[1:] *= np.arange(1, f.n_max + 1, dtype=np.float64) ** a
    vals.setflags(write=False)
    return FunctionTable(pointwise_pow_spec(f.spec, a), f.n_max, vals)


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


def check_list_range(n: int) -> None:
    """Reject a ``divisor_lists`` size outside 1..MAX_SIEVE; callers that
    allocate other tables of that size first check it up front."""
    require(1 <= n <= MAX_SIEVE, f"n must be in 1..{MAX_SIEVE}")


def divisor_lists(n: int) -> list[list[int]]:
    """Ascending divisors of every m <= n, as lists indexed by m (slot 0 empty):
    about n ln n appends and 180 bytes per m at n = 10^4.  n is bounded by
    ``MAX_SIEVE`` before any allocation."""
    check_list_range(n)
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
