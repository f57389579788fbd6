"""Exact integer, modular, and unit-group arithmetic.

Everything in here is exact: moduli are arbitrary-precision integers,
group-theoretic data (generators, orders, discrete logarithms) is computed
over the actual unit groups.  Only the bulk discrete-log tables are numpy
arrays.  ``exp_or_inf`` is the one overflow-safe exp, for bounds kept in
log space, ``pow_or_inf`` the one overflow-safe power, and ``_math_logs``
math.log of an integer array, bit for bit at any SIMD level.

The array caches of every module (``_cached``) share one byte budget,
``_CACHE_BUDGET``: a miss evicts the least recently used entries of all of
them until the new entry fits, and every cached array is read-only.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Optional

import numpy as np

__all__ = [
    "FactoredModulus",
    "UnitGroupBasis",
    "factor",
    "core",
    "valuation",
    "unit_group_basis",
    "discrete_log",
    "crt_combine",
]

# Discrete-log tables are built for prime powers up to this size.
DLOG_TABLE_CAP = 1 << 22

# Bytes that the array caches (``_cached``) keep, all together.  The size
# caps bound the entries: the largest is postnikov's check grid at its work
# cap of 2^22 points, 3 int64 arrays of 32 MiB, 96 MiB.  The largest dlog
# table, dlog_table(2, 22), is 2^22 residues x 2 int64 columns, 64 MiB, and
# a character mod 2^22 reads 16 MiB of roots of unity (lambda = 2^20) beside
# it; a value table at VALUE_TABLE_CAP = 2^20 residues is 24 MiB.  So 96 MiB
# keeps any one of them, and the largest table with what is read with it.
# An entry past the budget (roots of unity for an L-function with lambda(q)
# past 6·2^20, a check grid of Python ints) is returned and not kept.
_CACHE_BUDGET = 96 << 20
# Entries per chunk of ``_math_logs``: 1 MiB of complex128
_LOG_CHUNK = 1 << 16

# Trial divisors step 2 -> 3 -> 5 -> 7, then take the mod-30 wheel from 7 on,
# which skips multiples of 2, 3 and 5 (entries 3..10, cycled).
_STEPS = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)


def factor(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division with a 2,3,5 wheel.

    Returns [(p, v_p(n)), ...] with primes ascending; n = 1 gives [].
    Moduli in scope have small cores, so trial division is enough.
    """
    if n < 1:
        raise ValueError(f"factor() needs n >= 1, got {n}")
    return trial_division(n, n)[0]


def trial_division(n: int, limit: int) -> tuple[list[tuple[int, int]], int]:
    """The primes of n >= 1 found by trial division with a 2,3,5 wheel up to
    ``limit``, as [(p, v_p(n)), ...] ascending, and the part of n they leave:
    1 when they are all of n's primes, else a number with no prime factor
    up to ``limit``."""
    out: list[tuple[int, int]] = []
    p, i = 2, 0
    while p * p <= n:
        if p > limit:
            return out, n
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += _STEPS[i]
        i = i + 1 if i < 10 else 3
    if n > 1:
        out.append((n, 1))
    return out, 1


def exp_or_inf(x: float) -> float:
    """exp(x), or inf where it overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def pow_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, or inf where it overflows a double."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _math_logs(x: np.ndarray, out: Optional[np.ndarray] = None,
               work: Optional[np.ndarray] = None) -> np.ndarray:
    """math.log of each entry of x (integers, or integral doubles), bit for
    bit, into out (float64, may be x itself) or a new array: the real part
    of numpy's complex log, ``_LOG_CHUNK`` entries at a time, in work
    (complex128, at least min(len(x), _LOG_CHUNK) entries) or in a complex
    temporary of at most 1 MiB.

    numpy's complex log has no SIMD loop: it calls the C library's clog,
    and glibc's clog of a real x >= 1 (imaginary part 0) is log(hypot(x, 0))
    = log(x), the libm log that math.log calls.  int64 to float64 rounds to
    nearest, as math.log(int) does through PyLong_AsDouble.  Measured on
    x86-64: no difference from math.log at the 295,947 primes below 2^22
    and at 2·10^5 seeded integers in [2^22, 2^62), with numpy's AVX512
    dispatch on and off.  Real np.log is not math.log: its SIMD loops
    differ from libm in the last bit, at 19 of those primes under AVX512."""
    logs = np.empty(len(x), dtype=np.float64) if out is None else out
    for i in range(0, len(x), _LOG_CHUNK):
        n = min(_LOG_CHUNK, len(x) - i)
        z = np.empty(n, dtype=np.complex128) if work is None else work[:n]
        z[...] = x[i:i + n]
        logs[i:i + n] = np.log(z, out=z).real
    return logs


def valuation(n: int, p: int) -> int:
    """p-adic valuation v_p(n); errors on n = 0 (valuation is infinite)."""
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class FactoredModulus:
    """A modulus together with its factorization and core data.

    ``core`` is the product of the distinct primes dividing q,
    ``gamma_max`` the largest prime valuation, and ``tau`` is 2 when
    4 | q and 1 otherwise.
    """

    q: int
    factors: tuple[tuple[int, int], ...]
    core: int
    gamma_max: int
    tau: int

    @classmethod
    def from_int(cls, q: int) -> "FactoredModulus":
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        facs = tuple(factor(q))
        cr = 1
        for p, _ in facs:
            cr *= p
        return cls(
            q=q,
            factors=facs,
            core=cr,
            gamma_max=max((e for _, e in facs), default=0),
            tau=2 if q % 4 == 0 else 1,
        )

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.q:
            raise ValueError("factors do not reconstruct q")

    @property
    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** (e - 1) * (p - 1)
        return out

    def __int__(self) -> int:
        return self.q


def as_modulus(q) -> FactoredModulus:
    """Coerce an int or FactoredModulus to FactoredModulus."""
    if isinstance(q, FactoredModulus):
        return q
    return FactoredModulus.from_int(int(q))


def core(q) -> int:
    """The core (kernel) of q: the product of its distinct prime divisors."""
    return as_modulus(q).core


# ---------------------------------------------------------------------------
# Array caches under one byte budget
# ---------------------------------------------------------------------------


_CACHES: list["_Cache"] = []
_CACHE_LOCK = threading.Lock()  # guards every cache's entries and counts
_STAMPS = itertools.count()  # use stamps: the least recently used entry has the least


def _seal(value) -> int:
    """Make every array of a cache value read-only (one value is shared by
    every caller) and return the bytes the value holds: each array's data,
    with the ints of an object array, and each tuple and int around them."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes + (sum(map(sys.getsizeof, value.flat)) if value.dtype == object else 0)
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(_seal, value))
    return sys.getsizeof(value)


class _Cache:
    """One function's entries and counts under ``_CACHE_BUDGET``; see ``_cached``."""

    def __init__(self, name: str, maxsize: Optional[int]):
        self.name, self.maxsize = name, maxsize
        self.entries: OrderedDict = OrderedDict()  # args -> [value, bytes, stamp], least recent first
        self.hits = self.misses = self.evictions = self.nbytes = 0

    def keep(self, args, value):
        """Seal value and keep it under the budget, unless another thread
        kept one for args meanwhile: the value the caller returns."""
        size = _seal(value)
        with _CACHE_LOCK:
            entry = self.entries.get(args)
            if entry is not None:
                entry[2] = next(_STAMPS)
                self.entries.move_to_end(args)
                return entry[0]
            if size <= _CACHE_BUDGET:
                if self.maxsize is not None and len(self.entries) >= self.maxsize:
                    self.evict()
                while sum(c.nbytes for c in _CACHES) + size > _CACHE_BUDGET:
                    min((c for c in _CACHES if c.entries), key=_Cache.oldest_stamp).evict()
                self.entries[args] = [value, size, next(_STAMPS)]
                self.nbytes += size
        return value

    def oldest_stamp(self) -> int:
        return next(iter(self.entries.values()))[2]

    def evict(self) -> None:
        self.nbytes -= self.entries.popitem(last=False)[1][1]
        self.evictions += 1


def _cached(maxsize: Optional[int] = None):
    """Decorator: cache a function of hashable positional arguments whose
    value is an array or a tuple of arrays, ints and such tuples.  Every
    array of a value is made read-only.  All such caches share
    ``_CACHE_BUDGET``: a hit refreshes its entry, and a miss builds its
    value outside the lock and then evicts the least recently used entries,
    of any cache, until the value fits; a value larger than the whole
    budget is returned and not kept.  maxsize also bounds the entries of
    this one cache."""
    def wrap(fn):
        cache = _Cache(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}", maxsize)
        entries = cache.entries
        _CACHES.append(cache)

        @wraps(fn)
        def cached(*args):
            with _CACHE_LOCK:
                entry = entries.get(args)
                if entry is not None:
                    cache.hits += 1
                    entry[2] = next(_STAMPS)
                    entries.move_to_end(args)
                    return entry[0]
                cache.misses += 1
            return cache.keep(args, fn(*args))
        return cached
    return wrap


def _cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses, evictions and the bytes it holds, per cache ("module.name")."""
    with _CACHE_LOCK:
        return {c.name: {"hits": c.hits, "misses": c.misses, "evictions": c.evictions, "bytes": c.nbytes}
                for c in _CACHES}


def _cache_clear() -> None:
    """Empty every cache and zero its counts."""
    with _CACHE_LOCK:
        for c in _CACHES:
            c.entries.clear()
            c.hits = c.misses = c.evictions = c.nbytes = 0


# ---------------------------------------------------------------------------
# Unit group bases and discrete logarithms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitGroupBasis:
    """Independent generators of (Z/p^gamma)^x with their orders.

    Odd p: a single generator (the least primitive root mod p whose order
    mod p^2 is p(p-1), so it generates for every gamma).  p = 2: the
    classical {-1, 5} basis for gamma >= 3, {3} for gamma = 2, and the
    trivial group for gamma = 1.
    """

    p: int
    gamma: int
    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    # prime factorization of each order, for Pohlig-Hellman
    _order_factors: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, default=())


@lru_cache(maxsize=None)
def _least_lifting_primitive_root(p: int) -> int:
    """Least primitive root g mod p with g^(p-1) != 1 mod p^2.

    The lift condition makes g a primitive root modulo p^gamma for all
    gamma, which fixes one canonical basis for the whole tower.
    """
    phi = p - 1
    prime_divs = [r for r, _ in factor(phi)]
    p2 = p * p
    for g in range(2, p):
        if all(pow(g, phi // r, p) != 1 for r in prime_divs):
            if pow(g, phi, p2) != 1:
                return g
    raise ArithmeticError(f"no lifting primitive root below {p}")  # unreachable for p >= 3


@lru_cache(maxsize=None)
def unit_group_basis(p: int, gamma: int) -> UnitGroupBasis:
    """Canonical basis of (Z/p^gamma)^x."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    modulus = p**gamma
    if p == 2:
        if gamma == 1:
            gens: tuple[int, ...] = ()
            orders: tuple[int, ...] = ()
        elif gamma == 2:
            gens, orders = (3,), (2,)
        else:
            gens, orders = (modulus - 1, 5), (2, 2 ** (gamma - 2))
    else:
        g = _least_lifting_primitive_root(p)
        gens, orders = (g % modulus,), (p ** (gamma - 1) * (p - 1),)
    ofs = tuple(tuple(factor(o)) for o in orders)
    return UnitGroupBasis(p=p, gamma=gamma, modulus=modulus,
                          generators=gens, orders=orders, _order_factors=ofs)


def _bsgs(g: int, h: int, modulus: int, order: int) -> int:
    """Baby-step/giant-step: least x in [0, order) with g^x = h mod modulus."""
    m = math.isqrt(order - 1) + 1
    table: dict[int, int] = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = e * g % modulus
    # giant stride g^{-m}
    stride = pow(g, -m, modulus)
    y = h % modulus
    for i in range(m + 1):
        j = table.get(y)
        if j is not None:
            x = i * m + j
            if x < order:
                return x
        y = y * stride % modulus
    raise ValueError(f"{h} is not in the subgroup generated by {g} mod {modulus}")


def _pohlig_hellman(g: int, h: int, modulus: int, order: int,
                    order_factors: tuple[tuple[int, int], ...]) -> int:
    """Discrete log in a cyclic group of known factored order.

    Per prime power l^e dividing the order, digits are recovered one at a
    time with a BSGS of size sqrt(l); the results are CRT-combined.
    """
    residues: list[tuple[int, int]] = []
    for ell, e in order_factors:
        le = ell**e
        g_i = pow(g, order // le, modulus)
        h_i = pow(h, order // le, modulus)
        x_i = 0
        gamma_base = pow(g_i, le // ell, modulus)  # order ell
        for k in range(e):
            exp = le // (ell ** (k + 1))
            target = pow(h_i * pow(g_i, -x_i, modulus) % modulus, exp, modulus)
            d = _bsgs(gamma_base, target, modulus, ell)
            x_i += d * ell**k
        residues.append((x_i, le))
    x, _ = crt_combine(residues)
    return x


def crt_combine(congruences) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) simultaneously; moduli need not be coprime.

    Returns (x, lcm of moduli) with 0 <= x < lcm; raises ValueError when
    the system is inconsistent.
    """
    x, m = 0, 1
    for r, mod in congruences:
        if mod == 1:
            continue
        g = math.gcd(m, mod)
        if (r - x) % g != 0:
            raise ValueError("inconsistent congruence system")
        lcm = m // g * mod
        t = ((r - x) // g * pow(m // g, -1, mod // g)) % (mod // g)
        x = (x + m * t) % lcm
        m = lcm
    return x, m


def discrete_log(x: int, basis: UnitGroupBasis) -> list[int]:
    """Exponent vector of x against ``basis``: prod g_i^e_i = x mod p^gamma."""
    modulus = basis.modulus
    x %= modulus
    if math.gcd(x, modulus) != 1:
        raise ValueError(f"gcd({x}, {modulus}) != 1: not a unit")
    if not basis.generators:
        return []
    if basis.p == 2 and len(basis.generators) == 2:
        # split off the {-1} component: x = (-1)^e1 * 5^e2 with e1 set by x mod 4
        e1 = 0 if x % 4 == 1 else 1
        y = x * pow(modulus - 1, e1, modulus) % modulus
        e2 = _pohlig_hellman(5, y, modulus, basis.orders[1], basis._order_factors[1])
        return [e1, e2]
    e = _pohlig_hellman(basis.generators[0], x, modulus,
                        basis.orders[0], basis._order_factors[0])
    return [e]


@_cached()
def dlog_table(p: int, gamma: int) -> np.ndarray:
    """Exponent vectors of every residue mod p^gamma against its basis.

    Row n is discrete_log(n) for a unit n and all -1 for a non-unit; the
    trivial group (p^gamma = 2) gets one all-zero column so that its
    non-units are marked too.  Built by walking the group once; cached per
    prime power, read-only.

    The walk g^0, g^1, ... of the last generator g is int64 and doubles:
    powers[k:2k] = powers[:k] g^k mod p^gamma.  Each factor is a residue
    below p^gamma <= ``DLOG_TABLE_CAP`` = 2^22, so each product is below
    p^(2 gamma) <= 2^44 < 2^63, and no Python int per element is made.
    """
    basis = unit_group_basis(p, gamma)
    modulus = basis.modulus
    if modulus > DLOG_TABLE_CAP:
        raise ValueError(f"dlog table for modulus {modulus} exceeds the size cap")
    table = np.full((modulus, max(1, len(basis.generators))), -1, dtype=np.int64)
    g, order = (basis.generators[-1], basis.orders[-1]) if basis.generators else (1, 1)
    powers = np.empty(order, dtype=np.int64)
    powers[0] = 1 % modulus
    k = 1
    while k < order:
        n = min(k, order - k)
        np.multiply(powers[:n], pow(g, k, modulus), out=powers[k:k + n])
        powers[k:k + n] %= modulus
        k += n
    js = np.arange(order)
    table[powers, -1] = js
    if len(basis.generators) == 2:  # 2^gamma = {+-1} x <5>: -5^j has vector (1, j)
        table[powers, 0] = 0
        negatives = modulus - powers
        table[negatives, 0] = 1
        table[negatives, 1] = js
    return table
