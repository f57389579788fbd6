"""Von Mangoldt sums over progressions via one windowed segmented sieve.

psi(x; q, a) is accumulated from the exact prime-power decomposition:
every contribution is log p with an integer multiplicity, so partition
identities across residue classes can be checked exactly on the
multiplicity level, independent of floating-point summation order.

One counting function serves every path.  It sieves only the terms
n = a + q·k of one progression in the window (lo, hi], in segments of 2^20
terms, and at odd q only the odd ones, with the base primes up to sqrt(hi)
read from the prime table, so a class's window costs O(h/q + sqrt(x)).
The higher powers p^j (j >= 2) are made in one pass over the base primes
(``_prime_powers``).  A class's multiplicities stay two int64 arrays,
ascending primes and their counts, and ``PsiCounts`` reads them as a
p -> count mapping.  All classes of a window are grouped by one sort of
packed (residue, position) keys.

The prime table.  One process-wide, read-only table holds the primes up to
a limit and their math.log values, taken bit for bit as one numpy call per
2^16 primes (``_math_logs``).  A call for primes up to n past the limit
grows it to the least power of two >= n, at most ``_TABLE_CAP`` = 2^22: the
same sieve applied to the new range alone, its base primes read from the
table, and the logs taken of the new primes only.  At the cap it holds
295,947 primes, 4.5 MiB with their logs; growing it from empty takes about
6 ms to 2^20 and 23 ms to the cap, 15-19 ms of them from 2^20 on (2-vCPU
shared host, two runs of each, best of 5), and then ``_primes_to(n)`` is a
slice for n <= 2^22, so every window with hi <= 2^44 gets its base primes
without sieving.  Every class of a window [0, hi] with hi <= 2^22 is read
from the table, logs included; other windows sieve their primes and take
their logs.  Its entries are primes <= 2^22 in int64 and their logs as
doubles; both arrays, and every slice of them, are read-only.

int64 exactness.  The sieve takes hi < 2^62 and raises beyond; a class
whose modulus exceeds hi is first restated under the modulus hi + 1, so
q <= 2^62, and an odd q < 2^62 is doubled, so the sieve's q and a < q stay
below 2^63.  Every base prime p is at most sqrt(hi) < 2^31.  Then:

- a term a + q·k is formed only for k up to (hi - a) // q, so it is <= hi,
  and so is every k and every offset between two k;
- a power p^j is formed only while it stays <= hi: a prime's largest
  exponent e is first estimated from below, and ``np.power`` makes p^e by
  squaring only while bits of e remain, so from powers p^i with i <= e;
  p^(e + 1) is formed only where p^e <= hi // p, and the powers p^2, ...,
  p^e of the window only up to the corrected e;
- the key r·(sqrt(hi) + 1) + p that merges the low entries of all classes
  is below 2^53: r < q <= 2^22 on every all-class caller and p < 2^31;
- a packed class key holds a residue below q and a position below
  sqrt(hi) + (hi - lo), and all classes are refused before anything is
  allocated unless their bits add up to at most 64;
- a multiple p·m of a base prime is formed with m <= max(p, ceil(n / p))
  for a term n <= hi, so p·m <= hi + sqrt(hi); the first multiple of p in
  the class, p·(m + d) with 0 <= d < q, is formed only once
  d <= (hi - p·m) // p, so it is <= hi;
- a·p^-1 mod q comes from products of two residues below q, so below
  q^2 < 2^62 while q < 2^31, and from Python ints past that (``_over``);
- an ``np.repeat`` array holds o - s·i, where the step s < 2^31 and i counts
  fewer than ``_REPEAT_CHUNK`` · ``_FEW`` = 2^16 strikes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .arith import _LOG_CHUNK, _cached, _math_logs, as_modulus, pow_or_inf

__all__ = [
    "psi_progression",
    "psi",
    "PsiCounts",
    "PsiValue",
    "PsiReport",
    "short_interval_check",
]

_SEGMENT = 1 << 20  # terms of the progression per segment
_FEW = 16  # a base prime with fewer strikes per segment strikes through np.repeat
_REPEAT_CHUNK = 1 << 12  # primes per np.repeat index array
_INVERSES_CAP = 1 << 12  # the largest q whose unit inverses are cached
_TABLE_CAP = 1 << 22  # the prime table's largest limit
_CLASSES_CAP = 1 << 22  # most classes mod q in one psi_by_class result


@_cached()
def _unit_inverses(q: int) -> np.ndarray:
    """r^-1 mod q at every unit r mod q and 0 elsewhere, int32 and read-only,
    for 2 <= q <= ``_INVERSES_CAP`` = 2^12: built once per q by ``_over``'s
    tree over the units, at most 16 KiB."""
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    table = np.zeros(q, dtype=np.int32)
    table[units] = _over(units, q, 1)
    return table


def _over(p: np.ndarray, q: int, a: int) -> np.ndarray:
    """a·p^-1 mod q for units p mod q, by one inverse of their product.

    Montgomery's batch inversion as a product tree: each level multiplies
    neighbours mod q, one ``pow`` inverts the root, scaled by a, and each
    level down gives a child its parent's value times its sibling's product.
    A node's value is a·(product of its leaves)^-1, so a leaf's is a·p^-1.
    Every factor is below q, so every product below q^2, which int64 holds
    while q < 2^31; from 2^31 on the tree is built of Python ints.

    When there are more p than residues mod q and q <= ``_INVERSES_CAP`` =
    2^12, every p reads p^-1 from the table of unit inverses mod q instead,
    and a·p^-1 is a product below 2^24.  The tables (``_unit_inverses``)
    are cached, so a window's sieve builds none of its own; a larger q runs
    the tree on p.
    """
    x = p % q
    if len(x) > q and q <= _INVERSES_CAP:
        return _unit_inverses(q)[x].astype(np.int64) * (a % q) % q
    if q >= 1 << 31:
        x = x.astype(object)
    tree = []
    while len(x) > 1:
        if len(x) % 2:
            x = np.append(x, np.ones(1, dtype=x.dtype))
        tree.append(x)
        x = x[0::2] * x[1::2] % q
    y = np.full(1, a * pow(int(x[0]), -1, q) % q, dtype=x.dtype)
    for x in reversed(tree):
        y = y[:len(x) // 2]
        z = np.empty_like(x)
        z[0::2] = y * x[1::2] % q
        z[1::2] = y * x[0::2] % q
        y = z
    return y[:len(p)].astype(np.int64)


def _first_strikes(p: np.ndarray, k: int, hi: int, q: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, step) for the base primes p that divide terms a + q·k' with
    k' >= k: first is the least such k' whose term is >= p^2, and step the
    distance in k' to the next, ascending by step.  A prime whose first such
    term lies past hi may be dropped.

    A prime dividing gcd(a, q) divides every term, so its step is 1.  Another
    prime dividing q divides none and is dropped.  Any other p divides the
    terms p·m with m = a·p^-1 (mod q), every p-th term.
    """
    g = math.gcd(a, q)
    n = a + q * k
    whole = p[g % p == 0]
    whole_first = np.maximum(k, -(-(whole * whole - a) // q))
    p = p[q % p != 0]
    m0 = _over(p, q, a) if a and p.size else np.zeros_like(p)  # a·p^-1 = 0 at a = 0
    m = np.maximum(p, -(-n // p))  # p·m is the least multiple of p >= max(p^2, n)
    pm = p * m
    d = (m0 - m) % q
    strikes = d <= (hi - pm) // p
    p, pm, d = p[strikes], pm[strikes], d[strikes]
    first = np.concatenate([whole_first, (pm + p * d - a) // q])
    return first, np.concatenate([np.ones_like(whole), p])


def _sieve(lo: int, hi: int, base: np.ndarray, q: int, a: int) -> Iterator[np.ndarray]:
    """Primes n = a + q·k in (lo, hi], 0 <= a < q, ascending, in segments of
    at most 2^20 terms of the progression.

    ``base`` holds every prime up to sqrt(hi), ascending.  Multiples of each
    base prime are struck from p^2 on, so the base primes themselves survive.
    A base prime no longer than the longest segment's span (q times its
    terms less one) strikes every step-th term from its first
    (``_first_strikes``): by one slice per segment when it has at least
    ``_FEW`` strikes there, else through one ``np.repeat`` index array per
    ``_REPEAT_CHUNK`` primes.  A longer prime has at most one multiple in a
    segment's span, its least multiple past the segment's first term, which
    strikes only if it lies in the class.
    """
    k = max(0, -(-(max(lo + 1, 2) - a) // q))
    end = (hi - a) // q  # the last k
    if k > end:
        return
    # the base primes no longer than the longest segment's span
    cut = int(np.searchsorted(base, q * (min(_SEGMENT, end - k + 1) - 1), side="right"))
    first, step = _first_strikes(base[:cut], k, hi, q, a)
    long = base[cut:]
    while k <= end:
        size = min(_SEGMENT, end - k + 1)
        seg = np.ones(size, dtype=bool)
        off = first - k
        off = np.maximum(off, off % step)  # the first strike at or past k
        many = int(np.searchsorted(step, size // _FEW, side="right"))
        for o, s in zip(off[:many].tolist(), step[:many].tolist()):
            seg[o::s] = False
        for i in range(many, len(step), _REPEAT_CHUNK):
            o, s = off[i:i + _REPEAT_CHUNK], step[i:i + _REPEAT_CHUNK]
            times = np.maximum(-((o - size) // s), 0)
            before = np.cumsum(times) - times
            seg[np.repeat(o - s * before, times)
                + np.repeat(s, times) * np.arange(before[-1] + times[-1])] = False
        start = a + q * k
        last = start + q * (size - 1)
        m = -start // long
        m *= long
        np.negative(m, out=m)
        sq = int(np.searchsorted(long, math.isqrt(start), side="right"))  # p^2 > start
        np.maximum(m[sq:], long[sq:] * long[sq:], out=m[sq:])
        m = m[m <= last]
        m = m[(m - a) % q == 0]
        seg[(m - start) // q] = False
        yield np.flatnonzero(seg) * q + start
        k += size


def _primes_in(lo: int, hi: int, base: np.ndarray, q: int = 1, a: int = 0) -> np.ndarray:
    """Primes n = a (mod q) in (lo, hi], 0 <= a < q, ascending.  At odd q the
    even terms hold no prime but 2, so only the odd terms, a progression
    mod 2q of half the terms, are sieved."""
    two = np.empty(0, dtype=np.int64)
    if q % 2:
        if (2 - a) % q == 0 and lo < 2 <= hi:
            two = np.array([2], dtype=np.int64)
        q, a = 2 * q, a if a % 2 else a + q
    return np.concatenate([two, *_sieve(lo, hi, base, q, a)])


# The prime table: (limit, the primes up to limit, their math.log), both
# arrays read-only.  One tuple, replaced whole when the table grows.
_table = (1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


def _prime_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes up to n <= ``_TABLE_CAP`` and their logs, as read-only
    views of the process-wide table.  A table short of n first grows to the
    least power of two >= n: the sieve of the new range alone, with its
    base primes read from the table, and the logs of the new primes."""
    global _table
    limit, primes, logs = _table
    if n > limit:
        grown = 1 << (n - 1).bit_length()
        base = _primes_to(math.isqrt(grown))  # may grow the table itself
        limit, primes, logs = _table
        more = _primes_in(limit, grown, base)
        primes, logs = np.concatenate([primes, more]), np.concatenate([logs, _math_logs(more)])
        primes.flags.writeable = logs.flags.writeable = False
        _table = (grown, primes, logs)
    k = int(np.searchsorted(primes, n, side="right"))
    return primes[:k], logs[:k]


def _primes_to(n: int) -> np.ndarray:
    """Every prime up to n: a slice of the table up to its cap, and past it
    the same sieve applied to (cap, n]."""
    if n <= _TABLE_CAP:
        return _prime_table(n)[0]
    return np.concatenate([_prime_table(_TABLE_CAP)[0],
                           _primes_in(_TABLE_CAP, n, _primes_to(math.isqrt(n)))])


def _prime_powers(base: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, p^j) for every base prime p and j >= 2 with lo < p^j <= hi,
    ascending by p, then by j; every p^2 <= hi.

    One pass: each prime's largest exponent e, with p^e <= hi < p^(e + 1),
    then its powers p^2, ..., p^e expanded by ``np.repeat``.  e is read from
    the logs less a relative margin of 2^-40, which the logs' few-ulp error
    cannot cross, so the estimate is e or e - 1 (the quotient is at most 62)
    and its power is <= hi; one comparison p^e <= hi // p corrects it exactly.
    A prime whose largest power is <= lo has none in the window and is
    dropped before the expansion."""
    e = np.floor(math.log(hi) / np.log(base) * (1 - 2.0**-40)).astype(np.int64)
    top = base ** e
    short = top <= hi // base
    e += short
    top[short] *= base[short]
    keep = top > lo
    p, e = base[keep], e[keep] - 1  # e - 1 powers p^2, ..., p^e each
    p = np.repeat(p, e)
    j = np.arange(2, len(p) + 2) - np.repeat(np.cumsum(e) - e, e)
    powers = p ** j
    inside = powers > lo
    return p[inside], powers[inside]


def _class_counts(lo: int, hi: int, q: int, a: Optional[int] = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(residues, primes, counts, logs) of the prime powers in (lo, hi]: one
    entry per prime p and class c mod q that holds a power p^j of the window,
    with the number of those powers, sorted by class, then by prime.  The
    entries are int64 arrays, but for all classes the residues come in the
    unsigned dtype of the packed class keys.  Only the class of a is sieved
    and kept when a is given.  Every class of a window [0, hi] within the
    table's cap is read from the table, and then logs holds each entry's
    math.log(p); else it is None.  ValueError, before anything is
    allocated, for all classes of q above ``_CLASSES_CAP`` = 2^22 or of a
    window whose packed class keys would need more than 64 bits.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if hi >= 1 << 62:
        raise ValueError(f"window end {hi} >= 2^62: the sieve's int64 arithmetic "
                         "is proved exact only below 2^62")
    if a is None:
        if q > _CLASSES_CAP:
            raise ValueError(f"q = {q} exceeds the cap of 2^22 classes in one psi_by_class result")
        # an entry's position is below sqrt(hi) + (hi - lo), the base primes
        # and the window's others
        if (q - 1).bit_length() + (math.isqrt(max(hi, 0)) + max(hi - lo, 0)).bit_length() > 64:
            raise ValueError(f"the classes mod {q} of a window of {hi - lo} integers "
                             "need class keys of more than 64 bits")
    else:
        a %= q
        if q > hi:
            # the class meets [0, hi] in a alone, if at all, and so does the
            # class of a mod hi + 1, which int64 holds
            if a > hi:
                return (np.empty(0, dtype=np.int64),) * 3 + (None,)
            q = max(hi, 0) + 1
    root = math.isqrt(max(hi, 0))
    base = _primes_to(root)
    logs = None
    if lo == 0 and hi <= _TABLE_CAP and (a is None or q == 1):
        primes, logs = _prime_table(hi)
    else:
        primes = _primes_in(lo, hi, base, *(() if a is None else (q, a)))
    split = int(np.searchsorted(primes, root, side="right"))
    # The low entries: the primes of the window up to sqrt(hi), then every
    # higher power p^j of the window, whose base p is a base prime, merged
    # to one count per (prime, class).
    p, powers = _prime_powers(base, lo, hi) if base.size else (base, base)
    high_p = primes[split:]
    if a is not None:
        # one class: merged on the key p alone, ascending
        in_class = powers % q == a
        low_p, low_c = np.unique(np.concatenate([primes[:split], p[in_class]]), return_counts=True)
        primes = np.concatenate([low_p, high_p])
        counts = np.concatenate([low_c, np.ones(len(high_p), dtype=np.int64)])
        if logs is not None:
            # the low primes are base primes, the table's first entries
            logs = np.concatenate([logs[np.searchsorted(base, low_p)], logs[split:]])
        return np.full(len(primes), a, dtype=np.int64), primes, counts, logs
    # All classes: the low entries merge on the key r·(root + 1) + p, so
    # they come by class, then by prime.  Every entry is then named by its
    # prime's position in src, the base primes followed by the window's
    # other primes (the window's primes themselves when it holds every base
    # prime, as the table's logs are), and one sort of the packed keys
    # (residue << bits | position), in uint32 when they fit, groups the
    # classes with each one's primes ascending, the low ones first.
    width = root + 1
    key = np.concatenate([primes[:split], powers]) % q
    key *= width
    key += np.concatenate([primes[:split], p])
    key, low_c = np.unique(key, return_counts=True)
    low_r, low_p = np.divmod(key, width)
    src = primes if split == len(base) else np.concatenate([base, high_p])
    n, nl, bits = len(low_p) + len(high_p), len(low_p), max(len(src) - 1, 0).bit_length()
    keys = np.empty(n, dtype=np.uint32 if (q - 1).bit_length() + bits <= 32 else np.uint64)
    keys[:nl] = low_r
    np.remainder(high_p, q, out=keys[nl:], casting="unsafe")
    keys <<= bits
    keys[:nl] |= np.searchsorted(base, low_p).astype(keys.dtype)
    keys[nl:] |= np.arange(len(base), len(src), dtype=keys.dtype)
    keys.sort()
    order = np.bitwise_and(keys, (1 << bits) - 1, out=np.empty(n, dtype=np.intp))
    keys >>= bits
    # the low entries keep their merged order, by class, then by prime
    counts = np.ones(n, dtype=np.int64)
    counts[order < len(base)] = low_c
    return keys, src[order], counts, None if logs is None else logs[order]


class PsiCounts(Mapping):
    """A class's prime-power multiplicities read as p -> count: int64 arrays
    of the ascending primes and their positive counts.  Read-only; equal to a
    dict with the same items, compared from either side."""

    __slots__ = ("primes", "counts")

    def __init__(self, primes: np.ndarray, counts: np.ndarray):
        self.primes, self.counts = primes, counts

    def _index(self, p) -> Optional[int]:
        if not isinstance(p, (int, np.integer)) or not 0 < p < 1 << 62:
            return None
        i = int(np.searchsorted(self.primes, p))
        return i if i < len(self.primes) and self.primes[i] == p else None

    def __getitem__(self, p) -> int:
        i = self._index(p)
        if i is None:
            raise KeyError(p)
        return int(self.counts[i])

    def __contains__(self, p) -> bool:
        return self._index(p) is not None

    def __iter__(self):
        return iter(self.primes.tolist())

    def __len__(self) -> int:
        return len(self.primes)

    def values(self) -> list[int]:
        return self.counts.tolist()

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self.primes.tolist(), self.counts.tolist()))

    def __eq__(self, other):
        if isinstance(other, PsiCounts):
            return (np.array_equal(self.primes, other.primes)
                    and np.array_equal(self.counts, other.counts))
        if not isinstance(other, Mapping):
            return NotImplemented
        # item by item, as dict equality does, without copying either side
        get = other.get
        return len(other) == len(self) and all(
            get(p) == c for p, c in zip(self.primes, self.counts))


@dataclass(frozen=True)
class PsiValue:
    """psi over a window, with the exact prime-power multiplicities.

    ``counts`` is a read-only ``PsiCounts`` mapping p -> number of powers p^j
    in the window and class; ``value`` is the correctly rounded fsum of
    count * log p.
    """

    value: float
    counts: Optional[PsiCounts] = None


def _psi_values(primes: np.ndarray, counts: np.ndarray, bounds: list[int],
                with_counts: bool, logs: Optional[np.ndarray] = None) -> list[PsiValue]:
    """One PsiValue per slice bounds[i]:bounds[i + 1] of the arrays.

    The value is the sum of the float terms t = count * math.log(p), rounded
    once, which is what math.fsum returns.  Proof that it is summed exactly:
    every t is at least log 2 > 1/2 (count >= 1, p >= 2) and below 64
    (count * log p <= log hi < 43, since the count powers of p are distinct
    and at most hi < 2^62).  A double in [1/2, 64) is a multiple of 2^-53, so
    t = m·2^-53 with an integer m < 2^59.  The m of one slice within one
    ``_LOG_CHUNK`` = 2^16 terms are summed (``np.add.reduceat``) as int64
    high and low 32-bit halves, below 2^16·2^27 and 2^16·2^32, and the
    halves and the chunks' sums are added as Python ints.  Python rounds
    an int to the nearest double, ties to even, as fsum rounds its exact sum,
    and the scaling by 2^-53 that follows is exact.

    Each log is math.log(p), bit for bit: ``logs``, when given, holds it
    for every entry, as the prime table does; else ``_math_logs`` takes it
    ``_LOG_CHUNK`` primes at a time, as the real part of numpy's complex
    log, which is the C library's log (real np.log is not).
    """
    cuts = np.asarray(bounds)
    sums = np.zeros(len(bounds) - 1, dtype=object)
    for lo in range(bounds[0], bounds[-1], _LOG_CHUNK):
        hi = min(lo + _LOG_CHUNK, bounds[-1])
        lg = logs[lo:hi] if logs is not None else _math_logs(primes[lo:hi])
        m = np.ldexp(counts[lo:hi] * lg, 53).astype(np.int64)
        # the slices that meet the chunk tile it: each one's sum runs from
        # its first entry in the chunk to the next one's
        at = np.clip(cuts, lo, hi) - lo
        meet = np.flatnonzero(at[:-1] < at[1:])
        starts = at[meet]
        high = np.add.reduceat(m >> 32, starts)
        m &= 0xFFFFFFFF
        sums[meet] += (high.astype(object) << 32) + np.add.reduceat(m, starts).astype(object)
    return [PsiValue(math.ldexp(float(total), -53),
                     PsiCounts(primes[i:j], counts[i:j]) if with_counts else None)
            for total, i, j in zip(sums.tolist(), bounds, bounds[1:])]


def _psi_window(lo: float, hi: float, q: int, a: int,
                with_counts: bool = False) -> PsiValue:
    """Sum of Lambda(n) over lo < n <= hi with n = a (mod q)."""
    _, primes, counts, logs = _class_counts(math.floor(lo), math.floor(hi), q, a)
    return _psi_values(primes, counts, [0, len(primes)], with_counts, logs)[0]


def psi_progression(x: float, q: int, a: int, with_counts: bool = False) -> PsiValue:
    """psi(x; q, a) = sum of Lambda(n) over n <= x, n = a (mod q), exactly
    decomposed into prime-power contributions."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return _psi_window(0.0, x, q, a, with_counts)


def psi(x: float, with_counts: bool = False) -> PsiValue:
    """Chebyshev psi(x), the q = 1 case."""
    return _psi_window(0.0, x, 1, 0, with_counts)


def psi_by_class(x: float, q: int, with_counts: bool = False) -> dict[int, PsiValue]:
    """psi(x; q, a) for every residue class a mod q in one sieve pass.

    The classes partition the prime powers, so the returned values merge
    exactly (multiplicity by multiplicity) into psi(x).  ValueError for q
    above ``_CLASSES_CAP`` = 2^22 (``_class_counts``), before anything is
    allocated: the result holds one entry per class.
    """
    residues, primes, counts, logs = _class_counts(0, math.floor(x), q)
    bounds = np.searchsorted(residues, np.arange(q + 1, dtype=residues.dtype)).tolist()
    return dict(enumerate(_psi_values(primes, counts, bounds, with_counts, logs)))


@dataclass(frozen=True)
class PsiReport:
    """Short-interval comparison against the expected density h/phi(q)."""

    q: int
    a: int
    x: float
    h: float
    delta_psi: float
    main_term: float
    rel_error: float
    theorem_error_shape: float
    b: float
    eps: float
    c0: float
    window_lower_ok: bool
    window_upper_ok: bool
    empty_interval: bool


def short_interval_check(q: int, a: int, x: float, h: float, b: float = 2.4,
                         eps: float = 0.05, c0: float = 1.0) -> PsiReport:
    """Compare psi(x+h; q, a) - psi(x; q, a) against h/phi(q).

    The admissible-window condition q x^(1-1/b+eps) <= h <= x <= q^(1/eps)
    is reported as flags, never enforced: desk-scale inputs routinely sit
    outside it.  A power that overflows a double reads as inf.  Errors unless
    b > 0 and eps > 0 (NaN fails both), and when gcd(a, q) > 1 (the class
    carries at most one prime power).

    The window's end is floor(x + h) of the exact values, an int as itself
    and a float as the rational it is, so that x + h rounded to a double
    (past 2^53) cannot move it.
    """
    if q < 1 or x < 0 or h <= 0 or not b > 0 or not eps > 0:  # NaN fails > 0
        raise ValueError("need q >= 1, x >= 0, h > 0, b > 0, eps > 0")
    if q > 1 and math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) > 1: class is essentially prime-free")
    window = _psi_window(x, math.floor(Fraction(x) + Fraction(h)), q, a)
    main = h / as_modulus(q).phi
    rel = abs(window.value - main) / main if main > 0 else math.inf
    lx = math.log(x) if x > 1 else 0.0
    shape = math.exp(-c0 * lx ** (1.0 / 3.0) * math.log(lx) ** (-1.0 / 3.0)) \
        if lx > 1 else 1.0
    lower_ok = q * pow_or_inf(x, 1.0 - 1.0 / b + eps) <= h
    upper_ok = h <= x <= pow_or_inf(float(q), 1.0 / eps) if q > 1 else h <= x
    return PsiReport(
        q=q, a=a % q, x=x, h=h,
        delta_psi=window.value, main_term=main, rel_error=rel,
        theorem_error_shape=shape, b=b, eps=eps, c0=c0,
        window_lower_ok=lower_ok, window_upper_ok=upper_ok,
        empty_interval=(window.value == 0.0),
    )
