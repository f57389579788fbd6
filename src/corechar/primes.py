"""Von Mangoldt sums over progressions via one windowed segmented sieve.

psi(x; q, a) is accumulated from the exact prime-power decomposition:
every contribution is log p with an integer multiplicity, so partition
identities across residue classes can be checked exactly on the
multiplicity level, independent of floating-point summation order.

One counting function serves every path.  It sieves only the window
(lo, hi], in segments of 2^20, with the base primes up to sqrt(hi) that
come from the same sieve applied to [2, sqrt(hi)], so a window costs
O(h + sqrt(x)).  The higher powers p^j (j >= 2) are made as arrays over the
base primes.  A class's multiplicities stay two int64 arrays, ascending
primes and their counts, and ``PsiCounts`` reads them as a p -> count
mapping.  Every intermediate is at most hi + sqrt(hi), so windows with
hi < 2^62 are exact in int64; beyond that the sieve raises.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .arith import as_modulus, factor, pow_or_inf

__all__ = [
    "von_mangoldt",
    "psi_progression",
    "psi",
    "PsiCounts",
    "PsiValue",
    "PsiReport",
    "short_interval_check",
]

_SEGMENT = 1 << 20
_LOG_CHUNK = 1 << 16  # primes per math.log chunk of _psi_values


def von_mangoldt(n: int) -> float:
    """log r when n is a power of the prime r, else 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    facs = factor(n)
    if len(facs) != 1:
        return 0.0
    return math.log(facs[0][0])


def _sieve(lo: int, hi: int, base: np.ndarray) -> Iterator[np.ndarray]:
    """Primes in (lo, hi], ascending, in segments of at most 2^20.

    ``base`` holds every prime up to sqrt(hi), ascending.  Multiples of each
    base prime are struck from max(p^2, first multiple >= segment start), so
    the base primes themselves survive.  Base primes shorter than the
    segment strike by slices; a longer one strikes it at most once, so all
    of those strike through one array of first multiples.
    """
    start = max(lo + 1, 2)
    while start <= hi:
        stop = min(start + _SEGMENT, hi + 1)
        seg = np.ones(stop - start, dtype=bool)
        short = int(np.searchsorted(base, stop - start))
        for p in base[:short].tolist():
            if p * p >= stop:
                break
            seg[max(p * p, -(-start // p) * p) - start::p] = False
        long = base[short:]
        first = np.maximum(long * long, -(-start // long) * long)
        seg[first[first < stop] - start] = False
        yield np.flatnonzero(seg) + start
        start = stop


def _primes_to(n: int) -> np.ndarray:
    """Every prime up to n: the same sieve, applied recursively to [2, n]."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(list(_sieve(0, n, _primes_to(math.isqrt(n)))))


def _class_counts(lo: int, hi: int, q: int,
                  a: Optional[int] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(residues, primes, counts) of the prime powers in (lo, hi]: one entry
    per prime p and class c mod q that holds a power p^j of the window, with
    the number of those powers.  The entries are int64 arrays sorted by class,
    then by prime.  Only the class of a is kept when a is given.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if hi >= 1 << 62:
        raise ValueError(f"window end {hi} >= 2^62: the sieve's int64 arithmetic "
                         "is proved exact only below 2^62")
    root = math.isqrt(max(hi, 0))
    base = _primes_to(root)
    segments = _sieve(lo, hi, base)
    if a is not None:
        segments = (seg[seg % q == a % q] for seg in segments)
    primes = np.concatenate([base[:0], *segments])
    split = int(np.searchsorted(primes, root, side="right"))
    # The low entries: the primes of the window up to sqrt(hi), then every
    # higher power pw = p^j of the window, whose base p is a base prime.
    # pw <= hi // p keeps every product pw * p <= hi.
    bases, powers = [primes[:split]], [primes[:split]]
    p, pw = base, base * base
    while p.size:
        inside = pw > lo
        bases.append(p[inside])
        powers.append(pw[inside])
        more = pw <= hi // p
        p = p[more]
        pw = pw[more] * p
    low_p, low_r = np.concatenate(bases), np.concatenate(powers) % q
    if a is not None:
        keep = low_r == a % q
        low_p, low_r = low_p[keep], low_r[keep]
    # one count per (prime, class) of the low entries, ascending by prime
    (low_p, low_r), low_c = np.unique(np.stack([low_p, low_r]), axis=1, return_counts=True)
    # Every low prime is <= sqrt(hi) < every other prime of the window, so
    # low entries put ahead of the others keep each class ascending under a
    # stable sort.
    high_p = primes[split:]
    residues = np.concatenate([low_r, high_p % q])
    primes = np.concatenate([low_p, high_p])
    counts = np.concatenate([low_c, np.ones(len(high_p), dtype=np.int64)])
    if a is None:
        # residues < q in the narrowest unsigned dtype: numpy's stable sort is
        # a radix sort on 8- and 16-bit keys
        order = np.argsort(residues.astype(np.min_scalar_type(q - 1)), kind="stable")
        residues, primes, counts = residues[order], primes[order], counts[order]
    return residues, primes, counts


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
                with_counts: bool) -> list[PsiValue]:
    """One PsiValue per slice bounds[i]:bounds[i + 1] of the arrays.

    math.log, not np.log: the two differ in the last bit at 44 primes below
    10^7, and fsum is correctly rounded, so the value is the same bits as a
    sum over any order of the same count * math.log(p) terms.  The logs are
    taken ``_LOG_CHUNK`` primes at a time and one fsum per slice reads all
    the chunks through one iterator, so no Python list spans a whole class.
    """
    def chunks(i: int, j: int):
        for lo in range(i, j, _LOG_CHUNK):
            hi = min(lo + _LOG_CHUNK, j)
            logs = np.fromiter(map(math.log, primes[lo:hi].tolist()), np.float64, hi - lo)
            yield (counts[lo:hi] * logs).tolist()
    return [PsiValue(math.fsum(chain.from_iterable(chunks(i, j))),
                     PsiCounts(primes[i:j], counts[i:j]) if with_counts else None)
            for i, j in zip(bounds, bounds[1:])]


def _psi_window(lo: float, hi: float, q: int, a: int,
                with_counts: bool = False) -> PsiValue:
    """Sum of Lambda(n) over lo < n <= hi with n = a (mod q)."""
    _, primes, counts = _class_counts(math.floor(lo), math.floor(hi), q, a)
    return _psi_values(primes, counts, [0, len(primes)], with_counts)[0]


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
    exactly (multiplicity by multiplicity) into psi(x).
    """
    residues, primes, counts = _class_counts(0, math.floor(x), q)
    bounds = np.searchsorted(residues, np.arange(q + 1)).tolist()
    return dict(enumerate(_psi_values(primes, counts, bounds, with_counts)))


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
    """
    if q < 1 or x < 0 or h <= 0 or not b > 0 or not eps > 0:  # NaN fails > 0
        raise ValueError("need q >= 1, x >= 0, h > 0, b > 0, eps > 0")
    if q > 1 and math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) > 1: class is essentially prime-free")
    window = _psi_window(x, x + h, q, a)
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
