"""Von Mangoldt sums over progressions via one windowed segmented sieve.

psi(x; q, a) is accumulated from the exact prime-power decomposition:
every contribution is log p with an integer multiplicity, so partition
identities across residue classes can be checked exactly on the
multiplicity level, independent of floating-point summation order.

One counting function serves every path.  It sieves [2, hi] in segments
of 2^20, with base primes up to sqrt(hi) that come from the same sieve
applied to [2, sqrt(hi)], keeps the primes of the window (lo, hi], and
counts the higher prime powers p^j (p <= sqrt(hi)) once.  A window costs
O(x); sieving only the window (ROADMAP item 3) would make it O(h + sqrt(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .arith import as_modulus, factor

__all__ = [
    "von_mangoldt",
    "psi_progression",
    "psi",
    "PsiValue",
    "PsiReport",
    "short_interval_check",
]

_SEGMENT = 1 << 20


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


def _sieve(hi: int, base: list[int]) -> Iterator[np.ndarray]:
    """Primes in [2, hi], ascending, in segments of 2^20.

    ``base`` holds every prime up to sqrt(hi).  Multiples of each base prime
    are struck from max(p^2, first multiple >= segment start), so the base
    primes themselves survive.
    """
    start = 2
    while start <= hi:
        stop = min(start + _SEGMENT, hi + 1)
        seg = np.ones(stop - start, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            seg[max(p * p, -(-start // p) * p) - start::p] = False
        yield np.flatnonzero(seg) + start
        start = stop


def _primes_to(n: int) -> list[int]:
    """Every prime up to n: the same sieve, applied recursively to [2, n]."""
    if n < 2:
        return []
    return [p for seg in _sieve(n, _primes_to(math.isqrt(n))) for p in seg.tolist()]


def _prime_power_counts(lo: int, hi: int, q: int,
                        a: Optional[int] = None) -> dict[int, dict[int, int]]:
    """{c: {p: number of p^j in (lo, hi] with p^j = c (mod q)}} for every
    class c mod q, or for the class of a alone when a is given.

    Each class dict lists the primes of the window in ascending order, then
    the bases of higher powers that are not primes of the window.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    classes = range(q) if a is None else (a % q,)
    counts: dict[int, dict[int, int]] = {c: {} for c in classes}
    base = _primes_to(math.isqrt(max(hi, 0)))
    for seg in _sieve(hi, base):
        seg = seg[seg > lo]
        residues = seg % q
        if a is not None:
            keep = residues == a % q
            seg, residues = seg[keep], residues[keep]
        for p, c in zip(seg.tolist(), residues.tolist()):
            counts[c][p] = 1
    # higher prime powers: their bases are exactly the base primes
    for p in base:
        n = p * p
        while n <= hi:
            cls = counts.get(n % q)
            if n > lo and cls is not None:
                cls[p] = cls.get(p, 0) + 1
            n *= p
    return counts


@dataclass(frozen=True)
class PsiValue:
    """psi over a window, with the exact prime-power multiplicities.

    ``counts`` maps p -> number of powers p^j in the window and class;
    ``value`` is fsum(count * log p) over primes in ascending order.
    """

    value: float
    counts: Optional[dict[int, int]] = None


def _psi_value(counts: dict[int, int], with_counts: bool) -> PsiValue:
    value = math.fsum(c * math.log(p) for p, c in sorted(counts.items()))
    return PsiValue(value, counts if with_counts else None)


def _psi_window(lo: float, hi: float, q: int, a: int,
                with_counts: bool = False) -> PsiValue:
    """Sum of Lambda(n) over lo < n <= hi with n = a (mod q)."""
    counts = _prime_power_counts(math.floor(lo), math.floor(hi), q, a)
    return _psi_value(counts[a % q], with_counts)


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
    counts = _prime_power_counts(0, math.floor(x), q)
    return {a: _psi_value(counts[a], with_counts) for a in range(q)}


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
    outside it.  Errors when gcd(a, q) > 1 (the class carries at most one
    prime power).
    """
    if q < 1 or x < 0 or h <= 0:
        raise ValueError("need q >= 1, x >= 0, h > 0")
    if q > 1 and math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) > 1: class is essentially prime-free")
    window = _psi_window(x, x + h, q, a)
    main = h / as_modulus(q).phi
    rel = abs(window.value - main) / main if main > 0 else math.inf
    lx = math.log(x) if x > 1 else 0.0
    shape = math.exp(-c0 * lx ** (1.0 / 3.0) * math.log(lx) ** (-1.0 / 3.0)) \
        if lx > 1 else 1.0
    lower_ok = q * x ** (1.0 - 1.0 / b + eps) <= h
    upper_ok = h <= x <= float(q) ** (1.0 / eps) if q > 1 else h <= x
    return PsiReport(
        q=q, a=a % q, x=x, h=h,
        delta_psi=window.value, main_term=main, rel_error=rel,
        theorem_error_shape=shape, b=b, eps=eps, c0=c0,
        window_lower_ok=lower_ok, window_upper_ok=upper_ok,
        empty_interval=(window.value == 0.0),
    )
