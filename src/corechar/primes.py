"""Von Mangoldt sums over progressions via a segmented sieve.

psi(x; q, a) is accumulated from the exact prime-power decomposition:
every contribution is log p with an integer multiplicity, so partition
identities across residue classes can be checked exactly on the
multiplicity level, independent of floating-point summation order.
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


def _primes_up_to(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def _iter_primes(limit: int) -> Iterator[np.ndarray]:
    """Primes up to ``limit`` in ascending segments of 2^20."""
    if limit < 2:
        return
    root = math.isqrt(limit)
    base = _primes_up_to(root)
    yield base[base <= limit]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        seg = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                seg[start - lo::p] = False
        yield (np.flatnonzero(seg) + lo).astype(np.int64)
        lo = hi + 1


@dataclass(frozen=True)
class PsiValue:
    """psi over a window, with the exact prime-power multiplicities.

    ``counts`` maps p -> number of powers p^j in the window and class;
    ``value`` is fsum(count * log p) over primes in ascending order.
    """

    value: float
    counts: Optional[dict[int, int]] = None


def _psi_window(lo: float, hi: float, q: int, a: int,
                with_counts: bool = False) -> PsiValue:
    """Sum of Lambda(n) over lo < n <= hi with n = a (mod q)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    hi_i = math.floor(hi)
    lo_i = math.floor(lo)
    if hi_i < 2 or hi_i <= lo_i:
        return PsiValue(0.0, {} if with_counts else None)
    a %= q
    counts: dict[int, int] = {}
    # primes themselves
    for seg in _iter_primes(hi_i):
        sel = seg[(seg > lo_i) & (seg % q == a)]
        for p in sel.tolist():
            counts[p] = counts.get(p, 0) + 1
    # higher prime powers: bases run up to sqrt(hi)
    for p in _primes_up_to(math.isqrt(hi_i)).tolist():
        n = p * p
        while n <= hi_i:
            if n > lo_i and n % q == a:
                counts[p] = counts.get(p, 0) + 1
            n *= p
    value = math.fsum(c * math.log(p) for p, c in sorted(counts.items()))
    return PsiValue(value, counts if with_counts else None)


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
    if q < 1:
        raise ValueError("q must be >= 1")
    hi_i = math.floor(x)
    counts: list[dict[int, int]] = [{} for _ in range(q)]
    if hi_i >= 2:
        for seg in _iter_primes(hi_i):
            residues = (seg % q).tolist()
            for p, res in zip(seg.tolist(), residues):
                c = counts[res]
                c[p] = c.get(p, 0) + 1
        for p in _primes_up_to(math.isqrt(hi_i)).tolist():
            n = p * p
            while n <= hi_i:
                c = counts[n % q]
                c[p] = c.get(p, 0) + 1
                n *= p
    out = {}
    for a in range(q):
        value = math.fsum(c * math.log(p) for p, c in sorted(counts[a].items()))
        out[a] = PsiValue(value, counts[a] if with_counts else None)
    return out


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
