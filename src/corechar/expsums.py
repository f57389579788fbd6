"""Character sums, twisted sums, Dirichlet polynomials, and the shift
decomposition.

Exact mode covers terms that are roots of unity with exact rational angles
(pure character sums, polynomial twists with rational coefficients): each
is an integer numerator over one denominator, chi's numerators A(n) over its
order L lifted to lcm(L, den) to add a twist's numerators over den.

Every window (M, M+N] is walked in the blocks of ``_spans``, and a reader
(n0, size) -> array gives a block's numerators or terms.  chi and a rational
twist e(G(n)) depend on n only mod q and mod den, so neither takes an n mod
m or a gather per block: a value-table character is tiled from its table
into the block (``_tile``), and a twist with den <= min(N, _BLOCK), N
the number of terms twisted, is read as slices of one periodic extension
per call (``_periodic``) of its ``_residue_table``: G's numerators at the
den residues, and in float mode e(G(r)) at them, bit for bit the per-term
values.  Only the readers that need n itself take an array of the block's
integers (``_arange``): chi above the value-table cap, Horner's rule for a
larger den, and n^{it}.  An exact twisted window has one reader,
``_twisted_numerators``: a chi part plus a twist part, reduced once.

``_window_histogram`` counts an exact window in collections of at most
``_UNIQUE_CAP`` terms, one sort each, and whole periods (q, or lcm(q, den)
under a twist) once.  ``_exact_sum`` keeps that histogram (numpy arrays),
reads it as ``exact_angle_terms``, and takes its value from ``root_values``
chunk by chunk: counts times roots, their sum rounded once by ``_fsum``'s
integer bins (``_root_sum``), within the bound that ``_exact_sum`` derives.
Float mode has one reducer, ``_window_sum``: block sums combined left to
right, so a result depends only on the window and the summand; a sum that
is not finite raises.  ``decompose``'s V sums float ``twisted_sum``'s terms
weighted by ``_shift_weights``, and the head of ``lfunc.l_value_series`` is
one over the blocks' integers (``_blocked_sum``).

The workspace.  Each thread holds one ``_Workspace``, made once: two regions
of doubles, 2 MiB and 1 MiB (``_REGIONS``).  The first holds a window's
twist extension (up to 2 _BLOCK complex entries); the second a block's
terms: chi tiled from its table, its product with the twist, or an exact
block's t and t - D.  Once a window is counted, the same pages hold the
value's chunks (``_TWIST`` and the names after it give each place).  Each
region stays below numpy's 4 MiB huge-page threshold, so only the pages a
call touches become resident.  It exists because fresh block-sized arrays
cost page faults: each oracle or caller that frees large arrays lets glibc
return their pages, and every window faulted its extensions and products in
again, at about 1.94 us per 4 KiB page (a cold 1 MiB allocate-and-fill
550 us, a warm fill 54 us, on a 2-vCPU VM), a third of a float window's time.
No view of it escapes a call: readers hand their views only to the reducers
here, every ``SumResult`` value is a Python complex, and every
``AngleCounts`` array is a fresh array of the caller's own.  Within a thread
one window at a time uses it, so a reader is spent before the next window
starts.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .arith import _math_logs
from .characters import VALUE_TABLE_CAP, DirichletCharacter, RationalAngle, _root_values, root_values

__all__ = [
    "RealPolynomial",
    "SumResult",
    "DecomposeResult",
    "char_sum",
    "twisted_sum",
    "dirichlet_poly",
    "taylor_approx_poly",
    "double_sum",
    "decompose",
]

_EXACT_CAP = 10**7  # most terms of an exact char_sum above the value table cap
_TWISTED_EXACT_CAP = 2 * 10**5  # most terms of an exact twisted_sum (rational G)
_BLOCK = 1 << 16
_FSUM_FROM = 1024  # shortest array that _fsum bins: math.fsum is faster below
_FSUM_CHUNK = _BLOCK // 4
_UNIQUE_CAP = 1 << 20  # most terms of an aperiodic exact window sorted at once (8 MiB int64)
_FLOAT_EXACT = 1 << 53  # largest |x| that a float G evaluates at x itself
_GRID_CAP = 1 << 26  # most pairs (y, z) of a P x P grid that double_sum or decompose builds

# Workspace places, (region, offset in doubles).  A window's twist
# extension (up to 2 _BLOCK complex entries) and a block's terms (_BLOCK
# complex entries, or _BLOCK int64 t and as many t - D) ...
_TWIST, _TERMS, _LESS = (0, 0), (1, 0), (1, _BLOCK)
# ... and, once the window is counted, one chunk of _FSUM_CHUNK angles of
# _exact_sum (the roots, the weights, the real and imaginary products and
# _den_gcd's two arrays) and of _bin, all on pages a float window touches.
_C = _FSUM_CHUNK
_ROOTS, _WEIGHTS, _RE, _IM, _GCD = (0, 0), (0, 2 * _C), (0, 3 * _C), (0, 4 * _C), (0, 5 * _C)
_FRAC, _HIGH, _EXP = (1, 0), (1, _C), (1, 2 * _C)
# dirichlet_poly's chunks of _FSUM_CHUNK terms: log n, and the integers n,
# then their complex logs and then the exponent t log n, on the pages
# _exact_sum's chunks touch
_LOG_NS, _PHASES = (0, 0), (0, _C)
# doubles per region: each stays below numpy's 4 MiB huge-page threshold, so
# only the pages a call touches become resident
_REGIONS = (4 * _BLOCK, 2 * _BLOCK)


class _Workspace(threading.local):
    """One thread's workspace: the ``_REGIONS``, 3 MiB, made once; pages
    are touched only as they are used."""

    def __init__(self):
        self.regions = tuple(np.empty(n, dtype=np.float64) for n in _REGIONS)

    def take(self, place: tuple[int, int], n: int, dtype) -> np.ndarray:
        """n entries of dtype at ``place``, (region, offset in doubles)."""
        region, offset = place
        view = self.regions[region][offset:].view(dtype)[:n]
        if len(view) < n:
            raise ValueError(f"{n} entries of {np.dtype(dtype)} overrun workspace region {region}")
        return view


_WS = _Workspace()


@dataclass(frozen=True)
class RealPolynomial:
    """A polynomial with real (float or exact rational) coefficients.

    ``coefficients[i]`` is the coefficient of x^i, constant term included.
    """

    coefficients: tuple

    @classmethod
    def make(cls, coeffs) -> "RealPolynomial":
        out = [Fraction(c) if isinstance(c, (int, Fraction)) else float(c) for c in coeffs]
        if not all(math.isfinite(c) for c in out if isinstance(c, float)):
            raise ValueError("polynomial coefficients must be finite")
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return cls(tuple(out))

    @classmethod
    def zero(cls) -> "RealPolynomial":
        return cls((Fraction(0),))

    @property
    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coefficients) if c != 0), default=0)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    @property
    def is_rational(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coefficients)

    def eval_float(self, x):
        """G(x) in double precision; x may be a float or a float array."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + float(c)
        return acc

    def phases(self, xs) -> np.ndarray:
        """frac(G(x)) as float64 for every x of the integer array xs, from
        exact residues over the common denominator for rational G; G(x) in
        double precision otherwise (e(G(x)) is the same).  A float G's phase
        carries an absolute error of about |G(x)|·2^-53, and past |x| = 2^53
        x itself rounds, so ``twisted_sum`` and ``decompose`` refuse such
        windows (``_check_float_window``)."""
        if self.is_rational:
            nums, den = self.angle_data()
            return _phase_numerators(nums, den, xs).astype(np.float64) / den
        return self.eval_float(np.asarray(xs).astype(np.float64))

    def angle_data(self) -> tuple[tuple[int, ...], int]:
        """Numerators over a common denominator D, for exact mod-1 evaluation.

        frac(G(x)) = ((sum_i n_i x^i) mod D) / D for integer x, computable
        in modular integer arithmetic.
        """
        return self._angle_data

    @cached_property
    def _angle_data(self) -> tuple[tuple[int, ...], int]:
        if not self.is_rational:
            raise ValueError("polynomial has non-rational coefficients")
        den = math.lcm(*(c.denominator for c in self.coefficients))
        return tuple(int(c * den) for c in self.coefficients), den

    def frac_at(self, x: int) -> Fraction:
        """G(x) mod 1 as an exact fraction (rational coefficients only)."""
        nums, den = self.angle_data()
        acc = 0
        for c in reversed(nums):
            acc = (acc * x + c) % den
        return Fraction(acc, den)


@dataclass(frozen=True)
class SumResult:
    """Value of a finite exponential sum plus how it was accumulated.

    ``exact_angle_terms`` is present in exact mode: a multiset of the
    rational angles of the nonzero terms (terms where the character
    vanishes are counted in ``term_count`` but carry no angle), as a
    ``RationalAngle`` -> count mapping.
    """

    value: complex
    term_count: int
    mode: str
    exact_angle_terms: Optional[Mapping] = field(default=None, repr=False)

    @property
    def abs(self) -> float:
        return abs(self.value)


class AngleCounts(Mapping):
    """An exact sum's histogram read as RationalAngle -> count: the distinct
    numerators mod ``den`` (sorted) and their positive counts.  A key is built
    only when read.  As on a Counter, an absent angle reads 0 and equality
    ignores zero counts."""

    __slots__ = ("numerators", "counts", "den")

    def __init__(self, numerators: np.ndarray, counts: np.ndarray, den: int):
        self.numerators, self.counts, self.den = numerators, counts, den

    def _index(self, angle) -> Optional[int]:
        if not isinstance(angle, RationalAngle) or self.den % angle.denominator:
            return None
        a = angle.numerator * (self.den // angle.denominator)
        i = int(np.searchsorted(self.numerators, a))
        return i if i < len(self.numerators) and self.numerators[i] == a else None

    def __getitem__(self, angle) -> int:
        i = self._index(angle)
        return 0 if i is None else int(self.counts[i])

    def __contains__(self, angle) -> bool:
        return self._index(angle) is not None

    def __iter__(self):
        return (RationalAngle.of(int(a), self.den) for a in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def values(self) -> list[int]:
        return self.counts.tolist()

    def items(self) -> list[tuple[RationalAngle, int]]:
        return list(zip(self, self.values()))

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        return dict(self.items()) == {k: v for k, v in other.items() if v}


def _merge(numerators: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct numerators, ascending, and the sum of the counts of each.

    A function of its own so that its temporaries are freed before
    ``_exact_sum`` takes ``root_values``."""
    # numpy's stable sort (timsort) merges sorted runs: cheap on a window's histograms
    order = np.argsort(numerators, kind="stable")
    a, counts = numerators[order], counts[order]
    first = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))[:len(a)]
    return a[first], np.add.reduceat(counts, first)


def _fsum(x: np.ndarray) -> float:
    """math.fsum(x) of a float64 array x, bit for bit, from integer bins.

    np.frexp writes each finite double as f·2^e with 1/2 <= |f| < 1, so
    x = m·2^(e-53) with m = f·2^53 an integer, |m| < 2^53 (a subnormal's f
    has fewer bits, so its m is an integer too).  m splits into the integers
    h = floor(f·2^27), |h| <= 2^27, and l = (f·2^27 - h)·2^26 in [0, 2^26),
    m = h·2^26 + l; each step is exact in float64.  Per chunk of
    ``_FSUM_CHUNK`` = 2^14 doubles (``_bin``), binned by e, np.bincount sums
    the h and the l of each bin in float64.  Every partial sum is an integer
    below 2^14·2^27 = 2^41 < 2^53, so every addition is exact.  The bins add
    as Python ints into S with sum(x) = S·2^k exactly, k = (least e) - 53,
    and S·2^k is rounded once to the nearest double, ties to even
    (``_rounded``): by int to float for k >= 0, and by Python's correctly
    rounded int true division S / 2^-k for k < 0, subnormal results
    included.  math.fsum also returns the exact sum rounded to nearest, ties
    to even, and an exact zero as +0.0, as S = 0 gives, so the two agree bit
    for bit, however the terms are split into chunks.

    math.fsum itself takes arrays shorter than ``_FSUM_FROM``, where it is
    faster, arrays with a term that is not finite, and arrays whose sum of
    |x| could reach 2^1021, where fsum may raise on an intermediate
    overflow."""
    n = len(x)
    if n < _FSUM_FROM:
        return math.fsum(x)
    bins: dict[int, int] = {}
    if all(_bin(x[i:i + _FSUM_CHUNK], n, bins) for i in range(0, n, _FSUM_CHUNK)):
        return _rounded(bins)
    return math.fsum(x)


def _bin(x: np.ndarray, n: int, bins: dict[int, int]) -> bool:
    """Add the chunk x (at most ``_FSUM_CHUNK`` doubles) of an n-term sum to
    bins, exponent -> integer sum, as ``_fsum`` describes, in the
    workspace; False, adding nothing, where a term is not finite or the sum of
    n terms as large as x's could reach 2^1021."""
    m = len(x)
    f, e = np.frexp(x, out=(_WS.take(_FRAC, m, np.float64), _WS.take(_EXP, m, np.int64)))
    if not np.isfinite(f).all() or int(e.max()) + n.bit_length() > 1021:
        return False
    e0 = int(e.min())
    e -= e0
    f = np.ldexp(f, 27, out=f)
    h = np.floor(f, out=_WS.take(_HIGH, m, np.float64))
    f -= h
    for shift, half in ((26, h), (0, np.ldexp(f, 26, out=f))):
        sums = np.bincount(e, weights=half)
        for j in np.flatnonzero(sums).tolist():
            bins[e0 + j] = bins.get(e0 + j, 0) + (int(sums[j]) << shift)
    return True


def _rounded(bins: dict[int, int]) -> float:
    """The sum of ``_bin``'s bins rounded once to the nearest double."""
    if not bins:
        return 0.0
    low = min(bins)
    S, k = sum(v << (b - low) for b, v in bins.items()), low - 53
    return float(S << k) if k >= 0 else S / (1 << -k)


def _root_sum(a: np.ndarray, counts: np.ndarray, den: int) -> complex:
    """sum_i counts[i] e(a[i]/den) over distinct a in [0, den), each part the
    ``_fsum`` of counts times the roots' part.

    From ``_FSUM_FROM`` terms on the roots, weights and products are taken
    chunk by chunk of ``_FSUM_CHUNK`` in the workspace and binned as they
    come, so no window-length complex array exists; the sum is exact, so
    the chunks change no bit.  Shorter sums, and a chunk ``_bin`` refuses
    (counts near 2^1021 / n), take whole arrays through ``_fsum``."""
    n = len(a)
    if n >= _FSUM_FROM:
        re: dict[int, int] = {}
        im: dict[int, int] = {}
        if all(_bin(x, n, re) and _bin(y, n, im) for x, y in _weighted_roots(a, counts, den)):
            return complex(_rounded(re), _rounded(im))
    roots, weights = _root_values(a, den), counts.astype(np.float64)
    return complex(_fsum(weights * roots.real), _fsum(weights * roots.imag))


def _weighted_roots(a: np.ndarray, counts: np.ndarray, den: int):
    """(counts·cos, counts·sin) of the angles a/den, one chunk of
    ``_FSUM_CHUNK`` at a time, in the workspace, which the next chunk
    overwrites."""
    for i in range(0, len(a), _FSUM_CHUNK):
        m = min(_FSUM_CHUNK, len(a) - i)
        roots = _root_values(a[i:i + m], den, _WS.take(_ROOTS, m, np.complex128),
                             _WS.take(_GCD, 2 * m, np.int64))
        weights = _WS.take(_WEIGHTS, m, np.float64)
        weights[...] = counts[i:i + m]
        yield (np.multiply(weights, roots.real, out=_WS.take(_RE, m, np.float64)),
               np.multiply(weights, roots.imag, out=_WS.take(_IM, m, np.float64)))


def _exact_sum(numerators, counts: np.ndarray, den: int, term_count: int,
               value: Optional[complex] = None) -> SumResult:
    """Exact-mode result for the terms e(numerators[i]/den), counts[i] >= 1
    of each, every numerator in [0, den); its value is ``value`` when given.

    Numerators equal mod den merge before the value is taken, unless they
    are distinct and ascending already.  They are int64 while den < 2^62 and
    Python ints beyond; counts keep their dtype.

    The histogram is exact; the value is not the exact sum rounded once.
    ``_root_sum`` rounds each count (exact below 2^53), each part r of a
    root to r' with |r' - r| <= E u, u = 2^-53, and each product; only the
    products' sum is exact, rounded once.  E = 6 pi + 2 while den < 2^53
    (three roundings of theta = 2 pi a/d < 2 pi; np.sin and np.cos within
    2 ulp) and 10 pi + 2 beyond, where a/g and d round too.  So each part
    of the value is within (E + 2) n u + |part| u of the true part, n =
    sum(counts) <= term_count: 23 n u below den = 2^53, 36 n u beyond (a
    nonprincipal ``char_sum`` passes its remainder's value and units)."""
    a = np.asarray(numerators, dtype=np.int64 if den < 1 << 62 else object)
    if (a[1:] <= a[:-1]).any():
        a, counts = _merge(a, counts)
    value = _root_sum(a, counts, den) if value is None else value
    return SumResult(value, term_count, "exact", AngleCounts(a, counts, den))


def _residues(ns: np.ndarray, m: int) -> np.ndarray:
    """n mod m as int64 for every n of ns, an object array past 2^63."""
    return (ns % m).astype(np.int64, copy=False)


def _chi_numerators(chi: DirichletCharacter, ns: np.ndarray) -> np.ndarray:
    """``angle_numerators`` of ns, from the value table when one exists."""
    if chi.q <= VALUE_TABLE_CAP:
        return chi.value_table[0][_residues(ns, chi.q)]
    return chi.angle_numerators(ns)


def _chi_values(chi: DirichletCharacter, ns: np.ndarray) -> np.ndarray:
    """chi(n) for each n of ns, from the value table when one exists."""
    if chi.q <= VALUE_TABLE_CAP:
        return chi.value_table[1][_residues(ns, chi.q)]
    A = chi.angle_numerators(ns)
    return np.where(A >= 0, root_values(A, chi.order), 0j)


def _phase_numerators(nums, den: int, xs) -> np.ndarray:
    """(sum_i nums[i] x^i) mod den for every x of the integer array xs.

    Horner's rule on residues: with x, acc and c all in [0, den), each
    intermediate acc*x + c is at most den*(den-1) < den^2, so int64 is
    exact while den^2 <= 2^63.  Larger denominators run on Python ints.
    """
    xs = np.asarray(xs)
    if den * den <= 1 << 63:
        xs = _residues(xs, den)
    else:
        xs = xs.astype(object) % den
    acc = nums[-1] % den
    for c in reversed(nums[:-1]):
        acc = (acc * xs + c % den) % den
    return acc if isinstance(acc, np.ndarray) else np.full_like(xs, acc)


def _residue_table(G: RealPolynomial, N: int) -> Optional[np.ndarray]:
    """G's numerators (``_phase_numerators``) at the residues 0, ..., den-1
    when G is rational with den <= min(N, _BLOCK), N the number of terms it
    twists; None otherwise, and the twist runs Horner term by term."""
    if not G.is_rational:
        return None
    nums, den = G.angle_data()
    return _phase_numerators(nums, den, np.arange(den)) if den <= min(N, _BLOCK) else None


def _spans(M: int, N: int):
    """(n0, size) of each block of the window (M, M+N]: runs of at most
    ``_BLOCK`` consecutive integers n0, ..., n0 + size - 1.  Every window sum
    walks these blocks."""
    for n0 in range(M + 1, M + N + 1, _BLOCK):
        yield n0, min(_BLOCK, M + N + 1 - n0)


def _arange(n0: int, size: int) -> np.ndarray:
    """n0, ..., n0 + size - 1, int64 within [-2^63, 2^63) and Python ints
    beyond (np.arange would round through floats)."""
    return n0 + np.arange(size, dtype=np.int64 if -(1 << 63) <= n0 and n0 + size <= 1 << 63 else object)


def _count_up(n0: int, out: np.ndarray) -> np.ndarray:
    """out[i] = n0 + i for every i, n0 + len(out) <= 2^63, in place: n0,
    then copies of the filled prefix plus its length, each at most doubling
    it, as ``_tile`` fills."""
    out[:1] = n0
    k = 1
    while k < len(out):
        c = min(k, len(out) - k)
        np.add(out[:c], k, out=out[k:k + c])
        k += c
    return out


def _periodic(table: np.ndarray, N: int, at: tuple[int, int]):
    """(n0, size) -> table[(n0 + i) mod m], i < size, m = len(table), for the
    blocks of a window of N terms, read as a slice and never by a gather.

    With b = min(N, _BLOCK) the longest block, each block is a slice of one
    periodic extension of b + m - 1 entries (start n0 mod m <= m - 1, end
    below m - 1 + b), made in the workspace from ``at`` on (``_extend``):
    at most 2 _BLOCK - 1 entries, as a residue table has m <= b."""
    m = len(table)
    ext = _extend(table, min(N, _BLOCK) + m - 1, at)
    return lambda n0, size: ext[n0 % m:n0 % m + size]


def _extend(table: np.ndarray, length: int, at: tuple[int, int]) -> np.ndarray:
    """table repeated to ``length`` entries in the workspace from ``at``
    on (``_tile``)."""
    return _tile(table, 0, _WS.take(at, length, table.dtype))


def _tile(table: np.ndarray, r: int, out: np.ndarray) -> np.ndarray:
    """out[i] = table[(r + i) mod m], m = len(table), for every i: one period
    from residue r, then copies of the filled prefix, each at most doubling
    it and each starting at a multiple of m."""
    m, size = len(table), len(out)
    k = min(size, m - r)
    out[:k] = table[r:r + k]
    j = min(size - k, r)
    out[k:k + j] = table[:j]
    k += j
    while k < size:
        c = min(k, size - k)
        out[k:k + c] = out[:c]
        k += c
    return out


def _chi_reader(chi: DirichletCharacter, values: bool = False):
    """(n0, size) -> chi's numerators, or with ``values`` its values, at n0,
    ..., n0 + size - 1: the value table tiled into the workspace's block of
    terms when one exists (a view that the next block overwrites),
    ``_chi_numerators`` or ``_chi_values`` of the block's integers above the
    cap."""
    if chi.q <= VALUE_TABLE_CAP:
        table = chi.value_table[int(values)]
        return lambda n0, size: _tile(table, n0 % len(table), _WS.take(_TERMS, size, table.dtype))
    at = _chi_values if values else _chi_numerators
    return lambda n0, size: at(chi, _arange(n0, size))


def _twisted_terms(chi: DirichletCharacter, G: RealPolynomial, N: int):
    """(n0, size) -> chi(n) e(G(n)) for the blocks of a window of N terms:
    ``_chi_reader``'s values (alone when G = 0) times e(G) at the residues
    of ``_residue_table`` read as periodic slices, or else term by term, the
    same bits.  The terms are the workspace's block, which the next block
    overwrites."""
    values = _chi_reader(chi, values=True)
    if G.is_zero:
        return values
    table = _residue_table(G, N)
    if table is None:
        def twist(n0, size):
            return np.exp(2j * np.pi * G.phases(_arange(n0, size)))
    else:
        twist = _periodic(np.exp(2j * np.pi * (table.astype(np.float64) / len(table))), N, _TWIST)
    # np.multiply(values, twist), in this order: with FMA the imaginary part
    # of a complex product depends on the order of the operands
    return lambda n0, size: np.multiply(values(n0, size), twist(n0, size),
                                        out=_WS.take(_TERMS, size, np.complex128))


def _twisted_numerators(chi: DirichletCharacter, G: RealPolynomial, N: int, D: int):
    """(n0, size) -> t(n) for the n of the block, chi(n) e(G(n)) = e(t(n)/D),
    t negative where chi(n) = 0.

    t(n) = A(n) D/L + num(n) D/den mod D, L = chi.order: a chi part and a
    twist part, each below D, added and reduced by one conditional
    subtraction of D.  The chi part (-D off the units) is chi's D-scaled
    value table tiled into the block when q <= _BLOCK and D < 2^62, else
    ``_chi_reader``'s numerators times D/L.  The twist part is periodic
    slices of ``_residue_table`` (scaled by D/den beforehand while
    D < 2^62), else Horner's rule.  t is int64 while D < 2^62 and Python
    ints beyond, where the twist part is taken at the units alone."""
    (nums, den), L = G.angle_data(), chi.order
    table = _residue_table(G, N)
    wide = D >= 1 << 62
    dtype = object if wide else np.int64
    if chi.q <= _BLOCK and not wide:
        A = chi.value_table[0]
        scaled = np.where(A >= 0, A * (D // L), -D)

        def chi_part(n0, size):
            return _tile(scaled, n0 % len(scaled), _WS.take(_TERMS, size, np.int64))
    else:
        chi_numerators = _chi_reader(chi)

        def chi_part(n0, size):
            A = chi_numerators(n0, size)
            return np.where(A >= 0, A.astype(dtype, copy=False) * (D // L), -D)
    if table is None:
        def twist_part(n0, size, at=slice(None)):
            return _phase_numerators(nums, den, _arange(n0, size)[at]).astype(dtype, copy=False) * (D // den)
    elif wide:
        slices = _periodic(table, N, _TWIST)

        def twist_part(n0, size, at):
            return slices(n0, size)[at].astype(object) * (D // den)
    else:
        twist_part = _periodic(table * (D // den), N, _TWIST)

    def read(n0, size):
        t = chi_part(n0, size)
        if wide:
            # on Python ints the twist is taken at the units alone, where
            # t >= 0: a non-unit's t stays -D
            units = t >= 0
            t[units] += twist_part(n0, size, units)
            return np.where(t >= D, t - D, t)
        t += twist_part(n0, size)
        # t - D as uint64 wraps above t where 0 <= t < D, so the unsigned
        # minimum subtracts D exactly where t >= D; a negative t stays negative
        less = np.subtract(t, D, out=_WS.take(_LESS, size, np.int64))
        np.minimum(t.view(np.uint64), less.view(np.uint64), out=t.view(np.uint64))
        return t
    return read


def _window_histogram(read, M: int, N: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, counts) of the exact window of the terms e(t/den) over
    (M, M+N], t = read(n0, size) per block of ``_spans``, negative on a zero
    term: the counts (``_runs``) of each collection of at most
    ``_UNIQUE_CAP`` terms (``_collect``), concatenated and not merged.

    t depends on n only mod period, so N = k period + rem terms count the
    histogram of (M, M+period] k times and that of (M, M+rem] once.
    ``_UNIQUE_CAP`` is a multiple of ``_BLOCK``, so the blocks are those of
    ``_spans``, and a window of no whole period and at most ``_UNIQUE_CAP``
    terms is one collection: distinct and ascending.  The arrays returned
    are the caller's own."""
    k, rem = divmod(N, period)
    dtype = np.int64 if N < 1 << 63 else object  # no count exceeds N
    hists = [(a, c.astype(dtype, copy=False) * times)
             for times, n in ((k, period), (1, rem)) if times
             for i in range(0, n, _UNIQUE_CAP)
             for a, c in [_runs(_collect(read, M + i, min(_UNIQUE_CAP, n - i)))]]
    return tuple(map(np.concatenate, zip(*hists)))


def _collect(read, M: int, N: int) -> np.ndarray:
    """Every t of every block of (M, M+N], in one buffer of N entries, block
    after block."""
    buf = None
    for n0, size in _spans(M, N):
        t = read(n0, size)
        if buf is None:
            buf = np.empty(N, dtype=t.dtype)
        buf[n0 - M - 1:n0 - M - 1 + size] = t
    return buf


def _runs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct t >= 0 ascending, the count of each), as
    np.unique(t[t >= 0], return_counts=True) gives them, from t sorted in
    place."""
    t.sort()
    t = t[np.searchsorted(t, 0):]
    first = np.empty(len(t), dtype=np.bool_)
    first[:1] = True
    np.not_equal(t[1:], t[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return t[first], np.diff(first, append=len(t))


def _parts(t: np.ndarray) -> tuple[float, float]:
    """The sums of the real and of the imaginary parts of one block."""
    return float(np.sum(t.real)), float(np.sum(t.imag))


def _window_sum(read, M: int, N: int) -> SumResult:
    """sum over n in (M, M+N] in float mode: read(n0, size) gives the terms
    of each block of ``_spans(M, N)``, and the block sums are
    combined left to right with fsum.

    Every float term is bounded, so a sum that is not finite means a phase
    overflowed a double: ValueError, in place of numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore"):  # each block is freed before the next is read
        parts = [_parts(read(n0, size)) for n0, size in _spans(M, N)]
    value = complex(*map(math.fsum, zip(*parts)))
    if not cmath.isfinite(value):
        raise ValueError("float sum is not finite: a phase overflows a double")
    return SumResult(value, N, "float")


def _blocked_sum(block_terms, M: int, N: int) -> SumResult:
    """``_window_sum`` of block_terms(ns) over the integers ns of each block."""
    return _window_sum(lambda n0, size: block_terms(_arange(n0, size)), M, N)


def char_sum(chi: DirichletCharacter, M: int, N: int) -> SumResult:
    """sum_{n=M+1}^{M+N} chi(n).

    Exact whenever a value table fits or N <= ``_EXACT_CAP``: the histograms
    of one period q, counted once per whole period, and of the remainder
    merge into one result; whole periods of a nonprincipal character sum to
    exactly 0, so its value is the remainder window's, bit for bit (0 when
    q | N).  Beyond that, float block sums.  The histogram is exact; each
    part of the value is within 23 n 2^-53 of the true one (36 n 2^-53 from
    order 2^53 on), n the units of the summed window, plus the last rounding
    (``_exact_sum``).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if chi.q <= VALUE_TABLE_CAP or N <= _EXACT_CAP:
        k, rem = divmod(N, chi.q)
        value = None if chi.is_principal or not k else char_sum(chi, M, rem).value if rem else 0j
        return _exact_sum(*_window_histogram(_chi_reader(chi), M, N, chi.q), chi.order, N, value)
    return _window_sum(_chi_reader(chi, values=True), M, N)


def _check_float_window(G: RealPolynomial, lo: int, hi: int):
    """ValueError when G has a float coefficient and some x of [lo, hi] lies
    past 2^53 in size, where float64(x) is not x: G would be summed at the
    wrong points."""
    if not G.is_rational and max(abs(lo), abs(hi)) > _FLOAT_EXACT:
        x = hi if abs(hi) >= abs(lo) else lo
        raise ValueError(f"G has float coefficients and the window reaches x = {x}, past 2^53, "
                         "where float64 rounds x; give G rational coefficients")


def twisted_sum(chi: DirichletCharacter, M: int, N: int, G: RealPolynomial) -> SumResult:
    """sum_{n=M+1}^{M+N} chi(n) e(G(n)); reduces to char_sum when G = 0.

    With rational G and at most ``_TWISTED_EXACT_CAP`` terms the result is an
    exact angle multiset, for any modulus; otherwise it is taken in float mode.
    A G with float coefficients takes windows within |x| <= 2^53 only.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_float_window(G, M + 1, M + N)
    if G.is_zero:
        return char_sum(chi, M, N)
    if G.is_rational and N <= _TWISTED_EXACT_CAP:
        den = G.angle_data()[1]
        D = math.lcm(chi.order, den)
        hist = _window_histogram(_twisted_numerators(chi, G, N, D), M, N, math.lcm(chi.q, den))
        return _exact_sum(*hist, D, N)
    return _window_sum(_twisted_terms(chi, G, N), M, N)


def dirichlet_poly(chi: DirichletCharacter, M: int, N: int, t: float) -> SumResult:
    """sum_{n=M+1}^{M+N} chi(n) n^{it} with n^{it} = e(t log n / 2 pi)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if M + 1 <= 0:
        raise ValueError("window must start at a positive integer")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0:
        return char_sum(chi, M, N)
    return _window_sum(_dirichlet_terms(chi, t), M, N)


def _dirichlet_terms(chi: DirichletCharacter, t: float):
    """(n0, size) -> chi(n) n^{it} for n = n0, ..., n0 + size - 1: the bits
    of chi(n) * np.exp(1j * t * math.log(n)), each step written in place in
    the workspace, ``_FSUM_CHUNK`` terms at a time, into the block of
    ``_chi_reader``'s values, which the next block overwrites.  log n is
    libm's (``_math_logs``), whose bits do not depend on numpy's SIMD
    level, as real np.log's do."""
    values = _chi_reader(chi, values=True)

    def terms(n0, size):
        v = values(n0, size)
        for i in range(0, size, _C):
            m, n = min(_C, size - i), n0 + i
            x = _WS.take(_LOG_NS, m, np.float64)
            x[...] = _arange(n, m) if n + m > 1 << 63 else _count_up(n, _WS.take(_PHASES, m, np.int64))
            z = _WS.take(_PHASES, m, np.complex128)
            np.multiply(1j * t, _math_logs(x, out=x, work=z), out=z)
            # the operand order of chi * e(...), see _twisted_terms
            np.multiply(v[i:i + m], np.exp(z, out=z), out=v[i:i + m])
        return v
    return terms


def taylor_approx_poly(nu: int) -> RealPolynomial:
    """The phase polynomial G with (1+x)^{it} = e(t G(x)) (1 + O(|t| |x|^nu)).

    G(x) = F_{nu-1}(x) / (2 pi), degree nu - 1, the same for every t; for
    |x| <= 1/2 the error is at most 4 |t| |x|^nu.
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    coeffs = [0.0] + [(-1.0) ** (r - 1) / (2.0 * math.pi * r) for r in range(1, nu)]
    return RealPolynomial(tuple(coeffs))


def double_sum(g: RealPolynomial, P: int) -> SumResult:
    """S = sum_{y,z=1}^{P} e(g(y z)); P^2 is at most ``_GRID_CAP``."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if P * P > _GRID_CAP:
        raise ValueError(f"grid {P}x{P} exceeds {_GRID_CAP} pairs")
    ys = np.arange(1, P + 1, dtype=np.int64)
    prods, counts = np.unique(np.outer(ys, ys), return_counts=True)
    if g.is_rational:
        nums, den = g.angle_data()
        return _exact_sum(_phase_numerators(nums, den, prods), counts, den, P * P)
    terms = counts * np.exp(2j * np.pi * g.phases(prods))
    return SumResult(complex(_fsum(terms.real), _fsum(terms.imag)), P * P, "float")


def _shift_weights(P: int, M: int, N: int):
    """(n0, size) -> ``decompose``'s K(x) at x = n0, ..., n0 + size - 1: the
    sorted shifts P yz below k = x - M less those below k - N (k int64 at any
    M), as int32: K <= P^2 <= ``_GRID_CAP`` = 2^26."""
    ys = np.arange(1, P + 1, dtype=np.int64)
    shifts = np.sort(P * np.outer(ys, ys).ravel())

    def read(n0, size):
        k = np.arange(n0 - M, n0 - M + size, dtype=np.int64)
        K = np.searchsorted(shifts, k)
        k -= N
        K -= np.searchsorted(shifts, k)
        return K.astype(np.int32)
    return read


def _v_terms(chi: DirichletCharacter, G: RealPolynomial, M: int, N: int, P: int, coprime: int):
    """(read, M', N') such that ``_window_sum(read, M', N')`` is ``decompose``'s
    V, over the shorter of two equal sums.

    The walk: K(x) chi(x) e(G(x)) over the N + P^3 - P integers x of
    (M + P, M + N + P^3] (``_shift_weights``).  The runs: K(x) > 0 only on
    the runs (M + P m, M + P m + N] over the distinct products m = yz, so V
    is also the sum of c(m) chi(x) e(G(x)), x = n + P m, over the pairs of
    a unit n of (M, M+N] (x is a unit exactly when n is) and a distinct m,
    c(m) the number of pairs (y, z) with yz = m, read at flat pair indices;
    x is int64 within [-2^63, 2^63) and a Python int beyond.  As m runs over
    1..P at least, the runs are worth listing only when coprime P < the walk."""
    walk = N + P**3 - P
    if coprime * P < walk:
        ys = np.arange(1, P + 1, dtype=np.int64)
        c = np.bincount(np.outer(ys, ys).ravel())
        m = np.flatnonzero(c)
        if coprime * len(m) < walk:
            fits = -(1 << 63) <= M + 1 and M + N + P * int(m[-1]) < 1 << 63
            ns = M + 1 + np.arange(N, dtype=np.int64 if fits else object)
            ns, step, c = ns[np.gcd(_residues(ns, chi.q), chi.q) == 1], P * m, c[m]
            table = _residue_table(G, coprime * len(m))
            if table is not None:   # e(G(x)) read from its residue mod den
                table = np.exp(2j * np.pi * (table.astype(np.float64) / len(table)))

            def runs(n0, size):
                i, j = np.divmod(np.arange(n0 - 1, n0 - 1 + size), len(m))
                xs = ns[i] + step[j]
                twist = np.exp(2j * np.pi * G.phases(xs)) if table is None else table[_residues(xs, len(table))]
                return np.multiply(np.multiply(_chi_values(chi, xs), twist), c[j])
            return runs, 0, coprime * len(m)
    weights, terms = _shift_weights(P, M, N), _twisted_terms(chi, G, walk)

    def weighted(n0, size):
        w = weights(n0, size)  # first, so that its search arrays are gone before the terms exist
        t = terms(n0, size)
        return np.multiply(t, w, out=t)
    return weighted, M + P, walk


@dataclass(frozen=True)
class DecomposeResult:
    """Outcome of the shift decomposition S = core^{-2s} V + O(core^{3s})."""

    v_value: complex
    reconstruction: complex
    s_value: complex
    residual: float
    allowance: float
    holds: bool
    shift_exponent: int
    coprime_count: int
    term_count: int
    residual_constant: float


def decompose(chi: DirichletCharacter, M: int, N: int, G: RealPolynomial, s: int,
              residual_constant: float = 10.0, work_budget: float = 1e9) -> DecomposeResult:
    """Evaluate V = sum_{n in cN} chi(n) sum_{y,z <= core^s} chi(1 + core^s nbar y z) e(H_n(yz))
    and compare core^{-2s} V against the direct window sum.

    cN is the set of n in (M, M+N] coprime to q, nbar the inverse of n mod
    q, P = core^s and H_n(x) = G(n + P x).  A term is chi(x) e(G(x)) at x =
    n + P yz, as n (1 + P nbar yz) = x mod q, and x is a unit exactly when n
    is (P has every prime of q), so grouped by x in (M + P, M + N + P^3]
    V = sum_x K(x) chi(x) e(G(x)), K(x) = #{(y, z) : M < x - P yz <= M + N}:
    N + P^3 - P terms, which the budget bounds (``_v_terms`` sums fewer when
    it can), and P^2 shifts, which ``_GRID_CAP`` bounds; ``term_count`` is
    the grid's coprime_count P^2.  |S - core^{-2s} V| is checked against
    residual_constant * core^{3s}, a stand-in for an unspecified constant.
    A G with float coefficients takes x within |x| <= 2^53 only.
    """
    if s < 2:
        raise ValueError("shift exponent s must be >= 2")
    coreq = chi.modulus.core
    P = coreq**s
    signed_divisors = [(1, 1)]  # (d, mu(d)) over the squarefree d | q
    for p, _ in chi.modulus.factors:
        signed_divisors += [(d * p, -mu) for d, mu in signed_divisors]
    coprime = sum(mu * ((M + N) // d - M // d) for d, mu in signed_divisors)
    if P * P > _GRID_CAP:
        raise ValueError(f"grid {P}x{P} exceeds {_GRID_CAP} pairs")
    walk = N + P**3 - P
    if walk > work_budget:
        raise ValueError(f"window ({M + P}, {M + N + P**3}] of {walk} terms exceeds budget {work_budget}")
    _check_float_window(G, M + 1, M + N + P**3)
    s_val = twisted_sum(chi, M, N, G).value  # done before V's readers fill the workspace they share
    v_total = _window_sum(*_v_terms(chi, G, M, N, P, coprime)).value
    recon = v_total / (P * P)
    residual = abs(s_val - recon)
    allowance = residual_constant * float(coreq) ** (3 * s)
    return DecomposeResult(
        v_value=v_total, reconstruction=recon, s_value=s_val,
        residual=residual, allowance=allowance, holds=residual <= allowance,
        shift_exponent=s, coprime_count=coprime, term_count=coprime * P * P,
        residual_constant=residual_constant,
    )
