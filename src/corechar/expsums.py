"""Character sums, twisted sums, Dirichlet polynomials, and the shift
decomposition.

Two summation modes are used throughout.  When the terms are roots of
unity with exactly-known rational angles (pure character sums, polynomial
twists with rational coefficients), each term is an integer numerator over
one common denominator: the character's value numerators A(n) over its
order L, lifted to lcm(L, den) to add a twist's phase numerators over den.
``_exact_sum`` keeps the sum as an integer histogram (distinct numerators
mod D and their counts, numpy arrays) and takes its value once, as the
fsum of counts times the real and imaginary parts of ``root_values``.
``exact_angle_terms`` reads that histogram as a ``RationalAngle`` -> count
mapping, building a key only when one is read.  Otherwise one reducer,
``_blocked_sum``, evaluates the terms in fixed-size blocks and combines the
block sums left to right, so a result depends only on the window and the
summand.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .characters import VALUE_TABLE_CAP, DirichletCharacter, RationalAngle, root_values

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

# Term-by-term exact angle accumulation is used up to this many terms.
_EXACT_CAP = 10**7
_BLOCK = 1 << 16


@dataclass(frozen=True)
class RealPolynomial:
    """A polynomial with real (float or exact rational) coefficients.

    ``coefficients[i]`` is the coefficient of x^i, constant term included.
    """

    coefficients: tuple

    @classmethod
    def make(cls, coeffs) -> "RealPolynomial":
        out = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                out.append(Fraction(c))
            else:
                out.append(float(c))
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return cls(tuple(out))

    @classmethod
    def zero(cls) -> "RealPolynomial":
        return cls((Fraction(0),))

    @property
    def degree(self) -> int:
        for i in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[i] != 0:
                return i
        return 0

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
        double precision otherwise (e(G(x)) is the same)."""
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
        den = 1
        for c in self.coefficients:
            den = math.lcm(den, c.denominator)
        nums = tuple(int(c * den) for c in self.coefficients)
        return nums, den

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


def _exact_sum(numerators, counts: np.ndarray, den: int, term_count: int) -> SumResult:
    """Exact-mode result for the terms e(numerators[i]/den), counts[i] of each.

    Numerators equal mod den merge before the value is taken.  They are
    int64 while den < 2^62 and Python ints beyond; counts keep their dtype."""
    a = np.asarray(numerators, dtype=np.int64 if den < 1 << 62 else object) % den
    keep = counts != 0
    a, where = np.unique(a[keep], return_inverse=True)
    merged = np.zeros(len(a), dtype=counts.dtype)
    np.add.at(merged, where, counts[keep])
    roots = root_values(a, den)
    weights = merged.astype(np.float64)
    value = complex(math.fsum(weights * roots.real), math.fsum(weights * roots.imag))
    return SumResult(value, term_count, "exact", AngleCounts(a, merged, den))


def _chi_values(chi: DirichletCharacter, ns: np.ndarray) -> np.ndarray:
    """chi(n) for each n of ns, from the value table when one exists."""
    if chi.q <= VALUE_TABLE_CAP:
        # ns may be an object array past 2^63; its residues fit int64
        return chi.value_table[1][(ns % chi.q).astype(np.int64)]
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
        xs = (xs % den).astype(np.int64)
    else:
        xs = xs.astype(object) % den
    acc = np.zeros_like(xs)
    for c in reversed(nums):
        acc = (acc * xs + c % den) % den
    return acc


def _blocks(M: int, N: int):
    """The window (M, M+N] as consecutive integer arrays of at most _BLOCK terms,
    int64 below 2^63 and Python ints beyond (np.arange would round through floats)."""
    for n0 in range(M + 1, M + N + 1, _BLOCK):
        size = min(_BLOCK, M + N + 1 - n0)
        yield n0 + np.arange(size, dtype=np.int64 if n0 + size <= 1 << 63 else object)


def _blocked_sum(block_terms, M: int, N: int) -> SumResult:
    """sum of block_terms(ns) over n in (M, M+N], float mode: the block sums
    over ``_blocks`` are combined left to right with fsum."""
    parts = [(float(np.sum(t.real)), float(np.sum(t.imag)))
             for t in map(block_terms, _blocks(M, N))]
    return SumResult(complex(*map(math.fsum, zip(*parts))), N, "float")


def char_sum(chi: DirichletCharacter, M: int, N: int) -> SumResult:
    """sum_{n=M+1}^{M+N} chi(n).

    Periodicity reduces the work to one pass over residues whenever a
    value table fits; the result is then exact.  Oversized moduli read
    ``angle_numerators`` block by block: per-block histograms merge into an
    exact result up to the term cap, float block sums are taken beyond it.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    q, L = chi.q, chi.order
    if q <= VALUE_TABLE_CAP:
        # N = periods * q + rem: whole periods, then rem residues from M + 1 on
        periods, rem = divmod(N, q)
        A = chi.value_table[0]
        tail = A[((M + 1) % q + np.arange(rem)) % q]
        full = np.bincount(A[A >= 0], minlength=L)
        part = np.bincount(tail[tail >= 0], minlength=L)
        # no count exceeds N: int64 is exact below 2^63, Python ints beyond
        counts = full.astype(np.int64 if N < 1 << 63 else object) * periods + part
        return _exact_sum(np.arange(L), counts, L, N)
    if N <= _EXACT_CAP:
        hists = [np.unique(A[A >= 0], return_counts=True)
                 for A in map(chi.angle_numerators, _blocks(M, N))]
        return _exact_sum(*map(np.concatenate, zip(*hists)), L, N)
    return _blocked_sum(lambda ns: _chi_values(chi, ns), M, N)


def twisted_sum(chi: DirichletCharacter, M: int, N: int, G: RealPolynomial) -> SumResult:
    """sum_{n=M+1}^{M+N} chi(n) e(G(n)); reduces to char_sum when G = 0.

    With rational G, a value table and at most 2*10^5 terms the result is
    an exact angle multiset; otherwise it is accumulated in float mode.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if G.is_zero:
        return char_sum(chi, M, N)
    q = chi.q
    if G.is_rational:
        nums, den = G.angle_data()
        if N <= 2 * 10**5 and q <= VALUE_TABLE_CAP:
            # chi(n) e(G(n)) = e(t(n)/D) with D = lcm(L, den) and
            # t(n) = A(n) D/L + num(n) D/den mod D, both addends below D:
            # int64 is exact while D < 2^62, Python ints beyond
            L = chi.order
            D = math.lcm(L, den)
            dtype = np.int64 if D < 1 << 62 else object
            A = chi.value_table[0][((M + 1) % q + np.arange(N)) % q]
            unit = A >= 0
            phase = _phase_numerators(nums, den, np.concatenate(list(_blocks(M, N))))[unit]
            terms = (A[unit].astype(dtype) * (D // L) + phase.astype(dtype) * (D // den)) % D
            return _exact_sum(terms, np.ones(len(terms), dtype=np.int64), D, N)
    return _blocked_sum(
        lambda ns: _chi_values(chi, ns) * np.exp(2j * np.pi * G.phases(ns)), M, N)


def dirichlet_poly(chi: DirichletCharacter, M: int, N: int, t: float) -> SumResult:
    """sum_{n=M+1}^{M+N} chi(n) n^{it} with n^{it} = e(t log n / 2 pi)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if M + 1 <= 0:
        raise ValueError("window must start at a positive integer")
    if t == 0:
        return char_sum(chi, M, N)
    return _blocked_sum(
        lambda ns: _chi_values(chi, ns) * np.exp(1j * t * np.log(ns.astype(np.float64))), M, N)


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
    """S = sum_{y,z=1}^{P} e(g(y z))."""
    if P < 1:
        raise ValueError("P must be >= 1")
    ys = np.arange(1, P + 1, dtype=np.int64)
    prods, counts = np.unique(np.outer(ys, ys), return_counts=True)
    if g.is_rational:
        nums, den = g.angle_data()
        return _exact_sum(_phase_numerators(nums, den, prods), counts, den, P * P)
    terms = counts * np.exp(2j * np.pi * g.phases(prods))
    return SumResult(complex(math.fsum(terms.real), math.fsum(terms.imag)), P * P, "float")


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
    q, and H_n(x) = G(n + core^s x).  The residual |S - core^{-2s} V| is
    checked against residual_constant * core^{3s}; the constant stands in
    for an unspecified absolute one and is echoed in the result.
    """
    if s < 2:
        raise ValueError("shift exponent s must be >= 2")
    q = chi.q
    coreq = chi.modulus.core
    P = coreq**s
    ns = [n for n in range(M + 1, M + N + 1) if math.gcd(n, q) == 1]
    work = len(ns) * P * P
    if work > work_budget or P * P > (1 << 26):
        raise ValueError(f"work {work} (grid {P}x{P}) exceeds budget {work_budget}")
    vals = chi.value_table[1]

    yz = np.outer(np.arange(1, P + 1, dtype=np.int64), np.arange(1, P + 1, dtype=np.int64))
    v_total = complex(0.0)
    for n in ns:
        nbar = pow(n, -1, q)
        idx = (1 + (P * nbar % q) * yz) % q
        inner = np.sum(vals[idx] * np.exp(2j * np.pi * G.phases(n + P * yz)))
        v_total += complex(vals[n % q]) * complex(inner)

    s_val = twisted_sum(chi, M, N, G).value
    recon = v_total / (P * P)
    residual = abs(s_val - recon)
    allowance = residual_constant * float(coreq) ** (3 * s)
    return DecomposeResult(
        v_value=v_total, reconstruction=recon, s_value=s_val,
        residual=residual, allowance=allowance, holds=residual <= allowance,
        shift_exponent=s, coprime_count=len(ns), term_count=work,
        residual_constant=residual_constant,
    )
