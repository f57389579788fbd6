"""Exact counting for the Vinogradov system and the double-sum inequality.

N_{k,d}(P) counts 2k-tuples (y, z) in [1,P]^{2k} whose first d power sums
agree.  The production count is meet-in-the-middle: it codes the signature
(sum y^r)_{r<=min(d,k)} of every k-tuple as one mixed-radix integer, the
sum of its entries' codes, and adds up squared code multiplicities; no
signature table is built.  Only the first min(d, k) power sums are coded:
by Newton's identities the first k fix a k-tuple's multiset.  A literal
all-pairs enumeration, with a signature table of its own, is kept
alongside as the independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arith import exp_or_inf
from .expsums import RealPolynomial, double_sum

__all__ = [
    "count_vinogradov",
    "count_vinogradov_naive",
    "rational_approx",
    "korobov_check",
    "KorobovReport",
    "ford_bound",
    "ford_k_search",
    "FordReport",
]

_TUPLE_BUDGET = 1 << 22  # k-tuples whose codes are held at once
_PAIR_BUDGET = 10**8  # 2k-tuples in the all-pairs oracle


def _entry_codes(k: int, d: int, P: int) -> np.ndarray:
    """c(y) = sum_r (y^r - 1) W_r for y = 1..P, W_r the product of the
    radices k (P^j - 1) + 1 for j > r.

    Power sum r of a k-tuple minus k lies in [0, k (P^r - 1)], so the sum of
    its entries' codes is an injective mixed-radix code of its signature.
    That sum is at most the radix product minus 1: the codes are int64 while
    the product is below 2^62, and Python ints (an object array) otherwise.
    """
    radices = [k * (P**r - 1) + 1 for r in range(1, d + 1)]
    dtype = np.int64 if math.prod(radices) < (1 << 62) else object
    ys = np.arange(1, P + 1, dtype=dtype)
    power = np.ones_like(ys)
    code = np.zeros_like(ys)
    for radix in radices:  # Horner: every step stays below the radix product
        power *= ys
        code *= radix
        code += power - 1
    return code


def count_vinogradov(k: int, d: int, P: int) -> int:
    """Exact N_{k,d}(P) = sum over signatures v of r(v)^2, r(v) the number
    of k-tuples with power sums v, counted on their signature codes.

    Errors when the P^k tuple codes would exceed ``_TUPLE_BUDGET``.
    """
    if k < 1 or d < 1 or P < 1:
        raise ValueError("need k, d, P >= 1")
    if P**k > _TUPLE_BUDGET:
        raise ValueError(f"the codes of {P}^{k} tuples exceed the budget")
    # Newton's identities: the first k power sums of a k-tuple fix its
    # multiset, hence every further power sum, so N_{k,d} = N_{k,k} for d > k
    codes = _entry_codes(k, min(d, k), P)
    tuple_codes = codes
    for _ in range(k - 1):
        tuple_codes = np.add.outer(tuple_codes, codes).ravel()
    _, counts = np.unique(tuple_codes, return_counts=True)
    # exact in int64: the sum is at most (P^k)^2 <= 2^44 under the table cap
    return int(np.dot(counts, counts))


def count_vinogradov_naive(k: int, d: int, P: int) -> int:
    """Independent oracle: enumerate all (y, z) pairs and compare power sums.

    Signatures are tuples of Python ints.  Literal 2k-fold iteration for
    small instances; a chunked all-pairs int64 comparison (still no
    multiplicity shortcut) above that.
    """
    if k < 1 or d < 1 or P < 1:
        raise ValueError("need k, d, P >= 1")
    pairs = P ** (2 * k)
    if pairs > _PAIR_BUDGET:
        raise ValueError(f"{pairs} pairs exceed the oracle budget")
    literal = pairs <= 4 * 10**6
    if not literal and k * P**d >= (1 << 62):
        raise ValueError("instance too large for the 64-bit all-pairs oracle")
    powers = [[y**r for r in range(1, d + 1)] for y in range(P + 1)]
    tuples = itertools.product(range(1, P + 1), repeat=k)
    sigs = [tuple(sum(powers[y][r] for y in t) for r in range(d)) for t in tuples]
    count = 0
    if literal:
        for sy in sigs:
            for sz in sigs:
                if sy == sz:
                    count += 1
        return count
    sigs_arr = np.array(sigs, dtype=np.int64)
    chunk = max(1, (1 << 24) // max(1, len(sigs_arr) * d))
    for start in range(0, len(sigs_arr), chunk):
        block = sigs_arr[start:start + chunk]
        eq = np.all(block[:, None, :] == sigs_arr[None, :, :], axis=2)
        count += int(np.sum(eq, dtype=np.int64))
    return count


def rational_approx(alpha, bound: int) -> tuple[int, int, float]:
    """Best rational a/b with b <= bound: alpha = a/b + theta/b^2, |theta| <= 1.

    Exact rationals whose denominator already fits return themselves with
    theta = 0; otherwise the last continued-fraction convergent with
    denominator <= bound is used (floats are first converted exactly).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    exact = Fraction(alpha)
    if exact.denominator <= bound:
        return exact.numerator, exact.denominator, 0.0
    # continued-fraction convergents h/k of the exact value
    h_prev, k_prev = 1, 0
    h, k = math.floor(exact), 1
    frac = exact - math.floor(exact)
    num, den = frac.numerator, frac.denominator
    while k <= bound and num != 0:
        a = den // num
        num, den = den - a * num, num
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if k > bound:
            h, k = h_prev, k_prev
            break
    theta = float((exact - Fraction(h, k)) * k * k)
    return h, k, theta


@dataclass(frozen=True)
class KorobovReport:
    """Both sides of the double-sum inequality, with everything that feeds it.

    lhs = |S|^(2k^2) for S = sum e(g(yz)); rhs is the product
    (64 k^2 log 3Q)^{d/2} * W * P^{2k(2k-1)} * N_{k,d}(P) with
    Q = max b_r and W = prod_r min(P^r, P^r b_r^{-1/2} + b_r^{1/2}).
    Comparison is done in log space with a small relative slack.
    """

    k: int
    d: int
    P: int
    Q: int
    W: float
    lhs: float
    rhs: float
    lhs_log: float
    rhs_log: float
    holds: bool
    vinogradov_count: int
    s_abs: float
    coefficient_approximations: tuple[tuple[int, int, float], ...]


def korobov_check(coefficients: Sequence, k: int, P: int,
                  denominator_bound: Optional[int] = None,
                  slack: float = 1e-9) -> KorobovReport:
    """Verify |S|^(2k^2) <= (64 k^2 log 3Q)^(d/2) W P^(2k(2k-1)) N_{k,d}(P).

    ``coefficients`` are (c_1 .. c_d) of g(x) = c_1 x + ... + c_d x^d (no
    constant term).  The approximations (a_r, b_r, theta_r) are derived,
    exactly for rational coefficients.
    """
    coeffs = [Fraction(c) if isinstance(c, (int, Fraction)) else float(c)
              for c in coefficients]
    d = len(coeffs)
    while d > 1 and coeffs[d - 1] == 0:
        d -= 1
    coeffs = coeffs[:d]
    if d < 2:
        raise ValueError("the double-sum inequality needs degree >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")

    approximations = []
    for c in coeffs:
        if isinstance(c, Fraction):
            approximations.append(rational_approx(c, max(1, c.denominator)))
        elif denominator_bound is not None:
            approximations.append(rational_approx(c, denominator_bound))
        else:
            raise ValueError("float coefficients need a denominator_bound")
    approximations = tuple(approximations)
    for (_, b, theta) in approximations:
        if b < 1 or abs(theta) > 1.0 + 1e-12:
            raise ValueError("approximations must have b >= 1 and |theta| <= 1")

    Q = max(b for _, b, _ in approximations)
    log_w = 0.0
    w = 1.0
    for r, (_, b, _) in enumerate(approximations, start=1):
        factor = min(float(P) ** r, float(P) ** r / math.sqrt(b) + math.sqrt(b))
        log_w += math.log(factor)
        w *= factor

    n_count = count_vinogradov(k, d, P)
    g = RealPolynomial.make([0] + list(coeffs))
    s_res = double_sum(g, P)
    s_abs = s_res.abs

    lhs_log = -math.inf if s_abs == 0.0 else 2 * k * k * math.log(s_abs)
    rhs_log = ((d / 2.0) * math.log(64.0 * k * k * math.log(3.0 * Q))
               + log_w + 2 * k * (2 * k - 1) * math.log(P) + math.log(n_count))
    holds = lhs_log <= rhs_log + math.log1p(slack)

    return KorobovReport(
        k=k, d=d, P=P, Q=Q, W=w,
        lhs=exp_or_inf(lhs_log), rhs=exp_or_inf(rhs_log),
        lhs_log=lhs_log, rhs_log=rhs_log, holds=holds,
        vinogradov_count=n_count, s_abs=s_abs,
        coefficient_approximations=approximations,
    )


@dataclass(frozen=True)
class FordReport:
    """log of the mean-value bound d^(3d^3) P^(2k - 0.499 d^2) at some k."""

    d: int
    P: int
    k: int
    log_bound: float
    k_range: tuple[int, int]
    meets_lemma_range: bool  # the guarantee is stated for d >= 129


def ford_bound(d: int, P: int, k: int) -> float:
    """log of d^(3d^3) * P^(2k - 0.499 d^2) (the value itself overflows)."""
    if d < 1 or P < 1 or k < 1:
        raise ValueError("need d, P, k >= 1")
    return 3.0 * d**3 * math.log(d) + (2.0 * k - 0.499 * d * d) * math.log(P)


def ford_k_search(d: int, P: int) -> FordReport:
    """The smallest log-bound over k in [2d^2, 4d^2], and the first k with it.

    ford_bound is nondecreasing in k: its slope is 2 log P >= 0, and
    rounding each step of the float expression is monotone.  The first
    minimum over the range is therefore always at k = 2d^2.
    """
    lo, hi = 2 * d * d, 4 * d * d
    return FordReport(d=d, P=P, k=lo, log_bound=ford_bound(d, P, lo),
                      k_range=(lo, hi), meets_lemma_range=d >= 129)
