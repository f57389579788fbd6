"""Solution counting, rational approximation, and the double-sum inequality."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corechar import vinogradov
from corechar.vinogradov import (
    _entry_codes,
    count_vinogradov,
    count_vinogradov_naive,
    ford_bound,
    ford_k_search,
    korobov_check,
    rational_approx,
)


def test_trivial_counts():
    assert count_vinogradov(3, 2, 1) == 1
    for P in (1, 2, 5, 11):
        assert count_vinogradov(1, 1, P) == P
    assert count_vinogradov(2, 2, 3) == 15
    assert count_vinogradov(2, 1, 2) == 6


def test_derived_counts_against_naive():
    assert count_vinogradov_naive(2, 2, 3) == 15
    assert count_vinogradov_naive(2, 1, 2) == 6


@pytest.mark.parametrize("k,d,P", [
    (1, 1, 9), (1, 2, 9), (1, 3, 20),
    (2, 1, 5), (2, 2, 5), (2, 3, 5), (2, 4, 8),
    (3, 1, 3), (3, 2, 3), (3, 3, 4), (3, 4, 4),
])
def test_oracle_equivalence_grid(k, d, P):
    assert count_vinogradov(k, d, P) == count_vinogradov_naive(k, d, P)


def test_bounds_and_monotonicity():
    for (k, P) in ((2, 4), (3, 3)):
        prev = None
        for d in range(1, 5):
            n = count_vinogradov(k, d, P)
            assert P**k <= n <= P ** (2 * k)
            if prev is not None:
                assert n <= prev  # more equations, fewer solutions
            prev = n
    prev = None
    for P in range(1, 7):
        n = count_vinogradov(2, 2, P)
        if prev is not None:
            assert n >= prev  # larger box, more solutions
        prev = n


def test_bigint_path_matches_numpy_path(monkeypatch):
    # the codes are int64 while the radix product prod_r (k (P^r - 1) + 1)
    # is below 2^62: at k = 2, P = 4 it is 2.4e14 for d = 6 and 7.7e18 for
    # d = 7, the first object-array case; d = 30 and 31 stay far past it
    for d, dtype in ((6, np.int64), (7, object), (30, object), (31, object)):
        product = math.prod(2 * (4**r - 1) + 1 for r in range(1, d + 1))
        assert (product < 2**62) == (dtype is np.int64)
        assert _entry_codes(2, d, 4).dtype == dtype
    # count_vinogradov codes only the first min(d, k) power sums, so k = 2
    # counts on two int64 power sums at every d; at k = 7, P = 3 the seven
    # coded power sums have a radix product of 1.2e19, past 2^62
    assert _entry_codes(7, 7, 3).dtype == object
    coded = []
    monkeypatch.setattr(vinogradov, "_entry_codes",
                        lambda k, d, P: coded.append(d) or _entry_codes(k, d, P))
    cases = ((2, 6, 4), (2, 7, 4), (2, 30, 4), (2, 31, 4), (7, 7, 3), (7, 9, 3))
    for k, d, P in cases:
        assert count_vinogradov(k, d, P) == count_vinogradov_naive(k, d, P)
    assert coded == [min(d, k) for k, d, _ in cases]


def test_oracle_64_bit_guard():
    # the chunked all-pairs oracle stores power sums in int64 and refuses
    # k P^d >= 2^62: 2 * 50^10 is 2.0e17, 2 * 50^11 is 9.8e18
    assert count_vinogradov_naive(2, 10, 50) == count_vinogradov(2, 10, 50)
    with pytest.raises(ValueError, match="64-bit"):
        count_vinogradov_naive(2, 11, 50)


def test_budget_error():
    with pytest.raises(ValueError):
        count_vinogradov(8, 2, 100)


def test_tuple_budget_is_the_table_cap():
    # the largest set of tuple codes the budget admits is counted; one
    # tuple more is refused
    assert count_vinogradov(1, 1, 2**22) == 2**22
    with pytest.raises(ValueError):
        count_vinogradov(1, 1, 2**22 + 1)


def test_rational_approx_examples():
    assert rational_approx(Fraction(1, 3), 10) == (1, 3, 0.0)
    assert rational_approx(0, 7) == (0, 1, 0.0)
    a, b, theta = rational_approx(math.sqrt(2), 10)
    assert (a, b) == (7, 5)
    assert abs(theta) <= 1.0
    assert abs(math.sqrt(2) - 7 / 5 - theta / 25) < 1e-15


@pytest.mark.parametrize("alpha,bound", [
    (math.pi, 50), (-math.e, 30), (Fraction(355, 113), 50), (0.3333333333333, 10),
    (Fraction(-7, 250), 20),
])
def test_rational_approx_contract(alpha, bound):
    a, b, theta = rational_approx(alpha, bound)
    assert 1 <= b <= bound and math.gcd(a, b) == 1
    assert abs(theta) <= 1.0
    assert abs(float(alpha) - a / b - theta / b**2) < 1e-12


def test_korobov_all_unit_denominators():
    # g with integer coefficients: every b_r = 1, W = prod P^r, the bound is
    # enormously larger than |S|^(2k^2) <= P^(4k^2 )
    rep = korobov_check([Fraction(1), Fraction(2)], 2, 6)
    assert rep.Q == 1
    assert rep.W == float(6 * 36)
    assert rep.holds


def test_korobov_quadratic_example():
    rep = korobov_check([Fraction(0), Fraction(1, 5)], 2, 10)
    assert rep.d == 2 and rep.holds
    assert rep.vinogradov_count == count_vinogradov(2, 2, 10)


def test_korobov_rejects_degree_one():
    with pytest.raises(ValueError):
        korobov_check([Fraction(1, 2)], 2, 5)


def _campaign_instances(count, seed=20260809):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(2, 4)
        coeffs = []
        for r in range(d):
            den = rng.randint(1, 50)
            num = rng.randint(-3 * den, 3 * den)
            coeffs.append(Fraction(num, den))
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1, rng.randint(2, 50))
        P = rng.randint(2, 25)
        k = rng.randint(1, 3)
        out.append((coeffs, k, P))
    return out


def test_korobov_campaign_sample():
    for coeffs, k, P in _campaign_instances(25):
        rep = korobov_check(coeffs, k, P)
        assert rep.holds, (coeffs, k, P, rep.lhs_log, rep.rhs_log)
        for (_, b, theta) in rep.coefficient_approximations:
            assert b <= 50 and theta == 0.0


def test_ford_examples():
    assert abs(ford_bound(1, 10, 2) - (4 - 0.499) * math.log(10)) < 1e-12
    rep = ford_k_search(129, 10)
    assert rep.k_range == (2 * 129**2, 4 * 129**2)
    assert rep.meets_lemma_range
    # log10 of d^(3 d^3) for d = 129 is about 1.36e7
    log10_lead = 3 * 129**3 * math.log10(129)
    assert abs(log10_lead - 1.359e7) < 2e4
    # P = 1 makes every k equivalent; the scan settles on the lowest
    assert ford_k_search(3, 1).k == 18
    assert ford_k_search(2, 7).k == 8  # increasing in k, so min at 2 d^2


def test_ford_search_minimizes():
    rep = ford_k_search(4, 9)
    lo, hi = rep.k_range
    vals = [ford_bound(4, 9, k) for k in range(lo, hi + 1)]
    assert rep.log_bound == min(vals)
