"""Von Mangoldt, psi over progressions, and the short-interval comparison."""

import math
from collections import Counter

import numpy as np
import pytest

from corechar.primes import (
    _psi_window,
    psi,
    psi_by_class,
    psi_progression,
    short_interval_check,
    von_mangoldt,
)


def test_von_mangoldt_examples():
    assert von_mangoldt(8) == math.log(2)
    assert von_mangoldt(6) == 0.0
    assert von_mangoldt(7) == math.log(7)
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(2187) == math.log(3)


def test_psi_10():
    # n <= 10 contributing: 2,3,4,5,7,8,9
    expected = math.fsum(sorted([math.log(2)] * 3 + [math.log(3)] * 2
                                + [math.log(5), math.log(7)]))
    val = psi(10)
    assert val.value == pytest.approx(7.83201, abs=5e-6)
    assert abs(val.value - expected) < 1e-12


def test_psi_progression_examples():
    # n = a mod 3 with n <= 10, class 1: n = 4 (log 2) and n = 7 (log 7)
    v = psi_progression(10, 3, 1)
    assert v.value == math.fsum([math.log(2), math.log(7)])
    assert psi_progression(1.9, 1, 0).value == 0.0
    assert psi_progression(0, 5, 1).value == 0.0


def test_psi_progression_counts():
    v = psi_progression(100, 4, 1, with_counts=True)
    # powers of 3 that are 1 mod 4 and <= 100: 9 and 81; of 5: 5 and 25;
    # of 7: only 49 (7 itself is 3 mod 4); 2-powers are 0 mod 4
    assert v.counts[3] == 2
    assert v.counts[5] == 2
    assert v.counts[7] == 1
    assert 2 not in v.counts
    assert v.counts[13] == 1


def test_partition_reconstructs_psi_exactly():
    x = 10**5
    full = psi(x, with_counts=True)
    for q in (1, 2, 3, 12, 97):
        per_class = psi_by_class(x, q, with_counts=True)
        merged: dict[int, int] = {}
        for pv in per_class.values():
            for p, c in pv.counts.items():
                merged[p] = merged.get(p, 0) + c
        assert merged == full.counts
        # identical fsum over the same multiset reproduces the float value
        recombined = math.fsum(c * math.log(p) for p, c in sorted(merged.items()))
        assert recombined == full.value


def test_psi_trend_reported():
    vals = {k: psi(10**k).value for k in (3, 4, 5)}
    for k, v in vals.items():
        assert abs(v / 10**k - 1.0) < 0.06


def test_short_interval_check():
    rep = short_interval_check(27, 1, 10**5, 10**4)
    assert rep.main_term == pytest.approx(10**4 / 18)
    assert rep.rel_error < 0.2
    assert not rep.empty_interval
    # degenerate q = 1: PNT-scale agreement of the window with h
    rep = short_interval_check(1, 0, 10**5, 10**5)
    assert rep.main_term == 10**5
    assert rep.rel_error < 0.05
    # empty window
    rep = short_interval_check(10**6 + 3, 1, 10, 5)
    assert rep.empty_interval and rep.delta_psi == 0.0


def test_short_interval_rejects_bad_class():
    with pytest.raises(ValueError):
        short_interval_check(27, 3, 1000, 100)


def test_window_flags():
    rep = short_interval_check(27, 1, 10**6, 10**5, b=2.4, eps=0.05)
    assert rep.window_upper_ok  # h <= x <= q^(1/eps)
    assert not rep.window_lower_ok  # q x^(1-1/b+eps) is way above h at desk scale


def _sieved_counts(lo: int, hi: int, q: int, a: int) -> dict[int, int]:
    """Reference: a plain numpy sieve of all of [0, hi], keeping the prime
    powers n > lo with n = a (mod q)."""
    is_prime = np.ones(hi + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    primes = np.flatnonzero(is_prime)
    counts = Counter(primes[(primes > lo) & (primes % q == a % q)].tolist())
    for p in primes[primes <= math.isqrt(hi)].tolist():
        n = p * p
        while n <= hi:
            if n > lo and n % q == a % q:
                counts[p] += 1
            n *= p
    return dict(counts)


def _fsum_counts(counts: dict[int, int]) -> float:
    return math.fsum(c * math.log(p) for p, c in sorted(counts.items()))


@pytest.mark.parametrize("lo,hi,q,a", [
    (0, 10**4, 1, 0),                          # lo = 0
    (0, 10**5, 12, 5),
    (57, 10**4, 7, 10),                        # lo < sqrt(hi): base primes in the
                                               # window; a >= q is reduced mod q
    (8, 9, 1, 0),                              # 8 = 2^3 excluded, 9 = 3^2 included
    (7, 10**3, 4, 3),                          # the prime 7 = lo is excluded
    (8, 3**10, 4, 1),
    (2**20 - 5000, 2**20 + 5000, 5, 2),        # across 2^20
    (8451444, 10**7, 3, 2),                    # longer than one segment
    (1234.5, 98765.4, 1, 0),                   # q = 1, float endpoints
    (2**16 - 0.5, 2**16 + 10**4 + 0.25, 97, 2),
])
def test_window_matches_full_sieve(lo, hi, q, a):
    expected = _sieved_counts(math.floor(lo), math.floor(hi), q, a)
    got = _psi_window(lo, hi, q, a, with_counts=True)
    assert got.counts == expected
    assert got.value == _fsum_counts(expected)
    if lo == 0:
        assert psi_progression(hi, q, a, with_counts=True) == got
    else:
        assert short_interval_check(q, a, lo, hi - lo).delta_psi == got.value

