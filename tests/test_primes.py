"""Psi over progressions and the short-interval comparison."""

import json
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from corechar import primes
from corechar.arith import _cache_clear
from corechar.cli import main
from corechar.primes import (
    _LOG_CHUNK,
    _TABLE_CAP,
    PsiCounts,
    _over,
    _prime_powers,
    _prime_table,
    _primes_to,
    _psi_values,
    _psi_window,
    psi,
    psi_by_class,
    psi_progression,
    short_interval_check,
)


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
    for q in (1, 2, 3, 4, 12, 64, 72, 97):
        per_class = psi_by_class(x, q, with_counts=True)
        merged: dict[int, int] = {}
        for pv in per_class.values():
            for p, c in pv.counts.items():
                merged[p] = merged.get(p, 0) + c
        assert merged == full.counts
        # identical fsum over the same multiset reproduces the float value
        recombined = math.fsum(c * math.log(p) for p, c in sorted(merged.items()))
        assert recombined == full.value


def test_psi_by_class_refuses_q_above_its_cap():
    """One entry per class: q past 2^22 is refused with a ValueError that
    names the bound, before the 8 TiB class array of q = 2^40 is allocated
    or q = 2^64 + 1 overflows int64."""
    for q in (2**40, 2**64 + 1):
        with pytest.raises(ValueError, match=r"cap of 2\^22 classes"):
            psi_by_class(1000, q)
    q = 10007
    per_class = psi_by_class(1000, q, with_counts=True)
    assert len(per_class) == q
    merged = Counter()
    for pv in per_class.values():
        merged.update(dict(pv.counts.items()))
    assert merged == Counter(dict(psi(1000, with_counts=True).counts.items()))


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


def test_window_flags_at_the_least_admissible_h():
    # h = ceil(q x^(1-1/b+eps)) is the least h the lower condition admits
    q, x, b, eps = 9, 10**6, 2.4, 0.05
    h = math.ceil(q * x ** (1 - 1 / b + eps))
    rep = short_interval_check(q, 1, x, h, b=b, eps=eps)
    assert rep.window_lower_ok and rep.window_upper_ok
    rep = short_interval_check(q, 1, x, h - 1, b=b, eps=eps)
    assert not rep.window_lower_ok and rep.window_upper_ok


def test_window_flags_read_an_overflowing_power_as_inf():
    # q^(1/eps) = 7^500 and x^(1-1/b+eps) = (1e6)^60.58 each overflow a double
    rep = short_interval_check(7, 1, 1e6, 1e5, eps=0.002)
    assert rep.window_lower_ok and rep.window_upper_ok
    rep = short_interval_check(7, 1, 1e6, 1e5, eps=60)
    assert not rep.window_lower_ok and not rep.window_upper_ok


@pytest.mark.parametrize("eps", [0, -0.05])
def test_short_interval_rejects_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps > 0"):
        short_interval_check(27, 1, 1000, 100, eps=eps)


@pytest.mark.parametrize("kwargs", [{"b": 0}, {"b": -1}, {"b": math.nan}, {"eps": math.nan}])
def test_short_interval_rejects_nonpositive_or_nan_b_and_eps(kwargs):
    """b = 0 would divide by zero; b = -1 and NaN would report flags silently."""
    with pytest.raises(ValueError, match="b > 0, eps > 0"):
        short_interval_check(27, 1, 1000, 100, **kwargs)


def _plain_primes(x: int) -> np.ndarray:
    """Every prime up to x, from a plain numpy sieve of [0, x]."""
    is_prime = np.ones(x + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.flatnonzero(is_prime)


def _sieved_counts(lo: int, hi: int, q: int, a: int) -> dict[int, int]:
    """Reference: a plain numpy sieve of all of [0, hi], keeping the prime
    powers n > lo with n = a (mod q)."""
    primes = _plain_primes(hi)
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
    (10**6 - 10, 10**6 + 10, 1, 0),            # every base prime longer than
                                               # the segment
    (2**20 - 3, 2**21 + 7, 2, 1),              # a full segment, then a short one
    (10**5, 2 * 10**5, 2, 0),                  # edge moduli: the class of 2
    (0, 3 * 10**5, 4, 0),
    (1000, 9 * 10**4, 4, 2),
    (3, 2**17 + 5, 2**10, 1),                  # 2^gamma
    (2**16, 2**16 + 3**9, 2**12, 2**11),       # an even class whose one prime
                                               # power, 2^11, is below the window
    (10**4, 3 * 10**5, 72, 5),                 # 2^a 3^b
    (10**3, 10**5, 2**5 * 3**4, 2**5 + 3**4),
    (500, 6 * 10**4, 2**3 * 3**2, 0),          # a class mod 72 with no prime power
    (0, 3 * 10**6, 2, 1),                      # progressions longer than one
    (10**7, 3.2 * 10**7, 5, 3),                # 2^20-term segment (odd q sieves
                                               # its odd terms alone)
    (0, 76 * 10**6, 72, 5),
    (10**4, 5 * 10**4, 2 * 10007, 10007),      # gcd(a, q) = 10007 > sqrt(hi)
    (0, 10**5, 2**6, 3),                       # 2^gamma and 2^a 3^b classes
    (0, 10**5, 2**5, 2),                       # whose window holds base primes,
    (10, 2 * 10**5, 2**3 * 3**2, 7),           # units and not
    (0, 10**5, 2**4 * 3**3, 3),
    (0, 10**5, 2**4 * 3**3, 2**4),
])
def test_window_matches_full_sieve(lo, hi, q, a):
    expected = _sieved_counts(math.floor(lo), math.floor(hi), q, a)
    got = _psi_window(lo, hi, q, a, with_counts=True)
    assert got.counts == expected
    assert got.value == _fsum_counts(expected)
    if lo == 0:
        assert psi_progression(hi, q, a, with_counts=True) == got
    elif math.gcd(a, q) == 1:  # short_interval_check takes units only
        assert short_interval_check(q, a, lo, hi - lo).delta_psi == got.value


def test_window_matches_full_sieve_at_random():
    """Seeded windows over moduli small and large, units and not, some
    classes past [0, hi] and a >= q."""
    rng = random.Random(23)
    for _ in range(500):
        hi = rng.randrange(1, 3 * 10**5)
        lo = rng.choice([0, rng.randrange(hi), hi - rng.randrange(min(hi, 10**3) + 1)])
        q = rng.choice([rng.randrange(1, 50), 2**rng.randrange(12), 2**rng.randrange(8) * 3**rng.randrange(6),
                        rng.randrange(1, 2 * hi + 2)])
        a = rng.randrange(3 * q)
        got = _psi_window(lo, hi, q, a, with_counts=True)
        assert got.counts == _sieved_counts(lo, hi, q, a), (lo, hi, q, a)


@pytest.mark.parametrize("q", [2**64 + 1, 2**62, 10**30])
def test_moduli_past_int64_answer_exactly(q):
    """Past the window's end the class holds a mod q alone, if anything."""
    assert _psi_window(1000, 1100, q, 1).value == 0.0
    assert _psi_window(1000, 1100, q, 1009, with_counts=True).counts == {1009: 1}
    assert _psi_window(1000, 1100, q, 1024 + q, with_counts=True).counts == {2: 1}
    assert _psi_window(1000, 1100, q, 1001, with_counts=True).counts == {}
    assert psi_progression(10**6, q, 3**12, with_counts=True).counts == {3: 1}
    rep = short_interval_check(q, 1, 1000, 100)
    assert rep.empty_interval and rep.delta_psi == 0.0 and rep.a == 1


def test_psi_values_are_fsum_bit_for_bit():
    """The integer sum rounds as fsum does: empty slices, counts > 1, log 2
    terms, and a slice longer than one log chunk."""
    rng = random.Random(7)
    n = _LOG_CHUNK + 5000
    primes = np.array([2 if rng.random() < 0.1 else rng.randrange(3, 2**31) for _ in range(n)],
                      dtype=np.int64)
    # count * log p <= log 2^62, as for the powers of a window below 2^62
    counts = np.array([rng.randint(1, int(62 / math.log2(p))) for p in primes.tolist()], dtype=np.int64)
    bounds = [0, 0, 1, 1, 17, 900, 900, 4000, n - 3, n]
    bounds[-2:-2] = sorted(rng.sample(range(4000, n - 3), 6))
    for i, v in enumerate(_psi_values(primes, counts, bounds, with_counts=False)):
        lo, hi = bounds[i], bounds[i + 1]
        expected = math.fsum(c * math.log(p) for p, c in zip(primes[lo:hi].tolist(), counts[lo:hi].tolist()))
        assert v.value.hex() == expected.hex(), (lo, hi)
    whole = _psi_values(primes, counts, [0, n], with_counts=False)[0].value
    assert whole == math.fsum(c * math.log(p) for p, c in zip(primes.tolist(), counts.tolist()))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first 12 prime bases decide every
    n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, j: int) -> int:
    """The integer j-th root of n >= 0."""
    r = round(n ** (1.0 / j))
    while r**j > n:
        r -= 1
    while (r + 1) ** j <= n:
        r += 1
    return r


def _miller_rabin_counts(lo: int, hi: int, q: int, a: int) -> dict[int, int]:
    """Prime-power multiplicities of (lo, hi] in the class of a mod q, by
    testing every n of the window in the class and every j-th root (j >= 2)
    in range."""
    counts = Counter(n for n in range(lo + 1 + (a - lo - 1) % q, hi + 1, q) if _is_prime(n))
    for j in range(2, hi.bit_length() + 1):
        for p in range(_iroot(lo, j) + 1, _iroot(hi, j) + 1):
            if pow(p, j, q) == a % q and _is_prime(p):
                counts[p] += 1
    return dict(counts)


@pytest.mark.parametrize("x", [
    10**12,
    1000003**2 - 5000,                         # holds the square of a prime
    10007**3 - 5000,                           # holds the cube of a prime
])
@pytest.mark.parametrize("q,a", [(1, 0), (27, 1), (5**3, 2)])
def test_window_at_1e12_matches_miller_rabin(x, q, a):
    h = 10**4
    expected = _miller_rabin_counts(x, x + h, q, a)
    got = _psi_window(x, x + h, q, a, with_counts=True)
    assert got.counts == expected
    assert got.value == _fsum_counts(expected)
    assert short_interval_check(q, a, x, h).delta_psi == got.value


def test_short_class_far_out_matches_miller_rabin():
    """Ten terms of a class mod q ~ sqrt(hi) / 10: nearly every base prime
    up to the span has its own residue mod q."""
    for lo, hi, q, a in [(10**14, 10**14 + 10**7, 10**6 + 3, 1),
                         (10**14, 10**14 + 10**7, 999983, 5),
                         (10**14, 10**14 + 2 * 10**7, 2 * 10**6, 3)]:
        expected = _miller_rabin_counts(lo, hi, q, a)
        got = _psi_window(lo, hi, q, a, with_counts=True)
        assert got.counts == expected, (lo, hi, q, a)
        assert got.value == _fsum_counts(expected)


@pytest.mark.parametrize("q", [2, 3, 2 * 3**4 * 2**5, 2 * (10**6 + 3), 2**31 - 2, 2**31, 2**40 + 30, 2**62 + 2,
                               primes._INVERSES_CAP + 2])
def test_batch_inverse_matches_pow(q):
    """a·p^-1 mod q for units p, on both sides of the int64 bound q < 2^31,
    at tree sizes odd and even, and with more p than residues: from the
    cached unit inverses at q = 2 and 3, by the tree on p above their cap."""
    rng = random.Random(q)
    units = [p for p in _primes_to(10**5).tolist() if q % p]
    for size in (1, 2, 3, 1000, 1001, 5000):
        p = np.array(rng.sample(units, size), dtype=np.int64)
        a = rng.randrange(1, q)
        assert _over(p, q, a).tolist() == [a * pow(r, -1, q) % q for r in p.tolist()]


@pytest.mark.parametrize("q", [14, 19, 20, 200])
def test_batch_inverse_takes_each_residue_once(monkeypatch, q):
    """With more base primes than residues mod q, every prime reads p^-1
    from the cached table of unit inverses mod q, which one tree over the
    units builds: the same a·p^-1 mod q as pow, and a second call at the
    same q builds no tree."""
    sizes = []

    def counted(p, q, a):
        sizes.append(len(p))
        return _over(p, q, a)
    monkeypatch.setattr(primes, "_over", counted)
    _cache_clear()
    p = np.array([r for r in _primes_to(20000).tolist() if q % r], dtype=np.int64)
    units = sum(math.gcd(r, q) == 1 for r in range(q))
    for a, built in ((1, [units]), (q - 1, [])):
        sizes.clear()
        got = primes._over(p, q, a)
        assert got.dtype == np.int64
        assert got.tolist() == [a * pow(r, -1, q) % q for r in p.tolist()]
        assert sizes == [len(p)] + built
    assert not primes._unit_inverses(q).flags.writeable


@pytest.mark.parametrize("q, a", [(360, 6), (360, 0), (5184, 12), (5184, 0)])
def test_first_strikes_match_pow(q, a):
    """(first, step) of every base prime at an even q with gcd(a, q) > 1
    and at a = 0, through the cached inverses (q = 360) and past them: the
    least k' >= k with p | a + q·k' and a + q·k' >= p^2, from
    k' = -a·q^-1 mod p by pow, every p-th term; step 1 for a prime that
    divides a and q; none for one that divides q alone; none past hi for
    the others."""
    base = _primes_to(10**4)
    k = 10**6
    hi = a + q * (k + 10**6)
    expected = []
    for p in base.tolist():
        least = max(k, -(-(p * p - a) // q))
        if q % p == 0:
            if a % p == 0:
                expected.append((least, 1))
            continue
        first = least + (-a * pow(q, -1, p) - least) % p
        if a + q * first <= hi:
            expected.append((first, p))
    first, step = primes._first_strikes(base, k, hi, q, a)
    assert sorted(zip(first.tolist(), step.tolist())) == sorted(expected)


_LOGS_ARE_MATH_LOG = """
import math, random
import numpy as np
from corechar.primes import _TABLE_CAP, _math_logs, _prime_table
rng = random.Random(2022)
n = np.concatenate([_prime_table(_TABLE_CAP)[0],
                    np.array([rng.randrange(1 << 22, 1 << 62) for _ in range(10**5)], dtype=np.int64)])
bad = [v for v, got in zip(n.tolist(), _math_logs(n).tolist()) if got != math.log(v)]
assert not bad, f"{len(bad)} logs differ from math.log, the first {bad[:5]}"
"""


def test_math_logs_are_math_log_bit_for_bit():
    """``_math_logs`` is math.log, bit for bit, at every prime of the table
    at its cap and at 10^5 seeded integers in [2^22, 2^62): in this process,
    and in a child with numpy's AVX512 dispatch switched off, in that
    child's environment only."""
    exec(_LOGS_ARE_MATH_LOG, {})
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    res = subprocess.run([sys.executable, "-c", _LOGS_ARE_MATH_LOG], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_sieve_refuses_past_int64_proof():
    with pytest.raises(ValueError, match="2\\^62"):
        psi(2**62)
    with pytest.raises(ValueError, match="2\\^62"):
        short_interval_check(27, 1, 2**62 - 10**4, 10**4)


def test_psi_counts_mapping_view():
    pv = psi_progression(10**4, 12, 5, with_counts=True)
    counts = pv.counts
    assert isinstance(counts, PsiCounts)
    as_dict = _sieved_counts(0, 10**4, 12, 5)
    assert counts == as_dict and as_dict == counts
    assert not counts != as_dict
    assert counts != {**as_dict, 5: 2} and {**as_dict, 5: 2} != counts
    assert counts != {p: c for p, c in as_dict.items() if p != 5}
    assert counts != {**as_dict, 10**9 + 7: 1}
    assert counts != {**as_dict, 5: 1.5}
    assert counts != list(as_dict.items())
    assert dict(counts) == as_dict and list(counts) == sorted(as_dict)
    assert counts[5] == 3 and counts[29] == 1 and counts.get(7) is None and 7 not in counts
    assert "5" not in counts and 5.5 not in counts and 2**70 not in counts
    with pytest.raises(KeyError):
        counts[7]
    with pytest.raises(TypeError):
        counts[5] = 2
    with pytest.raises(TypeError):
        del counts[5]
    assert not hasattr(counts, "update")
    round_trip = pickle.loads(pickle.dumps(pv))
    assert round_trip == pv and round_trip.counts == as_dict
    merged = Counter()
    merged.update(counts)
    merged.update(counts)
    assert merged == {p: 2 * c for p, c in as_dict.items()}


# The prime table.  Edges: around growth steps of a table grown from empty,
# and around its cap.
_EDGES = [2**10 - 1, 2**10, 2**10 + 1, 2**16 - 1, 2**16, 2**16 + 1,
          _TABLE_CAP - 1, _TABLE_CAP, _TABLE_CAP + 1]


def _plain_classes(x: int, q: int, lo: int = 0) -> dict[int, tuple[dict[int, int], float]]:
    """{a: (counts, value)} for every class a mod q: the prime-power
    multiplicities p -> count of (lo, x], from the plain sieve of [0, x],
    and their fsum."""
    primes_ = _plain_primes(x)
    bases, powers = [primes_], [primes_]
    p = primes_[primes_ <= math.isqrt(x)]
    pw = p * p
    while p.size:
        bases.append(p)
        powers.append(pw)
        more = pw <= x // p
        p, pw = p[more], pw[more] * p[more]
    power, base = np.concatenate(powers), np.concatenate(bases)
    inside = power > lo
    key = power[inside] % q * (x + 1) + base[inside]
    key, count = np.unique(key, return_counts=True)
    cls, base = np.divmod(key, x + 1)
    cuts = np.searchsorted(cls, np.arange(q + 1)).tolist()
    out = {}
    for a in range(q):
        counts = dict(zip(base[cuts[a]:cuts[a + 1]].tolist(), count[cuts[a]:cuts[a + 1]].tolist()))
        out[a] = (counts, _fsum_counts(counts))
    return out


def test_plain_classes_reference():
    """The reference partition merges into the full sieve's prime powers."""
    x = 10**4
    assert _plain_classes(x, 1)[0][0] == _sieved_counts(0, x, 1, 0)
    for q, a in [(12, 5), (72, 0), (2**10, 2**9)]:
        assert _plain_classes(x, q)[a][0] == _sieved_counts(0, x, q, a)


@pytest.mark.parametrize("descending", [False, True])
def test_primes_to_matches_a_numpy_sieve(cold_prime_table, descending):
    """The table's primes, grown small to large or at once to the largest,
    and past the cap the sieve of (cap, n] behind them."""
    ns = [0, 1, 2, 3, 4, 5, *_EDGES, 2**23 + 9]
    everything = _plain_primes(max(ns))
    for n in sorted(ns, reverse=descending):
        got = _primes_to(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, everything[everything <= n]), n
        got, logs = _prime_table(min(n, _TABLE_CAP))
        assert [math.log(p) for p in got.tolist()] == logs.tolist()
    assert primes._table[0] == _TABLE_CAP


def test_prime_table_is_read_only(cold_prime_table):
    """Every slice handed out is a read-only view, and growing the table
    leaves the views handed out before unchanged."""
    base = _primes_to(1000)
    table_primes, table_logs = _prime_table(5000)
    before = base.copy()
    _primes_to(10**5)
    _, grown_primes, grown_logs = primes._table
    for arr in (base, table_primes, table_logs, grown_primes, grown_logs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert np.array_equal(base, before)


@pytest.mark.parametrize("descending", [False, True])
def test_table_path_equals_a_plain_sieve(cold_prime_table, descending):
    """psi, psi_progression, psi_by_class and short_interval_check read the
    table bit for bit as a plain sieve reads its primes: around growth steps
    and the cap, with the table grown small to large or at once."""
    for x in sorted(_EDGES, reverse=descending):
        counts, value = _plain_classes(x, 1)[0]
        full = psi(x, with_counts=True)
        assert full.counts == counts and full.value.hex() == value.hex(), x
        assert psi_progression(x, 1, 0, with_counts=True) == full
        by_class = psi_by_class(x, 72, with_counts=True)
        for a, (counts, value) in _plain_classes(x, 72).items():
            assert by_class[a].counts == counts and by_class[a].value.hex() == value.hex(), (x, a)
        # a single class sieves its own progression
        assert psi_progression(x, 72, 5, with_counts=True) == by_class[5]
        # a short window whose base primes come from the table
        rep = short_interval_check(27, 1, x, 1000)
        assert rep.delta_psi.hex() == _fsum_counts(_sieved_counts(x, x + 1000, 27, 1)).hex(), x
    assert primes._table[0] == _TABLE_CAP


@pytest.mark.parametrize("x", [10**5, _TABLE_CAP, _TABLE_CAP + 1])
def test_partitions_at_edge_moduli(cold_prime_table, x):
    """Partitions from the table (x <= cap) and from the sieve (past it) at
    q = 1, 2^gamma and 2^a 3^b, against the plain sieve's classes."""
    for q in (1, 2, 4, 2**10, 72, 1296):
        by_class = psi_by_class(x, q, with_counts=True)
        assert list(by_class) == list(range(q))
        for a, (counts, value) in _plain_classes(x, q).items():
            assert by_class[a].counts == counts and by_class[a].value.hex() == value.hex(), (x, q, a)


def _window_classes(lo: int, hi: int, q: int) -> tuple[dict[int, tuple[PsiCounts, float]], np.dtype]:
    """{a: (counts, value)} for every class a mod q of the window (lo, hi]
    from one all-class ``_class_counts`` read by ``_psi_values``, and the
    dtype of its class keys."""
    residues, primes_, counts, logs = primes._class_counts(lo, hi, q)
    bounds = np.searchsorted(residues, np.arange(q + 1, dtype=residues.dtype)).tolist()
    values = _psi_values(primes_, counts, bounds, True, logs)
    return {a: (v.counts, v.value) for a, v in enumerate(values)}, residues.dtype


@pytest.mark.parametrize("lo,hi", [
    (10**5, 2 * 10**5),
    (1000, 9 * 10**4),                         # base primes inside the window
    (3, 2**17 + 5),
    (2**16, 2**16 + 3**9),                     # squares and cubes of base primes only
    (10**6 - 10, 10**6 + 10),
])
@pytest.mark.parametrize("q", [1, 2, 4, 2**10, 72, 1296])
def test_all_classes_of_a_short_window(lo, hi, q):
    """Every class of a window (lo, hi] with lo > 0, grouped by one sort of
    packed keys: the plain sieve's classes, and each class's own one-class
    window, bit for bit."""
    got, dtype = _window_classes(lo, hi, q)
    assert dtype == np.uint32
    for a, (counts, value) in _plain_classes(hi, q, lo).items():
        assert got[a][0] == counts and got[a][1].hex() == value.hex(), (lo, hi, q, a)
        one = _psi_window(lo, hi, q, a, with_counts=True)
        assert one.counts == got[a][0] and one.value.hex() == got[a][1].hex(), (lo, hi, q, a)


def test_class_keys_on_both_sides_of_uint32():
    """The packed keys are uint32 while the residue's bits and the
    position's add up to 32, uint64 past it, and the classes are the plain
    sieve's either way.  The window (10^5, 3·10^5] numbers its base primes
    and its other primes in 15 bits, so 2^17 classes fit 32 bits and
    2^17 + 1 do not."""
    lo, hi = 10**5, 3 * 10**5
    plain = _plain_primes(hi)
    root = math.isqrt(hi)
    positions = int(np.count_nonzero(plain <= root) + np.count_nonzero(plain > max(lo, root)))
    assert (positions - 1).bit_length() == 15
    for q, dtype in ((2**17, np.uint32), (2**17 + 1, np.uint64)):
        got, key_dtype = _window_classes(lo, hi, q)
        assert key_dtype == dtype
        for a, (counts, value) in _plain_classes(hi, q, lo).items():
            assert got[a][0] == counts and got[a][1].hex() == value.hex(), (q, a)


def _top_primes(n: int, k: int) -> list[int]:
    """The k largest primes <= n, or every one if fewer."""
    out = []
    while len(out) < k and n >= 2:
        if _is_prime(n):
            out.append(n)
        n -= 1
    return out


@pytest.mark.parametrize("lo,hi", [
    (0, 2**62 - 1),
    (2**62 - 2**33, 2**62 - 1),                # holds (2^31 - 1)^2 = 2^62 - 2^32 + 1
    (0, (2**31 - 1)**2),
    (0, (2**31 - 1)**2 - 1),
    (0, 3**39), (0, 3**39 - 1), (3**39 - 1, 3**39),
    (0, 2**61), (0, 2**61 - 1), (2**61 - 1, 2**62 - 1),
    (0, 7**22), (7**22, 2**62 - 1),
    (10**12, 10**12 + 10**4), (0, 4), (3, 4), (4, 8),
])
def test_prime_powers_stay_exact_below_2_62(lo, hi):
    """Each prime's largest exponent, read from the logs and corrected in
    int64, and the powers p^j (j >= 2) in (lo, hi], against Python ints:
    at windows ending just below 2^62, where the sieve's base primes (up to
    2^31) are too many to hold, and at exact prime powers and one below."""
    root = math.isqrt(hi)
    base = sorted({p for p in (2, 3, 5, 7, 11, 13, 1000003, 2**31 - 1) if p <= root}
                  | set(_top_primes(root, 3)))
    want = [(p, p**j) for p in base for j in range(2, hi.bit_length() + 1) if lo < p**j <= hi]
    p, powers = _prime_powers(np.array(base, dtype=np.int64), lo, hi)
    assert p.dtype == powers.dtype == np.int64
    assert list(zip(p.tolist(), powers.tolist())) == want


def test_all_classes_refuse_wide_keys_before_allocating(monkeypatch):
    """All classes of q past 2^22, or of a window whose class keys need more
    than 64 bits (the residue's and a position's below sqrt(hi) + (hi - lo)),
    are refused before the base primes are read; 64 bits pass."""
    def no_sieve(n):
        raise AssertionError("reached the sieve")
    monkeypatch.setattr(primes, "_primes_to", no_sieve)
    with pytest.raises(ValueError, match=r"cap of 2\^22 classes"):
        primes._class_counts(0, 1000, 2**22 + 1)
    with pytest.raises(ValueError, match="more than 64 bits"):
        primes._class_counts(0, 2**61, 2**22)
    with pytest.raises(ValueError, match="more than 64 bits"):
        primes._class_counts(2**61 - 2**44, 2**61, 2**20)    # 20 + 45 bits
    with pytest.raises(AssertionError, match="reached the sieve"):
        primes._class_counts(2**61 - 2**43, 2**61, 2**20)    # 20 + 44 bits


# 2^53 + 5 is prime; the float sum 2^53 + 4 + 1.0 rounds to 2^53 + 4.
_PAST_2_53 = 2**53 + 4


def test_window_end_is_exact_past_2_53():
    """floor(x + h) from the exact values: the float x and h of a window
    past 2^53 give the int window's value, where x + h rounded to a double
    made the window empty."""
    assert _is_prime(_PAST_2_53 + 1) and float(_PAST_2_53) + 1.0 == float(_PAST_2_53)
    want = math.log(_PAST_2_53 + 1)
    exact = short_interval_check(1, 0, _PAST_2_53, 1)
    assert exact.delta_psi == want and not exact.empty_interval
    assert short_interval_check(1, 0, float(_PAST_2_53), 1.0).delta_psi == want
    assert short_interval_check(1, 0, float(_PAST_2_53), 1.5).delta_psi == want
    # below 2^53 the float end is exact anyway
    assert short_interval_check(27, 1, 1000.5, 108.75).delta_psi == \
        _fsum_counts(_sieved_counts(1000, 1109, 27, 1))


def test_cli_keeps_integer_windows_exact(capsys):
    """psi-progression reads integer --x and --h as ints: past 2^53 the
    window (x, x + h] is the one asked for, and x prints as given."""
    argv = ["psi-progression", "--q", "1", "--a", "0", "--x", str(_PAST_2_53), "--h", "1"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["x"] == _PAST_2_53 and data["h"] == 1
    assert data["delta_psi"] == float(f"{math.log(_PAST_2_53 + 1):.15g}") and not data["empty_interval"]
    assert main(["psi-progression", "--q", "27", "--a", "1", "--x", "1000.5", "--h", "1e2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["x"] == 1000.5 and data["h"] == 100.0
