"""Unit-group arithmetic: factorization, valuations, bases, discrete logs."""

import contextlib
import io
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corechar import arith
from corechar.arith import (
    FactoredModulus,
    crt_combine,
    discrete_log,
    dlog_table,
    factor,
    unit_group_basis,
    valuation,
)
from corechar.characters import _roots_of_unity, enumerate_characters
from corechar.cli import main
from corechar.expsums import RealPolynomial, char_sum, twisted_sum
from corechar.lfunc import l_value, zero_scan_report
from corechar.primes import psi_progression


def test_factor_examples():
    assert factor(12) == [(2, 2), (3, 1)]
    assert factor(1) == []
    assert factor(2187) == [(3, 7)]


@given(st.integers(min_value=1, max_value=10**6))
def test_factor_reassembles(n):
    facs = factor(n)
    prod = 1
    for p, e in facs:
        prod *= p**e
    assert prod == n
    assert [p for p, _ in facs] == sorted(p for p, _ in facs)


def test_valuation_examples():
    assert valuation(54, 3) == 3
    assert valuation(12, 2) == 2
    assert valuation(1, 7) == 0
    with pytest.raises(ValueError):
        valuation(0, 3)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_additive(m, n, p):
    assert valuation(m * n, p) == valuation(m, p) + valuation(n, p)


def test_factored_modulus_fields():
    m = FactoredModulus.from_int(12)
    assert m.core == 6 and m.tau == 2 and m.gamma_max == 2
    m = FactoredModulus.from_int(2187)
    assert m.core == 3 and m.tau == 1 and m.gamma_max == 7
    assert FactoredModulus.from_int(1).core == 1


def test_unit_group_basis_examples():
    b = unit_group_basis(3, 2)
    assert b.generators == (2,) and b.orders == (6,)
    # verify the order by direct powering (the derived oracle)
    powers = {pow(2, j, 9) for j in range(1, 7)}
    assert len(powers) == 6 and pow(2, 6, 9) == 1

    b = unit_group_basis(2, 3)
    assert b.orders == (2, 2)
    assert set(b.generators) == {7, 5}

    b = unit_group_basis(5, 1)
    assert b.generators == (2,) and b.orders == (4,)
    assert sorted(pow(2, j, 5) for j in range(4)) == [1, 2, 3, 4]


@pytest.mark.parametrize("p,gamma", [(3, 1), (3, 4), (5, 3), (7, 2), (2, 1), (2, 2), (2, 5), (11, 2)])
def test_basis_invariants(p, gamma):
    b = unit_group_basis(p, gamma)
    phi = p ** (gamma - 1) * (p - 1)
    assert math.prod(b.orders) == phi
    for g, order in zip(b.generators, b.orders):
        assert pow(g, order, b.modulus) == 1
        for ell, _ in factor(order):
            assert pow(g, order // ell, b.modulus) != 1


def test_discrete_log_examples():
    b9 = unit_group_basis(3, 2)
    assert discrete_log(1, b9) == [0]
    assert discrete_log(4, b9) == [2]
    assert discrete_log(2, b9) == [1]
    with pytest.raises(ValueError):
        discrete_log(3, b9)


@pytest.mark.parametrize("p,gamma", [(3, 8), (5, 5), (7, 4), (2, 13), (101, 2), (9973, 1)])
def test_discrete_log_round_trip(p, gamma):
    b = unit_group_basis(p, gamma)
    mod = b.modulus
    # every unit in a deterministic sample reproduces under exponentiation
    step = max(1, mod // 257)
    for x in range(1, mod, step):
        if math.gcd(x, mod) != 1:
            continue
        e = discrete_log(x, b)
        y = 1
        for g, k in zip(b.generators, e):
            y = y * pow(g, k, mod) % mod
        assert y == x % mod


def test_dlog_table_matches_discrete_log():
    b = unit_group_basis(7, 3)
    table = dlog_table(7, 3)
    units = [x for x in range(b.modulus) if table[x, 0] >= 0]
    assert len(units) == math.prod(b.orders)
    for x in units[::17]:
        assert table[x].tolist() == discrete_log(x, b)


def _python_int_walk(p, gamma):
    """The dlog table from a walk of the last generator's powers in Python
    ints, one at a time, taken 2^16 powers per array write."""
    basis = unit_group_basis(p, gamma)
    m = basis.modulus
    want = np.full((m, max(1, len(basis.generators))), -1, dtype=np.int64)
    g, order = (basis.generators[-1], basis.orders[-1]) if basis.generators else (1, 1)
    y = 1 % m
    for lo in range(0, order, 1 << 16):
        chunk = []
        for _ in range(min(1 << 16, order - lo)):
            chunk.append(y)
            y = y * g % m
        powers, js = np.array(chunk, dtype=np.int64), np.arange(lo, lo + len(chunk))
        want[powers, -1] = js
        if len(basis.generators) == 2:
            want[powers, 0] = 0
            want[m - powers, 0] = 1
            want[m - powers, 1] = js
    return want


@pytest.mark.parametrize("p,gamma", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 22), (3, 9), (5, 6),
                                     (2039, 2)])
def test_dlog_table_is_the_python_int_walk(p, gamma):
    """The int64 walk by doubling gives the table of the one-at-a-time walk
    in Python ints, byte for byte, up to the cap: 2^22, and 2039^2 =
    4,157,521, whose products reach 2039^4 > 2^43.  Built past the cache."""
    got = dlog_table.__wrapped__(p, gamma)
    want = _python_int_walk(p, gamma)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_crt_combine():
    x, m = crt_combine([(2, 3), (3, 5), (2, 7)])
    assert x == 23 and m == 105
    x, m = crt_combine([(1, 4), (3, 6)])  # non-coprime, consistent
    assert x % 4 == 1 and x % 6 == 3 and m == 12
    with pytest.raises(ValueError):
        crt_combine([(0, 4), (1, 6)])  # inconsistent mod 2


# -- the array caches' byte budget -------------------------------------------


def _budget_calls():
    """The fixed list of calls whose outputs the cache budget must not move:
    char_sum and twisted_sum at 3^7 and 5^5, l_value and a zero scan at 243,
    postnikov-verify at 243 and a psi window at q = 97."""
    out = []
    G = RealPolynomial.make([0, Fraction(1, 7), Fraction(2, 9973)])
    for q in (3**7, 5**5):
        chi = enumerate_characters(q, primitive_only=True)[5]
        for res in (char_sum(chi, 100, 20000), twisted_sum(chi, 17, 20000, G)):
            out.append((res.value, res.term_count, res.mode))
    chi = enumerate_characters(243, primitive_only=True)[7]
    out.append(l_value(chi, complex(0.75, 3.5)))
    out.append(zero_scan_report(243, 0.9, 3.0))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["postnikov-verify", "--q", "243"]) == 0
    out.append(buf.getvalue())
    psi = psi_progression(10**6, 97, 5, with_counts=True)
    out.append((psi.value, dict(psi.counts)))
    return out


def test_small_budget_moves_no_output(monkeypatch):
    """With the budget at 64 KiB the calls evict entries of several caches
    and return bit for bit what they return under the real budget."""
    arith._cache_clear()
    want = _budget_calls()
    assert not any(s["evictions"] for s in arith._cache_stats().values())
    monkeypatch.setattr(arith, "_CACHE_BUDGET", 1 << 16)
    arith._cache_clear()
    assert _budget_calls() == want
    stats = arith._cache_stats()
    assert sum(s["evictions"] > 0 for s in stats.values()) >= 3, stats
    assert sum(s["bytes"] for s in stats.values()) <= 1 << 16


def test_budget_evicts_the_least_recent_entry_of_any_cache(monkeypatch):
    """Tracked bytes never pass the budget, and a miss evicts the entry
    used longest ago, whichever cache holds it; a hit refreshes an entry."""
    monkeypatch.setattr(arith, "_CACHE_BUDGET", 4096)
    arith._cache_clear()

    def held():
        stats = arith._cache_stats()
        assert sum(s["bytes"] for s in stats.values()) <= 4096
        return stats["arith.dlog_table"]["bytes"], stats["characters._roots_of_unity"]["bytes"]

    dlog_table(3, 5)  # 243 int64: 1944 bytes
    _roots_of_unity(100)  # 100 complex128: 1600 bytes
    assert held() == (1944, 1600)
    dlog_table(3, 5)  # a hit: the roots are now the least recent
    dlog_table(5, 3)  # 125 int64: 1000 bytes, past the budget with both
    assert held() == (2944, 0)
    assert arith._cache_stats()["characters._roots_of_unity"]["evictions"] == 1
    _roots_of_unity(100)  # evicts dlog_table(3, 5), the least recent now
    assert held() == (1000, 1600)
    stats = arith._cache_stats()["arith.dlog_table"]
    assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 2, 1)
    rng = random.Random(7)
    for _ in range(200):
        if rng.random() < 0.5:
            dlog_table(rng.choice([3, 5, 7]), rng.randrange(1, 5))
        else:
            _roots_of_unity(rng.randrange(1, 200))
        held()


def test_entry_past_the_budget_is_returned_and_not_kept(monkeypatch):
    """A value larger than the whole budget is returned, read-only, and the
    next call builds it again."""
    arith._cache_clear()
    want = dlog_table(3, 5).copy()
    monkeypatch.setattr(arith, "_CACHE_BUDGET", 1000)
    arith._cache_clear()
    for misses in (1, 2):
        got = dlog_table(3, 5)
        assert np.array_equal(got, want) and not got.flags.writeable
        stats = arith._cache_stats()["arith.dlog_table"]
        assert (stats["misses"], stats["bytes"], stats["evictions"]) == (misses, 0, 0)


def test_threads_calling_together_get_equal_arrays():
    """Four threads released together on empty caches, switching every
    microsecond, all read equal dlog tables, value tables and roots."""
    chi = enumerate_characters(3**7, primitive_only=True)[3]
    want = (dlog_table(3, 7).copy(), chi.value_table[1].copy(), _roots_of_unity(999).copy())
    arith._cache_clear()
    barrier = threading.Barrier(4)
    got = []

    def work():
        barrier.wait(timeout=10)
        got.append((dlog_table(3, 7), chi.value_table[1], _roots_of_unity(999)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4
    for arrays in got:
        assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(arrays, want))
