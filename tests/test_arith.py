"""Unit-group arithmetic: factorization, valuations, bases, discrete logs."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corechar.arith import (
    FactoredModulus,
    crt_combine,
    discrete_log,
    dlog_table,
    factor,
    unit_group_basis,
    valuation,
)


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


def test_crt_combine():
    x, m = crt_combine([(2, 3), (3, 5), (2, 7)])
    assert x == 23 and m == 105
    x, m = crt_combine([(1, 4), (3, 6)])  # non-coprime, consistent
    assert x % 4 == 1 and x % 6 == 3 and m == 12
    with pytest.raises(ValueError):
        crt_combine([(0, 4), (1, 6)])  # inconsistent mod 2
