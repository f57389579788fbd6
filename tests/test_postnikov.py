"""The representation identity, its multiplier, and the bound ledger."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corechar import postnikov
from corechar.arith import FactoredModulus, valuation
from corechar.characters import enumerate_characters, principal_character
from corechar.postnikov import (
    bound_parameters,
    fd_coefficients,
    fd_eval,
    find_postnikov_m,
    iwaniec_bound,
    main_bound,
    main_bound_log,
    minimal_postnikov_degree,
    nontriviality_threshold_iwaniec,
    nontriviality_threshold_main,
    shifted_poly,
)


def test_fd_coefficients():
    assert fd_coefficients(1) == [Fraction(1)]
    assert fd_coefficients(2) == [Fraction(1), Fraction(-1, 2)]
    assert fd_coefficients(4) == [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    assert fd_eval(4, 5) == Fraction(-1465, 12)
    assert fd_eval(3, Fraction(1, 2)) == Fraction(1, 2) - Fraction(1, 8) + Fraction(1, 24)


def test_minimal_degree():
    assert minimal_postnikov_degree(9) == 4
    assert minimal_postnikov_degree(7) == 2
    assert minimal_postnikov_degree(FactoredModulus.from_int(12)) == 4
    # the derived check: 144 | 6^4 but not 6^3
    assert 6**4 % 144 == 0 and 6**3 % 144 != 0


def _oracle_valid_multipliers(chi, d, limit):
    """Independent brute force: every m in [1, limit) satisfying the identity
    at every point, checked with raw Fractions."""
    q = chi.q
    step = chi.modulus.tau * chi.modulus.core
    out = []
    for m in range(1, limit):
        if math.gcd(m, q) != 1:
            continue
        if all(
            chi.evaluate(1 + step * x).fraction == (Fraction(m, q) * fd_eval(d, step * x)) % 1
            for x in range(q // step)
        ):
            out.append(m)
    return out


def test_find_postnikov_m_q9_matches_oracle():
    d = minimal_postnikov_degree(9)
    for chi in enumerate_characters(9, primitive_only=True):
        m = find_postnikov_m(chi, d)
        oracle = _oracle_valid_multipliers(chi, d, 60)
        assert m == oracle[0]
        if chi.evaluate(2).fraction == Fraction(1, 6):
            assert m == 4
    # the oracle confirms exactly one valid multiplier below q would be a
    # coincidence of q = 9; validity is periodic with period 12 here
    chi = enumerate_characters(9, primitive_only=True)[0]
    oracle = _oracle_valid_multipliers(chi, d, 60)
    assert oracle == [oracle[0] + 12 * j for j in range(len(oracle))]


@pytest.mark.parametrize("q", [25, 27, 49])
def test_find_postnikov_m_small_prime_powers(q):
    d = minimal_postnikov_degree(q)
    step = FactoredModulus.from_int(q).core
    for chi in enumerate_characters(q, primitive_only=True):
        m = find_postnikov_m(chi, d)
        # exhaustive identity re-check with an independent Fraction path
        for x in range(q // step):
            lhs = chi.evaluate(1 + step * x).fraction
            rhs = (Fraction(m, q) * fd_eval(d, step * x)) % 1
            assert lhs == rhs
        assert math.gcd(m, q) == 1
        for r in range(1, d + 1):
            if math.gcd(r, q) == 1:
                assert m % r == 0


def test_find_postnikov_m_exceeds_q_sometimes():
    """The identity pins m modulo the lcm of angle denominators, which
    exceeds q: mod 25, characters with chi(6) = e(3 * 8/20) force m = 36."""
    ms = [find_postnikov_m(chi, 4) for chi in enumerate_characters(25, primitive_only=True)]
    assert max(ms) > 25
    assert all(m % 12 == 0 for m in ms)  # r | m for r in {1,2,3,4}


def test_find_postnikov_m_rejects_imprimitive():
    with pytest.raises(ValueError):
        find_postnikov_m(principal_character(9), 4)
    lifted = [c for c in enumerate_characters(9) if c.order == 2][0]
    with pytest.raises(ValueError):
        find_postnikov_m(lifted, 4)


def test_find_postnikov_m_even_modulus():
    for chi in enumerate_characters(16, primitive_only=True):
        m = find_postnikov_m(chi, minimal_postnikov_degree(16))
        step = 4  # tau * core = 2 * 2
        for x in range(16 // step):
            lhs = chi.evaluate(1 + step * x).fraction
            rhs = (Fraction(m, 16) * fd_eval(8, step * x)) % 1
            assert lhs == rhs


def test_find_postnikov_m_verifies_every_point(monkeypatch):
    """The congruences come from one x per distinct denominator; a wrong
    phase at any other x must still fail the exhaustive verification."""
    q = 243
    d = minimal_postnikov_degree(q)
    nn, dd, first = postnikov._postnikov_grid(q, d)
    # a non-representative x whose denominator is a power of 3, coprime to m,
    # so that nn + 1 changes m*nn mod dd
    x = next(x for x in range(len(dd))
             if x not in set(first.tolist()) and dd[x] > 1 and 3 ** valuation(int(dd[x]), 3) == dd[x])
    bad = nn.copy()
    bad[x] = (nn[x] + 1) % dd[x]
    chi = enumerate_characters(q, primitive_only=True)[0]
    find_postnikov_m(chi, d)
    monkeypatch.setattr(postnikov, "_postnikov_grid", lambda q, d: (bad, dd, first))
    with pytest.raises(ValueError, match=f"verification failed at x = {x} "):
        find_postnikov_m(chi, d)


def test_find_postnikov_m_int64_and_object_grids():
    """int64 while den*max(den, q) < 2^63, Python ints beyond; the search on
    the object grid satisfies the identity at every x (as criterion 1 checks)."""
    for q, dtype in ((3**8, np.int64), (3**9, object), (1024, object)):
        assert postnikov._postnikov_grid(q, minimal_postnikov_degree(q))[0].dtype == dtype
    q = 3**9
    mod = FactoredModulus.from_int(q)
    d = minimal_postnikov_degree(mod)
    step = mod.tau * mod.core
    u = [fd_eval(d, step * x) / q for x in range(q // step)]
    for chi in random.Random(9).sample(enumerate_characters(mod, primitive_only=True), 3):
        m = find_postnikov_m(chi, d)
        for x in range(q // step):
            assert chi.evaluate(1 + step * x).fraction == (m * u[x]) % 1, (chi.label(), x)
        for r in range(1, d + 1):
            if math.gcd(r, q) == 1:
                assert m % r == 0
        assert math.gcd(m, q) == 1


def test_shifted_poly_envelope():
    q = 3**8
    chi = enumerate_characters(q, primitive_only=True)[0]
    s = 2
    gamma = 8
    d0 = 2 * gamma
    script_l = math.floor(1.5 * math.log(d0))
    poly = shifted_poly(chi, 2, s, d0)
    assert poly.degree == d0 and poly.m is not None
    core = 3
    for r in range(1, d0 + 1):
        b_r = poly.coefficient(r).denominator
        # denominators carry only primes dividing q
        reduced = b_r
        while reduced % 3 == 0:
            reduced //= 3
        assert reduced == 1
        v = valuation(b_r, 3) if b_r > 1 else 0
        assert max(0, gamma - r * s) <= v <= max(0, gamma - r * s + script_l)
        # the two-sided form q core^{-rs} <= b_r <= q core^{-rs+L} when positive
        if gamma - r * s >= 0:
            assert q * Fraction(core) ** (-r * s) <= b_r <= q * Fraction(core) ** (-r * s + script_l)
    # exact valuation law: v_p(b_r) = max(0, v_p(q) - r s + v_p(r))
    for r in range(1, d0 + 1):
        b_r = poly.coefficient(r).denominator
        v = valuation(b_r, 3) if b_r > 1 else 0
        assert v == max(0, gamma - r * s + (valuation(r, 3) if r % 3 == 0 else 0))


def test_shifted_poly_integer_tail():
    q = 3**6
    chi = enumerate_characters(q, primitive_only=True)[0]
    s, gamma = 2, 6
    d0 = 2 * gamma
    script_l = math.floor(1.5 * math.log(d0))
    d_star = (gamma + script_l) // s
    poly = shifted_poly(chi, 5, s, d0)
    for r in range(d_star, d0 + 1):
        assert poly.coefficient(r).denominator == 1


def test_shifted_poly_n_equals_one():
    q = 27
    chi = enumerate_characters(q, primitive_only=True)[0]
    poly = shifted_poly(chi, 1, 2, 6)
    m = poly.m
    for r in range(1, 7):
        expected = Fraction((-1) ** (r - 1) * m * 3 ** (2 * r), q * r)
        assert poly.coefficient(r) == expected


def test_shifted_poly_errors():
    chi = enumerate_characters(27, primitive_only=True)[0]
    with pytest.raises(ValueError):
        shifted_poly(chi, 3, 2, 6)  # gcd(n, q) != 1
    with pytest.raises(ValueError):
        shifted_poly(chi, 2, 1, 6)  # s < 2


def test_bound_parameters_examples():
    params = bound_parameters(3**100, 3**20, epsilon=Fraction(1, 2))
    assert abs(params.rho - 5.0) < 1e-12
    assert abs(params.mu - 1.0) < 1e-12
    assert params.s == math.floor(0.5 * 20)
    assert params.script_l == 7  # floor(1.5 log 200)
    assert params.d0 == 200

    # rho = 1 when N = q
    params = bound_parameters(3**50, 3**50, epsilon=Fraction(1, 200))
    assert abs(params.rho - 1.0) < 1e-12

    # default epsilon drives s to 0 here and the ledger reports it
    params = bound_parameters(3**100, 3**20)
    assert params.s == 0 and params.d == 0
    assert any("s = 0" in msg for msg in params.diagnostics)


def test_bound_parameter_invariants_when_in_regime():
    eps = Fraction(1, 10)
    params = bound_parameters(3**200, 3**43, epsilon=eps, gamma0=20)
    target = 20 * 43 / 200  # eps * gamma / rho = 4.3, away from the floor boundary
    # the floor bracket (1/2) eps gamma / rho <= s <= eps gamma / rho
    assert target / 2 <= params.s <= target
    assert params.s == 4
    assert params.d == (200 + params.script_l) // params.s
    assert 0.7 <= params.mu <= 1.0


def test_main_and_iwaniec_bounds():
    q, n = 3**50, 3**50
    assert abs(main_bound(q, n, 1e-4) - n ** (1 - 1e-4)) < 1e-6 * n ** (1 - 1e-4)
    # main bound is nontrivial (< N) for any xi0 > 0
    assert main_bound(q, n, 1e-4) < n
    with pytest.raises(ValueError):
        iwaniec_bound(3**10, 3**10, 1.0, 1e-4)  # rho = 1
    val = iwaniec_bound(3**40, 3**10, 1.0, 1e-2)
    rho = 4.0
    expected_log = 1.0 * rho * (1 + math.log(rho)) ** 2 \
        + (1 - 1e-2 / (rho**2 * math.log(rho))) * 10 * math.log(3)
    assert abs(math.log(val) - expected_log) < 1e-9


def test_savings_exponent_monotone_in_n():
    q = 3**60
    prev = -1.0
    for k in range(10, 60, 5):
        n = 3**k
        rho = math.log(q) / math.log(n)
        savings = 1e-4 / rho**2
        assert savings > prev
        prev = savings


def test_threshold_shapes():
    xi0, a = 0.05, 1.0
    main_100 = nontriviality_threshold_main(3**100, xi0)
    assert abs(main_100 - (math.log(2) * (100 * math.log(3)) ** 2 / xi0) ** (1 / 3)) < 1e-9
    # the closed form is the true crossing of the bound against N/2
    n_at = math.exp(main_100)
    assert main_bound_log(3**100, int(n_at * 1.001), xi0) <= math.log(int(n_at * 1.001) / 2)
    iw_100 = nontriviality_threshold_iwaniec(3**100, a, xi0)
    assert main_100 < iw_100
