"""Exact identities between a modulus and its divisors, or within the
character group, that check a kernel at sizes where its slow oracle is slow:
each test names the kernel it guards."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from corechar import lfunc, postnikov
from corechar.arith import as_modulus
from corechar.characters import _columns, character_rows, characters_of_rows, enumerate_characters
from corechar.expsums import RealPolynomial, char_sum, twisted_sum
from corechar.lfunc import l_value
from corechar.primes import psi_by_class


@pytest.mark.parametrize("g", [3, 5, 7])
def test_induced_characters_share_their_l_values(g):
    """Guards the unit rows of ``lfunc._chi_rows`` (the scans') and of
    ``l_value``.  The character with exponent 3k mod 3^g is induced by the
    one with exponent k mod 3^(g-1) (the generator 2 of 3^g reduces to that
    of 3^(g-1)), and chi*(3) = 0, so the two L-functions are equal."""
    pts = [complex(0.7, 3.0), 1.0, complex(2.5, -11.0)]
    X, _ = lfunc._chi_rows(as_modulus(3**g))
    scan = lfunc._l_sums(X, 3**g, pts)  # row c is exponent c + 1: row 0 of the exponents is principal
    for k in (1, 2, 4):
        chi = characters_of_rows(3**g, np.array([[3 * k]]))[0]
        star = characters_of_rows(3 ** (g - 1), np.array([[k]]))[0]
        assert not chi.is_primitive and star.is_primitive
        for s, row in zip(pts, scan[3 * k - 1].tolist()):
            want = l_value(star, s)
            assert abs(l_value(chi, s) - want) <= 1e-12 * abs(want), (g, k, s)
            assert abs(row - want) <= 1e-12 * abs(want), (g, k, s)


@pytest.mark.parametrize("q,pairs", [(27, 112), (81, 112), (243, 112), (125, 112)])
def test_postnikov_multipliers_add(q, pairs):
    """Guards the multiplier (``postnikov._multipliers``).  e(m F/q) is
    multiplicative in m, so the least multipliers of chi1, chi2 and chi1 chi2
    satisfy m1 + m2 = m12 mod lcm(dd), dd the denominators of F_d(step x)/q
    mod 1 over every x, on seeded pairs whose product is primitive; and each
    is least in its class mod M = lcm(lcm(dd), the r <= d coprime to q):
    m - M is not a valid multiplier."""
    mod = as_modulus(q)
    d = postnikov.minimal_postnikov_degree(q)
    step = mod.tau * mod.core
    lcm_dd = math.lcm(*((postnikov.fd_eval(d, step * x) / q % 1).denominator for x in range(q // step)))
    M = math.lcm(lcm_dd, *(r for r in range(1, d + 1) if math.gcd(r, q) == 1))
    E, _, primitive = character_rows(mod)
    orders = _columns(mod)[0]
    rows = np.flatnonzero(primitive).tolist()
    rng = random.Random(q)
    triples = []
    while len(triples) < pairs:
        i, j = rng.choice(rows), rng.choice(rows)
        k = int(np.ravel_multi_index(tuple((E[i] + E[j]) % orders), orders))
        if primitive[k]:
            triples.append((i, j, k))
    m = postnikov.postnikov_multipliers(q, d, E[np.array(triples).ravel()])
    for m1, m2, m12 in zip(m[0::3], m[1::3], m[2::3]):
        assert (m1 + m2 - m12) % lcm_dd == 0, (q, m1, m2, m12)
    assert all(x <= M or math.gcd(x - M, q) > 1 for x in m)


def _l1_closed_form(chi):
    """L(1, chi) of a primitive chi as a finite sum over chi's values from
    the scalar ``chi(n)``: pi i tau(chi)/q^2 sum chi-bar(a) a for odd chi,
    -tau(chi)/q sum chi-bar(a) log|sin(pi a/q)| for even chi."""
    q = chi.q
    a = np.arange(1, q + 1)
    values = np.array([chi(n) for n in range(1, q + 1)])
    tau = np.sum(values * np.exp(2j * np.pi * a / q))
    if chi.evaluate(q - 1).fraction:  # chi(-1) = -1
        return np.pi * 1j * tau / q**2 * np.sum(values.conj() * a)
    return -tau / q * np.sum(values.conj() * np.log(np.abs(np.sin(np.pi * a / q))))


@pytest.mark.parametrize("q", [27, 243, 125, 64, 72])
def test_l_at_one_in_closed_form(q):
    """Guards ``l_value``'s reader of chi (``lfunc._unit_values`` over
    ``characters._numerator_rows``) and the Hurwitz sums at s = 1.  For
    primitive chi, L(1, chi) is a finite sum of chi's values (Washington,
    Introduction to Cyclotomic Fields, ch. 4), with no Hurwitz value and no
    series: six seeded primitive characters per modulus, both parities."""
    chis = random.Random(q).sample(enumerate_characters(q, primitive_only=True), 6)
    for chi in chis:
        want = _l1_closed_form(chi)
        assert abs(l_value(chi, 1.0) - want) <= 1e-12 * abs(want), chi.label()


def _same_exact_sum(res, ref):
    got, want = res.exact_angle_terms, ref.exact_angle_terms
    assert res.mode == ref.mode == "exact" and got.den == want.den
    assert np.array_equal(got.numerators, want.numerators) and np.array_equal(got.counts, want.counts)
    assert res.value == ref.value


@pytest.mark.parametrize("q,coeffs,N", [
    (27, None, 10**5 + 7),
    (2592, None, 20011),
    (3**13, None, 5000),
    (729, [0, Fraction(1, 7), Fraction(2, 9973)], 50000),
    (243, [0, Fraction(1, 3**11)], 3000),
])
def test_sums_repeat_with_their_period(q, coeffs, N):
    """Guards the exact windows' readers (``expsums._chi_reader``,
    ``expsums._twisted_numerators``) and the gathers under them
    (``characters._dlogs``, ``expsums._phase_numerators``).  chi(n) e(G(n))
    depends on n only mod P, q for ``char_sum`` and lcm(q, den) under a
    rational twist, so S(chi, M + P, N) and S(chi, M + jP, N) past 2^63
    have S(chi, M, N)'s exact histogram and value."""
    rng = random.Random(q)
    chi = characters_of_rows(q, np.array([[rng.randrange(1, o) for o in _columns(as_modulus(q))[0].tolist()]]))[0]
    G = None if coeffs is None else RealPolynomial.make(coeffs)
    P = q if G is None else math.lcm(q, G.angle_data()[1])

    def window(M):
        return char_sum(chi, M, N) if G is None else twisted_sum(chi, M, N, G)
    M = 10**6 + 5
    ref = window(M)
    for shifted in (M + P, M + P * (2**63 // P + 3)):
        _same_exact_sum(window(shifted), ref)


@pytest.mark.parametrize("q", [729, 720])
def test_psi_classes_merge_into_the_classes_of_a_divisor(q):
    """Guards the class partition (``primes._class_counts``).  The classes
    a mod q with a = b mod q' partition the class b mod q', so for every
    q' | q the merged multiplicities of ``psi_by_class(x, q)`` are those of
    ``psi_by_class(x, q')``, count for count."""
    x = 2 * 10**5
    fine = psi_by_class(x, q, with_counts=True)
    for d in (d for d in range(1, q) if q % d == 0):
        merged = [Counter() for _ in range(d)]
        for a, v in fine.items():
            merged[a % d].update(dict(v.counts.items()))
        coarse = psi_by_class(x, d, with_counts=True)
        assert [dict(coarse[b].counts.items()) for b in range(d)] == merged, d
