"""Exact identities between a modulus and its divisors, or within the
character group, that check a kernel at sizes where its slow oracle is slow:
each test names the kernel it guards."""

import math
import random

import numpy as np
import pytest

from corechar import lfunc, postnikov
from corechar.arith import as_modulus
from corechar.characters import _columns, character_rows, characters_of_rows
from corechar.lfunc import l_value


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
    """Guards the multiplier search (``postnikov._multipliers``).  e(m F/q)
    is multiplicative in m, so the least multipliers of chi1, chi2 and
    chi1 chi2 satisfy m1 + m2 = m12 mod lcm(dd), on seeded pairs whose
    product is primitive; and each is least in its class mod M: m - M is
    not a valid multiplier."""
    mod = as_modulus(q)
    d = postnikov.minimal_postnikov_degree(q)
    plan = postnikov._search_plan(q, d)
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
        assert (m1 + m2 - m12) % plan.lcm_dd == 0, (q, m1, m2, m12)
    assert all(x <= plan.M or math.gcd(x - plan.M, q) > 1 for x in m)
