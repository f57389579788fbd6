"""The representation identity, its multiplier, and the bound shapes."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corechar import postnikov
from corechar.arith import DLOG_TABLE_CAP, FactoredModulus, as_modulus, crt_combine, valuation
from corechar.characters import character_rows, characters_of_rows, enumerate_characters, principal_character
from corechar.postnikov import (
    fd_coefficients,
    fd_eval,
    find_postnikov_m,
    iwaniec_bound_log,
    main_bound_log,
    minimal_postnikov_degree,
    nontriviality_threshold_iwaniec,
    nontriviality_threshold_main,
    postnikov_multipliers,
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
    plan = postnikov._search_plan(q, d)
    nn, dd = plan.nn, plan.dd
    # a non-representative x whose denominator is a power of 3, coprime to m,
    # so that nn + 1 changes m*nn mod dd
    x = next(x for x in range(len(dd))
             if x not in set(plan.xs.tolist()) and dd[x] > 1 and 3 ** valuation(int(dd[x]), 3) == dd[x])
    bad = nn.copy()
    bad[x] = (nn[x] + 1) % dd[x]
    chi = enumerate_characters(q, primitive_only=True)[0]
    find_postnikov_m(chi, d)
    monkeypatch.setattr(postnikov, "_search_plan", lambda q, d: plan._replace(nn=bad))
    with pytest.raises(ValueError, match=f"verification failed at x = {x} "):
        find_postnikov_m(chi, d)


def test_find_postnikov_m_int64_and_object_grids():
    """int64 while den*max(den, q) < 2^63, Python ints beyond; the search on
    the object grid satisfies the identity at every x (as criterion 1 checks)."""
    for q, dtype in ((3**8, np.int64), (3**9, object), (1024, object)):
        assert postnikov._search_plan(q, minimal_postnikov_degree(q)).nn.dtype == dtype
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


def _one_character_search(chi, d):
    """The multiplier search one character at a time: its numerators over
    chi.order, one Python congruence per distinct dd, the divisibility of m
    by every r <= d coprime to q, ``crt_combine``, steps to gcd(m, q) = 1
    and the check at every x."""
    q, mod = chi.q, chi.modulus
    step = mod.tau * mod.core
    plan = postnikov._search_plan(q, d)
    nn, dd = plan.nn, plan.dd
    first = np.unique(dd, return_index=True)[1]
    order = chi.order
    xs = np.arange(q // step, dtype=np.int64)
    numerators = chi.angle_numerators(1 + step * xs).astype(nn.dtype, copy=False)
    congruences = [(0, math.lcm(*(r for r in range(1, d + 1) if math.gcd(r, q) == 1)))]
    dens = dd[first].tolist()
    for nx, dx, ax in zip(nn[first].tolist(), dens, numerators[first].tolist()):
        target, rem = divmod(ax * dx, order)
        assert rem == 0
        congruences.append((pow(nx, -1, dx) * target % dx, dx))
    m0, modulus = crt_combine(congruences)
    m = m0 if m0 > 0 else modulus
    while math.gcd(m, q) != 1:
        m += modulus
    assert (m % math.lcm(*dens) * nn % dd * order == numerators * dd).all()
    return m


@pytest.mark.parametrize("q", [9, 16, 25, 27, 64, 72, 81, 243, 729, 1296, 2592, 3**9])
def test_batch_matches_the_one_character_search(q, monkeypatch):
    """postnikov_multipliers equals the per-character search row by row, in
    enumerate_characters order; at 3^9 (the object grid) on 40 seeded rows
    in three blocks, and elsewhere on every primitive row, also with blocks
    of 7 rows so that block edges fall inside the batch."""
    d = minimal_postnikov_degree(q)
    E, _, primitive = character_rows(q)
    rows = E[primitive]
    if q == 3**9:
        assert postnikov._search_plan(q, d).nn.dtype == object
        rows = rows[sorted(random.Random(q).sample(range(len(rows)), 40))]
        assert postnikov._SEARCH_BLOCK // (q // 3) == 19
    want = [_one_character_search(chi, d) for chi in characters_of_rows(q, rows)]
    got = postnikov_multipliers(q, d, rows)
    assert got == want
    if q != 3**9:
        assert postnikov_multipliers(q, d) == want
        assert [find_postnikov_m(chi, d) for chi in enumerate_characters(q, primitive_only=True)] == want
        monkeypatch.setattr(postnikov, "_SEARCH_BLOCK", 7 * (q // (as_modulus(q).tau * as_modulus(q).core)))
        assert postnikov_multipliers(q, d) == want


def test_batch_of_no_primitive_character_is_empty():
    assert postnikov_multipliers(2, 1) == [] == postnikov_multipliers(6, 2)
    with pytest.raises(ValueError, match="not primitive"):
        postnikov_multipliers(9, 4, character_rows(9)[0][:2])
    with pytest.raises(ValueError, match="d >= 4"):
        postnikov_multipliers(9, 3)


def _non_representative_x(q, d):
    """An x that is no distinct dd's first, with dd a power of 3, so that a
    wrong phase there changes m*nn mod dd for every m coprime to 3."""
    plan = postnikov._search_plan(q, d)
    dd = plan.dd
    return next(x for x in range(len(dd))
                if x not in set(plan.xs.tolist()) and dd[x] > 1 and 3 ** valuation(int(dd[x]), 3) == dd[x])


def test_batch_verifies_every_block(monkeypatch):
    """A wrong phase in the middle block of three, at an x that pins no
    congruence, fails the batch's check at that x; so does a wrong nn."""
    q = 243
    d = minimal_postnikov_degree(q)
    x = _non_representative_x(q, d)
    monkeypatch.setattr(postnikov, "_SEARCH_BLOCK", 40 * (q // 3))  # 108 rows: blocks of 40, 40, 28
    calls = []
    numerator_rows = postnikov._numerator_rows

    def corrupt_middle_block(*args):
        A = numerator_rows(*args)
        calls.append(len(A))
        if len(calls) == 2:
            A[17, x] = (A[17, x] + 1) % postnikov._search_plan(q, d).L
        return A
    monkeypatch.setattr(postnikov, "_numerator_rows", corrupt_middle_block)
    with pytest.raises(ValueError, match=f"verification failed at x = {x} "):
        postnikov_multipliers(q, d)
    assert calls == [40, 40]

    monkeypatch.setattr(postnikov, "_numerator_rows", numerator_rows)
    plan = postnikov._search_plan(q, d)
    bad = plan.nn.copy()
    bad[x] = (bad[x] + 1) % plan.dd[x]
    monkeypatch.setattr(postnikov, "_search_plan", lambda q, d: plan._replace(nn=bad))
    with pytest.raises(ValueError, match=f"verification failed at x = {x} "):
        postnikov_multipliers(q, d)


def test_find_postnikov_m_above_the_dlog_table_cap():
    """q = 2053^2 has a prime power above the dlog table cap: the numerators
    come from discrete_log per point, and the identity holds at every x."""
    q = 2053**2
    mod = FactoredModulus.from_int(q)
    chi = characters_of_rows(q, np.array([[2053 * 7 + 1]]))[0]
    assert chi.is_primitive and q > DLOG_TABLE_CAP
    d = minimal_postnikov_degree(q)
    m = find_postnikov_m(chi, d)
    for x in range(0, q // mod.core, 97):
        assert chi.evaluate(1 + mod.core * x).fraction == (m * fd_eval(d, mod.core * x) / q) % 1


def test_shifted_poly_envelope():
    q = 3**8
    chi = enumerate_characters(q, primitive_only=True)[0]
    s = 2
    gamma = 8
    d0 = 2 * gamma
    script_l = math.floor(1.5 * math.log(d0))
    poly = shifted_poly(chi, 2, s, d0)
    assert poly.degree == d0 and poly.coefficients[0] == 0
    core = 3
    for r in range(1, d0 + 1):
        b_r = poly.coefficients[r].denominator
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
        b_r = poly.coefficients[r].denominator
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
        assert poly.coefficients[r].denominator == 1


def test_shifted_poly_n_equals_one():
    q = 27
    chi = enumerate_characters(q, primitive_only=True)[0]
    poly = shifted_poly(chi, 1, 2, 6)
    m = find_postnikov_m(chi, minimal_postnikov_degree(q))
    for r in range(1, 7):
        expected = Fraction((-1) ** (r - 1) * m * 3 ** (2 * r), q * r)
        assert poly.coefficients[r] == expected


def test_shifted_poly_errors():
    chi = enumerate_characters(27, primitive_only=True)[0]
    with pytest.raises(ValueError):
        shifted_poly(chi, 3, 2, 6)  # gcd(n, q) != 1
    with pytest.raises(ValueError):
        shifted_poly(chi, 2, 1, 6)  # s < 2


def test_main_and_iwaniec_bounds():
    q, n = 3**50, 3**50
    assert abs(main_bound_log(q, n, 1e-4) - (1 - 1e-4) * math.log(n)) < 1e-6
    # main bound is nontrivial (< N) for any xi0 > 0
    assert main_bound_log(q, n, 1e-4) < math.log(n)
    with pytest.raises(ValueError):
        iwaniec_bound_log(3**10, 3**10, 1.0, 1e-4)  # rho = 1
    rho = 4.0
    expected_log = 1.0 * rho * (1 + math.log(rho)) ** 2 \
        + (1 - 1e-2 / (rho**2 * math.log(rho))) * 10 * math.log(3)
    assert abs(iwaniec_bound_log(3**40, 3**10, 1.0, 1e-2) - expected_log) < 1e-9


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


def test_thresholds_read_log_q_without_factoring():
    """The thresholds and bounds read log q alone: a FactoredModulus gives
    the int's bits, a q with a large prime factor takes no trial division,
    q < 1 is refused as a modulus and q = 1 has no rho."""
    xi0, a = 0.05, 1.0
    for q in (3**100, 2**5 * 3**40):
        mod = FactoredModulus.from_int(q)
        assert nontriviality_threshold_main(mod, xi0) == nontriviality_threshold_main(q, xi0)
        assert nontriviality_threshold_iwaniec(mod, a, xi0) == nontriviality_threshold_iwaniec(q, a, xi0)
        assert main_bound_log(mod, 3**20, xi0) == main_bound_log(q, 3**20, xi0)
        assert iwaniec_bound_log(mod, 3**20, a, xi0) == iwaniec_bound_log(q, 3**20, a, xi0)
    q, lq = 10**300 + 7, math.log(10**300 + 7)
    assert nontriviality_threshold_main(q, xi0) == (math.log(2.0) * lq * lq / xi0) ** (1.0 / 3.0)
    assert 0 < nontriviality_threshold_iwaniec(q, a, xi0) < lq
    for bad in (0, -3):
        for f in (lambda q: nontriviality_threshold_main(q, xi0),
                  lambda q: nontriviality_threshold_iwaniec(q, a, xi0),
                  lambda q: main_bound_log(q, 10, xi0)):
            with pytest.raises(ValueError, match="modulus must be >= 1"):
                f(bad)
    with pytest.raises(ValueError, match="need q >= 2"):
        main_bound_log(1, 10, xi0)
    with pytest.raises(ValueError, match="need q >= 2"):
        iwaniec_bound_log(1, 10, a, xi0)


def _scalar_threshold(q, a, xi0):
    """The Iwaniec threshold as a scalar scan of every grid point in turn and
    200 bisections."""
    lq = math.log(as_modulus(q).q)

    def h(L):
        rho = lq / L
        lr = math.log(rho)
        return a * rho * (1.0 + lr) ** 2 - xi0 * L / (rho**2 * lr) + math.log(2.0)

    hi_cap = lq * (1.0 - 1e-9)
    prev = hi_cap * 1.0 / 4096
    if h(prev) <= 0.0:
        return prev
    for j in range(2, 4097):
        cur = hi_cap * j / 4096
        if h(cur) <= 0.0:
            break
        prev = cur
    else:
        raise ValueError("bound never nontrivial on (0, log q)")
    lo, hi = prev, cur
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _threshold_or_error(f, q, a, xi0):
    try:
        return f(q, a, xi0).hex()
    except ValueError as exc:
        return str(exc)


def test_iwaniec_threshold_is_the_scalar_scan():
    """The bisection returns the scalar scan's bits, or its error, on the
    seeded (q, a, xi0) with a >= 0 among 330 and on the bound-compare
    defaults; among them are bounds that are never nontrivial, and 30 more
    with a large xi0 and a = 0 or a tiny a return at the first grid point.
    The seeded a < 0, where h need not fall in L, and a NaN a are refused."""
    rng = random.Random(1974)
    cases = [(3**g, 1.0, xi0) for g in (100, 300, 1000) for xi0 in (1e-4, 0.05)]
    refused = [(3**100, math.nan, 0.05)]
    for i in range(330):
        q = rng.choice([2, 3, 5, 6, 7, 10, 12, 30]) ** rng.randrange(1, 400)
        a = (rng.uniform(0.05, 3.0), 0.0, -rng.uniform(0.0, 2.0), 10 ** rng.uniform(-8, 3))[i % 4]
        xi0 = 10 ** rng.uniform(-6, 3) * (-1 if i % 7 == 0 else 1)
        (refused if a < 0 else cases).append((q, a, xi0))
    for _ in range(30):
        q = rng.choice([2, 3, 5, 6, 7, 10, 12, 30]) ** rng.randrange(1, 400)
        cases.append((q, rng.choice([0.0, 10 ** rng.uniform(-12, -8)]), 10 ** rng.uniform(13, 16)))
    outcomes = []
    for q, a, xi0 in cases:
        want = _threshold_or_error(_scalar_threshold, q, a, xi0)
        assert _threshold_or_error(nontriviality_threshold_iwaniec, q, a, xi0) == want, (q, a, xi0)
        first = (math.log(q) * (1.0 - 1e-9) / 4096).hex()
        outcomes.append("first" if want == first else "never" if "never" in want else "bracket")
    assert {kind: outcomes.count(kind) >= 20 for kind in ("first", "never", "bracket")} == \
        {"first": True, "never": True, "bracket": True}
    assert len(refused) > 50
    for q, a, xi0 in refused:
        with pytest.raises(ValueError, match="need a >= 0"):
            nontriviality_threshold_iwaniec(q, a, xi0)


@pytest.mark.parametrize("nudge", [1e-13, -1e-13])
def test_iwaniec_threshold_sends_near_zero_points_to_the_scalar_h(nudge):
    """xi0 set so that h is within 1e-13 of 0 at grid point 1500, below 0
    (nudge > 0: the crossing is there) or above (nudge < 0: it is at 1501).
    The bisection's bracket and result are the scalar scan's."""
    q, a, j = 3**100, 1.0, 1500
    lq = math.log(q)
    L = lq * (1.0 - 1e-9) * j / 4096
    rho = lq / L
    lr = math.log(rho)
    xi0 = (a * rho * (1.0 + lr) ** 2 + math.log(2.0)) * rho**2 * lr / L * (1.0 + nudge)
    want = _scalar_threshold(q, a, xi0)
    assert (lq * (1.0 - 1e-9) * (j - 1) / 4096 < want <= L) == (nudge > 0)
    assert nontriviality_threshold_iwaniec(q, a, xi0) == want
