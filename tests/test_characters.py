"""Character construction, exact values, conductors, and the CRT restriction."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from corechar.arith import DLOG_TABLE_CAP, FactoredModulus, discrete_log, unit_group_basis
from corechar.characters import (
    VALUE_TABLE_CAP,
    DirichletCharacter,
    RationalAngle,
    character_rows,
    characters_of_rows,
    crt_restrict,
    enumerate_characters,
    principal_character,
    quadratic_character,
    root_values,
)
from corechar.expsums import _BLOCK, _chi_values, char_sum


def test_rational_angle_normalization():
    a = RationalAngle.make(Fraction(7, 6))
    assert (a.numerator, a.denominator) == (1, 6)
    assert RationalAngle.make(Fraction(-1, 4)) == RationalAngle(3, 4)
    assert RationalAngle(1, 2).to_complex() == -1.0
    assert RationalAngle(0, 1).to_complex() == 1.0


def test_evaluate_examples():
    chi0 = principal_character(9)
    for n in (1, 2, 4, 5, 7, 8):
        assert chi0.evaluate(n) == RationalAngle(0, 1)
    assert chi0.evaluate(3) is None

    leg3 = quadratic_character(3)
    assert leg3.evaluate(2) == RationalAngle(1, 2)  # 2 is a non-residue mod 3

    chi = enumerate_characters(9)[1]
    assert chi.evaluate(2) == RationalAngle(1, 6)
    assert chi.evaluate(4) == RationalAngle(1, 3)  # chi(4) = chi(2)^2


def _reference_angle(chi, n):
    """chi(n) as a Fraction in [0, 1) from Pohlig-Hellman discrete logs, or
    None when gcd(n, q) > 1: the definition, independent of the dlog tables."""
    if math.gcd(n, chi.q) != 1:
        return None
    total = Fraction(0)
    for (p, g), exps in zip(chi.modulus.factors, chi.components):
        basis = unit_group_basis(p, g)
        for ell, k, o in zip(discrete_log(n, basis), exps, basis.orders):
            total += Fraction(k * ell, o)
    return total % 1


def _random_character(rng, q):
    mod = FactoredModulus.from_int(q)
    return DirichletCharacter(mod, tuple(
        tuple(rng.randrange(o) for o in unit_group_basis(p, g).orders) for p, g in mod.factors))


@pytest.mark.parametrize("q", [1] + [2**a for a in range(1, 8)] + [3**b for b in range(1, 7)]
                         + [5 * 7, 25 * 7, 5 * 49, 25 * 49] + [12, 72, 864, 2592])
def test_integer_kernel_matches_reference(q):
    """evaluate, every value_table entry and the crt_restrict offsets agree
    with the reference on seeded random characters."""
    rng = random.Random(q)
    for _ in range(3):
        chi = _random_character(rng, q)
        A, values = chi.value_table
        for n in range(q):
            ref = _reference_angle(chi, n)
            if ref is None:
                assert chi.evaluate(n) is None and A[n] == -1 and values[n] == 0
            else:
                assert chi.evaluate(n).fraction == ref
                assert Fraction(int(A[n]), chi.order) == ref
                assert values[n] == RationalAngle.make(ref).to_complex()
        for r in {1, q} | {p**g for p, g in chi.modulus.factors} \
                | {q // p**g for p, g in chi.modulus.factors}:
            s = q // r
            k0 = rng.choice([x for x in range(1, r + 1) if math.gcd(x, r) == 1])
            for k in (k0, k0 - 3 * r, k0 + r, 10**20 + 1):
                res = crt_restrict(chi, k, r)
                assert res.shift == pow(r, -1, s) * k % s
                # m + shift = 1 mod s, so chi(k + r m) = e(offset) chi_s(1)
                m = (1 - res.shift) % s
                assert res.offset.fraction == _reference_angle(chi, k + r * m)
        ns = np.array([rng.randrange(1 << 63, 1 << 66) for _ in range(200)], dtype=object)
        for batch in (np.arange(q), ns):
            expected = [chi.angle_numerator(n) for n in batch.tolist()]
            assert chi.angle_numerators(batch).tolist() == [-1 if a is None else a for a in expected]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 12, 4374, 2 * 3**11])
def test_root_values_every_numerator(d):
    """The array kernel gives RationalAngle.to_complex bit for bit."""
    expected = [RationalAngle.of(a, d).to_complex() for a in range(d)]
    assert np.array_equal(_bits(root_values(np.arange(d), d)), _bits(expected))


def test_root_values_seeded_and_past_int64():
    rng = random.Random(9973)
    d = 4374 * 9973
    nums = [rng.randrange(d) for _ in range(10**5)]
    expected = [RationalAngle.of(a, d).to_complex() for a in nums]
    assert np.array_equal(_bits(root_values(nums, d)), _bits(expected))
    # Numerators need not be reduced, and d >= 2^62 runs on Python ints.  The
    # last two d have two primes above 2^16, which trial division leaves to a
    # gcd (the last d is below 2^62); 50 numerators take one np.gcd, 5000 go
    # prime by prime.
    big = 10**9 + 7
    for d in (1 << 62, 2**64 * 3**5, big * (10**9 + 9) * 81, big * (10**9 + 9) * 3):
        for count in (50, 5000):
            nums = [0, -1, 1, d // 2, d // 3, d - 1, 3 * d + 5]
            nums += [rng.randrange(d) for _ in range(count)]
            nums += [big * k for k in (1, 2, 3, 81, 10**9 + 10)]
            expected = [RationalAngle.of(a, d).to_complex() for a in nums]
            assert np.array_equal(_bits(root_values(nums, d)), _bits(expected))


def test_evaluate_above_dlog_table_cap():
    """Prime powers above the dlog table cap take Pohlig-Hellman per value,
    in evaluate and, one n at a time, in angle_numerators: int64 and object
    inputs, non-units among them, give the int64 numerators of the order."""
    rng = random.Random(2**23)
    for q in (3**16, 2**23, 2**3 * 3**15):
        chi = _random_character(rng, q)
        p = chi.modulus.factors[0][0]
        small = [rng.randrange(q) for _ in range(20)] + [p * rng.randrange(q // p)]
        big = [rng.randrange(1 << 63, 1 << 66) for _ in range(5)] \
            + [p * rng.randrange(1 << 63, 1 << 64)]
        for n in small:
            ref = _reference_angle(chi, n)
            assert (chi.evaluate(n) is None) if ref is None else chi.evaluate(n).fraction == ref
        for ns in (np.array(small, dtype=np.int64), np.array(big, dtype=object)):
            A = chi.angle_numerators(ns)
            assert A.dtype == np.int64 and (A < 0).any()
            assert [None if a < 0 else Fraction(a, chi.order) for a in A.tolist()] == \
                [_reference_angle(chi, n) for n in ns.tolist()]


def test_sums_above_value_table_cap_match_chi_term_by_term():
    """Above the value table cap char_sum and _chi_values take their
    numerators from angle_numerators: through the dlog tables (3^13,
    2^3 3^13, a window across a block boundary and two past 2^63) and
    through Pohlig-Hellman (3^16), against chi term by term."""
    rng = random.Random(3**13)
    for q, M, N in ((3**13, 3**13 - 1000, _BLOCK + 2000), (2**3 * 3**13, 10**19, 3000),
                    (2**3 * 3**13, 10**20, 3000), (3**16, 10**12, 200)):
        chi = _random_character(rng, q)
        assert q > VALUE_TABLE_CAP and chi.order > 2
        ns = np.array(range(M + 1, M + N + 1), dtype=np.int64 if M + N < 1 << 63 else object)
        res = char_sum(chi, M, N)
        assert res.mode == "exact" and res.term_count == N
        angles = [chi.evaluate(n) for n in ns.tolist()]
        if q > DLOG_TABLE_CAP:
            assert [a and a.fraction for a in angles] == [_reference_angle(chi, n) for n in ns.tolist()]
        assert res.exact_angle_terms == Counter(a for a in angles if a is not None)
        assert np.array_equal(_bits(_chi_values(chi, ns)), _bits([chi(n) for n in ns.tolist()]))


def test_angle_numerators_int64_guard():
    """At q = 3^13 5^9 7^7 every prime power has a dlog table but the order
    is near 2^57, so w_j * dlog_j would pass 2^63 in int64."""
    q = 3**13 * 5**9 * 7**7
    rng = random.Random(q)
    chi = _random_character(rng, q)
    assert chi.order > 1 << 50
    ns = [rng.randrange(q) for _ in range(200)]
    A = chi.angle_numerators(np.array(ns))
    assert A.dtype == np.int64
    assert [None if a < 0 else Fraction(a, chi.order) for a in A.tolist()] == \
        [_reference_angle(chi, n) for n in ns]


def test_enumerate_counts():
    chars9 = enumerate_characters(9)
    assert len(chars9) == 6
    assert sum(c.is_primitive for c in chars9) == 4
    chars3 = enumerate_characters(3)
    assert len(chars3) == 2
    assert sum(c.is_primitive for c in chars3) == 1
    assert not principal_character(3).is_primitive
    chars1 = enumerate_characters(1)
    assert len(chars1) == 1 and chars1[0].is_principal


def test_enumeration_deterministic():
    labels = [c.label() for c in enumerate_characters(45)]
    assert labels == [c.label() for c in enumerate_characters(45)]
    assert len(labels) == len(set(labels)) == 24  # phi(45)


_EDGE_MODULI = [1, 2, 4, 8, 2**7, 3**5, 45, 72, 864, 2592]


@pytest.mark.parametrize("q", _EDGE_MODULI)
def test_enumeration_matches_product_oracle(q):
    """The rows give the characters of the definition: every exponent vector
    of every prime power in lexicographic order, by itertools.product over
    each generator's range(o), filtered by the scalar conductor."""
    m = FactoredModulus.from_int(q)
    per_pp = [list(itertools.product(*map(range, unit_group_basis(p, g).orders)))
              for p, g in m.factors]
    oracle = [DirichletCharacter(m, combo) for combo in itertools.product(*per_pp)]
    assert enumerate_characters(q) == oracle
    assert enumerate_characters(q, primitive_only=True) == [c for c in oracle if c.conductor == q]
    E, _, primitive = character_rows(q)
    assert characters_of_rows(q, E) == oracle and E.dtype == np.int64
    assert primitive.tolist() == [c.conductor == q for c in oracle]


def test_character_rows_size_cap():
    """Past 2^22 characters the rows are refused before they are allocated:
    7 * 2^21 has 1.5 * 2^22 characters and 3^20 has 2.3 * 10^9."""
    for q in (7 * 2**21, 3**20):
        with pytest.raises(ValueError, match="size cap"):
            character_rows(q)


@pytest.mark.parametrize("q", _EDGE_MODULI)
def test_conjugate_row_index(q):
    """Row conj[c] holds the exponents of the conjugate of row c's character."""
    E, conj, _ = character_rows(q)
    for c, chi in enumerate(characters_of_rows(q, E)):
        assert characters_of_rows(q, E[conj[c]:conj[c] + 1]) == [chi.conjugate()]


def test_conductor_examples():
    assert principal_character(9).conductor == 1
    # the Legendre symbol mod 3 lifted to mod 9
    lifted = [c for c in enumerate_characters(9) if c.order == 2]
    assert len(lifted) == 1 and lifted[0].conductor == 3
    chi = enumerate_characters(9)[1]
    assert chi.order == 6 and chi.conductor == 9 and chi.is_primitive


@pytest.mark.parametrize("q", [8, 9, 12, 16, 25, 27, 32, 45])
def test_conductor_is_minimal_factoring_level(q):
    """Exhaustive oracle: the conductor is the least divisor q* of q with
    chi(n) depending only on n mod q* over units."""
    for chi in enumerate_characters(q):
        cond = chi.conductor
        assert q % cond == 0
        for qstar in sorted(d for d in range(1, q + 1) if q % d == 0):
            factors_through = all(
                chi.evaluate(m) == chi.evaluate(n)
                for m in range(1, q + 1) if math.gcd(m, q) == 1
                for n in range(1, q + 1) if math.gcd(n, q) == 1 and (m - n) % qstar == 0
            )
            if factors_through:
                assert qstar == cond
                break


@pytest.mark.parametrize("q", [7, 9, 16, 24, 45])
def test_multiplicativity_random_pairs(q):
    """10^4 random unit pairs per modulus, spread over all characters."""
    rng = random.Random(20260809)
    chars = enumerate_characters(q)
    units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
    per_char = 10**4 // len(chars) + 1
    for chi in chars:
        for _ in range(per_char):
            m, n = rng.choice(units), rng.choice(units)
            lhs = chi.evaluate(m * n)
            rhs = RationalAngle.make(chi.evaluate(m).fraction + chi.evaluate(n).fraction)
            assert lhs == rhs


@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_two_real_characters_odd_prime_power(gamma):
    for p in (3, 5, 7):
        reals = [c for c in enumerate_characters(p**gamma) if c.order <= 2]
        assert len(reals) == 2
        orders = sorted(c.order for c in reals)
        assert orders == [1, 2]


def test_orthogonality_exact_small():
    """Nonprincipal characters hit each order-th root of unity equally often,
    which forces the full-period sum to vanish exactly."""
    for q in (3, 9, 27, 4, 8, 12, 45):
        for chi in enumerate_characters(q):
            values = Counter()
            for n in range(1, q + 1):
                a = chi.evaluate(n)
                if a is not None:
                    values[a] += 1
            phi = sum(values.values())
            if chi.is_principal:
                assert values == Counter({RationalAngle(0, 1): phi})
            else:
                counts = set(values.values())
                assert len(values) == chi.order
                assert counts == {phi // chi.order}


def test_conjugate():
    chi = enumerate_characters(9)[1]
    conj = chi.conjugate()
    for n in (1, 2, 4, 5, 7, 8):
        assert (chi.evaluate(n).fraction + conj.evaluate(n).fraction) % 1 == 0


def test_serialization_round_trip():
    for chi in enumerate_characters(45):
        again = DirichletCharacter.from_dict(chi.to_dict())
        assert again == chi


# -- CRT restriction ---------------------------------------------------------


def test_crt_restrict_identity_case():
    chi = enumerate_characters(9)[1]
    res = crt_restrict(chi, 0, 1)
    assert res.character == chi
    assert res.offset == RationalAngle(0, 1)
    assert res.shift == 0


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_crt_restrict_pointwise_q45(k):
    """chi(k + r m) = e(offset) chi*(m + shift) for all m over a full period."""
    q, r = 45, 5
    s = q // r
    for chi in enumerate_characters(q, primitive_only=True):
        res = crt_restrict(chi, k, r)
        assert res.character.q == s
        for m in range(s):
            lhs = chi.evaluate(k + r * m)
            rhs = res.character.evaluate(m + res.shift)
            if lhs is None:
                assert rhs is None
            else:
                assert rhs is not None
                assert lhs == RationalAngle.make(res.offset.fraction + rhs.fraction)


def test_crt_restrict_principal():
    chi = principal_character(45)
    res = crt_restrict(chi, 1, 5)
    assert res.character.is_principal
    assert res.offset == RationalAngle(0, 1)


def test_crt_restrict_errors():
    chi = principal_character(12)
    with pytest.raises(ValueError):
        crt_restrict(chi, 1, 2)  # gcd(2, 6) != 1
    chi45 = principal_character(45)
    with pytest.raises(ValueError):
        crt_restrict(chi45, 5, 5)  # progression shares a factor with r
