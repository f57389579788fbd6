"""Sum families: character sums, twists, Dirichlet polynomials, double sums,
and the shift decomposition."""

import cmath
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from corechar.characters import (
    RationalAngle,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from corechar.expsums import (
    RealPolynomial,
    char_sum,
    decompose,
    dirichlet_poly,
    double_sum,
    taylor_approx_poly,
    twisted_sum,
)


def test_char_sum_orthogonality():
    chi0 = principal_character(9)
    assert char_sum(chi0, 0, 9).value == 6 + 0j
    for chi in enumerate_characters(9):
        if chi.is_principal:
            continue
        res = char_sum(chi, 0, 9)
        # exact mode: each order-th root occurs equally often
        counts = set(res.exact_angle_terms.values())
        assert len(res.exact_angle_terms) == chi.order
        assert len(counts) == 1
        assert abs(res.value) < 1e-12 * res.term_count


def test_char_sum_examples():
    leg3 = quadratic_character(3)
    assert char_sum(leg3, 0, 2).value == 0 + 0j
    # window arithmetic across many periods
    chi = enumerate_characters(9)[1]
    r = char_sum(chi, 5, 9 * 1000)
    assert abs(r.value) < 1e-9
    r = char_sum(chi, 5, 9 * 1000 + 4)
    direct = sum(chi(n) for n in range(6, 6 + 9 * 1000 + 4))
    assert abs(r.value - direct) < 1e-9


def test_char_sum_abs_at_most_terms():
    chi = enumerate_characters(27)[2]
    for (m, n) in ((0, 5), (3, 11), (100, 27)):
        r = char_sum(chi, m, n)
        assert r.abs <= n + 1e-12


def test_twisted_sum_reduces_to_char_sum():
    chi = enumerate_characters(9)[1]
    plain = char_sum(chi, 0, 9)
    twisted = twisted_sum(chi, 0, 9, RealPolynomial.zero())
    assert twisted.value == plain.value


def test_twisted_sum_constant_phase():
    chi = enumerate_characters(9)[1]
    c = Fraction(1, 3)
    twisted = twisted_sum(chi, 0, 7, RealPolynomial.make([c]))
    plain = char_sum(chi, 0, 7)
    expected = cmath.exp(2j * math.pi / 3) * plain.value
    assert abs(twisted.value - expected) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_gauss_sum_magnitude(p):
    poly = RealPolynomial.make([0, Fraction(1, p)])
    for chi in enumerate_characters(p, primitive_only=True):
        res = twisted_sum(chi, 0, p, poly)
        assert abs(res.abs - math.sqrt(p)) < 1e-9


def test_dirichlet_poly_t_zero_identical():
    chi = enumerate_characters(9)[1]
    a = dirichlet_poly(chi, 3, 21, 0.0)
    b = char_sum(chi, 3, 21)
    assert a.value == b.value and a.mode == b.mode


def test_dirichlet_poly_single_term():
    chi = enumerate_characters(9)[1]
    r = dirichlet_poly(chi, 100, 1, 2.5)
    assert abs(abs(r.value) - 1.0) < 1e-12  # gcd(101, 9) = 1
    expected = chi(101) * cmath.exp(1j * 2.5 * math.log(101))
    assert abs(r.value - expected) < 1e-12


def test_dirichlet_poly_needs_positive_start():
    chi = enumerate_characters(9)[1]
    with pytest.raises(ValueError):
        dirichlet_poly(chi, -2, 5, 1.0)


def _taylor_path(chi, M, N, t, pieces=10, nu=16):
    """Second evaluation path: blockwise Taylor phase approximation of n^{it}."""
    total = 0.0 + 0.0j
    G = taylor_approx_poly(nu)
    block = max(1, N // pieces)
    start = M
    while start < M + N:
        size = min(block, M + N - start)
        anchor = start + (size + 1) // 2  # mid-window anchor keeps |x| small
        # n^{it} = anchor^{it} e(t G((n - anchor)/anchor)) + error
        phase = cmath.exp(1j * t * math.log(anchor))
        inner = 0.0 + 0.0j
        for n in range(start + 1, start + size + 1):
            x = (n - anchor) / anchor
            inner += chi(n) * cmath.exp(2j * math.pi * t * G.eval_float(x))
        total += phase * inner
        start += size
    return total


def test_dirichlet_poly_cross_check_taylor():
    chi = enumerate_characters(9, primitive_only=True)[0]
    direct = dirichlet_poly(chi, 100, 100, 5.0).value
    approx = _taylor_path(chi, 100, 100, 5.0)
    assert abs(direct - approx) < 1e-6


def test_taylor_approx_poly():
    g2 = taylor_approx_poly(2)
    assert g2.degree == 1
    assert abs(g2.coefficients[1] - 1.0 / (2 * math.pi)) < 1e-15
    assert g2.coefficients[0] == 0.0
    # x = 0: both sides equal 1
    assert cmath.exp(2j * math.pi * 10.0 * g2.eval_float(0.0)) == 1.0
    with pytest.raises(ValueError):
        taylor_approx_poly(1)


@pytest.mark.parametrize("t,x,nu", [(10.0, 0.01, 4), (3.0, -0.3, 6), (25.0, 0.5, 8)])
def test_taylor_phase_error_bound(t, x, nu):
    G = taylor_approx_poly(nu)
    lhs = (1 + x) ** (1j * t)
    rhs = cmath.exp(2j * math.pi * t * G.eval_float(x))
    assert abs(lhs - rhs) <= 4 * abs(t) * abs(x) ** nu


def test_double_sum_examples():
    assert double_sum(RealPolynomial.zero(), 5).value == 25 + 0j
    res = double_sum(RealPolynomial.make([0, Fraction(1, 2)]), 2)
    assert res.value == 2 + 0j  # e(1/2)+e(1)+e(1)+e(2) = -1+1+1+1
    for P in (1, 3, 7):
        res = double_sum(RealPolynomial.make([0, Fraction(1, 3), Fraction(2, 7)]), P)
        assert res.abs <= P * P + 1e-12


def test_double_sum_float_coefficients():
    g = RealPolynomial.make([0.0, 0.125])
    res = double_sum(g, 4)
    direct = sum(cmath.exp(2j * math.pi * 0.125 * y * z)
                 for y in range(1, 5) for z in range(1, 5))
    assert abs(res.value - direct) < 1e-12


def test_decompose_contract_q27():
    chi = enumerate_characters(27, primitive_only=True)[0]
    res = decompose(chi, 0, 200, RealPolynomial.zero(), 2)
    assert res.holds
    assert res.residual <= 10 * 3**6
    assert res.coprime_count == len([n for n in range(1, 201) if n % 3 != 0])


def test_decompose_full_period():
    chi = enumerate_characters(27, primitive_only=True)[0]
    res = decompose(chi, 0, 27, RealPolynomial.zero(), 2)
    assert abs(res.s_value) < 1e-10  # orthogonality at full period
    assert abs(res.reconstruction) <= 10 * 3**6


def test_decompose_polynomial_twists():
    chi = enumerate_characters(81, primitive_only=True)[0]
    lin = RealPolynomial.make([0, Fraction(1, 5)])
    quad = RealPolynomial.make([Fraction(1, 3), Fraction(1, 7), Fraction(2, 11)])
    for G in (lin, quad):
        res = decompose(chi, 10, 81, G, 2)
        assert res.holds, (res.residual, res.allowance)


def test_decompose_empty_coprime_set():
    chi = enumerate_characters(27, primitive_only=True)[0]
    res = decompose(chi, 2, 1, RealPolynomial.zero(), 2)  # window = {3}, not coprime
    assert res.v_value == 0j and res.coprime_count == 0
    assert res.holds


def test_decompose_errors():
    chi = enumerate_characters(27, primitive_only=True)[0]
    with pytest.raises(ValueError):
        decompose(chi, 0, 100, RealPolynomial.zero(), 1)
    with pytest.raises(ValueError):
        decompose(chi, 0, 100, RealPolynomial.zero(), 2, work_budget=10)


def test_twisted_sum_float_mode_above_exact_switch():
    chi = enumerate_characters(27, primitive_only=True)[2]
    G = RealPolynomial.make([0, Fraction(1, 7), Fraction(2, 11)])
    M, N = 5, 2 * 10**5 + 5
    res = twisted_sum(chi, M, N, G)
    assert res.mode == "float"
    # chi(n) has period 27 and G(n) mod 1 period 77: tabulate one period of each
    chi_of = [chi(r) for r in range(27)]
    frac_of = [G.frac_at(r) for r in range(77)]
    direct = sum(chi_of[n % 27] * cmath.exp(2j * math.pi * float(frac_of[n % 77]))
                 for n in range(M + 1, M + N + 1))
    assert abs(res.value - direct) <= 1e-9 * N


def test_twisted_sum_float_coefficients():
    chi = enumerate_characters(27, primitive_only=True)[2]
    G = RealPolynomial.make([0.25, 0.1, 0.003])
    M, N = 5, 1000
    res = twisted_sum(chi, M, N, G)
    assert res.mode == "float"
    direct = sum(chi(n) * cmath.exp(2j * math.pi * G.eval_float(n))
                 for n in range(M + 1, M + N + 1))
    assert abs(res.value - direct) <= 1e-9 * N


def test_dirichlet_poly_across_block_boundary():
    chi = enumerate_characters(27, primitive_only=True)[2]
    M, N, t = 100, (1 << 16) + 4000, 3.5
    res = dirichlet_poly(chi, M, N, t)
    direct = sum(chi(n) * cmath.exp(1j * t * math.log(n)) for n in range(M + 1, M + N + 1))
    assert abs(res.value - direct) <= 1e-9 * N


def test_decompose_large_phase_denominator():
    """G has denominator ~10^18, so Horner steps on residues exceed int64."""
    q, s, M, N = 81, 2, 10**6, 12
    chi = enumerate_characters(q, primitive_only=True)[0]
    G = RealPolynomial.make([0, Fraction(1, 10**9 + 7), Fraction(1, 10**9 + 9)])
    res = decompose(chi, M, N, G, s)
    P = chi.modulus.core ** s
    expected = 0j
    for n in range(M + 1, M + N + 1):
        if math.gcd(n, q) != 1:
            continue
        nbar = pow(n, -1, q)
        expected += chi(n) * sum(
            chi(1 + P * nbar * y * z) * cmath.exp(2j * math.pi * float(G.frac_at(n + P * y * z)))
            for y in range(1, P + 1) for z in range(1, P + 1))
    assert abs(res.v_value - expected) <= 1e-9 * res.term_count


@pytest.mark.parametrize("q,M,N,coeffs", [
    # D = lcm(order, ~10^18) >= 2^62: the Python-int branch
    (81, 10**6, 500, [0, Fraction(1, 10**9 + 7), Fraction(1, 10**9 + 9)]),
    (81, 10**20, 300, [0, Fraction(1, 10**9 + 7), Fraction(1, 10**9 + 9)]),
    (2592, 10**6, 3000, [Fraction(1, 3), Fraction(5, 7919), Fraction(2, 9973)]),
    (2**7, 12345, 1000, [0, Fraction(3, 64), Fraction(1, 9973)]),
    # between 2^63 and 2^64, where np.arange rounds through floats
    (729, 10**19, 300, [0, Fraction(1, 7), Fraction(2, 9973)]),
])
def test_twisted_sum_exact_angles_term_by_term(q, M, N, coeffs):
    chi = enumerate_characters(q, primitive_only=True)[1]
    G = RealPolynomial.make(coeffs)
    res = twisted_sum(chi, M, N, G)
    assert res.mode == "exact"
    expected = Counter()
    for n in range(M + 1, M + N + 1):
        a = chi.evaluate(n)
        if a is not None:
            expected[RationalAngle.make(a.fraction + G.frac_at(n))] += 1
    assert res.exact_angle_terms == expected
    if q == 81:
        assert math.lcm(chi.order, G.angle_data()[1]) >= 1 << 62


def test_exact_angle_terms_reads_as_counter():
    chi = enumerate_characters(81, primitive_only=True)[1]
    G = RealPolynomial.make([0, Fraction(1, 7), Fraction(2, 9973)])
    M, N = 100, 5000
    view = twisted_sum(chi, M, N, G).exact_angle_terms
    expected = Counter()
    for n in range(M + 1, M + N + 1):
        a = chi.evaluate(n)
        if a is not None:
            expected[RationalAngle.make(a.fraction + G.frac_at(n))] += 1
    assert view == expected and expected == view
    assert Counter(view) == expected
    assert set(view) == set(expected)
    assert len(view) == len(expected)
    assert sorted(view.values()) == sorted(expected.values())
    for angle in list(expected)[::97]:
        assert angle in view and view[angle] == expected[angle]
    # absent: a denominator that divides lcm(order, 7 * 9973), and one that does not
    for absent in (RationalAngle(1, 7), RationalAngle(1, 11)):
        assert absent not in expected
        assert absent not in view and view[absent] == 0
    bumped = Counter(expected)
    bumped[next(iter(expected))] += 1
    assert view != bumped and bumped != view


def test_double_sum_colliding_products_merge():
    """Products y z that agree mod the denominator merge into one angle."""
    g = RealPolynomial.make([0, Fraction(1, 4), Fraction(1, 6)])
    P = 9
    res = double_sum(g, P)
    expected = Counter(RationalAngle.make(g.frac_at(y * z))
                       for y in range(1, P + 1) for z in range(1, P + 1))
    assert res.exact_angle_terms == expected
    assert len(expected) < len({y * z for y in range(1, P + 1) for z in range(1, P + 1)})
    assert res.value == complex(math.fsum(c * a.to_complex().real for a, c in expected.items()),
                                math.fsum(c * a.to_complex().imag for a, c in expected.items()))


def test_full_period_sums_do_not_pin_value_tables():
    """Every character mod 3^7 summed over a full period, as acceptance
    criterion 5 does: peak RSS stays well below one table per character.

    A child's ru_maxrss starts from the high-water mark of the process it
    was forked from (this test process), so the child reports the peak of
    its own address space, VmHWM, instead."""
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status for a per-process peak RSS")
    code = (
        "from pathlib import Path\n"
        "from corechar.characters import enumerate_characters\n"
        "from corechar.expsums import char_sum\n"
        "q = 3**7\n"
        "for chi in enumerate_characters(q):\n"
        "    terms = char_sum(chi, 0, q).exact_angle_terms\n"
        "    assert len(terms) == chi.order and len(set(terms.values())) == 1\n"
        "for line in Path('/proc/self/status').read_text().splitlines():\n"
        "    if line.startswith('VmHWM:'):\n"
        "        print(line.split()[1])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 80 * 1024  # KiB


def test_twisted_sum_float_mode_past_int64():
    """A window past 2^63 equals the same window moved down by a period."""
    chi = enumerate_characters(27, primitive_only=True)[2]
    G = RealPolynomial.make([0, Fraction(1, 7), Fraction(2, 11)])
    M, N, period = 10**20, 2 * 10**5 + 5, 27 * 77
    res = twisted_sum(chi, M, N, G)
    assert res.mode == "float"
    low = twisted_sum(chi, M % period + period, N, G)
    assert abs(res.value - low.value) <= 1e-9 * N


def test_dirichlet_poly_past_int64():
    """Windows between 2^63 and 2^64, where np.arange rounds through floats,
    and past 2^64."""
    chi = enumerate_characters(27, primitive_only=True)[2]
    N, t = 100, 1.0
    for M in (10**19, 10**20):
        res = dirichlet_poly(chi, M, N, t)
        direct = sum(chi(n) * cmath.exp(1j * t * math.log(n)) for n in range(M + 1, M + N + 1))
        assert abs(res.value - direct) <= 1e-9 * N
