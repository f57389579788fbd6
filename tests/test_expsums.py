"""Sum families: character sums, twists, Dirichlet polynomials, double sums,
and the shift decomposition."""

import cmath
import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from corechar.arith import as_modulus
from corechar.characters import (
    VALUE_TABLE_CAP,
    DirichletCharacter,
    RationalAngle,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from corechar.expsums import (
    _BLOCK,
    RealPolynomial,
    _arange,
    _blocked_sum,
    _chi_numerators,
    _chi_values,
    _exact_sum,
    _phase_numerators,
    _residue_table,
    _shift_weights,
    _spans,
    _v_terms,
    _window_sum,
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
    tracemalloc.start()
    with pytest.raises(ValueError, match="exceeds"):  # P^2 = 2^26 + 2^14 + 1 pairs
        double_sum(RealPolynomial.make([0, Fraction(1, 3)]), 2**13 + 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20  # refused before the grid is built


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


def test_decompose_counts_coprime_n_before_the_budget():
    """decompose counts the coprime n by inclusion-exclusion over the primes
    of q, and the budget refuses a walk before listing any of them."""
    chi = enumerate_characters(27, primitive_only=True)[0]
    tracemalloc.start()
    with pytest.raises(ValueError, match=r"window \(1000009, 4000729\] of 3000720 terms exceeds budget 10"):
        decompose(chi, 10**6, 3 * 10**6, RealPolynomial.zero(), 2, work_budget=10)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20, peak
    chi = enumerate_characters(12)[1]
    for M, N in [(0, 1), (5, 11), (13, 40), (10**19, 30)]:
        res = decompose(chi, M, N, RealPolynomial.zero(), 2)
        expected = sum(math.gcd(n, 12) == 1 for n in range(M + 1, M + N + 1))
        assert res.coprime_count == expected and res.term_count == expected * 36**2, (M, N)


def test_decompose_refuses_a_long_walk_before_allocating():
    """V walks N + P^3 - P terms: at q = 27, s = 7 (P = 2187) a window of 100
    passes the grid check (67 P^2 < 10^9) and is refused as a walk of about
    10^10 terms, before any array of the P^2 shifts is made."""
    chi = enumerate_characters(27, primitive_only=True)[0]
    tracemalloc.start()
    with pytest.raises(ValueError, match=r"window \(2187, 10460353303\] of 10460351116 terms"):
        decompose(chi, 0, 100, RealPolynomial.zero(), 7)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_decompose_budget_bounds_the_walk_not_the_grid():
    """At q = 81, s = 4 (P = 81) a window of 10^6 has a grid of 4.4 * 10^9
    (n, y, z) terms, past the budget of 10^9, yet V walks 1,531,360 terms."""
    chi = enumerate_characters(81, primitive_only=True)[0]
    G = RealPolynomial.zero()
    res = decompose(chi, 0, 10**6, G, 4)
    assert res.term_count == 4374002187 > 1e9
    assert res.v_value == _window_sum(*_v_terms(chi, G, 0, 10**6, 81, res.coprime_count)).value
    assert res.holds, (res.residual, res.allowance)


@pytest.mark.parametrize("N", [3, 4, 30, 100])
def test_shift_weights_count_the_grid(N):
    """K(x) against a count over every pair (y, z) at P = 4, for N < P, N = P,
    P < N < P^3 and N > P^3, one step past each end of the walk included;
    every grid term (n, y, z) lands on exactly one x."""
    P, M = 4, 10**19
    lo, hi = M + P, M + N + P**3
    got = _shift_weights(P, M, N)(lo, hi - lo + 2)
    want = [sum(M < x - P * y * z <= M + N for y in range(1, P + 1) for z in range(1, P + 1))
            for x in range(lo, hi + 2)]
    assert got.tolist() == want
    assert want[0] == want[-1] == 0 and sum(want) == N * P * P


def test_decompose_holds_one_block_of_memory():
    """V walks the window's blocks and holds no list of every coprime n:
    listing the 2*10^5 coprime n first peaks at 11.2 MiB here."""
    chi = enumerate_characters(27, primitive_only=True)[0]
    chi.value_table
    tracemalloc.start()
    res = decompose(chi, 0, 3 * 10**5, RealPolynomial.zero(), 2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert res.coprime_count == 2 * 10**5
    assert peak < 6 << 20, peak


def test_decompose_with_a_twist_holds_one_block_of_memory():
    """S is summed before V's readers hold their two periodic extensions, and
    each block of V is freed before the next is read: 6.0 MiB before both."""
    chi = enumerate_characters(27, primitive_only=True)[0]
    G = RealPolynomial.make([0, Fraction(1, 7)])
    decompose(chi, 0, 1000, G, 2)
    tracemalloc.start()
    decompose(chi, 0, 3 * 10**5, G, 2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 5 << 20, peak


def test_aperiodic_exact_windows_take_no_merge(monkeypatch):
    """A window of no whole period is one np.unique over its numerators,
    distinct and ascending already, so _exact_sum merges nothing; a window
    of whole periods still merges the histograms of the period and of the
    remainder."""
    from corechar import expsums

    merges = []
    merge = expsums._merge
    monkeypatch.setattr(expsums, "_merge", lambda *args: merges.append(1) or merge(*args))
    chi = enumerate_characters(729, primitive_only=True)[3]
    G = RealPolynomial.make([0, Fraction(1, 7), Fraction(2, 1001)])  # period 729 * 1001
    for N in (1, 5000, 2 * _BLOCK + 3):
        res = twisted_sum(chi, 10**6, N, G)
        assert res.mode == "exact" and merges == []
        assert (np.diff(res.exact_angle_terms.numerators) > 0).all()
    char_sum(chi, 5, 700)
    assert merges == []
    twisted_sum(chi, 10**6, 6000, RealPolynomial.make([0, Fraction(1, 7)]))  # period 5103
    char_sum(chi, 6, 2 * 729 + 1)  # two periods and a unit
    assert merges == [1, 1]


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
    """G has denominator ~10^18, so Horner steps on residues exceed int64.
    V against the paper's form, with the inverse nbar of n mod q."""
    s = 2
    chi81 = enumerate_characters(81, primitive_only=True)[0]
    G = RealPolynomial.make([0, Fraction(1, 10**9 + 7), Fraction(1, 10**9 + 9)])
    for chi, M, N in [
        (chi81, 10**6, 12),
        # n + P yz crosses 2^63 inside the window, and the window starts past it
        (chi81, 2**63 - 100, 50),
        (chi81, 10**19, 12),
        # more coprime n than one block of grid rows
        (chi81, 10**6, 1300),
        # above the value table cap
        (_second_primitive_character(3**13), 10**6, 30),
        # cores 1, 2 and 6 (P = 1, 4 and 36)
        *((enumerate_characters(q)[-1], 10**6, N)
          for q, N in [(1, 12), (2, 12), (4, 12), (2**5, 12), (72, 8), (216, 8)]),
    ]:
        q, P = chi.q, chi.modulus.core ** s
        res = decompose(chi, M, N, G, s)
        expected = 0j
        for n in range(M + 1, M + N + 1):
            if math.gcd(n, q) != 1:
                continue
            nbar = pow(n, -1, q)
            expected += chi(n) * sum(
                chi(1 + P * nbar * y * z) * cmath.exp(2j * math.pi * float(G.frac_at(n + P * y * z)))
                for y in range(1, P + 1) for z in range(1, P + 1))
        assert abs(res.v_value - expected) <= 1e-9 * res.term_count, (M, N)


def _second_primitive_character(q):
    if q > VALUE_TABLE_CAP:
        # exponent 2 is enumerate_characters(q, primitive_only=True)[1] for
        # an odd prime power, without making its ~10^6 characters
        return DirichletCharacter(as_modulus(q), ((2,),))
    return enumerate_characters(q, primitive_only=True)[1]


@pytest.mark.parametrize("q,M,N,coeffs", [
    # D = lcm(order, ~10^18) >= 2^62: the Python-int branch
    (81, 10**6, 500, [0, Fraction(1, 10**9 + 7), Fraction(1, 10**9 + 9)]),
    (81, 10**20, 300, [0, Fraction(1, 10**9 + 7), Fraction(1, 10**9 + 9)]),
    (2592, 10**6, 3000, [Fraction(1, 3), Fraction(5, 7919), Fraction(2, 9973)]),
    (2**7, 12345, 1000, [0, Fraction(3, 64), Fraction(1, 9973)]),
    # between 2^63 and 2^64, where np.arange rounds through floats
    (729, 10**19, 300, [0, Fraction(1, 7), Fraction(2, 9973)]),
    # above the value table cap
    (3**13, 10**6, 300, [0, Fraction(1, 7), Fraction(2, 9973)]),
    # den = N and den < N, read from the residue table, across and past 2^63
    (243, 10**6, 1000, [0, Fraction(1, 8), Fraction(3, 125)]),
    (729, 2**63 - 150, 300, [0, Fraction(1, 4), Fraction(2, 75)]),
    (729, 10**20, 300, [0, Fraction(1, 7), Fraction(2, 11)]),
    # D = lcm(order, 35) >= 2^62 with den <= N: Python ints and a residue table
    (3**40, 10**6, 70, [0, Fraction(1, 5), Fraction(2, 7)]),
])
def test_twisted_sum_exact_angles_term_by_term(q, M, N, coeffs):
    chi = _second_primitive_character(q)
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
    if q == 3**40:
        assert math.lcm(chi.order, G.angle_data()[1]) >= 1 << 62 and _residue_table(G, N) is not None


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


def _period_free_window(block_numerators, M, N, den):
    """An exact window counted block by block over all of (M, M+N], with no
    use of a period: the reference for counting whole periods once."""
    hists = [np.unique(t[t >= 0], return_counts=True)
             for t in (block_numerators(_arange(*span)) for span in _spans(M, N))]
    return _exact_sum(*map(np.concatenate, zip(*hists)), den, N)


def _twisted_numerators(chi, G):
    """chi(n) e(G(n)) = e(t(n)/D) as in ``twisted_sum``, G by Horner's rule
    term by term; -1 on non-units is dropped as there."""
    (nums, den), L = G.angle_data(), chi.order
    D = math.lcm(L, den)
    dtype = np.int64 if D < 1 << 62 else object

    def numerators(ns):
        A = _chi_numerators(chi, ns)
        ns, A = ns[A >= 0], A[A >= 0]
        phase = _phase_numerators(nums, den, ns)
        return (A.astype(dtype) * (D // L) + phase.astype(dtype) * (D // den)) % D
    return numerators, D


def _assert_same_exact_result(res, expected):
    got, want = res.exact_angle_terms, expected.exact_angle_terms
    assert res.mode == expected.mode == "exact"
    assert got.den == want.den
    assert np.array_equal(got.numerators, want.numerators)
    assert np.array_equal(got.counts, want.counts)
    assert res.value == expected.value and res.term_count == expected.term_count


def _around_whole_periods(period, k):
    return list(dict.fromkeys([k * period - 1, k * period, k * period + 1, period - 1]))


@pytest.mark.parametrize("q,M,k", [
    (27, 10**6 + 5, 3),
    (2592, 12345, 3),
    # object arrays from 2^63 on
    (27, 2**63 + 5, 3),
    (27, 10**20 + 7, 3),
    # above the value table cap: angle_numerators block by block
    (3**13, 10**6 + 5, 1),
])
def test_char_sum_whole_periods_match_period_free_counter(q, M, k):
    chi = _second_primitive_character(q)
    numerators = lambda ns: _chi_numerators(chi, ns)  # noqa: E731
    for N in _around_whole_periods(q, k):
        expected = _period_free_window(numerators, M, N, chi.order)
        _assert_same_exact_result(char_sum(chi, M, N), expected)


def test_char_sum_whole_periods_at_ten_to_the_twenty():
    """N = 10^20 terms: k whole periods counted at (M, M+q], and the rem
    terms counted where they lie, at (M + k q, M + N]."""
    chi = _second_primitive_character(27)
    numerators = lambda ns: _chi_numerators(chi, ns)  # noqa: E731
    M, N = 10**6 + 5, 10**20
    k, rem = divmod(N, chi.q)
    period = _period_free_window(numerators, M, chi.q, chi.order).exact_angle_terms
    tail = _period_free_window(numerators, M + k * chi.q, rem, chi.order).exact_angle_terms
    expected = _exact_sum(np.concatenate((period.numerators, tail.numerators)),
                          np.concatenate((period.counts.astype(object) * k, tail.counts)),
                          chi.order, N)
    _assert_same_exact_result(char_sum(chi, M, N), expected)


@pytest.mark.parametrize("q,N", [(9, 10**23), (27, 10**17), (27, 10**20)])
def test_exact_char_sum_value_within_its_error_bound(q, N):
    """An exact char_sum's histogram is exact, and each part of its value
    lies within 23 n 2^-53 of the true part, n the units counted, plus the
    last rounding (``_exact_sum``).  Whole periods of a nonprincipal
    character sum to 0, so the reference is the sum over the remainder
    alone, within the same bound over its own units."""
    chi = enumerate_characters(q, primitive_only=True)[1]
    k, rem = divmod(N, q)
    res, ref = char_sum(chi, 0, N), char_sum(chi, k * q, rem)
    n, n_ref = (sum(r.exact_angle_terms.values()) for r in (res, ref))
    assert res.mode == ref.mode == "exact" and n == k * chi.modulus.phi + n_ref
    u = 2.0**-53
    for got, want in ((res.value.real, ref.value.real), (res.value.imag, ref.value.imag)):
        assert abs(got - want) <= 23 * (n + n_ref) * u + (abs(got) + abs(want)) * u, (got, want)


@pytest.mark.parametrize("q,M,coeffs,k", [
    (27, 10**6 + 5, [0, Fraction(1, 7)], 3),
    (2592, 12345, [Fraction(1, 3), Fraction(1, 5), Fraction(2, 5)], 3),
    (729, 10**6 + 5, [0, Fraction(1, 729), Fraction(5, 243)], 3),
    # the period lcm(q, den) is not q
    (2187, 10**6 + 5, [0, Fraction(1, 5), Fraction(2, 7)], 2),
    # the period fits, but den > _BLOCK runs Horner's rule term by term
    (3**5, 10**6 + 5, [0, Fraction(1, 3**11), Fraction(2, 3**10)], 1),
    (27, 2**63 + 5, [0, Fraction(1, 7), Fraction(2, 11)], 3),
])
def test_twisted_sum_whole_periods_match_period_free_counter(q, M, coeffs, k):
    chi = _second_primitive_character(q)
    G = RealPolynomial.make(coeffs)
    numerators, D = _twisted_numerators(chi, G)
    for N in _around_whole_periods(math.lcm(q, G.angle_data()[1]), k):
        expected = _period_free_window(numerators, M, N, D)
        _assert_same_exact_result(twisted_sum(chi, M, N, G), expected)


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


@pytest.mark.parametrize("q,M,coeffs", [
    (27, 10**6, [0, Fraction(1, 7)]),
    (2592, 12345, [Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(3, 11)]),
    # den = _BLOCK reads the table; den = _BLOCK + 1 runs Horner term by term
    (243, 10**12, [0, Fraction(5, 64), Fraction(3, _BLOCK)]),
    (243, 10**12, [0, Fraction(1, _BLOCK + 1), Fraction(2, _BLOCK + 1), Fraction(3, _BLOCK + 1)]),
    # object arrays from 2^63 on
    (729, 2**63 - 10, [0, Fraction(1, 7), Fraction(2, 11)]),
    (3**13, 10**6, [0, Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)]),
])
def test_twisted_sum_float_bits_match_term_by_term(q, M, coeffs):
    """Float windows keep their bits: each value equals the blocked sum of
    chi(n) e(G(n)) with e(G(n)) taken term by term."""
    chi = _second_primitive_character(q)
    G = RealPolynomial.make(coeffs)
    N = 2 * 10**5 + 1
    res = twisted_sum(chi, M, N, G)
    expected = _blocked_sum(lambda ns: _chi_values(chi, ns) * np.exp(2j * np.pi * G.phases(ns)), M, N)
    assert res.mode == "float" and res.value == expected.value


def _decompose_v_term_by_term(chi, M, N, G, s):
    """V of ``decompose`` summed as its reducer sums it: K(x) chi(x) e(G(x))
    over x in (M + P, M + N + P^3], K(x) the number of y, z <= P with
    M < x - P yz <= M + N counted pair by pair, chi from the value table and
    e(G) term by term; each run of _BLOCK consecutive x summed by np.sum and
    the runs by fsum."""
    q, P = chi.q, chi.modulus.core**s
    Pyz = np.array([P * y * z for y in range(1, P + 1) for z in range(1, P + 1)])
    lo, hi = M + P, M + N + P**3
    dtype = np.int64 if -(1 << 63) <= lo and hi < 1 << 63 else object
    re, im = [], []
    for x0 in range(lo + 1, hi + 1, _BLOCK):
        xs = np.array(range(x0, min(x0 + _BLOCK, hi + 1)), dtype=dtype)
        k = (xs - M).astype(np.int64)[:, None]
        K = ((k - N <= Pyz) & (Pyz < k)).sum(axis=1)
        t = np.multiply(chi.value_table[1][(xs % q).astype(np.int64)], np.exp(2j * np.pi * G.phases(xs)))
        t = np.multiply(t, K)
        re.append(float(np.sum(t.real)))
        im.append(float(np.sum(t.imag)))
    return complex(math.fsum(re), math.fsum(im))


@pytest.mark.parametrize("q,M,N,s,coeffs,runs", [
    (72, 0, 1, 2, [0, Fraction(1, 7)], True),
    (72, 10**6 + 3, 10, 3, [0, Fraction(1, 7)], True),
    (12, 2**63 - 5, 4, 2, [Fraction(1, 3), Fraction(1, 7), Fraction(2, 11)], True),
    (81, 10**19, 12, 2, [0, Fraction(1, 10**9 + 7)], True),
    (36, 500, 7, 2, [0, 0.3183098861837907], True),
    (216, 0, 3, 2, [0], True),
    (81, 0, 162, 2, [0, Fraction(1, 5)], False),
    (27, 100, 200, 2, [0, Fraction(1, 7)], False),
])
def test_decompose_walks_the_runs_when_shorter(monkeypatch, q, M, N, s, coeffs, runs):
    """When the pairs of a unit n of the window and a distinct product yz
    are fewer than the walk's N + P^3 - P terms, V sums them, each weighted
    by its number of pairs (y, z), and no K(x) is read; otherwise V walks.
    Either way V agrees within 1e-13 relative with the grid: chi(x) e(G(x))
    at x = n + P yz over every unit n and every pair (y, z)."""
    import corechar.expsums as expsums
    calls = []
    monkeypatch.setattr(expsums, "_shift_weights", lambda *a: calls.append(a) or _shift_weights(*a))
    chi = enumerate_characters(q)[-1]
    G = RealPolynomial.make(coeffs)
    res = decompose(chi, M, N, G, s)
    assert (calls == []) == runs
    P = chi.modulus.core**s
    ns = [n for n in range(M + 1, M + N + 1) if math.gcd(n, q) == 1]
    yz = (P * np.outer(np.arange(1, P + 1), np.arange(1, P + 1))).ravel()
    grid = []
    for n in ns:
        xs = n + yz.astype(np.int64 if -(1 << 63) <= M and M + N + P**3 < 1 << 63 else object)
        t = _chi_values(chi, xs) * np.exp(2j * np.pi * G.phases(xs))
        grid += [math.fsum(t.real) + 1j * math.fsum(t.imag)]
    expected = complex(math.fsum(z.real for z in grid), math.fsum(z.imag for z in grid))
    assert abs(res.v_value - expected) <= 1e-13 * abs(expected), (res.v_value, expected)


@pytest.mark.parametrize("q,M,N,coeffs", [
    (27, 100, 200, [0, Fraction(1, 7)]),
    (81, 10**6, 1300, [Fraction(1, 3), Fraction(1, 7), Fraction(2, 11)]),
    # a walk of 2020 x: den = _BLOCK and den = _BLOCK + 1 both run Horner term by term
    (27, 0, 1300, [0, Fraction(5, 64), Fraction(1, 2), Fraction(3, _BLOCK)]),
    (27, 0, 1300, [0, Fraction(1, _BLOCK + 1)]),
    (81, 2**63 - 100, 50, [0, Fraction(1, 7), Fraction(2, 11)]),
    # a walk of _BLOCK + 720 x, two blocks: den = _BLOCK reads the table
    (27, 0, _BLOCK, [0, Fraction(5, 64), Fraction(1, 2), Fraction(3, _BLOCK)]),
])
def test_decompose_v_bits_match_term_by_term(q, M, N, coeffs):
    chi = enumerate_characters(q, primitive_only=True)[0]
    G = RealPolynomial.make(coeffs)
    res = decompose(chi, M, N, G, 2)
    assert res.v_value == _decompose_v_term_by_term(chi, M, N, G, 2)


def test_float_twist_refused_where_x_rounds():
    """Past 2^53 float64(x) is not x, so a G with float coefficients would be
    summed at the wrong points: at x = 2^62 + 1..40, G = x/2 summed 30.1+26.3i
    where the true sum is 0.  twisted_sum and decompose refuse it; a window
    ending at 2^53 still runs, and a rational G runs anywhere."""
    chi = principal_character(1)
    G = RealPolynomial.make([0, 0.5])
    with pytest.raises(ValueError, match=r"past 2\^53"):
        twisted_sum(chi, 2**62, 40, G)
    with pytest.raises(ValueError, match=r"past 2\^53"):
        twisted_sum(chi, -2**62, 40, G)
    assert twisted_sum(chi, 2**62, 40, RealPolynomial.make([0, Fraction(1, 2)])).value == 0j
    res = twisted_sum(chi, 2**53 - 40, 40, G)  # its phases err by about |G(x)| 2^-53, half a turn here
    assert res.mode == "float" and res.term_count == 40 and cmath.isfinite(res.value)
    chi27 = enumerate_characters(27, primitive_only=True)[0]
    with pytest.raises(ValueError, match=r"past 2\^53"):
        decompose(chi27, 2**53 - 200, 100, G, 2)  # V's walk reaches x = 2^53 - 100 + 729
    decompose(chi27, 2**53 - 900, 100, G, 2)


def test_windows_below_minus_2_63_run_on_python_ints(monkeypatch):
    """A window starting below -2^63 sums as the same window moved up by
    whole periods into M >= 0: twisted_sum's exact histogram over the period
    lcm(27, 10^9 + 7), and the V of decompose's runs over lcm(30, 7) = 210,
    bit for bit."""
    import corechar.expsums as expsums
    M = -2**70
    chi = enumerate_characters(27, primitive_only=True)[0]
    G = RealPolynomial.make([0, Fraction(1, 10**9 + 7)])
    low, high = twisted_sum(chi, M, 10, G), twisted_sum(chi, M % (27 * (10**9 + 7)), 10, G)
    assert low.mode == high.mode == "exact" and low.exact_angle_terms == high.exact_angle_terms
    monkeypatch.setattr(expsums, "_shift_weights", None)  # the runs, not the walk
    chi, G = enumerate_characters(30)[-1], RealPolynomial.make([0, Fraction(1, 7)])
    assert decompose(chi, M, 40, G, 2).v_value == decompose(chi, M % 210, 40, G, 2).v_value
