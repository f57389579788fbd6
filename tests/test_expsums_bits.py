"""Bits of the sum layer: ``_fsum`` against math.fsum, the periodic
window readers against the per-block gathers they replaced, and the
workspace they share."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corechar import expsums
from corechar.arith import as_modulus
from corechar.characters import VALUE_TABLE_CAP, DirichletCharacter, root_values
from corechar.expsums import (
    _BLOCK,
    _EXACT_CAP,
    _TWISTED_EXACT_CAP,
    AngleCounts,
    RealPolynomial,
    _arange,
    _blocked_sum,
    _chi_numerators,
    _chi_values,
    _dirichlet_terms,
    _exact_sum,
    _fsum,
    _phase_numerators,
    _residue_table,
    _residues,
    _shift_weights,
    _spans,
    _window_sum,
    char_sum,
    decompose,
    dirichlet_poly,
    double_sum,
    twisted_sum,
)

# ---------------------------------------------------------------------------
# _fsum is math.fsum, bit for bit
# ---------------------------------------------------------------------------


def _assert_fsum(x):
    """_fsum(x) returns math.fsum(x)'s bits (the sign of zero and NaN
    included), or raises what math.fsum raises."""
    x = np.asarray(x, dtype=np.float64)
    try:
        want = math.fsum(x)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _fsum(x)
        return
    assert _fsum(x).hex() == want.hex()


finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_doubles, max_size=300))
def test_fsum_matches_math_fsum_on_finite_lists(xs):
    """Every list goes through the bins (the size floor lowered to 1), and
    once more at the real floor."""
    with mock.patch.object(expsums, "_FSUM_FROM", 1):
        _assert_fsum(xs)
    _assert_fsum(xs)


def _seeded_arrays():
    rng = np.random.default_rng(2024)
    n = 5000
    wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    subnormal = rng.integers(-(1 << 52), 1 << 52, n) * 5e-324
    mixed = np.concatenate((subnormal[:100], wide[:100], rng.standard_normal(2000)))
    half = rng.standard_normal(3000) * 10.0 ** rng.uniform(-20, 20, 3000)
    cancel = rng.permutation(np.concatenate((half, -half)))
    pad = np.zeros(2000)
    ties = [
        [1.0, 2.0**-53],                 # 1 + 2^-53: halfway, to the even 1
        [1.0, 2.0**-52, 2.0**-53],       # halfway, to the even 1 + 2^-51
        [2.0**53, 1.0],                  # 2^53 + 1: to the even 2^53
        [2.0**53, 3.0],                  # 2^53 + 3: to the even 2^53 + 4
        [-(2.0**53), -1.0, 2.0**-60, -(2.0**-60)],
        [1e300, 1e-300, -1e300],         # the tiny term survives exactly
    ]
    arrays = [wide, subnormal, mixed, cancel, -cancel, np.concatenate((cancel, [-0.0])),
              np.full(3000, -0.0), np.full(1500, 5e-324), np.full(1500, -5e-324),
              # more than one 2^16 chunk, some bins on both sides
              rng.standard_normal(2 * (1 << 16) + 7) * 10.0 ** rng.integers(-30, 30, 2 * (1 << 16) + 7),
              # sums of |x| near the 2^1021 fallback, and past it: fsum overflows
              np.full(1100, 2.0**1009), np.full(1100, 2.0**1010),
              np.concatenate((np.full(600, 1e308), np.full(600, -1e308)))]
    arrays += [np.concatenate((pad, t, pad)) for t in ties]
    return arrays


@pytest.mark.parametrize("i", range(len(_seeded_arrays())))
def test_fsum_matches_math_fsum_on_seeded_arrays(i):
    _assert_fsum(_seeded_arrays()[i])


@pytest.mark.parametrize("den,count", [(10**7 + 19, 2 * 10**5), (3**8 * 9973, 70000), (2 * 3**7, 1500)])
def test_fsum_matches_math_fsum_on_weighted_roots(den, count):
    """Counts times ``root_values``, as ``_exact_sum`` hands them over."""
    rng = np.random.default_rng(den)
    a = np.unique(rng.integers(0, den, count))
    weights = rng.integers(1, 4, len(a)).astype(np.float64)
    roots = root_values(a, den)
    _assert_fsum(weights * roots.real)
    _assert_fsum(weights * roots.imag)
    # strided views, as double_sum's float path hands them over
    terms = weights * roots
    _assert_fsum(terms.real)
    _assert_fsum(terms.imag)


@pytest.mark.parametrize("bad", [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
                                 [math.inf, math.nan], [math.inf, 1e308, 1e308]])
def test_fsum_of_non_finite_input_is_math_fsum(bad):
    for at in (0, 1500, 3000 - len(bad)):
        x = np.ones(3000)
        x[at:at + len(bad)] = bad
        _assert_fsum(x)


# ---------------------------------------------------------------------------
# The periodic readers give the gathers' bits
# ---------------------------------------------------------------------------


def _gather_exact_window(block_numerators, M, N, den, period):
    """An exact window counted as the sums counted it with gathers: block by
    block over ``_spans``, whole periods once."""
    k, rem = divmod(N, period)
    dtype = np.int64 if N < 1 << 63 else object
    hists = [(a, c.astype(dtype, copy=False) * times)
             for times, n in ((k, period), (1, rem)) if times
             for a, c in (np.unique(t[t >= 0], return_counts=True)
                          for t in (block_numerators(_arange(*span)) for span in _spans(M, n)))]
    return _exact_sum(*map(np.concatenate, zip(*hists)), den, N)


def _gather_char_sum(chi, M, N):
    """``char_sum`` by gathers, and the histogram whose fsum is its value:
    the window's, or, where whole periods of a nonprincipal character (which
    sum to exactly 0) are counted, the remainder window's (empty when q | N)."""
    if chi.q <= VALUE_TABLE_CAP or N <= _EXACT_CAP:
        numerators = lambda ns: _chi_numerators(chi, ns)  # noqa: E731
        res = _gather_exact_window(numerators, M, N, chi.order, chi.q)
        rem = N % chi.q
        if chi.is_principal or N < chi.q:
            return res, res.exact_angle_terms
        if not rem:
            return dataclasses.replace(res, value=0j), AngleCounts(np.zeros(0, np.int64), np.zeros(0), chi.order)
        tail = _gather_exact_window(numerators, M, rem, chi.order, chi.q)
        return dataclasses.replace(res, value=tail.value), tail.exact_angle_terms
    return _blocked_sum(lambda ns: _chi_values(chi, ns), M, N), None


def _gather_twisted_sum(chi, M, N, G):
    """``twisted_sum`` with chi gathered at ns % q and a rational twist at
    ns % den from its residue table, for every block's integers ns."""
    if G.is_zero:
        return _gather_char_sum(chi, M, N)[0]
    table = _residue_table(G, N)
    if G.is_rational and N <= _TWISTED_EXACT_CAP:
        (nums, den), L = G.angle_data(), chi.order
        D = math.lcm(L, den)
        dtype = np.int64 if D < 1 << 62 else object

        def numerators(ns):
            A = _chi_numerators(chi, ns)
            ns, A = ns[A >= 0], A[A >= 0]
            phase = _phase_numerators(nums, den, ns) if table is None else table[_residues(ns, den)]
            return (A.astype(dtype) * (D // L) + phase.astype(dtype) * (D // den)) % D
        return _gather_exact_window(numerators, M, N, D, math.lcm(chi.q, den))
    if table is None:
        def twist(ns):
            return np.exp(2j * np.pi * G.phases(ns))
    else:
        E = np.exp(2j * np.pi * (table.astype(np.float64) / len(table)))

        def twist(ns):
            return E[_residues(ns, len(E))]

    def terms(ns):
        t = _chi_values(chi, ns)
        t *= twist(ns)
        return t
    return _blocked_sum(terms, M, N)


def _math_log_each(ns):
    """math.log of every integer of ns, one Python call each."""
    return np.array([math.log(n) for n in ns.tolist()], dtype=np.float64)


def _gather_dirichlet_poly(chi, M, N, t):
    return _blocked_sum(lambda ns: _chi_values(chi, ns) * np.exp(1j * t * _math_log_each(ns)), M, N)


def _assert_same_bits(res, want, value_terms=None):
    """res has want's value bits, mode, term count and exact histogram, and
    its value is the fsum of value_terms (by default that histogram)."""
    assert (res.value.real.hex(), res.value.imag.hex(), res.mode, res.term_count) == \
        (want.value.real.hex(), want.value.imag.hex(), want.mode, want.term_count)
    got, exp = res.exact_angle_terms, want.exact_angle_terms
    if exp is None:
        assert got is None
        return
    assert got.den == exp.den
    assert np.array_equal(got.numerators, exp.numerators)
    assert got.counts.dtype == exp.counts.dtype and np.array_equal(got.counts, exp.counts)
    # the value is the fsum of its histogram, as before the binned sum
    hist = exp if value_terms is None else value_terms
    roots, w = root_values(hist.numerators, hist.den), hist.counts.astype(np.float64)
    assert res.value == complex(math.fsum(w * roots.real), math.fsum(w * roots.imag))


def _chi(q, comps):
    return DirichletCharacter(as_modulus(q), comps)


def _edge_starts(m, b):
    """Window offsets M whose first block starts (n0 = M + 1) at the residues
    mod m next to a wrap: at 0, 1 and m - 1, and, when a block fits in m,
    where it ends just before, at and just past m."""
    residues = {0, 1, m - 1} | ({m - b - 1, m - b, m - b + 1} if m >= b else set())
    return [10**6 * m + r - 1 for r in sorted(r for r in residues if r >= 0)]


# (q, components, M, N, G's coefficients)
_Q729, _Q2_17 = ((5,),), ((1, 3),)
READER_CASES = (
    # N < q, and N over many periods of q and of lcm(q, den)
    [(3**8, ((7,),), 12345, 1000, [0, Fraction(1, 7), Fraction(3, 11)]),
     (27, ((2,),), 10**6 + 5, 150000, [0, Fraction(1, 7)]),
     (27, ((2,),), 10**6 + 5, 2 * 10**5 + 3, [0, Fraction(1, 7)])]
    # block starts next to every wrap: q and den below a block (extensions) ...
    + [(729, _Q729, M, 2 * _BLOCK + 3, [0, Fraction(2, 7), Fraction(1, 77)])
       for M in _edge_starts(729, _BLOCK)]
    # ... and q, den = _BLOCK at least a block (den = _BLOCK: the longest extension)
    + [(2**17, _Q2_17, M, 2 * _BLOCK + 5, [0, Fraction(1, 3), Fraction(5, _BLOCK)])
       for M in _edge_starts(2**17, _BLOCK)]
    + [(2**17, _Q2_17, M, _TWISTED_EXACT_CAP + 9, [0, Fraction(1, 3), Fraction(5, _BLOCK)])
       for M in _edge_starts(_BLOCK, _BLOCK)]
    # den > min(N, 2^16): Horner's rule term by term
    + [(729, _Q729, 777, 1.5 * _BLOCK, [0, Fraction(1, _BLOCK + 1), Fraction(3, _BLOCK + 1)]),
       (729, _Q729, 777, 500, [0, Fraction(1, 1000)]),
       (729, _Q729, 777, _TWISTED_EXACT_CAP + 1, [0, Fraction(1, _BLOCK + 1)])]
    # M + N straddling 2^63: object arrays
    + [(243, ((4,),), 2**63 - _BLOCK - 5, 2 * _BLOCK, [0, Fraction(1, 7), Fraction(2, 11)]),
       (243, ((4,),), 2**63 - _BLOCK - 5, _TWISTED_EXACT_CAP + 2, [0, Fraction(1, 7)]),
       (2**17, _Q2_17, 2**63 - 7, 1000, [0, Fraction(1, 7)])]
    # edge moduli: 1, 2, 4, 2^gamma and mixed 2^a 3^b
    + [(q, comps, 10**9 + 11, N, [0, Fraction(1, 7), Fraction(1, 9)])
       for q, comps in [(1, ()), (2, ((),)), (4, ((1,),)), (2**10, ((1, 5),)),
                        (2592, ((1, 3), (5,))), (1944, ((1, 1), (7,)))]
       for N in (70001, _TWISTED_EXACT_CAP + 4)]
    # above VALUE_TABLE_CAP: the integers of each block, as before
    + [(3**13, ((2,),), 10**6 + 5, 5000, [0, Fraction(1, 7), Fraction(2, 11)]),
       (3**13, ((2,),), 10**6 + 5, _TWISTED_EXACT_CAP + 1, [0, Fraction(1, 7)])]
)


@pytest.mark.parametrize("q,comps,M,N,coeffs", READER_CASES)
def test_readers_give_the_gathers_bits(q, comps, M, N, coeffs):
    """twisted_sum (exact or float by N), char_sum and, on the shorter
    windows, a float twist term by term and dirichlet_poly: the same value
    bits, mode and exact histogram as the per-block gathers."""
    N = int(N)
    chi = _chi(q, comps)
    G = RealPolynomial.make(coeffs)
    _assert_same_bits(twisted_sum(chi, M, N, G), _gather_twisted_sum(chi, M, N, G))
    _assert_same_bits(char_sum(chi, M, N), *_gather_char_sum(chi, M, N))
    if N <= 1.5 * _BLOCK:
        Gf = RealPolynomial.make([0, 0.1234567, 1 / 3])
        if M + N <= 2**53:
            _assert_same_bits(twisted_sum(chi, M, N, Gf), _gather_twisted_sum(chi, M, N, Gf))
        else:  # float64 rounds x past 2^53, so a float G is refused there
            with pytest.raises(ValueError, match=r"past 2\^53"):
                twisted_sum(chi, M, N, Gf)
        _assert_same_bits(dirichlet_poly(chi, M, N, 3.7), _gather_dirichlet_poly(chi, M, N, 3.7))


def test_twisted_windows_take_no_residues_per_block(monkeypatch):
    """At a value-table modulus with den <= min(N, 2^16), exact and float
    windows read chi and the twist as slices: the only ``_residues`` call is
    the one that builds the twist's residue table."""
    chi = _chi(729, _Q729)
    G = RealPolynomial.make([0, Fraction(2, 7), Fraction(1, 77)])
    calls = []

    def counted(ns, m):
        calls.append((len(ns), m))
        return _residues(ns, m)
    monkeypatch.setattr(expsums, "_residues", counted)
    for N in (_TWISTED_EXACT_CAP, _TWISTED_EXACT_CAP + 1):
        calls.clear()
        res = twisted_sum(chi, 10**6 + 3, N, G)
        assert res.mode == ("exact" if N == _TWISTED_EXACT_CAP else "float")
        assert calls == [(77, 77)]


def test_decompose_takes_no_residues_per_block(monkeypatch):
    """decompose at a value-table modulus with a tabled twist reads V's chi
    and e(G) as slices too: the only ``_residues`` calls build the twist's
    residue tables, one for the direct sum S and one for V's walk."""
    chi = _chi(729, _Q729)
    G = RealPolynomial.make([0, Fraction(2, 7), Fraction(1, 77)])
    calls = []

    def counted(ns, m):
        calls.append((len(ns), m))
        return _residues(ns, m)
    monkeypatch.setattr(expsums, "_residues", counted)
    res = decompose(chi, 10**6 + 3, 3 * _BLOCK, G, 2)
    assert res.coprime_count == 2 * _BLOCK
    assert calls == [(77, 77)] * 2


def test_periodic_extensions_stay_short(monkeypatch):
    """An extension is made in the workspace for a tabled twist, whose
    period is at most a block, and is shorter than a block plus that
    period: a 10-term window at q = 2^20 extends only its 7-residue twist,
    to 10 + 7 - 1 entries, and copies no character table."""
    made = []
    extend = expsums._extend

    def recorded(table, length, at):
        made.append((len(table), length))
        ext = extend(table, length, at)
        assert any(np.shares_memory(ext, r) for r in expsums._WS.regions)
        return ext
    monkeypatch.setattr(expsums, "_extend", recorded)
    chi = _chi(2**20, ((1, 3),))
    chi.value_table
    G = RealPolynomial.make([0, Fraction(1, 7)])
    for Gx in (G, RealPolynomial.make([0, 0.25, 1 / 3])):
        twisted_sum(chi, 123456, 10, Gx)
        char_sum(chi, 123456, 10)
    assert made == [(7, 16)]
    tracemalloc.start()
    twisted_sum(chi, 123456, 10, G)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 16, peak  # the tables are 8 and 16 MiB
    twisted_sum(chi, 123456, 10**5, G)
    twisted_sum(_chi(729, _Q729), 123456, 10**5, G)
    assert made and all(m < _BLOCK and length < _BLOCK + m for m, length in made)


# ---------------------------------------------------------------------------
# The workspace: every window reuses it, and no caller sees it
# ---------------------------------------------------------------------------


def _in_workspace(a) -> bool:
    return any(np.shares_memory(a, region) for region in expsums._WS.regions)


def _kept(res):
    """A result's value and, in exact mode, copies of its histogram."""
    terms = res.exact_angle_terms
    if terms is None:
        return res.value, None
    return res.value, (terms.numerators.copy(), terms.counts.copy(), terms.den)


def _same_kept(a, b) -> bool:
    if a[0].real.hex() != b[0].real.hex() or a[0].imag.hex() != b[0].imag.hex():
        return False
    if a[1] is None or b[1] is None:
        return a[1] is b[1]
    return (np.array_equal(a[1][0], b[1][0]) and np.array_equal(a[1][1], b[1][1])
            and a[1][0].dtype == b[1][0].dtype and a[1][1].dtype == b[1][1].dtype and a[1][2] == b[1][2])


def test_results_never_alias_the_workspace():
    """A float window, an exact window and a character sum keep their value,
    numerators and counts while windows on another character run through
    the same workspace afterwards, and no array they return shares memory
    with it."""
    chi, other = _chi(729, _Q729), _chi(3**7, ((5,),))
    G = RealPolynomial.make([0, Fraction(2, 7), Fraction(1, 77)])
    results = [twisted_sum(chi, 10**6 + 3, _TWISTED_EXACT_CAP + 1, G),
               twisted_sum(chi, 10**6 + 3, _TWISTED_EXACT_CAP, G),
               char_sum(chi, 5, 5000),
               double_sum(RealPolynomial.make([0, Fraction(1, 9973)]), 60)]
    assert [r.mode for r in results] == ["float", "exact", "exact", "exact"]
    kept = [_kept(r) for r in results]
    H = RealPolynomial.make([0, Fraction(3, 9973), Fraction(5, 9973)])
    for M in (0, 12345):
        twisted_sum(other, M, _TWISTED_EXACT_CAP + 1, H)
        twisted_sum(other, M, _TWISTED_EXACT_CAP, H)
        char_sum(other, M, 3 * _BLOCK)
        dirichlet_poly(other, M, 2 * _BLOCK, 2.5)
    assert all(_same_kept(k, _kept(r)) for k, r in zip(kept, results))
    for r in results:
        if r.exact_angle_terms is not None:
            assert not _in_workspace(r.exact_angle_terms.numerators)
            assert not _in_workspace(r.exact_angle_terms.counts)


def test_decompose_keeps_its_bits_through_the_workspace():
    """decompose's S is twisted_sum's value and its V the walk summed from
    per-block gathers, bit for bit, and both stay so when other windows run
    between two calls."""
    chi = _chi(729, _Q729)
    G = RealPolynomial.make([0, Fraction(1, 7)])
    M, N, P = 10**6 + 3, 3000, 9
    first = decompose(chi, M, N, G, 2)
    assert first.s_value == twisted_sum(chi, M, N, G).value
    walk = N + P**3 - P
    table = _residue_table(G, walk)
    E = np.exp(2j * np.pi * (table.astype(np.float64) / len(table)))
    weights = _shift_weights(P, M, N)

    def terms(n0, size):
        ns = _arange(n0, size)
        return np.multiply(np.multiply(_chi_values(chi, ns), E[_residues(ns, len(E))]), weights(n0, size))
    want = _window_sum(terms, M + P, walk).value
    assert (first.v_value.real.hex(), first.v_value.imag.hex()) == (want.real.hex(), want.imag.hex())
    twisted_sum(_chi(243, ((4,),)), 0, _TWISTED_EXACT_CAP + 1, G)
    twisted_sum(_chi(3**7, ((5,),)), 0, _TWISTED_EXACT_CAP, G)
    again = decompose(chi, M, N, G, 2)
    assert (again.s_value, again.v_value) == (first.s_value, first.v_value)


def test_windows_reuse_the_workspace():
    """After one warm call a float window of 2*10^5 + 1 terms at q = 243
    allocates no block-sized array: its twist extension and its products
    are the workspace's (tracemalloc peak 4 KiB; 3.0 MiB when every window
    made its own).  An exact window at N = 2*10^5 holds its t in one buffer
    and takes its roots chunk by chunk there: 4.6 MiB, 12.7 MiB before."""
    for q, comps, N, coeffs, bound in [
            (243, ((4,),), _TWISTED_EXACT_CAP + 1, [0, Fraction(1, 7), Fraction(2, 11)], 256 << 10),
            (3**7, ((5,),), _TWISTED_EXACT_CAP, [0, Fraction(3, 9973), Fraction(5, 9973)], 6 << 20)]:
        chi, G = _chi(q, comps), RealPolynomial.make(coeffs)
        twisted_sum(chi, 10**6 - 7, N, G)
        tracemalloc.start()
        res = twisted_sum(chi, 10**6, N, G)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert res.mode == ("float" if N > _TWISTED_EXACT_CAP else "exact")
        assert peak < bound, (q, peak)


@pytest.mark.parametrize("q,comps,n0,size,t", [
    (729, _Q729, 1, _BLOCK, 3.7),                   # a whole block from n = 1
    (729, _Q729, 10**6 + 3, 1000, -41.5),           # a short block, t < 0
    (3**7, ((5,),), 2**53 - 500, 1001, 0.25),       # n past 2^53 rounds to a double
    (27, ((1,),), 2**63 - 7, 20, 2.5),              # n past int64: Python ints
    (VALUE_TABLE_CAP + 1, ((1,), (0,)), 12345, 777, 9.0),  # no value table
])
def test_dirichlet_block_is_the_plain_expression(q, comps, n0, size, t):
    """A dirichlet_poly block, written step by step in the workspace, equals
    chi(n) * np.exp(1j * t * math.log(n)) taken from fresh arrays, bit for bit."""
    chi = _chi(q, comps)
    ns = _arange(n0, size)
    want = _chi_values(chi, ns) * np.exp(1j * t * _math_log_each(ns))
    got = _dirichlet_terms(chi, t)(n0, size)
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # the signs of zero too
    if q <= VALUE_TABLE_CAP:
        assert _in_workspace(got)


def test_dirichlet_poly_reuses_the_workspace():
    """After one warm call a Dirichlet polynomial of two blocks allocates no
    block-sized array: its integers, their logs, its exponents and its
    terms are the workspace's (tracemalloc peak 131 KiB, numpy's casting
    buffer for the complex exponent; 2.0 MiB when each block made its own)."""
    chi = _chi(729, _Q729)
    dirichlet_poly(chi, 10**6 - 7, 2 * _BLOCK, 3.7)
    tracemalloc.start()
    dirichlet_poly(chi, 10**6, 2 * _BLOCK, 3.7)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 256 << 10, peak


def test_each_thread_has_its_own_workspace():
    """Four threads summing float and exact windows at once, switching often,
    get the serial results: numpy releases the GIL inside its loops, so a
    shared workspace would mix their blocks."""
    G = RealPolynomial.make([0, Fraction(3, 9973), Fraction(5, 9973)])
    cases = [(_chi(243, ((4,),)), _TWISTED_EXACT_CAP + 1), (_chi(3**7, ((5,),)), _TWISTED_EXACT_CAP)] * 2
    want = [_kept(twisted_sum(chi, 10**6, N, G)) for chi, N in cases]
    got = [[] for _ in cases]

    def run(i):
        chi, N = cases[i]
        got[i] = [_kept(twisted_sum(chi, 10**6, N, G)) for _ in range(3)]
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(kept) == 3 and all(_same_kept(w, k) for k in kept) for w, kept in zip(want, got))
