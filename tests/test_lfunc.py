"""L-function evaluation, zero scanning, and the bound-shape evaluators."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from corechar import lfunc
from corechar.arith import as_modulus
from corechar.characters import (_exponent, _numerator_rows, _roots_of_unity, _value_table, character_rows,
                                  enumerate_characters, principal_character, quadratic_character)
from corechar.lfunc import (
    hurwitz_zeta,
    l_grid_min,
    l_value,
    l_value_series,
    theorem3_bound,
    vartheta_shape,
    zero_free_params,
    zero_scan_report,
)

CATALAN = 0.915965594177219015054603514932


def _zeta_series_oracle(s: float, a: float, terms: int = 10**6) -> float:
    """Direct series plus an integral tail estimate; real s > 1 only."""
    partial = math.fsum((a + k) ** (-s) for k in range(terms))
    tail = (a + terms) ** (1 - s) / (s - 1)  # integral bracket midpoint
    return partial + tail


def test_hurwitz_classical_values():
    assert abs(hurwitz_zeta(2, 1.0) - math.pi**2 / 6) < 1e-10
    assert abs(hurwitz_zeta(2, 0.5) - math.pi**2 / 2) < 1e-10
    assert abs(hurwitz_zeta(4, 1.0) - math.pi**4 / 90) < 1e-10


def test_hurwitz_against_series_oracle():
    for (s, a) in ((2.0, 1.0), (2.0, 0.5), (4.0, 1.0), (3.0, 0.25)):
        oracle = _zeta_series_oracle(s, a)
        assert abs(hurwitz_zeta(s, a) - oracle) < 5e-11 * max(1.0, abs(oracle))


def test_hurwitz_pole_and_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    for t in (1e12, 1e300):  # refused before its direct terms are allocated
        with pytest.raises(ValueError, match="Hurwitz terms"):
            hurwitz_zeta(complex(1.0, t), 0.5)


def test_hurwitz_refuses_an_overflowing_power():
    """zeta(10^13, 1/2) is about 2^(10^13), past a double: ValueError, as
    l_value gives, and no numpy warning on the way; a power that fits still
    returns its value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e13, 2000.0, complex(1e6, 3.0)):
            with pytest.raises(ValueError, match="not finite"):
                hurwitz_zeta(s, 0.5)
        assert abs(hurwitz_zeta(1000.0, 0.5) / 2.0**1000 - 1) < 1e-12  # the k = 0 term, 2^1000


def test_hurwitz_large_imaginary():
    # spot value against the independent series path at sigma = 2
    s = 2.0 + 100.0j
    direct = sum((0.3 + k) ** (-s) for k in range(200000))
    tail = (0.3 + 200000) ** (1 - s) / (s - 1)
    assert abs(hurwitz_zeta(s, 0.3) - (direct + tail)) < 1e-8


def test_l_closed_forms():
    chi3 = quadratic_character(3)
    assert abs(l_value(chi3, 1.0) - math.pi / 3**1.5) < 1e-8
    chi4 = [c for c in enumerate_characters(4) if not c.is_principal][0]
    assert abs(l_value(chi4, 2.0) - CATALAN) < 1e-8


def test_l_value_sigma2_against_partial_sums():
    chi = enumerate_characters(9, primitive_only=True)[0]
    s = 2.0
    n_terms = 200000
    partial = sum(chi(n) * n ** (-s) for n in range(1, n_terms + 1))
    assert abs(l_value(chi, s) - partial) < 1e-9  # tail < q/(n_terms)^2 summed by parts


def test_l_value_refuses_an_overflowing_power():
    """Far right of the line (1/q)^-sigma passes a double at q = 243, and L is
    refused rather than returned as NaN; at q = 3 the powers still fit, and
    L(400, chi) rounds to 1."""
    chi = enumerate_characters(243)[1]
    for s in (130.0, 200.0, 1e6):
        with pytest.raises(ValueError, match="not finite"):
            l_value(chi, s)
    assert l_value(enumerate_characters(3)[1], 400.0) == 1.0


def test_l_dual_paths_agree():
    points = [complex(0.6, 0.0), complex(1.0, 5.5), complex(2.0, 50.0), complex(0.8, -13.0)]
    for q in (3, 9, 27):
        for chi in enumerate_characters(q, primitive_only=True):
            for s in points:
                a = l_value(chi, s)
                b = l_value_series(chi, s)
                assert abs(a - b) <= 1e-8, (q, s, abs(a - b))


def test_l_conjugate_symmetry():
    chi = enumerate_characters(27, primitive_only=True)[1]
    for s in (complex(0.7, 3.0), complex(1.2, -11.0)):
        lhs = l_value(chi.conjugate(), s.conjugate())
        rhs = l_value(chi, s).conjugate()
        assert abs(lhs - rhs) < 1e-10


def test_l_principal_pole_handling():
    chi0 = principal_character(9)
    with pytest.raises(ValueError):
        l_value(chi0, 1.0)
    # principal L = zeta(s) prod_{p | q} (1 - p^{-s}) away from the pole
    val = l_value(chi0, 2.0)
    expected = (math.pi**2 / 6) * (1 - 3**-2.0)
    assert abs(val - expected) < 1e-10


def test_zero_scan_q3():
    assert zero_scan_report(3, 0.9, 5.0)["total_zeros"] == 0
    grid = l_grid_min(3, 0.9, 5.0)
    assert grid["min_abs"] > 0.0


def test_zero_scan_q27_with_grid_confirmation():
    rep = zero_scan_report(27, 0.9, 10.0)
    assert rep["total_zeros"] == 0
    assert not rep["perturbed"]
    grid = l_grid_min(27, 0.9, 10.0)
    assert grid["min_abs"] > 0.05


def test_zero_scan_thin_rectangle():
    assert zero_scan_report(9, 0.995, 1.0)["total_zeros"] == 0


def test_zero_scan_raises_on_zeros_on_the_contour():
    """At alpha = 1/2 the zeros of L(s, chi_3) at 1/2 +- 8.04i lie on the
    left side: arg L turns by about pi across each at every refinement level,
    and still does 1e-6 inside it, so the scan raises instead of counting
    each as a half."""
    with pytest.raises(ArithmeticError, match="failed to stabilize"):
        zero_scan_report(3, 0.5, 10.0)


@pytest.mark.parametrize("q,T,zeros", [(3, 10.0, 2), (3, 15.0, 4), (4, 10.0, 2), (4, 15.0, 6)])
def test_windings_count_known_zeros(q, T, zeros):
    """Inside the critical strip the counter finds the zeros on the critical
    line: mod 3 at t = +-8.0397, +-11.2492 (+-15.7046 lies past T = 15), mod 4
    at t = +-6.0209, +-10.2437, +-12.9880."""
    X, conj = lfunc._chi_rows(as_modulus(q))
    windings, _ = lfunc._stable_windings(X, q, conj, 0.3, T)
    assert windings.tolist() == [zeros]


@pytest.mark.parametrize("alpha,T", [
    (-1.0, 10.0), (1.5, 10.0), (1.0, 10.0), (math.nan, 10.0),
    (0.9, 0.5), (0.9, math.nan), (0.9, math.inf),
])
def test_scans_check_their_rectangle(alpha, T):
    """Both scans take only 1/2 <= alpha < 1 and finite T >= 1: at alpha = -1
    the grid would evaluate L at sigma <= 0, outside the kernel's Re s > 0."""
    for scan in (l_grid_min, zero_scan_report):
        with pytest.raises(ValueError, match="finite"):
            scan(27, alpha, T)


def test_scans_build_no_value_table():
    """The scans and ``l_value`` read every character from the exponent
    rows: a zero scan and a grid scan at q = 243, and ``l_value`` of
    characters mod 243 and mod 2592 (the principal one too), leave the
    value-table cache's counts as they were."""
    chis = [chi for q in (243, 2592) for chi in enumerate_characters(q)[:3]]
    before = _value_table.cache_info()
    zero_scan_report(243, 0.9, 3.0)
    l_grid_min(243, 0.9, 3.0)
    for chi in chis:
        l_value(chi, complex(0.8, 2.0))
    after = _value_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_zero_scan_validates_input():
    with pytest.raises(ValueError):
        zero_scan_report(27, 0.3, 5.0)
    with pytest.raises(ValueError):
        zero_scan_report(27, 0.9, 0.5)


@pytest.mark.parametrize("q", [1, 2, 4, 8, 2**7, 3**5, 27, 45, 72, 864, 2592])
def test_chi_rows_read_chi_at_one_to_q(q):
    """Row c holds chi_c(a) at the units a of 1..q, ascending, for the
    nonprincipal characters in enumeration order: the value table read at
    the units, bit for bit, and conj[c] is the row of chi_c's conjugate.  X
    is in Fortran order, as the per-point products' bits depend on it."""
    chis = enumerate_characters(q)[1:]
    units = lfunc._units(q)
    assert units.tolist() == [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    X, conj = lfunc._chi_rows(as_modulus(q))
    assert X.shape == (len(chis), len(units)) and X.flags.f_contiguous
    for row, chi in zip(X, chis):
        assert np.array_equal(row, chi.value_table[1][units % q])
    assert [chis[c] for c in conj.tolist()] == [chi.conjugate() for chi in chis]


@pytest.mark.parametrize("q", [8, 72, 243])
def test_chi_rows_are_the_full_rows_at_the_units(q):
    """X equals the rows of chi at every a = 1..q gathered at the unit
    columns, and is F-contiguous as that gather leaves it: a C-ordered X
    moves the last bits of L at q = 8.  The numerators are over lambda(q),
    ``characters``' one group exponent."""
    mod = as_modulus(q)
    E = character_rows(mod)[0][1:]
    A = _numerator_rows(mod, E, np.arange(1, q + 1))
    full = np.append(_roots_of_unity(_exponent(mod)), 0j)[A]
    X, _ = lfunc._chi_rows(mod)
    assert X.flags.f_contiguous
    assert np.array_equal(X, full[:, lfunc._units(q) - 1])


@pytest.mark.parametrize("q", [27, 72, 243, 2592])
def test_scan_rows_agree_with_l_value(q):
    """Each row of the scans' ``_l_sums`` over ``_chi_rows`` agrees with
    ``l_value`` within 1e-13 of the point's largest |L|.  Not bit for bit:
    a product over all rows rounds otherwise than one row's (at s = 1 they
    differ for 15 of 17 characters mod 27 and 859 of 863 mod 2592, by up to
    1.9e-15 of the largest |L|)."""
    pts = [1.0, complex(0.9, 3.0), complex(0.6, 9.0)]
    X, _ = lfunc._chi_rows(as_modulus(q))
    scan = lfunc._l_sums(X, q, pts)
    chis = enumerate_characters(q)[1:]
    for j, s in enumerate(pts):
        one = np.array([l_value(chi, s) for chi in chis])
        assert np.max(np.abs(one - scan[:, j])) <= 1e-13 * np.max(np.abs(scan[:, j])), (q, s)


def test_batched_l_sums_match_single_points():
    """A batch of points gives each point's values alone, bit for bit, on
    contours whose points take different numbers of direct terms, each point
    its own n0 from the remainder bound.  The grid scan reports the
    point and character of a per-point loop that reads every character at the
    upper half (t >= 0) of the t grid only, where each mirror pair
    (sigma + it, chi), (sigma - it, conj chi) has its upper member."""
    for q in (27, 243):
        X, _ = lfunc._chi_rows(as_modulus(q))
        pts = lfunc._contour(0.9, 10.0, 0.25)
        assert len(pts) > 2 * lfunc._BLOCK_ENTRIES // X.shape[1]
        batch = lfunc._l_sums(X, q, pts)
        for j, s in enumerate(pts):
            assert np.array_equal(batch[:, j], lfunc._l_sums(X, q, [s])[:, 0]), (q, s)

    X, _ = lfunc._chi_rows(as_modulus(27))
    pts = lfunc._contour(0.9, 20.0, 0.25)
    batch = lfunc._l_sums(X, 27, pts)
    single = np.stack([lfunc._l_sums(X, 27, [s])[:, 0] for s in pts], axis=1)
    assert np.array_equal(batch, single)

    for q in (27, 81):
        X, _ = lfunc._chi_rows(as_modulus(q))
        labels = [c.label() for c in enumerate_characters(q)[1:]]
        ts = np.linspace(-10.0, 10.0, lfunc._GRID_TS)
        best, best_at = math.inf, None
        for sigma in np.linspace(0.9, 1.0, lfunc._GRID_SIGMAS):
            for j in range(lfunc._GRID_TS // 2, lfunc._GRID_TS):
                absl = np.abs(lfunc._l_sums(X, q, [complex(sigma, ts[j])])[:, 0])
                idx = int(np.argmin(absl))
                if absl[idx] < best:
                    best = float(absl[idx])
                    best_at = {"sigma": float(sigma), "t": float(ts[j]),
                               "character": labels[idx]}
        grid = l_grid_min(q, 0.9, 10.0)
        assert grid["min_abs"] == best and grid["at"] == best_at, (q, grid, best_at)


def _complex_exp_kernel(s, a, n0):
    """Reference Hurwitz kernel: every power (a+k)^{-s} and (a+N)^{-s-2j+1} as
    its own complex exp, the Bernoulli terms added one j at a time."""
    two_j = 2 * np.arange(1, lfunc._EM_ORDER + 1)
    s = s[:, None]
    logs = np.log(a[:, None] + np.arange(n0, dtype=np.float64))
    vals = np.exp(-s[:, :, None] * logs).sum(axis=2)
    ltop = np.log(a + float(n0))
    top_ms = np.exp(-s * ltop)
    vals = vals - ltop * lfunc._g_ratio((1.0 - s) * ltop) + 0.5 * top_ms
    poch = np.cumprod(s + np.arange(2 * lfunc._EM_ORDER - 1), axis=1)[:, ::2]
    powterm = np.exp((-s - two_j + 1)[:, :, None] * ltop)
    terms = (lfunc._EM_COEFFS * poch)[:, :, None] * powterm
    for j in range(lfunc._EM_ORDER):
        vals = vals + terms[:, j]
    return vals


def _assert_close(new, ref, rel, where):
    """Entries of new within rel of the reference, relative to the largest
    reference entry of their row (one character's values)."""
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    err = np.max(np.abs(new - ref) / scale)
    assert err <= rel, (where, err)


def test_factored_kernel_matches_complex_exp_kernel(monkeypatch):
    """The kernel that takes magnitudes per sigma and rotations per t agrees
    with one complex exp per power to 1e-13: on the contour and the full grid
    at q = 27, 81 and 243, and at single points up to |s| = 50 (whose n0
    reach more than twice the contour's), and in hurwitz_zeta."""
    rng = np.random.default_rng(15)
    singles = (rng.uniform(0.5, 2.0, 40) + 1j * rng.uniform(-50.0, 50.0, 40)).tolist()
    singles += [complex(0.6, 0.0), complex(1.0, 13.0), complex(0.9, 14.0), complex(2.0, 50.0)]
    sigmas = np.linspace(0.9, 1.0, lfunc._GRID_SIGMAS)
    grid = (sigmas[:, None] + 1j * np.linspace(-10.0, 10.0, lfunc._GRID_TS)).ravel()
    contour = lfunc._contour(0.9, 10.0, 0.25)
    assert max(lfunc._n_terms(singles)) > 2 * max(lfunc._n_terms(contour))
    for q in (27, 81, 243):
        X, _ = lfunc._chi_rows(as_modulus(q))
        batches = [("contour", contour), ("grid", grid)]
        batches += [(s, [s]) for s in singles[:: 1 if q == 27 else 4]]
        for where, pts in batches:
            new = lfunc._l_sums(X, q, pts)
            with monkeypatch.context() as m:
                m.setattr(lfunc, "_hurwitz_core", _complex_exp_kernel)
                ref = lfunc._l_sums(X, q, pts)
            _assert_close(new, ref, 1e-13, (q, where, "L"))
    for s in singles:
        for a in (0.3, 1.0):
            ref = complex(_complex_exp_kernel(np.array([s]), np.array([a]),
                                              int(lfunc._n_terms(s)))[0, 0])
            ref += 1.0 / (s - 1.0)
            assert abs(hurwitz_zeta(s, a) - ref) <= 1e-13 * abs(ref), (s, a)


def _stacked_kernel(s, a, n0):
    """Reference Hurwitz kernel with ``_hurwitz_core``'s arithmetic in one
    (points, residues, n0 + 1) array of powers: each run's rotation copied
    along the run, the magnitudes gathered per point; the boundary and the
    Bernoulli tail from the top powers as the kernel takes them."""
    sigma, t = s.real.tolist(), s.imag.tolist()
    sigmas = sorted(set(sigma))
    rank = {v: i for i, v in enumerate(sigmas)}
    si = [rank[v] for v in sigma]
    runs = [i for i in range(1, len(t)) if t[i] != t[i - 1]]
    s = s[:, None]
    logs = np.log(a[:, None] + np.arange(n0 + 1.0))
    pows = np.empty((len(t), len(a), n0 + 1), dtype=np.complex128)
    for lo, hi in zip([0, *runs], [*runs, len(t)]):
        rot = pows[lo]
        np.multiply(logs, -1j * t[lo], out=rot)
        np.exp(rot, out=rot)
        pows[lo + 1:hi] = rot
    mag = np.exp(-np.array(sigmas)[:, None, None] * logs)[si]
    for part in pows.real, pows.imag:
        np.multiply(part, mag, out=part)
    top_ms = pows[:, :, n0].copy()
    vals = pows[:, :, :n0].sum(axis=2)
    return vals + lfunc._boundary(s, a, n0, top_ms) + (0.5 + lfunc._tail(s, a, n0)) * top_ms


def test_run_kernel_matches_stacked_kernel(monkeypatch):
    """The kernel that forms and sums its powers a few runs of equal t at a
    time gives the stacked kernel's values bit for bit at equal n0: through
    ``_l_sums`` on the contour, the grid and single points at q = 27, 81, 243
    and 72, and directly at n0 = 1, 7, 16 and 48 on points in (t, sigma)
    order, among them runs whose sigmas change from run to run."""
    rng = np.random.default_rng(21)
    singles = (rng.uniform(0.5, 2.0, 12) + 1j * rng.uniform(-50.0, 50.0, 12)).tolist()
    sigmas = np.linspace(0.9, 1.0, lfunc._GRID_SIGMAS)
    grid = (sigmas[:, None] + 1j * np.linspace(-10.0, 10.0, lfunc._GRID_TS)).ravel()
    batches = [("contour", lfunc._contour(0.9, 10.0, 0.25)), ("grid", grid)]
    batches += [(s, [s]) for s in singles]
    for q in (27, 81, 243, 72):
        X, _ = lfunc._chi_rows(as_modulus(q))
        for where, pts in batches:
            new = lfunc._l_sums(X, q, pts)
            with monkeypatch.context() as m:
                m.setattr(lfunc, "_hurwitz_core", _stacked_kernel)
                ref = lfunc._l_sums(X, q, pts)
            assert np.array_equal(new, ref), (q, where)
    a = np.arange(1, 82)[np.arange(1, 82) % 3 != 0] / 81
    pts = lfunc._contour(0.6, 7.0, 0.5)
    pts = pts[np.lexsort((pts.real, pts.imag))]
    # runs of two points whose sigmas change from run to run
    pairs = np.sort([rng.choice([0.5, 0.7, 0.9, 1.0, 1.3], 2, replace=False) for _ in range(30)])
    mixed = (pairs + 1j * np.sort(rng.uniform(0.0, 20.0, 30))[:, None]).ravel()
    for n0 in (1, 7, 16, 48):
        for batch in (pts, mixed):
            new = lfunc._hurwitz_core(batch, a, n0)
            assert np.array_equal(new, _stacked_kernel(batch, a, n0)), n0


def _remainder_bound(s, n):
    """2 zeta(41)/(2 pi)^41 |(s)_41| n^{-sigma-40}/(sigma+40): the bound on the
    Euler-Maclaurin remainder after n direct terms and 20 corrections."""
    zeta41 = math.fsum(k ** -41.0 for k in range(1, 100))
    poch = math.prod(abs(s + i) for i in range(41))
    return 2 * zeta41 / (2 * math.pi) ** 41 * poch * n ** (-s.real - 40) / (s.real + 40)


def test_n_terms_is_least_n_meeting_the_remainder_bound():
    """Each point's n0 is the least N >= 1 whose remainder bound is at most
    2^-64, for seeded |s| <= 50 and sigma in [0.5, 2], alone or in an array,
    and for the scans' points near the real axis, which take 7 to 10."""
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.5, 2.0, 200) + 1j * rng.uniform(-50.0, 50.0, 200)
    pts = np.concatenate((pts[np.abs(pts) <= 50.0], lfunc._contour(0.85, 10.0, 0.25)))
    n0 = lfunc._n_terms(pts)
    assert np.min(n0) == 7 and np.max(n0) > 20
    for s, n in zip(pts.tolist(), n0.tolist()):
        assert n == lfunc._n_terms(s)
        assert _remainder_bound(s, n) <= 2.0 ** -64, (s, n)
        assert n == 1 or _remainder_bound(s, n - 1) > 2.0 ** -64, (s, n)


def test_kernel_at_its_n0_matches_four_times_n0():
    """Past the stated remainder bound, more direct terms change a Hurwitz
    row only by rounding: at 4 n0 every point's row agrees with its row at
    n0 within 8 eps (1 + |t|) of the row's largest value (the phases
    t log(a+k) are rounded to eps |t log(a+k)|), on the contour and at
    seeded single points up to |s| = 50, q = 27, 243 and 72."""
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(22)
    singles = rng.uniform(0.5, 2.0, 30) + 1j * rng.uniform(-50.0, 50.0, 30)
    contour = lfunc._contour(0.9, 10.0, 0.5)
    for q in (27, 243, 72):
        units = np.flatnonzero([math.gcd(u, q) == 1 for u in range(1, q + 1)])
        a = (units + 1) / q
        for s in np.concatenate((contour[contour.imag > 0], singles)):
            n0 = int(lfunc._n_terms(s, len(a)))
            row = lfunc._hurwitz_core(np.array([s]), a, n0)[0]
            ref = lfunc._hurwitz_core(np.array([s]), a, 4 * n0)[0]
            err = np.max(np.abs(row - ref)) / np.max(np.abs(ref))
            assert err <= 8 * eps * (1 + abs(s.imag)), (q, s, err)


def _taylor_g(w: complex) -> complex:
    """expm1(w)/w = sum_k w^k/(k+1)!, by Horner over 20 terms."""
    out = 0j
    for k in range(20, -1, -1):
        out = 1 + out * w / (k + 2)
    return out


def test_g_ratio_matches_taylor_sum():
    """expm1(w)/w to a few ulps for 1e-8 <= |w| <= 1e-2 in eight directions,
    where exp(w) - 1 loses up to eps/|w| to cancellation; 1 at w = 0."""
    ws = np.array([r * complex(math.cos(ang), math.sin(ang))
                   for r in np.logspace(-8, -2, 13)
                   for ang in np.arange(8) * math.pi / 4 + 0.3] + [2e-5, 1e-4 * (1 + 1j)])
    ref = np.array([_taylor_g(w) for w in ws.tolist()])
    err = np.abs(lfunc._g_ratio(ws) - ref) / np.abs(ref)
    assert np.max(err) <= 1e-15, ws[np.argmax(err)]
    assert lfunc._g_ratio(np.zeros(3, dtype=np.complex128)).tolist() == [1, 1, 1]


def test_bernoulli_literals_match_the_recurrence():
    """B_2 .. B_40 in the kernel are the Bernoulli numbers of the recurrence
    sum_{k <= n} C(n+1, k) B_k = 0, computed here over Fractions, and each
    coefficient is B_{2j}/(2j)! rounded once."""
    b = [Fraction(1)]
    for n in range(1, 2 * lfunc._EM_ORDER + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    assert lfunc._EM_ORDER == 20
    assert lfunc._BERNOULLI == b[2::2]
    assert lfunc._EM_COEFFS.tolist() == [float(b[2 * j] / math.factorial(2 * j))
                                         for j in range(1, lfunc._EM_ORDER + 1)]


def test_tail_matches_term_by_term():
    """The tail's product gives sum_j B_{2j}/(2j)! (s)_{2j-1} (a+N)^{1-2j}
    over all twenty j, each term formed on its own here in Python complex
    arithmetic, within 1e-13 of the sum of the terms' sizes: also at N = 1
    and 2, where the terms grow with j and every one of them shows."""
    a = np.array([1 / 243, 0.5, 1.0])
    pts = [complex(0.9, 3.0), complex(2.0, -7.5), complex(0.6, 50.0), complex(130.0, 0.0)]
    for n0 in (1, 2, 7, 30):
        got = lfunc._tail(np.array(pts)[:, None], a, n0)
        for i, s in enumerate(pts):
            for k, ak in enumerate(a.tolist()):
                terms = []
                for j, b in enumerate(lfunc._BERNOULLI, 1):
                    poch = math.prod((s + r for r in range(2 * j - 1)), start=1 + 0j)
                    terms.append(float(b / math.factorial(2 * j)) * poch * (ak + n0) ** (1 - 2 * j))
                ref = sum(terms)
                size = sum(abs(t) for t in terms)
                assert abs(got[i, k] - ref) <= 1e-13 * size, (s, ak, n0)


def test_boundary_matches_taylor_sum():
    """((a+N)^{1-s} - 1)/(s-1) within 1e-15 of -log(a+N) expm1(w)/w by the
    Taylor sum, w = (1-s) log(a+N): at points whose |w| straddles 1 (the
    switch from the top power to expm1) in eight directions, and at
    s = 1 + it for t from 1e-3 down to 1e-9."""
    a = np.array([1 / 243, 0.3, 1.0])
    ltop = np.log(a + 8)
    pts = [1 - r * complex(math.cos(ang), math.sin(ang)) / ltop[1]
           for r in np.linspace(0.8, 1.25, 10) for ang in np.arange(8) * math.pi / 4 + 0.3]
    pts += [complex(1.0, t) for t in np.logspace(-3, -9, 13)] + [1.0]
    s = np.array(pts)[:, None]
    got = lfunc._boundary(s, a, 8, np.exp(-s * ltop))
    for i, sv in enumerate(pts):
        for j in range(len(a)):
            ref = -ltop[j] * _taylor_g((1 - sv) * ltop[j])
            assert abs(got[i, j] - ref) <= 1e-15 * abs(ref), (sv, a[j])


STIELTJES = (0.5772156649015329, -0.07281584548367672, -0.009690363192872318,
             0.002053834420303346, 0.002325370065467300)


def test_principal_l_near_the_pole():
    """At s = 1 + it, t from 1e-3 down to 1e-9, principal L mod 9 is
    zeta(s) (1 - 3^{-s}), zeta from its Laurent series in the Stieltjes
    constants; the kernel's regular part (L less 6 * 9^{-s}/(s-1)) agrees
    within 4e-15 with that difference taken in closed form, where an
    unguarded (a+N)^{1-s} - 1 would lose eps/|s-1|."""
    chi0 = principal_character(9)
    X = lfunc._unit_values(chi0.modulus, chi0.row)
    l3 = math.log(3.0)
    for t in np.concatenate((np.logspace(-3, -9, 13), [-1e-9])).tolist():
        r = complex(0.0, t)
        gam = sum((-1) ** n * g * r ** n / math.factorial(n) for n, g in enumerate(STIELTJES))
        expected = (1 / r + gam) * (1 - 3 ** -(1 + r))
        assert abs(l_value(chi0, 1 + r) - expected) <= 1e-14 * abs(expected), t
        # (1 - 3^{-s} - 6 * 9^{-s})/(s-1) through expm1(w)/w, plus (1 - 3^{-s}) gam
        x = r * l3
        reg = l3 / 3 * _taylor_g(-x) + 4 * l3 / 3 * _taylor_g(-2 * x) + (1 - cmath.exp(-x) / 3) * gam
        assert abs(complex(lfunc._l_sums(X, 9, [1 + r])[0, 0]) - reg) <= 4e-15, t


def test_tail_stays_finite_far_out():
    """Far right, where |s| reaches _S_PER_N times N (N = 4 at 2^26, 2^16 at
    2^40, where the bound alone asks for 2), the tail's scaled factors stay
    finite: zeta(s, a) at one residue is a^{-s} (every further power
    underflows), also 1000 off the axis.  At
    t = 10^5 (33,808 direct terms) zeta(2 + it, 0.3) agrees with a
    two-million-term direct sum within 1e-8, and at q = 243 L near the
    sigma = 130 refusal and at |s| = 50 agrees with the series path."""
    for s in (2.0 ** 26, complex(2.0 ** 26, 1000.0), 2.0 ** 40, complex(2.0 ** 40, 1000.0)):
        assert abs(s) / int(lfunc._n_terms(s)) >= lfunc._S_PER_N / 2
        for a in (1.0, 1.0 - 2.0 ** -45):
            expected = cmath.exp(-s * math.log(a))
            assert abs(hurwitz_zeta(s, a) - expected) <= 1e-15 * abs(expected), (s, a)
    s, a = complex(2.0, 1e5), 0.3
    ks = a + np.arange(2 * 10 ** 6, dtype=np.float64)
    direct = np.exp(-s * np.log(ks)).sum()
    top = a + 2 * 10 ** 6
    direct += top ** (1 - s) / (s - 1) + 0.5 * top ** -s
    assert abs(hurwitz_zeta(s, a) - direct) <= 1e-8
    chi = enumerate_characters(243, primitive_only=True)[7]
    for s in (complex(128.0, 0.0), complex(128.0, 50.0), complex(0.6, 50.0), complex(2.0, -48.0)):
        val = l_value(chi, s)
        assert cmath.isfinite(val) and abs(val - l_value_series(chi, s)) <= 1e-8, s


@pytest.mark.parametrize("alpha,T,max_panel", [(0.9, 10.0, 0.25), (0.5, 3.7, 0.0625),
                                               (0.613, 7.25, 0.5), (0.995, 1.0, 0.125)])
def test_contour_left_side_retraces_right_side(alpha, T, max_panel):
    """The left side's nodes are the right side's t nodes in reverse order at
    sigma = alpha."""
    pts = lfunc._contour(alpha, T, max_panel)
    per_side = [lfunc._GL_ORDER * math.ceil(length / max_panel)
                for length in (1.0 - alpha, 2.0 * T, 1.0 - alpha, 2.0 * T)]
    assert len(pts) == sum(per_side)
    right = slice(per_side[0], per_side[0] + per_side[1])
    left = slice(len(pts) - per_side[3], len(pts))
    assert np.all(pts[left].real == alpha) and np.all(pts[right].real == 1.0)
    assert np.array_equal(pts[left].imag, pts[right].imag[::-1])
    assert np.all(pts[right].imag[1:] > pts[right].imag[:-1])


def _full_contour_windings(X, q, alpha, T, max_panel):
    """Oracle: L at every node of the contour, both halves, and the steps of
    arg L between consecutive nodes, the last node back to the first."""
    lmat = lfunc._l_sums(X, q, lfunc._contour(alpha, T, max_panel))
    steps = np.angle(np.roll(lmat, -1, axis=1) / lmat)
    return (steps.sum(axis=1) / (2 * math.pi), float(np.max(np.abs(steps))),
            float(np.min(np.abs(lmat))))


def test_mirror_half_scans_match_full_scans():
    """The zero scan's upper-half windings, largest step and contour minimum,
    and the grid's upper-half minimum, agree with evaluating every point of
    the contour and of the full 9 x 201 grid."""
    cases = [(q, *lfunc._chi_rows(as_modulus(q))) for q in (27, 81)]
    chi2 = quadratic_character(27)
    cases.append((27, lfunc._unit_values(chi2.modulus, chi2.row), [0]))
    for q, X, conj in cases:
        for panel in (0.5, 0.25):
            half, half_step, half_min = lfunc._windings(X, q, conj, 0.9, 10.0, panel)
            full, full_step, full_min = _full_contour_windings(X, q, 0.9, 10.0, panel)
            assert np.max(np.abs(half - full)) < 1e-12, (q, panel)
            assert abs(half_step - full_step) < 1e-12, (q, panel)
            assert abs(half_min - full_min) <= 1e-12 * full_min, (q, panel)
    for q in (27, 81):
        X, _ = lfunc._chi_rows(as_modulus(q))
        sigmas = np.linspace(0.9, 1.0, lfunc._GRID_SIGMAS)
        ts = np.linspace(-10.0, 10.0, lfunc._GRID_TS)
        full = np.min(np.abs(lfunc._l_sums(X, q, (sigmas[:, None] + 1j * ts).ravel())))
        assert abs(l_grid_min(q, 0.9, 10.0)["min_abs"] - full) <= 1e-12 * full, q


@pytest.mark.parametrize("q", [4, 8, 12, 16, 36, 72])
def test_scans_off_odd_prime_powers(q):
    """Moduli with a factor 2 or two primes: the zero scan finds no zeros, a
    character and its conjugate count the same, and the grid stays positive."""
    rep = zero_scan_report(q, 0.9, 5.0)
    assert rep["total_zeros"] == 0
    zeros = {c["character"]: c["zeros"] for c in rep["per_character"]}
    for chi in enumerate_characters(q):
        if not chi.is_principal:
            assert zeros[chi.label()] == zeros[chi.conjugate().label()]
    assert l_grid_min(q, 0.9, 5.0)["min_abs"] > 0.0


@pytest.mark.parametrize("q", [12, 36, 72])
def test_principal_l_drops_non_units(q):
    """L(2, principal mod q) = zeta(2) prod_{p | q} (1 - p^-2)."""
    expected = math.pi**2 / 6 * math.prod(1 - p**-2.0 for p in (2, 3))
    assert abs(l_value(principal_character(q), 2.0) - expected) < 1e-12


def test_ell_context():
    """theorem3_bound reports ell = log(q (|t| + 3))."""
    for t in (2.0, -2.0):
        ell = math.log(27 * 5.0)
        assert abs(theorem3_bound(27, 0.1, t).ell - ell) < 1e-12


def test_theorem3_bound_shapes():
    q = 3**50
    rep = theorem3_bound(q, 0.01, 0.0)
    assert rep.bound == pytest.approx(math.exp(max(rep.term_core, rep.term_eta32, rep.term_ell23)) / 0.01)
    assert rep.dominant in ("core", "eta32", "ell23")
    # tiny eta: the ell^{2/3} term dominates the eta^{3/2} term
    ell = rep.ell
    eta = 1.0 / (ell ** (2 / 3) * math.log(ell) ** (1 / 3))
    rep2 = theorem3_bound(q, eta, 0.0)
    assert rep2.term_ell23 >= rep2.term_eta32
    with pytest.raises(ValueError):
        theorem3_bound(q, 0.7, 0.0)


def test_zero_free_params():
    params = zero_free_params(27, 0.1, 10.0, math.e)
    assert params.vartheta == pytest.approx(0.1 / 400.0)
    # as printed the right side is negative for small vartheta: unsatisfiable
    assert params.etacond_rhs_as_printed < 0 < params.etacond_lhs
    assert not params.etacond_holds_as_printed
    # corrected reading is satisfiable at this scale
    params = zero_free_params(3**30, 0.05, 10.0, math.log(3**30) ** 10)
    assert isinstance(params.etacond_holds_corrected, bool)
    assert params.etacond_rhs_corrected > 0


def test_vartheta_shape():
    q = 3**100
    lq = 100 * math.log(3)
    expected = 1.0 / (lq ** (2 / 3) * math.log(lq) ** (1 / 3))
    assert vartheta_shape(q, 1.0) == pytest.approx(expected, rel=1e-12)
    assert vartheta_shape(q, 2.0) == pytest.approx(2 * expected, rel=1e-12)
    with pytest.raises(ValueError):
        vartheta_shape(15, 1.0)
