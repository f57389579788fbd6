"""Dirichlet L-functions: evaluation, zero counting, and bound evaluators.

L(s, chi) is evaluated through the Hurwitz decomposition
L = q^{-s} sum_a chi(a) zeta(s, a/q), with zeta computed by Euler-Maclaurin
(pole-regularized, so nonprincipal L is exact right through s = 1).  An
independent evaluation path sums the Dirichlet series with iterated
period-averaging, its head one ``expsums._blocked_sum`` window; the two
paths cross-check each other in the tests.  A point whose Hurwitz block
(unit residues x direct terms) would pass ``_HURWITZ_CAP`` is refused.

Zero counting takes the turn of arg L around a rectangle, summed step by
step between Gauss-Legendre nodes on panels: the winding number, which by
the argument principle counts the zeros inside.  A refinement level is
trusted when every step is below pi/2, and the count is taken once two
trusted levels in a row agree; a contour running through zeros (as the side
sigma = 1/2 can) never passes the step guard, and the scan raises.  An |L|
lower-bound grid scan serves as the independent confirmation.  Every
Hurwitz path reads chi at the units of 1..q (chi = 0 off them) through one
reader, ``_unit_values``: exponent rows through the one numerator kernel,
with no character object and no value table.  The scans read every
nonprincipal row (objects are built for the labels only), ``l_value`` its
character's row, and it refuses a point where L is not finite; the series
oracle ``l_value_series`` alone reads ``expsums._chi_values``.  A value's
bits depend on how many characters share its product X @ z: a scan's row
and ``l_value`` can differ in their last bits, but not on which other
points share its block.  Each scan evaluates one member of every mirror
pair (sigma + it on chi, sigma - it on conj chi), the one with t >= 0.  A
scan holds X, L at the nodes of one contour level, and one block of about
``_BLOCK_ENTRIES`` entries: X is filled in blocks of rows, the steps of arg
L and |L| are taken over blocks of nodes, and the grid goes to the kernel
in slabs of t rows and reports the first least value in (sigma, t,
character) order.

The kernel writes each power (a+k)^{-s} as (a+k)^{-sigma} e^{-it log(a+k)}:
a real magnitude per distinct sigma among the points of a block and a
rotation per run of equal t, the points being in (t, sigma) order; it sums
the powers of a few runs with equal sigmas before it forms the next ones.
The grid's 9 sigmas share each of its t values, and the contour's left side
runs through the right side's t nodes, reversed, so both vertical sides
share every rotation.  A point takes the fewest direct terms N for which
the standard Euler-Maclaurin remainder bound after twenty Bernoulli
corrections is 2^-64 (``_n_terms`` derives it; 7 to 10 at the scans'
points).  The boundary term comes from the top power (a+N)^{-s}, through
expm1 only near s = 1, and the Bernoulli tail is (a+N)^{-s} times one
(points x 20) @ (20 x residues) product of factors scaled by powers of N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .arith import FactoredModulus, as_modulus
from .characters import (DirichletCharacter, _exponent, _numerator_rows, _roots_of_unity, character_rows,
                         characters_of_rows, enumerate_characters)
from .expsums import _blocked_sum, _chi_values

__all__ = [
    "hurwitz_zeta",
    "l_value",
    "l_value_series",
    "zero_scan_report",
    "l_grid_min",
    "theorem3_bound",
    "Theorem3Bound",
    "zero_free_params",
    "ZeroFreeRegionParams",
    "vartheta_shape",
]

# B_2 .. B_40 as exact rationals; twenty correction terms.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322), Fraction(-7709321041217, 510),
    Fraction(2577687858367, 6), Fraction(-26315271553053477373, 1919190),
    Fraction(2929993913841559, 6), Fraction(-261082718496449122051, 13530),
]
_EM_ORDER = 20
# B_{2j}/(2j)! for j = 1.._EM_ORDER, each rounded once
_EM_COEFFS = np.array([float(b / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI, 1)])
_RISING = np.arange(2 * _EM_ORDER - 1.0)              # s + i for (s)_{2j-1}, i < 2 _EM_ORDER - 1
_ONE_MINUS_TWO_J = -np.arange(1.0, 2 * _EM_ORDER, 2)  # 1 - 2j for j = 1.._EM_ORDER
# log of 2 zeta(41)/(2 pi)^41 (bounds |B~_41(x)|/41!) over 2^-64 (see _n_terms);
# zeta(41) is 1 + 2^-41 to a double
_LOG_EM_REMAINDER = math.log(2.0 * (1.0 + 2.0 ** -41) / (2.0 * math.pi) ** 41) + 64 * math.log(2.0)
# largest |s| / N: each factor |s+i|/N of the tail's scaled (s)_{2j-1} N^{1-2j}
# is then at most 2^24 + 38, so a product of 39 of them stays below 2^940
_S_PER_N = 1 << 24
# (point, unit residue) pairs per _l_sums block: the direct sums, top powers,
# boundary and tail are each one complex per pair, 128 KiB at a block; one
# point's unit residues x direct terms may not pass _HURWITZ_CAP (256 MiB of
# complex powers).  The scans' other blocks take about as many entries: rows
# of X x units, characters x contour nodes, grid points x units.
_BLOCK_ENTRIES = 1 << 13
# powers (a+k)^{-s} the kernel forms at once (512 KiB of complex); runs of equal t
# with equal sigmas share them, as each run costs about ten numpy calls
_CHUNK_POWERS = 1 << 15
_HURWITZ_CAP = 1 << 24
_SERIES_PASSES = 3  # period averages of the series path
_GL_ORDER = 12  # Gauss-Legendre nodes per contour panel
_MAX_STEP = math.pi / 2  # largest step of arg L between contour nodes a level may take
_GRID_SIGMAS, _GRID_TS = 9, 201  # |L| confirmation grid points along sigma and t


def _g_ratio(w: np.ndarray) -> np.ndarray:
    """expm1(w)/w for complex w, 1 at w = 0."""
    return np.divide(np.expm1(w), w, out=np.ones_like(w), where=w != 0)


def _n_terms(s, residues: int = 1):
    """Direct terms N before the Euler-Maclaurin tail, for each point of s (a
    complex number or array): the least N >= 1 with

        2 zeta(41)/(2 pi)^41 |(s)_41| N^{-sigma-40}/(sigma+40) <= 2^-64,

    and N >= |s|/``_S_PER_N``, which binds only far right (sigma above
    about 3 10^7) and keeps the tail's scaled factors finite.  With N
    direct terms and the m = ``_EM_ORDER`` = 20 Bernoulli corrections of
    ``_hurwitz_core``, the remainder of Euler-Maclaurin summation is

        R = -(s)_41/41! int_0^inf B~_41(x) (a+N+x)^{-s-41} dx,

    with (s)_41 = s(s+1)...(s+40) and B~_41 the periodic Bernoulli function.
    Its Fourier series B~_n(x) = -n! sum_{k != 0} e(kx)/(2 pi i k)^n gives
    |B~_41(x)|/41! <= 2 zeta(41)/(2 pi)^41, and for sigma > -40 the integral
    of |(a+N+x)^{-s-41}| is (a+N)^{-sigma-40}/(sigma+40), at most
    N^{-sigma-40}/(sigma+40) since a + N >= N.  So |R| is at most the left
    side above.  ValueError when a point, taken at ``residues`` values of a,
    needs more than ``_HURWITZ_CAP`` residues x direct terms (or no N
    meets the bound), before anything that size is allocated."""
    s = np.asarray(s, dtype=np.complex128)
    ex = s.real + 2 * _EM_ORDER
    with np.errstate(all="ignore"):
        log_poch = np.log(np.abs(s[..., None] + np.arange(2 * _EM_ORDER + 1))).sum(axis=-1)
        n = np.ceil(np.exp((_LOG_EM_REMAINDER + log_poch - np.log(ex)) / ex))
        n = np.maximum(np.maximum(n, 1.0), np.ceil(np.abs(s) / _S_PER_N))
    if not residues * n.max(initial=0) <= _HURWITZ_CAP:   # NaN fails
        raise ValueError(f"|s| = {np.max(np.abs(s)):.6g} needs more than {_HURWITZ_CAP} "
                         "Hurwitz terms per point")
    return n.astype(np.int64)


def _boundary(s: np.ndarray, a: np.ndarray, n0: int, top_ms: np.ndarray) -> np.ndarray:
    """((a+N)^{1-s} - 1)/(s-1), the boundary term (a+N)^{1-s}/(s-1) less the
    pole, for points s of shape (m, 1), N = n0 and top_ms = (a+N)^{-s}.

    With w = (1-s) log(a+N) it is (a+N) (a+N)^{-s} - 1 over s - 1 wherever
    |w| >= 1, and -log(a+N) expm1(w)/w below, where the difference would lose
    up to eps/|w| to cancellation (so right through s = 1).  Only points with
    |1-s| log N < 1 can have such a w, as a + N > N."""
    top = a + n0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (top * top_ms - 1.0) * (1.0 / (s - 1.0))
    log_n = math.log(n0)
    near = [i for i, z in enumerate(s[:, 0].tolist()) if abs(1.0 - z) * log_n < 1.0]
    if near:
        ltop = np.log(top)
        w = (1.0 - s[near]) * ltop
        out[near] = np.where(np.abs(w) < 1.0, -ltop * _g_ratio(w), out[near])
    return out


def _tail(s: np.ndarray, a: np.ndarray, n0: int) -> np.ndarray:
    """The Bernoulli corrections over (a+N)^{-s}: sum_j B_{2j}/(2j)! (s)_{2j-1}
    (a+N)^{1-2j} for points s of shape (m, 1), as one (points x m) @ (m x
    residues) product of (s)_{2j-1} N^{1-2j} (a running product over
    (s+i)/N) and (1 + a/N)^{1-2j}, so that no factor overflows where
    ``_n_terms`` admits s.  Each point's row is its own real (residues x m)
    @ (m x 2) product, which keeps it independent of the other points."""
    poch = np.cumprod((s + _RISING) / n0, axis=1)[:, ::2] * _EM_COEFFS
    shrink = np.exp(np.multiply.outer(np.log1p(a / n0), _ONE_MINUS_TWO_J))
    return (shrink @ poch.view(np.float64).reshape(len(s), _EM_ORDER, 2)).view(np.complex128)[..., 0]


def _hurwitz_core(s: np.ndarray, a: np.ndarray, n0: int) -> np.ndarray:
    """Euler-Maclaurin evaluation of zeta(s, a) - 1/(s-1) for complex s and
    float a in (0, 1], of shape (len(s), len(a)).

    The pole term 1/(s-1) is left out (it is exactly the non-entire part),
    so it cancels identically in nonprincipal L-sums.  Every point takes n0
    direct terms; ``_l_sums`` passes the points of one ``_n_terms`` at a
    time, so each point gets its own.  Each power (a+x)^{-s} is the product
    (a+x)^{-sigma} e^{-it log(a+x)}: the real magnitude is taken once per
    distinct sigma among the points and the rotation once per run of equal
    t, which is once per distinct t for points sorted by t.  Consecutive runs
    with equal sigmas go together, up to ``_CHUNK_POWERS`` powers or one run,
    into one reused buffer, and are summed before the next are formed.  The
    boundary term comes from the top power (``_boundary``), and the Bernoulli
    tail is (a+N)^{-s} times a (points x m) @ (m x residues) product.
    """
    sigma, t = s.real.tolist(), s.imag.tolist()
    sigmas = sorted(set(sigma))
    rank = {v: i for i, v in enumerate(sigmas)}
    si = [rank[v] for v in sigma]                     # each point's row of the magnitudes
    width = len(a) * (n0 + 1)                         # powers per point
    chunks = []                                       # [first point, end point, run length]
    starts = [0, *[i for i in range(1, len(t)) if t[i] != t[i - 1]], len(t)]
    for lo, hi in zip(starts[:-1], starts[1:]):
        c = chunks[-1] if chunks else None
        if (c and c[2] == hi - lo and (hi - c[0]) * width <= _CHUNK_POWERS
                and si[lo:hi] == si[c[0]:c[0] + c[2]]):
            c[1] = hi
        else:
            chunks.append([lo, hi, hi - lo])
    s = s[:, None]                                    # (m, 1)
    logs = np.log(a[:, None] + np.arange(n0 + 1.0))   # (len(a), n0 + 1); last column log(a + N)
    mags = np.exp(-np.array(sigmas)[:, None, None] * logs)   # (a+k)^{-sigma}
    buf = np.empty(max(hi - lo for lo, hi, _ in chunks) * width, dtype=np.complex128)
    vals, top_ms = np.empty((2, len(t), len(a)), dtype=np.complex128)
    for lo, hi, k in chunks:
        runs = (hi - lo) // k
        # each run's rotation e^{i theta}, theta = -t log(a+k): (runs, 1, len(a), n0 + 1)
        theta = np.multiply.outer(-np.array(t[lo:hi:k]), logs)[:, None]
        pows, run_mags = buf[:(hi - lo) * width].reshape(runs, k, *logs.shape), mags[si[lo:lo + k]]
        np.multiply(np.cos(theta), run_mags, out=pows.real)
        np.multiply(np.sin(theta), run_mags, out=pows.imag)
        np.add.reduce(pows[..., :n0], axis=-1, out=vals[lo:hi].reshape(runs, k, len(a)))
        top_ms[lo:hi] = pows[..., n0].reshape(hi - lo, len(a))   # (a+N)^{-s}
    return vals + _boundary(s, a, n0, top_ms) + (0.5 + _tail(s, a, n0)) * top_ms


def hurwitz_zeta(s: complex, a) -> complex:
    """zeta(s, a) = sum_{k>=0} (a+k)^{-s} for Re s > 0, a in (0, 1].

    Euler-Maclaurin with twenty Bernoulli corrections after the direct
    terms that bound the remainder by 2^-64 (``_n_terms``); errors at s = 1
    (the pole), and far right, where a power a^{-sigma} overflows a double
    and zeta(s, a) is not finite, as ``l_value`` does.
    """
    s, a = complex(s), float(a)
    if not cmath.isfinite(s):
        raise ValueError("s must be finite")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    if s == 1.0:
        raise ValueError("zeta(s, a) has a pole at s = 1")
    with np.errstate(over="ignore", invalid="ignore"):
        val = complex(_hurwitz_core(np.array([s]), np.array([a]), int(_n_terms(s)))[0, 0]) + 1.0 / (s - 1.0)
    if not cmath.isfinite(val):
        raise ValueError("zeta(s, a) is not finite: a power (a+k)^{-s} overflows a double")
    return val


def _units(q: int) -> np.ndarray:
    """The units a of 1..q, ascending."""
    a = np.arange(1, q + 1)
    return a[np.gcd(a, q) == 1]


def _unit_values(mod: FactoredModulus, E: np.ndarray) -> np.ndarray:
    """chi(a) in column i for the i-th unit a of ``_units(q)``, one row per
    exponent row of E: numerators over lambda(q) index its roots, each in
    lowest terms, so a row is its value table at the units, bit for bit.
    Fortran order, as the bits of ``_l_sums``' products X @ z depend on it.
    X is filled in blocks of rows, each of about ``_BLOCK_ENTRIES`` numerators,
    so the numerators of all rows are never held at once."""
    units = _units(mod.q)
    roots = _roots_of_unity(_exponent(mod))
    X = np.empty((len(E), len(units)), dtype=np.complex128, order="F")
    step = max(1, _BLOCK_ENTRIES // len(units))
    for lo in range(0, len(E), step):
        np.take(roots, _numerator_rows(mod, E[lo:lo + step], units), out=X[lo:lo + step])
    return X


def _chi_rows(mod: FactoredModulus) -> tuple[np.ndarray, np.ndarray]:
    """(X, conj): ``_unit_values`` of every nonprincipal character mod q,
    in ``enumerate_characters`` order, and the row of each row's conjugate."""
    E, conj, _ = character_rows(mod)
    return _unit_values(mod, E[1:]), conj[1:] - 1  # row 0 is the principal character


def _l_sums(X: np.ndarray, q: int, s) -> np.ndarray:
    """q^{-s} sum_a X[:, i] zeta_reg(s, a/q), a the i-th unit of ``_units(q)``,
    for the rows of X (chi at the units, as ``_chi_rows`` gives them) at
    every point of the vector s: an array of shape (len(X), len(s)).

    zeta_reg drops the pole term 1/(s-1) of every Hurwitz zeta, so a row
    of a nonprincipal character gives L(s, chi) exactly (chi(a) = 0 off the
    units).  Points are grouped by their own ``_n_terms`` and go in blocks of
    at most ``_BLOCK_ENTRIES`` (point, unit residue) pairs within a group, in
    (t, sigma) order, so that the points of a block share their t and sigma
    values and the kernel takes one rotation per run of equal t; each point
    takes its own matrix-vector product, so its values do not depend on the
    other points.
    """
    s = np.asarray(s, dtype=np.complex128)
    a_over_q = _units(q) / q
    qf = math.log(q)
    out = np.empty((len(X), len(s)), dtype=np.complex128)
    order = np.lexsort((s.real, s.imag))
    n0 = _n_terms(s, len(a_over_q))[order]
    step = max(1, _BLOCK_ENTRIES // len(a_over_q))
    for n in sorted(set(n0.tolist())):
        group = order[n0 == n]
        for lo in range(0, len(group), step):
            at = group[lo:lo + step]
            blk = s[at]
            qs = np.exp(-blk * qf)[:, None]
            z = _hurwitz_core(blk, a_over_q, n)
            out[:, at] = (qs * (X @ z[:, :, None])[:, :, 0]).T
    return out


def _check_s(s) -> complex:
    """s as a complex number, once it is finite with Re s > 0 (NaN fails)."""
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > 0.0):
        raise ValueError("evaluation restricted to finite s with Re s > 0")
    return s


def l_value(chi: DirichletCharacter, s: complex) -> complex:
    """L(s, chi) for Re s > 0 via the Hurwitz decomposition.

    Nonprincipal characters are entire here (the zeta poles cancel exactly
    in the regularized sum); the principal character keeps the pole and
    errors at s = 1.  ValueError far right, where a Hurwitz power
    (a/q)^{-sigma} overflows a double and L is not finite.
    """
    s = _check_s(s)
    if chi.is_principal and s == 1.0:
        raise ValueError("L(s, principal) has a pole at s = 1")
    with np.errstate(over="ignore", invalid="ignore"):
        val = complex(_l_sums(_unit_values(chi.modulus, chi.row), chi.q, [s])[0, 0])
    if chi.is_principal:
        val += chi.modulus.phi * chi.q ** (-s) / (s - 1.0)
    if not cmath.isfinite(val):
        raise ValueError("L(s, chi) is not finite: a Hurwitz power overflows a double")
    return val


def l_value_series(chi: DirichletCharacter, s: complex) -> complex:
    """Independent L path: Dirichlet series with iterated period averaging.

    Partial sums of sum chi(n) n^{-s} oscillate with period q; averaging
    the cutoff over a full period ``_SERIES_PASSES`` times damps the tail
    by a factor ~ (q|s|/N) per pass.  Nonprincipal chi only.
    """
    if chi.is_principal:
        raise ValueError("series acceleration needs a nonprincipal character")
    s = _check_s(s)
    q = chi.q
    terms = int(min(4e6, max(4000, 60 * ((abs(s) + 8.0) * q))))
    window = _SERIES_PASSES * (q - 1) + 1

    def series(ns: np.ndarray) -> np.ndarray:
        return _chi_values(chi, ns) * np.exp(-s * np.log(ns))

    # partial sums at the cutoffs terms .. terms + window - 1: the head below
    # them is one window sum, the window itself is summed cumulatively
    head = _blocked_sum(series, 0, terms - 1).value
    cur = head + np.cumsum(series(np.arange(terms, terms + window)))
    kernel = np.ones(q) / q
    for _ in range(_SERIES_PASSES):
        cur = np.convolve(cur, kernel, mode="valid")
    return complex(cur[0])


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _gl_nodes() -> np.ndarray:
    """The Gauss-Legendre nodes, read-only, made on first use: at import,
    ``leggauss`` would start LAPACK in processes that never scan."""
    nodes = np.polynomial.legendre.leggauss(_GL_ORDER)[0]
    nodes.flags.writeable = False
    return nodes


def _contour(alpha: float, T: float, max_panel: float) -> np.ndarray:
    """Gauss-Legendre nodes around the rectangle [alpha, 1] x [-T, T], in
    counterclockwise order.  The left side is the right side run backwards:
    the same t nodes, reversed, so the two vertical sides share every t."""
    corners = [complex(alpha, -T), complex(1.0, -T), complex(1.0, T), complex(alpha, T)]
    pts = []
    for z0, z1 in zip(corners[:-1], corners[1:]):
        panels = max(1, math.ceil(abs(z1 - z0) / max_panel))
        i = np.arange(panels)[:, None]
        u0, u1 = i / panels, (i + 1) / panels
        half = (u1 - u0) / 2.0
        pts.append((z0 + ((u0 + u1) / 2.0 + half * _gl_nodes()) * (z1 - z0)).ravel())
    pts.append(alpha + 1j * pts[1].imag[::-1])
    return np.concatenate(pts)


def _windings(X: np.ndarray, q: int, conj: Sequence[int], alpha: float, T: float, max_panel: float):
    """The turn of arg L around the contour over 2 pi for every row of
    ``_chi_rows``' X, whose row conj[c] is the conjugate of row c: the sum of
    the steps arg(L(z_{i+1}) / L(z_i)) between consecutive nodes.  Also the
    largest |step| and the smallest |L| on the contour.

    Only the nodes with t > 0 are evaluated (the Gauss-Legendre order is
    even).  The lower half, in order, is the upper half reversed and mirrored,
    and L(conj z, chi) = conj L(z, conj chi), so its steps for chi are the
    upper half's steps for conj chi.  Two crossing steps join the halves, one
    at each vertical side, from conj L(z, conj chi) to L(z, chi) at the first
    upper node and back at the last.

    L at the upper nodes is the one array over every node.  The steps, their
    largest |step| and the least |L| are taken over blocks of nodes of about
    ``_BLOCK_ENTRIES`` values each; the largest step and least |L| are those
    of one pass, and the turn, summed block by block, moves only in rounding,
    which the caller's nearest integer absorbs."""
    pts = _contour(alpha, T, max_panel)
    lmat = _l_sums(X, q, pts[pts.imag > 0])
    first, last = lmat[:, 0], lmat[:, -1]
    crossings = np.angle(np.stack((first / first[conj].conj(), last[conj].conj() / last)))
    half, max_step, min_abs = np.zeros(len(X)), np.abs(crossings).max(), np.inf
    width = max(1, _BLOCK_ENTRIES // len(X))
    for lo in range(0, lmat.shape[1], width):
        block = lmat[:, lo:lo + width + 1]                # a node past the block for its last step
        steps = np.angle(block[:, 1:] / block[:, :-1])
        half += steps.sum(axis=1)
        max_step = np.maximum(max_step, np.abs(steps).max(initial=0.0))
        min_abs = np.minimum(min_abs, np.abs(block[:, :width]).min())
    turn = half + half[conj] + crossings.sum(axis=0)
    return turn / (2.0 * math.pi), float(max_step), float(min_abs)


def _stable_windings(X: np.ndarray, q: int, conj: Sequence[int], alpha: float, T: float):
    """Refine panels until two trusted levels in a row give the same integer
    windings; a level is trusted when no step of arg L reaches ``_MAX_STEP``."""
    results = None
    prev = None
    for panel in (0.5, 0.25, 0.125, 0.0625):
        cur, max_step, min_abs = _windings(X, q, conj, alpha, T, panel)
        if min_abs < 1e-10:
            raise ArithmeticError("contour passes through a zero")
        if max_step >= _MAX_STEP:
            prev = None
            continue
        snapped = np.round(cur).astype(int)
        if prev is not None and np.array_equal(snapped, prev):
            results = snapped
            break
        prev = snapped
    if results is None:
        raise ArithmeticError("winding numbers failed to stabilize")
    if np.any(results < 0):
        raise ArithmeticError("negative winding count (implementation fault)")
    return results, min_abs


def _check_rectangle(alpha: float, T: float) -> None:
    """The scans' rectangle: 1/2 <= alpha < 1, in Re s > 0, and 1 <= T < inf; NaN fails."""
    if not (0.5 <= alpha < 1.0 and 1.0 <= T < math.inf):
        raise ValueError("need a finite alpha in [1/2, 1) and a finite T >= 1")


def zero_scan_report(q, alpha: float, T: float) -> dict:
    """Zero counts of every nonprincipal L mod q in alpha < sigma < 1, |t| <= T,
    their total, the least |L| on the final contour (``contour_min_abs_l``, inf
    without nonprincipal characters) and whether alpha was perturbed by 1e-6.

    Each character's count is the turn of arg L around the rectangle over
    2 pi, summed over the steps between contour nodes; panels are refined
    until two levels in a row, each with every step below pi/2, give the
    same counts.  A contour passing through (or too near) a zero is retried
    once with alpha perturbed by 1e-6 (``perturbed``); when that fails too (a
    zero on the contour at alpha = 1/2 stays within 1e-6 of it)
    ArithmeticError is raised.
    """
    _check_rectangle(alpha, T)
    mod = as_modulus(q)
    X, conj = _chi_rows(mod)
    used_alpha = alpha
    perturbed = False
    windings, min_abs = [], math.inf
    if len(X):
        try:
            windings, min_abs = _stable_windings(X, mod.q, conj, alpha, T)
        except ArithmeticError:
            used_alpha = alpha - 1e-6
            perturbed = True
            windings, min_abs = _stable_windings(X, mod.q, conj, used_alpha, T)
    per_char = [
        {"character": chi.label(), "zeros": int(w)}
        for chi, w in zip(enumerate_characters(mod)[1:], windings)
    ]
    return {
        "q": mod.q, "alpha": alpha, "alpha_used": used_alpha, "T": T,
        "perturbed": perturbed, "contour_min_abs_l": min_abs,
        "total_zeros": int(np.sum(windings)), "per_character": per_char,
    }


def l_grid_min(q, alpha: float, T: float) -> dict:
    """Independent confirmation scan: min |L| over a grid on the rectangle.

    A strictly positive minimum across all nonprincipal characters is the
    desk-scale evidence that the region is zero-free.
    |L(sigma - it, conj chi)| = |L(sigma + it, chi)|, so every character is
    evaluated on the t >= 0 half of the symmetric t grid only, and each
    mirror pair is read once, at its upper member; ``at`` is the first
    least value in (sigma, t, character) order, a NaN before any number, as
    ``np.argmin`` over the whole grid takes it.  The grid goes to the kernel
    in slabs of whole t rows (every sigma at a t), each of about one block of
    ``_BLOCK_ENTRIES`` (point, unit residue) pairs; a point's value does not
    depend on its slab, so the first least of the slabs' first least values
    is the grid's.
    """
    _check_rectangle(alpha, T)
    mod = as_modulus(q)
    X, _ = _chi_rows(mod)
    if not len(X):
        return {"q": mod.q, "min_abs": math.inf, "at": None}
    sigmas = np.linspace(alpha, 1.0, _GRID_SIGMAS)
    ts = np.linspace(-T, T, _GRID_TS)[_GRID_TS // 2:]
    rows = max(1, _BLOCK_ENTRIES // (X.shape[1] * _GRID_SIGMAS))
    firsts = []                                       # each slab's first least: (i, j, c, |L|)
    for lo in range(0, len(ts), rows):
        slab = ts[lo:lo + rows]
        absl = np.abs(_l_sums(X, mod.q, (sigmas[:, None] + 1j * slab).ravel()))
        absl = absl.reshape(len(X), _GRID_SIGMAS, len(slab)).transpose(1, 2, 0)
        i, j, c = np.unravel_index(int(np.argmin(absl)), absl.shape)
        firsts.append((int(i), lo + int(j), int(c), float(absl[i, j, c])))
    firsts.sort()                                     # (sigma, t, character) order
    i, j, c, least = firsts[int(np.argmin([f[3] for f in firsts]))]
    label = characters_of_rows(mod, character_rows(mod)[0][1 + c:2 + c])[0].label()
    at = {"sigma": float(sigmas[i]), "t": float(ts[j]), "character": label}
    return {"q": mod.q, "min_abs": least, "at": at}


# ---------------------------------------------------------------------------
# Bound-shape evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem3Bound:
    """eta^{-1} exp(c * max{eta log core, eta^{3/2} ell, eta ell^{2/3} (log ell)^{1/3}})."""

    q: int
    eta: float
    t: float
    ell: float
    c_impl: float
    term_core: float
    term_eta32: float
    term_ell23: float
    dominant: str
    bound: float


def theorem3_bound(q, eta: float, t: float, c_impl: float = 1.0) -> Theorem3Bound:
    """Evaluate the L-bound shape near the edge of the critical strip.

    ``c_impl`` stands in for the unspecified absolute constant (default 1);
    the report says which of the three max-terms dominates.
    """
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    mod = as_modulus(q)
    ell = math.log(mod.q) + math.log(abs(t) + 3.0)  # log(q (|t| + 3))
    t1 = eta * math.log(mod.core)
    t2 = eta**1.5 * ell
    t3 = eta * ell ** (2.0 / 3.0) * math.log(ell) ** (1.0 / 3.0)
    dominant = max((t1, "core"), (t2, "eta32"), (t3, "ell23"))[1]
    bound = math.exp(c_impl * max(t1, t2, t3)) / eta
    return Theorem3Bound(q=mod.q, eta=eta, t=t, ell=ell, c_impl=c_impl,
                         term_core=t1, term_eta32=t2, term_ell23=t3,
                         dominant=dominant, bound=bound)


@dataclass(frozen=True)
class ZeroFreeRegionParams:
    """The technical zero-free-region parameters around vartheta = eta/(400 log M).

    The printed eta-condition  eta log(5 log 3q) <= 3 log(2.5 vartheta)
    has a negative right side whenever vartheta < 0.4 and is then
    unsatisfiable; the corrected reading divides instead of multiplying.
    Both verdicts are reported, neither silently chosen.
    """

    q: int
    eta: float
    T: float
    M_bound: float
    vartheta: float
    etacond_lhs: float
    etacond_rhs_as_printed: float
    etacond_rhs_corrected: float
    etacond_holds_as_printed: bool
    etacond_holds_corrected: bool
    A_shape: float
    vartheta_shape: Optional[float]


def zero_free_params(q, eta: float, T: float, M_bound: float,
                     A: float = 1.0) -> ZeroFreeRegionParams:
    """Assemble vartheta = eta/(400 log M) and both eta-condition verdicts."""
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    if not (1.0 <= T < math.inf and math.e <= M_bound < math.inf):  # NaN fails
        raise ValueError("need finite T >= 1 and M >= e")
    mod = as_modulus(q)
    vt = eta / (400.0 * math.log(M_bound))
    lhs = eta * math.log(5.0 * math.log(3.0 * mod.q))
    rhs_printed = 3.0 * math.log(2.5 * vt)
    rhs_corrected = 3.0 * math.log(2.5 / vt)
    shape = vartheta_shape(mod, A) if mod.q >= 16 else None
    return ZeroFreeRegionParams(
        q=mod.q, eta=eta, T=T, M_bound=M_bound, vartheta=vt,
        etacond_lhs=lhs,
        etacond_rhs_as_printed=rhs_printed,
        etacond_rhs_corrected=rhs_corrected,
        etacond_holds_as_printed=lhs <= rhs_printed,
        etacond_holds_corrected=lhs <= rhs_corrected,
        A_shape=A, vartheta_shape=shape,
    )


def vartheta_shape(q, A: float) -> float:
    """A / ((log q)^{2/3} (log log q)^{1/3}), guarded at q >= 16 (> e^e)."""
    mod = as_modulus(q)
    if mod.q < 16:
        raise ValueError("q must be at least 16 (log log q degenerates below e^e)")
    lq = math.log(mod.q)
    return A / (lq ** (2.0 / 3.0) * math.log(lq) ** (1.0 / 3.0))
