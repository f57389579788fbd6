"""Dirichlet L-functions: evaluation, zero counting, and bound evaluators.

L(s, chi) is evaluated through the Hurwitz decomposition
L = q^{-s} sum_a chi(a) zeta(s, a/q), with zeta computed by Euler-Maclaurin
(pole-regularized, so nonprincipal L is exact right through s = 1).  An
independent evaluation path sums the Dirichlet series with iterated
period-averaging; the two paths cross-check each other in the tests.

Zero counting integrates L'/L around a rectangle on Gauss-Legendre panels
and snaps the winding number to an integer once refinement stabilizes it;
an |L| lower-bound grid scan serves as the independent confirmation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arith import as_modulus, exp_or_inf
from .characters import DirichletCharacter, enumerate_characters

__all__ = [
    "hurwitz_zeta",
    "l_value",
    "l_value_series",
    "l_derivative",
    "zero_count_rectangle",
    "zero_scan_report",
    "l_grid_min",
    "EllContext",
    "build_ell_context",
    "theorem3_bound",
    "Theorem3Bound",
    "lemma8_check",
    "Lemma8Report",
    "zero_free_params",
    "ZeroFreeRegionParams",
    "vartheta_shape",
]

# B_2 .. B_24 as exact rationals; twelve correction terms.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730),
]
_EM_ORDER = 12
_SERIES_PASSES = 3  # period averages of the series path
_GL_ORDER = 12  # Gauss-Legendre nodes per contour panel
_WINDING_TOL = 1e-3  # distance from an integer at which a winding snaps
_GRID_SIGMAS, _GRID_TS = 9, 201  # |L| confirmation grid points along sigma and t


def _g_ratio(w: np.ndarray) -> np.ndarray:
    """expm1(w)/w for complex w, stable near 0."""
    w = np.asarray(w, dtype=np.complex128)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-5
    big = ~small
    out[big] = (np.exp(w[big]) - 1.0) / w[big]
    ws = w[small]
    out[small] = 1.0 + ws / 2.0 * (1.0 + ws / 3.0 * (1.0 + ws / 4.0))
    return out


def _g_ratio_prime(w: np.ndarray) -> np.ndarray:
    """d/dw [expm1(w)/w] = (w exp(w) - expm1(w))/w^2, stable near 0."""
    w = np.asarray(w, dtype=np.complex128)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-4
    big = ~small
    wb = w[big]
    out[big] = (wb * np.exp(wb) - (np.exp(wb) - 1.0)) / wb**2
    ws = w[small]
    out[small] = 0.5 + ws / 3.0 + ws**2 / 8.0 + ws**3 / 30.0
    return out


def _hurwitz_core(s: complex, a: np.ndarray, regularized: bool, with_ds: bool):
    """Euler-Maclaurin evaluation of zeta(s, a) for a vector of a in (0, 1].

    With ``regularized`` the pole term 1/(s-1) is subtracted (exactly the
    entire part), which cancels identically in nonprincipal L-sums.
    Returns vals or (vals, ds_vals).
    """
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0.0) or np.any(a > 1.0):
        raise ValueError("a must lie in (0, 1]")
    s = complex(s)
    if not regularized and s == 1.0:
        raise ValueError("zeta(s, a) has a pole at s = 1")

    n0 = max(2 * _EM_ORDER + 8, math.ceil(1.2 * abs(s)) + 16)
    k = np.arange(n0, dtype=np.float64)
    base = a[:, None] + k[None, :]          # (len(a), n0)
    logs = np.log(base)
    pows = np.exp(-s * logs)                # (a+k)^{-s}
    vals = pows.sum(axis=1)
    if with_ds:
        dvals = -(logs * pows).sum(axis=1)

    top = a + float(n0)                      # a + N
    ltop = np.log(top)
    top_ms = np.exp(-s * ltop)               # (a+N)^{-s}

    # boundary + pole: (a+N)^{1-s}/(s-1) = 1/(s-1) - ltop * g((1-s) ltop)
    w = (1.0 - s) * ltop
    pole_part = -ltop * _g_ratio(w)
    if not regularized:
        pole_part = pole_part + 1.0 / (s - 1.0)
    vals = vals + pole_part + 0.5 * top_ms
    if with_ds:
        dpole = ltop**2 * _g_ratio_prime(w)
        if not regularized:
            dpole = dpole - 1.0 / (s - 1.0) ** 2
        dvals = dvals + dpole - 0.5 * ltop * top_ms

    # Bernoulli corrections: B_{2j}/(2j)! (s)_{2j-1} (a+N)^{-s-2j+1}
    poch = s
    poch_dlog = 1.0 / s                     # sum of 1/(s+i), i < 2j-1
    fact = 1.0
    for j in range(1, _EM_ORDER + 1):
        two_j = 2 * j
        fact *= (two_j - 1) * two_j
        coeff = float(_BERNOULLI[j - 1]) / fact
        powterm = np.exp((-s - two_j + 1) * ltop)
        vals = vals + coeff * poch * powterm
        if with_ds:
            dvals = dvals + coeff * powterm * (poch * poch_dlog - poch * ltop)
        if j < _EM_ORDER:
            for i in (two_j - 1, two_j):
                poch *= s + i  # extend (s)_{2j-1} -> (s)_{2j+1}
                poch_dlog += 1.0 / (s + i)
    if with_ds:
        return vals, dvals
    return vals


def hurwitz_zeta(s: complex, a) -> complex:
    """zeta(s, a) = sum_{k>=0} (a+k)^{-s} for Re s > 0, a in (0, 1].

    Euler-Maclaurin with twelve Bernoulli corrections after an
    |s|-proportional number of direct terms; errors at s = 1 (the pole).
    """
    val = _hurwitz_core(s, np.array([float(a)]), regularized=False, with_ds=False)
    return complex(val[0])


def _chi_matrix(chis: Sequence[DirichletCharacter]) -> np.ndarray:
    """(n_chi, q) complex matrix of chi(a) in column a-1 for a = 1..q."""
    return np.stack([np.roll(chi.value_table[1], -1) for chi in chis])


def _l_sums(X: np.ndarray, s: complex, with_ds: bool = False):
    """q^{-s} sum_a X[:, a-1] zeta_reg(s, a/q) for the rows of a ``_chi_matrix``.

    zeta_reg drops the pole term 1/(s-1) of every Hurwitz zeta, so a row
    of a nonprincipal character gives L(s, chi) exactly.  With ``with_ds``
    the d/ds values come second.
    """
    q = X.shape[1]
    a_over_q = np.arange(1, q + 1, dtype=np.float64) / q
    qf = math.log(q)
    qs = np.exp(-s * qf)
    if not with_ds:
        return qs * (X @ _hurwitz_core(s, a_over_q, regularized=True, with_ds=False))
    zr, dzr = _hurwitz_core(s, a_over_q, regularized=True, with_ds=True)
    lvals = qs * (X @ zr)
    return lvals, -qf * lvals + qs * (X @ dzr)


def l_value(chi: DirichletCharacter, s: complex) -> complex:
    """L(s, chi) for Re s > 0 via the Hurwitz decomposition.

    Nonprincipal characters are entire here (the zeta poles cancel exactly
    in the regularized sum); the principal character keeps the pole and
    errors at s = 1.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation restricted to Re s > 0")
    if chi.is_principal and s == 1.0:
        raise ValueError("L(s, principal) has a pole at s = 1")
    val = complex(_l_sums(_chi_matrix([chi]), s)[0])
    if chi.is_principal:
        val += chi.modulus.phi * chi.q ** (-s) / (s - 1.0)
    return val


def l_derivative(chi: DirichletCharacter, s: complex) -> tuple[complex, complex]:
    """(L(s, chi), L'(s, chi)) for nonprincipal chi, Re s > 0."""
    if chi.is_principal:
        raise ValueError("derivative path is for nonprincipal characters")
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation restricted to Re s > 0")
    lvals, dvals = _l_sums(_chi_matrix([chi]), s, with_ds=True)
    return complex(lvals[0]), complex(dvals[0])


def l_value_series(chi: DirichletCharacter, s: complex) -> complex:
    """Independent L path: Dirichlet series with iterated period averaging.

    Partial sums of sum chi(n) n^{-s} oscillate with period q; averaging
    the cutoff over a full period ``_SERIES_PASSES`` times damps the tail
    by a factor ~ (q|s|/N) per pass.  Nonprincipal chi only.
    """
    if chi.is_principal:
        raise ValueError("series acceleration needs a nonprincipal character")
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("evaluation restricted to Re s > 0")
    q = chi.q
    terms = int(min(4e6, max(4000, 60 * ((abs(s) + 8.0) * q))))
    window = _SERIES_PASSES * (q - 1) + 1 if q > 1 else 1
    n_max = terms + window
    _, vals = chi.value_table
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    series = vals[np.arange(1, n_max + 1) % q] * np.exp(-s * np.log(ns))
    prefix = np.cumsum(series)
    cur = prefix[terms - 1: terms - 1 + window]
    for _ in range(_SERIES_PASSES):
        if q > 1:
            kernel = np.ones(q) / q
            cur = np.convolve(cur, kernel, mode="valid")
    return complex(cur[0])


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


def _contour(alpha: float, T: float, max_panel: float):
    """Gauss-Legendre nodes and dz-weights around the rectangle
    [alpha, 1] x [-T, T], oriented counterclockwise."""
    corners = [complex(alpha, -T), complex(1.0, -T), complex(1.0, T),
               complex(alpha, T), complex(alpha, -T)]
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    pts, wts = [], []
    for z0, z1 in zip(corners[:-1], corners[1:]):
        length = abs(z1 - z0)
        panels = max(1, math.ceil(length / max_panel))
        for i in range(panels):
            u0, u1 = i / panels, (i + 1) / panels
            mid, half = (u0 + u1) / 2.0, (u1 - u0) / 2.0
            for x, w in zip(nodes, weights):
                u = mid + half * x
                pts.append(z0 + u * (z1 - z0))
                wts.append(w * half * (z1 - z0))
    return np.array(pts), np.array(wts)


def _windings(X: np.ndarray, alpha: float, T: float, max_panel: float):
    """Winding numbers (1/2pi i) contour-int L'/L for every row of the
    ``_chi_matrix`` X, plus the smallest |L| seen on the contour."""
    pts, wts = _contour(alpha, T, max_panel)
    lmat = np.empty((len(X), len(pts)), dtype=np.complex128)
    lpmat = np.empty_like(lmat)
    for j, s in enumerate(pts):
        lmat[:, j], lpmat[:, j] = _l_sums(X, complex(s), with_ds=True)
    min_abs = float(np.min(np.abs(lmat)))
    integrals = (lpmat / lmat) @ wts / (2j * math.pi)
    return integrals, min_abs


def _stable_windings(X: np.ndarray, alpha: float, T: float):
    """Refine panels until every winding snaps to a stable integer."""
    results = None
    prev = None
    for panel in (0.5, 0.25, 0.125, 0.0625):
        cur, min_abs = _windings(X, alpha, T, panel)
        if min_abs < 1e-10:
            raise ArithmeticError("contour passes through a zero")
        if prev is not None:
            snapped = np.round(cur.real)
            ok = ((np.abs(cur - snapped) < _WINDING_TOL)
                  & (np.abs(prev - snapped) < 2 * _WINDING_TOL))
            if np.all(ok):
                results = snapped.astype(int)
                break
        prev = cur
    if results is None:
        raise ArithmeticError("winding numbers failed to stabilize")
    if np.any(results < 0):
        raise ArithmeticError("negative winding count (implementation fault)")
    return results, min_abs


def zero_count_rectangle(q, alpha: float, T: float) -> int:
    """Total zeros of all nonprincipal L mod q in alpha < sigma < 1, |t| <= T.

    Argument-principle integration per character with adaptive refinement;
    a contour passing through (or too near) a zero is retried with alpha
    perturbed by 1e-6, as reported by ``zero_scan_report``.
    """
    return zero_scan_report(q, alpha, T)["total_zeros"]


def zero_scan_report(q, alpha: float, T: float) -> dict:
    if not 0.5 <= alpha < 1.0:
        raise ValueError("alpha must lie in [1/2, 1)")
    if T < 1.0:
        raise ValueError("T must be >= 1")
    mod = as_modulus(q)
    chis = [c for c in enumerate_characters(mod) if not c.is_principal]
    used_alpha = alpha
    perturbed = False
    if not chis:
        return {"q": mod.q, "alpha": alpha, "alpha_used": alpha, "T": T,
                "perturbed": False, "total_zeros": 0, "per_character": []}
    X = _chi_matrix(chis)
    try:
        windings, min_abs = _stable_windings(X, alpha, T)
    except ArithmeticError:
        used_alpha = alpha - 1e-6
        perturbed = True
        windings, min_abs = _stable_windings(X, used_alpha, T)
    per_char = [
        {"character": chi.label(), "zeros": int(w)}
        for chi, w in zip(chis, windings)
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
    """
    mod = as_modulus(q)
    chis = [c for c in enumerate_characters(mod) if not c.is_principal]
    if not chis:
        return {"q": mod.q, "min_abs": math.inf, "at": None}
    sigmas = np.linspace(alpha, 1.0, _GRID_SIGMAS)
    ts = np.linspace(-T, T, _GRID_TS)
    X = _chi_matrix(chis)
    best = math.inf
    best_at = None
    for sigma in sigmas:
        for t in ts:
            lvals = _l_sums(X, complex(sigma, t))
            idx = int(np.argmin(np.abs(lvals)))
            v = float(np.abs(lvals[idx]))
            if v < best:
                best = v
                best_at = {"sigma": float(sigma), "t": float(t),
                           "character": chis[idx].label()}
    return {"q": mod.q, "min_abs": best, "at": best_at}


# ---------------------------------------------------------------------------
# Bound-shape evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllContext:
    """The recurring log scale ell = log(q (|t|+3)) and Z = e^{2 ell}."""

    q: int
    t: float
    ell: float
    Z: float


def build_ell_context(q, t: float) -> EllContext:
    mod = as_modulus(q)
    ell = math.log(mod.q) + math.log(abs(t) + 3.0)
    return EllContext(q=mod.q, t=t, ell=ell, Z=exp_or_inf(2.0 * ell))


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
    ctx = build_ell_context(mod, t)
    ell = ctx.ell
    t1 = eta * math.log(mod.core)
    t2 = eta**1.5 * ell
    t3 = eta * ell ** (2.0 / 3.0) * math.log(ell) ** (1.0 / 3.0)
    dominant = max((t1, "core"), (t2, "eta32"), (t3, "ell23"))[1]
    bound = math.exp(c_impl * max(t1, t2, t3)) / eta
    return Theorem3Bound(q=mod.q, eta=eta, t=t, ell=ell, c_impl=c_impl,
                         term_core=t1, term_eta32=t2, term_ell23=t3,
                         dominant=dominant, bound=bound)


@dataclass(frozen=True)
class Lemma8Report:
    """Validity of the (Y, eta) window and the resulting bound eta^{-1} Y^eta."""

    q: int
    log_y: float
    eta: float
    t: float
    ell: float
    gamma0: int
    xi0: float
    c0: float
    y_large_enough: bool
    eta_ceiling: float
    eta_below_ceiling: bool
    valid: bool
    bound: float


def lemma8_check(q, Y: Optional[float] = None, eta: float = 0.1, t: float = 0.0,
                 *, gamma0: int = 2, xi0: float = 1e-4, c0: float = 1.0,
                 log_y: Optional[float] = None) -> Lemma8Report:
    """Check Y >= core^gamma0 and eta <= xi0 (log Y)^2/ell^2 - c0 log(ell)/log Y.

    When both hold the lemma's conclusion bounds |L| by eta^{-1} Y^eta in
    sigma > 1 - eta.  Y may be given directly or as log_y (the useful Y
    routinely overflows a double).  The bound is uniform over primitive
    characters mod q.
    """
    mod = as_modulus(q)
    if (Y is None) == (log_y is None):
        raise ValueError("give exactly one of Y and log_y")
    ly = math.log(Y) if log_y is None else float(log_y)
    if ly <= 0.0 or eta <= 0.0:
        raise ValueError("need Y > 1 and eta > 0")
    ctx = build_ell_context(mod, t)
    ell = ctx.ell
    y_ok = ly >= gamma0 * math.log(mod.core)
    ceiling = xi0 * ly * ly / (ell * ell) - c0 * math.log(ell) / ly
    eta_ok = eta <= ceiling
    bound = exp_or_inf(eta * ly) / eta
    return Lemma8Report(q=mod.q, log_y=ly, eta=eta, t=t, ell=ell,
                        gamma0=gamma0, xi0=xi0, c0=c0,
                        y_large_enough=y_ok, eta_ceiling=ceiling,
                        eta_below_ceiling=eta_ok, valid=y_ok and eta_ok,
                        bound=bound)


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
    if T < 1.0 or M_bound < math.e:
        raise ValueError("need T >= 1 and M >= e")
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
