"""Truncated-logarithm representation of characters and the bound shapes.

The central identity here represents a primitive character on the
principal congruence subgroup: chi(1 + tau*core*x) = e(f(x)) with
f(x) = m/q * F_d(tau*core*x), where F_d is the degree-d truncation of
log(1+x) and m is an integer unit mod q that is divisible by every
r in [1, d] coprime to q.  The multiplier of any set of primitive
characters, given as exponent rows (``postnikov_multipliers``;
``find_postnikov_m`` is its one-row call), comes from one congruence at
x = 1 per row, which proves the identity at every x; ``_check_multipliers``
checks it at every x, as array passes over blocks of rows, for
``postnikov-verify`` and the tests.  ``shifted_poly`` gives the identity on
a shifted progression as a ``RealPolynomial`` f_n with exact coefficients.

The module also evaluates the two competing character-sum bound shapes
(the rho^{-2}-savings bound and the older rho^{-2}/log-rho one) and their
nontriviality thresholds, the older one's by bisection over its grid, as
the older bound's h falls in log N: bit for bit the scalar scan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import _cached, as_modulus, crt_combine
from .characters import DirichletCharacter, _exponent, _numerator_rows, _primitive_rows, character_rows
from .expsums import RealPolynomial, _phase_numerators

__all__ = [
    "fd_coefficients",
    "fd_eval",
    "minimal_postnikov_degree",
    "find_postnikov_m",
    "postnikov_multipliers",
    "shifted_poly",
    "main_bound_log",
    "iwaniec_bound_log",
    "nontriviality_threshold_main",
    "nontriviality_threshold_iwaniec",
]


def fd_coefficients(d: int) -> list[Fraction]:
    """Coefficients of F_d(x) = sum_{r=1}^{d} (-1)^(r-1) x^r / r, exactly."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return [Fraction((-1) ** (r - 1), r) for r in range(1, d + 1)]


def fd_eval(d: int, x) -> Fraction:
    """F_d evaluated exactly at a rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    # Horner from the top coefficient 1/d down
    for r in range(d, 0, -1):
        acc = (acc + Fraction((-1) ** (r - 1), r)) * x
    return acc


def minimal_postnikov_degree(q) -> int:
    """Least d with q^2 | core(q)^d; equals 2*gamma_max (the d0 = 2*gamma choice)."""
    m = as_modulus(q)
    if m.q < 2:
        raise ValueError("modulus must be >= 2")
    return 2 * m.gamma_max


@lru_cache(maxsize=32)
def _congruence(q: int, d: int) -> tuple[int, int, int, int, int]:
    """(L, dd_1, h, K, M) per (q, d): L = lambda(q); u_1 = F_d(tau*core)/q mod
    1 = nn_1/dd_1 in lowest terms; h = gcd(dd_1, div), div the lcm of the r
    in [1, d] coprime to q; K = h nn_1^-1 (mod dd_1) and K = 0 (mod div), M
    = lcm(dd_1, div).  For t = 0 (mod h), m = (t/h) K solves m = t nn_1^-1
    (mod dd_1) and m = 0 (mod div), and h | t is needed for a solution."""
    mod = as_modulus(q)
    u = fd_eval(d, mod.tau * mod.core) / q % 1
    div = math.lcm(*(r for r in range(2, d + 1) if math.gcd(r, q) == 1))
    h = math.gcd(u.denominator, div)
    K, M = crt_combine([(h * pow(u.numerator, -1, u.denominator), u.denominator), (0, div)])
    return _exponent(mod), u.denominator, h, K, M


def postnikov_multipliers(q, d: int, rows=None) -> list[int]:
    """``find_postnikov_m`` of every primitive character mod q, in
    ``enumerate_characters(q, primitive_only=True)`` order, or of the
    character of every row of ``rows``, exponent rows mod q as
    ``character_rows`` gives them."""
    mod = as_modulus(q)
    if rows is None:
        E, _, primitive = character_rows(mod)
        rows = E[primitive]
    if not len(rows):
        return []
    return _multipliers(mod, d, rows, _primitive_rows(mod, rows).all())


def find_postnikov_m(chi: DirichletCharacter, d: int) -> int:
    """Least positive m with chi(1+tau*core*x) = e(m*F_d(tau*core*x)/q) for all x:
    the one-row call of ``postnikov_multipliers``.

    m is an integer unit mod q divisible by every r in [1, d] coprime to q.
    It is proved from the identity at x = 1 alone (see ``_multipliers``),
    at any q; ``postnikov-verify`` and the tests check it exhaustively at
    every x.  Raises ValueError when no multiplier exists, which signals a
    non-primitive input (or an implementation fault).
    """
    return _multipliers(chi.modulus, d, chi.row, chi.is_primitive)[0]


def _multipliers(mod, d: int, rows: np.ndarray, primitive: bool) -> list[int]:
    """The least multiplier of the character of every row of ``rows``, all
    primitive when ``primitive`` holds (else ValueError), from one
    ``_numerator_rows`` call at the single point 1 + step, step = tau*core.

    Proof that the congruence at x = 1 fixes m.  Let U1 = 1 + step*Z mod q,
    and take p^e exactly dividing q and k = v_p(step) <= e.  U1's p-part
    1 + p^k Z mod p^e is trivial when k = e.  Else k >= 2 if p = 2 (tau = 2
    when 4 | q), so the p-adic log maps 1 + p^k Z_p onto p^k Z_p, a group
    isomorphism, and sends 1 + step to step plus terms step^r/r of valuation
    r k - v_p(r) > k: 1 + step generates the p-part, cyclic of order
    p^(e-k).  These orders are coprime, so U1 is cyclic and generated by
    1 + step.  For y in step*Z, F_d(y) differs
    from log(1 + y) by terms y^r/r, r > d >= 2 gamma_max, of valuation at
    least r - log_p r >= e, so F_d is exact mod q there; and once div | m,
    m F_d(y)/q mod 1 has only the primes of q in its denominator.  So
    y -> e(m F_d(y)/q) is a character of U1, and it equals chi on U1 as soon
    as the two agree at the generator: chi(1 + step) = e(A/L), A from
    ``_numerator_rows`` over L = lambda(q), against e(m nn_1/dd_1).  That
    reads m nn_1 = A dd_1/L (mod dd_1), solvable exactly when L | A dd_1,
    and then m = r = (A dd_1/L) nn_1^-1 (mod dd_1).  With m = 0 (mod div),
    the CRT of ``_congruence`` gives m mod M, and the steps of M up to
    gcd(m, q) = 1 the least unit.  Every valid m solves both congruences,
    so that one is least.  dd_1 has the largest p-part, p | q, of the
    denominator of u_x at any x, as v_p((step x)^r/r) > v_p(step) for
    r >= 2, and the other primes of any such denominator divide div: M is
    the lcm of every congruence the identity imposes.

    The identity pins m only modulo M, which generally exceeds q, so the
    least valid m can too (already for q = 25 some primitive characters
    force m = 36).
    """
    q = mod.q
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if any(d < 2 * e for _, e in mod.factors):
        raise ValueError(f"need q^2 | core^d, i.e. d >= {2 * mod.gamma_max}")
    if not primitive:
        raise ValueError("character is not primitive; no coprime multiplier exists")
    L, dd, h, K, M = _congruence(q, d)
    A = _numerator_rows(mod, rows, np.array([1 + mod.tau * mod.core], dtype=object))
    out = []
    for a in A[:, 0].tolist():
        t, rem = divmod(a * dd, L)
        if rem or t % h:
            raise ValueError("angle congruence unsolvable; character not primitive?")
        m = t // h * K % M or M
        for _ in range(64):
            if math.gcd(m, q) == 1:
                break
            m += M
        else:
            raise ValueError("no multiplier coprime to q in the solution class")
        out.append(m)
    return out


@_cached()
def _check_grid(q: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ns, nn, dd), read-only, per (q, d): for x in [0, q/(tau*core)), the
    point ns[x] = 1 + tau*core*x and u_x = F_d(tau*core*x)/q mod 1 =
    nn[x]/dd[x] in lowest terms (0/1 where u_x = 0, as at x = 0), over a
    common denominator den: int64 while den max(den, q) < 2^63 (the bounds
    of ``_check_multipliers``), and Python ints beyond."""
    mod = as_modulus(q)
    step = mod.tau * mod.core
    nums, den = RealPolynomial.make(
        [0] + [c * step**r / q for r, c in enumerate(fd_coefficients(d), start=1)]).angle_data()
    dtype = np.int64 if den * max(den, q) < 1 << 63 else object
    u = _phase_numerators(nums, den, np.arange(q // step)).astype(dtype)
    g = np.gcd(u, den)
    nn, dd = u // g, den // g
    ns = 1 + step * np.arange(q // step, dtype=np.int64 if q < 1 << 63 else object)
    return ns, nn, dd


# Entries (rows x points) of one block of the identity check: 1 MiB an int64 array
_CHECK_BLOCK = 1 << 17


def _check_multipliers(mod, d: int, rows: np.ndarray, ms) -> None:
    """Postnikov's identity at every x in [0, q/(tau*core)) for the character
    of every row of ``rows`` and its multiplier in ``ms``: ValueError at the
    first x where it fails, and past 2^22 points.

    Block by block of rows, ``_numerator_rows`` gives chi(1 + tau*core*x) =
    e(A/L) over L = lambda(q) at every x, and the identity reads
    ((m mod lcm(dd)) nn mod dd) L = A dd, in one array pass.  Bounds: with
    den the common denominator of ``_check_grid``, A < L < q and dd | den,
    so m mod lcm(dd) < den and every product stays below den max(den, q):
    int64 on the grid's int64.
    """
    if not len(rows):
        return
    count = mod.q // (mod.tau * mod.core)
    if count > (1 << 22):
        raise ValueError(
            f"exhaustive verification over {count} points exceeds the work cap")
    ns, nn, dd = _check_grid(mod.q, d)
    L = _exponent(mod)
    lcm_dd = math.lcm(*np.unique(dd).tolist())
    block = max(1, _CHECK_BLOCK // count)
    for lo in range(0, len(rows), block):
        A = _numerator_rows(mod, rows[lo:lo + block], ns).astype(nn.dtype, copy=False)
        m = np.array([x % lcm_dd for x in ms[lo:lo + block]], dtype=nn.dtype)
        ok = m[:, None] * nn % dd * L == A * dd
        if not ok.all():
            raise ValueError(f"verification failed at x = {np.argwhere(~ok)[0, 1]} (implementation fault)")


def shifted_poly(chi: DirichletCharacter, n: int, s: int, d: int) -> RealPolynomial:
    """The polynomial f_n(x) = sum_{r=1}^{d} (-1)^(r-1) m core^{rs} nbar^r x^r / (q r),
    m = ``find_postnikov_m(chi, minimal_postnikov_degree(q))`` and nbar the
    inverse of n mod q: exact coefficients, constant term 0.

    These are the exact coefficients through which chi acts on the shifted
    progression 1 + core^s * nbar * x; their denominators carry only primes
    dividing q and obey the valuation envelope
    max(0, v_p(q)-rs) <= v_p(b_r) <= max(0, v_p(q)-rs+L).
    """
    q = chi.q
    if s < 2:
        raise ValueError("shift exponent s must be >= 2")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    m = find_postnikov_m(chi, minimal_postnikov_degree(q))
    step = chi.modulus.core**s * pow(n, -1, q)
    coefficients = [Fraction((-1) ** (r - 1) * m * step**r, q * r) for r in range(1, d + 1)]
    return RealPolynomial.make([0, *coefficients])


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def _log_modulus(q) -> float:
    """math.log q for an int q >= 1 or a FactoredModulus, without factoring q."""
    n = int(q)
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return math.log(n)


def _rho(q, N) -> float:
    lq = _log_modulus(q)
    if int(q) < 2 or N < 2:
        raise ValueError("need q >= 2 and N >= 2")
    return lq / math.log(N)


def main_bound_log(q, N: int, xi0: float) -> float:
    """log of N^(1 - xi0/rho^2) where N^rho = q."""
    rho = _rho(q, N)
    return (1.0 - xi0 / rho**2) * math.log(N)


def iwaniec_bound_log(q, N: int, a: float, xi0: float) -> float:
    """log of exp(a rho (1+log rho)^2) * N^(1 - xi0/(rho^2 log rho)); rho > 1."""
    rho = _rho(q, N)
    if rho <= 1.0:
        raise ValueError(f"rho = {rho} <= 1: log rho <= 0")
    lr = math.log(rho)
    return a * rho * (1.0 + lr) ** 2 + (1.0 - xi0 / (rho**2 * lr)) * math.log(N)


def nontriviality_threshold_main(q, xi0: float) -> float:
    """log N at which N^(1-xi0/rho^2) first drops to N/2: ((log 2)(log q)^2/xi0)^(1/3).

    Closed form: the savings requirement xi0 * (log N)^3 / (log q)^2 = log 2.
    """
    lq = _log_modulus(q)
    return (math.log(2.0) * lq * lq / xi0) ** (1.0 / 3.0)


_IWANIEC_GRID, _IWANIEC_BISECTIONS = 4096, 200  # grid steps, then bisections


def nontriviality_threshold_iwaniec(q, a: float, xi0: float) -> float:
    """Least log N in (0, log q) where the older bound drops to N/2.

    The first sign change of h(L) = a rho (1+log rho)^2 - xi0 L/(rho^2 log rho)
    + log 2, rho = log q / L, on the grid L_j = c j/4096, j = 1..4096,
    c = (1 - 1e-9) log q (so rho > 1), then up to 200 bisections; the result
    is bit for bit that of the scalar scan of h over j = 1, 2, ...

    For a >= 0 and xi0 > 0, h falls strictly in L: t1 = a rho (1+log rho)^2
    cannot rise as L grows and t2 = xi0 L^3/((log q)^2 log rho) rises
    strictly.  Rounding cannot reorder the signs on the grid: a float h <= 0
    needs t2 >= t1 + log 2 less a few ulps of S = |t1| + |t2| + log 2, about
    2 t2, while one grid step raises t2 by a factor of at least
    (1 + 1/4096)^3, about 7e-4 t2.  So the signs run + ... + then - ... -
    (a NaN counts as +, as in the scan), and bisecting the grid index finds
    the scan's first j with h <= 0 in 13 evaluations.  xi0 <= 0 (or NaN)
    leaves h > 0 (or NaN) everywhere: never nontrivial.  A negative or NaN a
    is refused, as h need not fall there.

    Bisection keeps h(hi) <= 0 and not h(lo) <= 0, so once mid = (lo + hi)/2
    rounds to lo or to hi, no further step changes lo or hi: stopping there
    returns the hi of the 200 steps.
    """
    lq = _log_modulus(q)
    if not a >= 0.0:
        raise ValueError(f"need a >= 0, got a = {a}")

    def h(L: float) -> float:
        rho = lq / L
        lr = math.log(rho)
        return a * rho * (1.0 + lr) ** 2 - xi0 * L / (rho**2 * lr) + math.log(2.0)

    hi_cap = lq * (1.0 - 1e-9)

    def grid(j: int) -> float:
        return hi_cap * j / _IWANIEC_GRID

    if not h(grid(_IWANIEC_GRID)) <= 0.0:
        raise ValueError("bound never nontrivial on (0, log q)")
    lo, hi = 0, _IWANIEC_GRID  # not h(L_lo) <= 0 (L_0 = 0 is not evaluated), h(L_hi) <= 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if h(grid(mid)) <= 0.0:
            hi = mid
        else:
            lo = mid
    if hi == 1:
        return grid(1)
    lo, hi = grid(hi - 1), grid(hi)
    for _ in range(_IWANIEC_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi
