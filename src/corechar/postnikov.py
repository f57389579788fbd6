"""Truncated-logarithm representation of characters and the bound shapes.

The central identity here represents a primitive character on the
principal congruence subgroup: chi(1 + tau*core*x) = e(f(x)) with
f(x) = m/q * F_d(tau*core*x), where F_d is the degree-d truncation of
log(1+x) and m is an integer unit mod q that is divisible by every
r in [1, d] coprime to q.  One multiplier search serves any set of
primitive characters, given as exponent rows (``postnikov_multipliers``;
``find_postnikov_m`` is its one-row call): it solves the exact angle
congruences of every row at once, through a CRT whose moduli all rows
share, and verifies every row exhaustively over a full set of subgroup
representatives before returning, all as array passes over blocks of rows.
``shifted_poly`` gives the identity on a shifted progression as a
``RealPolynomial`` f_n with exact coefficients.

The module also evaluates the two competing character-sum bound shapes
(the rho^{-2}-savings bound and the older rho^{-2}/log-rho one) and their
nontriviality thresholds, the older one's by bisection over its grid, as
the older bound's h falls in log N: bit for bit the scalar scan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import as_modulus
from .characters import DirichletCharacter, _columns, _numerator_rows, _primitive_rows, character_rows
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
def _postnikov_grid(q: int, d: int):
    """Per-(q, d) phase data for the representation identity.

    For x in [0, q/(tau*core)), u_x = F_d(tau*core*x)/q mod 1 has common
    denominator den.  Returns read-only arrays (nn, dd) with u_x = nn[x]/dd[x]
    in lowest terms (0/1 where u_x = 0, as at x = 0), and the index of the
    first x of each distinct dd.
    """
    mod = as_modulus(q)
    step = mod.tau * mod.core
    nums, den = RealPolynomial.make(
        [0] + [c * step**r / q for r, c in enumerate(fd_coefficients(d), start=1)]).angle_data()
    # the multiplier search checks (m mod lcm(dd))*nn mod dd * L == A*dd, where
    # (m mod lcm(dd))*nn < den^2 and both sides are below dd*L < den*q
    # (A < L < q): int64 is exact while den*max(den, q) < 2^63
    dtype = np.int64 if den * max(den, q) < 1 << 63 else object
    u = _phase_numerators(nums, den, np.arange(q // step)).astype(dtype)
    g = np.gcd(u, den)
    nn, dd = u // g, den // g
    nn.flags.writeable = dd.flags.writeable = False
    return nn, dd, np.unique(dd, return_index=True)[1]


def _divisibility_modulus(q: int, d: int) -> int:
    """lcm of the r in [1, d] coprime to q (the Lemma-1 divisibility on m)."""
    out = 1
    for r in range(2, d + 1):
        if math.gcd(r, q) == 1:
            out = math.lcm(out, r)
    return out


class _SearchPlan(NamedTuple):
    """What the multiplier search reads per (q, d), besides the grid."""

    ns: np.ndarray  # the points 1 + tau*core*x, below q
    L: int  # lcm of the generator orders
    xs: np.ndarray  # per congruence: the x it is read at, L/g, (dd/g) nn^-1 mod dd and dd
    cuts: np.ndarray
    coefs: np.ndarray
    moduli: np.ndarray
    cols: list  # per prime power of M: the congruence whose modulus it divides, and C_p
    idem: np.ndarray
    M: int
    lcm_dd: int


@lru_cache(maxsize=32)
def _search_plan(q: int, d: int) -> _SearchPlan:
    """The congruences on the multiplier m that every character shares, per (q, d).

    At the first x of each distinct dd the identity reads m nn = A dd/L
    (mod dd).  With g = gcd(L, dd) it is solvable exactly when L/g divides
    A, and then m = (A g/L) (dd/g) nn^-1 = r (mod dd).  The last
    congruence, m = 0 mod div (``_divisibility_modulus``), is read the same
    way at x = 0, where A = 0, with L/g = 1.  Only the residues r differ
    from character to character.  Let M be the lcm of the moduli and p^e
    each prime power exactly dividing M.  A solution has m = r mod p^e for
    a modulus that p^e divides, so the least one is sum_p r C_p mod M,
    C_p = 1 mod p^e and 0 mod M/p^e (r C_p mod M depends on r mod p^e
    only), which the caller checks against every congruence.  The primes of
    M are those of q and those up to d, as dd divides q lcm(1..d).
    """
    mod = as_modulus(q)
    nn, dd, first = _postnikov_grid(q, d)
    dens = dd[first].tolist()
    moduli = dens + [_divisibility_modulus(q, d)]
    M = math.lcm(*moduli)
    L = math.lcm(*_columns(mod)[0].tolist())
    cols, idem, rest = [], [], M
    # ascending, so a composite finds its primes already divided out
    for p in sorted({p for p, _ in mod.factors}.union(range(2, d + 1))):
        pe = 1
        while rest % p == 0:
            rest, pe = rest // p, pe * p
        if pe > 1:
            cols.append(next(i for i, m in enumerate(moduli) if m % pe == 0))
            idem.append(M // pe * pow(M // pe, -1, pe))
    # the terms r C_p < modulus M and, in the caller's gcd step, m < 65 M
    bound = M * (sum(moduli[c] for c in cols) + 65)
    step = mod.tau * mod.core
    ns = 1 + step * np.arange(q // step, dtype=np.int64 if q < 1 << 63 else object)
    ns.flags.writeable = False
    gs = [math.gcd(L, m) for m in dens]
    return _SearchPlan(
        ns=ns, L=L, xs=np.append(first, 0), cuts=np.array([L // g for g in gs] + [1], dtype=nn.dtype),
        coefs=np.array([m // g * pow(n, -1, m) % m for m, g, n in zip(dens, gs, nn[first].tolist())] + [0],
                       dtype=nn.dtype),
        moduli=np.array(moduli, dtype=nn.dtype), cols=cols,
        idem=np.array(idem, dtype=nn.dtype if bound < 1 << 63 else object), M=M,
        lcm_dd=math.lcm(*dens))


# Entries (rows x points) of one block of the multiplier search: 1 MiB an int64 array
_SEARCH_BLOCK = 1 << 17


def postnikov_multipliers(q, d: int, rows=None) -> list[int]:
    """``find_postnikov_m`` of every primitive character mod q, in
    ``enumerate_characters(q, primitive_only=True)`` order, or of the
    character of every row of ``rows``, exponent rows mod q as
    ``character_rows`` gives them: one search for all of them."""
    mod = as_modulus(q)
    if rows is None:
        E, _, primitive = character_rows(mod)
        rows = E[primitive]
    if not len(rows):
        return []
    return _multipliers(mod, d, rows, _primitive_rows(mod, rows).all())


def find_postnikov_m(chi: DirichletCharacter, d: int) -> int:
    """Least positive m with chi(1+tau*core*x) = e(m*F_d(tau*core*x)/q) for all x:
    the one-row call of the search of ``postnikov_multipliers``.

    m is an integer unit mod q divisible by every r in [1, d] coprime to q,
    verified exhaustively at every x.  Raises ValueError when no multiplier
    exists, which signals a non-primitive input (or an implementation fault).
    """
    return _multipliers(chi.modulus, d, chi.row, chi.is_primitive)[0]


def _multipliers(mod, d: int, rows: np.ndarray, primitive: bool) -> list[int]:
    """The least multiplier of the character of every row of ``rows``, all
    primitive when ``primitive`` holds (else ValueError).

    Block by block of rows, ``_numerator_rows`` gives chi(1 + tau*core*x) =
    e(A/L) over L = lcm of the generator orders at every x.  The residues of
    ``_search_plan`` at the first x of each distinct dd (every x with that
    dd pins the same residue when m exists), its CRT, the steps of M up to
    gcd(m, q) = 1, and the exact check of the identity at every (row, x)
    are array passes.

    Bounds: with den the common denominator of u_x, A < L < q, dd | den,
    div | den (the coprime parts of F_d's 1/r) and m mod lcm(dd) < den, so
    A dd, (m mod lcm(dd)) nn and the residues times their coefficients stay
    below den max(den, q): int64 on the grid's int64 (see
    ``_postnikov_grid``).  M passes 2^63 at large gamma: the CRT's terms
    r C_p stay below modulus times M and the steps of M below 65 M, so the
    CRT is int64 where ``_search_plan`` finds their sum below 2^63, and
    Python ints otherwise.

    The identity pins m only modulo the lcm of the angle denominators, and
    that generally exceeds q, so the least valid m can too (already for
    q = 25 some primitive characters force m = 36).
    """
    q = mod.q
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if any(d < 2 * e for _, e in mod.factors):
        raise ValueError(f"need q^2 | core^d, i.e. d >= {2 * mod.gamma_max}")
    if not primitive:
        raise ValueError("character is not primitive; no coprime multiplier exists")
    count = q // (mod.tau * mod.core)
    if count > (1 << 22):
        raise ValueError(
            f"exhaustive verification over {count} points exceeds the work cap")
    nn, dd, _ = _postnikov_grid(q, d)
    plan = _search_plan(q, d)
    block, out = max(1, _SEARCH_BLOCK // count), []
    for lo in range(0, len(rows), block):
        A = _numerator_rows(mod, rows[lo:lo + block], plan.L, plan.ns).astype(nn.dtype, copy=False)
        a = A[:, plan.xs]
        if (a % plan.cuts).any():
            raise ValueError("angle congruence unsolvable; character not primitive?")
        r = a // plan.cuts * plan.coefs % plan.moduli
        m = r[:, plan.cols].astype(plan.idem.dtype, copy=False) @ plan.idem % plan.M
        if (m[:, None] % plan.moduli != r).any():
            raise ValueError("inconsistent multiplier congruences: inconsistent congruence system")
        m = np.where(m, m, plan.M)
        for _ in range(64):
            g = np.gcd(m, q)
            if g.max() == 1:
                break
            m[g != 1] += plan.M
        else:
            raise ValueError("no multiplier coprime to q in the solution class")
        # m nn = (m mod lcm(dd)) nn (mod dd)
        ok = (m % plan.lcm_dd).astype(nn.dtype, copy=False)[:, None] * nn % dd * plan.L == A * dd
        if not ok.all():
            raise ValueError(f"verification failed at x = {np.argwhere(~ok)[0, 1]} (implementation fault)")
        out += m.tolist()
    return out


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
