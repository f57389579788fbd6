"""Truncated-logarithm representation of characters and the bound ledger.

The central identity here represents a primitive character on the
principal congruence subgroup: chi(1 + tau*core*x) = e(f(x)) with
f(x) = m/q * F_d(tau*core*x), where F_d is the degree-d truncation of
log(1+x) and m is an integer unit mod q that is divisible by every
r in [1, d] coprime to q.  The multiplier search is done by solving the
exact angle congruences and is always verified exhaustively over a full
set of subgroup representatives before returning.

The module also evaluates the two competing character-sum bound shapes
(the rho^{-2}-savings bound and the older rho^{-2}/log-rho one) and their
nontriviality thresholds, plus the parameter ledger (rho, mu, s, d, L)
that drives the double-sum machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import as_modulus, crt_combine, exp_or_inf
from .characters import DirichletCharacter
from .expsums import RealPolynomial, _phase_numerators

__all__ = [
    "fd_coefficients",
    "fd_eval",
    "minimal_postnikov_degree",
    "find_postnikov_m",
    "shifted_poly",
    "TruncatedLogPolynomial",
    "BoundParameters",
    "bound_parameters",
    "main_bound",
    "iwaniec_bound",
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
    """Per-(q, d) congruence data for the representation identity.

    For each x in [0, q/(tau*core)) let u_x = F_d(tau*core*x)/q mod 1, the
    phase of x under the coefficients (-1)^(r-1) (tau*core)^r/(r q).  Returns
    a list of (n, D, n^{-1} mod D) where u_x = n/D in lowest terms; u_x = 0
    (as at x = 0) gives the trivial entry (0, 1, 0).
    """
    mod = as_modulus(q)
    step = mod.tau * mod.core
    nums, den = RealPolynomial.make(
        [0] + [c * step**r / q for r, c in enumerate(fd_coefficients(d), start=1)]).angle_data()
    u = _phase_numerators(nums, den, np.arange(q // step))
    g = np.gcd(u, den)
    return [(nn, dd, pow(nn, -1, dd) if dd > 1 else 0)
            for nn, dd in zip((u // g).tolist(), (den // g).tolist())]


def _divisibility_modulus(q: int, d: int) -> int:
    """lcm of the r in [1, d] coprime to q (the Lemma-1 divisibility on m)."""
    out = 1
    for r in range(2, d + 1):
        if math.gcd(r, q) == 1:
            out = math.lcm(out, r)
    return out


def find_postnikov_m(chi: DirichletCharacter, d: int) -> int:
    """Least positive m with chi(1+tau*core*x) = e(m*F_d(tau*core*x)/q) for all x.

    The candidate is found by solving the exact angle congruence at every
    x in [0, q/(tau*core)) and CRT-combining, together with the structural
    divisibility r | m for r in [1, d] coprime to q; gcd(m, q) = 1 is then
    enforced.  Before returning, the identity is re-verified exhaustively
    at every x in exact integer arithmetic.

    The identity pins m only modulo the lcm L of the angle denominators,
    and L generally exceeds q, so the least valid m can too (already for
    q = 25 some primitive characters force m = 36).

    Raises ValueError when no multiplier exists, which signals a
    non-primitive input (or an implementation fault).
    """
    q = chi.q
    mod = chi.modulus
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if any(d < 2 * e for _, e in mod.factors):
        raise ValueError(f"need q^2 | core^d, i.e. d >= {2 * mod.gamma_max}")
    if not chi.is_primitive:
        raise ValueError("character is not primitive; no coprime multiplier exists")

    step = mod.tau * mod.core
    count = q // step
    if count > (1 << 22):
        raise ValueError(
            f"exhaustive verification over {count} points exceeds the work cap")
    grid = _postnikov_grid(q, d)
    # chi(1 + step*x) = e(a_x/order); with u_x = nn/dd the identity at x
    # reads m*nn = a_x*dd/order (mod dd), solvable exactly when order | a_x*dd,
    # that is when the reduced denominator of a_x/order divides dd
    order = chi.order
    xs = np.arange(count, dtype=np.int64 if q < 1 << 63 else object)  # 1 + step*xs < q
    numerators = chi.angle_numerators(1 + step * xs).tolist()

    congruences = [(0, _divisibility_modulus(q, d))]
    for x in range(1, count):
        nn, dd, inv = grid[x]
        target, rem = divmod(numerators[x] * dd, order)
        if rem:
            raise ValueError("angle congruence unsolvable; character not primitive?")
        congruences.append((inv * target % dd, dd))
    try:
        m0, modulus = crt_combine(congruences)
    except ValueError as exc:
        raise ValueError(f"inconsistent multiplier congruences: {exc}") from exc

    m = m0 if m0 > 0 else modulus
    for _ in range(64):
        if math.gcd(m, q) == 1:
            break
        m += modulus
    else:
        raise ValueError("no multiplier coprime to q in the solution class")

    for x in range(count):
        nn, dd, _ = grid[x]
        if (m * nn) % dd * order != numerators[x] * dd:
            raise ValueError(f"verification failed at x = {x} (implementation fault)")
    return m


@dataclass(frozen=True)
class TruncatedLogPolynomial:
    """A scaled truncation of log(1+x) with exact reduced coefficients.

    coefficients[r-1] is the coefficient of x^r.  When built by
    ``shifted_poly`` the metadata (m, s, nbar) records the construction
    f_n(x) = m/q * F_d(core^s * nbar * x).
    """

    degree: int
    coefficients: tuple[Fraction, ...]
    q: Optional[int] = None
    m: Optional[int] = None
    s: Optional[int] = None
    nbar: Optional[int] = None

    def coefficient(self, r: int) -> Fraction:
        return self.coefficients[r - 1]


def shifted_poly(chi: DirichletCharacter, n: int, s: int, d: int) -> TruncatedLogPolynomial:
    """The polynomial f_n with coefficients (-1)^(r-1) m core^{rs} nbar^r / (q r).

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
    nbar = pow(n, -1, q)
    corepow = chi.modulus.core**s
    coeffs = tuple(
        Fraction((-1) ** (r - 1) * m * corepow**r * nbar**r, q * r)
        for r in range(1, d + 1)
    )
    return TruncatedLogPolynomial(degree=d, coefficients=coeffs, q=q, m=m, s=s, nbar=nbar)


# ---------------------------------------------------------------------------
# The parameter ledger and bound evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParameters:
    """The working constants behind the double-sum bound for a given (q, N).

    rho solves N^rho = q, mu solves q = core^(mu*gamma), s is the shift
    exponent floor(eps*gamma/rho), d0 = 2*gamma is the representation
    degree, script_l = floor(1.5*log(2*gamma)) the valuation slack, and
    d = floor((gamma + script_l)/s) the effective Weyl degree (0 when the
    desk-scale inputs drive s to 0).  ``diagnostics`` lists every
    asymptotic precondition the inputs violate; formulas are still
    evaluated exactly as written.
    """

    q: int
    n_length: int
    epsilon: Fraction
    gamma0: int
    xi0: float
    rho: float
    mu: float
    s: int
    d0: int
    d: int
    script_l: int
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def bound_parameters(q, N: int, *, epsilon: Fraction = Fraction(1, 200),
                     gamma0: int = 2, xi0: float = 1e-4) -> BoundParameters:
    """Assemble the parameter ledger, reporting violated preconditions."""
    mod = as_modulus(q)
    if mod.q <= 1 or N <= 1:
        raise ValueError("need q >= 2 and N >= 2")
    gamma = mod.gamma_max
    epsilon = Fraction(epsilon)
    log_q = math.log(mod.q)
    log_n = math.log(N)
    rho = log_q / log_n
    mu = log_q / (gamma * math.log(mod.core))
    # floor with a tiny snap: eps*gamma/rho is often exactly integral for
    # power-of-a-common-base inputs, where float noise must not drop s by 1
    shift_target = float(epsilon) * gamma / rho
    if abs(shift_target - round(shift_target)) < 1e-9:
        shift_target = float(round(shift_target))
    s = math.floor(shift_target)
    d0 = 2 * gamma
    script_l = math.floor(1.5 * math.log(d0))
    d = (gamma + script_l) // s if s >= 1 else 0

    diags: list[str] = []
    if 10 * mod.gamma_min < 7 * gamma:
        diags.append("core condition violated: min valuation < 0.7 * gamma")
    if gamma < gamma0:
        diags.append(f"gamma = {gamma} < gamma0 = {gamma0}")
    if gamma0 < math.e**200:
        diags.append("gamma0 below the asymptotic regime e^200 (desk scale)")
    if epsilon > Fraction(1, 200):
        diags.append("epsilon > 1/200")
    if float(epsilon) * gamma0 < 2:
        diags.append("epsilon * gamma0 < 2")
    if float(epsilon) * gamma / rho < 2:
        diags.append("epsilon * gamma / rho < 2: the shift bracket fails")
    if s == 0:
        diags.append("s = 0: ledger degenerate at this scale")
    if d < 200:
        diags.append(f"d = {d} < 200: Weyl degree below the Ford regime")
    if not 0.7 <= mu <= 1.0 + 1e-12:
        diags.append(f"mu = {mu:.6f} outside [0.7, 1]")
    if log_n < gamma0 * math.log(mod.core):
        diags.append("N < core^gamma0")

    return BoundParameters(
        q=mod.q, n_length=N, epsilon=epsilon, gamma0=gamma0, xi0=xi0,
        rho=rho, mu=mu, s=s, d0=d0, d=d, script_l=script_l,
        diagnostics=tuple(diags),
    )


def _rho(q, N) -> float:
    mod = as_modulus(q)
    if mod.q < 2 or N < 2:
        raise ValueError("need q >= 2 and N >= 2")
    return math.log(mod.q) / math.log(N)


def main_bound_log(q, N: int, xi0: float) -> float:
    """log of N^(1 - xi0/rho^2) where N^rho = q."""
    rho = _rho(q, N)
    return (1.0 - xi0 / rho**2) * math.log(N)


def main_bound(q, N: int, xi0: float) -> float:
    return exp_or_inf(main_bound_log(q, N, xi0))


def iwaniec_bound_log(q, N: int, a: float, xi0: float) -> float:
    """log of exp(a rho (1+log rho)^2) * N^(1 - xi0/(rho^2 log rho)); rho > 1."""
    rho = _rho(q, N)
    if rho <= 1.0:
        raise ValueError(f"rho = {rho} <= 1: log rho <= 0")
    lr = math.log(rho)
    return a * rho * (1.0 + lr) ** 2 + (1.0 - xi0 / (rho**2 * lr)) * math.log(N)


def iwaniec_bound(q, N: int, a: float, xi0: float) -> float:
    return exp_or_inf(iwaniec_bound_log(q, N, a, xi0))


def nontriviality_threshold_main(q, xi0: float) -> float:
    """log N at which N^(1-xi0/rho^2) first drops to N/2: ((log 2)(log q)^2/xi0)^(1/3).

    Closed form: the savings requirement xi0 * (log N)^3 / (log q)^2 = log 2.
    """
    lq = math.log(as_modulus(q).q)
    return (math.log(2.0) * lq * lq / xi0) ** (1.0 / 3.0)


_IWANIEC_GRID, _IWANIEC_BISECTIONS = 4096, 200  # linear scan steps, then bisections


def nontriviality_threshold_iwaniec(q, a: float, xi0: float) -> float:
    """Least log N in (0, log q) where the older bound drops to N/2.

    Solved by a deterministic linear scan for the first sign change of
    h(L) = a rho (1+log rho)^2 - xi0 L/(rho^2 log rho) + log 2, rho = log q / L,
    followed by bisection; requires rho > 1 throughout, so L < log q.
    """
    lq = math.log(as_modulus(q).q)

    def h(L: float) -> float:
        rho = lq / L
        lr = math.log(rho)
        return a * rho * (1.0 + lr) ** 2 - xi0 * L / (rho**2 * lr) + math.log(2.0)

    hi_cap = lq * (1.0 - 1e-9)
    prev = hi_cap * 1.0 / _IWANIEC_GRID
    if h(prev) <= 0.0:
        return prev
    found = None
    for j in range(2, _IWANIEC_GRID + 1):
        cur = hi_cap * j / _IWANIEC_GRID
        if h(cur) <= 0.0:
            found = (prev, cur)
            break
        prev = cur
    if found is None:
        raise ValueError("bound never nontrivial on (0, log q)")
    lo, hi = found
    for _ in range(_IWANIEC_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi
