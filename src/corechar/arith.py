"""Exact integer, modular, and unit-group arithmetic.

Everything in here is exact: moduli are arbitrary-precision integers,
group-theoretic data (generators, orders, discrete logarithms) is computed
over the actual unit groups.  Only the bulk discrete-log tables are numpy
arrays.  ``exp_or_inf`` is the one overflow-safe exp, for bounds kept in
log space, and ``pow_or_inf`` the one overflow-safe power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FactoredModulus",
    "UnitGroupBasis",
    "factor",
    "core",
    "valuation",
    "unit_group_basis",
    "discrete_log",
    "crt_combine",
]

# Discrete-log tables are built for prime powers up to this size.
DLOG_TABLE_CAP = 1 << 22

# Trial divisors step 2 -> 3 -> 5 -> 7, then take the mod-30 wheel from 7 on,
# which skips multiples of 2, 3 and 5 (entries 3..10, cycled).
_STEPS = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)


def factor(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division with a 2,3,5 wheel.

    Returns [(p, v_p(n)), ...] with primes ascending; n = 1 gives [].
    Moduli in scope have small cores, so trial division is enough.
    """
    if n < 1:
        raise ValueError(f"factor() needs n >= 1, got {n}")
    return trial_division(n, n)[0]


def trial_division(n: int, limit: int) -> tuple[list[tuple[int, int]], int]:
    """The primes of n >= 1 found by trial division with a 2,3,5 wheel up to
    ``limit``, as [(p, v_p(n)), ...] ascending, and the part of n they leave:
    1 when they are all of n's primes, else a number with no prime factor
    up to ``limit``."""
    out: list[tuple[int, int]] = []
    p, i = 2, 0
    while p * p <= n:
        if p > limit:
            return out, n
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += _STEPS[i]
        i = i + 1 if i < 10 else 3
    if n > 1:
        out.append((n, 1))
    return out, 1


def exp_or_inf(x: float) -> float:
    """exp(x), or inf where it overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def pow_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, or inf where it overflows a double."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def valuation(n: int, p: int) -> int:
    """p-adic valuation v_p(n); errors on n = 0 (valuation is infinite)."""
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class FactoredModulus:
    """A modulus together with its factorization and core data.

    ``core`` is the product of the distinct primes dividing q,
    ``gamma_max`` the largest prime valuation, and ``tau`` is 2 when
    4 | q and 1 otherwise.
    """

    q: int
    factors: tuple[tuple[int, int], ...]
    core: int
    gamma_max: int
    tau: int

    @classmethod
    def from_int(cls, q: int) -> "FactoredModulus":
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        facs = tuple(factor(q))
        cr = 1
        for p, _ in facs:
            cr *= p
        return cls(
            q=q,
            factors=facs,
            core=cr,
            gamma_max=max((e for _, e in facs), default=0),
            tau=2 if q % 4 == 0 else 1,
        )

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.q:
            raise ValueError("factors do not reconstruct q")

    @property
    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** (e - 1) * (p - 1)
        return out

    def __int__(self) -> int:
        return self.q


def as_modulus(q) -> FactoredModulus:
    """Coerce an int or FactoredModulus to FactoredModulus."""
    if isinstance(q, FactoredModulus):
        return q
    return FactoredModulus.from_int(int(q))


def core(q) -> int:
    """The core (kernel) of q: the product of its distinct prime divisors."""
    return as_modulus(q).core


# ---------------------------------------------------------------------------
# Unit group bases and discrete logarithms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitGroupBasis:
    """Independent generators of (Z/p^gamma)^x with their orders.

    Odd p: a single generator (the least primitive root mod p whose order
    mod p^2 is p(p-1), so it generates for every gamma).  p = 2: the
    classical {-1, 5} basis for gamma >= 3, {3} for gamma = 2, and the
    trivial group for gamma = 1.
    """

    p: int
    gamma: int
    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    # prime factorization of each order, for Pohlig-Hellman
    _order_factors: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, default=())


@lru_cache(maxsize=None)
def _least_lifting_primitive_root(p: int) -> int:
    """Least primitive root g mod p with g^(p-1) != 1 mod p^2.

    The lift condition makes g a primitive root modulo p^gamma for all
    gamma, which fixes one canonical basis for the whole tower.
    """
    phi = p - 1
    prime_divs = [r for r, _ in factor(phi)]
    p2 = p * p
    for g in range(2, p):
        if all(pow(g, phi // r, p) != 1 for r in prime_divs):
            if pow(g, phi, p2) != 1:
                return g
    raise ArithmeticError(f"no lifting primitive root below {p}")  # unreachable for p >= 3


@lru_cache(maxsize=None)
def unit_group_basis(p: int, gamma: int) -> UnitGroupBasis:
    """Canonical basis of (Z/p^gamma)^x."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    modulus = p**gamma
    if p == 2:
        if gamma == 1:
            gens: tuple[int, ...] = ()
            orders: tuple[int, ...] = ()
        elif gamma == 2:
            gens, orders = (3,), (2,)
        else:
            gens, orders = (modulus - 1, 5), (2, 2 ** (gamma - 2))
    else:
        g = _least_lifting_primitive_root(p)
        gens, orders = (g % modulus,), (p ** (gamma - 1) * (p - 1),)
    ofs = tuple(tuple(factor(o)) for o in orders)
    return UnitGroupBasis(p=p, gamma=gamma, modulus=modulus,
                          generators=gens, orders=orders, _order_factors=ofs)


def _bsgs(g: int, h: int, modulus: int, order: int) -> int:
    """Baby-step/giant-step: least x in [0, order) with g^x = h mod modulus."""
    m = math.isqrt(order - 1) + 1
    table: dict[int, int] = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = e * g % modulus
    # giant stride g^{-m}
    stride = pow(g, -m, modulus)
    y = h % modulus
    for i in range(m + 1):
        j = table.get(y)
        if j is not None:
            x = i * m + j
            if x < order:
                return x
        y = y * stride % modulus
    raise ValueError(f"{h} is not in the subgroup generated by {g} mod {modulus}")


def _pohlig_hellman(g: int, h: int, modulus: int, order: int,
                    order_factors: tuple[tuple[int, int], ...]) -> int:
    """Discrete log in a cyclic group of known factored order.

    Per prime power l^e dividing the order, digits are recovered one at a
    time with a BSGS of size sqrt(l); the results are CRT-combined.
    """
    residues: list[tuple[int, int]] = []
    for ell, e in order_factors:
        le = ell**e
        g_i = pow(g, order // le, modulus)
        h_i = pow(h, order // le, modulus)
        x_i = 0
        gamma_base = pow(g_i, le // ell, modulus)  # order ell
        for k in range(e):
            exp = le // (ell ** (k + 1))
            target = pow(h_i * pow(g_i, -x_i, modulus) % modulus, exp, modulus)
            d = _bsgs(gamma_base, target, modulus, ell)
            x_i += d * ell**k
        residues.append((x_i, le))
    x, _ = crt_combine(residues)
    return x


def crt_combine(congruences) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) simultaneously; moduli need not be coprime.

    Returns (x, lcm of moduli) with 0 <= x < lcm; raises ValueError when
    the system is inconsistent.
    """
    x, m = 0, 1
    for r, mod in congruences:
        if mod == 1:
            continue
        g = math.gcd(m, mod)
        if (r - x) % g != 0:
            raise ValueError("inconsistent congruence system")
        lcm = m // g * mod
        t = ((r - x) // g * pow(m // g, -1, mod // g)) % (mod // g)
        x = (x + m * t) % lcm
        m = lcm
    return x, m


def discrete_log(x: int, basis: UnitGroupBasis) -> list[int]:
    """Exponent vector of x against ``basis``: prod g_i^e_i = x mod p^gamma."""
    modulus = basis.modulus
    x %= modulus
    if math.gcd(x, modulus) != 1:
        raise ValueError(f"gcd({x}, {modulus}) != 1: not a unit")
    if not basis.generators:
        return []
    if basis.p == 2 and len(basis.generators) == 2:
        # split off the {-1} component: x = (-1)^e1 * 5^e2 with e1 set by x mod 4
        e1 = 0 if x % 4 == 1 else 1
        y = x * pow(modulus - 1, e1, modulus) % modulus
        e2 = _pohlig_hellman(5, y, modulus, basis.orders[1], basis._order_factors[1])
        return [e1, e2]
    e = _pohlig_hellman(basis.generators[0], x, modulus,
                        basis.orders[0], basis._order_factors[0])
    return [e]


@lru_cache(maxsize=64)
def dlog_table(p: int, gamma: int) -> np.ndarray:
    """Exponent vectors of every residue mod p^gamma against its basis.

    Row n is discrete_log(n) for a unit n and all -1 for a non-unit; the
    trivial group (p^gamma = 2) gets one all-zero column so that its
    non-units are marked too.  Built by walking the group once; cached per
    prime power.
    """
    basis = unit_group_basis(p, gamma)
    modulus = basis.modulus
    if modulus > DLOG_TABLE_CAP:
        raise ValueError(f"dlog table for modulus {modulus} exceeds the size cap")
    table = np.full((modulus, max(1, len(basis.generators))), -1, dtype=np.int64)
    g, order = (basis.generators[-1], basis.orders[-1]) if basis.generators else (1, 1)
    powers = [1 % modulus] * order
    for j in range(1, order):
        powers[j] = powers[j - 1] * g % modulus
    js = np.arange(order)
    table[powers, -1] = js
    if len(basis.generators) == 2:  # 2^gamma = {+-1} x <5>: -5^j has vector (1, j)
        table[powers, 0] = 0
        negatives = [modulus - e for e in powers]
        table[negatives, 0] = 1
        table[negatives, 1] = js
    table.flags.writeable = False  # one cached array is shared by every caller
    return table
