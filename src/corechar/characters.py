"""Dirichlet characters with exact integer-angle values.

A character mod q is stored as one exponent vector per prime-power part of
q, taken against the canonical unit-group basis of that prime power.  With
L = chi.order every value is chi(n) = e(A(n)/L) for an integer numerator
0 <= A(n) < L (e(t) = exp(2*pi*i*t)), computed from discrete logs as

    A(n) = sum_j w_j * dlog_j(n mod p^gamma) mod L,  w_j = k_j * L / o_j,

over the basis generators j of order o_j and exponents k_j.
``angle_numerators`` is the one array kernel for A, a dlog table gather per
prime power; ``angle_numerator`` reads a single value, and ``evaluate``
reduces it to a ``RationalAngle``.  ``value_table`` holds A and the complex
values on all residues, in one small cache keyed by the character: equal
characters share a table, and a list of characters pins none.
``root_values`` turns integer angles into complex values, each exactly as
``RationalAngle.to_complex`` does; that conversion happens only at
summation boundaries.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .arith import (
    DLOG_TABLE_CAP,
    FactoredModulus,
    as_modulus,
    discrete_log,
    dlog_table,
    unit_group_basis,
)

__all__ = [
    "RationalAngle",
    "DirichletCharacter",
    "principal_character",
    "quadratic_character",
    "enumerate_characters",
    "crt_restrict",
    "RestrictedCharacter",
]

# Value tables are built for moduli up to this size.
VALUE_TABLE_CAP = 1 << 20


@dataclass(frozen=True, order=True, slots=True)
class RationalAngle:
    """A reduced fraction in [0, 1) representing the root of unity e(n/d)."""

    numerator: int
    denominator: int

    @classmethod
    def make(cls, value) -> "RationalAngle":
        f = Fraction(value) % 1
        return cls(f.numerator, f.denominator)

    @classmethod
    def of(cls, numerator: int, denominator: int) -> "RationalAngle":
        """The angle numerator/denominator mod 1, reduced; integers only."""
        numerator %= denominator
        g = math.gcd(numerator, denominator)
        return cls(numerator // g, denominator // g)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_complex(self) -> complex:
        if self.numerator == 0:
            return complex(1.0, 0.0)
        if 2 * self.numerator == self.denominator:
            return complex(-1.0, 0.0)
        return cmath.exp(2j * math.pi * self.numerator / self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def root_values(numerators, den: int) -> np.ndarray:
    """e(a/den) for every integer a of numerators, each bit for bit
    ``RationalAngle.of(a, den).to_complex()``: cos and sin of (2 pi a)/d on
    the reduced angle a/d, with e(0) and e(1/2) exact.  int64 while
    den < 2^62, Python ints beyond."""
    a = np.asarray(numerators, dtype=np.int64 if den < 1 << 62 else object) % den
    g = np.gcd(a, den)
    a, d = a // g, den // g
    theta = 2 * math.pi * a.astype(np.float64) / d.astype(np.float64)
    zero, half = a == 0, 2 * a == d
    out = np.empty(len(a), dtype=np.complex128)
    out.real = np.where(zero, 1.0, np.where(half, -1.0, np.cos(theta)))
    out.imag = np.where(zero | half, 0.0, np.sin(theta))
    return out


@lru_cache(maxsize=64)
def _roots_of_unity(L: int) -> np.ndarray:
    """e(j/L) for j = 0..L-1."""
    roots = root_values(np.arange(L), L)
    roots.flags.writeable = False
    return roots


def _component_numerator(p: int, gamma: int, weights: tuple[int, ...], n: int) -> int:
    """sum_j w_j * dlog_j(n mod p^gamma) for a unit n, with the discrete logs
    from the table up to the dlog table cap and from Pohlig-Hellman above it."""
    if p**gamma <= DLOG_TABLE_CAP:
        logs = dlog_table(p, gamma)[n % p**gamma].tolist()
    else:
        logs = discrete_log(n, unit_group_basis(p, gamma))
    return sum(w * ell for w, ell in zip(weights, logs))


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q, identified by its exponent vectors.

    ``components[i]`` is the exponent vector of the character against
    ``unit_group_basis(p_i, gamma_i)`` where (p_i, gamma_i) runs over the
    factorization of q.  The exponent vectors are the character's identity
    for serialization and deduplication.
    """

    modulus: FactoredModulus
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.components) != len(self.modulus.factors):
            raise ValueError("one exponent vector per prime power required")
        for (p, g), exps in zip(self.modulus.factors, self.components):
            basis = unit_group_basis(p, g)
            if len(exps) != len(basis.orders):
                raise ValueError(f"component for {p}^{g} has wrong length")
            for k, o in zip(exps, basis.orders):
                if not 0 <= k < o:
                    raise ValueError(f"exponent {k} out of range for order {o}")

    @property
    def q(self) -> int:
        return self.modulus.q

    @cached_property
    def order(self) -> int:
        out = 1
        for (p, g), exps in zip(self.modulus.factors, self.components):
            basis = unit_group_basis(p, g)
            for k, o in zip(exps, basis.orders):
                out = math.lcm(out, o // math.gcd(k, o))
        return out

    @property
    def is_principal(self) -> bool:
        return all(k == 0 for exps in self.components for k in exps)

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _weights(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(p, gamma, (w_j)) per prime-power component, w_j = k_j * L / o_j, L = self.order."""
        L = self.order
        return tuple(
            (p, g, tuple(k * L // o for k, o in zip(exps, unit_group_basis(p, g).orders)))
            for (p, g), exps in zip(self.modulus.factors, self.components)
        )

    def angle_numerator(self, n: int) -> Optional[int]:
        """A(n) in [0, order) with chi(n) = e(A(n)/order); None when gcd(n, q) > 1."""
        n %= self.q
        if math.gcd(n, self.q) != 1:
            return None
        return sum(_component_numerator(p, g, ws, n) for p, g, ws in self._weights) % self.order

    def angle_numerators(self, ns) -> np.ndarray:
        """``angle_numerator`` of every n of the integer array ns (an object
        array past 2^63), -1 where gcd(n, q) > 1: one dlog table gather per
        prime power up to the table cap, ``_component_numerator`` above it."""
        ns = np.asarray(ns)
        L = self.order
        # with h = gcd(k_j, o_j): w_j*dlog_j = ((k_j/h)*dlog_j mod o_j/h) * L/(o_j/h)
        # mod L, where (k_j/h)*dlog_j < o_j^2 <= 2^44 under the table cap; every
        # term and the running sum stay below L: int64 while L < 2^62, else ints
        dtype = np.int64 if L < 1 << 62 else object
        acc = np.zeros(len(ns), dtype=dtype)
        unit = np.ones(len(ns), dtype=bool)
        for (p, g), exps, (_, _, ws) in zip(self.modulus.factors, self.components, self._weights):
            unit &= ns % p != 0
            if p**g <= DLOG_TABLE_CAP:
                logs = dlog_table(p, g)[(ns % p**g).astype(np.int64)]
                for ell, k, o in zip(logs.T, exps, unit_group_basis(p, g).orders):
                    h = math.gcd(k, o)
                    acc = (acc + (ell * (k // h) % (o // h)).astype(dtype) * (L * h // o)) % L
            else:
                terms = [_component_numerator(p, g, ws, n) % L for n in ns[unit].tolist()]
                acc[unit] = (acc[unit] + np.array(terms, dtype=dtype)) % L
        acc[~unit] = -1
        return acc

    def evaluate(self, n: int) -> Optional[RationalAngle]:
        """Exact angle of chi(n), or None when gcd(n, q) > 1 (the value 0)."""
        a = self.angle_numerator(n)
        return None if a is None else RationalAngle.of(a, self.order)

    def __call__(self, n: int) -> complex:
        a = self.evaluate(n)
        return complex(0.0) if a is None else a.to_complex()

    @property
    def value_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, complex values) of chi on all residues 0..q-1, read-only: A[n] is
        ``angle_numerator(n)``, or -1 where gcd(n, q) > 1 and the value is 0.
        Built only for q up to the value table cap, in a cache shared by equal
        characters."""
        return _value_table(self)

    def conjugate(self) -> "DirichletCharacter":
        comps = []
        for (p, g), exps in zip(self.modulus.factors, self.components):
            basis = unit_group_basis(p, g)
            comps.append(tuple((-k) % o for k, o in zip(exps, basis.orders)))
        return DirichletCharacter(self.modulus, tuple(comps))

    # -- conductor ----------------------------------------------------------

    @cached_property
    def conductor(self) -> int:
        """Least q* | q such that chi factors through (Z/q*)^x."""
        cond = 1
        for (p, g), exps in zip(self.modulus.factors, self.components):
            cond *= p ** _component_conductor_exponent(p, g, exps)
        return cond

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "components": [
                {"p": p, "gamma": g, "exponents": list(exps)}
                for (p, g), exps in zip(self.modulus.factors, self.components)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DirichletCharacter":
        q = as_modulus(data["q"])
        by_pp = {(c["p"], c["gamma"]): tuple(c["exponents"]) for c in data["components"]}
        comps = []
        for p, g in q.factors:
            if (p, g) not in by_pp:
                raise ValueError(f"missing component for {p}^{g}")
            comps.append(by_pp[(p, g)])
        return cls(q, tuple(comps))

    def label(self) -> str:
        parts = []
        for (p, g), exps in zip(self.modulus.factors, self.components):
            parts.append(f"{p}^{g}:" + ",".join(map(str, exps)))
        return f"chi[{self.q}|" + ";".join(parts) + "]"


# At VALUE_TABLE_CAP = 2^20 residues one table holds 24 MiB (int64
# numerators and complex128 values), so this cache holds at most 192 MiB.
@lru_cache(maxsize=8)
def _value_table(chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    q = chi.q
    if q > VALUE_TABLE_CAP:
        raise ValueError(f"value table for q = {q} exceeds the size cap")
    numerators = chi.angle_numerators(np.arange(q))
    values = np.where(numerators >= 0, _roots_of_unity(chi.order)[numerators], 0j)
    numerators.flags.writeable = values.flags.writeable = False
    return numerators, values


def _component_conductor_exponent(p: int, gamma: int, exps: tuple[int, ...]) -> int:
    """Exponent of p in the conductor of a prime-power character component.

    Derived from the basis structure: for odd p (cyclic, generator order
    p^(gamma-1)(p-1)) the component is trivial on the units = 1 mod p^beta
    exactly when p^(gamma-beta) | k.  For p = 2 the {-1, 5} basis gives
    conductor 1, 4 or 2^(gamma - v2(e2)).
    """
    if all(k == 0 for k in exps):
        return 0
    if p != 2:
        k = exps[0]
        beta = 1
        while beta < gamma and k % (p ** (gamma - beta)) != 0:
            beta += 1
        return beta
    if gamma == 2:
        return 2  # the nontrivial character mod 4
    e1, e2 = exps
    if e2 == 0:
        return 2
    beta = 3
    while beta < gamma and e2 % (2 ** (gamma - beta)) != 0:
        beta += 1
    # the {-1} part never raises the conductor above 4, the 5-part floor is 8
    return beta


def principal_character(q) -> DirichletCharacter:
    """The character that is 1 on every unit mod q."""
    m = as_modulus(q)
    comps = tuple(
        tuple(0 for _ in unit_group_basis(p, g).orders) for p, g in m.factors
    )
    return DirichletCharacter(m, comps)


def quadratic_character(q) -> DirichletCharacter:
    """The order-2 character mod an odd prime power (the Legendre lift)."""
    m = as_modulus(q)
    if len(m.factors) != 1 or m.factors[0][0] == 2:
        raise ValueError("quadratic_character expects an odd prime power")
    p, g = m.factors[0]
    order = unit_group_basis(p, g).orders[0]
    return DirichletCharacter(m, ((order // 2,),))


def enumerate_characters(q, primitive_only: bool = False) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in lexicographic exponent order."""
    m = as_modulus(q)
    ranges = []
    for p, g in m.factors:
        basis = unit_group_basis(p, g)
        ranges.append(
            list(itertools.product(*(range(o) for o in basis.orders)))
        )
    out = []
    for combo in itertools.product(*ranges):
        chi = DirichletCharacter(m, tuple(combo))
        if primitive_only and not chi.is_primitive:
            continue
        out.append(chi)
    return out


class RestrictedCharacter(NamedTuple):
    """Decomposition of m -> chi(k + r*m) for q = r*s with gcd(r, s) = 1.

    The identity is chi(k + r*m) = e(offset) * character(m + shift) for
    every integer m, both sides vanishing together.  ``shift`` is r^{-1}k
    mod s; it is zero exactly when s | k, in which case the restriction is
    a plain character multiplied by a constant phase.
    """

    character: DirichletCharacter
    offset: RationalAngle
    shift: int


def crt_restrict(chi: DirichletCharacter, k: int, r: int) -> RestrictedCharacter:
    """Restrict chi mod q = r*s to the progression k + r*Z, as a character mod s.

    Writes chi = chi_r * chi_s over the coprime split q = r*s and uses
    k + r*m = r*(r^{-1}k + m) mod s, so that

        chi(k + r*m) = chi_r(k) * chi_s(r) * chi_s(m + r^{-1}k mod s).
    """
    q = chi.q
    if q % r != 0:
        raise ValueError(f"r = {r} does not divide q = {q}")
    s = q // r
    if math.gcd(r, s) != 1:
        raise ValueError(f"gcd(r, s) = gcd({r}, {s}) != 1")
    r_factors = [i for i, (p, _) in enumerate(chi.modulus.factors) if r % p == 0]
    s_factors = [i for i in range(len(chi.modulus.factors)) if i not in r_factors]

    mod_s = as_modulus(s)
    chi_s = DirichletCharacter(mod_s, tuple(chi.components[i] for i in s_factors))

    if math.gcd(k, r) != 1:
        raise ValueError(
            f"gcd(k, r) = gcd({k}, {r}) != 1: the progression meets no units mod q"
        )
    # the numerator of chi_r(k) * chi_s(r) over L = chi.order; chi_s.order divides L
    L = chi.order
    offset = chi_s.angle_numerator(r) * (L // chi_s.order)
    offset += sum(_component_numerator(*chi._weights[i], k) for i in r_factors)
    shift = pow(r, -1, s) * k % s
    return RestrictedCharacter(chi_s, RationalAngle.of(offset, L), shift)
