"""Dirichlet characters with exact integer-angle values.

A character mod q is one exponent k_j per generator j of the canonical
unit-group basis of every prime power of q; the characters mod q are the
rows of one exponent matrix (``character_rows``, with each row's conjugate
row and a primitive mask from one conductor closed form), and objects are
built from rows (``characters_of_rows``) only where a label or a scalar
value is needed.  With L a common multiple of a row's order, every value is
chi(n) = e(A(n)/L) for an integer numerator 0 <= A(n) < L
(e(t) = exp(2*pi*i*t)), computed from discrete logs as

    A(n) = sum_j w_j * dlog_j(n mod p^gamma) mod L,  w_j = k_j * L / o_j,

over the basis generators j of order o_j.  Two kernels compute A:
``angle_numerator`` for one n over L = chi.order, and ``_numerator_rows``
for an array of n and one row or all rows at once, over L = lambda(q), the
lcm of the o_j, which is decided here alone (``_exponent``).  It takes one
dlog table gather per prime power (``discrete_log`` per element above the
cap), and as lambda is a multiple of every order no row needs a gcd: each
term (dlog_j k_j mod o_j) lambda/o_j is below lambda, and dlog_j k_j <
o_j^2 <= 2^44 under the cap, so it is int64 while lambda < 2^62.
``angle_numerators`` divides its one row by lambda/order (int64 while the
order is below 2^62).  ``evaluate`` reduces A(n) to a ``RationalAngle``;
``crt_restrict`` reads chi at one CRT lift.  ``value_table`` holds A and
the complex values on all residues, in one small cache keyed by the
character: equal characters share a table, and a list of characters pins
none.  ``root_values`` turns integer angles into complex values, each
exactly as ``RationalAngle.to_complex`` does, in lowest terms, so any
common multiple L gives the same bits; that conversion happens only at
summation boundaries.  ``_root_values`` takes numerators already reduced
mod the denominator, writes into the caller's arrays when given them (the
sum layer's workspace), and finds each angle's gcd with the denominator
from cached tables of its small prime powers (``_gcd_plan``).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .arith import (
    DLOG_TABLE_CAP,
    FactoredModulus,
    _cached,
    as_modulus,
    crt_combine,
    discrete_log,
    dlog_table,
    trial_division,
    unit_group_basis,
)

__all__ = [
    "RationalAngle",
    "DirichletCharacter",
    "principal_character",
    "quadratic_character",
    "enumerate_characters",
    "character_rows",
    "characters_of_rows",
    "crt_restrict",
    "RestrictedCharacter",
]

# Value tables are built for moduli up to this size.
VALUE_TABLE_CAP = 1 << 20
# Numerators from which _den_gcd reads den's prime-power tables: below this one
# np.gcd costs less than building a plan, so a Gauss sum mod p < 4096 takes it
_GCD_TABLES_FROM = 1 << 12


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
    return _root_values(np.asarray(numerators, dtype=np.int64 if den < 1 << 62 else object) % den, den)


def _root_values(a: np.ndarray, den: int, out: Optional[np.ndarray] = None,
                 work: Optional[np.ndarray] = None) -> np.ndarray:
    """``root_values`` of numerators a already in [0, den), written into out
    (complex128, len(a)) when it is given; work, an int64 array of 2 len(a)
    entries, then holds ``_den_gcd``'s temporaries.

    a/g and d = den/g go into out.real and out.imag, then theta into
    out.real and cos and sin in place.  Below 2^53 every a, g and den is an
    exact double and so is each exact quotient, so a float division gives
    the integer quotient's double; beyond, the integers are divided."""
    out = np.empty(len(a), dtype=np.complex128) if out is None else out
    g = _den_gcd(a, den, work)
    re, im = out.real, out.imag
    if den < 1 << 53:
        np.divide(a, g, out=re)
        np.divide(den, g, out=im)
    else:
        re[...] = a // g
        im[...] = den // g
    special = np.flatnonzero(im <= 2)  # d = 1 at a = 0, d = 2 at a = den/2
    exact = np.where(im[special] == 1, 1.0, -1.0)
    np.multiply(re, 2 * math.pi, out=re)
    np.divide(re, im, out=re)
    np.sin(re, out=im)
    np.cos(re, out=re)
    out[special] = exact
    return out


# gcd(a, den) reads tables of at most this many residues (512 KiB of int64)
_GCD_TABLE_CAP = 1 << 16


def _den_gcd(a: np.ndarray, den: int, work: Optional[np.ndarray] = None) -> np.ndarray:
    """gcd(a, den) for every a of the array a, in [0, den): one np.gcd for
    fewer than ``_GCD_TABLES_FROM`` numerators or past int64, else from
    ``_gcd_plan(den)``: a gcd with the part of den that trial division
    leaves, one gather per table of den's small prime powers, and a pass
    per power of each prime whose power exceeds a table, over the numerators
    that p^(k-1) divides.  With work (int64, 2 len(a) entries) the result is
    its first half."""
    n = len(a)
    if n < _GCD_TABLES_FROM or a.dtype == object:
        return np.gcd(a, den)
    tables, passes, rest = _gcd_plan(den)
    work = np.empty(2 * n, dtype=np.int64) if work is None else work
    g, r = work[:n], work[n:2 * n]
    if rest > 1:
        np.gcd(a, rest, out=g)
    else:
        g.fill(1)
    for m, table in tables:
        np.remainder(a, m, out=r)
        np.take(table, r, out=r, mode="wrap")  # in place: each index is read before its slot is written
        g *= r
    for p, e in passes:
        at = np.flatnonzero(a % p == 0)
        for _ in range(e - 1):
            g[at] *= p
            at = at[a[at] // g[at] % p == 0]
        g[at] *= p
    return g


@_cached()
def _gcd_plan(den: int) -> tuple[tuple[tuple[int, np.ndarray], ...], tuple[tuple[int, int], ...], int]:
    """(tables, passes, rest) for ``_den_gcd``: den's prime powers p^e with
    p < 2^16, ascending, packed into products m <= ``_GCD_TABLE_CAP``, each
    with its read-only table gcd(r, m) at r = 0..m-1; the (p, e) whose p^e
    exceeds the cap; and the part of den trial division leaves."""
    primes, rest = trial_division(den, 1 << 16)
    groups: list[list[tuple[int, int]]] = [[]]
    passes = []
    for p, e in sorted(primes, key=lambda pe: pe[0] ** pe[1]):
        if p**e > _GCD_TABLE_CAP:
            passes.append((p, e))
        else:
            if math.prod(q**f for q, f in groups[-1]) * p**e > _GCD_TABLE_CAP:
                groups.append([])
            groups[-1].append((p, e))
    tables = []
    for group in filter(None, groups):
        m = math.prod(p**e for p, e in group)
        table = np.ones(m, dtype=np.int64)
        for p, e in group:
            for k in range(1, e + 1):
                table[::p**k] *= p
        tables.append((m, table))
    return tuple(tables), tuple(passes), rest


@_cached()
def _roots_of_unity(L: int) -> np.ndarray:
    """e(j/L) for j = 0..L-1, read-only."""
    return _root_values(np.arange(L), L)


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
        total = 0
        for p, g, ws in self._weights:
            if p**g <= DLOG_TABLE_CAP:
                logs = dlog_table(p, g)[n % p**g].tolist()
            else:
                logs = discrete_log(n, unit_group_basis(p, g))
            total += sum(w * ell for w, ell in zip(ws, logs))
        return total % self.order

    def angle_numerators(self, ns) -> np.ndarray:
        """``angle_numerator`` of every n of the integer array ns (an object
        array past 2^63), -1 where gcd(n, q) > 1: the one row of
        ``_numerator_rows`` divided by lambda/order (-1 stays -1)."""
        A = _numerator_rows(self.modulus, self.row, np.asarray(ns))[0]
        A //= _exponent(self.modulus) // self.order
        return A.astype(np.int64 if self.order < 1 << 62 else object, copy=False)

    @property
    def row(self) -> np.ndarray:
        """The exponent vectors end to end, as the one row of an int64
        exponent matrix (``character_rows``)."""
        return np.array([[k for exps in self.components for k in exps]], dtype=np.int64)

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
        return math.prod(p ** int(_conductor_exponents(p, g, [exps])[0])
                         for (p, g), exps in zip(self.modulus.factors, self.components))

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
    def from_dict(cls, data) -> "DirichletCharacter":
        """The inverse of ``to_dict``; ValueError on data of another shape."""
        try:
            q = as_modulus(operator.index(data["q"]))
            by_pp = {(c["p"], c["gamma"]): tuple(map(operator.index, c["exponents"]))
                     for c in data["components"]}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed character object: bad or missing field ({exc})") from None
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


def _dlogs(p: int, g: int, ns: np.ndarray) -> np.ndarray:
    """The ``dlog_table`` rows of ns mod p^g: one gather under the dlog table
    cap, and above it ``discrete_log`` of each unit as Python ints (rows of
    -1 off the units)."""
    if p**g <= DLOG_TABLE_CAP:
        return dlog_table(p, g)[(ns % p**g).astype(np.int64)]
    basis = unit_group_basis(p, g)
    blank = [-1] * len(basis.orders)
    return np.array([discrete_log(n, basis) if n % p else blank for n in ns.tolist()],
                    dtype=object).reshape(len(ns), len(basis.orders))


def _numerator_rows(m: FactoredModulus, E: np.ndarray, ns) -> np.ndarray:
    """A(n) over lambda = ``_exponent(m)`` for every row of the exponent matrix
    E (see ``character_rows``) and every n of the integer array ns, -1 where
    gcd(n, q) > 1: the discrete logs of ns once per prime power of m
    (``_dlogs``)."""
    orders, spans = _columns(m)
    lam = _exponent(m)
    dtype = np.int64 if lam < 1 << 62 else object
    acc = np.zeros((len(E), len(ns)), dtype=dtype)
    unit = np.ones(len(ns), dtype=bool)
    for p, g, lo, hi in spans:
        unit &= ns % p != 0
        logs = _dlogs(p, g, ns)
        for j, ell, o in zip(range(lo, hi), logs.T, orders[lo:hi].tolist()):
            term = (ell * E[:, j, None] % o).astype(dtype, copy=False)
            acc = (acc + term * (lam // o)) % lam
    acc[:, ~unit] = -1
    return acc


# Keyed by character, so a walk over many characters of one modulus would
# fill the byte budget with tables used once: this cache also keeps at most 8.
@_cached(maxsize=8)
def _value_table(chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    q = chi.q
    if q > VALUE_TABLE_CAP:
        raise ValueError(f"value table for q = {q} exceeds the size cap")
    numerators = chi.angle_numerators(np.arange(q))
    return numerators, np.where(numerators >= 0, _roots_of_unity(chi.order)[numerators], 0j)


def _conductor_exponents(p: int, gamma: int, E) -> np.ndarray:
    """Exponent of p in the conductor of every row of E, the exponent vectors
    of characters mod p^gamma against ``unit_group_basis(p, gamma)``.

    Derived from the basis structure: for odd p (cyclic, generator order
    p^(gamma-1)(p-1)) a row k is trivial on the units = 1 mod p^beta
    exactly when p^(gamma-beta) | k, so beta = max(1, gamma - v_p(k)), which
    is gamma less the e in 1..gamma-1 with p^e | k.  For p = 2 the {-1, 5}
    basis gives conductor 1, 4 or 2^max(3, gamma - v2(e2)): the {-1} part
    never raises it above 4, the 5-part floor is 8.  The trivial row has 0.
    """
    E = np.asarray(E, dtype=np.int64 if p**gamma < 1 << 63 else object)
    if p == 2 and gamma < 3:
        beta = 2
    else:
        k, top = (E[:, 0], gamma - 1) if p != 2 else (E[:, 1], gamma - 3)
        beta = np.where(k == 0, 2, gamma - sum(k % p**e == 0 for e in range(1, top + 1)))
    return np.where(E.any(axis=1), beta, 0)


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


@lru_cache(maxsize=64)
def _columns(m: FactoredModulus) -> tuple[np.ndarray, tuple[tuple[int, int, int, int], ...]]:
    """The columns of an exponent row mod m, one per basis generator of every
    prime power in turn: their orders (read-only), and (p, gamma, lo, hi) per
    prime power, whose exponents are the columns lo..hi-1."""
    orders = np.array([o for p, g in m.factors for o in unit_group_basis(p, g).orders], dtype=np.int64)
    orders.flags.writeable = False
    ends = np.cumsum([0] + [len(unit_group_basis(p, g).orders) for p, g in m.factors]).tolist()
    return orders, tuple((p, g, lo, hi) for (p, g), lo, hi in zip(m.factors, ends, ends[1:]))


@lru_cache(maxsize=64)
def _exponent(m: FactoredModulus) -> int:
    """lambda(q), the lcm of the generator orders mod m: a multiple of every character's order."""
    return math.lcm(*_columns(m)[0].tolist())


def character_rows(q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, conj, primitive): the characters mod q as the rows of one int64
    exponent matrix E, each row the exponent vectors of its ``components``
    end to end, in lexicographic order (``enumerate_characters``' order, so
    row 0 is principal); conj[c] is the row of row c's conjugate, and
    primitive[c] whether row c is primitive.  ValueError past 2^22 rows (the
    dlog table cap), before anything that size is allocated."""
    m = as_modulus(q)
    orders = _columns(m)[0]
    count = math.prod(orders.tolist())
    if count > DLOG_TABLE_CAP:
        raise ValueError(f"{count} characters mod {m.q} exceed the size cap of the rows")
    E = np.indices(orders, dtype=np.int64).reshape(len(orders), count).T
    # a scalar when q has no generators (q = 1, 2), so reshaped to one row
    conj = np.ravel_multi_index(tuple((-E % orders).T), orders).reshape(len(E))
    return E, conj, _primitive_rows(m, E)


def _primitive_rows(m: FactoredModulus, E: np.ndarray) -> np.ndarray:
    """Whether each row of the exponent matrix E mod m is primitive."""
    primitive = np.ones(len(E), dtype=bool)
    for p, g, lo, hi in _columns(m)[1]:
        primitive &= _conductor_exponents(p, g, E[:, lo:hi]) == g
    return primitive


def characters_of_rows(q, E) -> list[DirichletCharacter]:
    """The character of every row of E, rows of ``character_rows(q)``'s E.

    Those rows are in range by construction, so the objects are made without
    the constructor's per-exponent check.  The fields are set one by one, as
    the constructor sets them, so that the objects share their dict keys.
    """
    m = as_modulus(q)
    spans = [slice(lo, hi) for _, _, lo, hi in _columns(m)[1]]
    out = []
    for row in E.tolist():
        chi = object.__new__(DirichletCharacter)
        object.__setattr__(chi, "modulus", m)
        object.__setattr__(chi, "components", tuple(tuple(row[s]) for s in spans))
        out.append(chi)
    return out


def enumerate_characters(q, primitive_only: bool = False) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in lexicographic exponent order, or the
    primitive ones only: the objects of ``character_rows(q)``'s rows."""
    E, _, primitive = character_rows(q)
    return characters_of_rows(q, E[primitive] if primitive_only else E)


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
    chi_s = DirichletCharacter(as_modulus(s), tuple(
        exps for (p, _), exps in zip(chi.modulus.factors, chi.components) if r % p != 0))
    if math.gcd(k, r) != 1:
        raise ValueError(
            f"gcd(k, r) = gcd({k}, {r}) != 1: the progression meets no units mod q"
        )
    # chi_r(k) * chi_s(r) = chi(x) for the unit x = k mod r, x = r mod s
    x, _ = crt_combine([(k, r), (r, s)])
    shift = pow(r, -1, s) * k % s
    return RestrictedCharacter(chi_s, chi.evaluate(x), shift)
