"""Seeded operation streams for the corechar benchmark, with an oracle per kind.

An operation is one public corechar call plus its arguments.  Each kind has
three functions:

* ``run(args, tracer)`` makes the call, wrapping it in spans of the layers
  it enters, and returns the call's output;
* ``check(args, out)`` recomputes what it can by an independent route and
  raises ``OracleError`` on any disagreement (run outside the timed span);
* ``corrupt(args, out)`` returns the output with one deliberate defect, so
  that the self-test can show the oracle rejects it.

Streams are built round by round, and a run is a whole number of rounds.
The sizes that set an operation's cost follow a fixed schedule (see
``slot``); the seed draws the content.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from corechar import cli
from corechar.arith import FactoredModulus, unit_group_basis
from corechar.characters import DirichletCharacter, RationalAngle, crt_restrict
from corechar.expsums import (RealPolynomial, SumResult, char_sum, decompose,
                              dirichlet_poly, twisted_sum)
from corechar.lfunc import l_grid_min, l_value, l_value_series, zero_scan_report
from corechar.postnikov import fd_eval, find_postnikov_m, minimal_postnikov_degree
from corechar.primes import psi, psi_by_class, short_interval_check
from corechar.vinogradov import count_vinogradov, count_vinogradov_naive, korobov_check

WORKLOADS = ("char-lab", "lfunc-scan", "psi-windows")

# Modulus pools: 3^5..3^8, 5^3..5^5, 7^3..7^4 and mixed 2^a 3^b.
PRIME_POWERS = (3**5, 3**6, 3**7, 3**8, 5**3, 5**4, 5**5, 7**3, 7**4)
MIXED = (2592, 1944, 1296, 1728, 864)
CHAR_LAB_MODULI = PRIME_POWERS + (2592,)
EXACT_MODULI = (3**7, 3**8, 5**5, 7**4)
FLOAT_MODULI = (3**5, 3**6, 5**3, 5**4, 7**3)
# Prime powers above the 2^22 dlog-table cap: evaluate() runs Pohlig-Hellman.
BIG_MODULI = (3**16, 5**11, 2**30)
DECOMPOSE_MODULI = (27, 81, 243)
LFUNC_MODULI = (9, 25, 27, 49, 81, 243)
EXACT_SWITCH = 2 * 10**5  # twisted_sum's exact/float switch on N
# Gauss-sum primes: a narrow band below 200, so the Gauss sums, which hold the
# median, cost about the same.
GAUSS_PRIMES = tuple(p for p in range(150, 200) if all(p % d for d in range(2, int(p**0.5) + 1)))
GOLDEN_CSV = Path(__file__).resolve().parent.parent / "tests" / "golden" / "bound_compare.csv"


class OracleError(AssertionError):
    """An operation's output disagrees with its oracle."""


def expect(cond: bool, msg: str):
    if not cond:
        raise OracleError(msg)


@dataclasses.dataclass
class Op:
    kind: str
    args: dict

    @property
    def label(self) -> str:
        """The kind, and for a CLI operation also its subcommand."""
        return f"cli {self.args['argv'][0]}" if self.kind == "cli" else self.kind


def make_chi(q: int, comps) -> DirichletCharacter:
    """A fresh character object, as a user builds one (no cached tables)."""
    return DirichletCharacter(FactoredModulus.from_int(q), comps)


def random_components(rng: random.Random, q: int, primitive=False, nonprincipal=False):
    mod = FactoredModulus.from_int(q)
    while True:
        comps = tuple(tuple(rng.randrange(o) for o in unit_group_basis(p, g).orders)
                      for p, g in mod.factors)
        chi = DirichletCharacter(mod, comps)
        if primitive and not chi.is_primitive:
            continue
        if nonprincipal and chi.is_principal:
            continue
        return comps


def unit_mod(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q) if q > 1 else 0
        if math.gcd(a, q) == 1:
            return a


# ---------------------------------------------------------------------------
# Independent helpers used by the oracles
# ---------------------------------------------------------------------------


def oracle_angles(q: int, comps) -> tuple:
    """chi's angle on every residue, from one evaluate() per residue, as
    (numerator array over chi.order, unit mask, order)."""
    chi = make_chi(q, comps)
    order = chi.order
    num = np.zeros(q, dtype=np.int64)
    unit = np.zeros(q, dtype=bool)
    for n in range(q):
        a = chi.evaluate(n)
        if a is not None:
            unit[n] = True
            num[n] = a.numerator * (order // a.denominator)
    return num, unit, order


def window_terms(q, comps, M, N, extra_phase) -> complex:
    """fsum of chi(n) e(extra_phase(n)) over M < n <= M+N, vectorized."""
    num, unit, order = oracle_angles(q, comps)
    ns = np.arange(M + 1, M + N + 1, dtype=np.int64)
    res = ns % q
    keep = unit[res]
    theta = num[res][keep] / order + extra_phase(ns[keep])
    return complex(math.fsum(np.cos(2 * np.pi * theta)), math.fsum(np.sin(2 * np.pi * theta)))


def rational_phase(nums, den):
    """n -> frac(sum nums[i] n^i / den) by int64 Horner mod den (den^2 < 2^62)."""
    def phase(ns):
        acc = np.zeros_like(ns)
        for c in reversed(nums):
            acc = (acc * (ns % den) + c) % den
        return acc / den
    return phase


def term_by_term_angles(chi, M, N, G) -> Counter:
    """The exact angle multiset of chi(n) e(G(n)), one evaluate + frac_at per n."""
    out: Counter = Counter()
    for n in range(M + 1, M + N + 1):
        a = chi.evaluate(n)
        if a is not None:
            out[RationalAngle.make(a.fraction + G.frac_at(n))] += 1
    return out


def signature_count(k, d, P) -> int:
    """N_{k,d}(P) from a plain dict of power-sum signatures (Python ints)."""
    table: Counter = Counter()
    powers = [[y**r for r in range(1, d + 1)] for y in range(P + 1)]

    def walk(depth, acc):
        if depth == k:
            table[acc] += 1
            return
        for y in range(1, P + 1):
            walk(depth + 1, tuple(a + b for a, b in zip(acc, powers[y])))

    walk(0, (0,) * d)
    return sum(c * c for c in table.values())


def sieve_window(lo: int, hi: int, q: int, a: int) -> dict[int, int]:
    """Prime-power multiplicities p -> #{p^j in (lo, hi], p^j = a mod q}, by a
    numpy segmented sieve of (lo, hi] written independently of corechar."""
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p::p] = False
    base_primes = np.flatnonzero(base)
    seg = np.ones(hi - lo, dtype=bool)  # seg[i] <-> lo + 1 + i
    for p in base_primes.tolist():
        first = max(p * p, (lo + 1 + p - 1) // p * p)
        if first <= hi:
            seg[first - lo - 1::p] = False
    primes = np.flatnonzero(seg) + lo + 1
    counts = Counter(primes[primes % q == a % q].tolist())
    for p in base_primes.tolist():
        n = p * p
        while n <= hi:
            if n > lo and n % q == a % q:
                counts[p] += 1
            n *= p
    return dict(counts)


def psi_from_counts(counts: dict[int, int]) -> float:
    return math.fsum(c * math.log(p) for p, c in sorted(counts.items()))


def euler_phi(q: int) -> int:
    out, n, p = 1, q, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out *= p ** (e - 1) * (p - 1)
        p += 1
    return out * (n - 1 if n > 1 else 1)


def parse_label(label: str) -> DirichletCharacter:
    """Inverse of DirichletCharacter.label(): 'chi[q|p^g:e,..;..]'."""
    q_part, comps_part = label[len("chi["):-1].split("|")
    comps = []
    for piece in comps_part.split(";"):
        exps = piece.split(":", 1)[1]
        comps.append(tuple(int(e) for e in exps.split(",")) if exps else ())
    return make_chi(int(q_part), tuple(comps))


# ---------------------------------------------------------------------------
# char-lab kinds
# ---------------------------------------------------------------------------


def run_postnikov(a, tr):
    chi = make_chi(a["q"], a["comps"])
    with tr.span("postnikov", "find_postnikov_m") as sp:
        m = find_postnikov_m(chi, minimal_postnikov_degree(a["q"]))
        mod = chi.modulus
        sp["points"] = a["q"] // (mod.tau * mod.core)
    return m


def check_postnikov(a, m):
    q = a["q"]
    chi = make_chi(q, a["comps"])
    mod = chi.modulus
    d = minimal_postnikov_degree(q)
    step = mod.tau * mod.core
    expect(m > 0 and math.gcd(m, q) == 1, f"m = {m} not a positive unit mod {q}")
    for r in range(1, d + 1):
        if math.gcd(r, q) == 1:
            expect(m % r == 0, f"m = {m} not divisible by {r}")
    rng = random.Random(a["oracle_seed"])
    for x in [0, 1] + [rng.randrange(q // step) for _ in range(30)]:
        lhs = chi.evaluate(1 + step * x).fraction
        expect(lhs == (m * fd_eval(d, step * x) / q) % 1, f"identity fails at x = {x}")


def corrupt_postnikov(a, m):
    return m + a["q"]


def run_char_sum(a, tr):
    chi = make_chi(a["q"], a["comps"])
    with tr.span("expsums", "char_sum") as sp:
        with tr.span("characters", "chi.value_table") as sc:
            chi.value_table
            sc["values"] = a["q"]
        res = char_sum(chi, a["M"], a["q"])
        sp.update(terms=a["q"], sums=1, exact=int(res.mode == "exact"))
    return res


def check_char_sum(a, res):
    q = a["q"]
    chi = make_chi(q, a["comps"])
    phi = chi.modulus.phi
    expect(res.mode == "exact" and res.term_count == q, "full period not summed exactly")
    angles = res.exact_angle_terms
    if chi.is_principal:
        expect(res.value == phi + 0j and angles == Counter({RationalAngle(0, 1): phi}),
               "principal sum != phi(q)")
        return
    L = chi.order
    expect(set(angles) == {RationalAngle.make(Fraction(j, L)) for j in range(L)},
           "angles are not exactly the order-th roots of unity")
    expect(set(angles.values()) == {phi // L}, "angle multiset is not uniform")
    expect(abs(res.value) <= 1e-12 * q, "orthogonality: sum does not vanish")


def corrupt_sum(a, res):
    angles = Counter(res.exact_angle_terms) if res.exact_angle_terms is not None else None
    if angles:
        angles[next(iter(angles))] += 1
    return SumResult(res.value + 1.0, res.term_count, res.mode, angles)


def run_gauss(a, tr):
    p = a["q"]
    chi = make_chi(p, a["comps"])
    with tr.span("expsums", "twisted_sum gauss") as sp:
        with tr.span("characters", "chi.value_table") as sc:
            chi.value_table
            sc["values"] = p
        res = twisted_sum(chi, 0, p, RealPolynomial.make([0, Fraction(1, p)]))
        sp.update(terms=p, sums=1, exact=int(res.mode == "exact"))
    return res


def check_gauss(a, res):
    expect(abs(res.abs - math.sqrt(a["q"])) <= 1e-9, f"|G| != sqrt({a['q']})")


def run_crt(a, tr):
    chi = make_chi(a["q"], a["comps"])
    with tr.span("characters", "crt_restrict") as sp:
        rc = crt_restrict(chi, a["k"], a["r"])
        sp["values"] = 2
    return rc


def check_crt(a, rc):
    q, k, r = a["q"], a["k"], a["r"]
    s = q // r
    chi = make_chi(q, a["comps"])
    rng = random.Random(a["oracle_seed"])
    # m0 makes k + r*m0 = 1 mod s, so at least one sampled value is nonzero
    m0 = (1 - k) * pow(r, -1, s) % s if s > 1 else 0
    for m in [m0] + [rng.randrange(-q, q) for _ in range(15)]:
        direct = chi.evaluate(k + r * m)
        via = rc.character.evaluate(m + rc.shift)
        expect((direct is None) == (via is None), f"zero pattern differs at m = {m}")
        if direct is not None:
            expect((via.fraction + rc.offset.fraction) % 1 == direct.fraction,
                   f"chi(k + r m) differs at m = {m}")


def corrupt_crt(a, rc):
    return rc._replace(offset=RationalAngle.make(rc.offset.fraction + Fraction(1, 2)))


def run_decompose(a, tr):
    chi = make_chi(a["q"], a["comps"])
    G = RealPolynomial.make(a["G"])
    with tr.span("expsums", "decompose") as sp:
        with tr.span("characters", "chi.value_table") as sc:
            chi.value_table
            sc["values"] = a["q"]
        res = decompose(chi, a["M"], a["N"], G, a["s"])
        sp["terms"] = res.term_count + a["N"]
    return res


def check_decompose(a, res):
    q, M, N = a["q"], a["M"], a["N"]
    chi = make_chi(q, a["comps"])
    G = RealPolynomial.make(a["G"])
    coprime = sum(1 for n in range(M + 1, M + N + 1) if math.gcd(n, q) == 1)
    P = chi.modulus.core ** a["s"]
    expect(res.holds, "residual exceeds the allowance")
    expect(res.coprime_count == coprime and res.term_count == coprime * P * P,
           "coprime count / grid size wrong")
    angles = term_by_term_angles(chi, M, N, G)
    direct = complex(math.fsum(c * x.to_complex().real for x, c in angles.items()),
                     math.fsum(c * x.to_complex().imag for x, c in angles.items()))
    expect(abs(res.s_value - direct) <= 1e-9 * N, "window sum S disagrees term by term")


def corrupt_decompose(a, res):
    return dataclasses.replace(res, s_value=res.s_value + 1.0)


def run_twisted(a, tr):
    chi = make_chi(a["q"], a["comps"])
    G = RealPolynomial.make(a["G"])
    with tr.span("expsums", "twisted_sum") as sp:
        with tr.span("characters", "chi.value_table") as sc:
            chi.value_table
            sc["values"] = a["q"]
        res = twisted_sum(chi, a["M"], a["N"], G)
        sp.update(terms=a["N"], sums=1, exact=int(res.mode == "exact"))
    return res


def check_twisted(a, res):
    q, M, N = a["q"], a["M"], a["N"]
    G = RealPolynomial.make(a["G"])
    nums, den = G.angle_data()
    # Either mode is right on either side of the switch: the value and the
    # sub-window's exact angles judge the output, not the path that made it.
    expect(res.term_count == N, "term count")
    direct = window_terms(q, a["comps"], M, N, rational_phase(nums, den))
    expect(abs(res.value - direct) <= 1e-9 * N, "window sum disagrees with the vectorized oracle")
    # term-by-term exact check on a random sub-window
    rng = random.Random(a["oracle_seed"])
    sub_n = min(N, 400)
    sub_m = M + rng.randrange(N - sub_n + 1)
    chi = make_chi(q, a["comps"])
    sub = twisted_sum(chi, sub_m, sub_n, G)
    expect(sub.exact_angle_terms == term_by_term_angles(chi, sub_m, sub_n, G),
           "sub-window angle multiset disagrees term by term")


def run_dirichlet(a, tr):
    chi = make_chi(a["q"], a["comps"])
    with tr.span("expsums", "dirichlet_poly") as sp:
        with tr.span("characters", "chi.value_table") as sc:
            chi.value_table
            sc["values"] = a["q"]
        res = dirichlet_poly(chi, a["M"], a["N"], a["t"])
        sp.update(terms=a["N"], sums=1, exact=int(res.mode == "exact"))
    return res


def check_dirichlet(a, res):
    t = a["t"]
    direct = window_terms(a["q"], a["comps"], a["M"], a["N"],
                          lambda ns: t * np.log(ns.astype(np.float64)) / (2 * np.pi))
    expect(abs(res.value - direct) <= 1e-9 * a["N"], "Dirichlet polynomial disagrees")


def run_evaluate(a, tr):
    chi = make_chi(a["q"], a["comps"])
    with tr.span("arith", "chi.evaluate (Pohlig-Hellman)") as sp:
        ang = chi.evaluate(a["n"])
        sp["dlogs"] = len(chi.modulus.factors)
    return ang


def _cyclic_value_ok(g, y, k, o, alpha, modulus) -> bool:
    """Is e(alpha) = e(k*log_g(y)/o)?  Checked with pow() alone: pick any e0
    with k*e0 = alpha*o (mod o); then z = y*g^-e0 must lie in the kernel of
    the character, the subgroup of order d = gcd(k, o), that is z^d = 1."""
    target = alpha * o
    if target.denominator != 1:
        return False
    d = math.gcd(k, o)
    if int(target) % d:
        return False
    od = o // d
    e0 = (int(target) // d) * pow(k // d, -1, od) % od if od > 1 else 0
    z = y * pow(g, -e0, modulus) % modulus
    return pow(z, d, modulus) == 1


def check_evaluate(a, ang):
    q, n = a["q"], a["n"]
    expect(ang is not None, f"evaluate({n}) returned 0 on a unit")
    (p, g), = FactoredModulus.from_int(q).factors
    basis = unit_group_basis(p, g)
    (exps,) = a["comps"]
    alpha = ang.fraction
    if len(basis.generators) == 2:   # 2^gamma = {-1} x <5>
        e1 = 0 if n % 4 == 1 else 1
        alpha = (alpha - Fraction(exps[0] * e1, 2)) % 1
        y = n * pow(q - 1, e1, q) % q
        ok = _cyclic_value_ok(basis.generators[1], y, exps[1], basis.orders[1], alpha, q)
    else:
        ok = _cyclic_value_ok(basis.generators[0], n % q, exps[0], basis.orders[0], alpha, q)
    expect(ok, f"chi({n}) mod {q} is not e(k log n / o)")


def corrupt_evaluate(a, ang):
    order = make_chi(a["q"], a["comps"]).order
    return RationalAngle.make(ang.fraction + Fraction(1, order))


def run_vinogradov(a, tr):
    with tr.span("vinogradov", "count_vinogradov") as sp:
        n = count_vinogradov(a["k"], a["d"], a["P"])
        sp["tuples"] = a["P"] ** a["k"]
    return n


NAIVE_PAIR_BUDGET = 2 * 10**5


def check_vinogradov(a, n):
    k, d, P = a["k"], a["d"], a["P"]
    if P ** (2 * k) <= NAIVE_PAIR_BUDGET:
        expect(n == count_vinogradov_naive(k, d, P), "count != all-pairs oracle")
    else:
        expect(n == signature_count(k, d, P), "count != dict-signature oracle")


def corrupt_plus_one(a, n):
    return n + 1


def run_korobov(a, tr):
    coeffs = [Fraction(c) for c in a["coeffs"]]
    with tr.span("vinogradov", "korobov_check") as sp:
        rep = korobov_check(coeffs, a["k"], a["P"], slack=1e-9)
        sp["tuples"] = a["P"] ** a["k"]
    return rep


def check_korobov(a, rep):
    coeffs = [Fraction(c) for c in a["coeffs"]]
    k, P = a["k"], a["P"]
    expect(rep.holds, "double-sum inequality fails")
    expect(rep.vinogradov_count == signature_count(k, rep.d, P), "N_{k,d}(P) wrong")
    mult = Counter(y * z for y in range(1, P + 1) for z in range(1, P + 1))
    phases = {x: sum(c * x ** (i + 1) for i, c in enumerate(coeffs)) % 1 for x in mult}
    s = complex(math.fsum(m * math.cos(2 * math.pi * phases[x]) for x, m in mult.items()),
                math.fsum(m * math.sin(2 * math.pi * phases[x]) for x, m in mult.items()))
    expect(abs(rep.s_abs - abs(s)) <= 1e-9 * P * P, "|S| disagrees with the direct double sum")


def corrupt_korobov(a, rep):
    return dataclasses.replace(rep, s_abs=rep.s_abs + 1.0)


def run_cli(a, tr):
    buf = io.StringIO()
    with tr.span("cli", a["argv"][0]):
        with contextlib.redirect_stdout(buf):
            code = cli.main(a["argv"])
    return code, buf.getvalue()


def check_cli(a, out):
    code, text = out
    expect(code == 0, f"exit code {code}")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        again = cli.main(a["argv"])
    expect(again == 0 and buf.getvalue() == text, "stdout differs across repeats")
    if a["argv"][0] == "bound-compare":
        expect(text == GOLDEN_CSV.read_text(), "bound-compare differs from the golden CSV")


def corrupt_cli(a, out):
    code, text = out
    flipped = chr(ord(text[0]) ^ 1)
    return code, flipped + text[1:]


# ---------------------------------------------------------------------------
# lfunc-scan kinds
# ---------------------------------------------------------------------------


def run_zero_scan(a, tr):
    with tr.span("lfunc", "zero_scan_report") as sp:
        rep = zero_scan_report(a["q"], a["alpha"], a["T"])
        sp.update(scans=1, perturbed=int(rep["perturbed"]))
    return rep


def check_zero_scan(a, rep):
    expect(rep["total_zeros"] == 0, f"{rep['total_zeros']} zeros counted")
    expect(all(c["zeros"] == 0 for c in rep["per_character"]), "a character reports zeros")
    expect(len(rep["per_character"]) == euler_phi(a["q"]) - 1, "not every nonprincipal character")
    expect(rep["contour_min_abs_l"] > 0.0, "contour touches a zero")


def corrupt_zero_scan(a, rep):
    bad = dict(rep, total_zeros=1, per_character=[dict(c) for c in rep["per_character"]])
    bad["per_character"][0]["zeros"] = 1
    return bad


GRID_SIGMA, GRID_T = 9, 201  # l_grid_min's default grid


def run_grid(a, tr):
    with tr.span("lfunc", "l_grid_min") as sp:
        rep = l_grid_min(a["q"], a["alpha"], a["T"])
        sp["grid_points"] = GRID_SIGMA * GRID_T
    return rep


def check_grid(a, rep):
    expect(math.isfinite(rep["min_abs"]) and rep["min_abs"] > 0.0, "grid minimum not positive")
    at = rep["at"]
    chi = parse_label(at["character"])
    s = complex(at["sigma"], at["t"])
    expect(abs(abs(l_value_series(chi, s)) - rep["min_abs"]) <= 1e-8,
           "grid minimum disagrees with the series path at its own point")


def corrupt_grid(a, rep):
    return dict(rep, min_abs=0.0)


def run_l_value(a, tr):
    chi = make_chi(a["q"], a["comps"])
    with tr.span("lfunc", "l_value") as sp:
        with tr.span("characters", "chi.value_table") as sc:
            chi.value_table
            sc["values"] = a["q"]
        val = l_value(chi, complex(a["sigma"], a["t"]))
        sp["points"] = 1
    return val


def check_l_value(a, val):
    chi = make_chi(a["q"], a["comps"])
    ref = l_value_series(chi, complex(a["sigma"], a["t"]))
    expect(abs(val - ref) <= 1e-8, f"dual L paths differ by {abs(val - ref):.3g}")


def corrupt_l_value(a, val):
    return val + 1e-6


# ---------------------------------------------------------------------------
# psi-windows kinds
# ---------------------------------------------------------------------------


def run_window(a, tr):
    with tr.span("primes", "short_interval_check") as sp:
        rep = short_interval_check(a["q"], a["a"], a["x"], a["h"])
        sp["windows"] = 1
    return rep


def check_window(a, rep):
    counts = sieve_window(a["x"], a["x"] + a["h"], a["q"], a["a"])
    expect(rep.delta_psi == psi_from_counts(counts), "window psi differs from the numpy sieve")
    expect(rep.main_term == a["h"] / euler_phi(a["q"]), "main term != h/phi(q)")


def corrupt_window(a, rep):
    return dataclasses.replace(rep, delta_psi=rep.delta_psi + math.log(2))


def run_partition(a, tr):
    with tr.span("primes", "psi_by_class") as sp:
        classes = psi_by_class(a["x"], a["q"], with_counts=True)
        sp["partitions"] = 1
    return classes


def check_partition(a, classes):
    full = psi(a["x"], with_counts=True)
    expect(sorted(classes) == list(range(a["q"])), "not one entry per class")
    merged: Counter = Counter()
    for a_cls, pv in classes.items():
        merged.update(pv.counts)
        expect(pv.value == psi_from_counts(pv.counts), f"class {a_cls} value != its counts")
    expect(dict(merged) == full.counts, "classes do not merge into psi(x)")
    expect(psi_from_counts(merged) == full.value, "merged value != psi(x)")


def corrupt_partition(a, classes):
    bad = dict(classes)
    pv = bad[1 % a["q"]]
    counts = dict(pv.counts)
    p = next(iter(counts)) if counts else 2
    counts[p] = counts.get(p, 0) + 1
    bad[1 % a["q"]] = dataclasses.replace(pv, counts=counts, value=psi_from_counts(counts))
    return bad


KINDS = {
    "postnikov": (run_postnikov, check_postnikov, corrupt_postnikov),
    "char_sum": (run_char_sum, check_char_sum, corrupt_sum),
    "gauss": (run_gauss, check_gauss, corrupt_sum),
    "crt_restrict": (run_crt, check_crt, corrupt_crt),
    "decompose": (run_decompose, check_decompose, corrupt_decompose),
    "twisted_exact": (run_twisted, check_twisted, corrupt_sum),
    "twisted_float": (run_twisted, check_twisted, corrupt_sum),
    "dirichlet_poly": (run_dirichlet, check_dirichlet, corrupt_sum),
    "evaluate_big": (run_evaluate, check_evaluate, corrupt_evaluate),
    "vinogradov": (run_vinogradov, check_vinogradov, corrupt_plus_one),
    "korobov": (run_korobov, check_korobov, corrupt_korobov),
    "cli": (run_cli, check_cli, corrupt_cli),
    "zero_scan": (run_zero_scan, check_zero_scan, corrupt_zero_scan),
    "grid_min": (run_grid, check_grid, corrupt_grid),
    "l_value": (run_l_value, check_l_value, corrupt_l_value),
    "window": (run_window, check_window, corrupt_window),
    "partition": (run_partition, check_partition, corrupt_partition),
}


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------


def criterion2_instance(rng: random.Random):
    """One random double-sum instance, drawn as acceptance criterion 2 draws them."""
    d = rng.randint(2, 4)
    coeffs = []
    for _ in range(d):
        den = rng.randint(1, 50)
        coeffs.append(Fraction(rng.randint(-3 * den, 3 * den), den))
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1, rng.randint(2, 50))
    return coeffs, rng.randint(2, 25), rng.randint(1, 3)


def rational_G(rng: random.Random, den: int, degree: int):
    """G(x) = (c_1 x + .. + c_deg x^deg)/den with seeded numerators."""
    return [Fraction(0)] + [Fraction(rng.randrange(den), den) for _ in range(degree - 1)] \
        + [Fraction(rng.randrange(1, den), den)]


# Sizes follow a fixed schedule: slot i of n in round r sits in the i-th of n
# equal strata of [0, 1), shifted each round by a golden-ratio rotation.
# Every seed therefore asks for the same sizes (moduli, window lengths, x, h,
# T, alpha, denominators), the stated input size of a run, and percentiles
# fall inside dense clusters of operations; the seed draws the content
# (characters, offsets, residues, coefficients, classes).
GOLDEN = 0.6180339887498949
DENOMINATORS = (9973, 5000, 7919, 1024, 3125, 6561, 2310, 8191, 4096, 9999)


def slot(r: int, i: int = 0, n: int = 1, rotation: float = GOLDEN) -> float:
    return (i + (r * rotation) % 1.0) / n


def log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def pick(seq, r: int, i: int = 0, n: int = 1):
    return seq[int(len(seq) * slot(r, i, n))]


def cli_commands(r: int, rng: random.Random, spec_path: str) -> list[list[str]]:
    """The acceptance criterion-10 commands plus the other sum/bound commands,
    with sizes from the schedule and seeded characters, offsets and phases."""
    u = slot(r)
    q = (243, 729)[r % 2]
    return [
        ["char-sum", "--q", str(q), "--chi", f"primitive:{rng.randrange(4 * q // 9)}",
         "--M", str(rng.randrange(1000)), "--N", str(100 + int(900 * u))],
        ["vmvt-count", "3", "4", str(5 + r % 5)],
        ["decompose", "--q", "81", "--chi", f"primitive:{rng.randrange(36)}", "--M", "0",
         "--N", "162", "--s", "2", "--G", f"0,1/{2 + r % 10}"],
        ["bound-compare", "--xi0", "0.05", "--format", "csv"],
        ["postnikov-verify", "--q", str((81, 243)[r // 2 % 2])],
        ["twisted-sum", "--q", "7", "--chi", f"index:{rng.randrange(1, 6)}", "--M", "0",
         "--N", "7", "--G", "0,1/7"],
        ["dirichlet-poly", "--q", "27", "--chi", f"primitive:{rng.randrange(12)}",
         "--M", "100", "--N", str(100 + int(900 * u)), "--t", f"{rng.uniform(1, 20):.3f}"],
        ["lfunc-eval", "--q", "3", "--chi", "quadratic", "--sigma", f"{rng.uniform(0.6, 2):.3f}"],
        ["korobov-check", "--spec", spec_path],
        ["ford-bound", "--d", str(129 + int(71 * u)), "--P", str(5 + r % 16)],
        ["zfr-params", "--q", "729", "--eta", "0.05", "--T", "10", "--M", "100"],
    ]


def char_lab_round(r: int, rng: random.Random, ctx: dict) -> list[Op]:
    """30 operations, among them all 11 CLI commands.  The mix places the
    percentiles inside dense clusters: about 10 operations take under 4 ms,
    so the 5 Gauss sums (value tables of 150 < p < 200) and the 6 lightest
    CLI commands, all 4-8 ms, hold the median, and the four float twisted
    windows, ranked just below the exact one, hold p90."""
    ops = []

    def char_op(kind, q, primitive=False, nonprincipal=False, **extra):
        comps = random_components(rng, q, primitive, nonprincipal)
        ops.append(Op(kind, dict(q=q, comps=comps, oracle_seed=rng.random(), **extra)))

    char_op("postnikov", CHAR_LAB_MODULI[r % len(CHAR_LAB_MODULI)], primitive=True)
    char_op("char_sum", CHAR_LAB_MODULI[(r + 5) % len(CHAR_LAB_MODULI)],
            M=rng.randrange(10**6))
    for i in range(5):
        char_op("gauss", pick(GAUSS_PRIMES, r, i, 5), primitive=True)
    q = MIXED[r % len(MIXED)]
    r_part = q & -q if r % 2 == 0 else q // (q & -q)  # the 2-part or the 3-part
    char_op("crt_restrict", q, k=unit_mod(rng, r_part), r=r_part)
    char_op("decompose", DECOMPOSE_MODULI[r % len(DECOMPOSE_MODULI)], primitive=True,
            M=rng.randrange(10**4), N=50 + int(200 * slot(r)), s=2,
            G=rational_G(rng, 2 + r % 11, 1 + r % 2))
    # One exact window just below the exact/float switch, on a large modulus,
    # and four float windows just above it, on small moduli whose value
    # tables cost little: the float windows hold p90 and stay alike.  The
    # characters are primitive, so their order, which sets the cost of the
    # exact angle arithmetic, barely varies with the seed.
    N = EXACT_SWITCH - int(0.1 * EXACT_SWITCH * slot(r))
    char_op("twisted_exact", EXACT_MODULI[r % len(EXACT_MODULI)], primitive=True,
            M=rng.randrange(10**6), N=N, G=rational_G(rng, DENOMINATORS[r % len(DENOMINATORS)], 1 + r % 3))
    for i in range(4):
        N = EXACT_SWITCH + 1 + int(0.05 * EXACT_SWITCH * slot(r, i, 4))
        char_op("twisted_float", FLOAT_MODULI[(4 * r + i) % len(FLOAT_MODULI)], primitive=True,
                M=rng.randrange(10**6), N=N,
                G=rational_G(rng, DENOMINATORS[(r + i + 1) % len(DENOMINATORS)], 2))
    char_op("dirichlet_poly", CHAR_LAB_MODULI[(r + 2) % len(CHAR_LAB_MODULI)],
            M=rng.randrange(10**6), N=int(log_between(10**4, 10**5, slot(r))),
            t=rng.uniform(0.5, 50.0))
    for i in range(2):
        q = BIG_MODULI[(2 * r + i) % len(BIG_MODULI)]
        char_op("evaluate_big", q, nonprincipal=True, n=unit_mod(rng, q))
    coeffs, P, k = criterion2_instance(rng)
    ops.append(Op("korobov", dict(coeffs=[str(c) for c in coeffs], k=k, P=P)))
    _, P, k = criterion2_instance(rng)
    ops.append(Op("vinogradov", dict(k=k, d=rng.randint(2, 4), P=P)))
    for argv in cli_commands(r, rng, ctx["spec_path"]):
        ops.append(Op("cli", dict(argv=argv)))
    return ops


def lfunc_round(r: int, rng: random.Random, ctx: dict) -> list[Op]:
    """One rectangle (zero scan and grid scan) and 8 dual-path L values.  The
    two scans, 20 % of the operations, hold p90; the L values hold p50."""
    q = LFUNC_MODULI[r % len(LFUNC_MODULI)]
    T = 3.0 + 7.0 * slot(r)
    alpha = 0.85 + 0.1 * slot(r, rotation=0.7548776662466927)
    ops = [Op("zero_scan", dict(q=q, alpha=alpha, T=T)),
           Op("grid_min", dict(q=q, alpha=alpha, T=T))]
    for i in range(8):
        ql = LFUNC_MODULI[(r + i) % len(LFUNC_MODULI)]
        comps = random_components(rng, ql, primitive=True)
        ops.append(Op("l_value", dict(q=ql, comps=comps, sigma=rng.uniform(0.6, 2.0),
                                      t=50.0 * slot(r, i, 8))))
    return ops


def psi_round(r: int, rng: random.Random, ctx: dict) -> list[Op]:
    """10 short windows with x spread over [1e6, 1e8] and h over [1e4, 1e6],
    and 3 full partitions with x spread over [1e5, 1e6]."""
    ops = []
    for i in range(10):
        q = 3 + int(97 * slot(r, 7 * i % 10, 10))
        x = int(log_between(10**6, 10**8, slot(r, i, 10)))
        h = int(log_between(10**4, 10**6, slot(r, 3 * i % 10, 10)))
        ops.append(Op("window", dict(q=q, a=unit_mod(rng, q), x=x, h=h)))
    for i in range(3):
        x = int(log_between(10**5, 10**6, slot(r, i, 3)))
        ops.append(Op("partition", dict(x=x, q=rng.randint(2, 100))))
    return ops


# workload -> (round function, seconds one round takes at the baseline commit,
#              rounds per cycle of the cost schedule)
ROUNDS = {
    "char-lab": (char_lab_round, 3.7, 1),
    "lfunc-scan": (lfunc_round, 1.6, len(LFUNC_MODULI)),
    "psi-windows": (psi_round, 1.4, 1),
}


def planned_rounds(workload: str, seconds: float) -> int:
    """Whole cycles of rounds that take about ``seconds`` at the baseline.

    A run does a fixed amount of work for a given seed and length, so that a
    faster program finishes the same operations sooner."""
    _, round_s, cycle = ROUNDS[workload]
    return cycle * max(1, round(seconds / (round_s * cycle)))


def stream(workload: str, seed: int, ctx: dict):
    """Endless seeded stream of ``workload``: one list of operations per round."""
    rng = random.Random(f"{workload}:{seed}")
    build = ROUNDS[workload][0]
    r = 0
    while True:
        yield build(r, rng, ctx)
        r += 1


# ---------------------------------------------------------------------------
# Warm-up: fill the per-prime-power caches once, as a campaign user would
# ---------------------------------------------------------------------------


def warm_up(workload: str, ctx: dict):
    rng = random.Random(0)
    if workload == "char-lab":
        for q in CHAR_LAB_MODULI:
            chi = make_chi(q, random_components(rng, q, primitive=True))
            find_postnikov_m(chi, minimal_postnikov_degree(q))
        for q in MIXED + DECOMPOSE_MODULI + BIG_MODULI + PRIME_POWERS:
            make_chi(q, random_components(rng, q)).evaluate(1)
        Path(ctx["spec_path"]).write_text('{"coefficients": ["0", "1/5", "2/7"], "k": 2, "P": 10}')
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["ford-bound", "--d", "129", "--P", "10"])
    elif workload == "lfunc-scan":
        for q in LFUNC_MODULI:
            l_value(make_chi(q, random_components(rng, q, primitive=True)), 2.0)
    else:
        short_interval_check(27, 1, 10**6, 10**4)
        psi_by_class(10**4, 7)
