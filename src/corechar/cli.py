"""Command-line front door.

Every subcommand prints one deterministic report to stdout (JSON by
default, CSV for the tabular comparisons) with the full constants block
echoed, a schema tag, and 15-significant-digit numeric fields; exact
counts are serialized as decimal strings.  Exit codes: 0 success, 1
computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .arith import as_modulus
from .characters import (DirichletCharacter, character_rows, characters_of_rows, enumerate_characters,
                         principal_character, quadratic_character)
from .config import DEFAULT_CONFIG, RunConfig
from .expsums import RealPolynomial, char_sum, decompose, dirichlet_poly, twisted_sum
from .lfunc import (
    l_grid_min,
    l_value,
    vartheta_shape,
    zero_free_params,
    zero_scan_report,
)
from .postnikov import (
    _check_multipliers,
    main_bound_log,
    minimal_postnikov_degree,
    nontriviality_threshold_iwaniec,
    nontriviality_threshold_main,
    postnikov_multipliers,
)
from .primes import psi, short_interval_check
from .vinogradov import count_vinogradov, ford_bound, ford_k_search, korobov_check

SCHEMA_VERSION = 1
# the argparse dest of each RunConfig field, whose flag is --<dest> with _ as -;
# the constant a is --const-a because psi-progression's residue is --a
_CONFIG_DESTS = {f.name: "const_a" if f.name == "a" else f.name for f in fields(RunConfig)}


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".15g")


def emit_json(obj) -> str:
    """Order-preserving JSON with floats at 15 significant digits."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def emit_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".15g") if isinstance(v, float) else str(v)
                              for v in (row[key] for key in header)))
    return "\n".join(lines) + "\n"


def _report(command: str, config: RunConfig, payload: dict) -> dict:
    out = {"schema": SCHEMA_VERSION, "command": command, "config": config.as_dict()}
    out.update(payload)
    return out


def _sum_payload(result) -> dict:
    return {
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "abs": result.abs,
        "terms": str(result.term_count),
        "mode": result.mode,
    }


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def parse_character(spec: str, q) -> DirichletCharacter:
    """'principal', 'quadratic', 'index:K', 'primitive:K', or inline JSON; the
    index forms build only row K of the (primitive) ``character_rows``."""
    mod = as_modulus(q)
    if spec == "principal":
        return principal_character(mod)
    if spec == "quadratic":
        return quadratic_character(mod)
    kind, _, idx = spec.partition(":")
    if kind in ("index", "primitive"):
        idx = int(idx)
        E, _, primitive = character_rows(mod)
        rows = E[primitive] if kind == "primitive" else E
        if not 0 <= idx < len(rows):
            what = "index" if kind == "index" else "primitive index"
            raise ValueError(f"{what} {idx} out of range 0..{len(rows) - 1}")
        return characters_of_rows(mod, rows[idx:idx + 1])[0]
    data = json.loads(spec)
    chi = DirichletCharacter.from_dict(data)
    if chi.q != mod.q:
        raise ValueError("character modulus disagrees with --q")
    return chi


def parse_polynomial(spec: Optional[str]) -> RealPolynomial:
    """Comma-separated coefficients, constant first; fractions allowed."""
    if not spec:
        return RealPolynomial.zero()
    coeffs = []
    for tok in spec.split(","):
        tok = tok.strip()
        if "/" in tok:
            coeffs.append(Fraction(tok))
        elif "." in tok or "e" in tok or "E" in tok:
            coeffs.append(float(tok))
        else:
            coeffs.append(Fraction(int(tok)))
    return RealPolynomial.make(coeffs)


def parse_number(text: str):
    """An integer literal as the exact int it names, anything else as a
    float: 10**17 + 1 stays itself, where float("100000000000000001")
    rounds to 10^17."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else DEFAULT_CONFIG
    overrides = {name: getattr(args, dest, None) for name, dest in _CONFIG_DESTS.items()}
    return cfg.with_overrides(**overrides)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _window(args) -> tuple[DirichletCharacter, dict]:
    """The character of a window command and the head of its report."""
    chi = parse_character(args.chi, args.q)
    return chi, {"q": args.q, "chi": chi.label(), "M": args.M, "N": args.N}


def cmd_char_sum(args, cfg: RunConfig) -> dict:
    chi, head = _window(args)
    return _report("char-sum", cfg, {**head, **_sum_payload(char_sum(chi, args.M, args.N))})


def cmd_twisted_sum(args, cfg: RunConfig) -> dict:
    chi, head = _window(args)
    poly = parse_polynomial(args.G)
    res = twisted_sum(chi, args.M, args.N, poly)
    return _report("twisted-sum", cfg, {**head, "G": [str(c) for c in poly.coefficients],
                                        **_sum_payload(res)})


def cmd_dirichlet_poly(args, cfg: RunConfig) -> dict:
    chi, head = _window(args)
    res = dirichlet_poly(chi, args.M, args.N, args.t)
    return _report("dirichlet-poly", cfg, {**head, "t": args.t, **_sum_payload(res)})


def cmd_decompose(args, cfg: RunConfig) -> dict:
    chi, head = _window(args)
    poly = parse_polynomial(args.G)
    res = decompose(chi, args.M, args.N, poly, args.s,
                    residual_constant=cfg.korobov_residual_constant,
                    work_budget=cfg.work_budget)
    return _report("decompose", cfg, {
        **head, "s": args.s, "G": [str(c) for c in poly.coefficients],
        "v_re": res.v_value.real, "v_im": res.v_value.imag,
        "reconstruction_re": res.reconstruction.real,
        "reconstruction_im": res.reconstruction.imag,
        "s_re": res.s_value.real, "s_im": res.s_value.imag,
        "residual": res.residual, "allowance": res.allowance,
        "holds": res.holds, "coprime_count": str(res.coprime_count),
        "terms": str(res.term_count),
    })


def cmd_postnikov_verify(args, cfg: RunConfig) -> dict:
    mod = as_modulus(args.q)
    d = args.d if args.d is not None else minimal_postnikov_degree(mod)
    E, _, primitive = character_rows(mod)
    E = E[primitive]
    ms = postnikov_multipliers(mod, d, E)
    _check_multipliers(mod, d, E, ms)
    rows = [{"index": idx, "character": chi.label(), "m": str(m)}
            for idx, (chi, m) in enumerate(zip(characters_of_rows(mod, E), ms))]
    return _report("postnikov-verify", cfg, {
        "q": args.q, "d": d, "tau": mod.tau, "core": str(mod.core),
        "primitive_characters": len(rows), "verified": True, "multipliers": rows,
    })


def cmd_bound_compare(args, cfg: RunConfig):
    gammas = [int(g) for g in args.gammas.split(",")]
    base = args.base
    if base < 2:
        raise ValueError(f"--base must be >= 2, got {base}")
    if min(gammas) < 1:
        raise ValueError(f"--gammas must each be >= 1, got {min(gammas)}")
    rows = []
    for gamma in gammas:
        q = base**gamma
        lq = gamma * math.log(base)
        main_log = nontriviality_threshold_main(q, cfg.xi0)
        iw_log = nontriviality_threshold_iwaniec(q, cfg.a, cfg.xi0)
        rows.append({
            "gamma": gamma,
            "base": base,
            "log_q": lq,
            "xi0": cfg.xi0,
            "a": cfg.a,
            "main_threshold_log_n": main_log,
            "iwaniec_threshold_log_n": iw_log,
            "main_is_smaller": main_log < iw_log,
            "main_over_logq_23": main_log / lq ** (2.0 / 3.0),
            "main_over_logq_34": main_log / lq ** 0.75,
        })
    if args.format == "csv":
        return emit_csv(rows)
    return _report("bound-compare", cfg, {"rows": rows})


def cmd_vmvt_count(args, cfg: RunConfig) -> dict:
    n = count_vinogradov(args.k, args.d, args.P)
    return _report("vmvt-count", cfg, {"k": args.k, "d": args.d, "P": args.P,
                                       "N": str(n)})


def cmd_korobov_check(args, cfg: RunConfig) -> dict:
    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("the spec file must hold a JSON object")
    coeffs, k, P, bound = (spec.get(key) for key in ("coefficients", "k", "P", "denominator_bound"))
    if not (isinstance(coeffs, list) and all(isinstance(c, (int, float, str)) for c in coeffs)):
        raise ValueError('spec "coefficients" must be a list of numbers and fraction strings')
    if not (isinstance(k, int) and isinstance(P, int) and (bound is None or isinstance(bound, int))):
        raise ValueError('spec "k" and "P" must be integers and "denominator_bound" '
                         'an integer or null')
    rep = korobov_check([Fraction(c) if isinstance(c, str) else c for c in coeffs], k, P,
                        denominator_bound=bound)
    return _report("korobov-check", cfg, {
        "k": rep.k, "d": rep.d, "P": rep.P, "Q": str(rep.Q), "W": rep.W,
        "s_abs": rep.s_abs, "lhs": rep.lhs, "rhs": rep.rhs,
        "lhs_log": rep.lhs_log, "rhs_log": rep.rhs_log, "holds": rep.holds,
        "vinogradov_count": str(rep.vinogradov_count),
        "approximations": [
            {"a": str(a), "b": str(b), "theta": th}
            for a, b, th in rep.coefficient_approximations
        ],
    })


def cmd_ford_bound(args, cfg: RunConfig) -> dict:
    if args.k is not None:
        lb = ford_bound(args.d, args.P, args.k)
        return _report("ford-bound", cfg, {
            "d": args.d, "P": args.P, "k": args.k, "log_bound": lb,
            "meets_lemma_range": args.d >= 129,
        })
    rep = ford_k_search(args.d, args.P)
    return _report("ford-bound", cfg, {
        "d": rep.d, "P": rep.P, "k": rep.k, "log_bound": rep.log_bound,
        "k_range": list(rep.k_range), "meets_lemma_range": rep.meets_lemma_range,
    })


def cmd_lfunc_eval(args, cfg: RunConfig) -> dict:
    chi = parse_character(args.chi, args.q)
    s = complex(args.sigma, args.t)
    val = l_value(chi, s)
    return _report("lfunc-eval", cfg, {
        "q": args.q, "chi": chi.label(), "sigma": args.sigma, "t": args.t,
        "value_re": val.real, "value_im": val.imag, "abs": abs(val),
    })


def cmd_zero_scan(args, cfg: RunConfig) -> dict:
    rep = zero_scan_report(args.q, args.alpha, args.T)
    payload = {
        "q": args.q, "alpha": args.alpha, "T": args.T,
        "alpha_used": rep["alpha_used"], "perturbed": rep["perturbed"],
        "contour_min_abs_l": rep["contour_min_abs_l"],
        "total_zeros": rep["total_zeros"],
        "per_character": rep["per_character"],
    }
    if args.confirm_grid:
        grid = l_grid_min(args.q, args.alpha, args.T)
        payload["grid_min_abs_l"] = grid["min_abs"]
        payload["grid_min_at"] = grid["at"]
    return _report("zero-scan", cfg, payload)


def cmd_zfr_params(args, cfg: RunConfig) -> dict:
    params = zero_free_params(args.q, args.eta, args.T, args.M, A=cfg.A)
    return _report("zfr-params", cfg, asdict(params))


def cmd_psi_progression(args, cfg: RunConfig) -> dict:
    rep = short_interval_check(args.q, args.a, args.x, args.h,
                               b=cfg.b, eps=args.eps, c0=cfg.c0)
    return _report("psi-progression", cfg, asdict(rep))


def cmd_report_all(args, cfg: RunConfig) -> dict:
    """A bounded battery of reported-not-asserted trend tables."""
    payload: dict = {}

    # character sums vs the main bound shape (data, not an assertion)
    emp_rows = []
    for gamma in (3, 4, 5):
        q = 3**gamma
        chi = enumerate_characters(q, primitive_only=True)[0]
        for N in (q // 3, q // 2, q - 1):
            s_abs = char_sum(chi, 0, N).abs
            emp_rows.append({
                "q": q, "N": N, "abs_sum": s_abs,
                "main_bound_log": main_bound_log(q, N, cfg.xi0),
            })
    payload["char_sum_vs_bound"] = emp_rows

    # |L(1, chi)| trend against (log q)^{2/3} (log log q)^{1/3}
    l_rows = []
    for gamma in range(3, 7):  # the shape denominator needs q >= 16
        q = 3**gamma
        best = 0.0
        for chi in enumerate_characters(q, primitive_only=True):
            best = max(best, abs(l_value(chi, 1.0)))
        denom = vartheta_shape(q, 1.0)
        l_rows.append({"gamma": gamma, "q": q, "max_abs_l1": best,
                       "ratio_to_shape": best * denom})
    payload["l1_trend"] = l_rows

    # psi(x)/x trend
    trend = []
    for k in range(4, 8):
        x = 10**k
        val = psi(x).value
        trend.append({"x": str(x), "psi_over_x_minus_1": val / x - 1.0})
    payload["psi_trend"] = trend
    return _report("report-all", cfg, payload)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        dest = _CONFIG_DESTS[f.name]
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=type(f.default),
                       help="the absolute constant a in the older bound" if f.name == "a" else None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` makes a fresh Namespace
    per call and no argument accumulates (no ``append`` action), so reusing
    it carries nothing from one ``main`` call to the next."""
    parser = argparse.ArgumentParser(
        prog="corechar",
        description="character sums, exponential sums and L-functions for "
                    "moduli with a small core",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_config_flags(p)
        p.set_defaults(func=fn)
        return p

    def add_window(name, fn):
        """A sum over the window (M, M+N] of a character mod q."""
        p = add(name, fn)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--chi", required=True)
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        return p

    add_window("char-sum", cmd_char_sum)
    p = add_window("twisted-sum", cmd_twisted_sum)
    p.add_argument("--G", help="polynomial coefficients, constant first")

    p = add_window("dirichlet-poly", cmd_dirichlet_poly)
    p.add_argument("--t", type=float, required=True)

    p = add_window("decompose", cmd_decompose)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--G")

    p = add("postnikov-verify", cmd_postnikov_verify)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int)

    p = add("bound-compare", cmd_bound_compare)
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--gammas", default="100,300,1000")
    p.add_argument("--format", choices=("json", "csv"))

    p = add("vmvt-count", cmd_vmvt_count)
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("P", type=int)

    p = add("korobov-check", cmd_korobov_check)
    p.add_argument("--spec", required=True, help="JSON file: coefficients, k, P")

    p = add("ford-bound", cmd_ford_bound)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--k", type=int)

    p = add("lfunc-eval", cmd_lfunc_eval)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)

    p = add("zero-scan", cmd_zero_scan)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--confirm-grid", action="store_true")

    p = add("zfr-params", cmd_zfr_params)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--M", type=float, required=True)

    p = add("psi-progression", cmd_psi_progression)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=parse_number, required=True)
    p.add_argument("--h", type=parse_number, required=True)
    p.add_argument("--eps", type=float, default=0.05)

    add("report-all", cmd_report_all)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        result = args.func(args, cfg)
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        sys.stdout.write(emit_json(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
