"""CLI dispatch: schemas, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from corechar.characters import enumerate_characters
from corechar.cli import build_parser, emit_json, main, parse_character, parse_polynomial


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "corechar.cli", *args],
                          capture_output=True, text=True)


def test_vmvt_count_schema():
    res = run_cli(["vmvt-count", "2", "2", "3"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["schema"] == 1
    assert data["N"] == "15"
    assert data["config"]["b"] == 2.4


def test_char_sum_principal():
    res = run_cli(["char-sum", "--q", "9", "--chi", "principal", "--M", "0", "--N", "9"])
    data = json.loads(res.stdout)
    assert data["abs"] == 6
    assert data["mode"] == "exact"


def test_unknown_flag_usage_error():
    res = run_cli(["char-sum", "--q", "9", "--chi", "principal", "--M", "0",
                   "--N", "9", "--bogus", "1"])
    assert res.returncode == 2
    assert res.stdout == ""


def test_unknown_command_usage_error():
    res = run_cli(["not-a-command"])
    assert res.returncode == 2


def test_computation_error_exit_code():
    res = run_cli(["lfunc-eval", "--q", "9", "--chi", "principal",
                   "--sigma", "1.0", "--t", "0.0"])
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert res.stdout == ""
    # an overflowed float sum reports the error alone, without numpy's warnings
    res = run_cli(["twisted-sum", "--q", "9", "--chi", "index:1", "--M", "0", "--N", "100000",
                   "--G", "0,0,1e300"])
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    # zeros on the contour (alpha = 1/2, L(s, chi_3) at 1/2 +- 8.04i) are not counted
    res = run_cli(["zero-scan", "--q", "3", "--alpha", "0.5", "--T", "10"])
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "error: winding numbers failed to stabilize\n", res.stderr


def test_nan_constant_is_an_error(capsys):
    argv = ["psi-progression", "--q", "27", "--a", "1", "--x", "1000", "--h", "100"]
    assert main(argv + ["--b", "nan"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "b must be positive" in out.err
    assert main(argv + ["--eps", "nan"]) == 1
    assert "eps > 0" in capsys.readouterr().err


def test_psi_progression_past_int64(capsys):
    """A modulus past int64 is answered exactly: the window holds a mod q
    alone, if anything."""
    argv = ["psi-progression", "--q", str(2**64 + 1), "--x", "1000", "--h", "100"]
    assert main(argv + ["--a", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q"] == 2**64 + 1 and data["delta_psi"] == 0 and data["empty_interval"]
    assert main(argv + ["--a", "1009"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta_psi"] == float(f"{math.log(1009):.15g}") and not data["empty_interval"]


_WINDOW = ["--q", "9", "--chi", "index:1", "--M", "0", "--N", "10"]


@pytest.mark.parametrize("argv", [
    ["lfunc-eval", "--q", "9", "--chi", "index:1", "--sigma", "nan"],
    ["lfunc-eval", "--q", "9", "--chi", "index:1", "--sigma", "inf"],
    ["lfunc-eval", "--q", "9", "--chi", "index:1", "--sigma", "0.5", "--t", "inf"],
    ["dirichlet-poly", *_WINDOW, "--t", "nan"],
    ["twisted-sum", *_WINDOW, "--G", "0,1e400"],
    ["decompose", *_WINDOW, "--s", "2", "--G", "0,1e400"],
    ["zfr-params", "--q", "729", "--eta", "0.05", "--T", "5", "--M", "nan"],
    ["zfr-params", "--q", "729", "--eta", "0.05", "--T", "nan", "--M", "100"],
    ["zero-scan", "--q", "27", "--alpha", "0.9", "--T", "nan"],
    ["zero-scan", "--q", "27", "--alpha", "0.9", "--T", "inf"],
    # finite points far right, where a Hurwitz power (a/q)^-sigma overflows
    ["lfunc-eval", "--q", "243", "--chi", "index:1", "--sigma", "200"],
    ["lfunc-eval", "--q", "243", "--chi", "index:1", "--sigma", "1e6"],
])
def test_non_finite_number_is_an_error(argv, capsys):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "finite" in out.err


@pytest.mark.parametrize("arg,spec", [
    ('{"components": []}', None),
    ("[1]", None),
    ('{"q": 9, "components": 5}', None),
    ('{"q": 9, "components": [{"p": 3, "gamma": 2, "exponents": ["a"]}]}', None),
    (None, {"coefficients": ["0", "1/5"], "k": 2}),
    (None, [["0", "1/5"], 2, 10]),
    (None, {"coefficients": ["0", "1/5"], "k": "2", "P": 10}),
    (None, {"coefficients": ["0", None], "k": 2, "P": 10}),
    # finite numbers whose float sum overflows to NaN
    (["twisted-sum", "--q", "9", "--chi", "index:1", "--M", "0", "--N", "100000",
      "--G", "0,0,1e300"], None),
    (["dirichlet-poly", "--q", "9", "--chi", "index:1", "--M", "0", "--N", "100",
      "--t", "1e308"], None),
    # L points whose Hurwitz block would not fit in memory
    (["lfunc-eval", "--q", "3", "--chi", "quadratic", "--sigma", "1", "--t", "1e12"], None),
    (["lfunc-eval", "--q", "3", "--chi", "quadratic", "--sigma", "1", "--t", "1e300"], None),
    # a double sum of P^2 = 10^10 pairs, refused before it is built
    (None, {"coefficients": ["1/3", "1/5"], "k": 1, "P": 100000}),
])
def test_malformed_input_is_an_error(arg, spec, tmp_path, capsys):
    """arg is a character object for char-sum, a whole argv, or None for a
    korobov-check spec."""
    if isinstance(arg, list):
        argv = arg
    elif arg is not None:
        argv = ["char-sum", "--q", "9", "--chi", arg, "--M", "0", "--N", "9"]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["korobov-check", "--spec", str(path)]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


@pytest.mark.parametrize("flags,named", [
    (["--base", "0"], "--base must be >= 2"),
    (["--base", "-3"], "--base must be >= 2"),
    (["--base", "1"], "--base must be >= 2"),
    (["--gammas", "0"], "--gammas must each be >= 1"),
    (["--gammas", "-1"], "--gammas must each be >= 1"),
    (["--gammas", "100,0"], "--gammas must each be >= 1"),
])
def test_bound_compare_refuses_bad_base_or_gamma(flags, named, monkeypatch, capsys):
    """A base below 2 or a gamma below 1 is refused by name before any row
    is computed."""
    from corechar import cli

    rows = []
    monkeypatch.setattr(cli, "nontriviality_threshold_main", lambda *a: rows.append(a))
    assert main(["bound-compare", *flags]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {named}")
    assert rows == []


def test_determinism_repeated_runs():
    cmds = [
        ["vmvt-count", "3", "3", "5"],
        ["char-sum", "--q", "27", "--chi", "index:1", "--M", "3", "--N", "50"],
        ["zfr-params", "--q", "729", "--eta", "0.05", "--T", "5", "--M", "100"],
        ["bound-compare", "--xi0", "0.05", "--format", "csv"],
        ["psi-progression", "--q", "27", "--a", "1", "--x", "50000", "--h", "5000"],
    ]
    for cmd in cmds:
        a = run_cli(cmd)
        b = run_cli(cmd)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("grid", [False, True])
def test_zero_scan_without_nonprincipal_characters(q, grid, capsys):
    argv = ["zero-scan", "--q", str(q), "--alpha", "0.9", "--T", "5"]
    assert main(argv + ["--confirm-grid"] * grid) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total_zeros"] == 0 and data["per_character"] == []
    assert data["contour_min_abs_l"] == "inf"
    if grid:
        assert data["grid_min_abs_l"] == "inf" and data["grid_min_at"] is None


def test_korobov_check_spec_file(tmp_path):
    spec = tmp_path / "korobov.json"
    spec.write_text(json.dumps({"coefficients": ["0", "1/5"], "k": 2, "P": 10}))
    res = run_cli(["korobov-check", "--spec", str(spec)])
    data = json.loads(res.stdout)
    assert data["holds"] is True
    assert data["d"] == 2
    # N_{2,2}(10): the two power sums pin the multiset {y1, y2}, so the
    # count is 10 singleton multisets * 1 + 45 two-element multisets * 4
    assert data["vinogradov_count"] == "190"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi0 = 0.05\nc0 = 3\n# comment\n")
    res = run_cli(["vmvt-count", "1", "1", "4", "--config", str(cfg)])
    data = json.loads(res.stdout)
    assert data["config"]["xi0"] == 0.05
    assert data["config"]["c0"] == 3.0


def test_parse_polynomial():
    poly = parse_polynomial("1/2, 3, 0.25")
    assert poly.eval_float(1.0) == pytest.approx(3.75)
    assert parse_polynomial(None).is_zero


def test_parse_character_specs():
    chi = parse_character("quadratic", 27)
    assert chi.order == 2
    chi = parse_character("primitive:0", 27)
    assert chi.is_primitive
    inline = json.dumps({"q": 9, "components": [{"p": 3, "gamma": 2, "exponents": [1]}]})
    chi = parse_character(inline, 9)
    assert str(chi.evaluate(2)) == "1/6"
    with pytest.raises(ValueError):
        parse_character("index:99", 9)


@pytest.mark.parametrize("q", [1, 2, 8, 72, 243])
def test_parse_character_rows_are_enumeration_order(q):
    """'index:K' and 'primitive:K' build the character at K of the full and
    of the primitive enumeration, and refuse K past either end."""
    for kind, primitive_only in (("index", False), ("primitive", True)):
        chis = enumerate_characters(q, primitive_only=primitive_only)
        assert [parse_character(f"{kind}:{k}", q) for k in range(len(chis))] == chis
        for k in (-1, len(chis)):
            with pytest.raises(ValueError, match="out of range"):
                parse_character(f"{kind}:{k}", q)


def test_emit_json_formatting():
    out = emit_json({"x": 1.0 / 3.0, "big": str(10**30), "flag": True, "none": None})
    assert out == '{"x":0.333333333333333,"big":"1000000000000000000000000000000","flag":true,"none":null}'
    assert emit_json({"inf": math.inf, "neg": -0.0}) == '{"inf":"inf","neg":0}'


def test_lfunc_eval_value():
    res = run_cli(["lfunc-eval", "--q", "3", "--chi", "quadratic", "--sigma", "1.0"])
    data = json.loads(res.stdout)
    assert abs(data["value_re"] - math.pi / 3**1.5) < 1e-8


def test_main_in_process(capsys):
    rc = main(["vmvt-count", "2", "1", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["N"] == "6"


def test_one_parser_per_process(capsys):
    """The parser is built once and reused: a call that fails to parse and a
    call with a config override leave the next call's stdout as it was."""
    assert build_parser() is build_parser()
    argv = ["char-sum", "--q", "27", "--chi", "index:1", "--M", "3", "--N", "50"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bogus", "1"])
    assert exc.value.code == 2
    assert main(argv + ["--xi0", "0.2"]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == first


_SUM_GOLDEN = [json.loads(line) for line in
               (Path(__file__).parent / "golden" / "sum_commands.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("record", _SUM_GOLDEN,
                         ids=[f"{i}-{r['argv'][0]}" for i, r in enumerate(_SUM_GOLDEN)])
def test_sum_commands_golden_stdout(record, tmp_path, capsys):
    """Stdout of the sum commands, byte for byte; a ``{spec}`` argument is
    the record's ``spec`` written to a file."""
    argv = record["argv"]
    if "spec" in record:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(record["spec"]))
        argv = [str(spec) if a == "{spec}" else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == record["stdout"]


@pytest.mark.parametrize("q,digest", [
    (2592, "fe2105d86084ffeee69196f65ff4b644480f70cd311c623dad2f0ceb8351fd06"),
    (6561, "2f77428bcc8cdede0403a601f62a61119b0ac058caa3b99014ad70f829f64610"),
], ids=["2592", "6561"])
def test_postnikov_verify_stdout_digest(q, digest, capsys):
    """``postnikov-verify`` stdout byte for byte, pinned by its SHA-256: 288
    rows (18,477 bytes) at 2592 and 2,916 rows (183,172 bytes) at 6561, too
    large for tests/golden."""
    assert main(["postnikov-verify", "--q", str(q)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
