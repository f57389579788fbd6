"""The benchmark's oracles accept true output and reject corrupted output."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from corechar import expsums

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert res.stdout.rstrip().endswith("self-test: PASS")


def test_twisted_exact_switch_is_the_benchmarks(monkeypatch):
    """char-lab's twisted_exact and twisted_float windows are built to
    straddle twisted_sum's exact/float switch, so the two must move together."""
    spec = importlib.util.spec_from_file_location("perfbench_ops", ROOT / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ops)  # its dataclasses look their module up
    spec.loader.exec_module(ops)
    assert expsums._TWISTED_EXACT_CAP == ops.EXACT_SWITCH
