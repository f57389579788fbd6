"""Time the single calls that ROADMAP.md quotes in its baseline.

    python3 perfbench/crosscheck.py

Each call is timed three times in this process (the CLI as cold child
processes) and the median is printed beside the ROADMAP figure.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from corechar.lfunc import l_grid_min, zero_scan_report  # noqa: E402
from corechar.primes import short_interval_check  # noqa: E402

REPEATS = 3


def median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_cold():
    subprocess.run([sys.executable, "-m", "corechar.cli", "zfr-params", "--q", "729",
                    "--eta", "0.05", "--T", "10", "--M", "100"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True)


CHECKS = [
    ("short_interval_check(27, 1, 1e8, 1e5)", 0.53,
     lambda: short_interval_check(27, 1, 10**8, 10**5)),
    ("zero_scan_report(27, 0.9, 10)", 1.1, lambda: zero_scan_report(27, 0.9, 10.0)),
    ("l_grid_min(27, 0.9, 10)", 0.4, lambda: l_grid_min(27, 0.9, 10.0)),
    ("CLI cold start (zfr-params)", 0.37, cli_cold),
]

if __name__ == "__main__":
    print(f"{'call':42s} {'ROADMAP s':>10s} {'measured s':>11s} {'ratio':>6s}")
    for name, roadmap, fn in CHECKS:
        got = median_s(fn)
        print(f"{name:42s} {roadmap:10.2f} {got:11.3f} {got / roadmap:6.2f}")
