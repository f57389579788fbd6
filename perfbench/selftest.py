"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

For every operation kind, and every CLI subcommand apart, takes the first
operation of its workload's stream, runs it, and checks that the oracle accepts the true output and
rejects the output with one deliberate defect (a multiplier off by one
modulus, one psi count off by one, a flipped byte of CLI output, ...).
Exits 1 if any oracle passes a corrupted output or fails a true one.
"""

from __future__ import annotations

import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import ops as opmod  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ctx = {"spec_path": str(Path(tmp) / "korobov_spec.json")}
        for workload in opmod.WORKLOADS:
            opmod.warm_up(workload, ctx)
            first: dict = {}
            rounds = itertools.islice(opmod.stream(workload, 0, ctx), 2)
            for op in itertools.chain.from_iterable(rounds):
                first.setdefault(op.label, op)
            for name, op in first.items():
                run, check, corrupt = opmod.KINDS[op.kind]
                out = run(op.args, Tracer(False))
                try:
                    check(op.args, out)
                    accepted = "accepts true output"
                except opmod.OracleError as exc:
                    accepted = f"REJECTS TRUE OUTPUT ({exc})"
                    bad += 1
                try:
                    check(op.args, corrupt(op.args, out))
                    rejected = "ACCEPTS CORRUPTED OUTPUT"
                    bad += 1
                except opmod.OracleError as exc:
                    rejected = f"rejects corrupted output ({exc})"
                print(f"{workload:12s} {name:22s} {accepted}; {rejected}")
    print("self-test:", "FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
