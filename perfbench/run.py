"""corechar benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload char-lab --seed 1 --seconds 30 --trace 0

Run from the root of a corechar checkout; the package is imported from
``src`` there, never from an installed copy.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it, ``run-info {...}``, records the versions,
thread settings, CPU count, git SHA, seed and operations per kind.

Every operation runs in one worker process, in a closed loop.  Set-up time
is the time from starting a worker until it has imported corechar and run
the workload's warm-up; it is sampled SETUP_SAMPLES times per run and the
median reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("char-lab", "lfunc-scan", "psi-windows")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
CHILD_TIMEOUT = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """The workers' environment: corechar from ``src``, and one BLAS thread
    unless the caller chose otherwise.  One thread does all the work, as the
    closed loop intends; with the default two OpenBLAS threads on a
    2-vCPU VM, lfunc-scan cycle times varied 9.3-12.5 s instead of
    9.5-10.4 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    return env


class Worker:
    """One worker process; ``setup_s`` is its start-to-ready time."""

    def __init__(self, args):
        cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(OUT)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if not line.startswith('{"event": "ready"}'):
            self.close()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self, command: str) -> str:
        out, _ = self.proc.communicate(command + "\n", timeout=CHILD_TIMEOUT)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_workers(args) -> tuple[list[float], dict]:
    """SETUP_SAMPLES workers set up; the last one also runs the workload."""
    setups = []
    for i in range(SETUP_SAMPLES):
        worker = Worker(args)
        try:
            setups.append(worker.setup_s)
            out = worker.finish("run" if i == SETUP_SAMPLES - 1 else "exit")
        finally:
            worker.close()
    return setups, json.loads(out.strip().splitlines()[-1])


def cli_import_s() -> float:
    """Median wall time of a bare ``import corechar.cli`` child."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import corechar.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


NUMPY_INFO = """import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration")}))"""


def run_info(args, result) -> dict:
    numpy_info = json.loads(subprocess.run(
        [sys.executable, "-c", NUMPY_INFO], capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT).stdout)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), **numpy_info,
        "blas_threads": {k: child_env()[k] for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "samples": result["attempted"], "ops_per_kind": result["ops_per_kind"],
        "failed_per_kind": result["failed_per_kind"], "failures": result["failures"],
        "kinds_not_run": result["kinds_not_run"],
        "rounds": result["rounds"], "busy_s": result["busy_s"],
        "busy_per_kind_s": result["busy_per_kind_s"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "corechar" / "__init__.py").is_file():
        print(f"error: no corechar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        setups, result = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = {"value": cli_import_s(), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": result["peak_rss_mib"], "unit": "MiB"}
    info = run_info(args, result)
    info["setup_samples_s"] = setups
    print("run-info " + json.dumps(info))
    correct = result["failed"] == 0 and not result["kinds_not_run"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
