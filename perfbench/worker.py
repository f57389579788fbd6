"""Benchmark worker: one process that sets up, then runs one workload.

Started by ``run.py`` as ``python -m perfbench.worker`` from the checkout
root, with ``src`` on PYTHONPATH.  It imports corechar, runs the workload's
warm-up, prints ``{"event": "ready"}`` and waits for one line on stdin:
``exit`` ends a set-up probe, ``run`` starts the closed loop.  The result is
printed as one JSON line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import corechar  # noqa: F401  (set-up time includes this import)

from perfbench import ops as opmod
from perfbench.tracing import LAYERS, Tracer, layer_totals

# A run stops early, at a round boundary, once its operations have taken this
# many times --seconds, so that a much slower program still ends in time.
CAP_FACTOR = 2.0


class Loop:
    """Closed loop: one operation at a time, each timed on its own.  Its
    oracle runs right after it, outside the timed span."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: Counter = Counter()
        self.kind_busy: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: list[str] = []
        self.busy = 0.0
        self.rounds = 0

    def run_round(self, ops, tracer: Tracer):
        for op in ops:
            run, check, _ = opmod.KINDS[op.kind]
            tracer.op_id = len(self.latencies)
            t0 = time.perf_counter()
            try:
                out = run(op.args, tracer)
                error = None
            except Exception as exc:  # a failed call counts against error_rate
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    check(op.args, out)
                except Exception as exc:
                    error = f"oracle: {type(exc).__name__}: {exc}"
            if error is not None:
                self.failed[op.label] += 1
                tracer.mark_failed(tracer.op_id)
                if len(self.failures) < 5:
                    self.failures.append(f"{op.label} {op.args!r}: {error}")
            self.latencies.append(dt)
            self.kinds[op.label] += 1
            self.kind_busy[op.label] += dt
            self.busy += dt
        self.rounds += 1


def quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(loop: Loop) -> dict:
    lat = loop.latencies
    return {
        "ops_per_s": (len(lat) / loop.busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * quantile(lat, 90), "ms"),
    }


def per_layer(spans, overhead_ratio: float) -> dict:
    totals = layer_totals(spans)
    out = {}
    for layer in LAYERS:
        agg = totals[layer]
        out[f"{layer}.calls"] = (agg["calls"], "count")
        out[f"{layer}.busy_s"] = (agg["busy_s"], "s")
        out[f"{layer}.self_s"] = (agg["self_s"], "s")
        out[f"{layer}.failed"] = (agg["failed"], "count")

    def rate(layer, counter):
        t = totals[layer]["self_s"]
        return totals[layer]["counters"].get(counter, 0) / t if t > 0 else 0.0

    def span_ms_p50(name):
        durs = [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == name]
        return statistics.median(durs) if durs else 0.0

    grid_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "l_grid_min")
    sums = totals["expsums"]["counters"].get("sums", 0)
    out.update({
        "characters.values_per_s": (rate("characters", "values"), "1/s"),
        "postnikov.points_per_s": (rate("postnikov", "points"), "1/s"),
        "expsums.terms_per_s": (rate("expsums", "terms"), "1/s"),
        "expsums.exact_ratio": (totals["expsums"]["counters"].get("exact", 0) / sums
                                if sums else 0.0, "ratio"),
        "arith.dlogs_per_s": (rate("arith", "dlogs"), "1/s"),
        "vinogradov.tuples_per_s": (rate("vinogradov", "tuples"), "1/s"),
        "lfunc.scan_ms_p50": (span_ms_p50("zero_scan_report"), "ms"),
        "lfunc.grid_points_per_s": (totals["lfunc"]["counters"].get("grid_points", 0) / grid_s
                                    if grid_s else 0.0, "1/s"),
        "lfunc.perturbed": (totals["lfunc"]["counters"].get("perturbed", 0), "count"),
        "primes.window_ms_p50": (span_ms_p50("short_interval_check"), "ms"),
        "primes.partition_ms_p50": (span_ms_p50("psi_by_class"), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out


def measure(args, ctx) -> dict:
    rounds = opmod.stream(args.workload, args.seed, ctx)
    cap_s = CAP_FACTOR * args.seconds
    off = Tracer(False)
    if not args.trace:
        loop = Loop()
        for ops in itertools.islice(rounds, opmod.planned_rounds(args.workload, args.seconds)):
            loop.run_round(ops, off)
            if loop.busy >= cap_s:
                break
        loops = [loop]
        metrics = end_to_end(loop)
    else:
        # Each round runs twice, untraced and traced, alternating which goes
        # first; the ratio of the two operation times is the tracing overhead.
        plain, traced, tracer = Loop(), Loop(), Tracer(True)
        half = opmod.planned_rounds(args.workload, args.seconds / 2)
        for r, ops in enumerate(itertools.islice(rounds, half)):
            passes = [(plain, off), (traced, tracer)]
            for loop, tr in passes if r % 2 == 0 else passes[::-1]:
                loop.run_round(ops, tr)
            if plain.busy >= cap_s / 2:
                break
        loops = [plain, traced]
        metrics = per_layer(tracer.spans, traced.busy / plain.busy)
        tracer.write(Path(args.out) / f"spans-{args.workload}-{args.seed}.jsonl")
    # Every kind of operation in a round (each CLI subcommand counted apart)
    # must have run at least once, or the run does not measure its layers.
    ran = sum((lp.kinds for lp in loops), Counter())
    round_kinds = {op.label for op in next(opmod.stream(args.workload, args.seed, ctx))}
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(len(lp.latencies) for lp in loops),
        "failed": sum(sum(lp.failed.values()) for lp in loops),
        "ops_per_kind": dict(sorted(ran.items())),
        "kinds_not_run": sorted(round_kinds - set(ran)),
        "failed_per_kind": dict(sorted(sum((lp.failed for lp in loops), Counter()).items())),
        "failures": [f for lp in loops for f in lp.failures],
        "rounds": loops[0].rounds,
        "busy_s": loops[0].busy,
        "busy_per_kind_s": {k: round(v, 4) for k, v in sorted(loops[0].kind_busy.items())},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=opmod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    ctx = {"spec_path": str(Path(args.out) / "korobov_spec.json")}
    opmod.warm_up(args.workload, ctx)
    print(json.dumps({"event": "ready"}), flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    try:
        result = measure(args, ctx)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
