"""In-memory spans around the benchmark's calls into each corechar layer.

A span records its layer, a name, start and end (perf_counter seconds), the
span that encloses it, the operation it belongs to, work counters and whether
it raised or its operation's oracle disagreed.  Spans are kept in a list and written out once, when the run ends.
With tracing off, ``span`` hands out a throwaway record and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("arith", "characters", "postnikov", "expsums", "vinogradov",
          "lfunc", "primes", "cli")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, layer: str, name: str):
        """Time the enclosed call as one span of ``layer``.

        The yielded dict takes the call's work counters (``values``,
        ``terms``, ``points`` ...), which the caller fills in after the call.
        """
        rec: dict = {}
        if not self.enabled:
            yield rec
            return
        idx = len(self.spans)
        rec.update(id=idx, layer=layer, name=name, op=self.op_id,
                   parent=self._stack[-1] if self._stack else None,
                   failed=False)
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def mark_failed(self, op_id: int):
        """Charge an oracle disagreement to the outermost span of an operation."""
        for rec in self.spans:
            if rec["op"] == op_id and rec["parent"] is None:
                rec["failed"] = True
                return

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """calls, busy_s, self_s and failed per layer, plus summed counters.

    Self time is busy time minus the time covered by child spans.
    """
    child_s: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            child_s[rec["parent"]] = child_s.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0,
                   "counters": {}} for layer in LAYERS}
    for rec in spans:
        agg = out[rec["layer"]]
        agg["calls"] += 1
        agg["failed"] += int(rec["failed"])
        for key, val in rec.items():
            if key not in ("id", "layer", "name", "op", "parent", "failed",
                           "start", "end"):
                agg["counters"][key] = agg["counters"].get(key, 0) + val
        dur = rec["end"] - rec["start"]
        agg["busy_s"] += dur
        agg["self_s"] += dur - child_s.get(rec["id"], 0.0)
    return out
