"""One cold benchmark operation in a fresh process.

    python3 perfbench/worker.py <workload> <in_process 0|1>

The worker imports the package from the checkout's `src`, runs the
workload's setup and prints {"ready": true}.  It then reads one operation
spec as a JSON line on stdin, runs the operation and prints one JSON
result line.  The package keeps module-level caches, so every timed
operation gets its own process.

Around the operation the worker times a fixed pure-Python loop, once
before and once after.  The run scales every time by that loop's speed
(see `run.py`).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def reference_loop() -> float:
    """Seconds taken by a fixed loop of table lookups, tuple keys and dict
    stores: the kind of work the package does, without the package."""
    table = [[(x * y + 3) % 11 for y in range(11)] for x in range(11)]
    start = time.perf_counter()
    acc, seen = 0, {}
    for i in range(150_000):
        x = table[i % 11][(i >> 3) % 11]
        seen[(x, i & 255)] = acc
        acc = (acc + x + len(seen)) & 0xFFFF
    return time.perf_counter() - start


def main() -> int:
    import ops
    import umtl
    from spans import NullTracer, Tracer

    package = Path(umtl.__file__).resolve().parent
    if package != ROOT / "src" / "umtl":
        print(f"umtl imported from {package}, not the checkout", file=sys.stderr)
        return 2
    workload = ops.WORKLOADS[sys.argv[1]](in_process=sys.argv[2] == "1")
    workload.setup()
    print(json.dumps({"ready": True}), flush=True)

    spec = json.loads(sys.stdin.readline())
    op = spec["op"]
    tracer = Tracer(spec["op_id"]) if spec["trace"] else NullTracer()
    data = workload.prepare(op, f"{spec['seed']}/{spec['draw']}", Path(spec["tmp"]))
    out = {"op": op, "op_s": None, "ref_s": None, "rss_mb": None, "problems": [], "counts": {}}
    try:
        before = reference_loop()
        start = time.perf_counter()
        result = workload.run(tracer, op, data)
        out["op_s"] = time.perf_counter() - start
        out["ref_s"] = (before + reference_loop()) / 2
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["problems"] = workload.check(op, data, result)
        out["counts"] = workload.counts(op, data, result)
        if spec["trace"]:
            out["problems"] += workload.extra(tracer, op, data, result)
    except Exception:  # reported as a failed operation, never fatal to the run
        out["problems"].append(traceback.format_exc(limit=-3))
    out["spans"] = list(tracer.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
