"""The umtl benchmark.  From the root of a checkout:

    python3 perfbench/run.py --workload cli-audit --seed 1 --seconds 30 --trace 0

One closed-loop client runs one operation at a time, each in a fresh
worker process (`worker.py`), so the package's module-level caches are
always cold.  Worker start, `import umtl` and pool building are timed as
setup_s; the operation is timed inside the worker.  Whole passes over the
workload's operations repeat, each with fresh inputs drawn from the seed,
until the next pass would end more than half a pass past --seconds.

Every time is scaled to a reference speed: it is multiplied by REF_S over
the time a fixed pure-Python loop took in the same worker, just before and
after the operation.  A shared host's speed drifts by a quarter within
minutes, and the scaled times follow the package, not the drift.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics: span self times,
counts, the tracing overhead and the share of operation time the spans
cover; its spans are written to perfbench/out/.

Metric names and units come from BENCHMARK.json.  The last stdout line is
the JSON result; a checkout without `src/umtl` exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOAD_OPS
from spans import self_times

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
OUT = Path(__file__).with_name("out")
RUN_LIMIT_S = 170  # every worker is stopped by then
# About the reference loop's time on a quiet host, so scaled times read as
# seconds at that host's speed.
REF_S = 0.05


class SetupError(RuntimeError):
    pass


def run_op(workload, op, seed, draw, trace, in_process, op_id, tmp, deadline):
    """Start a worker, time its setup, run one operation in it."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(int(in_process))],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if not ready.strip():
            _out, err = proc.communicate(timeout=10)
            raise SetupError(f"worker for {workload} did not start:\n{err}")
        spec = {"op": op, "seed": seed, "draw": draw, "trace": trace, "op_id": op_id, "tmp": str(tmp)}
        out, err = proc.communicate(
            json.dumps(spec) + "\n", timeout=max(1.0, deadline - time.perf_counter())
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"op": op, "setup_s": setup_s, "op_s": None, "ref_s": None, "rss_mb": None,
                "problems": [f"{op}: timed out"], "counts": {}, "spans": []}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"op": op, "setup_s": setup_s, "op_s": None, "ref_s": None, "rss_mb": None,
                "problems": [f"{op}: worker exit {proc.returncode}: {err.strip()[-500:]}"],
                "counts": {}, "spans": []}
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def run_pass(workload, seed, draw, trace, in_process, first_id, tmp, deadline):
    """One operation of each kind; `draw` numbers the pass's inputs, so
    the n-th untraced and the n-th traced pass see the same ones."""
    return [
        run_op(workload, op, seed, draw, trace, in_process, first_id + i, tmp, deadline)
        for i, op in enumerate(WORKLOAD_OPS[workload])
    ]


def scale(o) -> float:
    """Factor from the worker's measured speed to the reference speed."""
    return REF_S / o["ref_s"]


def kind_medians(passes, scaled=True) -> dict[str, float]:
    """Per operation kind, the median of its time over the passes."""
    times: dict[str, list[float]] = {}
    for ops in passes:
        for o in ops:
            if o["ref_s"] is not None:
                times.setdefault(o["op"], []).append(o["op_s"] * (scale(o) if scaled else 1.0))
    return {op: statistics.median(v) for op, v in times.items()}


def p90(values) -> float:
    """The 90th percentile, as statistics.quantiles(n=10) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(untraced, all_ops) -> dict:
    per_kind = list(kind_medians(untraced).values())
    return {
        "wall_s": sum(per_kind),
        "op_s.p50": median_or_zero(per_kind),
        "op_s.p90": p90(per_kind) if per_kind else 0.0,
        "setup_s": median_or_zero(o["setup_s"] * scale(o) for o in all_ops if o["ref_s"]),
        "peak_rss_mb": median_or_zero(
            max((o["rss_mb"] or 0.0) for o in p) for p in untraced
        ),
    }


def layer_totals(ops) -> tuple[dict, float]:
    """Self time per span name summed over one pass and scaled to the
    reference speed, plus the share of operation time covered by named
    layers."""
    totals: dict[str, float] = {}
    op_total = op_self = 0.0
    for o in (o for o in ops if o["ref_s"]):
        factor = scale(o)
        for (name, start, end, parent, _op), (_n, own) in zip(o["spans"], self_times(o["spans"])):
            if name == "op" and parent is None:
                op_total += end - start
                op_self += own
            else:
                totals[name] = totals.get(name, 0.0) + own * factor
        for name, value in o["counts"].items():
            totals[name] = totals.get(name, 0) + value
    coverage = 1.0 - op_self / op_total if op_total else 0.0
    return totals, coverage


def per_layer(names, untraced, traced) -> dict:
    rows = [layer_totals(p) for p in traced]
    def metric(name):
        if name == "trace.coverage":
            return statistics.median(c for _t, c in rows)
        if name == "trace.overhead_s":
            return sum(kind_medians(traced).values()) - sum(kind_medians(untraced).values())
        if name == "logic.valuations_per_s":
            busy = metric("logic.is_valid_s") + metric("logic.countermodel_s")
            return metric("logic.valuations") / busy if busy else 0.0
        if name.endswith("_s"):
            return statistics.median(t.get(name[:-2], 0.0) for t, _c in rows)
        return statistics.median_low(t.get(name, 0) for t, _c in rows)
    return {name: metric(name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "umtl" / "__init__.py").is_file():
        print(f"no umtl package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    next_id = 0
    try:
        while True:
            mode = int(bool(args.trace) and len(traced) < len(untraced))
            draw = len(traced) if mode else len(untraced)
            ops = run_pass(args.workload, args.seed, draw, mode, bool(args.trace), next_id, tmp, deadline)
            next_id += len(ops)
            (traced if mode else untraced).append(ops)
            elapsed = time.perf_counter() - start
            # start another pass only if it would end before half a pass
            # past --seconds, so a run keeps a steady number of passes
            half_pass = elapsed / (len(untraced) + len(traced)) / 2
            have_all = untraced and (traced or not args.trace)
            if have_all and elapsed + half_pass > args.seconds:
                break
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    all_ops = [o for p in untraced + traced for o in p]
    failed = [o for o in all_ops if o["problems"]]
    for o in failed[:5]:
        print(f"FAILED {o['op']}: {o['problems'][:3]}", file=sys.stderr)
    if args.trace:
        values = per_layer([m["name"] for m in metrics], untraced, traced)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([s for p in traced for o in p for s in o["spans"]]))
        print(f"spans of {len(traced)} traced pass(es) written to {trace_file.relative_to(ROOT)}")
    else:
        values = end_to_end(untraced, all_ops)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced pass(es) of {len(WORKLOAD_OPS[args.workload])} operation(s); "
          f"setup samples {len(all_ops)}")
    for m in metrics:
        print(f"  {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    print(f"  failed_ratio {len(failed) / len(all_ops):.6g} ({len(failed)}/{len(all_ops)})")
    measured = [o for o in all_ops if o["ref_s"]]
    if measured:
        unscaled = kind_medians(untraced, scaled=False)
        print(f"  unscaled: wall_s {sum(unscaled.values()):.6g} s, setup_s "
              f"{median_or_zero(o['setup_s'] for o in measured):.6g} s, reference loop "
              f"{median_or_zero(o['ref_s'] for o in measured):.6g} s")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
