"""Run one workload in a fresh interpreter and print its measurements.

Started by perfbench/run.py with PYTHONPATH pointing at the checkout's src/
and numeric-library threads pinned to one.  The last line of stdout is one
JSON object; nothing here is meant to be run by hand.

Rounds are executed back to back by one client (closed loop).  Without
--rounds, rounds continue until the next one would end past --seconds and
at least MIN_OPS ops ran; with --rounds the count is fixed, which makes every
count in the traced run repeat exactly.  With --trace 1 the worker also
writes its spans to perfbench/out/spans-<workload>-seed<seed>.jsonl and
runs the Baseline and defect probes after the rounds.
"""

import argparse
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import koenigs  # noqa: E402
from ops import WORKLOADS, Checks, defect_probes, make_round  # noqa: E402
from tracer import LAYERS, Recorder  # noqa: E402

MIN_OPS = 100


def _percentiles(values):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[89]


def _over_rounds(values):
    """90th percentile of a per-round figure over the run's rounds.

    On a shared virtual machine (measured on 2 vCPUs) a process gets fast
    phases, up to about 1.8x, that cover some rounds of a run and not
    others; they move the lower and middle quantiles of a run far more
    than the upper one, which follows the machine's usual speed.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(workload, seed, seconds, rounds, size, trace, wrong_reference):
    """Run rounds back to back; returns the op seconds of each round."""
    rec = Recorder(trace)
    wrong = [wrong_reference]
    round_ops, worst_ratios, failures = [], [], []
    begin = time.perf_counter()
    index = 0
    while True:
        if rounds is not None:
            if index >= rounds:
                break
        elif round_ops:
            elapsed = time.perf_counter() - begin
            expected = elapsed / len(round_ops)
            if elapsed + expected > seconds and sum(map(len, round_ops)) >= MIN_OPS:
                break
        ops = make_round(workload, seed, index, size)
        worst = 0.0
        op_seconds = []
        for number, op in enumerate(ops):
            op_id = f"r{index}.{number}"
            chk = Checks(rec, f"{op_id}:{op.name}", op.family, wrong)
            start = rec.begin_op(op_id)
            try:
                op.run(rec, chk)
            except Exception as exc:  # a crashing op is a failed op; the run goes on
                chk.crash(exc)
            op_seconds.append(rec.end_op(op_id, op.name, start))
            failures.extend(chk.failures)
            worst = max(worst, chk.worst_ratio)
        round_ops.append(op_seconds)
        worst_ratios.append(worst)
        index += 1
    return rec, round_ops, worst_ratios, failures


def run_probes():
    """ROADMAP Baseline per-layer rows, timed from their own spans."""
    from koenigs import (action_quadrature, classify, coefficient_oracle, integrate,
                         make_model, shoot_eigenvalue, start_point)

    rec = Recorder(trace=True)
    h0 = make_model("h0", 0.8, 1.1)
    start = start_point(classify(h0, 0.5, 0.5))

    def median_seconds(repeats, func, *args, **kwargs):
        rec.call_spans.clear()
        for _ in range(repeats):
            rec.call(func, *args, **kwargs)
        return statistics.median(end - begin for *_, begin, end in rec.call_spans)

    steps = len(rec.call(integrate, h0, start, 30.0, tol=1e-10, samples=0).t) - 1
    return {
        "probe.integrate_h0_ms": 1e3 * median_seconds(5, integrate, h0, start, 30.0, tol=1e-10),
        "probe.integrate_h0_steps": steps,
        "probe.classify_us": 1e6 * median_seconds(200, classify, h0, 0.5, 0.5),
        "probe.action_quadrature_ms": 1e3 * median_seconds(20, action_quadrature, h0, 0.5, 0.5),
        "probe.coefficient_oracle_ms": 1e3 * median_seconds(20, coefficient_oracle, 3, 3, 4, 5),
        "probe.shoot_cold_hplus_s": median_seconds(1, shoot_eigenvalue,
                                                   make_model("hplus", 2.0, 31.75), 0, 1),
    }


def layer_metrics(rec):
    self_s = rec.self_seconds()
    counts = rec.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = rec.calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.failed"] = rec.failed[layer]
    steps = counts.get("flow.steps", 0)
    points = counts.get("invariants.points", 0)
    out["flow.steps"] = steps
    out["flow.us_per_step"] = 1e6 * rec.seconds_in("integrate") / steps if steps else 0.0
    out["flow.boundary_hits"] = counts.get("flow.boundary_hits", 0)
    out["quantum.cold_calls"] = counts.get("quantum.cold_calls", 0)
    out["quantum.cold_s"] = counts.get("quantum.cold_s", 0.0)
    out["quantum.warm_s"] = counts.get("quantum.warm_s", 0.0)
    out["models.points"] = counts.get("models.points", 0)
    out["invariants.points"] = points
    out["invariants.ns_per_point"] = 1e9 * self_s["invariants"] / points if points else 0.0
    out["specfun.oracle_calls"] = counts.get("specfun.oracle_calls", 0)
    return out


def environment():
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threads,
        "koenigs_path": str(Path(koenigs.__file__).resolve().parent.relative_to(ROOT)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args(argv)

    expected = (ROOT / "src" / "koenigs").resolve()
    if Path(koenigs.__file__).resolve().parent != expected:
        sys.exit(f"koenigs was imported from {koenigs.__file__}, not from {expected}")

    rec, round_ops, worst, failures = run_workload(
        args.workload, args.seed, args.seconds, args.rounds, args.size,
        bool(args.trace), args.wrong_reference)
    round_s = [sum(ops) for ops in round_ops]
    op_ms = [_percentiles([1e3 * s for s in ops]) for ops in round_ops]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(round_ops),
        "attempted": sum(map(len, round_ops)),
        "failed": len({f["op"] for f in failures}),
        "failures": failures,
        "round_s": round_s,
        "wall_s": _over_rounds(round_s),
        "op_p50_ms": _over_rounds([p50 for p50, _ in op_ms]),
        "op_p90_ms": _over_rounds([p90 for _, p90 in op_ms]),
        "err_to_gate": statistics.median(worst),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["layers"] = layer_metrics(rec)
        result["probes"] = dict(run_probes(), **defect_probes(args.seed))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
