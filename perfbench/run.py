"""koenigs benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload orbits|spectra|algebra --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout; the library is imported from the
checkout's src/ (the default install, without numba).  Each measurement runs
in a fresh interpreter, so nothing cached by one run (the shooting cache,
lazy imports) serves another.  Numeric-library threads are pinned to one.

--trace 0 measures end to end: one closed-loop workload run of about S
seconds and set-up time, the median of 2 * SETUP_REPEATS fresh imports, half
of them before the workload run and half after it, so that they sample the
host over the whole run.
--trace 1 measures layers: the same fixed list of rounds runs twice in two
fresh interpreters, untraced and traced, so trace.overhead_s compares equal
work; per-layer numbers come from the traced one, which also records the
Baseline and defect probe rows.  Spans go to perfbench/out/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is nonzero, with no result line, when
the checkout holds no koenigs sources or a worker fails.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 4     # fresh imports on each side of the workload run
WORKER_TIMEOUT_S = 170
# Expected seconds per round, used only to size the fixed traced run.
NOMINAL_ROUND_S = {"orbits": 0.41, "spectra": 5.4, "algebra": 0.55}

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import koenigs; "
    "print(time.perf_counter() - t)"
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# printed next to the result line only; see perfbench/METRICS.md
UNITS.update(fail_ratio="ratio", gate_margin_dec="decades")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((SRC / "koenigs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def measure_setup(env):
    """Import times of koenigs in SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            sys.exit(f"importing koenigs failed:\n{done.stderr}")
        times.append(float(done.stdout))
    return times


def run_worker(env, args, extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    done = subprocess.run(cmd + extra, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"worker failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(env, args):
    setup_all = measure_setup(env)
    res = run_worker(env, args, ["--rounds", "1"] if args.size == "tiny" else [])
    setup_all += measure_setup(env)
    fail_ratio = res["failed"] / res["attempted"]
    err = res["err_to_gate"]
    metrics = {
        "setup_s": statistics.median(setup_all),
        "wall_s": res["wall_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": 1.0 - fail_ratio,
        "err_to_gate": err,
    }
    shown = dict(metrics, fail_ratio=fail_ratio,
                 gate_margin_dec=12.0 if err <= 1e-12 else min(12.0, -math.log10(err)))
    res["setup_all_s"] = setup_all
    return res, metrics, shown


def layers(env, args):
    rounds = 1 if args.size == "tiny" else max(
        1, round(args.seconds / (2.0 * NOMINAL_ROUND_S[args.workload])))
    plain = run_worker(env, args, ["--rounds", str(rounds)])
    res = run_worker(env, args, ["--rounds", str(rounds), "--trace", "1"])
    metrics = dict(res["layers"])
    metrics["trace.overhead_s"] = res["wall_s"] - plain["wall_s"]
    metrics.update(res["probes"])
    res["untraced_wall_s"] = plain["wall_s"]
    return res, metrics, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one small round, for the self-test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="self-test: shift the first reference value so its check fails")
    args = parser.parse_args(argv)

    if not (SRC / "koenigs" / "__init__.py").is_file():
        sys.exit(f"no koenigs sources under {SRC}; run from a source checkout")

    OUT.mkdir(exist_ok=True)
    env = child_env()
    res, metrics, shown = (layers if args.trace else end_to_end)(env, args)
    res["source"] = source_identity()
    res["metrics"] = {name: {"value": value, "unit": UNITS[name]} for name, value in shown.items()}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump(res, out, indent=1)

    print("env " + json.dumps(dict(res["env"], seed=args.seed, **res["source"])))
    print(f"{args.workload}: {res['rounds']} rounds, {res['attempted']} ops, "
          f"{res['failed']} failed")
    for op_name, check in sorted({(f["op"].split(":", 1)[1], f["check"]) for f in res["failures"]}):
        print(f"  failed: {op_name} [{check}]")
    for name, entry in res["metrics"].items():
        print(f"  {name:32s} {entry['value']:<14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: res["metrics"][name] for name in metrics},
    }))


if __name__ == "__main__":
    main()
