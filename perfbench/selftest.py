"""Self-test of the benchmark at tiny size (one small round per workload).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * the result line has exactly the keys correct, attempted, failed and
    metrics, and names every end-to-end (--trace 0) or per-layer
    (--trace 1) metric with the unit BENCHMARK.json gives it;
  * every per-layer count repeats exactly across two traced runs;
  * a deliberately wrong reference value (--wrong-reference) is counted as
    a failed op and makes the run incorrect.
It also checks that run.py exits nonzero, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.  Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7", "--seconds", "1",
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(*extra):
    done = run(*extra)
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(extra)} exited {done.returncode}:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    return out


def expect_metrics(out, declared, label):
    got = {name: entry["unit"] for name, entry in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{label}: metrics/units differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             f"unit mismatches {[n for n in want if n in got and got[n] != want[n]]}")


def check_workload(workload):
    plain = result("--workload", workload, "--trace", "0")
    expect_metrics(plain, SPEC["end_to_end"], f"{workload} --trace 0")
    if not plain["correct"] or plain["attempted"] < 1:
        raise AssertionError(f"{workload}: tiny run not correct: {plain}")

    first = result("--workload", workload, "--trace", "1")
    second = result("--workload", workload, "--trace", "1")
    expect_metrics(first, SPEC["per_layer"], f"{workload} --trace 1")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    if differ:
        raise AssertionError(f"{workload}: counts differ between two traced runs: {differ}")

    wrong = result("--workload", workload, "--trace", "0", "--wrong-reference")
    if wrong["failed"] != plain["failed"] + 1 or wrong["correct"]:
        raise AssertionError(f"{workload}: wrong reference not counted: plain failed "
                             f"{plain['failed']}, wrong-reference failed {wrong['failed']}, "
                             f"correct {wrong['correct']}")
    pass_ratio = wrong["metrics"]["pass_ratio"]["value"]
    if pass_ratio != 1.0 - wrong["failed"] / wrong["attempted"]:
        raise AssertionError(f"{workload}: pass_ratio {pass_ratio} does not count the failure")
    print(f"ok  {workload}: {plain['attempted']} ops, {len(counts)} counts repeat, "
          f"wrong reference counted ({wrong['failed']} failed)", flush=True)


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("--workload", SPEC["workloads"][0]["name"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"run.py without sources exited {done.returncode}, "
                             f"stdout {done.stdout!r}")
    print("ok  bare directory: exit code", done.returncode, flush=True)


def main():
    try:
        for workload in SPEC["workloads"]:
            check_workload(workload["name"])
        check_bare_directory()
    except AssertionError as exc:
        print(f"FAIL {exc}", flush=True)
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
