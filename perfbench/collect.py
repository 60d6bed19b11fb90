"""Run the benchmark over sets of seeds and summarise spread and agreement.

    python3 perfbench/collect.py --sets 1-10 [11-20 ...] [--workloads orbits ...] \
        [--baseline perfbench/baselines.json]

Each set runs every workload once per seed for BENCHMARK.json's
run_seconds, one run at a time, set after set.  For every set, workload and
end-to-end metric this prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to a third of the metric's bound from BENCHMARK.json.  With two or more sets
it also prints, per workload and metric, how much worse each later set's
median is than the first set's, as a share of the first median, next to the
bound.  With --baseline it also runs one traced run per workload (seed =
first seed of the first set) and writes every set, the agreement table and
the per-layer metrics to that file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload, results, bounds):
    rows = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                      "unit": results[0]["metrics"][name]["unit"], "values": values}
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{workload:8s} {name:12s} median {median:<12.6g} spread {spread:.4f}"
              f" (bound/3 {bound / 3:.4f}){flag}", flush=True)
    print(f"{workload:8s} correct {all(r['correct'] for r in results)}, "
          f"failed/attempted {sum(r['failed'] for r in results)}/"
          f"{sum(r['attempted'] for r in results)}", flush=True)
    return {"end_to_end": rows, "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results)}


def agreement(sets, metrics):
    """Share by which each later set's median is worse than the first set's."""
    table = {}
    for workload in sets[0]["workloads"]:
        for m in metrics:
            first = sets[0]["workloads"][workload]["end_to_end"][m["name"]]["median"]
            for later in sets[1:]:
                median = later["workloads"][workload]["end_to_end"][m["name"]]["median"]
                change = (median - first) / first
                worse = change if m["better"] == "lower" else -change
                table.setdefault(later["seeds"], {}).setdefault(workload, {})[m["name"]] = {
                    "first": first, "later": median, "worse_by": worse, "bound": m["bound"]}
                flag = "" if worse <= m["bound"] else "  <-- over bound"
                print(f"{workload:8s} {m['name']:12s} set {later['seeds']} vs {sets[0]['seeds']}: "
                      f"worse by {worse:+.4f} (bound {m['bound']}){flag}", flush=True)
    return table


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", nargs="+", default=["1-10"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets = []
    for seeds in args.sets:
        workloads = {w: summarise(w, [run(w, seed, seconds, 0) for seed in seeds_from(seeds)],
                                  bounds)
                     for w in args.workloads}
        sets.append({"seeds": seeds, "workloads": workloads})
    table = agreement(sets, spec["end_to_end"]) if len(sets) > 1 else {}

    if args.baseline:
        first_seed = seeds_from(args.sets[0])[0]
        per_layer = {w: {k: v["value"] for k, v in run(w, first_seed, seconds, 1)["metrics"].items()}
                     for w in args.workloads}
        record = json.loads((HERE / "out" / f"{args.workloads[0]}-seed{first_seed}-trace0.json")
                            .read_text())
        out = {"env": record["env"], "source": record["source"], "run_seconds": seconds,
               "sets": sets, "agreement": table, "per_layer": per_layer}
        Path(args.baseline).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
