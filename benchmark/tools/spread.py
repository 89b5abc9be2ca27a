#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, taken the way the driver takes it.

Runs the command of BENCHMARK.json `--runs` times per workload, each time with
another `--seed`, and prints for every end-to-end metric the distance between
the first and third quartile of its values (statistics.quantiles(values, n=4))
as a share of their median, next to the metric's bound. With `--sets 2` it does
all of that twice and also checks that no median of the second set is worse
than the first set's by more than the bound. Exits 1 if a spread other than
that of setup_s exceeds its bound, or a second median is worse past its bound.
Run it from the repository root:

    python3 benchmark/tools/spread.py [--runs 10] [--sets 2] [--first-seed 1] [--out benchmark/out/spread.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_set(manifest, workloads, seeds):
    """One run per workload and seed; returns ({workload: {metric: [values]}}, {workload: [run wall s]})."""
    names = [m["name"] for m in manifest["end_to_end"]]
    values, wall = {}, {}
    for workload in workloads:
        values[workload] = {name: [] for name in names}
        wall[workload] = []
        for seed in seeds:
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            done = subprocess.run(cmd, capture_output=True, text=True)
            wall[workload].append(time.time() - t0)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} ops failed")
            for name in names:
                values[workload][name].append(line["metrics"][name]["value"])
    return values, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="benchmark/out/spread.json")
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    metrics = {m["name"]: m for m in manifest["end_to_end"]}
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    result = {"runs": args.runs, "first_seed": args.first_seed, "sets": []}
    over = []
    first_medians = {}
    for s in range(args.sets):
        values, wall = run_set(manifest, workloads, seeds)
        out = {}
        for workload in workloads:
            rows = {}
            print(f"set {s + 1}, {workload}: {args.runs} runs, {statistics.median(wall[workload]):.1f} s each (median)")
            for name, vs in values[workload].items():
                bound = metrics[name]["bound"]
                q1, q2, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / q2
                rows[name] = {"median": q2, "q1": q1, "q3": q3, "iqr_share": spread,
                              "bound": bound, "values": vs}
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = "  EXCEEDS ITS BOUND"
                    over.append((s + 1, workload, name, "spread"))
                elif spread > bound / 3:
                    flag = "  (above a third of the bound)"
                first = first_medians.setdefault((workload, name), q2)
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (q2 - first) / first
                rows[name]["worse_than_first_set"] = worse
                if worse > bound:
                    flag += "  MEDIAN WORSE THAN THE FIRST SET'S PAST THE BOUND"
                    over.append((s + 1, workload, name, "median"))
                print(f"  {name:<18} median {q2:>16.6f}  iqr/median {spread * 100:6.2f}%  "
                      f"vs first set {worse * 100:+6.2f}%  bound {bound * 100:4.0f}%{flag}")
            out[workload] = {"run_wall_s_median": statistics.median(wall[workload]), "metrics": rows}
        result["sets"].append(out)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"written to {args.out}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
