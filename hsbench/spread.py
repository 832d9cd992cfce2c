#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread (interquartile distance over the median).

    python3 hsbench/spread.py --seeds 1-10 [--workloads prune-headstart,infer]
                              [--trace 0|1] [--out results.json]

Run from the repository root. The command and run length come from
BENCHMARK.json, so the spread is measured exactly as the benchmark runs.
With --trace 0 each spread is compared against the metric's bound;
setup_s is exempt from the spread rule but reported.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2])["hsbench"], json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "trace": args.trace, "host": None, "workloads": {}}
    steady = True
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            detail, result = run_once(bench, workload, seed, args.trace)
            report["host"] = report["host"] or detail["host"]
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: a check failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if n in bounds), flush=True)
        rows = {}
        for name, vals in values.items():
            row = summary(vals) if len(vals) >= 2 else {"median": vals[0]}
            row["values"] = vals
            if name in bounds and "spread" in row:
                row["bound"] = bounds[name]
                row["within_third_of_bound"] = row["spread"] <= bounds[name] / 3
                if name != "setup_s" and row["spread"] > bounds[name]:
                    steady = False
                print(f"  {workload:16} {name:24} median {row['median']:<12.6g}"
                      f" spread {row['spread']:.3f} (bound {bounds[name]})")
            rows[name] = row
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
