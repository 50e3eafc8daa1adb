#!/usr/bin/env python3
"""Run the benchmark several times per workload and report its spread.

Each workload runs --runs times untraced, each run with another seed.
For every end-to-end metric the script prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the sample count
and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json, and flags a spread above a third of the bound. With
--trace it then makes one traced run per workload and prints every
per-layer metric. Results, with the environment and the seed of every
run, go to --out as JSON.

Run from the repository root:

    python3 caslockbench/steady.py --runs 10 --out caslockbench/results/steady.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace, commit):
    cmd = ["bash", "caslockbench/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    env = dict(os.environ, BENCH_COMMIT=commit)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         env=env, timeout=900).stdout.strip().splitlines()
    return json.loads(out[-2])["detail"], json.loads(out[-1])


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    commit = os.environ.get("BENCH_COMMIT") or git_commit()
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"commit": commit, "seconds": seconds, "seeds": seeds, "workloads": {}}

    for w in workloads:
        values, runs = {}, []
        for seed in seeds:
            detail, res = run_once(w, seed, seconds, False, commit)
            runs.append({"seed": seed, "detail": detail, "result": res})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}", file=sys.stderr)
        summary = {}
        print(f"\n{w}  ({len(seeds)} runs, {seconds} s each, env {runs[0]['detail']['env']})")
        print(f"  {'metric':<24}{'unit':<8}{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            unit = bounds[name]["unit"]
            print(f"  {name:<24}{unit:<8}{len(vs):>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound:>7}{flag}")
            summary[name] = {"unit": unit, "n": len(vs), "median": med, "q1": q1,
                             "q3": q3, "spread": spread, "bound": bound}
        entry = {"end_to_end": summary, "runs": runs}
        if args.trace:
            detail, res = run_once(w, seeds[0], seconds, True, commit)
            entry["traced"] = {"seed": seeds[0], "detail": detail, "result": res}
            print(f"  traced run (seed {seeds[0]}):")
            for name, m in sorted(res["metrics"].items()):
                print(f"    {name:<34}{m['value']:>16.6g} {m['unit']}")
        report["workloads"][w] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
