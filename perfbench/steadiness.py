#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload <name> ...] [--out perfbench/results/steadiness.json]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Runs each workload `--runs` times through run.py, each run with the next
seed, untraced and for BENCHMARK.json's `run_seconds`. For every
end-to-end metric it reports the median, the first and third quartiles
(Python's `statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median. A spread is
`ok` when it is below a third of the metric's bound (`setup_s` is exempt:
only its median is compared between runs). Writes the record as JSON
and exits 1 if any run failed or any spread is not ok.

`--compare` reads two such records, made from different seeds, and
checks that for every workload and metric the second median is not
worse than the first by more than the metric's bound.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def compare(spec, first_path, second_path):
    """Exit code of the median comparison of two steadiness records."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    bad = 0
    for workload, metrics in first["workloads"].items():
        for name, a in metrics.items():
            b = second["workloads"][workload][name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = -change if better[name] == "higher" else change
            ok = worse <= a["bound"]
            bad += not ok
            print(f"{workload:13} {name:17} first {a['median']:12.6g}  second "
                  f"{b['median']:12.6g}  worse by {worse:+.4f}  bound {a['bound']:5}  "
                  f"{'ok' if ok else 'TOO FAR'}")
    return 1 if bad else 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(spec, *args.compare)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cpus": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    bad = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {run.returncode})",
                      file=sys.stderr)
                bad += 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread < bounds[name] / 3
            bad += not ok
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "ok": ok, "values": vals}
            print(f"{workload:13} {name:17} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bounds[name]:5}  "
                  f"{'ok' if ok else 'TOO WIDE'}", file=sys.stderr)
        record["workloads"][workload] = summary
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
