#!/usr/bin/env python3
"""Builds and runs the amgen benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seconds <s>]

The first form builds `perfbench/` (a Cargo package of its own, built
against the repository's crates) into `$CARGO_TARGET_DIR`, by default
`.bench_build/`, then runs one workload and relays its output: the last
line of standard output is the JSON result. Build output goes to
standard error. The exit code is the benchmark's; it is not 0 when the
build fails or an output check fails.

`--self-test` runs every workload of BENCHMARK.json briefly, untraced
and traced, and checks that each prints every metric the file names,
with its unit, and passes its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark binary and returns its path, or exits."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, cwd=ROOT, check=False)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def result_of(stdout):
    """The JSON result: the last line of a run's standard output."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = subprocess.run(
                [binary, "--workload", workload, "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
            label = f"{workload} --trace {trace}"
            try:
                result = result_of(run.stdout)
            except json.JSONDecodeError as e:
                result = None
                failures.append(f"{label}: result line is not JSON ({e})")
            if result is None:
                failures.append(f"{label}: no result (exit {run.returncode})")
                continue
            if run.returncode != 0 or not result.get("correct"):
                failures.append(f"{label}: output checks failed (exit {run.returncode})")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            metrics = result.get("metrics", {})
            for name, unit in wanted[trace].items():
                got = metrics.get(name)
                if got is None:
                    failures.append(f"{label}: metric {name} missing")
                elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{label}: metric {name} is {got}, want unit {unit}")
            for name in set(metrics) - set(wanted[trace]):
                failures.append(f"{label}: metric {name} is not in BENCHMARK.json")
            print(f"self-test {label}: {len(metrics)} metrics, "
                  f"{result.get('attempted')} ops attempted", file=sys.stderr)
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if failures else "pass",
                      "failures": len(failures)}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds", default="1")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary, args.seconds)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace],
        cwd=ROOT, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
