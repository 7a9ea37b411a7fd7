#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload at minimum size, untraced
and traced, checking that each run passes its output checks and prints
exactly the metric names BENCHMARK.json declares.

Run from the repository root:  python3 perfbench/smoke.py [--seed N]
"""

import json
import subprocess
import sys


def main():
    seed = sys.argv[sys.argv.index("--seed") + 1] if "--seed" in sys.argv else "1"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", seed, "--seconds", str(bench["run_seconds"]),
                    "--trace", trace, "--size", "min"]
            run = subprocess.run(bench["command"] + args, capture_output=True, text=True, timeout=900)
            label = f"{workload} trace={trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                failures.append(f"{label}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"]:
                problems.append("output checks failed")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in set(got) & set(expected[trace]) if got[n] != expected[trace][n])
                problems.append(f"missing {missing}, undeclared {extra}, unit mismatch {units}")
            print(f"{label}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}", flush=True)
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}\n{run.stderr[-2000:]}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
