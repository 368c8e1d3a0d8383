#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload `perfbench/run.py` knows briefly, untraced and
traced, and fails unless

* each run exits 0 and its last stdout line is a result object with
  exactly the keys `correct`, `attempted`, `failed`, `metrics`;
* every correctness check passed (`correct` true, `failed` 0);
* the emitted metric names and units match `BENCHMARK.json` exactly:
  the `end_to_end` list untraced, the `per_layer` list traced;
* every value is a finite number, and `BENCHMARK.json` names exactly the
  workloads `run.py` knows.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own driver: its WORKLOADS)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    names = sorted(w["name"] for w in spec["workloads"])
    if names != sorted(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != run.py's {sorted(run.WORKLOADS)}")
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            tag = f"{workload} --trace {trace}"
            before = len(problems)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed\n{proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, unit mismatch {units}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            if len(problems) == before:
                print(f"ok   {tag}: {len(got)} metrics, {result['attempted']} checked operations")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
