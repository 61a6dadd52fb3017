#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size for one second, untraced and traced, and
checks that each run prints every metric BENCHMARK.json declares, with its
unit, and finishes without a failed operation.  Then plants a wrong
expected answer in each workload and checks that it is counted as a failed
operation.  Exits 0 when every check holds.
"""

import json
import subprocess
import sys


def run(workload, trace, plant=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    if plant:
        cmd.append("--plant-wrong-answer")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(name, trace)
            expect(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace {trace}: result keys")
            for m in bench[key]:
                got = r["metrics"].get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{name} trace {trace}: {m['name']} printed in {m['unit']}")
            expect(len(r["metrics"]) == len(bench[key]), f"{name} trace {trace}: no undeclared metric")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"{name} trace {trace}: correct, {r['failed']} failed of {r['attempted']}")
        r = run(name, 0, plant=True)
        expect(not r["correct"] and r["failed"] >= 1,
               f"{name}: a planted wrong expected answer counts as failed ({r['failed']})")
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} check(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
