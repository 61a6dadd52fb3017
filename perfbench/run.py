#!/usr/bin/env python3
"""Entry point of the benchmark: build qct and the benchmark program from
source, then run one workload.

    python3 perfbench/run.py --workload olap-read --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The report goes to stdout; its
last line is the JSON result.  Exits non-zero without a result when the
sources are missing or do not build.  See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

PROGRAM = "_build/default/perfbench/perfbench.exe"
QCT = "_build/default/bin/qct.exe"
# A first build in a fresh checkout plus its run stay under 900 s; later
# builds are no-ops, and a run stays under 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["olap-read", "hot-read", "ingest-read"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true", help="toy-size inputs (self-test)")
    ap.add_argument("--plant-wrong-answer", action="store_true", help="expect one wrong answer (self-test)")
    args = ap.parse_args()

    for needed in ("dune-project", "bin/qct.ml", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a source checkout", file=sys.stderr)
            return 2

    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/qct.exe", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [PROGRAM, "--qct", QCT, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        cmd.append("--toy")
    if args.plant_wrong_answer:
        cmd.append("--plant-wrong-answer")
    # Its own process group, so a timeout or a signal to this script stops
    # the benchmark program and every server it started.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
