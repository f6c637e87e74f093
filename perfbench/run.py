#!/usr/bin/env python3
"""Build and run the gklock benchmark.

    python3 perfbench/run.py [--workload NAME[,NAME...]] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a gklock checkout.  Builds the benchmark program
and the gklockd daemon from source with dune, then runs the named
workloads in turn (by default the workloads BENCHMARK.json lists; the
others, gk_sat and sar_dip, run by name).  --seconds defaults to
run_seconds in BENCHMARK.json.  Each workload prints its figures, and
its last line is one JSON object with correct, attempted, failed and
metrics; with several workloads a combined JSON object follows.  Exits
non-zero, without a result, when the build fails.  See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "gkbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "gklockd.exe")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; run from a gklock checkout",
              file=sys.stderr)
        return False
    # --cache=disabled: build only inside the checkout, never in the
    # shared dune cache under $HOME.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./perfbench/gkbench.exe",
           "./bin/gklockd.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("run.py: cannot run dune: %s" % e, file=sys.stderr)
        return False
    return r.returncode == 0


def run_one(workload, args):
    """Run one workload; return its output lines, or None on failure."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--gklockd", DAEMON]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the program stop its daemon; the group kill is the
        # backstop for anything left.
        p.send_signal(signal.SIGTERM)
        try:
            p.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return None
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(out)
        print("run.py: %s exited with %d" % (workload, p.returncode),
              file=sys.stderr)
        return None
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    help="comma-separated workloads (default: those in "
                         "BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    if not build():
        return 1
    if args.workload:
        names = args.workload.split(",")
    else:
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    for w in names:
        lines = run_one(w, args)
        if lines is None:
            return 1
        if len(names) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join(lines[:-1]), flush=True)
        results[w] = json.loads(lines[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
