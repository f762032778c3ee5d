"""Check that two traced runs at one workload seed give identical work counts.

Run from the repository root:

    python3 perfbench/check_counts.py [--seed N] [workload ...]

Each workload is run twice with --trace 1 in fresh processes.  Every
per-layer count (calls, cells, particle evaluations, drift blocks, flagged,
rejected and estimation-error counts, bytes written, spans) must repeat
exactly; times are not compared.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

COUNT_UNITS = ("count/op", "B/op")


def traced_counts(workload, seed):
    command = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect output")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS or name == "estimator.flagged_share"
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for name in args.workloads:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"{name}: {len(first)} counts, {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
