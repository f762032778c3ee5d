"""Store the reference outputs every benchmark operation is checked against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py [workload ...]

For each workload it runs every operation seed that any workload seed can
produce (workload seeds are reduced modulo REFERENCE_SEEDS) and writes
perfbench/reference/<workload>.json.  A later commit must reproduce these
outputs: exact delays, floats within workloads.RTOL.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads


def main(argv):
    root = os.getcwd()
    names = argv or sorted(workloads.WORKLOADS)
    program = run.load_program(root)
    origin = run.provenance(root, program)
    for name in names:
        workload = workloads.WORKLOADS[name]
        ops = {}
        for workload_seed in range(workloads.REFERENCE_SEEDS):
            for seed in workloads.op_seeds(program, workload, workload_seed):
                if str(seed) in ops:
                    continue
                config = run.build_inputs(program, workload, [seed])[seed]
                with tempfile.TemporaryDirectory(dir=root) as out_dir:
                    seconds, outcome, error, _ = run.run_op(program, workload, seed, config, out_dir)
                if error is not None:
                    raise SystemExit(f"{name} seed {seed}: {error}")
                ops[str(seed)] = outcome
                print(f"{name} seed {seed}: {seconds:.2f} s", file=sys.stderr, flush=True)
        payload = {
            "workload": name,
            "generated_from": origin,
            "ops": ops,
        }
        os.makedirs(os.path.dirname(workloads.reference_path(workload)), exist_ok=True)
        with open(workloads.reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
