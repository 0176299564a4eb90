"""Benchmark of the uavtrack tracker; see README.md in this directory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady640 --seed 1 --seconds 30 --trace 0

It runs the workload in a subprocess with OpenBLAS, OpenMP and MKL pinned
to one thread, glibc keeping freed memory, and the checkout's ``src`` on
``PYTHONPATH``. The last line of output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``). Outputs go under ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("steady640", "acquire640", "sim_replay")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc keeps freed memory in the process instead of returning it to the
# kernel. On a virtual machine whose host reclaims free guest pages, a page
# touched again after ~3 s idle costs about 5x more (400 MB: 18 ms warm,
# 90-110 ms reclaimed), with a timing that varies from run to run.
KEEP_FREED_MEMORY = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(4 << 30)}
DEADLINE_S = 170.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="uavtrack benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uavtrack", "__init__.py")):
        print(f"error: no src/uavtrack in {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".perfbench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    env = {k: v for k, v in os.environ.items() if k != "UAVTRACK_CONFIG"}
    env.update(PINNED_THREADS)
    env.update(KEEP_FREED_MEMORY)
    env["PYTHONPATH"] = os.path.join(root, "src")
    deadline = time.monotonic() + DEADLINE_S
    for stage in ("prepare", "measure"):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), stage,
               "--root", root, "--out", out, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: {stage} stage ran past {DEADLINE_S:.0f} s", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print(f"error: {stage} stage exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print("error: the worker printed no result", file=sys.stderr)
        return 4
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
