"""Quick self-check of the benchmark harness.

Runs each workload of BENCHMARK.json for one second, untraced and traced,
and asserts that the result line has exactly its four keys, that every
metric BENCHMARK.json names is printed with its unit, and that the run
attempted operations, failed none and checked out correct. Then it runs
the command in a directory holding only BENCHMARK.json and this directory,
where it must fail without printing a result. Run from the repo root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd: list[str], cwd: str) -> tuple[int, str]:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check_workload(spec: dict, root: str, workload: str, trace: int) -> list[str]:
    group = "per_layer" if trace else "end_to_end"
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace)]
    code, out = run(cmd, root)
    label = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{label}: exit {code}"]
    result = json.loads(out.splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{label}: printed {got}, BENCHMARK.json names {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (group == "end_to_end" and m["value"] <= 0):
            errors.append(f"{label}: {name} = {m['value']!r}")
    return errors


def check_bare(spec: dict, root: str) -> list[str]:
    """Without the program's source the benchmark must fail and print no result."""
    bare = os.path.join(root, ".perfbench_out", "selfcheck_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, out = run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                           "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in out:
        return [f"bare directory: exit {code}, output {out!r}"]
    return []


def main() -> int:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_workload(spec, root, w["name"], trace)
            print(f"{w['name']} --trace {trace}: done", flush=True)
    errors += check_bare(spec, root)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
