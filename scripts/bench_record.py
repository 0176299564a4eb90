"""Record paired benchmark runs of two checkouts as a BENCH_<n>.json file.

Runs ``perfbench/run.py`` k times in each of two checkouts, a parent and a
change, alternating the sides (parent first on even pairs, change first on
odd ones) so that a drift in the machine's load falls on both alike. For
every workload and every end-to-end metric named in ``BENCHMARK.json`` it
writes each side's runs, their median and quartiles, the median of the
per-pair change/parent ratios and how many pairs the change won. For an
end-to-end metric it also writes the no-regression check: how much worse
the change's median is than the parent's, relative to the parent's median
(negative when better), and whether that exceeds the metric's bound in
``BENCHMARK.json``. It also writes the seed, the seconds per run, the CPU
model and the environment line each run printed (cores, BLAS library and
threads, Python, numpy).
``--trace`` adds alternating pairs of traced runs (``--trace 1``) and writes
the same summary for the per-layer metrics, to show which layers a change
moves. Run from anywhere:

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --runs steady640=5 acquire640=3 sim_replay=3 --seed 1 --seconds 30 \\
        --trace acquire640=3 --out BENCH_6.json

It exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="paired perfbench runs of two checkouts")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD=K",
                   help="runs per side for each workload, e.g. steady640=5")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", nargs="+", default=[], metavar="WORKLOAD=K",
                   help="traced pairs per workload (per-layer metrics), e.g. acquire640=3")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    for option in ("runs", "trace"):
        counts = {}
        for item in getattr(args, option):
            name, _, k = item.partition("=")
            if not k.isdigit() or int(k) < 2:
                p.error(f"--{option} entries need WORKLOAD=K with K >= 2, got '{item}'")
            counts[name] = int(k)
        setattr(args, option, counts)
    return args


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: its environment and result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(line["environment"] for line in lines if "environment" in line)
    result = lines[-1]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} run was not correct: {result}")
    return env, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def describe(tree: str) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_pairs(sides: dict, workload: str, k: int, args, trace: int,
              environments: list) -> dict:
    """k alternating pairs of one workload: each side's list of metric dicts."""
    results = {side: [] for side in sides}
    for pair in range(k):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            env, result = run_once(sides[side], workload, args.seed, args.seconds, trace)
            if env not in environments:
                environments.append(env)
            results[side].append(result["metrics"])
            print(f"{workload} {'traced ' if trace else ''}pair {pair + 1}/{k} {side}: "
                  + ", ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    return results


def summarize(results: dict, metrics: list) -> dict:
    """Per metric: each side's spread, the median pair ratio and pairs won;
    with a ``bound``, also the change's relative worsening of the median."""
    table = {}
    for m in metrics:
        name = m["name"]
        if name not in results["parent"][0]:
            continue
        values = {side: [r[name]["value"] for r in runs] for side, runs in results.items()}
        if not all(values["parent"]):
            continue  # a layer the workload never calls reads 0
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        better = (lambda r: r > 1.0) if m["better"] == "higher" else (lambda r: r < 1.0)
        table[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": spread(values["parent"]), "change": spread(values["change"]),
            "ratio_median": statistics.median(ratios),
            "pairs_better": sum(better(r) for r in ratios),
        }
        if "bound" in m:
            p, c = table[name]["parent"]["median"], table[name]["change"]["median"]
            worse_by = (p - c if m["better"] == "higher" else c - p) / p
            table[name].update(bound=m["bound"], worse_by=worse_by,
                               beyond_bound=worse_by > m["bound"])
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    sides = {"parent": args.parent, "change": args.change}
    environments = []
    workloads = {}
    for workload, k in args.runs.items():
        results = run_pairs(sides, workload, k, args, 0, environments)
        workloads[workload] = {"runs_per_side": k,
                               "metrics": summarize(results, benchmark["end_to_end"])}
    traced = {}
    for workload, k in args.trace.items():
        results = run_pairs(sides, workload, k, args, 1, environments)
        traced[workload] = {"runs_per_side": k,
                            "metrics": summarize(results, benchmark["per_layer"])}

    record = {
        "command": "python3 perfbench/run.py --workload <workload> "
                   f"--seed {args.seed} --seconds {args.seconds:g}",
        "seed": args.seed,
        "seconds": args.seconds,
        "statistic": "per side: median and quartiles (inclusive method) over the runs; "
                     "ratio_median: median of change/parent over the pairs; "
                     "worse_by: (change - parent) / parent of the medians, sign "
                     "flipped for higher-is-better; beyond_bound: worse_by > bound; "
                     "pairs run alternately, parent first on even pairs",
        "parent": describe(args.parent),
        "change": describe(args.change),
        "cpu": cpu_model(),
        "environment": environments[0] if len(environments) == 1 else environments,
        "workloads": workloads,
    }
    if traced:
        record["traced"] = traced
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
