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
Every metric also gets the gain rule's verdict: ``gain_resolved`` holds
when the change wins at least nine tenths of the pairs, ties counting for
neither, and its median is better than the parent's by more than the
parent's interquartile range; with fewer than ten pairs it is null, as the
rule gives no verdict on so few. An end-to-end metric is ``unresolved`` when
either side's interquartile range, relative to its median, is wider than the
metric's bound, unless every run of the change reads better than every run
of the parent.
``--trace`` adds alternating pairs of traced runs (``--trace 1``) and writes
the same summary for the per-layer metrics, to show which layers a change
moves. Each side's commit comes from ``git describe`` in its tree, or from
``--parent-commit`` and ``--change-commit``, which a tree without git
history (such as one unpacked by ``git archive``) needs. Run from anywhere:

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

# The fewest pairs on which the gain rule can give a verdict.
MIN_GAIN_PAIRS = 10


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
    for side in ("parent", "change"):
        p.add_argument(f"--{side}-commit", default=None,
                       help=f"commit of the {side} tree, if it has no git history")
    args = p.parse_args(argv)
    for side in ("parent", "change"):
        if getattr(args, f"{side}_commit") is None:
            commit = describe(getattr(args, side))
            if commit is None:
                p.error(f"--{side} {getattr(args, side)} has no git history: "
                        f"give its commit with --{side}-commit")
            setattr(args, f"{side}_commit", commit)
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


def describe(tree: str) -> str | None:
    """The commit of ``tree`` by ``git describe``, or None outside git history."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


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
    """Per metric: each side's spread, the median pair ratio, pairs won and
    the gain rule's verdict; with a ``bound``, also the change's relative
    worsening of the median and whether the spread leaves it unresolved."""
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
        parent, change = spread(values["parent"]), spread(values["change"])
        pairs_better = sum(better(r) for r in ratios)
        p, c = parent["median"], change["median"]
        gain = p - c if m["better"] == "lower" else c - p
        table[name] = {
            "unit": m["unit"], "better": m["better"], "parent": parent, "change": change,
            "ratio_median": statistics.median(ratios), "pairs_better": pairs_better,
            "gain_resolved": (pairs_better >= 0.9 * len(ratios)
                              and gain > parent["q3"] - parent["q1"])
                             if len(ratios) >= MIN_GAIN_PAIRS else None,
        }
        if "bound" in m:
            worse_by = -gain / p
            spread_by = max((side["q3"] - side["q1"]) / side["median"]
                            for side in (parent, change))
            separated = all(better(c_run / p_run) for c_run in values["change"]
                            for p_run in values["parent"])
            table[name].update(bound=m["bound"], worse_by=worse_by,
                               beyond_bound=worse_by > m["bound"],
                               unresolved=spread_by > m["bound"] and not separated)
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
                     f"gain_resolved: at least {MIN_GAIN_PAIRS} pairs, pairs_better >= 0.9 "
                     "of the pairs and the medians differ in the better direction by more "
                     "than the parent's q3 - q1; null below that many pairs; "
                     "unresolved: either side's (q3 - q1) / median > bound, unless "
                     "every change run beats every parent run; "
                     "pairs run alternately, parent first on even pairs",
        "parent": args.parent_commit,
        "change": args.change_commit,
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
