"""The measured process: runs one stage of one workload and reports it.

``run.py`` starts this file with OpenBLAS, OpenMP and MKL pinned to one
thread, glibc keeping freed memory, and ``src`` on ``PYTHONPATH``. The ``prepare`` stage makes inputs
that must not count toward this process's memory; the ``measure`` stage
runs the workload and prints the result as its last line of output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("stage", choices=("prepare", "measure"))
    p.add_argument("--root", required=True, help="checkout holding src/uavtrack")
    p.add_argument("--out", required=True, help="this workload's output directory")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def check_program_source(root: str) -> None:
    """Make sure uavtrack is imported from the checkout's own source."""
    import uavtrack
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(uavtrack.__file__).startswith(src + os.sep):
        raise SystemExit(f"uavtrack imported from {uavtrack.__file__}, not from {src}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def install_hooks(tracer, full: bool) -> None:
    """Wrap the program's public functions where the program calls them.

    The set-up hooks (template selection, scene renderer construction) are
    always on, since ``setup_s`` of ``sim_replay`` is read from them; the
    rest only in the traced run.
    """
    from uavtrack import cli, estimator, gimbal, imaging, matcher, pgm, simulator, tracker

    renderer_class = simulator.SceneRenderer
    tracer.hook(tracker.Tracker, "select", "tracker.select")
    tracer.hook(simulator, "SceneRenderer", "simulator.renderer_init")
    if not full:
        return

    def placements(counts, args, cmap):
        counts["placements"] += cmap.scores.size
        counts["macs"] += cmap.scores.size * args[1].pixels.size

    def detections(counts, args, det):
        counts["detections"] += det is not None

    def window_px(counts, args, window):
        counts["window_px"] += window.width * window.height

    tracer.hook(renderer_class, "render", "simulator.render")
    tracer.hook(tracker.Tracker, "process", "tracker.process")
    tracer.hook(tracker, "build_template_bank", "imaging.bank")
    for module in (imaging, simulator, pgm):
        tracer.hook(module, "Frame", "imaging.frame")
    tracer.hook(matcher, "detect", "matcher.detect", detections)
    tracer.hook(matcher, "zmncc_fast", "matcher.zmncc", placements)
    tracer.hook(estimator, "predict", "estimator.predict")
    tracer.hook(estimator, "correct", "estimator.correct")
    tracer.hook(estimator, "search_window", "estimator.window", window_px)
    tracer.hook(gimbal, "centering_step", "gimbal.step")
    tracer.hook(pgm, "read_pgm", "pgm.read")
    tracer.hook(pgm, "load_sequence", "pgm.load")
    tracer.hook(cli, "write_csv", "cli.csv")


def median_round(run, key: str) -> float:
    return statistics.median(r[key] for r in run.rounds)


def end_to_end(run) -> dict:
    return {
        "fps": (run.post_lock_frames / (run.post_lock_ms / 1e3) if run.post_lock_ms else 0.0,
                "frames/s"),
        "frame_ms_p50": (statistics.median(run.frame_ms), "ms"),
        "acquire_s": (median_round(run, "acquire_s"), "s"),
        "wall_s": (median_round(run, "wall_s"), "s"),
        "setup_s": (median_round(run, "setup_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run) -> dict:
    """Per-call times, per-frame work counts and ratios from the spans.

    A layer this workload never calls reads 0.
    """
    layers = run.tracer.layers()
    counts = run.tracer.counts

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def per_call(name, key="total_ns", unit_ns=1e3):
        n = calls(name)
        return layers[name][key] / n / unit_ns if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    frames = calls("tracker.process")
    return {
        "matcher.zmncc_us": (per_call("matcher.zmncc"), "us"),
        "matcher.zmncc_calls": (ratio(calls("matcher.zmncc"), frames), "calls/frame"),
        "matcher.placements": (ratio(counts["placements"], frames), "placements/frame"),
        "matcher.macs": (ratio(counts["macs"], frames), "MAC/frame"),
        "matcher.hit_ratio": (ratio(counts["detections"], calls("matcher.zmncc")), "ratio"),
        "matcher.detect_self_us": (per_call("matcher.detect", "self_ns"), "us"),
        "tracker.process_self_us": (per_call("tracker.process", "self_ns"), "us"),
        "estimator.predict_us": (per_call("estimator.predict"), "us"),
        "estimator.correct_us": (per_call("estimator.correct"), "us"),
        "estimator.window_us": (per_call("estimator.window"), "us"),
        "estimator.window_px": (ratio(counts["window_px"], calls("estimator.window")), "px"),
        "gimbal.step_us": (per_call("gimbal.step"), "us"),
        "imaging.frame_us": (per_call("imaging.frame"), "us"),
        "imaging.bank_ms": (per_call("imaging.bank", unit_ns=1e6), "ms"),
        "simulator.render_us": (per_call("simulator.render"), "us"),
        "simulator.renderer_init_ms": (per_call("simulator.renderer_init", unit_ns=1e6), "ms"),
        "pgm.read_us": (per_call("pgm.read"), "us"),
        "pgm.load_ms": (per_call("pgm.load", unit_ns=1e6), "ms"),
        "cli.csv_ms": (per_call("cli.csv", unit_ns=1e6), "ms"),
        "trace.wall_s": (median_round(run, "wall_s"), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    check_program_source(args.root)
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    run = workloads.Run(root=args.root, out=args.out, seed=args.seed,
                        seconds=args.seconds, tracer=tracer)
    if args.stage == "prepare":
        workloads.PREPARE[args.workload](run)
        return 0

    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    if env["blas_threads"] not in (None, 1):
        print(f"error: BLAS runs {env['blas_threads']} threads, not 1", file=sys.stderr)
        return 2
    install_hooks(tracer, full=bool(args.trace))
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        tracer.close()

    metrics = per_layer(run) if args.trace else end_to_end(run)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "rounds": run.rounds,
                   "failures": run.failures, "problems": run.problems, "result": result}, f, indent=1)
    if args.trace:
        tracer.write(os.path.join(args.out, "spans.csv"))
    for text in run.failures:
        print(f"operation failed: {text}", file=sys.stderr)
    for text in run.problems:
        print(f"check failed: {text}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
