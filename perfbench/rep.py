"""One benchmark rep in a fresh process; prints one JSON line.

Started by ``run.py`` with the monotonic clock reading taken just
before the spawn, so ``setup_s`` covers interpreter start, importing
``repro`` (and numpy) and preparing the experiment.  With ``--sampled``
a :class:`stats.SpeedSampler` times calibration slices through set-up
and the run; their seconds are taken out of ``setup_s`` and ``run_s``
and their speed is reported beside them.  With ``--traced`` the layer
wrappers are installed after set-up and the rep also writes its Chrome
trace and self-time table.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--in-process", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--sampled", action="store_true")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from stats import SpeedSampler

    sampler = None
    if args.sampled:
        sampler = SpeedSampler()
        sampler.start()
    try:
        import numpy  # noqa: F401 - repro's batched kernels use it when present
    except ImportError:
        pass
    import repro.api  # noqa: F401
    import repro.campaign  # noqa: F401
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.size]
    prepared = workload.prepare(args.seed, args.rep, size, args.scratch)
    setup_end = time.monotonic()

    tracer = None
    if args.traced:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    execute = workload.execute
    if tracer is not None:
        # The root span: its self time is the run outside every layer.
        execute = tracer.timed(execute, "run", span=True)
    run_start = time.monotonic()
    t0 = time.perf_counter_ns()
    outcome = execute(prepared, in_process=args.in_process)
    run_ns = time.perf_counter_ns() - t0
    run_end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    setup_s = setup_end - args.spawned_at
    run_s = run_ns / 1e9
    calib_setup = calib_run = None
    if sampler is not None:
        sampler.stop()
        busy, calib_setup = sampler.window(float("-inf"), setup_end)
        setup_s -= busy
        busy, calib_run = sampler.window(run_start, run_end)
        run_s -= busy

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    summary = {
        "rep": args.rep,
        "setup_s": setup_s,
        "run_s": run_s,
        # Host speed as seconds per calibration loop, None unless sampled.
        "calib_setup_s": calib_setup,
        "calib_run_s": calib_run,
        # Linux reports ru_maxrss in KiB; workers add the largest one's peak.
        "peak_rss_mb": (own + workers) / 1024.0,
        "in_process": args.in_process,
        "ticks_timed": len(outcome.deliver_tick_s) + len(outcome.epoch_tick_s),
        "cells_failed": sum(1 for f in outcome.failures if f.startswith("cell ")),
    }
    summary.update(dataclasses.asdict(outcome))
    if tracer is not None:
        from tracing import write_exports

        prefix = os.path.join(args.scratch, f"{args.workload}-seed{args.seed}")
        meta = {"workload": args.workload, "seed": args.seed, "size": args.size}
        write_exports(tracer, prefix, meta, run_ns)
        summary["trace_files"] = [prefix + ".trace.json", prefix + ".selftime.txt"]
        summary["tracer"] = {
            "agg": {k: list(v) for k, v in tracer.agg.items()},
            "counts": dict(tracer.counts),
            "samples": {k: list(v) for k, v in tracer.samples.items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
