"""Repository benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adaptive_epoch --seed 0 --seconds 25 --trace 0

Every rep runs in a fresh ``rep.py`` process, one at a time, with the
numpy/BLAS thread pools pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` over all the reps, with host
times scaled to a reference host speed by calibration slices sampled
during every rep (see ``end_to_end``);
``--trace 1`` runs untraced reps (tick timings, untraced run time) and
one traced rep (the layer wrappers of ``tracing.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the per-rep log, the tail percentiles and the check
results.  Traces and scratch files go to ``perfbench/out/``.

``--size mini`` runs the self-test miniature of the same workload.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import REFERENCE_CALIB_S, median  # noqa: E402
from workloads import CORRELATIONS, SIZES, STRATEGIES, WORKLOADS, rep_seed  # noqa: E402

#: Wall-clock ceiling for one invocation, well inside the 180 s limit;
#: no rep starts with less than MIN_REP_WINDOW_S of it left.
DEADLINE_S = 160.0
MIN_REP_WINDOW_S = 10.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def rep_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn_rep(args, rep: int, scratch: str, timeout: float, traced=False, in_process=False,
              sampled=False):
    """Run one rep process; (summary dict or None, error text).

    The rep runs in its own process group, so a timeout also kills any
    campaign workers it started; every process is reaped before return.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--rep", str(rep), "--size", args.size, "--scratch", scratch,
    ]
    if traced:
        cmd.append("--traced")
    if in_process:
        cmd.append("--in-process")
    if sampled:
        cmd.append("--sampled")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=rep_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"rep {rep} timed out after {timeout:.0f} s"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"rep {rep} exited {proc.returncode}: {tail}"
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, f"rep {rep} printed no result"


def rep_count(args) -> int:
    nominal = SIZES[args.workload][args.size]["rep_s"]
    return max(3, round(args.seconds / nominal))


def check(args, reps, errors, manifest):
    """(attempted, failed, messages): output checks plus the digest."""
    attempted = failed = 0
    messages = list(errors)
    size = SIZES[args.workload][args.size]
    for _err in errors:
        # A rep that never reported counts all its experiments as failed.
        n = len(CORRELATIONS) * len(STRATEGIES) * size["seeds"] if "seeds" in size else 1
        attempted += n
        failed += n
    for rep in reps:
        attempted += rep["instances"]
        failed += len(rep["failures"])
        messages += [f"rep {rep['rep']}: {f}" for f in rep["failures"]]
    entry = manifest["workloads"][args.workload]
    first = next((r for r in reps if r["rep"] == 0), None)
    if args.size == "full" and args.seed == entry["default_seed"] and first is not None:
        expected = entry["digest"]
        if first["digest"] != expected:
            failed += 1
            messages.append(f"digest mismatch: got {first['digest']} expected {expected}")
        else:
            messages.append(f"digest ok at default seed {args.seed}")
    return attempted, failed, messages


def end_to_end(reps):
    """Every end-to-end metric over the whole run, plus the raw wall times.

    Host times are in reference-host seconds: each rep's set-up and run
    seconds times ``REFERENCE_CALIB_S`` over the calibration speed
    sampled during them (see ``stats.SpeedSampler``).  The shared host's
    vCPUs flip between fast and slow phases, up to 1.7x apart and from a
    second to a minute long, which no run length averages out; the
    sampled slices slow with them.  ``run_rel`` is the same run time as
    a ratio to the calibration loop.

    Run time is summed over the reps: ``run_s`` is the mean per rep and
    a rate is the run's total work over its total run seconds, because
    a median of a few reps jumps between the phases where a sum averages
    over them.  Set-up time and peak RSS are medians over the reps.
    """
    def med(fn):
        return median([fn(r) for r in reps])

    def total(key):
        return sum(r[key] for r in reps)

    def reference(r, phase):
        return r[f"{phase}_s"] * REFERENCE_CALIB_S / r[f"calib_{phase}_s"]

    run_total = sum(reference(r, "run") for r in reps)
    run_mean = run_total / len(reps)
    useful = total("useful")
    sent = total("sent")
    fractions = [r["useful_fraction"] for r in reps if r["useful_fraction"] is not None]
    return {
        "run_s": (run_mean, "s"),
        "run_rel": (run_mean / REFERENCE_CALIB_S, "ratio"),
        "setup_s": (med(lambda r: reference(r, "setup")), "s"),
        "calib_s": (sum(r["calib_run_s"] for r in reps) / len(reps), "s"),
        "unscaled_run_s": (total("run_s") / len(reps), "s"),
        "unscaled_setup_s": (med(lambda r: r["setup_s"]), "s"),
        "node_ticks_per_s": (total("node_ticks") / run_total, "1/s"),
        "cells_per_s": (total("cells") / run_total, "1/s"),
        "peers_per_s": (total("peers") / run_total, "1/s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
        "useful_fraction": (
            sum(fractions) / len(fractions) if fractions else (useful / sent if sent else 0.0),
            "ratio",
        ),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "mini"), default="full")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)

    scratch = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)
    started = time.monotonic()
    reps, errors = [], []

    def go(rep, **kw):
        remaining = DEADLINE_S - (time.monotonic() - started)
        if remaining < MIN_REP_WINDOW_S:
            errors.append(f"rep {rep} skipped: {DEADLINE_S:.0f} s deadline reached")
            return None
        summary, err = spawn_rep(args, rep, scratch, remaining, **kw)
        if summary is None:
            errors.append(err)
        return summary

    if args.trace == 0:
        for i in range(rep_count(args)):
            # On a host much slower than the nominal rep time, stop at 1.2x
            # the measuring time once three reps are in.
            if i >= 3 and time.monotonic() - started > 1.2 * args.seconds:
                break
            # paper_grid runs its cells in the rep process, where the
            # sampler sees them.
            r = go(i, sampled=True, in_process=args.workload == "paper_grid")
            if r is not None:
                reps.append(r)
                log_rep(r, rep_seed(args.seed, i))
        metrics = end_to_end(reps) if reps else {}
        names = [m["name"] for m in bench["end_to_end"]]
        notes = {}
    else:
        from tracing import Tracer, ladder

        untraced = []
        for i in range(2):
            r = go(i)
            if r is not None:
                untraced.append(r)
                log_rep(r, rep_seed(args.seed, i))
        if args.workload == "paper_grid":
            r = go(0, in_process=True)
            if r is not None:
                untraced.append(r)
                log_rep(r, rep_seed(args.seed, 0), "untraced in-process")
        traced = go(0, traced=True, in_process=args.workload == "paper_grid")
        metrics, notes = {}, {}
        if traced is not None and untraced:
            reps = untraced + [traced]
            log_rep(traced, rep_seed(args.seed, 0), "traced")
            tracer = Tracer()
            data = traced.pop("tracer")
            tracer.agg.update(data["agg"])
            tracer.counts.update(data["counts"])
            tracer.samples.update(data["samples"])
            same_input = [r["run_s"] for r in untraced if r["rep"] == 0
                          and r["in_process"] == traced["in_process"]]
            baseline = same_input[0] if same_input else median([r["run_s"] for r in untraced])
            metrics, notes = ladder(tracer, traced, untraced, baseline)
            print("trace files: " + ", ".join(
                os.path.relpath(p, ROOT) for p in traced["trace_files"]))
        names = [m["name"] for m in bench["per_layer"]]

    attempted, failed, messages = check(args, reps, errors, manifest)
    for msg in messages:
        print("check: " + msg)
    missing = [n for n in names if n not in metrics]
    if missing:
        print("missing metrics (no successful rep): " + ", ".join(missing))
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            note = f"  [{notes[name]}]" if name in notes else ""
            print(f"metric {name} = {value:.6g} {unit}{note}")
    if "calib_s" in metrics:
        print(f"calib_s = {metrics['calib_s'][0]:.6g} s (sampled host speed, mean of the run;"
              f" reference {REFERENCE_CALIB_S} s)")
        print(f"unscaled: run_s = {metrics['unscaled_run_s'][0]:.6g} s (mean per rep),"
              f" setup_s = {metrics['unscaled_setup_s'][0]:.6g} s (median)")
    print(f"failed_fraction = {failed / attempted if attempted else 1.0:.6g}"
          f" ({failed} of {attempted})")
    result = {
        "correct": failed == 0 and not missing and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0


def log_rep(r, seed, label="untraced"):
    calib = (f"calib_s setup {r['calib_setup_s']:.5f} run {r['calib_run_s']:.5f} "
             if r["calib_run_s"] is not None else "")
    print(
        f"rep {r['rep']} ({label}) seed={seed} setup_s={r['setup_s']:.4f} "
        f"run_s={r['run_s']:.4f} {calib}"
        f"rss={r['peak_rss_mb']:.1f}MB instances={r['instances']} "
        f"ticks={r['ticks']} epochs={r['epochs']} checks="
        + ("ok" if not r["failures"] else f"{len(r['failures'])} failed"),
        flush=True,
    )


if __name__ == "__main__":
    sys.exit(main())
