"""Self-test of the benchmark harness on miniatures of all four workloads.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size mini`` untraced and traced and
asserts that the last line is the result object, that every metric
``BENCHMARK.json`` names for that mode is printed with its unit, and that
every output check passed.  It also checks that the benchmark refuses to
run, with a non-zero exit and no result line, in a directory that holds
only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_mode(bench, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "mini"])
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct\n{proc.stdout}"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
    for line in proc.stdout.splitlines():
        assert not line.startswith("check: rep"), f"{label}: {line}"
    print(f"ok  {label}: {len(wanted)} metrics, {result['attempted']} checked")


def check_bare_directory(bench) -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
        proc = run(["--workload", "adaptive_epoch", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "bare directory: benchmark exited 0"
        assert '"correct"' not in proc.stdout, "bare directory: printed a result"
        print("ok  bare directory refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check_mode(bench, workload, trace)
    check_bare_directory(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
