#!/usr/bin/env python3
"""Tests of the benchmark itself.

  python3 perfbench/test_checks.py

1. BENCHMARK.json lists exactly the metrics the benchmark reports.
2. Every workload passes its smoke run, untraced and traced; the traced run
   writes a trace file that loads as Chrome trace-event JSON.
3. Every checked output, deliberately corrupted (--corrupt NAME), makes its
   workload fail with a nonzero exit.
4. The command fails, without a result, in a directory that holds only
   BENCHMARK.json and perfbench/.
Exits nonzero when any test fails.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def smoke(binary, workload, traced=False, corrupt=""):
    cmd = [str(binary), "--workload", workload, "--smoke", "--seconds", "1",
           "--trace", "1" if traced else "0",
           "--scratch", str(run.build_dir())]
    trace_file = run.build_dir() / f"test-{workload}.trace.json"
    if traced:
        cmd += ["--trace-file", str(trace_file)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout, trace_file


def main():
    binary = run.build()
    listed = subprocess.run([str(binary), "--list-metrics"],
                            capture_output=True, text=True).stdout.split("\n")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [f"end_to_end {m['name']} {m['unit']} {m['better']}"
                for m in spec["end_to_end"]]
    declared += [f"per_layer {m['name']} {m['unit']} {m['better']}"
                 for m in spec["per_layer"]]
    expect([line for line in listed if line] == declared,
           "BENCHMARK.json lists the metrics the benchmark reports")
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    for workload in run.WORKLOADS:
        code, result, _, _ = smoke(binary, workload)
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and result["attempted"] > 0
               and list(result["metrics"]) == e2e
               and all(m["value"] > 0 for m in result["metrics"].values()),
               f"{workload}: smoke run passes with every end-to-end metric")
        code, result, _, trace_file = smoke(binary, workload, traced=True)
        expect(code == 0 and result is not None
               and list(result["metrics"]) == layers,
               f"{workload}: traced smoke run reports every per-layer metric")
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
            loads = len(events) > 0 and all(
                e["ph"] == "X" and e["dur"] >= 0 and "ts" in e for e in events)
        except (OSError, ValueError, KeyError):
            loads = False
        expect(loads, f"{workload}: trace file is Chrome trace-event JSON")

    owner = {"fitted": "advisory_fitted", "churn": "advisory_churn",
             "offline": "offline", "sweep": "sweep"}
    names = subprocess.run([str(binary), "--list-corruptions"],
                           capture_output=True, text=True).stdout.split()
    for name in names:
        workload = owner[name.split(".")[0]]
        code, result, out, _ = smoke(binary, workload, corrupt=name)
        expect(code == 1 and result is not None and not result["correct"]
               and "CHECK FAILED" in out,
               f"{workload}: corrupting {name} fails the run")

    isolated = run.build_dir() / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", isolated)
    shutil.copytree(HERE, isolated / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=isolated, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py fails without a result when the library sources are "
           "missing")
    shutil.rmtree(isolated, ignore_errors=True)

    print(f"\n{len(FAILURES)} failed" if FAILURES else "\nall passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
