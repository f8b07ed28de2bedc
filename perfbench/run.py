#!/usr/bin/env python3
"""End-to-end benchmark of mcpaging: builds the library in Release from
this directory and runs the workloads, each in its own process.

  python3 perfbench/run.py                        # every workload, untraced
                                                  # and traced, side by side
  python3 perfbench/run.py --smoke                # reduced sizes, every check
  python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

With --workload the last line of standard output is the workload's JSON
result {"correct", "attempted", "failed", "metrics"}.  Without it the last
line gathers every workload's untraced end-to-end metrics under
"<workload>.<metric>".  The exit code is nonzero when any check fails.
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["advisory_fitted", "advisory_churn", "offline", "sweep"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench-release"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no mcpaging sources next to", HERE)
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return out / "perfbench"


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                             "HEAD"], capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def run_workload(binary, workload, args, traced, scratch):
    """Runs one workload process; returns (exit code, parsed JSON result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--scratch", str(scratch), "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if traced:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{workload}.trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(line, end="", flush=True)
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: {workload} timed out")
        return 3, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if result is not None and line.startswith("e2e_json "):
            result["e2e"] = json.loads(line[len("e2e_json "):])
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, every check on")
    parser.add_argument("--corrupt", default="",
                        help="corrupt one named output before its check")
    args = parser.parse_args()

    binary = build()
    scratch = build_dir() / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload:
            code, result = run_workload(binary, args.workload, args,
                                        bool(args.trace), scratch)
            return code if result is not None else max(code, 2)
        return run_all(binary, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(binary, args, scratch):
    """Every workload untraced then traced; prints the tracing overhead."""
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    summary = {}
    status = 0
    correct = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for traced in modes:
            print(f"\n===== {workload} ({'traced' if traced else 'untraced'})",
                  flush=True)
            code, result = run_workload(binary, workload, args, traced,
                                        scratch)
            if result is None:
                status = max(status, code, 2)
                correct = False
                continue
            status = max(status, code)
            correct = correct and result["correct"]
            summary[(workload, traced)] = result
            if not traced or len(modes) == 1:
                attempted += result["attempted"]
                failed += result["failed"]
    if len(modes) == 2:
        print("\n===== end-to-end metrics, untraced vs traced")
        print(f"{'workload':16} {'metric':14} {'untraced':>14} {'traced':>14}"
              f" {'overhead':>9}")
        for workload in WORKLOADS:
            plain = summary.get((workload, False))
            traced = summary.get((workload, True))
            if plain is None or traced is None:
                continue
            traced_e2e = traced.get("e2e", {})
            for name, metric in plain["metrics"].items():
                value = metric["value"]
                other = traced_e2e.get(name)
                over = (f"{(other / value - 1) * 100:+8.1f}%"
                        if other and value else "")
                print(f"{workload:16} {name:14} {value:14.6g} "
                      f"{other if other is not None else float('nan'):14.6g}"
                      f" {over:>9}")
    metrics = {}
    for (workload, traced), result in summary.items():
        if traced and len(modes) == 2:
            continue
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct and status == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
