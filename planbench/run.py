#!/usr/bin/env python3
"""Builds and runs the planner benchmark (planbench/README.md).

Run from the repository root:

    python3 planbench/run.py --workload search_testbed --seed 1 --seconds 25 --trace 0
    python3 planbench/run.py --self-check

The benchmark binary is built from the repository's sources with CMake into
$CARGO_TARGET_DIR/planbench (default .bench_build/planbench). Each run gets
an empty scratch directory under .bench_tmp/, removed afterwards. The last
line of standard output is the JSON result, validated against BENCHMARK.json
before it is printed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SELF_CHECK_SECONDS = 1


def fail(message, code=2):
    print(f"planbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no HeteroG sources to build (expected src/CMakeLists.txt next to planbench/)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "planbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "planbench",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the table and the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "planbench")


def validate(result, spec, trace):
    """Problems with a result line: shape, every declared metric with its unit
    and a finite value, and end-to-end metrics never 0."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly the keys correct, attempted, failed, metrics"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics: " + ", ".join(sorted(extra)))
    for m in declared:
        entry = metrics.get(m["name"])
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{m['name']}: missing or malformed")
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
        if entry["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {entry['unit']!r}, declared {m['unit']!r}")
    return problems


def run_once(binary, spec, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result or None, problems)."""
    tmp = os.path.join(".bench_tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--tmp", tmp]
    # Own process group, so a timeout also stops the plan-server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 3, None, [f"timed out after {RUN_TIMEOUT_S} s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines:
        return proc.returncode or 3, None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 3, None, ["last line is not JSON"]
    return proc.returncode, result, validate(result, spec, trace)


def self_check(binary, spec):
    """Every workload at smoke length, untraced and traced: each named metric
    must print with its unit and a finite value, and every check must pass."""
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, result, problems = run_once(binary, spec, workload, 1, SELF_CHECK_SECONDS,
                                              trace, echo=False)
            ok = code == 0 and result is not None and result["correct"] and not problems
            failures += 0 if ok else 1
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={int(trace)} exit={code}"
                  + ("" if ok else " " + "; ".join(problems)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    spec = load_spec()
    binary = build()
    if args.self_check:
        sys.exit(self_check(binary, spec))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, result, problems = run_once(binary, spec, args.workload, args.seed, seconds,
                                      bool(args.trace))
    if result is None or problems:
        fail("invalid result: " + "; ".join(problems), code or 3)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
