#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which builds the
SMAT library from the checkout's sources), runs its self-check, then runs one
workload and prints the result object as the last line of standard output:

    python3 perfbench/run.py --workload tune_cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; nothing is written elsewhere.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tune_cold", "amg_pcg", "serve_mixed"]
RUN_TIMEOUT_S = 170
# Environment keys that must match before two results are compared.
ENV_KEYS = ["nproc", "omp_max_threads", "omp_env", "compiler", "build_type",
            "llc_bytes", "model_fnv1a64"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; silent unless it fails."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed ({' '.join(cmd)}); log in {log_path}")


def run(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns (code, out)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    return proc.returncode, out


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads do not match the benchmark's")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def compare_environment(out_dir, workload, trace, env):
    """Says so, loudly, when this run's environment differs from the last
    recorded run of the same workload; then records this one."""
    path = os.path.join(out_dir, "results", f"{workload}-trace{trace}.env.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        for key in ENV_KEYS:
            if old.get(key) != env.get(key):
                print(f"note: environment differs from the previous {workload} "
                      f"run ({key}: {old.get(key)!r} -> {env.get(key)!r}); "
                      f"do not compare the two results")
    with open(path, "w") as f:
        json.dump(env, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no SMAT sources next to {HERE}; run from a full checkout", 2)
    model = os.path.join(ROOT, "bench_cache", "model_double_small.txt")
    if not os.path.exists(model):
        fail(f"no model at {os.path.relpath(model, ROOT)}", 2)

    out_dir = build_dir()
    build(out_dir)
    code, out = run([os.path.join(out_dir, "perfbench_selftest")], 60)
    if code != 0:
        sys.stderr.write(out)
        fail("self-check failed")

    trace_out = os.path.join(out_dir, "traces",
                             f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    code, out = run([os.path.join(out_dir, "perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--model", os.path.relpath(model, ROOT),
                     "--trace-out", trace_out], RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"workload {args.workload} failed (exit code {code})")

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith("env "):
            compare_environment(out_dir, args.workload, args.trace,
                                json.loads(line[4:]))
    names = declared_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(names) ^ set(result['metrics']))}")
    if args.trace:
        print(f"trace: {os.path.relpath(trace_out, ROOT)}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
