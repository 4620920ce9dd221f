#!/usr/bin/env bash
#===- scripts/check.sh - Tier-1 suite across the hardening builds ---------===#
#
# Part of the SMAT reproduction project.
#
# Runs the tier-1 test suite across five build configurations, then builds
# and self-tests the repository benchmark:
#
#   build        default flags, full tier-1 suite
#   build-asan   SMAT_SANITIZE=ON (ASan + UBSan), full tier-1 suite — the
#                malformed-input fuzz harness under memory-error detection
#   build-tsan   SMAT_SANITIZE=thread, stress-labelled binaries only — the
#                concurrent PlanCache/Smat stress under ThreadSanitizer
#                (OMP_NUM_THREADS=1: the OpenMP runtime is not TSan-
#                instrumented, and the threading under test is std::thread)
#   build-fault  SMAT_FAULT_INJECTION=ON, fault-labelled binaries only —
#                the injection sweeps and degradation-ladder tests, which
#                skip themselves in builds without the hooks
#   build-tsan-fault
#                SMAT_SANITIZE=thread + SMAT_FAULT_INJECTION=ON together,
#                service- and stress-labelled binaries — the async tuning
#                service's worker thread and atomic plan swaps, and the
#                concurrent tunes through one Smat and PlanCache,
#                race-checked WHILE the fault sites are armed, so the
#                failure paths (worker death, snapshot corruption, dropped
#                stages) run under TSan too
#   build-perfbench
#                perfbench/ configured as its own package with
#                SMAT_NATIVE_ARCH=OFF: builds perfbench and perfbench_selftest
#                and runs the self-test, so a library API change the
#                benchmark compiles against fails here, not in a benchmark
#                run
#
# Usage: scripts/check.sh [--fuzz-only]
#   --fuzz-only   restrict the default and ASan passes to the fuzz-labelled
#                 binaries (the TSan and fault passes still run their own
#                 labels)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

TIER1_LABEL=tier1
if [[ "${1:-}" == "--fuzz-only" ]]; then
  TIER1_LABEL=fuzz
fi

run_pass() {
  local build_dir="$1"
  local label="$2"
  shift 2
  echo "=== configure: ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== build: ${build_dir} ==="
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ctest: ${build_dir} (-L ${label}) ==="
  (cd "${build_dir}" &&
   ctest --output-on-failure -j "$(nproc)" -L "${label}")
}

run_pass build "${TIER1_LABEL}"
run_pass build-asan "${TIER1_LABEL}" -DSMAT_SANITIZE=ON
OMP_NUM_THREADS=1 run_pass build-tsan stress -DSMAT_SANITIZE=thread
run_pass build-fault fault -DSMAT_FAULT_INJECTION=ON
OMP_NUM_THREADS=1 run_pass build-tsan-fault 'service|stress' \
  -DSMAT_SANITIZE=thread -DSMAT_FAULT_INJECTION=ON

echo "=== configure: build-perfbench (perfbench/ -DSMAT_NATIVE_ARCH=OFF) ==="
cmake -B build-perfbench -S perfbench -DSMAT_NATIVE_ARCH=OFF
echo "=== build: build-perfbench ==="
cmake --build build-perfbench -j "$(nproc)" --target perfbench perfbench_selftest
echo "=== self-test: build-perfbench ==="
./build-perfbench/perfbench_selftest

echo "=== check.sh: all six passes green ==="
