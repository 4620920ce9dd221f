#!/usr/bin/env bash
#===- scripts/perfbench_smoke.sh - One-second run of every workload -------===#
#
# Part of the SMAT reproduction project.
#
# Runs each workload of a built benchmark package (perfbench/) for one
# second, untraced, with the committed model, and fails when a run exits
# non-zero or its result line (the last line of its output) counts a failed
# operation ("failed" above 0). It does not gate on "correct": that also
# reads false when the same kernel, timed twice, disagrees, which a noisy
# shared host can cause.
#
# Usage: scripts/perfbench_smoke.sh [BUILD_DIR]   (default: build-perfbench)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

bin="${1:-build-perfbench}/perfbench"

for workload in tune_cold amg_pcg serve_mixed; do
  echo "=== perfbench smoke: ${workload} ==="
  result=$("${bin}" --workload "${workload}" --seed 1 --seconds 1 --trace 0 \
             --model bench_cache/model_double_small.txt | tail -n 1)
  failed=$(python3 -c 'import json, sys; print(json.loads(sys.argv[1])["failed"])' \
             "${result}")
  echo "${workload}: failed=${failed}"
  if [[ "${failed}" != "0" ]]; then
    echo "perfbench smoke: ${workload} failed ${failed} operations" >&2
    echo "${result}" >&2
    exit 1
  fi
done
