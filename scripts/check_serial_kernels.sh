#!/usr/bin/env bash
#===- scripts/check_serial_kernels.sh - The kernels stay serial ----------===#
#
# Part of the SMAT reproduction project.
#
# Every kernel under src/kernels is serial: a plan runs it as row slices
# across the OpenMP team (src/core/FormatOperator.h), which is the only way
# a plan uses threads. Fails, printing the offending lines, when a file
# there includes <omp.h>, calls an omp_ runtime function, or uses an OpenMP
# construct other than `#pragma omp simd`.
#
# Usage: scripts/check_serial_kernels.sh
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

directive='^[[:space:]]*#[[:space:]]*(include[[:space:]]*<omp\.h>|pragma[[:space:]]+omp([[:space:]]|$))'
call='(^|[^A-Za-z0-9_])omp_[A-Za-z_]+[[:space:]]*\('
simd='#[[:space:]]*pragma[[:space:]]+omp[[:space:]]+simd([[:space:]]|$)'

if grep -rnE "${directive}|${call}" src/kernels | grep -vE "${simd}"; then
  echo "src/kernels must stay serial: only '#pragma omp simd' is allowed" >&2
  exit 1
fi
echo "src/kernels: serial"
