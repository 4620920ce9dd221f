#!/usr/bin/env bash
#===- scripts/check_serial_kernels.sh - The kernels stay serial ----------===#
#
# Part of the SMAT reproduction project.
#
# Every kernel under src/kernels is serial: a plan runs it as row slices
# through the slice runner (src/support/Slices.h), which is the only way a
# plan uses threads, and the AMG solver (src/amg), feature extraction
# (src/features) and the format conversions (src/matrix) reach threads only
# through the same runner. Fails, printing the offending lines, when a file
# under src/kernels includes <omp.h>, calls an omp_ runtime function, or
# uses an OpenMP construct other than `#pragma omp simd`; when a file under
# src/amg, src/features or src/matrix does any of these, `omp simd`
# included; or when a file under src/kernels includes a project header from
# outside kernels/, matrix/ and support/ (src/core holds the plans and the
# kernel search, one layer up).
#
# Usage: scripts/check_serial_kernels.sh
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

directive='^[[:space:]]*#[[:space:]]*(include[[:space:]]*<omp\.h>|pragma[[:space:]]+omp([[:space:]]|$))'
call='(^|[^A-Za-z0-9_])omp_[A-Za-z_]+[[:space:]]*\('
simd='#[[:space:]]*pragma[[:space:]]+omp[[:space:]]+simd([[:space:]]|$)'

status=0
if grep -rnE "${directive}|${call}" src/kernels | grep -vE "${simd}"; then
  echo "src/kernels must stay serial: only '#pragma omp simd' is allowed" >&2
  status=1
fi
if grep -rnE "${directive}|${call}" src/amg src/features src/matrix; then
  echo "src/amg, src/features and src/matrix run threads only through" \
    "runSlices (support/Slices.h)" >&2
  status=1
fi

# A quoted include must name kernels/, matrix/ or support/, an angled one
# may not name another directory of src/, and neither may climb with "..".
include='^[[:space:]]*#[[:space:]]*include[[:space:]]*'
others=$(find src -mindepth 1 -maxdepth 1 -type d \
  ! -name kernels ! -name matrix ! -name support -printf '%f\n' |
  paste -sd '|')
outside=$(
  {
    grep -rnE "${include}\"" src/kernels |
      grep -vE ":[0-9]+:${include#^}\"(kernels|matrix|support)/" || true
    grep -rnE "${include}<(${others})/" src/kernels || true
    grep -rnE "${include}[\"<][^\">]*\.\./" src/kernels || true
  } | sort -u
)
if [ -n "${outside}" ]; then
  echo "${outside}"
  echo "src/kernels may include only kernels/, matrix/ and support/" >&2
  status=1
fi

if [ "${status}" -ne 0 ]; then
  exit 1
fi
echo "src/kernels: serial; src/amg, src/features, src/matrix: threads" \
  "through the slice runner"
