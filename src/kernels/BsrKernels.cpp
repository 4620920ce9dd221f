//===- kernels/BsrKernels.cpp - BSR SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// BSR y := A*x variants (the extension format). Dense blocks amortize index
// loads over BlockSize^2 values and keep register-level reuse of X; the
// fixed-size specializations (2x2 / 4x4 / 8x8) let the compiler fully
// unroll the block multiply — the register-blocking effect OSKI exploits.
//
// Edge blocks of matrices whose dimensions are not multiples of BlockSize
// are padded with explicit zeros, so the fast paths multiply them blindly;
// only X/Y accesses are clamped.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <utility>

namespace smat {
namespace {

/// The block rows [First, Last) holding rows [RowBegin, RowEnd); both bounds
/// fall on block rows (RowEnd may also be NumRows).
template <typename T>
std::pair<index_t, index_t> blockRows(const BsrMatrix<T> &A, index_t RowBegin,
                                      index_t RowEnd) {
  assert(RowBegin % A.BlockSize == 0 &&
         (RowEnd % A.BlockSize == 0 || RowEnd == A.NumRows) &&
         "BSR row bounds must fall on block rows");
  return {RowBegin / A.BlockSize, (RowEnd + A.BlockSize - 1) / A.BlockSize};
}

/// Generic block multiply with full edge clamping; correct for any
/// BlockSize. All other variants fall back to this for edge blocks.
template <typename T>
void bsrBasic(const BsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
              const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  index_t B = A.BlockSize;
  const auto [First, Last] = blockRows(A, RowBegin, RowEnd);
  for (index_t Br = First; Br < Last; ++Br) {
    index_t RowBase = Br * B;
    index_t RowsHere = std::min(B, A.NumRows - RowBase);
    for (index_t R = 0; R < RowsHere; ++R)
      Y[RowBase + R] = T(0);
    for (index_t I = A.RowPtr[Br]; I < A.RowPtr[Br + 1]; ++I) {
      index_t ColBase = A.ColIdx[I] * B;
      index_t ColsHere = std::min(B, A.NumCols - ColBase);
      const T *SMAT_RESTRICT Block =
          A.Values.data() + static_cast<std::size_t>(I) * B * B;
      for (index_t R = 0; R < RowsHere; ++R) {
        T Sum = T(0);
        for (index_t C = 0; C < ColsHere; ++C)
          Sum += Block[R * B + C] * X[ColBase + C];
        Y[RowBase + R] += Sum;
      }
    }
  }
}

/// Compile-time block size: the block multiply fully unrolls and X values
/// stay in registers across the block's rows.
template <typename T, int B>
void bsrFixed(const BsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
              const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  assert(A.BlockSize == B && "fixed-size kernel bound to wrong matrix");
  const auto [First, Last] = blockRows(A, RowBegin, RowEnd);
  index_t FullRows = A.NumRows / B; // Block rows with no row clamping.
  for (index_t Br = First; Br < Last; ++Br) {
    index_t RowBase = Br * B;
    bool EdgeRow = Br >= FullRows;
    T Acc[B];
    for (int R = 0; R < B; ++R)
      Acc[R] = T(0);
    for (index_t I = A.RowPtr[Br]; I < A.RowPtr[Br + 1]; ++I) {
      index_t ColBase = A.ColIdx[I] * B;
      const T *SMAT_RESTRICT Block =
          A.Values.data() + static_cast<std::size_t>(I) * B * B;
      if (SMAT_LIKELY(ColBase + B <= A.NumCols)) {
        for (int R = 0; R < B; ++R) {
          T Sum = T(0);
          for (int C = 0; C < B; ++C)
            Sum += Block[R * B + C] * X[ColBase + C];
          Acc[R] += Sum;
        }
      } else {
        index_t ColsHere = A.NumCols - ColBase;
        for (int R = 0; R < B; ++R) {
          T Sum = T(0);
          for (index_t C = 0; C < ColsHere; ++C)
            Sum += Block[R * B + C] * X[ColBase + C];
          Acc[R] += Sum;
        }
      }
    }
    if (SMAT_LIKELY(!EdgeRow)) {
      for (int R = 0; R < B; ++R)
        Y[RowBase + R] = Acc[R];
    } else {
      index_t RowsHere = A.NumRows - RowBase;
      for (index_t R = 0; R < RowsHere; ++R)
        Y[RowBase + R] = Acc[R];
    }
  }
}

/// Dispatches to the unrolled kernel when the block size matches one of the
/// supported specializations; generic otherwise.
template <typename T>
void bsrUnrolled(const BsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                 const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  switch (A.BlockSize) {
  case 2:
    bsrFixed<T, 2>(A, RowBegin, RowEnd, X, Y);
    return;
  case 4:
    bsrFixed<T, 4>(A, RowBegin, RowEnd, X, Y);
    return;
  case 8:
    bsrFixed<T, 8>(A, RowBegin, RowEnd, X, Y);
    return;
  default:
    bsrBasic(A, RowBegin, RowEnd, X, Y);
    return;
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::BsrKernelFn<T>>> smat::makeBsrKernels() {
  return {
      {"bsr_basic", OptNone, &bsrBasic<T>},
      {"bsr_unrolled", OptUnroll, &bsrUnrolled<T>},
  };
}

template std::vector<smat::Kernel<smat::BsrKernelFn<float>>>
smat::makeBsrKernels<float>();
template std::vector<smat::Kernel<smat::BsrKernelFn<double>>>
smat::makeBsrKernels<double>();
