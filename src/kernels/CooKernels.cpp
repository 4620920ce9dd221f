//===- kernels/CooKernels.cpp - COO SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// COO y := A*x variants. The basic loop is the paper's Figure 2(b). All
// builders in this library emit row-major sorted COO, which the segmented
// variants and the row ranges exploit (runs of equal row index are
// contiguous).
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace smat {
namespace {

template <typename T>
void zeroOut(T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd,
             index_t K = 1) {
  std::memset(Y + static_cast<std::size_t>(RowBegin) * K, 0,
              sizeof(T) * static_cast<std::size_t>(RowEnd - RowBegin) *
                  static_cast<std::size_t>(K));
}

/// The entries [First, Last) of rows [RowBegin, RowEnd). The whole matrix
/// takes every entry, in any order; a partial range finds its entries by
/// binary search, so it needs the monotone row indices every COO matrix the
/// library builds has (csrToCoo, sortCooRowMajor).
template <typename T>
std::pair<std::int64_t, std::int64_t>
cooEntries(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd) {
  if (RowBegin == 0 && RowEnd == A.NumRows)
    return {0, A.nnz()};
  const index_t *Rows = A.Rows.data();
  const index_t *End = Rows + A.nnz();
  return {std::lower_bound(Rows, End, RowBegin) - Rows,
          std::lower_bound(Rows, End, RowEnd) - Rows};
}

template <typename T>
void cooBasic(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd,
              const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  zeroOut(Y, RowBegin, RowEnd);
  const auto [First, Last] = cooEntries(A, RowBegin, RowEnd);
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (std::int64_t I = First; I < Last; ++I)
    Y[Rows[I]] += Val[I] * X[Cols[I]];
}

template <typename T>
void cooUnroll4(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  zeroOut(Y, RowBegin, RowEnd);
  const auto [First, Last] = cooEntries(A, RowBegin, RowEnd);
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  std::int64_t I = First;
  for (; I + 3 < Last; I += 4) {
    Y[Rows[I + 0]] += Val[I + 0] * X[Cols[I + 0]];
    Y[Rows[I + 1]] += Val[I + 1] * X[Cols[I + 1]];
    Y[Rows[I + 2]] += Val[I + 2] * X[Cols[I + 2]];
    Y[Rows[I + 3]] += Val[I + 3] * X[Cols[I + 3]];
  }
  for (; I < Last; ++I)
    Y[Rows[I]] += Val[I] * X[Cols[I]];
}

/// Defers the store until the row index changes: turns the per-nonzero
/// read-modify-write of Y into one store per row run (branch optimization).
template <typename T>
void cooSegmented(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  zeroOut(Y, RowBegin, RowEnd);
  const auto [First, Last] = cooEntries(A, RowBegin, RowEnd);
  if (First == Last)
    return;
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  index_t Current = Rows[First];
  T Sum = T(0);
  for (std::int64_t I = First; I < Last; ++I) {
    index_t Row = Rows[I];
    if (Row != Current) {
      Y[Current] += Sum;
      Current = Row;
      Sum = T(0);
    }
    Sum += Val[I] * X[Cols[I]];
  }
  Y[Current] += Sum;
}

/// Prefetches the X gather stream.
template <typename T>
void cooPrefetch(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                 const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  zeroOut(Y, RowBegin, RowEnd);
  const auto [First, Last] = cooEntries(A, RowBegin, RowEnd);
  constexpr std::int64_t Distance = 64;
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (std::int64_t I = First; I < Last; ++I) {
    if (I + Distance < Last)
      __builtin_prefetch(&X[Cols[I + Distance]], 0, 0);
    Y[Rows[I]] += Val[I] * X[Cols[I]];
  }
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: X row-major NumCols x K, Y row-major NumRows x K.
//===----------------------------------------------------------------------===//

/// Strategy-free batched COO: per-entry accumulate with a runtime-K inner
/// loop. Order-independent on the whole matrix, so it has no structural
/// preconditions.
template <typename T>
void cooSpmmBasic(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y, index_t K) {
  zeroOut(Y, RowBegin, RowEnd, K);
  const auto [First, Last] = cooEntries(A, RowBegin, RowEnd);
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (std::int64_t I = First; I < Last; ++I) {
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Cols[I]) * K;
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Rows[I]) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] += V * Xr[J];
  }
}

/// Register-tiled batched COO with deferred row stores: the K-wide tile is
/// accumulated in registers across a run of equal row indices and flushed
/// (with +=, so unsorted inputs stay correct) when the row changes.
template <typename T, int K>
void cooSpmmSegmentedTiled(const CooMatrix<T> &A, index_t RowBegin,
                           index_t RowEnd, const T *SMAT_RESTRICT X,
                           T *SMAT_RESTRICT Y) {
  zeroOut(Y, RowBegin, RowEnd, K);
  const auto [First, Last] = cooEntries(A, RowBegin, RowEnd);
  if (First == Last)
    return;
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  index_t Current = Rows[First];
  T Acc[K] = {};
  for (std::int64_t I = First; I < Last; ++I) {
    const index_t Row = Rows[I];
    if (Row != Current) {
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Current) * K;
      for (int J = 0; J < K; ++J) {
        Yr[J] += Acc[J];
        Acc[J] = T(0);
      }
      Current = Row;
    }
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Cols[I]) * K;
    for (int J = 0; J < K; ++J)
      Acc[J] += V * Xr[J];
  }
  T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Current) * K;
  for (int J = 0; J < K; ++J)
    Yr[J] += Acc[J];
}

template <typename T>
void cooSpmmTiled(const CooMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *X, T *Y, index_t K) {
  switch (K) {
  case 2:
    return cooSpmmSegmentedTiled<T, 2>(A, RowBegin, RowEnd, X, Y);
  case 4:
    return cooSpmmSegmentedTiled<T, 4>(A, RowBegin, RowEnd, X, Y);
  case 8:
    return cooSpmmSegmentedTiled<T, 8>(A, RowBegin, RowEnd, X, Y);
  case 16:
    return cooSpmmSegmentedTiled<T, 16>(A, RowBegin, RowEnd, X, Y);
  default:
    return cooSpmmBasic(A, RowBegin, RowEnd, X, Y, K);
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::CooKernelFn<T>>> smat::makeCooKernels() {
  return {
      {"coo_basic", OptNone, &cooBasic<T>},
      {"coo_unroll4", OptUnroll, &cooUnroll4<T>},
      {"coo_segmented", OptBranchFree, &cooSegmented<T>},
      {"coo_prefetch", OptPrefetch, &cooPrefetch<T>},
  };
}

template std::vector<smat::Kernel<smat::CooKernelFn<float>>>
smat::makeCooKernels<float>();
template std::vector<smat::Kernel<smat::CooKernelFn<double>>>
smat::makeCooKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::CooSpmmFn<T>>> smat::makeCooSpmmKernels() {
  return {
      {"coo_spmm_basic", OptNone, &cooSpmmBasic<T>},
      {"coo_spmm_tiled", OptUnroll | OptBranchFree, &cooSpmmTiled<T>},
  };
}

template std::vector<smat::Kernel<smat::CooSpmmFn<float>>>
smat::makeCooSpmmKernels<float>();
template std::vector<smat::Kernel<smat::CooSpmmFn<double>>>
smat::makeCooSpmmKernels<double>();
