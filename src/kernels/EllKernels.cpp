//===- kernels/EllKernels.cpp - ELL SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// ELL y := A*x variants. The basic loop is the paper's Figure 2(d):
// column-of-the-packed-matrix outer loop, row inner loop. Padding entries
// are (value 0, column 0), so they can be multiplied unconditionally.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>

namespace smat {
namespace {

template <typename T>
void ellZero(T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd,
             index_t K = 1) {
  std::memset(Y + static_cast<std::size_t>(RowBegin) * K, 0,
              sizeof(T) * static_cast<std::size_t>(RowEnd - RowBegin) *
                  static_cast<std::size_t>(K));
}

/// Column-major pass: for each packed column, the rows of the range.
/// \p Columns is 1 (the paper's loop) or 2 (two packed columns per sweep,
/// halving Y traffic); \p Simd adds the explicit vectorization request to
/// the one-column sweep.
template <typename T, int Columns, bool Simd>
void ellColumnMajor(const EllMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                    const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  static_assert(Columns == 1 || !Simd, "the two-column sweep has no simd form");
  ellZero(Y, RowBegin, RowEnd);
  index_t C = 0;
  if constexpr (Columns == 2)
    for (; C + 1 < A.Width; C += 2) {
      const T *SMAT_RESTRICT Data0 =
          A.Data.data() + static_cast<std::size_t>(C) * A.NumRows;
      const T *SMAT_RESTRICT Data1 = Data0 + A.NumRows;
      const index_t *SMAT_RESTRICT Idx0 =
          A.Indices.data() + static_cast<std::size_t>(C) * A.NumRows;
      const index_t *SMAT_RESTRICT Idx1 = Idx0 + A.NumRows;
      for (index_t Row = RowBegin; Row < RowEnd; ++Row)
        Y[Row] += Data0[Row] * X[Idx0[Row]] + Data1[Row] * X[Idx1[Row]];
    }
  for (; C < A.Width; ++C) {
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(C) * A.NumRows;
    const index_t *SMAT_RESTRICT Idx =
        A.Indices.data() + static_cast<std::size_t>(C) * A.NumRows;
    if constexpr (Simd) {
#pragma omp simd
      for (index_t Row = RowBegin; Row < RowEnd; ++Row)
        Y[Row] += Data[Row] * X[Idx[Row]];
    } else {
      for (index_t Row = RowBegin; Row < RowEnd; ++Row)
        Y[Row] += Data[Row] * X[Idx[Row]];
    }
  }
}

/// Row chunk size of the sliced (load-balanced) kernels: big enough to keep
/// the column-major access pattern streaming, small enough that one long row
/// only pads its own chunk. Chunks start on multiples of EllSliceRows.
constexpr index_t EllSliceRows = 64;

/// Sliced (SELL-style) sweep of rows [Begin, End), which lie in one chunk:
/// the sweep stops at the chunk's longest row (from RowLen) instead of the
/// global padded Width, so a few long rows no longer drag every chunk
/// through their padding columns. The
/// chunk's width is taken over all its rows, so a row sweeps as many
/// columns in any row range.
template <typename T>
void ellSlicedChunk(const EllMatrix<T> &A, index_t Begin, index_t End,
                    const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT RowLen = A.RowLen.data();
  const index_t ChunkBegin = Begin - Begin % EllSliceRows;
  const index_t ChunkEnd =
      std::min<index_t>(ChunkBegin + EllSliceRows, A.NumRows);
  index_t Width = 0;
  for (index_t Row = ChunkBegin; Row < ChunkEnd; ++Row)
    Width = std::max(Width, RowLen[Row]);
  for (index_t Row = Begin; Row < End; ++Row)
    Y[Row] = T(0);
  for (index_t C = 0; C < Width; ++C) {
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(C) * A.NumRows;
    const index_t *SMAT_RESTRICT Idx =
        A.Indices.data() + static_cast<std::size_t>(C) * A.NumRows;
    for (index_t Row = Begin; Row < End; ++Row)
      Y[Row] += Data[Row] * X[Idx[Row]];
  }
}

/// Sliced ELL: the part of each EllSliceRows chunk that lies in
/// [RowBegin, RowEnd), chunk after chunk.
template <typename T>
void ellSliced(const EllMatrix<T> &A, index_t RowBegin, index_t RowEnd,
               const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t First = RowBegin / EllSliceRows;
  const index_t Last = (RowEnd + EllSliceRows - 1) / EllSliceRows;
  for (index_t C = First; C < Last; ++C)
    ellSlicedChunk(A, std::max(RowBegin, C * EllSliceRows),
                   std::min(RowEnd, (C + 1) * EllSliceRows), X, Y);
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: X row-major NumCols x K, Y row-major NumRows x K.
//===----------------------------------------------------------------------===//

/// Strategy-free batched ELL: column-major packed sweep, runtime-K inner
/// loop, mirroring the basic SpMV loop. Padding entries multiply by zero
/// harmlessly.
template <typename T>
void ellSpmmBasic(const EllMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y, index_t K) {
  ellZero(Y, RowBegin, RowEnd, K);
  for (index_t C = 0; C < A.Width; ++C) {
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(C) * A.NumRows;
    const index_t *SMAT_RESTRICT Idx =
        A.Indices.data() + static_cast<std::size_t>(C) * A.NumRows;
    for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
      const T V = Data[Row];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Idx[Row]) * K;
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

/// Register-tiled row-major (interchanged) pass over rows [RowBegin,
/// RowEnd): each row's K-wide accumulator lives in registers across the
/// packed width, with one Y store per row. \p Width bounds the packed
/// columns swept per row (the global padded width, or the row's own length
/// when the RowLen sidecar is present).
template <typename T, int K, typename WidthFn>
void ellSpmmRowsTiled(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                      T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd,
                      WidthFn Width) {
  const T *SMAT_RESTRICT Data = A.Data.data();
  const index_t *SMAT_RESTRICT Idx = A.Indices.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Acc[K] = {};
    const index_t W = Width(Row);
    for (index_t C = 0; C < W; ++C) {
      const std::size_t I = static_cast<std::size_t>(C) * A.NumRows + Row;
      const T V = Data[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Idx[I]) * K;
      for (int J = 0; J < K; ++J)
        Acc[J] += V * Xr[J];
    }
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (int J = 0; J < K; ++J)
      Yr[J] = Acc[J];
  }
}

/// Runtime-K tail of the row-major pass.
template <typename T, typename WidthFn>
void ellSpmmRowsGeneric(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                        T *SMAT_RESTRICT Y, index_t K, index_t RowBegin,
                        index_t RowEnd, WidthFn Width) {
  const T *SMAT_RESTRICT Data = A.Data.data();
  const index_t *SMAT_RESTRICT Idx = A.Indices.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] = T(0);
    const index_t W = Width(Row);
    for (index_t C = 0; C < W; ++C) {
      const std::size_t I = static_cast<std::size_t>(C) * A.NumRows + Row;
      const T V = Data[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Idx[I]) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

template <typename T, typename WidthFn>
void ellSpmmRowRange(const EllMatrix<T> &A, const T *X, T *Y, index_t K,
                     index_t RowBegin, index_t RowEnd, WidthFn Width) {
  switch (K) {
  case 2:
    return ellSpmmRowsTiled<T, 2>(A, X, Y, RowBegin, RowEnd, Width);
  case 4:
    return ellSpmmRowsTiled<T, 4>(A, X, Y, RowBegin, RowEnd, Width);
  case 8:
    return ellSpmmRowsTiled<T, 8>(A, X, Y, RowBegin, RowEnd, Width);
  case 16:
    return ellSpmmRowsTiled<T, 16>(A, X, Y, RowBegin, RowEnd, Width);
  default:
    return ellSpmmRowsGeneric(A, X, Y, K, RowBegin, RowEnd, Width);
  }
}

template <typename T>
void ellSpmmTiled(const EllMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *X, T *Y, index_t K) {
  ellSpmmRowRange(A, X, Y, K, RowBegin, RowEnd,
                  [&](index_t) { return A.Width; });
}

/// Sliced batched ELL: each row sweeps only its own length from RowLen, so
/// skewed rows do not drag the whole block through padding columns.
template <typename T>
void ellSpmmSliced(const EllMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                   const T *X, T *Y, index_t K) {
  const index_t *SMAT_RESTRICT RowLen = A.RowLen.data();
  ellSpmmRowRange(A, X, Y, K, RowBegin, RowEnd,
                  [RowLen](index_t Row) { return RowLen[Row]; });
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::EllKernelFn<T>>> smat::makeEllKernels() {
  return {
      {"ell_basic", OptNone, &ellColumnMajor<T, 1, false>},
      {"ell_simd", OptSimd, &ellColumnMajor<T, 1, true>},
      {"ell_unroll2", OptUnroll, &ellColumnMajor<T, 2, false>},
      {"ell_sliced", OptLoadBalance, &ellSliced<T>},
  };
}

template std::vector<smat::Kernel<smat::EllKernelFn<float>>>
smat::makeEllKernels<float>();
template std::vector<smat::Kernel<smat::EllKernelFn<double>>>
smat::makeEllKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::EllSpmmFn<T>>> smat::makeEllSpmmKernels() {
  return {
      {"ell_spmm_basic", OptNone, &ellSpmmBasic<T>},
      {"ell_spmm_tiled", OptUnroll | OptInterchange, &ellSpmmTiled<T>},
      {"ell_spmm_sliced", OptUnroll | OptLoadBalance, &ellSpmmSliced<T>},
  };
}

template std::vector<smat::Kernel<smat::EllSpmmFn<float>>>
smat::makeEllSpmmKernels<float>();
template std::vector<smat::Kernel<smat::EllSpmmFn<double>>>
smat::makeEllSpmmKernels<double>();
