//===- kernels/DiaKernels.cpp - DIA SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// DIA y := A*x variants. The basic loop is the paper's Figure 2(c):
// per-diagonal contiguous streaming over X and Y, the access pattern that
// makes DIA the fastest format when the structure is truly diagonal.
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
void diaZero(T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd,
             index_t K = 1) {
  std::memset(Y + static_cast<std::size_t>(RowBegin) * K, 0,
              sizeof(T) * static_cast<std::size_t>(RowEnd - RowBegin) *
                  static_cast<std::size_t>(K));
}

/// The rows [Lo, Hi) of [RowBegin, RowEnd) where the diagonal at offset
/// \p Off lies inside the matrix; Lo >= Hi when there are none.
template <typename T>
std::pair<index_t, index_t> diagonalRows(const DiaMatrix<T> &A, index_t Off,
                                         index_t RowBegin, index_t RowEnd) {
  return {std::max(RowBegin, -Off), std::min(RowEnd, A.NumCols - Off)};
}

/// Diagonal-major pass: for each stored diagonal, the rows of the range
/// it covers, streaming contiguously over Data, X and Y. \p Diagonals is 1
/// (the paper's loop) or 2 (two diagonals per pass, so each Y element is
/// loaded and stored half as often); \p Simd adds the explicit
/// vectorization request. Whether a row takes the paired update depends
/// only on the row and the diagonal pair, never on the range, so every row
/// computes the same bits in any row slice.
template <typename T, int Diagonals, bool Simd>
void diaDiagonalMajor(const DiaMatrix<T> &A, index_t RowBegin,
                      index_t RowEnd, const T *SMAT_RESTRICT X,
                      T *SMAT_RESTRICT Y) {
  diaZero(Y, RowBegin, RowEnd);
  index_t Stride = A.stride();
  index_t D = 0;
  if constexpr (Diagonals == 2)
    for (; D + 1 < A.numDiags(); D += 2) {
      index_t K0 = A.Offsets[D], K1 = A.Offsets[D + 1];
      auto [Lo0, Hi0] = diagonalRows(A, K0, RowBegin, RowEnd);
      auto [Lo1, Hi1] = diagonalRows(A, K1, RowBegin, RowEnd);
      // Row range where *both* diagonals are in-bounds.
      index_t IStart = std::max(Lo0, Lo1);
      index_t IEnd = std::min(Hi0, Hi1);
      const T *SMAT_RESTRICT Data0 =
          A.Data.data() + static_cast<std::size_t>(D) * Stride;
      const T *SMAT_RESTRICT Data1 =
          A.Data.data() + static_cast<std::size_t>(D + 1) * Stride;
      if constexpr (Simd) {
#pragma omp simd
        for (index_t I = IStart; I < IEnd; ++I)
          Y[I] += Data0[I] * X[I + K0] + Data1[I] * X[I + K1];
      } else {
        for (index_t I = IStart; I < IEnd; ++I)
          Y[I] += Data0[I] * X[I + K0] + Data1[I] * X[I + K1];
      }
      // Head/tail rows where only one of the two diagonals is valid.
      auto Edge = [&](index_t K, const T *SMAT_RESTRICT Data, index_t Lo,
                      index_t Hi) {
        for (index_t I = Lo; I < std::min(IStart, Hi); ++I)
          Y[I] += Data[I] * X[I + K];
        for (index_t I = std::max(IEnd, Lo); I < Hi; ++I)
          Y[I] += Data[I] * X[I + K];
      };
      Edge(K0, Data0, Lo0, Hi0);
      Edge(K1, Data1, Lo1, Hi1);
    }
  for (; D < A.numDiags(); ++D) {
    index_t K = A.Offsets[D];
    auto [Lo, Hi] = diagonalRows(A, K, RowBegin, RowEnd);
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(D) * Stride;
    if constexpr (Simd) {
#pragma omp simd
      for (index_t I = Lo; I < Hi; ++I)
        Y[I] += Data[I] * X[I + K];
    } else {
      for (index_t I = Lo; I < Hi; ++I)
        Y[I] += Data[I] * X[I + K];
    }
  }
}

/// Prefetches the diagonal data and X streams a fixed distance ahead.
template <typename T>
void diaPrefetch(const DiaMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                 const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  diaZero(Y, RowBegin, RowEnd);
  constexpr index_t Distance = 64;
  index_t Stride = A.stride();
  for (index_t D = 0; D < A.numDiags(); ++D) {
    index_t K = A.Offsets[D];
    auto [Lo, Hi] = diagonalRows(A, K, RowBegin, RowEnd);
    if (Lo >= Hi)
      continue;
    const index_t N = Hi - Lo;
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(D) * Stride + Lo;
    const T *SMAT_RESTRICT Xs = X + (Lo + K);
    T *SMAT_RESTRICT Ys = Y + Lo;
    for (index_t I = 0; I < N; ++I) {
      if (I + Distance < N) {
        __builtin_prefetch(&Data[I + Distance], 0, 0);
        __builtin_prefetch(&Xs[I + Distance], 0, 0);
      }
      Ys[I] += Data[I] * Xs[I];
    }
  }
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: X row-major NumCols x K, Y row-major NumRows x K.
//===----------------------------------------------------------------------===//

/// Strategy-free batched DIA: diagonal-major streaming with a runtime-K
/// inner loop, mirroring the basic SpMV loop.
template <typename T>
void diaSpmmBasic(const DiaMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y, index_t K) {
  diaZero(Y, RowBegin, RowEnd, K);
  index_t Stride = A.stride();
  for (index_t D = 0; D < A.numDiags(); ++D) {
    index_t Off = A.Offsets[D];
    auto [Lo, Hi] = diagonalRows(A, Off, RowBegin, RowEnd);
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(D) * Stride;
    for (index_t I = Lo; I < Hi; ++I) {
      const T V = Data[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(I + Off) * K;
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(I) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

/// Loop-interchanged register tile: each row's K-wide accumulator stays in
/// registers across all diagonals, so Y is written exactly once per row.
template <typename T, int K>
void diaSpmmRowsTiled(const DiaMatrix<T> &A, const T *SMAT_RESTRICT X,
                      T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd) {
  const index_t Stride = A.stride();
  const index_t NumDiags = A.numDiags();
  const index_t *SMAT_RESTRICT Off = A.Offsets.data();
  const T *SMAT_RESTRICT Data = A.Data.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Acc[K] = {};
    for (index_t D = 0; D < NumDiags; ++D) {
      index_t Col = Row + Off[D];
      if (Col >= 0 && Col < A.NumCols) {
        const T V = Data[static_cast<std::size_t>(D) * Stride + Row];
        const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col) * K;
        for (int J = 0; J < K; ++J)
          Acc[J] += V * Xr[J];
      }
    }
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (int J = 0; J < K; ++J)
      Yr[J] = Acc[J];
  }
}

/// The register tile for the widths {2, 4, 8, 16}; other widths take a
/// runtime-K tile in the Y row.
template <typename T>
void diaSpmmTiled(const DiaMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *X, T *Y, index_t K) {
  switch (K) {
  case 2:
    return diaSpmmRowsTiled<T, 2>(A, X, Y, RowBegin, RowEnd);
  case 4:
    return diaSpmmRowsTiled<T, 4>(A, X, Y, RowBegin, RowEnd);
  case 8:
    return diaSpmmRowsTiled<T, 8>(A, X, Y, RowBegin, RowEnd);
  case 16:
    return diaSpmmRowsTiled<T, 16>(A, X, Y, RowBegin, RowEnd);
  default:
    break;
  }
  // Generic-K tail: row-major with a runtime-K tile in the Y row.
  const index_t Stride = A.stride();
  const index_t NumDiags = A.numDiags();
  const index_t *SMAT_RESTRICT Off = A.Offsets.data();
  const T *SMAT_RESTRICT Data = A.Data.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] = T(0);
    for (index_t D = 0; D < NumDiags; ++D) {
      index_t Col = Row + Off[D];
      if (Col >= 0 && Col < A.NumCols) {
        const T V = Data[static_cast<std::size_t>(D) * Stride + Row];
        const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col) * K;
        for (index_t J = 0; J < K; ++J)
          Yr[J] += V * Xr[J];
      }
    }
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::DiaKernelFn<T>>> smat::makeDiaKernels() {
  return {
      {"dia_basic", OptNone, &diaDiagonalMajor<T, 1, false>},
      {"dia_simd", OptSimd, &diaDiagonalMajor<T, 1, true>},
      {"dia_unroll2", OptUnroll, &diaDiagonalMajor<T, 2, false>},
      {"dia_simd_unroll2", OptSimd | OptUnroll, &diaDiagonalMajor<T, 2, true>},
      {"dia_prefetch", OptPrefetch, &diaPrefetch<T>},
  };
}

template std::vector<smat::Kernel<smat::DiaKernelFn<float>>>
smat::makeDiaKernels<float>();
template std::vector<smat::Kernel<smat::DiaKernelFn<double>>>
smat::makeDiaKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::DiaSpmmFn<T>>> smat::makeDiaSpmmKernels() {
  return {
      {"dia_spmm_basic", OptNone, &diaSpmmBasic<T>},
      {"dia_spmm_tiled", OptUnroll | OptInterchange, &diaSpmmTiled<T>},
  };
}

template std::vector<smat::Kernel<smat::DiaSpmmFn<float>>>
smat::makeDiaSpmmKernels<float>();
template std::vector<smat::Kernel<smat::DiaSpmmFn<double>>>
smat::makeDiaSpmmKernels<double>();
