//===- kernels/CsrKernels.cpp - CSR SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// CSR y := A*x variants. The basic loop is the paper's Figure 2(a); the
// variants cross the optimization strategies the scoreboard scores.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#ifdef _OPENMP
#include <omp.h>
#endif

namespace smat {
namespace {

template <typename T>
void csrBasic(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
              const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Sum = T(0);
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I)
      Sum += A.Values[I] * X[A.ColIdx[I]];
    Y[Row] = Sum;
  }
}

/// Four independent accumulators hide the FMA latency chain.
template <typename T>
void csrUnroll4(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    T S0 = T(0), S1 = T(0), S2 = T(0), S3 = T(0);
    for (; I + 3 < E; I += 4) {
      S0 += Val[I + 0] * X[Col[I + 0]];
      S1 += Val[I + 1] * X[Col[I + 1]];
      S2 += Val[I + 2] * X[Col[I + 2]];
      S3 += Val[I + 3] * X[Col[I + 3]];
    }
    for (; I < E; ++I)
      S0 += Val[I] * X[Col[I]];
    Y[Row] = (S0 + S1) + (S2 + S3);
  }
}

/// Software-prefetches the column/value streams a fixed distance ahead.
/// Entries at I >= Nnz - Distance have no in-bounds prefetch target, so each
/// row is split at that point into a prefetching main loop and a plain tail
/// instead of paying a bounds check on every nonzero.
template <typename T>
void csrPrefetch(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                 const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  constexpr index_t Distance = 64;
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  index_t Nnz = static_cast<index_t>(A.nnz());
  const index_t PrefetchEnd = Nnz > Distance ? Nnz - Distance : 0;
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Sum = T(0);
    index_t I = A.RowPtr[Row];
    const index_t E = A.RowPtr[Row + 1];
    for (index_t P = std::min(E, PrefetchEnd); I < P; ++I) {
      __builtin_prefetch(&Val[I + Distance], 0, 0);
      __builtin_prefetch(&Col[I + Distance], 0, 0);
      __builtin_prefetch(&X[Col[I + Distance]], 0, 0);
      Sum += Val[I] * X[Col[I]];
    }
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// Compiler-driven vectorization of the row reduction.
template <typename T>
void csrSimd(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
             const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Sum = T(0);
    index_t Begin = A.RowPtr[Row], End = A.RowPtr[Row + 1];
#pragma omp simd reduction(+ : Sum)
    for (index_t I = Begin; I < End; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

#if defined(__AVX2__)
/// AVX2 gather kernel, double precision: 4-wide FMA over the row.
void csrAvx2D(const CsrMatrix<double> &A, index_t RowBegin, index_t RowEnd,
              const double *SMAT_RESTRICT X, double *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const double *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m256d Acc = _mm256_setzero_pd();
    for (; I + 3 < E; I += 4) {
      __m128i Idx = _mm_loadu_si128(reinterpret_cast<const __m128i *>(&Col[I]));
      __m256d Xs = _mm256_i32gather_pd(X, Idx, 8);
      __m256d Vs = _mm256_loadu_pd(&Val[I]);
      Acc = _mm256_fmadd_pd(Vs, Xs, Acc);
    }
    alignas(32) double Lanes[4];
    _mm256_store_pd(Lanes, Acc);
    double Sum = (Lanes[0] + Lanes[1]) + (Lanes[2] + Lanes[3]);
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// AVX2 gather kernel, single precision: 8-wide FMA over the row.
void csrAvx2F(const CsrMatrix<float> &A, index_t RowBegin, index_t RowEnd,
              const float *SMAT_RESTRICT X, float *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const float *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m256 Acc = _mm256_setzero_ps();
    for (; I + 7 < E; I += 8) {
      __m256i Idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(&Col[I]));
      __m256 Xs = _mm256_i32gather_ps(X, Idx, 4);
      __m256 Vs = _mm256_loadu_ps(&Val[I]);
      Acc = _mm256_fmadd_ps(Vs, Xs, Acc);
    }
    alignas(32) float Lanes[8];
    _mm256_store_ps(Lanes, Acc);
    float Sum = ((Lanes[0] + Lanes[1]) + (Lanes[2] + Lanes[3])) +
                ((Lanes[4] + Lanes[5]) + (Lanes[6] + Lanes[7]));
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}
#endif // __AVX2__

#if defined(__AVX512F__)
/// AVX-512 gather kernel, double precision: 8-wide FMA over the row.
void csrAvx512D(const CsrMatrix<double> &A, index_t RowBegin, index_t RowEnd,
                const double *SMAT_RESTRICT X, double *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const double *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m512d Acc = _mm512_setzero_pd();
    for (; I + 7 < E; I += 8) {
      __m256i Idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(&Col[I]));
      __m512d Xs = _mm512_i32gather_pd(Idx, X, 8);
      __m512d Vs = _mm512_loadu_pd(&Val[I]);
      Acc = _mm512_fmadd_pd(Vs, Xs, Acc);
    }
    double Sum = _mm512_reduce_add_pd(Acc);
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// AVX-512 gather kernel, single precision: 16-wide FMA over the row.
void csrAvx512F(const CsrMatrix<float> &A, index_t RowBegin, index_t RowEnd,
                const float *SMAT_RESTRICT X, float *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const float *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m512 Acc = _mm512_setzero_ps();
    for (; I + 15 < E; I += 16) {
      __m512i Idx =
          _mm512_loadu_si512(reinterpret_cast<const void *>(&Col[I]));
      __m512 Xs = _mm512_i32gather_ps(Idx, X, 4);
      __m512 Vs = _mm512_loadu_ps(&Val[I]);
      Acc = _mm512_fmadd_ps(Vs, Xs, Acc);
    }
    float Sum = _mm512_reduce_add_ps(Acc);
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}
#endif // __AVX512F__

/// Guided scheduling: a third threading policy for skewed degree mixes.
template <typename T>
void csrOmpGuided(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(guided)
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Sum = T(0);
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// Static row partitioning across threads.
template <typename T>
void csrOmpStatic(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(static)
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Sum = T(0);
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// Dynamic chunked scheduling: tolerates skewed row degrees.
template <typename T>
void csrOmpDynamic(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                   const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(dynamic, 256)
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Sum = T(0);
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// Threads + unrolled accumulators.
template <typename T>
void csrOmpUnroll(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(static)
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    T S0 = T(0), S1 = T(0), S2 = T(0), S3 = T(0);
    for (; I + 3 < E; I += 4) {
      S0 += Val[I + 0] * X[Col[I + 0]];
      S1 += Val[I + 1] * X[Col[I + 1]];
      S2 += Val[I + 2] * X[Col[I + 2]];
      S3 += Val[I + 3] * X[Col[I + 3]];
    }
    for (; I < E; ++I)
      S0 += Val[I] * X[Col[I]];
    Y[Row] = (S0 + S1) + (S2 + S3);
  }
}

inline int csrMaxThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// The merge-path partition of rows [RowBegin, RowEnd) of \p A into
/// \p Chunks entry chunks: chunk C owns entries [Begin[C], Begin[C+1]) and
/// rows [Split[C], Split[C+1]), where Split[C] is the row containing entry
/// Begin[C] (the last row starting at or before it when empty rows pile up
/// on the boundary). Endpoints are forced to the range bounds so leading and
/// trailing empty rows are owned (and zeroed) too.
template <typename T>
void nnzSplitChunks(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                    std::int64_t Chunks, std::vector<std::int64_t> &Begin,
                    std::vector<index_t> &Split) {
  const index_t *RowPtr = A.RowPtr.data();
  const std::int64_t First = RowPtr[RowBegin];
  const std::int64_t Nnz = RowPtr[RowEnd] - First;
  Begin.assign(static_cast<std::size_t>(Chunks) + 1, First);
  Split.assign(static_cast<std::size_t>(Chunks) + 1, RowBegin);
  Begin[static_cast<std::size_t>(Chunks)] = First + Nnz;
  Split[static_cast<std::size_t>(Chunks)] = RowEnd;
  for (std::int64_t C = 1; C < Chunks; ++C) {
    std::int64_t B = First + Nnz * C / Chunks;
    Begin[static_cast<std::size_t>(C)] = B;
    Split[static_cast<std::size_t>(C)] = static_cast<index_t>(
        std::upper_bound(RowPtr + RowBegin, RowPtr + RowEnd + 1,
                         static_cast<index_t>(B)) -
        RowPtr - 1);
  }
}

/// How many merge-path chunks rows [RowBegin, RowEnd) of \p A split into:
/// one per thread, but at least ~512 entries per chunk so tiny matrices do
/// not pay the carry machinery for nothing.
template <typename T>
std::int64_t nnzSplitChunkCount(const CsrMatrix<T> &A, index_t RowBegin,
                                index_t RowEnd) {
  constexpr std::int64_t MinEntriesPerChunk = 512;
  const std::int64_t Nnz = A.RowPtr[RowEnd] - A.RowPtr[RowBegin];
  return std::min<std::int64_t>(
      csrMaxThreads(), std::max<std::int64_t>(1, Nnz / MinEntriesPerChunk));
}

/// Nnz-balanced (merge-path-style) parallel CSR. The row-split OpenMP
/// kernels above assign rows to threads, so one dense row among short ones
/// serializes the whole SpMV on the unlucky thread. This kernel splits the
/// *entry* stream into equal chunks instead: chunk boundaries are located in
/// RowPtr by binary search (nnzSplitChunks), giving each thread a row range
/// whose nonzero count is balanced by construction; a long row crossing a
/// boundary is split, each trespassing thread computing a partial sum
/// ("carry") that is combined serially after the parallel region.
template <typename T>
void csrNnzSplit(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                 const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT RowPtr = A.RowPtr.data();
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  if (RowBegin == RowEnd)
    return;
  const std::int64_t Chunks = nnzSplitChunkCount(A, RowBegin, RowEnd);
  if (Chunks <= 1) {
    for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
      T Sum = T(0);
      for (index_t I = RowPtr[Row], E = RowPtr[Row + 1]; I < E; ++I)
        Sum += Val[I] * X[Col[I]];
      Y[Row] = Sum;
    }
    return;
  }
  std::vector<std::int64_t> Begin;
  std::vector<index_t> Split;
  nnzSplitChunks(A, RowBegin, RowEnd, Chunks, Begin, Split);

  // Carry[t]: chunk t's partial sum for row Split[t+1], whose tail lies in
  // a later chunk. At most one carry per chunk.
  std::vector<T> Carry(static_cast<std::size_t>(Chunks), T(0));

#pragma omp parallel for schedule(static, 1)
  for (std::int64_t C = 0; C < Chunks; ++C) {
    const std::int64_t ChunkBegin = Begin[static_cast<std::size_t>(C)];
    const std::int64_t ChunkEnd = Begin[static_cast<std::size_t>(C) + 1];
    const index_t First = Split[static_cast<std::size_t>(C)];
    const index_t Last = Split[static_cast<std::size_t>(C) + 1];

    // Owned rows: rows strictly inside the chunk are complete; the first
    // row's head (if any) arrives later as earlier chunks' carries.
    for (index_t Row = First; Row < Last; ++Row) {
      std::int64_t I = std::max<std::int64_t>(RowPtr[Row], ChunkBegin);
      const std::int64_t E = RowPtr[Row + 1];
      T Sum = T(0);
      for (; I < E; ++I)
        Sum += Val[I] * X[Col[I]];
      Y[Row] = Sum;
    }

    // Boundary row Last: the head inside this chunk is a carry for the
    // chunk that owns the row's end. The last chunk has Last == RowEnd.
    if (Last < RowEnd) {
      std::int64_t I = std::max<std::int64_t>(RowPtr[Last], ChunkBegin);
      T Sum = T(0);
      for (; I < ChunkEnd; ++I)
        Sum += Val[I] * X[Col[I]];
      Carry[static_cast<std::size_t>(C)] = Sum;
    }
  }

  // Serial carry combine: owners have already written Y[Row] = partial, so
  // the boundary-row heads just accumulate on top.
  for (std::int64_t C = 0; C < Chunks; ++C) {
    const index_t Row = Split[static_cast<std::size_t>(C) + 1];
    if (Row < RowEnd)
      Y[Row] += Carry[static_cast<std::size_t>(C)];
  }
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: Y := A * X with X row-major NumCols x K and Y
// row-major NumRows x K. The K values of one X/Y row are contiguous, so a
// compile-time K keeps the whole accumulator tile in registers while the
// matrix streams once for all K vectors.
//===----------------------------------------------------------------------===//

/// Accumulates entries [I, E) into a K-wide register tile and stores it to
/// \p Out (which must hold K values).
template <typename T, int K>
inline void csrSpmmPartialTiled(const index_t *SMAT_RESTRICT Col,
                                const T *SMAT_RESTRICT Val, std::int64_t I,
                                std::int64_t E, const T *SMAT_RESTRICT X,
                                T *SMAT_RESTRICT Out) {
  T Acc[K] = {};
  for (; I < E; ++I) {
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col[I]) * K;
    for (int J = 0; J < K; ++J)
      Acc[J] += V * Xr[J];
  }
  for (int J = 0; J < K; ++J)
    Out[J] = Acc[J];
}

/// Runtime-K tail path for widths outside the tiled set {2, 4, 8, 16}.
template <typename T>
inline void csrSpmmPartialGeneric(const index_t *SMAT_RESTRICT Col,
                                  const T *SMAT_RESTRICT Val, std::int64_t I,
                                  std::int64_t E, const T *SMAT_RESTRICT X,
                                  T *SMAT_RESTRICT Out, index_t K) {
  for (index_t J = 0; J < K; ++J)
    Out[J] = T(0);
  for (; I < E; ++I) {
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col[I]) * K;
    for (index_t J = 0; J < K; ++J)
      Out[J] += V * Xr[J];
  }
}

template <typename T>
inline void csrSpmmPartial(const index_t *SMAT_RESTRICT Col,
                           const T *SMAT_RESTRICT Val, std::int64_t I,
                           std::int64_t E, const T *SMAT_RESTRICT X,
                           T *SMAT_RESTRICT Out, index_t K) {
  switch (K) {
  case 2:
    return csrSpmmPartialTiled<T, 2>(Col, Val, I, E, X, Out);
  case 4:
    return csrSpmmPartialTiled<T, 4>(Col, Val, I, E, X, Out);
  case 8:
    return csrSpmmPartialTiled<T, 8>(Col, Val, I, E, X, Out);
  case 16:
    return csrSpmmPartialTiled<T, 16>(Col, Val, I, E, X, Out);
  default:
    return csrSpmmPartialGeneric(Col, Val, I, E, X, Out, K);
  }
}

template <typename T, int K>
void csrSpmmRowRangeTiled(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                          T *SMAT_RESTRICT Y, index_t RowBegin,
                          index_t RowEnd) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row)
    csrSpmmPartialTiled<T, K>(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X,
                              Y + static_cast<std::size_t>(Row) * K);
}

template <typename T>
void csrSpmmRowRangeGeneric(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                            T *SMAT_RESTRICT Y, index_t K, index_t RowBegin,
                            index_t RowEnd) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row)
    csrSpmmPartialGeneric(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X,
                          Y + static_cast<std::size_t>(Row) * K, K);
}

/// Width dispatch hoisted to the row-range level so short rows do not pay a
/// per-row switch.
template <typename T>
void csrSpmmRowRange(const CsrMatrix<T> &A, const T *X, T *Y, index_t K,
                     index_t RowBegin, index_t RowEnd) {
  switch (K) {
  case 2:
    return csrSpmmRowRangeTiled<T, 2>(A, X, Y, RowBegin, RowEnd);
  case 4:
    return csrSpmmRowRangeTiled<T, 4>(A, X, Y, RowBegin, RowEnd);
  case 8:
    return csrSpmmRowRangeTiled<T, 8>(A, X, Y, RowBegin, RowEnd);
  case 16:
    return csrSpmmRowRangeTiled<T, 16>(A, X, Y, RowBegin, RowEnd);
  default:
    return csrSpmmRowRangeGeneric(A, X, Y, K, RowBegin, RowEnd);
  }
}

/// Strategy-free reference: runtime-K inner loop, serial rows.
template <typename T>
void csrSpmmBasic(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *X, T *Y, index_t K) {
  csrSpmmRowRangeGeneric(A, X, Y, K, RowBegin, RowEnd);
}

/// Serial register-tiled variant.
template <typename T>
void csrSpmmTiled(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *X, T *Y, index_t K) {
  csrSpmmRowRange(A, X, Y, K, RowBegin, RowEnd);
}

/// Row-split threading over fixed-size row blocks; each block runs the
/// register-tiled range kernel. Collapses to a serial block loop without
/// OpenMP.
template <typename T>
void csrSpmmOmpRowSplit(const CsrMatrix<T> &A, index_t RowBegin,
                        index_t RowEnd, const T *X, T *Y, index_t K) {
  constexpr index_t BlockRows = 64;
  const index_t NumBlocks = (RowEnd - RowBegin + BlockRows - 1) / BlockRows;
#pragma omp parallel for schedule(static)
  for (index_t B = 0; B < NumBlocks; ++B)
    csrSpmmRowRange(A, X, Y, K, RowBegin + B * BlockRows,
                    std::min<index_t>(RowEnd, RowBegin + (B + 1) * BlockRows));
}

/// Nnz-balanced SpMM: same merge-path chunk/carry partition as csrNnzSplit,
/// but each carry is a K-wide partial tile instead of a scalar.
template <typename T>
void csrSpmmNnzSplit(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                     const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y,
                     index_t K) {
  const index_t *SMAT_RESTRICT RowPtr = A.RowPtr.data();
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  if (RowBegin == RowEnd)
    return;
  const std::int64_t Chunks = nnzSplitChunkCount(A, RowBegin, RowEnd);
  if (Chunks <= 1) {
    csrSpmmRowRange(A, X, Y, K, RowBegin, RowEnd);
    return;
  }
  std::vector<std::int64_t> Begin;
  std::vector<index_t> Split;
  nnzSplitChunks(A, RowBegin, RowEnd, Chunks, Begin, Split);

  // Carry[C*K .. C*K+K): chunk C's partial tile for boundary row
  // Split[C+1].
  std::vector<T> Carry(static_cast<std::size_t>(Chunks) * K, T(0));

#pragma omp parallel for schedule(static, 1)
  for (std::int64_t C = 0; C < Chunks; ++C) {
    const std::int64_t ChunkBegin = Begin[static_cast<std::size_t>(C)];
    const std::int64_t ChunkEnd = Begin[static_cast<std::size_t>(C) + 1];
    const index_t First = Split[static_cast<std::size_t>(C)];
    const index_t Last = Split[static_cast<std::size_t>(C) + 1];

    for (index_t Row = First; Row < Last; ++Row) {
      const std::int64_t I = std::max<std::int64_t>(RowPtr[Row], ChunkBegin);
      csrSpmmPartial(Col, Val, I, RowPtr[Row + 1], X,
                     Y + static_cast<std::size_t>(Row) * K, K);
    }

    if (Last < RowEnd) {
      const std::int64_t I = std::max<std::int64_t>(RowPtr[Last], ChunkBegin);
      csrSpmmPartial(Col, Val, I, ChunkEnd, X,
                     Carry.data() + static_cast<std::size_t>(C) * K, K);
    }
  }

  for (std::int64_t C = 0; C < Chunks; ++C) {
    const index_t Row = Split[static_cast<std::size_t>(C) + 1];
    if (Row < RowEnd) {
      const T *SMAT_RESTRICT Part =
          Carry.data() + static_cast<std::size_t>(C) * K;
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += Part[J];
    }
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::CsrKernelFn<T>>> smat::makeCsrKernels() {
  std::vector<Kernel<CsrKernelFn<T>>> Kernels = {
      {"csr_basic", OptNone, &csrBasic<T>},
      {"csr_unroll4", OptUnroll, &csrUnroll4<T>},
      {"csr_simd", OptSimd, &csrSimd<T>},
      {"csr_prefetch", OptPrefetch, &csrPrefetch<T>},
      {"csr_omp_static", OptThreads, &csrOmpStatic<T>},
      {"csr_omp_dynamic", OptThreads | OptDynSchedule, &csrOmpDynamic<T>},
      {"csr_omp_guided", OptThreads | OptDynSchedule, &csrOmpGuided<T>},
      {"csr_omp_unroll", OptThreads | OptUnroll, &csrOmpUnroll<T>},
      {"csr_nnzsplit", OptThreads | OptLoadBalance, &csrNnzSplit<T>},
  };
#if defined(__AVX2__)
  if constexpr (std::is_same_v<T, double>)
    Kernels.push_back({"csr_avx2", OptSimd | OptUnroll, &csrAvx2D});
  else if constexpr (std::is_same_v<T, float>)
    Kernels.push_back({"csr_avx2", OptSimd | OptUnroll, &csrAvx2F});
#endif
#if defined(__AVX512F__)
  if constexpr (std::is_same_v<T, double>)
    Kernels.push_back({"csr_avx512", OptSimd | OptUnroll, &csrAvx512D});
  else if constexpr (std::is_same_v<T, float>)
    Kernels.push_back({"csr_avx512", OptSimd | OptUnroll, &csrAvx512F});
#endif
  return Kernels;
}

template std::vector<smat::Kernel<smat::CsrKernelFn<float>>>
smat::makeCsrKernels<float>();
template std::vector<smat::Kernel<smat::CsrKernelFn<double>>>
smat::makeCsrKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::CsrSpmmFn<T>>> smat::makeCsrSpmmKernels() {
  return {
      {"csr_spmm_basic", OptNone, &csrSpmmBasic<T>},
      {"csr_spmm_tiled", OptUnroll, &csrSpmmTiled<T>},
      {"csr_spmm_omp_rowsplit", OptThreads | OptUnroll, &csrSpmmOmpRowSplit<T>},
      {"csr_spmm_nnzsplit", OptThreads | OptLoadBalance | OptUnroll,
       &csrSpmmNnzSplit<T>},
  };
}

template std::vector<smat::Kernel<smat::CsrSpmmFn<float>>>
smat::makeCsrSpmmKernels<float>();
template std::vector<smat::Kernel<smat::CsrSpmmFn<double>>>
smat::makeCsrSpmmKernels<double>();
