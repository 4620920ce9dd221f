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

#include <type_traits>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
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

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: Y := A * X with X row-major NumCols x K and Y
// row-major NumRows x K. The K values of one X/Y row are contiguous, so a
// compile-time K keeps the whole accumulator tile in registers while the
// matrix streams once for all K vectors.
//===----------------------------------------------------------------------===//

/// Strategy-free reference: runtime-K inner loop.
template <typename T>
void csrSpmmBasic(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y, index_t K) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] = T(0);
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I) {
      const T V = Val[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col[I]) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

/// Each row's K-wide accumulator tile stays in registers while its entries
/// stream, with one store per row.
template <typename T, int K>
void csrSpmmRowsTiled(const CsrMatrix<T> &A, index_t RowBegin,
                      index_t RowEnd, const T *SMAT_RESTRICT X,
                      T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Acc[K] = {};
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I) {
      const T V = Val[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col[I]) * K;
      for (int J = 0; J < K; ++J)
        Acc[J] += V * Xr[J];
    }
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (int J = 0; J < K; ++J)
      Yr[J] = Acc[J];
  }
}

/// Register-tiled variant for the widths {2, 4, 8, 16}, basic otherwise. The
/// width dispatch sits at the row-range level so short rows do not pay a
/// per-row switch.
template <typename T>
void csrSpmmTiled(const CsrMatrix<T> &A, index_t RowBegin, index_t RowEnd,
                  const T *X, T *Y, index_t K) {
  switch (K) {
  case 2:
    return csrSpmmRowsTiled<T, 2>(A, RowBegin, RowEnd, X, Y);
  case 4:
    return csrSpmmRowsTiled<T, 4>(A, RowBegin, RowEnd, X, Y);
  case 8:
    return csrSpmmRowsTiled<T, 8>(A, RowBegin, RowEnd, X, Y);
  case 16:
    return csrSpmmRowsTiled<T, 16>(A, RowBegin, RowEnd, X, Y);
  default:
    return csrSpmmBasic(A, RowBegin, RowEnd, X, Y, K);
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
  };
}

template std::vector<smat::Kernel<smat::CsrSpmmFn<float>>>
smat::makeCsrSpmmKernels<float>();
template std::vector<smat::Kernel<smat::CsrSpmmFn<double>>>
smat::makeCsrSpmmKernels<double>();
