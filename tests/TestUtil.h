//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#ifndef SMAT_TESTS_TESTUTIL_H
#define SMAT_TESTS_TESTUTIL_H

#include "core/LearningModel.h"
#include "core/TuningPipeline.h"
#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMAT_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SMAT_TEST_SANITIZED 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SMAT_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SMAT_TEST_TSAN 1
#endif
#endif

namespace smat {
namespace test {

/// Whether this build enforces the wall-clock performance gates: an
/// optimized (NDEBUG) build without a sanitizer. Debug and sanitizer builds
/// run several times slower, so the gates skip there.
#if defined(NDEBUG) && !defined(SMAT_TEST_SANITIZED)
inline constexpr bool TimingGatesEnforced = true;
#else
inline constexpr bool TimingGatesEnforced = false;
#endif
inline constexpr const char *TimingGatesSkipReason =
    "wall-clock gate: enforced only in Release builds without a sanitizer";

/// Whether ThreadSanitizer instruments this build. libgomp is not
/// instrumented, so TSan reports the synchronization of an OpenMP team of
/// several threads as races; the TSan passes run with OMP_NUM_THREADS=1,
/// and a test that sets a team size of its own keeps to one thread there.
#ifdef SMAT_TEST_TSAN
inline constexpr bool ThreadSanitized = true;
#else
inline constexpr bool ThreadSanitized = false;
#endif

/// A model that is never confident (threshold above any group confidence),
/// so every tune that allows measurement races, and every winner that is not
/// basic CSR is checked. Cheap to build: no training, the default ruleset
/// and basic kernels are enough to drive the full pipeline.
inline LearningModel strictModel() {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0;
  Model.refreshRuleMetadata();
  return Model;
}

/// A copy of \p Model that is never confident, so every tune that allows
/// measurement races the cost model's candidates for its matrix.
inline LearningModel neverConfident(LearningModel Model) {
  Model.ConfidenceThreshold = 2.0;
  return Model;
}

/// Tune options with a short measurement floor, for test latency.
inline TuneOptions fastTune() {
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  return Opts;
}

/// One matrix of the pinned corpus.
struct CorpusCase {
  std::string Name;
  CsrMatrix<double> A;
};

/// The pinned, seeded corpus of the performance gates: one matrix per
/// structure family the selection guarantee must hold on, including the
/// power-law skew case whose historical mispick motivated the guardrail.
inline std::vector<CorpusCase> smokeCorpus() {
  std::vector<CorpusCase> Cases;
  Cases.push_back({"fem_balanced", blockFem(40, 8, 2.0, 101)});
  Cases.push_back({"powerlaw_skew", powerLawGraph(2000, 1.9, 1, 400, 102)});
  Cases.push_back({"banded_diag", banded(4000, 3)});
  Cases.push_back({"rect_lp", lpRectangular(1500, 3000, 8, 103)});
  for (CorpusCase &C : Cases)
    randomizeValues(C.A, 7);
  return Cases;
}

/// Expands a CSR matrix to a dense row-major array.
template <typename T>
std::vector<T> toDense(const CsrMatrix<T> &A) {
  std::vector<T> Dense(static_cast<std::size_t>(A.NumRows) *
                           static_cast<std::size_t>(A.NumCols),
                       T(0));
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
      Dense[static_cast<std::size_t>(Row) * A.NumCols + A.ColIdx[I]] +=
          A.Values[I];
  return Dense;
}

/// Dense reference y = A*x.
template <typename T>
std::vector<T> denseSpmv(const CsrMatrix<T> &A, const std::vector<T> &X) {
  std::vector<T> Y(static_cast<std::size_t>(A.NumRows), T(0));
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    // Kahan-free double accumulation is fine at test sizes.
    double Sum = 0.0;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
      Sum += static_cast<double>(A.Values[I]) *
             static_cast<double>(X[static_cast<std::size_t>(A.ColIdx[I])]);
    Y[static_cast<std::size_t>(Row)] = static_cast<T>(Sum);
  }
  return Y;
}

/// Random test vector in [-1, 1].
template <typename T>
std::vector<T> randomVector(std::size_t N, std::uint64_t Seed) {
  Rng Rng(Seed);
  std::vector<T> X(N);
  for (T &V : X)
    V = static_cast<T>(Rng.uniform(-1.0, 1.0));
  return X;
}

/// Random general CSR matrix (duplicate-free, sorted rows).
inline CsrMatrix<double> randomCsr(index_t Rows, index_t Cols, double Density,
                                   std::uint64_t Seed) {
  Rng Rng(Seed);
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t Row = 0; Row < Rows; ++Row)
    for (index_t Col = 0; Col < Cols; ++Col)
      if (Rng.uniform() < Density) {
        R.push_back(Row);
        C.push_back(Col);
        V.push_back(Rng.uniform(-2.0, 2.0));
      }
  return csrFromTriplets<double>(Rows, Cols, std::move(R), std::move(C),
                                 std::move(V));
}

/// \p A with the entries of every row in reverse column order: unsorted
/// rows, which validateCsr admits.
inline CsrMatrix<double> reverseRows(CsrMatrix<double> A) {
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    std::reverse(A.ColIdx.begin() + A.RowPtr[Row],
                 A.ColIdx.begin() + A.RowPtr[Row + 1]);
    std::reverse(A.Values.begin() + A.RowPtr[Row],
                 A.Values.begin() + A.RowPtr[Row + 1]);
  }
  return A;
}

/// Expects \p Actual to equal \p Expected in shape, pattern and value bits.
inline void expectSameCsr(const CsrMatrix<double> &Expected,
                          const CsrMatrix<double> &Actual) {
  EXPECT_EQ(Actual.NumRows, Expected.NumRows);
  EXPECT_EQ(Actual.NumCols, Expected.NumCols);
  EXPECT_EQ(Actual.RowPtr, Expected.RowPtr);
  EXPECT_EQ(Actual.ColIdx, Expected.ColIdx);
  ASSERT_EQ(Actual.Values.size(), Expected.Values.size());
  if (Actual.Values.empty())
    return; // memcmp may not be passed the null data() of an empty vector.
  EXPECT_EQ(std::memcmp(Actual.Values.data(), Expected.Values.data(),
                        Actual.Values.size() * sizeof(double)),
            0)
      << "the values differ in their bits";
}

/// Element-wise near-equality with a relative+absolute mixed tolerance.
template <typename T>
void expectVectorsNear(const std::vector<T> &Expected,
                       const std::vector<T> &Actual, double Tol) {
  ASSERT_EQ(Expected.size(), Actual.size());
  for (std::size_t I = 0; I != Expected.size(); ++I) {
    double Scale = std::max(1.0, std::abs(static_cast<double>(Expected[I])));
    EXPECT_NEAR(static_cast<double>(Expected[I]),
                static_cast<double>(Actual[I]), Tol * Scale)
        << "at index " << I;
  }
}

/// Sets the calling thread's OpenMP team size (omp_set_num_threads) for the
/// scope's lifetime; without OpenMP it does nothing. One thread makes
/// bindFormatOperator build one-slice plans.
class OmpThreadsScope {
public:
  explicit OmpThreadsScope(int Threads) {
#ifdef _OPENMP
    Saved = omp_get_max_threads();
    omp_set_num_threads(Threads);
#else
    (void)Threads;
#endif
  }
  ~OmpThreadsScope() {
#ifdef _OPENMP
    omp_set_num_threads(Saved);
#endif
  }
  OmpThreadsScope(const OmpThreadsScope &) = delete;
  OmpThreadsScope &operator=(const OmpThreadsScope &) = delete;

private:
  int Saved = 1;
};

} // namespace test
} // namespace smat

#endif // SMAT_TESTS_TESTUTIL_H
