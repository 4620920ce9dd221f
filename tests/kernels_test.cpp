//===- tests/kernels_test.cpp - Kernel library and scoreboard tests -------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/Generators.h"
#include "ref/RefSpmv.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <type_traits>

using namespace smat;
using namespace smat::test;

namespace {

/// The structural shapes every kernel is checked against.
std::vector<std::pair<std::string, CsrMatrix<double>>> testMatrices() {
  std::vector<std::pair<std::string, CsrMatrix<double>>> Mats;
  Mats.emplace_back("random_square", randomCsr(64, 64, 0.12, 1));
  Mats.emplace_back("rectangular_wide", randomCsr(40, 90, 0.1, 2));
  Mats.emplace_back("rectangular_tall", randomCsr(90, 40, 0.1, 3));
  Mats.emplace_back("banded", banded(80, 2));
  Mats.emplace_back("power_law", powerLawGraph(100, 2.0, 1, 40, 4));
  Mats.emplace_back("bounded_degree", boundedDegreeRandom(70, 70, 3, 3, 5));
  // Matrix with empty rows (row 0 and last row empty).
  {
    auto A = csrFromTriplets<double>(6, 6, {1, 2, 3, 4}, {0, 5, 3, 2},
                                     {1.0, -2.0, 3.0, 0.5});
    Mats.emplace_back("empty_rows", std::move(A));
  }
  // Single row / single column extremes.
  Mats.emplace_back("single_row", randomCsr(1, 50, 0.4, 6));
  Mats.emplace_back("single_col", randomCsr(50, 1, 0.4, 7));
  // All-zero matrix.
  Mats.emplace_back("all_zero", CsrMatrix<double>(10, 10));
  // Adversarially skewed row-length distributions: the shapes the
  // load-balanced (nnz-split CSR, sliced ELL) kernels exist for.
  {
    // One dense row among (almost) empty rows.
    std::vector<index_t> Rows, Cols;
    std::vector<double> Vals;
    for (index_t C = 0; C < 40; ++C) {
      Rows.push_back(5);
      Cols.push_back(C);
      Vals.push_back(0.25 * static_cast<double>(C) - 3.0);
    }
    Rows.push_back(30);
    Cols.push_back(12);
    Vals.push_back(2.5);
    Mats.emplace_back("dense_row_among_empty",
                      csrFromTriplets<double>(40, 40, Rows, Cols, Vals));
  }
  {
    // Arrowhead: full first row, full first column, full diagonal.
    std::vector<index_t> Rows, Cols;
    std::vector<double> Vals;
    for (index_t C = 0; C < 60; ++C) {
      Rows.push_back(0);
      Cols.push_back(C);
      Vals.push_back(1.0 + 0.01 * static_cast<double>(C));
    }
    for (index_t R = 1; R < 60; ++R) {
      Rows.push_back(R);
      Cols.push_back(0);
      Vals.push_back(-0.5);
      Rows.push_back(R);
      Cols.push_back(R);
      Vals.push_back(3.0);
    }
    Mats.emplace_back("arrowhead",
                      csrFromTriplets<double>(60, 60, Rows, Cols, Vals));
  }
  // Power-law tail with spiked hub rows.
  Mats.emplace_back("power_law_spiked", spikedRows(120, 2, 80, 0.05, 9));
  return Mats;
}

} // namespace

// --- Correctness of every kernel against the dense reference, parameterized
// --- over (matrix, kernel index). The fixture enumerates kernels inside so
// --- newly added kernels are covered automatically.

class KernelCorrectness : public ::testing::TestWithParam<int> {};

namespace {

/// Calls \p Check with a value of each type the library instantiates, so
/// each per-family test checks the family's double and float kernels.
template <typename CheckFn> void forEachValueType(CheckFn Check) {
  {
    SCOPED_TRACE("double");
    Check(double());
  }
  {
    SCOPED_TRACE("float");
    Check(float());
  }
}

/// Tolerance of a kernel's result in \p T against the dense reference.
template <typename T> constexpr double refTolerance() {
  return std::is_same_v<T, float> ? 1e-4 : 1e-12;
}

} // namespace

TEST_P(KernelCorrectness, CsrKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    auto X = randomVector<T>(static_cast<std::size_t>(A.NumCols), 100);
    auto Expected = denseSpmv(A, X);
    for (const auto &K : kernelTable<T>().Csr) {
      std::vector<T> Y(static_cast<std::size_t>(A.NumRows), T(-7));
      K.Fn(A, X.data(), Y.data());
      SCOPED_TRACE(std::string(K.Name) + " on " + Name);
      expectVectorsNear(Expected, Y, refTolerance<T>());
    }
  });
}

TEST_P(KernelCorrectness, CooKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    CooMatrix<T> Coo = csrToCoo(A);
    auto X = randomVector<T>(static_cast<std::size_t>(A.NumCols), 101);
    auto Expected = denseSpmv(A, X);
    for (const auto &K : kernelTable<T>().Coo) {
      std::vector<T> Y(static_cast<std::size_t>(A.NumRows), T(-7));
      K.Fn(Coo, X.data(), Y.data());
      SCOPED_TRACE(std::string(K.Name) + " on " + Name);
      expectVectorsNear(Expected, Y, refTolerance<T>());
    }
  });
}

TEST_P(KernelCorrectness, DiaKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  DiaMatrix<double> Probe;
  if (!csrToDia(Ad, Probe, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0))
    GTEST_SKIP() << "not DIA-representable";
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    DiaMatrix<T> Dia;
    ASSERT_TRUE(csrToDia(A, Dia, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0));
    auto X = randomVector<T>(static_cast<std::size_t>(A.NumCols), 102);
    auto Expected = denseSpmv(A, X);
    for (const auto &K : kernelTable<T>().Dia) {
      std::vector<T> Y(static_cast<std::size_t>(A.NumRows), T(-7));
      K.Fn(Dia, X.data(), Y.data());
      SCOPED_TRACE(std::string(K.Name) + " on " + Name);
      expectVectorsNear(Expected, Y, refTolerance<T>());
    }
  });
}

TEST_P(KernelCorrectness, EllKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  EllMatrix<double> Probe;
  if (!csrToEll(Ad, Probe, /*MaxFillRatio=*/0.0))
    GTEST_SKIP() << "not ELL-representable";
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    EllMatrix<T> Ell;
    ASSERT_TRUE(csrToEll(A, Ell, /*MaxFillRatio=*/0.0));
    auto X = randomVector<T>(static_cast<std::size_t>(A.NumCols), 103);
    auto Expected = denseSpmv(A, X);
    for (const auto &K : kernelTable<T>().Ell) {
      std::vector<T> Y(static_cast<std::size_t>(A.NumRows), T(-7));
      K.Fn(Ell, X.data(), Y.data());
      SCOPED_TRACE(std::string(K.Name) + " on " + Name);
      expectVectorsNear(Expected, Y, refTolerance<T>());
    }
  });
}

TEST_P(KernelCorrectness, BsrKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    auto X = randomVector<T>(static_cast<std::size_t>(A.NumCols), 105);
    auto Expected = denseSpmv(A, X);
    // Every supported block size, including ragged-edge cases.
    for (index_t BlockSize : {2, 3, 4, 8}) {
      BsrMatrix<T> Bsr;
      if (!csrToBsr(A, Bsr, BlockSize, /*MaxFillRatio=*/0.0))
        continue;
      for (const auto &K : kernelTable<T>().Bsr) {
        std::vector<T> Y(static_cast<std::size_t>(A.NumRows), T(-7));
        K.Fn(Bsr, X.data(), Y.data());
        SCOPED_TRACE(std::string(K.Name) + " b=" + std::to_string(BlockSize) +
                     " on " + Name);
        expectVectorsNear(Expected, Y, refTolerance<T>());
      }
    }
  });
}

// --- Batched (SpMM) kernels: every family member against a column-by-column
// --- dense reference, for register-tiled widths (2/4/8/16), the generic-K
// --- tail (1/3/5), and every test shape.

namespace {

constexpr std::array<index_t, 7> SpmmTestWidths = {1, 2, 3, 4, 5, 8, 16};

/// Row-major NumRows x K reference block: column J of the result is one
/// dense SpMV of column J of X.
template <typename T>
std::vector<T> denseSpmmBlock(const CsrMatrix<T> &A, const std::vector<T> &X,
                              index_t K) {
  std::vector<T> Y(
      static_cast<std::size_t>(A.NumRows) * static_cast<std::size_t>(K), T(0));
  std::vector<T> Xc(static_cast<std::size_t>(A.NumCols));
  for (index_t J = 0; J < K; ++J) {
    for (index_t C = 0; C < A.NumCols; ++C)
      Xc[static_cast<std::size_t>(C)] =
          X[static_cast<std::size_t>(C) * static_cast<std::size_t>(K) +
            static_cast<std::size_t>(J)];
    std::vector<T> Yc = denseSpmv(A, Xc);
    for (index_t R = 0; R < A.NumRows; ++R)
      Y[static_cast<std::size_t>(R) * static_cast<std::size_t>(K) +
        static_cast<std::size_t>(J)] = Yc[static_cast<std::size_t>(R)];
  }
  return Y;
}

/// Checks every kernel of one SpMM family, bound to \p M (the format of
/// \p A), against the dense reference at every test width.
template <typename T, typename MatrixT, typename ListT>
void checkSpmmFamily(const std::string &Name, const CsrMatrix<T> &A,
                     const MatrixT &M, const ListT &Family,
                     std::uint64_t Seed) {
  for (index_t K : SpmmTestWidths) {
    auto X = randomVector<T>(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        Seed + static_cast<std::uint64_t>(K));
    auto Expected = denseSpmmBlock(A, X, K);
    for (const auto &Kernel : Family) {
      std::vector<T> Y(Expected.size(), T(-7));
      Kernel.Fn(M, X.data(), Y.data(), K);
      SCOPED_TRACE(std::string(Kernel.Name) + " k=" + std::to_string(K) +
                   " on " + Name);
      expectVectorsNear(Expected, Y, refTolerance<T>());
    }
  }
}

} // namespace

TEST_P(KernelCorrectness, CsrSpmmKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    checkSpmmFamily(Name, A, A, kernelTable<T>().CsrSpmm, 200);
  });
}

TEST_P(KernelCorrectness, CooSpmmKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    checkSpmmFamily(Name, A, csrToCoo(A), kernelTable<T>().CooSpmm, 210);
  });
}

TEST_P(KernelCorrectness, DiaSpmmKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  DiaMatrix<double> Probe;
  if (!csrToDia(Ad, Probe, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0))
    GTEST_SKIP() << "not DIA-representable";
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    DiaMatrix<T> Dia;
    ASSERT_TRUE(csrToDia(A, Dia, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0));
    checkSpmmFamily(Name, A, Dia, kernelTable<T>().DiaSpmm, 220);
  });
}

TEST_P(KernelCorrectness, EllSpmmKernelsMatchReference) {
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(GetParam())];
  EllMatrix<double> Probe;
  if (!csrToEll(Ad, Probe, /*MaxFillRatio=*/0.0))
    GTEST_SKIP() << "not ELL-representable";
  forEachValueType([&](auto Zero) {
    using T = decltype(Zero);
    const CsrMatrix<T> A = convertValueType<T>(Ad);
    EllMatrix<T> Ell;
    ASSERT_TRUE(csrToEll(A, Ell, /*MaxFillRatio=*/0.0));
    checkSpmmFamily(Name, A, Ell, kernelTable<T>().EllSpmm, 230);
  });
}

INSTANTIATE_TEST_SUITE_P(AllShapes, KernelCorrectness, ::testing::Range(0, 13),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           auto Mats = testMatrices();
                           return Mats[static_cast<std::size_t>(Info.param)]
                               .first;
                         });

// --- Reference (baseline) library ----------------------------------------------

TEST_P(KernelCorrectness, RefLibraryMatchesReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  SCOPED_TRACE(Name);

  auto Xd = randomVector<double>(static_cast<std::size_t>(A.NumCols), 301);
  auto ExpectedD = denseSpmv(A, Xd);
  std::vector<double> Yd(static_cast<std::size_t>(A.NumRows), -3.0);

  ref_dcsrgemv(A, Xd.data(), Yd.data());
  expectVectorsNear(ExpectedD, Yd, 1e-12);

  CooMatrix<double> Coo = csrToCoo(A);
  ref_dcoogemv(Coo, Xd.data(), Yd.data());
  expectVectorsNear(ExpectedD, Yd, 1e-12);

  DiaMatrix<double> Dia;
  if (csrToDia(A, Dia, 0.0, 0)) {
    ref_ddiagemv(Dia, Xd.data(), Yd.data());
    expectVectorsNear(ExpectedD, Yd, 1e-12);
  }
  EllMatrix<double> Ell;
  if (csrToEll(A, Ell, 0.0)) {
    ref_dellgemv(Ell, Xd.data(), Yd.data());
    expectVectorsNear(ExpectedD, Yd, 1e-12);
  }

  // Single-precision entry points.
  CsrMatrix<float> Af = convertValueType<float>(A);
  auto Xf = randomVector<float>(static_cast<std::size_t>(A.NumCols), 302);
  std::vector<float> ExpectedF = denseSpmv(Af, Xf);
  std::vector<float> Yf(static_cast<std::size_t>(A.NumRows), -3.0f);
  ref_scsrgemv(Af, Xf.data(), Yf.data());
  expectVectorsNear(ExpectedF, Yf, 1e-4);
  CooMatrix<float> CooF = csrToCoo(Af);
  ref_scoogemv(CooF, Xf.data(), Yf.data());
  expectVectorsNear(ExpectedF, Yf, 1e-4);

  // Generic dispatchers agree with the named entry points.
  refCsrSpmv(A, Xd.data(), Yd.data());
  expectVectorsNear(ExpectedD, Yd, 1e-12);
  refCooSpmv(Coo, Xd.data(), Yd.data());
  expectVectorsNear(ExpectedD, Yd, 1e-12);
}

// --- Registry sanity ----------------------------------------------------------

TEST(KernelRegistryTest, EveryFormatHasBasicKernelFirst) {
  const auto &T = kernelTable<double>();
  EXPECT_EQ(T.Csr.front().Flags, OptNone);
  EXPECT_EQ(T.Coo.front().Flags, OptNone);
  EXPECT_EQ(T.Dia.front().Flags, OptNone);
  EXPECT_EQ(T.Ell.front().Flags, OptNone);
  EXPECT_EQ(T.Bsr.front().Flags, OptNone);
  EXPECT_EQ(T.CsrSpmm.front().Flags, OptNone);
  EXPECT_EQ(T.CooSpmm.front().Flags, OptNone);
  EXPECT_EQ(T.DiaSpmm.front().Flags, OptNone);
  EXPECT_EQ(T.EllSpmm.front().Flags, OptNone);
}

TEST(KernelRegistryTest, LibraryHasPaperScaleVariantCount) {
  // The paper mentions "up to 24" implementations in the current system.
  EXPECT_GE(kernelTable<double>().size(), 20u);
  EXPECT_GE(kernelTable<float>().size(), 20u);
}

TEST(KernelRegistryTest, KernelNamesUnique) {
  const auto &T = kernelTable<double>();
  std::set<std::string> Names;
  for (const auto &K : T.Csr)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.Coo)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.Dia)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.Ell)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.Bsr)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.CsrSpmm)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.CooSpmm)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.DiaSpmm)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
  for (const auto &K : T.EllSpmm)
    EXPECT_TRUE(Names.insert(K.Name).second) << K.Name;
}

// --- Skewed rows (balanced row slices, sliced ELL) ---------------------------

TEST(LoadBalanceTest, SkewedRowsMatchReferenceInBalancedSlices) {
  // A plan splits skew across threads with nonzero-balanced row slices, so
  // a row far longer than the rest fills a slice of its own. Every CSR
  // SpMV and SpMM kernel, called slice by slice over eight such slices,
  // matches the reference on matrices whose longest row exceeds a slice's
  // share of the nonzeros.
  std::vector<std::pair<std::string, CsrMatrix<double>>> Skewed;
  Skewed.emplace_back("power_law_large",
                      powerLawGraph(3000, 1.8, 1, 1500, 21));
  Skewed.emplace_back("spiked_hubs", spikedRows(2000, 2, 600, 0.02, 22));
  Skewed.emplace_back("circuit_dense_rows", circuitLike(1500, 3, 0.9, 23));
  {
    // A single row holding nearly all nonzeros.
    std::vector<index_t> Rows, Cols;
    std::vector<double> Vals;
    for (index_t C = 0; C < 4000; ++C) {
      Rows.push_back(17);
      Cols.push_back(C);
      Vals.push_back(0.001 * static_cast<double>(C) - 1.7);
    }
    Skewed.emplace_back("one_giant_row",
                        csrFromTriplets<double>(64, 4000, Rows, Cols, Vals));
  }
  const KernelTable<double> &T = kernelTable<double>();
  const index_t K = 8;
  for (const auto &[Name, A] : Skewed) {
    SCOPED_TRACE(Name);
    const std::vector<index_t> Bounds = balancedRowBounds(A, 8);
    auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 400);
    auto Expected = denseSpmv(A, X);
    for (const auto &Kern : T.Csr) {
      std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -7.0);
      for (std::size_t S = 0; S + 1 < Bounds.size(); ++S)
        Kern.Fn(A, Bounds[S], Bounds[S + 1], X.data(), Y.data());
      SCOPED_TRACE(Kern.Name);
      expectVectorsNear(Expected, Y, 1e-9);
    }
    auto Xk = randomVector<double>(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        401);
    auto ExpectedK = denseSpmmBlock(A, Xk, K);
    for (const auto &Kern : T.CsrSpmm) {
      std::vector<double> Y(ExpectedK.size(), -7.0);
      for (std::size_t S = 0; S + 1 < Bounds.size(); ++S)
        Kern.Fn(A, Bounds[S], Bounds[S + 1], Xk.data(), Y.data(), K);
      SCOPED_TRACE(Kern.Name);
      expectVectorsNear(ExpectedK, Y, 1e-9);
    }
  }
}

// --- Scoreboard (paper Section 5.2) --------------------------------------------

TEST(ScoreboardTest, SingleStrategyVotes) {
  // unroll helps (+1), simd hurts (-1), branchfree below gap (neglected).
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.00},
      {"unroll", OptUnroll, 1.50},
      {"simd", OptSimd, 0.60},
      {"branchfree", OptBranchFree, 1.005},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.StrategyScores[0], 1);  // unroll bit.
  EXPECT_EQ(R.StrategyScores[1], -1); // simd bit.
  EXPECT_EQ(R.StrategyScores[2], 0);  // branchfree bit.
  EXPECT_TRUE(R.Neglected[2]);
  EXPECT_FALSE(R.Neglected[0]);
  EXPECT_EQ(R.BestIndex, 1);
}

TEST(ScoreboardTest, MultiStrategyComparesOneLess) {
  // unroll +1 (vs basic); simd measured only in combination: the pair
  // unroll+simd vs unroll shows simd hurting.
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.0},
      {"unroll", OptUnroll, 2.0},
      {"unroll_simd", OptUnroll | OptSimd, 1.4},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.StrategyScores[0], 1);
  EXPECT_EQ(R.StrategyScores[1], -1);
  // Scores: basic 0, unroll 1, unroll_simd 0 -> unroll wins.
  EXPECT_EQ(R.BestIndex, 1);
}

TEST(ScoreboardTest, BasicWinsWhenEverythingHurts) {
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 2.0},
      {"unroll", OptUnroll, 1.0},
      {"simd", OptSimd, 0.5},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.BestIndex, 0);
}

TEST(ScoreboardTest, TieBrokenByMeasuredPerformance) {
  // Two single-strategy kernels both +1: the faster one should win.
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.0},
      {"unroll", OptUnroll, 1.5},
      {"simd", OptSimd, 1.8},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.BestIndex, 2);
}

TEST(ScoreboardTest, CombinationAccumulatesStrategyScores) {
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.0},
      {"unroll", OptUnroll, 1.5},
      {"simd", OptSimd, 1.4},
      {"both", OptUnroll | OptSimd, 2.2},
  };
  ScoreboardResult R = runScoreboard(Table);
  // unroll: +1 (vs basic) +1 (both vs simd) = 2; simd likewise.
  EXPECT_EQ(R.StrategyScores[0], 2);
  EXPECT_EQ(R.StrategyScores[1], 2);
  EXPECT_EQ(R.KernelScores[3], 4);
  EXPECT_EQ(R.BestIndex, 3);
}

TEST(ScoreboardTest, EmptyTable) {
  ScoreboardResult R = runScoreboard({});
  EXPECT_EQ(R.BestIndex, 0);
  EXPECT_TRUE(R.KernelScores.empty());
}

TEST(ScoreboardTest, UnmeasuredKernelCannotWinOnStrategyScores) {
  // Regression: an entry recorded at 0 GFLOPS (unmeasured — declined
  // conversion, fault, or expired budget) used to be able to win the
  // tie-break. Here "abc" inherits +1 votes from both measured strategies
  // (its 2-bit reduced partners don't exist, so it contributes no negative
  // votes of its own) and scores 2 — higher than any measured entry — while
  // having never run. It must be unselectable.
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.0},
      {"a", OptUnroll, 1.5},
      {"b", OptSimd, 1.4},
      {"abc", OptUnroll | OptSimd | OptBranchFree, 0.0},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.KernelScores[3], 2) << "the synthetic table must reproduce the "
                                     "inflated score for the unmeasured entry";
  EXPECT_EQ(R.BestIndex, 1) << "a (score 1, fastest measured) must win; the "
                               "unmeasured abc must be skipped";
}

TEST(ScoreboardTest, WhollyUnmeasuredTableKeepsBasicSelected) {
  // When nothing measured at all (e.g. every plan of the format faulted),
  // the basic entry stays selected: binding it is always safe, whereas any
  // other pick would crown a kernel that never ran.
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 0.0},
      {"a", OptUnroll, 0.0},
      {"b", OptSimd, 0.0},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.BestIndex, 0);
}

