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

TEST_P(KernelCorrectness, CsrKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 100);
  auto Expected = denseSpmv(A, X);

  for (const auto &K : kernelTable<double>().Csr) {
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -7.0);
    K.Fn(A, X.data(), Y.data());
    SCOPED_TRACE(std::string(K.Name) + " on " + Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

TEST_P(KernelCorrectness, CooKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  CooMatrix<double> Coo = csrToCoo(A);
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 101);
  auto Expected = denseSpmv(A, X);

  for (const auto &K : kernelTable<double>().Coo) {
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -7.0);
    K.Fn(Coo, X.data(), Y.data());
    SCOPED_TRACE(std::string(K.Name) + " on " + Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

TEST_P(KernelCorrectness, DiaKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  DiaMatrix<double> Dia;
  if (!csrToDia(A, Dia, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0))
    GTEST_SKIP() << "not DIA-representable";
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 102);
  auto Expected = denseSpmv(A, X);

  for (const auto &K : kernelTable<double>().Dia) {
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -7.0);
    K.Fn(Dia, X.data(), Y.data());
    SCOPED_TRACE(std::string(K.Name) + " on " + Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

TEST_P(KernelCorrectness, EllKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  EllMatrix<double> Ell;
  if (!csrToEll(A, Ell, /*MaxFillRatio=*/0.0))
    GTEST_SKIP() << "not ELL-representable";
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 103);
  auto Expected = denseSpmv(A, X);

  for (const auto &K : kernelTable<double>().Ell) {
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -7.0);
    K.Fn(Ell, X.data(), Y.data());
    SCOPED_TRACE(std::string(K.Name) + " on " + Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

TEST_P(KernelCorrectness, BsrKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 105);
  auto Expected = denseSpmv(A, X);

  // Every supported block size, including ragged-edge cases.
  for (index_t BlockSize : {2, 3, 4, 8}) {
    BsrMatrix<double> Bsr;
    if (!csrToBsr(A, Bsr, BlockSize, /*MaxFillRatio=*/0.0))
      continue;
    for (const auto &K : kernelTable<double>().Bsr) {
      std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -7.0);
      K.Fn(Bsr, X.data(), Y.data());
      SCOPED_TRACE(std::string(K.Name) + " b=" + std::to_string(BlockSize) +
                   " on " + Name);
      expectVectorsNear(Expected, Y, 1e-12);
    }
  }
}

TEST_P(KernelCorrectness, FloatKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(MatIdx)];
  CsrMatrix<float> A = convertValueType<float>(Ad);
  auto X = randomVector<float>(static_cast<std::size_t>(A.NumCols), 104);
  std::vector<float> Expected = denseSpmv(A, X);

  for (const auto &K : kernelTable<float>().Csr) {
    std::vector<float> Y(static_cast<std::size_t>(A.NumRows), -7.0f);
    K.Fn(A, X.data(), Y.data());
    SCOPED_TRACE(std::string(K.Name) + " on " + Name);
    expectVectorsNear(Expected, Y, 1e-4);
  }
  CooMatrix<float> Coo = csrToCoo(A);
  for (const auto &K : kernelTable<float>().Coo) {
    std::vector<float> Y(static_cast<std::size_t>(A.NumRows), -7.0f);
    K.Fn(Coo, X.data(), Y.data());
    expectVectorsNear(Expected, Y, 1e-4);
  }
}

// --- Batched (SpMM) kernels: every family member against a column-by-column
// --- dense reference, for register-tiled widths (2/4/8/16), the generic-K
// --- tail (1/3/5), and every test shape.

namespace {

constexpr std::array<index_t, 7> SpmmTestWidths = {1, 2, 3, 4, 5, 8, 16};

/// Row-major NumRows x K reference block: column J of the result is one
/// dense SpMV of column J of X.
std::vector<double> denseSpmmBlock(const CsrMatrix<double> &A,
                                   const std::vector<double> &X, index_t K) {
  std::vector<double> Y(
      static_cast<std::size_t>(A.NumRows) * static_cast<std::size_t>(K), 0.0);
  std::vector<double> Xc(static_cast<std::size_t>(A.NumCols));
  for (index_t J = 0; J < K; ++J) {
    for (index_t C = 0; C < A.NumCols; ++C)
      Xc[static_cast<std::size_t>(C)] =
          X[static_cast<std::size_t>(C) * static_cast<std::size_t>(K) +
            static_cast<std::size_t>(J)];
    std::vector<double> Yc = denseSpmv(A, Xc);
    for (index_t R = 0; R < A.NumRows; ++R)
      Y[static_cast<std::size_t>(R) * static_cast<std::size_t>(K) +
        static_cast<std::size_t>(J)] = Yc[static_cast<std::size_t>(R)];
  }
  return Y;
}

} // namespace

TEST_P(KernelCorrectness, CsrSpmmKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  for (index_t K : SpmmTestWidths) {
    auto X = randomVector<double>(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        200 + static_cast<std::uint64_t>(K));
    auto Expected = denseSpmmBlock(A, X, K);
    for (const auto &M : kernelTable<double>().CsrSpmm) {
      std::vector<double> Y(Expected.size(), -7.0);
      M.Fn(A, X.data(), Y.data(), K);
      SCOPED_TRACE(std::string(M.Name) + " k=" + std::to_string(K) + " on " +
                   Name);
      expectVectorsNear(Expected, Y, 1e-12);
    }
  }
}

TEST_P(KernelCorrectness, CooSpmmKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  CooMatrix<double> Coo = csrToCoo(A);
  for (index_t K : SpmmTestWidths) {
    auto X = randomVector<double>(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        210 + static_cast<std::uint64_t>(K));
    auto Expected = denseSpmmBlock(A, X, K);
    for (const auto &M : kernelTable<double>().CooSpmm) {
      std::vector<double> Y(Expected.size(), -7.0);
      M.Fn(Coo, X.data(), Y.data(), K);
      SCOPED_TRACE(std::string(M.Name) + " k=" + std::to_string(K) + " on " +
                   Name);
      expectVectorsNear(Expected, Y, 1e-12);
    }
  }
}

TEST_P(KernelCorrectness, DiaSpmmKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  DiaMatrix<double> Dia;
  if (!csrToDia(A, Dia, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0))
    GTEST_SKIP() << "not DIA-representable";
  for (index_t K : SpmmTestWidths) {
    auto X = randomVector<double>(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        220 + static_cast<std::uint64_t>(K));
    auto Expected = denseSpmmBlock(A, X, K);
    for (const auto &M : kernelTable<double>().DiaSpmm) {
      std::vector<double> Y(Expected.size(), -7.0);
      M.Fn(Dia, X.data(), Y.data(), K);
      SCOPED_TRACE(std::string(M.Name) + " k=" + std::to_string(K) + " on " +
                   Name);
      expectVectorsNear(Expected, Y, 1e-12);
    }
  }
}

TEST_P(KernelCorrectness, EllSpmmKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, A] = Mats[static_cast<std::size_t>(MatIdx)];
  EllMatrix<double> Ell;
  if (!csrToEll(A, Ell, /*MaxFillRatio=*/0.0))
    GTEST_SKIP() << "not ELL-representable";
  for (index_t K : SpmmTestWidths) {
    auto X = randomVector<double>(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        230 + static_cast<std::uint64_t>(K));
    auto Expected = denseSpmmBlock(A, X, K);
    for (const auto &M : kernelTable<double>().EllSpmm) {
      if (!kernelPrecondsHold(M.Preconds, Ell))
        continue; // Sliced kernels need the RowLen sidecar.
      std::vector<double> Y(Expected.size(), -7.0);
      M.Fn(Ell, X.data(), Y.data(), K);
      SCOPED_TRACE(std::string(M.Name) + " k=" + std::to_string(K) + " on " +
                   Name);
      expectVectorsNear(Expected, Y, 1e-12);
    }
  }
}

TEST_P(KernelCorrectness, FloatSpmmKernelsMatchReference) {
  int MatIdx = GetParam();
  auto Mats = testMatrices();
  const auto &[Name, Ad] = Mats[static_cast<std::size_t>(MatIdx)];
  CsrMatrix<float> A = convertValueType<float>(Ad);
  const index_t K = 8;
  auto X = randomVector<float>(
      static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K), 240);
  // Per-column float reference.
  std::vector<float> Expected(
      static_cast<std::size_t>(A.NumRows) * static_cast<std::size_t>(K), 0.0f);
  {
    std::vector<float> Xc(static_cast<std::size_t>(A.NumCols));
    for (index_t J = 0; J < K; ++J) {
      for (index_t C = 0; C < A.NumCols; ++C)
        Xc[static_cast<std::size_t>(C)] = X[static_cast<std::size_t>(C * K + J)];
      std::vector<float> Yc = denseSpmv(A, Xc);
      for (index_t R = 0; R < A.NumRows; ++R)
        Expected[static_cast<std::size_t>(R * K + J)] =
            Yc[static_cast<std::size_t>(R)];
    }
  }
  for (const auto &M : kernelTable<float>().CsrSpmm) {
    std::vector<float> Y(Expected.size(), -7.0f);
    M.Fn(A, X.data(), Y.data(), K);
    SCOPED_TRACE(std::string(M.Name) + " on " + Name);
    expectVectorsNear(Expected, Y, 1e-4f);
  }
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

TEST(KernelRegistryTest, FlagStrings) {
  EXPECT_EQ(optFlagsString(OptNone), "basic");
  EXPECT_EQ(optFlagsString(OptUnroll), "unroll");
  EXPECT_EQ(optFlagsString(OptSimd | OptLoadBalance), "simd+loadbalance");
  for (unsigned Bit = 0; Bit < NumOptStrategies; ++Bit)
    EXPECT_NE(optFlagsString(1u << Bit), "basic") << Bit;
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

TEST(LoadBalanceTest, SlicedEllKernelsDeclareRowLengthPrecond) {
  // csrToEll output carries the RowLen sidecar, so the precondition holds;
  // a hand-built ELL without it must be gated out rather than read past
  // RowLen.data().
  CsrMatrix<double> A = spikedRows(200, 2, 50, 0.05, 24);
  EllMatrix<double> Converted;
  ASSERT_TRUE(csrToEll(A, Converted, /*MaxFillRatio=*/0.0));
  EXPECT_TRUE(Converted.hasRowLengths());

  EllMatrix<double> Bare = Converted;
  Bare.RowLen.clear();
  int SlicedSeen = 0;
  auto CheckSliced = [&](const auto &List) {
    for (const auto &K : List) {
      if (!(K.Flags & OptLoadBalance))
        continue;
      ++SlicedSeen;
      EXPECT_EQ(K.Preconds & PrecondRowLengths, PrecondRowLengths) << K.Name;
      EXPECT_TRUE(kernelPrecondsHold(K.Preconds, Converted)) << K.Name;
      EXPECT_FALSE(kernelPrecondsHold(K.Preconds, Bare)) << K.Name;
    }
  };
  CheckSliced(kernelTable<double>().Ell);
  CheckSliced(kernelTable<double>().EllSpmm);
  EXPECT_GE(SlicedSeen, 2);

  // measureKernelTable applies the same gate: precondition violators are
  // recorded at zero GFLOPS and thus never selectable.
  auto Table = measureKernelTable<double>(kernelTable<double>().Ell, Bare,
                                          /*MinSeconds=*/1e-5);
  for (std::size_t I = 0; I != Table.size(); ++I) {
    if (kernelTable<double>().Ell[I].Preconds & PrecondRowLengths) {
      EXPECT_EQ(Table[I].Gflops, 0.0) << Table[I].Name;
    }
  }
}

// --- Scoreboard (paper Section 5.2) --------------------------------------------

TEST(ScoreboardTest, SingleStrategyVotes) {
  // unroll helps (+1), simd hurts (-1), prefetch below gap (neglected).
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.00},
      {"unroll", OptUnroll, 1.50},
      {"simd", OptSimd, 0.60},
      {"prefetch", OptPrefetch, 1.005},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.StrategyScores[0], 1);  // unroll bit.
  EXPECT_EQ(R.StrategyScores[1], -1); // simd bit.
  EXPECT_EQ(R.StrategyScores[2], 0);  // prefetch bit.
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
  // Regression: an entry recorded at 0 GFLOPS (unmeasured — precondition
  // violation, fault, or expired budget) used to be able to win the
  // tie-break. Here "abc" inherits +1 votes from both measured strategies
  // (its 2-bit reduced partners don't exist, so it contributes no negative
  // votes of its own) and scores 2 — higher than any measured entry — while
  // having never run. It must be unselectable.
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 1.0},
      {"a", OptUnroll, 1.5},
      {"b", OptSimd, 1.4},
      {"abc", OptUnroll | OptSimd | OptPrefetch, 0.0},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.KernelScores[3], 2) << "the synthetic table must reproduce the "
                                     "inflated score for the unmeasured entry";
  EXPECT_EQ(R.BestIndex, 1) << "a (score 1, fastest measured) must win; the "
                               "unmeasured abc must be skipped";
}

TEST(ScoreboardTest, WhollyUnmeasuredTableKeepsBasicSelected) {
  // When nothing measured at all (e.g. the whole budget expired before the
  // first kernel), the basic entry stays selected: binding it is always
  // safe, whereas any other pick would crown a kernel that never ran.
  std::vector<KernelMeasurement> Table = {
      {"basic", OptNone, 0.0},
      {"a", OptUnroll, 0.0},
      {"b", OptSimd, 0.0},
  };
  ScoreboardResult R = runScoreboard(Table);
  EXPECT_EQ(R.BestIndex, 0);
}

TEST(ScoreboardTest, MeasureKernelTableProducesFiniteNumbers) {
  CsrMatrix<double> A = randomCsr(200, 200, 0.05, 8);
  auto Table = measureKernelTable<double>(kernelTable<double>().Csr, A,
                                          /*MinSeconds=*/1e-4);
  ASSERT_EQ(Table.size(), kernelTable<double>().Csr.size());
  for (const auto &M : Table) {
    EXPECT_GT(M.Gflops, 0.0) << M.Name;
    EXPECT_LT(M.Gflops, 1000.0) << M.Name;
  }
}

TEST(ScoreboardTest, SearchOptimalKernelsReturnsValidIndices) {
  KernelSelection S = searchOptimalKernels<double>(/*MinSeconds=*/2e-4);
  const auto &T = kernelTable<double>();
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::CSR)],
            static_cast<int>(T.Csr.size()));
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::COO)],
            static_cast<int>(T.Coo.size()));
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::DIA)],
            static_cast<int>(T.Dia.size()));
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::ELL)],
            static_cast<int>(T.Ell.size()));
  for (int K = 0; K < NumFormats; ++K) {
    EXPECT_GE(S.BestKernel[static_cast<std::size_t>(K)], 0);
    EXPECT_FALSE(S.BestKernelName[static_cast<std::size_t>(K)].empty());
  }
  // The skewed-CSR pass always runs in the unbudgeted search.
  EXPECT_GE(S.BestSkewCsrKernel, 0);
  EXPECT_LT(S.BestSkewCsrKernel, static_cast<int>(T.Csr.size()));
  EXPECT_FALSE(S.BestSkewCsrKernelName.empty());
  // csrKernelFor routes by row CV: below the threshold the general pick,
  // above it the skew pick.
  EXPECT_EQ(S.csrKernelFor(0.0), S.BestKernel[static_cast<int>(FormatKind::CSR)]);
  EXPECT_EQ(S.csrKernelFor(SkewRowCvThreshold + 1.0), S.BestSkewCsrKernel);
}
