//===- tests/property_test.cpp - Randomized property sweeps ---------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Property-based tests: the same invariants checked over a seeded family of
// random matrices, using parameterized gtest as the sweep driver.
//
//===----------------------------------------------------------------------===//

#include "amg/SpGemm.h"
#include "core/FormatOperator.h"
#include "core/Smat.h"
#include "core/Trainer.h"
#include "features/FeatureExtractor.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "matrix/MatrixMarket.h"
#include "ml/ModelIO.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>

using namespace smat;
using namespace smat::test;

namespace {

/// A seeded random matrix whose shape/density also vary with the seed.
CsrMatrix<double> seededMatrix(std::uint64_t Seed) {
  Rng Rng(Seed * 7919 + 3);
  index_t Rows = static_cast<index_t>(Rng.range(1, 120));
  index_t Cols = static_cast<index_t>(Rng.range(1, 120));
  double Density = Rng.uniform(0.005, 0.3);
  return randomCsr(Rows, Cols, Density, Seed);
}

} // namespace

class MatrixProperties : public ::testing::TestWithParam<std::uint64_t> {};

// Conversions are lossless round trips for every representable matrix.
TEST_P(MatrixProperties, FormatRoundTripsAreExact) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  auto Dense = toDense(A);

  EXPECT_EQ(toDense(cooToCsr(csrToCoo(A))), Dense);

  DiaMatrix<double> Dia;
  ASSERT_TRUE(csrToDia(A, Dia, 0.0, 0));
  EXPECT_EQ(toDense(diaToCsr(Dia)), Dense);

  EllMatrix<double> Ell;
  ASSERT_TRUE(csrToEll(A, Ell, 0.0));
  EXPECT_EQ(toDense(ellToCsr(Ell)), Dense);

  for (index_t BlockSize : {2, 3, 5}) {
    BsrMatrix<double> Bsr;
    ASSERT_TRUE(csrToBsr(A, Bsr, BlockSize, 0.0));
    EXPECT_EQ(toDense(bsrToCsr(Bsr)), Dense) << "b=" << BlockSize;
  }
}

// Every kernel of every format agrees with the dense reference.
TEST_P(MatrixProperties, AllKernelsAgree) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols),
                                GetParam() + 500);
  auto Expected = denseSpmv(A, X);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows));

  for (const auto &K : kernelTable<double>().Csr) {
    K.Fn(A, X.data(), Y.data());
    SCOPED_TRACE(K.Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
  CooMatrix<double> Coo = csrToCoo(A);
  for (const auto &K : kernelTable<double>().Coo) {
    K.Fn(Coo, X.data(), Y.data());
    SCOPED_TRACE(K.Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
  DiaMatrix<double> Dia;
  ASSERT_TRUE(csrToDia(A, Dia, 0.0, 0));
  for (const auto &K : kernelTable<double>().Dia) {
    K.Fn(Dia, X.data(), Y.data());
    SCOPED_TRACE(K.Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
  EllMatrix<double> Ell;
  ASSERT_TRUE(csrToEll(A, Ell, 0.0));
  for (const auto &K : kernelTable<double>().Ell) {
    K.Fn(Ell, X.data(), Y.data());
    SCOPED_TRACE(K.Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
  BsrMatrix<double> Bsr;
  ASSERT_TRUE(csrToBsr(A, Bsr, 4, 0.0));
  for (const auto &K : kernelTable<double>().Bsr) {
    K.Fn(Bsr, X.data(), Y.data());
    SCOPED_TRACE(K.Name);
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

// Batched multiply of every format operator equals k independent SpMV
// applies of the same operator, for register-tiled widths (2/4/8/16) and the
// generic-K tail (1/3). The reference path gathers column J of the row-major
// block, runs the operator's own apply(), and compares against column J of
// multiply()'s output — so any disagreement is the SpMM kernel's fault, not
// a kernel-selection difference.
namespace {

constexpr std::array<index_t, 6> BatchTestWidths = {1, 2, 3, 4, 8, 16};

void expectBatchedMatchesApply(const FormatOperator<double> &Op,
                               std::uint64_t Seed, double Tol = 1e-10) {
  const index_t Rows = Op.numRows();
  const index_t Cols = Op.numCols();
  for (index_t K : BatchTestWidths) {
    auto X = randomVector<double>(
        static_cast<std::size_t>(Cols) * static_cast<std::size_t>(K),
        Seed + static_cast<std::uint64_t>(K));
    std::vector<double> Y(
        static_cast<std::size_t>(Rows) * static_cast<std::size_t>(K), -9.0);
    Op.multiply(X.data(), Y.data(), K);

    std::vector<double> Xc(static_cast<std::size_t>(Cols));
    std::vector<double> Yc(static_cast<std::size_t>(Rows));
    std::vector<double> YCol(static_cast<std::size_t>(Rows));
    for (index_t J = 0; J < K; ++J) {
      for (index_t C = 0; C < Cols; ++C)
        Xc[static_cast<std::size_t>(C)] =
            X[static_cast<std::size_t>(C) * static_cast<std::size_t>(K) +
              static_cast<std::size_t>(J)];
      Op.apply(Xc.data(), Yc.data());
      for (index_t R = 0; R < Rows; ++R)
        YCol[static_cast<std::size_t>(R)] =
            Y[static_cast<std::size_t>(R) * static_cast<std::size_t>(K) +
              static_cast<std::size_t>(J)];
      SCOPED_TRACE("k=" + std::to_string(K) + " column " + std::to_string(J));
      expectVectorsNear(Yc, YCol, Tol);
    }
  }
}

} // namespace

TEST_P(MatrixProperties, BatchedMultiplyMatchesRepeatedApply) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  // Point every SpMM pick past the basic entry so the register-tiled
  // variants are what multiply() dispatches to (the bind clamps and falls
  // back to basic when a family has no such member).
  KernelSelection Sel;
  Sel.BestSpmmKernel.fill(1);
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL, FormatKind::BSR}) {
    auto Op = bindFormatOperator(A, Kind, Sel);
    ASSERT_TRUE(Op);
    SCOPED_TRACE(std::string("requested format ") +
                 std::string(formatName(Kind)) + ", bound " +
                 std::string(formatName(Op->kind())) + ", spmm kernel " +
                 Op->spmmKernelName());
    expectBatchedMatchesApply(*Op, GetParam() * 31 + 800);
  }
}

// The same invariant through the public tune path with BatchWidth set,
// including the shapes the SpMM tier exists for (FEM blocks, skew, empty).
TEST(BatchedTuneTest, TunedMultiplyMatchesIndependentSpmv) {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0; // Never confident: measurement decides.
  Model.refreshRuleMetadata();
  // Give the SpMM families register-tiled picks, as the kernel search
  // would (searchOptimalKernels is too slow for a unit test).
  Model.Kernels.BestSpmmKernel.fill(1);
  const Smat<double> Tuner(Model);

  std::vector<std::pair<std::string, CsrMatrix<double>>> Mats;
  Mats.emplace_back("fem_blocks", blockFem(40, 6, 2.0, 51));
  Mats.emplace_back("banded", banded(300, 3));
  Mats.emplace_back("skewed_hubs", spikedRows(400, 2, 150, 0.02, 52));
  Mats.emplace_back("empty", CsrMatrix<double>(12, 9));

  for (const auto &[Name, A] : Mats) {
    SCOPED_TRACE(Name);
    for (index_t Width : {index_t(2), index_t(8)}) {
      TuneOptions Opts;
      Opts.MeasureMinSeconds = 1e-4;
      Opts.BatchWidth = Width;
      TunedSpmv<double> Op = SMAT_dCSR_SpMM(Tuner, A, Width, Opts);
      SCOPED_TRACE("tuned at width " + std::to_string(Width) + ", format " +
                   std::string(formatName(Op.format())) + ", spmm kernel " +
                   Op.spmmKernelName());
      expectBatchedMatchesApply(Op.formatOperator(), 900 + Width);
    }
  }
}

// Transpose is an involution and preserves nnz.
TEST_P(MatrixProperties, TransposeInvolution) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  CsrMatrix<double> At = transposeCsr(A);
  EXPECT_EQ(At.nnz(), A.nnz());
  EXPECT_EQ(toDense(transposeCsr(At)), toDense(A));
}

// MatrixMarket serialization round-trips bit-exactly (17 significant digits).
TEST_P(MatrixProperties, MatrixMarketRoundTrip) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  auto Result = readMatrixMarketString(writeMatrixMarketString(A));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(toDense(Result.Matrix), toDense(A));
}

// Feature invariants hold for arbitrary structure.
TEST_P(MatrixProperties, FeatureInvariants) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  FeatureVector F = extractAllFeatures(A);
  EXPECT_DOUBLE_EQ(F.Nnz, static_cast<double>(A.nnz()));
  EXPECT_LE(F.AverRd, F.MaxRd + 1e-12);
  EXPECT_GE(F.VarRd, 0.0);
  EXPECT_GE(F.NTdiagsRatio, 0.0);
  EXPECT_LE(F.NTdiagsRatio, 1.0);
  if (A.nnz() > 0) {
    EXPECT_GT(F.ErDia, 0.0);
    EXPECT_GT(F.ErEll, 0.0);
  }
  // ER_DIA definition holds exactly.
  if (F.Ndiags > 0)
    EXPECT_NEAR(F.ErDia, F.Nnz / (F.Ndiags * F.M), 1e-12);
  if (F.MaxRd > 0)
    EXPECT_NEAR(F.ErEll, F.Nnz / (F.MaxRd * F.M), 1e-12);
}

// SpGEMM with the identity is neutral; associativity on small triples.
TEST_P(MatrixProperties, SpgemmAssociativity) {
  std::uint64_t Seed = GetParam();
  Rng Rng(Seed + 17);
  index_t N = static_cast<index_t>(Rng.range(5, 40));
  CsrMatrix<double> A = randomCsr(N, N, 0.2, Seed + 1);
  CsrMatrix<double> B = randomCsr(N, N, 0.2, Seed + 2);
  CsrMatrix<double> C = randomCsr(N, N, 0.2, Seed + 3);
  auto Left = toDense(spgemm(spgemm(A, B), C));
  auto Right = toDense(spgemm(A, spgemm(B, C)));
  ASSERT_EQ(Left.size(), Right.size());
  for (std::size_t I = 0; I != Left.size(); ++I)
    EXPECT_NEAR(Left[I], Right[I], 1e-9);
}

// The scoreboard always returns a valid index, and the winner's measured
// performance is never dominated by an identically-flagged rival.
TEST_P(MatrixProperties, ScoreboardPicksValidKernel) {
  CsrMatrix<double> A = seededMatrix(GetParam());
  if (A.nnz() == 0)
    GTEST_SKIP() << "degenerate empty matrix";
  auto Table = measureKernelPlans(A, FormatKind::CSR, 1, 5e-5);
  ScoreboardResult R = runScoreboard(Table);
  ASSERT_GE(R.BestIndex, 0);
  ASSERT_LT(static_cast<std::size_t>(R.BestIndex), Table.size());
  int BestScore = R.KernelScores[static_cast<std::size_t>(R.BestIndex)];
  for (int Score : R.KernelScores)
    EXPECT_LE(Score, BestScore);
}

// Under a skewed measurement table — the sliced ELL kernel, which sweeps
// each chunk only to its own longest row, clearly ahead of its
// one-less-strategy partner, as measured on a matrix with a few long hub
// rows — the scoreboard must prefer a loadbalance-flagged kernel. The table
// is synthetic and deterministic so the selection property holds on any
// runner.
TEST(ScoreboardSkewTest, SkewedTablePrefersLoadBalancedKernel) {
  std::vector<KernelMeasurement> Table = {
      {"ell_basic", OptNone, 1.00},
      {"ell_simd", OptSimd, 0.90},
      {"ell_unroll2", OptUnroll, 1.15},
      // The padded width drags every other kernel through the hub rows'
      // padding columns.
      {"ell_sliced", OptLoadBalance, 3.10},
  };
  ScoreboardResult R = runScoreboard(Table);
  const auto LoadBalanceBit =
      static_cast<std::size_t>(std::countr_zero(unsigned(OptLoadBalance)));
  EXPECT_GT(R.StrategyScores[LoadBalanceBit], 0); // Voted helpful.
  ASSERT_GE(R.BestIndex, 0);
  EXPECT_TRUE(Table[static_cast<std::size_t>(R.BestIndex)].Flags &
              OptLoadBalance)
      << "scoreboard picked " << Table[static_cast<std::size_t>(R.BestIndex)].Name;
}

// The skew pass through the real measurement path: on a heavily skewed
// matrix every CSR kernel's plan, the skew pass's candidates, runs and
// records a finite rate at its own index, and so does the sliced ELL
// kernel's plan on a milder skew that ELL's fill guard admits.
TEST(ScoreboardSkewTest, SkewProbeMeasurementsAreFiniteAndAligned) {
  CsrMatrix<double> A = spikedRows(3000, 2, 900, 0.01, 31);
  auto Table = measureKernelPlans(A, FormatKind::CSR, 1, 5e-5);
  ASSERT_EQ(Table.size(), kernelTable<double>().Csr.size());
  for (std::size_t I = 0; I != Table.size(); ++I) {
    EXPECT_EQ(Table[I].Name, kernelTable<double>().Csr[I].Name);
    EXPECT_TRUE(std::isfinite(Table[I].Gflops));
    EXPECT_GT(Table[I].Gflops, 0.0) << Table[I].Name << " failed to run";
  }

  auto EllTable = measureKernelPlans(spikedRows(3000, 2, 30, 0.01, 31),
                                     FormatKind::ELL, 1, 5e-5);
  ASSERT_EQ(EllTable.size(), kernelTable<double>().Ell.size());
  bool SawLoadBalance = false;
  for (std::size_t I = 0; I != EllTable.size(); ++I) {
    EXPECT_EQ(EllTable[I].Name, kernelTable<double>().Ell[I].Name);
    if (EllTable[I].Flags & OptLoadBalance) {
      SawLoadBalance = true;
      EXPECT_GT(EllTable[I].Gflops, 0.0) << "sliced ELL kernel failed to run";
    }
  }
  EXPECT_TRUE(SawLoadBalance);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, MatrixProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Parser robustness: mutated inputs must fail cleanly, never crash. ------

namespace {

std::string mutate(const std::string &Text, Rng &Rng, int Edits) {
  std::string Out = Text;
  for (int E = 0; E < Edits && !Out.empty(); ++E) {
    std::size_t Pos = Rng.bounded(Out.size());
    switch (Rng.bounded(3)) {
    case 0: // Flip a byte.
      Out[Pos] = static_cast<char>(Rng.bounded(256));
      break;
    case 1: // Delete a byte.
      Out.erase(Pos, 1);
      break;
    default: // Truncate.
      Out.resize(Pos);
      break;
    }
  }
  return Out;
}

} // namespace

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MatrixMarketNeverCrashes) {
  Rng Rng(GetParam() * 131 + 7);
  std::string Valid = writeMatrixMarketString(randomCsr(12, 9, 0.3, 1));
  for (int Round = 0; Round < 50; ++Round) {
    std::string Broken = mutate(Valid, Rng, 1 + static_cast<int>(Rng.bounded(8)));
    MatrixMarketResult Result = readMatrixMarketString(Broken);
    if (Result.Ok) // Some mutations stay valid; the matrix must be sane.
      EXPECT_TRUE(Result.Matrix.isValid());
    else
      EXPECT_FALSE(Result.Error.empty());
  }
}

TEST_P(ParserFuzz, RulesetParserNeverCrashes) {
  Rng Rng(GetParam() * 173 + 11);
  RuleSet Set;
  Rule R;
  R.Format = FormatKind::DIA;
  R.Conditions.push_back({FeatNdiags, true, 40.0});
  R.Confidence = 0.9;
  R.Covered = 10;
  R.Correct = 9;
  Set.Rules.push_back(R);
  std::string Valid = serializeRuleSet(Set);
  for (int Round = 0; Round < 50; ++Round) {
    std::string Broken = mutate(Valid, Rng, 1 + static_cast<int>(Rng.bounded(6)));
    RuleSet Parsed;
    std::string Error;
    (void)parseRuleSet(Broken, Parsed, Error); // Must not crash or hang.
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzSeeds, ParserFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));
