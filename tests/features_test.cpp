//===- tests/features_test.cpp - Table-2 feature extraction tests ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "features/FeatureExtractor.h"
#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <map>
#include <set>
#include <thread>
#include <utility>

using namespace smat;
using namespace smat::test;

TEST(FeatureTest, IdentityMatrix) {
  CsrMatrix<double> A = multiDiagonal(100, {0});
  FeatureVector F = extractAllFeatures(A);
  EXPECT_DOUBLE_EQ(F.M, 100);
  EXPECT_DOUBLE_EQ(F.N, 100);
  EXPECT_DOUBLE_EQ(F.Nnz, 100);
  EXPECT_DOUBLE_EQ(F.Ndiags, 1);
  EXPECT_DOUBLE_EQ(F.NTdiagsRatio, 1.0);
  EXPECT_DOUBLE_EQ(F.AverRd, 1.0);
  EXPECT_DOUBLE_EQ(F.MaxRd, 1.0);
  EXPECT_DOUBLE_EQ(F.VarRd, 0.0);
  EXPECT_DOUBLE_EQ(F.ErDia, 1.0);
  EXPECT_DOUBLE_EQ(F.ErEll, 1.0);
  EXPECT_GE(F.R, FeatureInf) << "regular degrees: no power law";
}

TEST(FeatureTest, TridiagonalValues) {
  CsrMatrix<double> A = tridiagonal(1000);
  FeatureVector F = extractStructureFeatures(A);
  EXPECT_DOUBLE_EQ(F.Ndiags, 3);
  EXPECT_DOUBLE_EQ(F.NTdiagsRatio, 1.0);
  EXPECT_DOUBLE_EQ(F.MaxRd, 3);
  EXPECT_NEAR(F.AverRd, 2998.0 / 1000.0, 1e-12);
  // ER_DIA = NNZ / (Ndiags * M) = 2998 / 3000.
  EXPECT_NEAR(F.ErDia, 2998.0 / 3000.0, 1e-12);
  EXPECT_NEAR(F.ErEll, 2998.0 / 3000.0, 1e-12);
}

TEST(FeatureTest, PaperT2dQ9StyleRecord) {
  // The paper's example record for t2d_q9: a 9-diagonal stencil matrix has
  // {Ndiags=9, NTdiags_ratio=1.0, ER_DIA~0.99, ER_ELL~0.99, R=inf}.
  CsrMatrix<double> A = laplace2d9pt(99, 99);
  FeatureVector F = extractAllFeatures(A);
  EXPECT_DOUBLE_EQ(F.M, 9801);
  EXPECT_DOUBLE_EQ(F.Ndiags, 9);
  EXPECT_DOUBLE_EQ(F.NTdiagsRatio, 1.0);
  EXPECT_DOUBLE_EQ(F.MaxRd, 9);
  EXPECT_GT(F.ErDia, 0.95);
  EXPECT_GT(F.ErEll, 0.95);
  EXPECT_GE(F.R, FeatureInf);
}

TEST(FeatureTest, DenseRowRaisesMaxAndVariance) {
  // Diagonal plus one dense row.
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t I = 0; I < 64; ++I) {
    R.push_back(I);
    C.push_back(I);
    V.push_back(1.0);
  }
  for (index_t J = 0; J < 64; ++J)
    if (J != 10) {
      R.push_back(10);
      C.push_back(J);
      V.push_back(1.0);
    }
  auto A = csrFromTriplets<double>(64, 64, std::move(R), std::move(C),
                                   std::move(V));
  FeatureVector F = extractStructureFeatures(A);
  EXPECT_DOUBLE_EQ(F.MaxRd, 64);
  EXPECT_GT(F.VarRd, 10.0);
  EXPECT_LT(F.ErEll, 0.05) << "one dense row ruins ELL fill efficiency";
}

TEST(FeatureTest, TrueDiagonalRatioDropsWithBrokenDiagonals) {
  CsrMatrix<double> Full = multiDiagonal(2000, {-3, 0, 3});
  CsrMatrix<double> Broken =
      brokenDiagonals(2000, {-3, 0, 3}, /*Occupancy=*/0.3, /*Seed=*/5);
  FeatureVector Ff = extractStructureFeatures(Full);
  FeatureVector Fb = extractStructureFeatures(Broken);
  EXPECT_DOUBLE_EQ(Ff.NTdiagsRatio, 1.0);
  EXPECT_LT(Fb.NTdiagsRatio, 1.0);
  EXPECT_LT(Fb.ErDia, Ff.ErDia);
}

TEST(FeatureTest, PowerLawExponentRecovered) {
  // Degrees drawn from P(k) ~ k^-2.2: the fitted R should land near 2.2
  // and inside the paper's COO-affinity band [1, 4].
  CsrMatrix<double> A = powerLawGraph(20000, 2.2, 1, 256, 7);
  FeatureVector F = extractAllFeatures(A);
  ASSERT_LT(F.R, FeatureInf);
  EXPECT_NEAR(F.R, 2.2, 0.6);
  EXPECT_GE(F.R, 1.0);
  EXPECT_LE(F.R, 4.0);
}

TEST(FeatureTest, PowerLawUndefinedForRegularDegrees) {
  CsrMatrix<double> A = boundedDegreeRandom(2000, 2000, 4, 4, 9);
  FeatureVector F = extractAllFeatures(A);
  EXPECT_GE(F.R, FeatureInf);
}

TEST(FeatureTest, PowerLawUndefinedForUniformRandom) {
  // Erdős–Rényi degrees are Poisson, not scale-free: the log-log fit's R^2
  // gate should reject it (or at minimum not produce a negative exponent).
  CsrMatrix<double> A = erdosRenyi(5000, 5000, 30.0, 11);
  FeatureVector F = extractAllFeatures(A);
  if (F.R < FeatureInf)
    EXPECT_GT(F.R, 0.0);
}

TEST(FeatureTest, EmptyMatrix) {
  CsrMatrix<double> A(0, 0);
  FeatureVector F = extractAllFeatures(A);
  EXPECT_DOUBLE_EQ(F.M, 0);
  EXPECT_DOUBLE_EQ(F.Nnz, 0);
  EXPECT_GE(F.R, FeatureInf);
}

TEST(FeatureTest, AllZeroMatrix) {
  CsrMatrix<double> A(32, 32);
  FeatureVector F = extractAllFeatures(A);
  EXPECT_DOUBLE_EQ(F.Ndiags, 0);
  EXPECT_DOUBLE_EQ(F.ErDia, 0.0);
  EXPECT_DOUBLE_EQ(F.ErEll, 0.0);
  EXPECT_DOUBLE_EQ(F.VarRd, 0.0);
}

TEST(FeatureTest, RectangularMatrix) {
  CsrMatrix<double> A = lpRectangular(200, 40, 5, 13);
  FeatureVector F = extractStructureFeatures(A);
  EXPECT_DOUBLE_EQ(F.M, 200);
  EXPECT_DOUBLE_EQ(F.N, 40);
  EXPECT_DOUBLE_EQ(F.AverRd, 5.0);
  EXPECT_DOUBLE_EQ(F.VarRd, 0.0);
}

TEST(FeatureTest, StepOneLeavesRUntouched) {
  CsrMatrix<double> A = powerLawGraph(3000, 2.0, 1, 64, 15);
  FeatureVector F = extractStructureFeatures(A);
  EXPECT_GE(F.R, FeatureInf) << "step 1 must not compute R";
  extractPowerLawFeature(A, F);
  EXPECT_LT(F.R, FeatureInf) << "step 2 fills it in";
}

TEST(FeatureTest, ErBsrPerfectOnAlignedBlocks) {
  CsrMatrix<double> A = blockFem(25, 4, 0.0, 17);
  FeatureVector F = extractStructureFeatures(A);
  EXPECT_DOUBLE_EQ(F.ErBsr, 1.0) << "aligned dense 4x4 blocks: no padding";
}

TEST(FeatureTest, ErBsrLowOnDiagonal) {
  CsrMatrix<double> A = multiDiagonal(256, {0});
  FeatureVector F = extractStructureFeatures(A);
  EXPECT_NEAR(F.ErBsr, 0.25, 1e-12)
      << "a diagonal hits 4 of each 16-entry block";
}

TEST(FeatureTest, FeatureNamesMatchPaperTable2) {
  EXPECT_STREQ(featureName(FeatM), "M");
  EXPECT_STREQ(featureName(FeatNTdiagsRatio), "NTdiags_ratio");
  EXPECT_STREQ(featureName(FeatErDia), "ER_DIA");
  EXPECT_STREQ(featureName(FeatErEll), "ER_ELL");
  EXPECT_STREQ(featureName(FeatErBsr), "ER_BSR");
  EXPECT_STREQ(featureName(FeatR), "R");
}

TEST(FeatureTest, ValuesPackInDeclaredOrder) {
  CsrMatrix<double> A = tridiagonal(10);
  FeatureVector F = extractStructureFeatures(A);
  auto V = F.values();
  EXPECT_DOUBLE_EQ(V[FeatM], F.M);
  EXPECT_DOUBLE_EQ(V[FeatNdiags], F.Ndiags);
  EXPECT_DOUBLE_EQ(V[FeatVarRd], F.VarRd);
  EXPECT_DOUBLE_EQ(V[FeatR], F.R);
}

TEST(FeatureTest, ToStringMentionsInf) {
  CsrMatrix<double> A = tridiagonal(10);
  FeatureVector F = extractAllFeatures(A);
  EXPECT_NE(F.toString().find("R=inf"), std::string::npos);
}

// Property-style sweep: invariants hold across a family of random matrices.
class FeatureInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeatureInvariants, StructuralInvariants) {
  std::uint64_t Seed = GetParam();
  CsrMatrix<double> A = randomCsr(60, 45, 0.08, Seed);
  FeatureVector F = extractAllFeatures(A);

  EXPECT_DOUBLE_EQ(F.M, 60);
  EXPECT_DOUBLE_EQ(F.N, 45);
  EXPECT_DOUBLE_EQ(F.Nnz, static_cast<double>(A.nnz()));
  EXPECT_LE(F.AverRd, F.MaxRd);
  EXPECT_GE(F.VarRd, 0.0);
  EXPECT_GE(F.NTdiagsRatio, 0.0);
  EXPECT_LE(F.NTdiagsRatio, 1.0);
  if (F.Nnz > 0) {
    EXPECT_GT(F.ErDia, 0.0);
    EXPECT_LE(F.ErDia, 1.0 + 1e-12);
    EXPECT_GT(F.ErEll, 0.0);
    EXPECT_LE(F.ErEll, 1.0 + 1e-12);
    EXPECT_LE(F.Ndiags, F.M + F.N - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- Step 1 on row slices ---------------------------------------------------

namespace {

/// Matrices above the grain, so step 1 runs on several slices, of every
/// shape whose slices reach the diagonals differently.
std::vector<std::pair<std::string, CsrMatrix<double>>> slicedCases() {
  std::vector<std::pair<std::string, CsrMatrix<double>>> Cases;
  Cases.emplace_back("band", banded(20000, 3));
  Cases.emplace_back("power_law", powerLawGraph(30000, 1.9, 1, 1500, 41));
  Cases.emplace_back("wide", boundedDegreeRandom(400, 200000, 80, 120, 42));
  Cases.emplace_back("tall", boundedDegreeRandom(100000, 300, 1, 3, 43));
  Cases.emplace_back("unsorted",
                     reverseRows(boundedDegreeRandom(20000, 20000, 2, 12, 44)));
  return Cases;
}

/// Step 1's integer-derived fields, from a serial loop over the entries.
FeatureVector referenceStepOne(const CsrMatrix<double> &A) {
  std::map<index_t, index_t> Diagonals; // Offset -> entries.
  std::set<std::pair<index_t, index_t>> Blocks;
  index_t MaxRd = 0;
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    MaxRd = std::max(MaxRd, A.RowPtr[Row + 1] - A.RowPtr[Row]);
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
      ++Diagonals[A.ColIdx[I] - Row];
      Blocks.insert({Row / 4, A.ColIdx[I] / 4});
    }
  }
  index_t TrueDiags = 0;
  for (const auto &[Offset, Count] : Diagonals) {
    index_t Length = std::min(A.NumRows, A.NumCols - Offset) -
                     std::max(index_t(0), -Offset);
    if (static_cast<double>(Count) >=
        TrueDiagOccupancy * static_cast<double>(Length))
      ++TrueDiags;
  }
  FeatureVector F;
  F.M = A.NumRows;
  F.N = A.NumCols;
  F.Nnz = static_cast<double>(A.nnz());
  F.Ndiags = static_cast<double>(Diagonals.size());
  F.NTdiagsRatio = static_cast<double>(TrueDiags) / F.Ndiags;
  F.MaxRd = MaxRd;
  F.AverRd = F.Nnz / F.M;
  F.ErDia = F.Nnz / (F.Ndiags * F.M);
  F.ErEll = F.Nnz / (F.MaxRd * F.M);
  F.ErBsr = F.Nnz / (static_cast<double>(Blocks.size()) * 16.0);
  return F;
}

} // namespace

TEST(FeatureTest, StepOneIsTheSameAtEveryTeamSize) {
  // The slices come from the processor count, not the team size, and every
  // reduction adds its slice partials in slice order, so the features keep
  // their bits however many threads run the slices.
  const int Hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const auto &[Name, A] : slicedCases()) {
    SCOPED_TRACE(Name);
    ASSERT_GE(A.nnz(), ParallelConvertGrain);
    FeatureVector One;
    {
      OmpThreadsScope Serial(1);
      One = extractStructureFeatures(A);
    }
    const auto Expected = One.values();
    for (int Threads : {2, 4, 2 * Hw}) {
      OmpThreadsScope Team(Threads);
      const auto Actual = extractStructureFeatures(A).values();
      for (int I = 0; I != NumFeatures; ++I)
        EXPECT_EQ(std::memcmp(&Actual[I], &Expected[I], sizeof(double)), 0)
            << featureName(I) << " at " << Threads
            << " threads: " << std::setprecision(17) << Actual[I] << " vs "
            << Expected[I] << " at 1";
    }
  }
}

TEST(FeatureTest, StepOneMatchesASerialReference) {
  for (const auto &[Name, A] : slicedCases()) {
    SCOPED_TRACE(Name);
    const FeatureVector F = extractStructureFeatures(A);
    const FeatureVector Ref = referenceStepOne(A);
    EXPECT_EQ(F.M, Ref.M);
    EXPECT_EQ(F.N, Ref.N);
    EXPECT_EQ(F.Nnz, Ref.Nnz);
    EXPECT_EQ(F.Ndiags, Ref.Ndiags);
    EXPECT_EQ(F.NTdiagsRatio, Ref.NTdiagsRatio);
    EXPECT_EQ(F.MaxRd, Ref.MaxRd);
    EXPECT_EQ(F.AverRd, Ref.AverRd);
    EXPECT_EQ(F.ErDia, Ref.ErDia);
    EXPECT_EQ(F.ErEll, Ref.ErEll);
    EXPECT_EQ(F.ErBsr, Ref.ErBsr);
  }
}
