//===- tests/amg_test.cpp - AMG substrate tests ---------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/AmgSolver.h"
#include "amg/Coarsen.h"
#include "amg/Hierarchy.h"
#include "amg/Interp.h"
#include "amg/Relax.h"
#include "amg/SpGemm.h"
#include "amg/Strength.h"
#include "matrix/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace smat;
using namespace smat::test;

namespace {

/// Dense reference product for SpGEMM checks.
std::vector<double> denseMatMul(const CsrMatrix<double> &A,
                                const CsrMatrix<double> &B) {
  auto Da = toDense(A);
  auto Db = toDense(B);
  std::vector<double> C(static_cast<std::size_t>(A.NumRows) *
                            static_cast<std::size_t>(B.NumCols),
                        0.0);
  for (index_t I = 0; I < A.NumRows; ++I)
    for (index_t K = 0; K < A.NumCols; ++K) {
      double Av = Da[static_cast<std::size_t>(I) * A.NumCols + K];
      if (Av == 0.0)
        continue;
      for (index_t J = 0; J < B.NumCols; ++J)
        C[static_cast<std::size_t>(I) * B.NumCols + J] +=
            Av * Db[static_cast<std::size_t>(K) * B.NumCols + J];
    }
  return C;
}

} // namespace

// --- SpGEMM -----------------------------------------------------------------

TEST(SpGemmTest, MatchesDenseProduct) {
  CsrMatrix<double> A = randomCsr(20, 30, 0.2, 1);
  CsrMatrix<double> B = randomCsr(30, 15, 0.2, 2);
  CsrMatrix<double> C = spgemm(A, B);
  ASSERT_TRUE(C.isValid());
  EXPECT_TRUE(C.hasSortedRows());
  auto Expected = denseMatMul(A, B);
  auto Actual = toDense(C);
  ASSERT_EQ(Expected.size(), Actual.size());
  for (std::size_t I = 0; I != Expected.size(); ++I)
    EXPECT_NEAR(Expected[I], Actual[I], 1e-12);
}

TEST(SpGemmTest, IdentityIsNeutral) {
  CsrMatrix<double> A = randomCsr(25, 25, 0.15, 3);
  CsrMatrix<double> I = multiDiagonal(25, {0});
  // multiDiagonal writes 2*len on the diagonal; normalize to 1.
  for (double &V : I.Values)
    V = 1.0;
  EXPECT_EQ(toDense(spgemm(A, I)), toDense(A));
  EXPECT_EQ(toDense(spgemm(I, A)), toDense(A));
}

TEST(SpGemmTest, GalerkinTripleProduct) {
  CsrMatrix<double> A = laplace2d5pt(6, 6);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, CoarsenKind::RugeL);
  CsrMatrix<double> P = directInterpolation(A, S, Split);
  CsrMatrix<double> R = transposeCsr(P);
  CsrMatrix<double> Coarse = galerkinProduct(R, A, P);
  EXPECT_EQ(Coarse.NumRows, P.NumCols);
  EXPECT_EQ(Coarse.NumCols, P.NumCols);
  // Galerkin operator of a symmetric A stays symmetric.
  EXPECT_EQ(toDense(Coarse), toDense(transposeCsr(Coarse)));
}

TEST(SpGemmTest, DropSmallEntriesKeepsDiagonal) {
  CsrMatrix<double> A =
      csrFromTriplets<double>(2, 2, {0, 0, 1}, {0, 1, 1}, {1e-12, 5.0, 1e-12});
  CsrMatrix<double> B = dropSmallEntries(A, 1e-8);
  EXPECT_DOUBLE_EQ(B.at(0, 0), 1e-12) << "diagonal is never dropped";
  EXPECT_DOUBLE_EQ(B.at(0, 1), 5.0);
  EXPECT_EQ(B.nnz(), 3) << "only the (1,1) diagonal and kept entries remain";
}

// --- Strength ----------------------------------------------------------------

TEST(StrengthTest, LaplacianAllNeighborsStrong) {
  CsrMatrix<double> A = laplace2d5pt(5, 5);
  CsrMatrix<double> S = strengthGraph(A, 0.25);
  // All off-diagonal entries are -1 = the row max: all strong.
  EXPECT_EQ(S.nnz(), A.nnz() - A.NumRows);
}

TEST(StrengthTest, WeakEntriesFiltered) {
  auto A = csrFromTriplets<double>(2, 2, {0, 0, 1, 1}, {0, 1, 0, 1},
                                   {4.0, -0.01, -2.0, 4.0});
  CsrMatrix<double> S = strengthGraph(A, 0.25);
  EXPECT_EQ(S.rowDegree(0), 1) << "the only off-diag entry is the row max";
  EXPECT_EQ(S.rowDegree(1), 1);
}

TEST(StrengthTest, DiagonalNeverStrong) {
  CsrMatrix<double> A = laplace2d5pt(4, 4);
  CsrMatrix<double> S = strengthGraph(A);
  for (index_t Row = 0; Row < S.NumRows; ++Row)
    for (index_t I = S.RowPtr[Row]; I < S.RowPtr[Row + 1]; ++I)
      EXPECT_NE(S.ColIdx[I], Row);
}

// --- Coarsening ----------------------------------------------------------------

class CoarsenParam : public ::testing::TestWithParam<CoarsenKind> {};

TEST_P(CoarsenParam, SplitsLaplacianSensibly) {
  CsrMatrix<double> A = laplace2d5pt(20, 20);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, GetParam());
  index_t NumCoarse = countCoarse(Split);
  // A reasonable 2D coarsening keeps between ~1/5 and ~2/3 of the points.
  EXPECT_GT(NumCoarse, A.NumRows / 8);
  EXPECT_LT(NumCoarse, 3 * A.NumRows / 4);
}

TEST_P(CoarsenParam, EveryConnectedFPointHasCoarseDonor) {
  CsrMatrix<double> A = laplace3d7pt(8, 8, 8);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, GetParam());
  for (index_t I = 0; I < S.NumRows; ++I) {
    if (Split[static_cast<std::size_t>(I)] == CfPoint::C ||
        S.rowDegree(I) == 0)
      continue;
    bool HasDonor = false;
    for (index_t J = S.RowPtr[I]; J < S.RowPtr[I + 1]; ++J)
      HasDonor |= Split[static_cast<std::size_t>(S.ColIdx[J])] == CfPoint::C;
    EXPECT_TRUE(HasDonor) << "F point " << I << " has no strong C neighbor";
  }
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, CoarsenParam,
                         ::testing::Values(CoarsenKind::RugeL,
                                           CoarsenKind::Cljp),
                         [](const auto &Info) {
                           return Info.param == CoarsenKind::RugeL ? "rugeL"
                                                                   : "cljp";
                         });

TEST(CoarsenTest, CljpNoAdjacentCoarsePairsDominates) {
  // PMIS-style: C points form (approximately) an independent set; verify no
  // two strongly-coupled C points exist for a 1D chain.
  CsrMatrix<double> A = tridiagonal(100);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, CoarsenKind::Cljp);
  int AdjacentPairs = 0;
  for (index_t I = 0; I + 1 < 100; ++I)
    if (Split[static_cast<std::size_t>(I)] == CfPoint::C &&
        Split[static_cast<std::size_t>(I + 1)] == CfPoint::C)
      ++AdjacentPairs;
  // enforceInterpolationCover may promote a handful, but the bulk must be
  // independent.
  EXPECT_LT(AdjacentPairs, 10);
}

// --- Interpolation ---------------------------------------------------------------

TEST(InterpTest, CPointsInject) {
  CsrMatrix<double> A = laplace2d5pt(8, 8);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, CoarsenKind::RugeL);
  CsrMatrix<double> P = directInterpolation(A, S, Split);
  for (index_t I = 0; I < A.NumRows; ++I) {
    if (Split[static_cast<std::size_t>(I)] != CfPoint::C)
      continue;
    ASSERT_EQ(P.rowDegree(I), 1);
    EXPECT_DOUBLE_EQ(P.Values[P.RowPtr[I]], 1.0);
  }
}

TEST(InterpTest, RowSumsPreserveConstants) {
  // For a zero-row-sum M-matrix (pure Neumann-like interior rows), direct
  // interpolation weights sum to 1 on F rows whose A-row sums to 0.
  CsrMatrix<double> A = laplace2d5pt(10, 10);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, CoarsenKind::RugeL);
  CsrMatrix<double> P = directInterpolation(A, S, Split);
  for (index_t I = 0; I < A.NumRows; ++I) {
    if (Split[static_cast<std::size_t>(I)] == CfPoint::C)
      continue;
    double ARowSum = 0;
    for (index_t J = A.RowPtr[I]; J < A.RowPtr[I + 1]; ++J)
      ARowSum += A.Values[J];
    if (std::abs(ARowSum) > 1e-12)
      continue; // Boundary rows don't preserve constants exactly.
    double PRowSum = 0;
    for (index_t J = P.RowPtr[I]; J < P.RowPtr[I + 1]; ++J)
      PRowSum += P.Values[J];
    EXPECT_NEAR(PRowSum, 1.0, 1e-10);
  }
}

TEST(InterpTest, ShapeMatchesCoarseCount) {
  CsrMatrix<double> A = laplace3d7pt(6, 6, 6);
  CsrMatrix<double> S = strengthGraph(A);
  auto Split = coarsen(S, CoarsenKind::Cljp);
  CsrMatrix<double> P = directInterpolation(A, S, Split);
  EXPECT_EQ(P.NumRows, A.NumRows);
  EXPECT_EQ(P.NumCols, countCoarse(Split));
  EXPECT_TRUE(P.isValid());
}

// --- Relaxation ------------------------------------------------------------------

TEST(RelaxTest, JacobiReducesResidual) {
  CsrMatrix<double> A = laplace2d5pt(10, 10);
  auto Diag = extractDiagonal(A);
  std::vector<double> InvDiag(Diag.size());
  for (std::size_t I = 0; I != Diag.size(); ++I)
    InvDiag[I] = 1.0 / Diag[I];
  SpmvFn Apply = [&A](const double *X, double *Y) {
    kernelTable<double>().Csr.front().Fn(A, X, Y);
  };
  std::size_t N = static_cast<std::size_t>(A.NumRows);
  std::vector<double> B(N, 1.0), X(N, 0.0), Scratch(N), R(N);

  residual(Apply, B.data(), X.data(), R.data(), A.NumRows);
  double R0 = 0;
  for (double V : R)
    R0 += V * V;
  for (int Sweep = 0; Sweep < 20; ++Sweep)
    jacobiSweep(Apply, InvDiag, B.data(), X.data(), Scratch.data(), A.NumRows,
                2.0 / 3.0);
  residual(Apply, B.data(), X.data(), R.data(), A.NumRows);
  double R1 = 0;
  for (double V : R)
    R1 += V * V;
  EXPECT_LT(R1, R0 * 0.5);
}

TEST(RelaxTest, GaussSeidelReducesResidual) {
  CsrMatrix<double> A = laplace2d5pt(10, 10);
  std::size_t N = static_cast<std::size_t>(A.NumRows);
  std::vector<double> B(N, 1.0), X(N, 0.0), R(N);
  SpmvFn Apply = [&A](const double *Xv, double *Yv) {
    kernelTable<double>().Csr.front().Fn(A, Xv, Yv);
  };
  residual(Apply, B.data(), X.data(), R.data(), A.NumRows);
  double R0 = 0;
  for (double V : R)
    R0 += V * V;
  for (int Sweep = 0; Sweep < 10; ++Sweep)
    gaussSeidelSweep(A, B.data(), X.data());
  residual(Apply, B.data(), X.data(), R.data(), A.NumRows);
  double R1 = 0;
  for (double V : R)
    R1 += V * V;
  EXPECT_LT(R1, 0.5 * R0)
      << "ten GS sweeps should cut the residual energy substantially";
}

TEST(RelaxTest, DenseLuSolvesExactly) {
  // Random pattern plus a dominant diagonal so the system is comfortably
  // non-singular.
  CsrMatrix<double> Base = randomCsr(30, 30, 0.4, 7);
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t I = 0; I < 30; ++I)
    for (index_t J = Base.RowPtr[I]; J < Base.RowPtr[I + 1]; ++J) {
      R.push_back(I);
      C.push_back(Base.ColIdx[J]);
      V.push_back(Base.Values[J]);
    }
  for (index_t I = 0; I < 30; ++I) {
    R.push_back(I);
    C.push_back(I);
    V.push_back(50.0);
  }
  CsrMatrix<double> A =
      csrFromTriplets<double>(30, 30, std::move(R), std::move(C), std::move(V));
  DenseLu Lu;
  Lu.factor(A);
  auto XTrue = randomVector<double>(30, 9);
  std::vector<double> B = denseSpmv(A, XTrue);
  Lu.solve(B.data());
  expectVectorsNear(XTrue, B, 1e-8);
}

// --- Hierarchy ---------------------------------------------------------------------

TEST(HierarchyTest, LevelsShrink) {
  AmgHierarchy H;
  HierarchyOptions Opts;
  H.build(laplace2d5pt(40, 40), Opts);
  ASSERT_GE(H.numLevels(), 3u);
  for (std::size_t L = 1; L < H.numLevels(); ++L)
    EXPECT_LT(H.level(L).A.NumRows, H.level(L - 1).A.NumRows);
  EXPECT_LE(H.level(H.numLevels() - 1).A.NumRows, 400);
}

TEST(HierarchyTest, TransferShapesConsistent) {
  AmgHierarchy H;
  H.build(laplace3d7pt(10, 10, 10), HierarchyOptions());
  for (std::size_t L = 0; L + 1 < H.numLevels(); ++L) {
    const AmgLevel &Level = H.level(L);
    EXPECT_EQ(Level.P.NumRows, Level.A.NumRows);
    EXPECT_EQ(Level.P.NumCols, H.level(L + 1).A.NumRows);
    EXPECT_EQ(Level.R.NumRows, H.level(L + 1).A.NumRows);
    EXPECT_EQ(Level.R.NumCols, Level.A.NumRows);
  }
}

TEST(HierarchyTest, OperatorComplexityBounded) {
  AmgHierarchy H;
  H.build(laplace2d9pt(50, 50), HierarchyOptions());
  EXPECT_GT(H.operatorComplexity(), 1.0);
  EXPECT_LT(H.operatorComplexity(), 5.0);
}

// --- Full solver -----------------------------------------------------------------

TEST(AmgSolverTest, SolvesPoisson2D) {
  CsrMatrix<double> A = laplace2d5pt(30, 30);
  AmgSolver Solver;
  AmgOptions Opts;
  Opts.RelTol = 1e-8;
  Solver.setup(A, Opts);

  auto XTrue = randomVector<double>(static_cast<std::size_t>(A.NumRows), 17);
  std::vector<double> B = denseSpmv(A, XTrue);
  std::vector<double> X;
  SolveStats Stats = Solver.solve(B, X);
  ASSERT_TRUE(Stats.Converged)
      << "residual " << Stats.RelResidual << " after " << Stats.Iterations;
  EXPECT_LE(Stats.Iterations, 60);
  expectVectorsNear(XTrue, X, 1e-5);
}

TEST(AmgSolverTest, SolvesPoisson3DWithCljp) {
  CsrMatrix<double> A = laplace3d7pt(10, 10, 10);
  AmgSolver Solver;
  AmgOptions Opts;
  Opts.Hierarchy.Coarsening = CoarsenKind::Cljp;
  Solver.setup(A, Opts);
  auto XTrue = randomVector<double>(static_cast<std::size_t>(A.NumRows), 19);
  std::vector<double> B = denseSpmv(A, XTrue);
  std::vector<double> X;
  SolveStats Stats = Solver.solve(B, X);
  ASSERT_TRUE(Stats.Converged);
  expectVectorsNear(XTrue, X, 1e-5);
}

TEST(AmgSolverTest, PcgConvergesFasterThanStationary) {
  CsrMatrix<double> A = laplace2d9pt(40, 40);
  AmgSolver Solver;
  Solver.setup(A, AmgOptions());
  auto XTrue = randomVector<double>(static_cast<std::size_t>(A.NumRows), 23);
  std::vector<double> B = denseSpmv(A, XTrue);

  std::vector<double> X1, X2;
  SolveStats Stationary = Solver.solve(B, X1);
  SolveStats Pcg = Solver.solvePcg(B, X2);
  ASSERT_TRUE(Stationary.Converged);
  ASSERT_TRUE(Pcg.Converged);
  EXPECT_LE(Pcg.Iterations, Stationary.Iterations);
  expectVectorsNear(XTrue, X2, 1e-5);
}

TEST(AmgSolverTest, SingleLevelFallsBackToDirectSolve) {
  // MaxLevels = 1: the "hierarchy" is just the fine grid; the V-cycle is a
  // dense LU solve, so one iteration converges.
  CsrMatrix<double> A = laplace2d5pt(10, 10); // 100 rows <= DenseCoarseLimit.
  AmgOptions Opts;
  Opts.Hierarchy.MaxLevels = 1;
  AmgSolver Solver;
  Solver.setup(A, Opts);
  EXPECT_EQ(Solver.hierarchy().numLevels(), 1u);

  auto XTrue = randomVector<double>(100, 29);
  std::vector<double> B = denseSpmv(A, XTrue);
  std::vector<double> X;
  SolveStats Stats = Solver.solve(B, X);
  ASSERT_TRUE(Stats.Converged);
  EXPECT_EQ(Stats.Iterations, 1);
  expectVectorsNear(XTrue, X, 1e-8);
}

TEST(AmgSolverTest, NonzeroInitialGuessIsRefined) {
  CsrMatrix<double> A = laplace2d5pt(20, 20);
  AmgSolver Solver;
  Solver.setup(A, AmgOptions());
  auto XTrue = randomVector<double>(static_cast<std::size_t>(A.NumRows), 31);
  std::vector<double> B = denseSpmv(A, XTrue);

  // Start one V-cycle away from the solution: must converge in very few
  // iterations (solve() honors the initial guess).
  std::vector<double> X = XTrue;
  for (double &V : X)
    V += 1e-6;
  SolveStats Stats = Solver.solve(B, X);
  ASSERT_TRUE(Stats.Converged);
  EXPECT_LE(Stats.Iterations, 3);
}

TEST(AmgSolverTest, ZeroRhsConvergesImmediately) {
  CsrMatrix<double> A = laplace2d5pt(15, 15);
  AmgSolver Solver;
  Solver.setup(A, AmgOptions());
  std::vector<double> B(static_cast<std::size_t>(A.NumRows), 0.0);
  std::vector<double> X;
  SolveStats Stats = Solver.solve(B, X);
  EXPECT_TRUE(Stats.Converged);
  for (double V : X)
    EXPECT_NEAR(V, 0.0, 1e-10);
}

TEST(AmgSolverTest, AnisotropicProblemStillConverges) {
  // Strong x-direction coupling: a classic AMG stress test for strength
  // thresholds and semicoarsening behaviour.
  index_t Nx = 30, Ny = 30;
  std::vector<index_t> R, C;
  std::vector<double> V;
  double Eps = 0.01; // Weak y-coupling.
  for (index_t Y = 0; Y < Ny; ++Y)
    for (index_t X = 0; X < Nx; ++X) {
      index_t Row = Y * Nx + X;
      R.push_back(Row);
      C.push_back(Row);
      V.push_back(2.0 + 2.0 * Eps);
      if (X > 0) {
        R.push_back(Row);
        C.push_back(Row - 1);
        V.push_back(-1.0);
      }
      if (X + 1 < Nx) {
        R.push_back(Row);
        C.push_back(Row + 1);
        V.push_back(-1.0);
      }
      if (Y > 0) {
        R.push_back(Row);
        C.push_back(Row - Nx);
        V.push_back(-Eps);
      }
      if (Y + 1 < Ny) {
        R.push_back(Row);
        C.push_back(Row + Nx);
        V.push_back(-Eps);
      }
    }
  CsrMatrix<double> A = csrFromTriplets<double>(Nx * Ny, Nx * Ny,
                                                std::move(R), std::move(C),
                                                std::move(V));
  AmgSolver Solver;
  AmgOptions Opts;
  Opts.MaxIterations = 200;
  Solver.setup(A, Opts);
  auto XTrue = randomVector<double>(static_cast<std::size_t>(A.NumRows), 37);
  std::vector<double> B = denseSpmv(A, XTrue);
  std::vector<double> X;
  SolveStats Stats = Solver.solvePcg(B, X);
  ASSERT_TRUE(Stats.Converged) << "res " << Stats.RelResidual;
  expectVectorsNear(XTrue, X, 1e-4);
}

TEST(HierarchyTest, GalerkinDropToleranceSparsifies) {
  HierarchyOptions Plain;
  AmgHierarchy Dense;
  Dense.build(laplace2d9pt(30, 30), Plain);

  HierarchyOptions Dropping = Plain;
  Dropping.GalerkinDropTol = 1e-3;
  AmgHierarchy Sparser;
  Sparser.build(laplace2d9pt(30, 30), Dropping);

  ASSERT_GE(Dense.numLevels(), 2u);
  ASSERT_GE(Sparser.numLevels(), 2u);
  EXPECT_LE(Sparser.level(1).A.nnz(), Dense.level(1).A.nnz());
}

TEST(AmgSolverTest, SmatBackendSlicedFineLevelKeepsIterationCount) {
  // The fine operator (860k nonzeros) binds DIA as row slices; a setup on a
  // one-thread team, as the serial service worker binds, gives the same
  // slices, and the PCG solve takes as many iterations with either.
  LearningModel Model;
  Model.Rules.DefaultFormat = FormatKind::DIA;
  Model.Rules.DefaultConfidence = 1.0;
  Model.refreshRuleMetadata();
  const Smat<double> Tuner(Model);
  CsrMatrix<double> A = laplace3d7pt(50, 50, 50);
  ASSERT_GE(A.nnz(), ParallelConvertGrain);
  AmgOptions Opts;
  Opts.Hierarchy.Coarsening = CoarsenKind::Cljp;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = &Tuner;
  Opts.Tune.AllowMeasure = false; // The model's answer, no timing override.
  auto B = randomVector<double>(static_cast<std::size_t>(A.NumRows), 29);

  auto SetupAndSolve = [&] {
    AmgSolver Solver;
    Solver.setup(A, Opts);
    EXPECT_EQ(Solver.formatDecisions().front().Format, FormatKind::DIA);
    std::vector<double> X;
    return Solver.solvePcg(B, X);
  };
  SolveStats Sliced = SetupAndSolve();
  SolveStats One;
  {
    OmpThreadsScope Serial(1);
    One = SetupAndSolve();
  }
  ASSERT_TRUE(Sliced.Converged);
  ASSERT_TRUE(One.Converged);
  EXPECT_EQ(Sliced.Iterations, One.Iterations);
}

TEST(AmgSolverTest, FormatDecisionsRecorded) {
  CsrMatrix<double> A = laplace2d5pt(25, 25);
  AmgSolver Solver;
  Solver.setup(A, AmgOptions());
  const auto &Decisions = Solver.formatDecisions();
  // A per level plus P and R per non-coarsest level.
  EXPECT_EQ(Decisions.size(), 3 * Solver.hierarchy().numLevels() - 2);
  for (const LevelFormatInfo &D : Decisions)
    EXPECT_EQ(D.Format, FormatKind::CSR) << "FixedCsr backend is all CSR";
}
