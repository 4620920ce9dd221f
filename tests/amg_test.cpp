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
#include <cstring>
#include <queue>
#include <thread>

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

/// spgemm's Gustavson loop as one serial pass over the rows: a dense
/// accumulator and a row-stamped marker, each row's columns sorted, the
/// accumulate written with the library's update expression.
CsrMatrix<double> serialGustavson(const CsrMatrix<double> &A,
                                  const CsrMatrix<double> &B) {
  CsrMatrix<double> C(A.NumRows, B.NumCols);
  std::vector<double> Accumulator(static_cast<std::size_t>(B.NumCols), 0.0);
  std::vector<index_t> Marker(static_cast<std::size_t>(B.NumCols), -1);
  std::vector<index_t> Pattern;
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    Pattern.clear();
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
      for (index_t J = B.RowPtr[A.ColIdx[I]]; J < B.RowPtr[A.ColIdx[I] + 1];
           ++J) {
        const auto Col = static_cast<std::size_t>(B.ColIdx[J]);
        if (Marker[Col] != Row) {
          Marker[Col] = Row;
          Pattern.push_back(B.ColIdx[J]);
          Accumulator[Col] = A.Values[I] * B.Values[J];
        } else {
          Accumulator[Col] =
              spgemmAccumulate(Accumulator[Col], A.Values[I], B.Values[J]);
        }
      }
    std::sort(Pattern.begin(), Pattern.end());
    for (index_t Col : Pattern) {
      C.ColIdx.push_back(Col);
      C.Values.push_back(Accumulator[static_cast<std::size_t>(Col)]);
    }
    C.RowPtr[Row + 1] = static_cast<index_t>(C.ColIdx.size());
  }
  return C;
}

/// \p A with every value scaled by a random factor in [0.75, 1.25): the
/// same signs and strong connections as a stencil, with values whose sums
/// depend on their order.
CsrMatrix<double> perturbed(CsrMatrix<double> A, std::uint64_t Seed) {
  Rng Rng(Seed);
  for (double &V : A.Values)
    V *= Rng.uniform(0.75, 1.25);
  return A;
}

/// \p A with the rows whose index is a multiple of \p Every emptied.
CsrMatrix<double> withEmptyRows(const CsrMatrix<double> &A, index_t Every) {
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    if (Row % Every != 0)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        R.push_back(Row);
        C.push_back(A.ColIdx[I]);
        V.push_back(A.Values[I]);
      }
  return csrFromTriplets<double>(A.NumRows, A.NumCols, std::move(R),
                                 std::move(C), std::move(V));
}

/// A 5-point operator on an Nx x Ny grid coupled strongly along x and with
/// weight \p Eps along y.
CsrMatrix<double> anisotropicLaplacian(index_t Nx, index_t Ny, double Eps) {
  std::vector<index_t> R, C;
  std::vector<double> V;
  auto Add = [&](index_t Row, index_t Col, double Val) {
    R.push_back(Row);
    C.push_back(Col);
    V.push_back(Val);
  };
  for (index_t Y = 0; Y < Ny; ++Y)
    for (index_t X = 0; X < Nx; ++X) {
      index_t Row = Y * Nx + X;
      Add(Row, Row, 2.0 + 2.0 * Eps);
      if (X > 0)
        Add(Row, Row - 1, -1.0);
      if (X + 1 < Nx)
        Add(Row, Row + 1, -1.0);
      if (Y > 0)
        Add(Row, Row - Nx, -Eps);
      if (Y + 1 < Ny)
        Add(Row, Row + Nx, -Eps);
    }
  return csrFromTriplets<double>(Nx * Ny, Nx * Ny, std::move(R), std::move(C),
                                 std::move(V));
}

/// A strength pattern on \p N points: each point not a multiple of
/// \p IsolatedEvery strongly depends on \p Out random others of the same
/// kind (and, when \p Symmetric, they on it); the multiples of
/// \p IsolatedEvery connect to nothing either way (0: none isolated).
CsrMatrix<double> randomStrength(index_t N, index_t Out, bool Symmetric,
                                 index_t IsolatedEvery, std::uint64_t Seed) {
  auto Isolated = [&](index_t P) {
    return IsolatedEvery > 0 && P % IsolatedEvery == 0;
  };
  Rng Rng(Seed);
  std::vector<index_t> R, C;
  for (index_t P = 0; P < N; ++P) {
    if (Isolated(P))
      continue;
    for (index_t K = 0; K < Out; ++K) {
      auto Q = static_cast<index_t>(Rng.uniform() * static_cast<double>(N));
      if (Q == P || Q >= N || Isolated(Q))
        continue;
      R.push_back(P);
      C.push_back(Q);
      if (Symmetric) {
        R.push_back(Q);
        C.push_back(P);
      }
    }
  }
  std::vector<double> V(R.size(), 1.0);
  CsrMatrix<double> S = csrFromTriplets<double>(N, N, std::move(R),
                                                std::move(C), std::move(V));
  // Repeated picks summed; a strength pattern holds ones.
  std::fill(S.Values.begin(), S.Values.end(), 1.0);
  return S;
}

/// Ruge–Stüben coarsening as a lazy std::priority_queue of (measure, point)
/// pairs, stale entries skipped on pop, then the interpolation cover pass:
/// the split coarsen(S, CoarsenKind::RugeL) has to reproduce.
std::vector<CfPoint> lazyQueueRugeL(const CsrMatrix<double> &S) {
  const CsrMatrix<double> St = transposeCsr(S);
  const index_t N = S.NumRows;
  constexpr std::uint8_t Unassigned = 2, F = 0, C = 1;
  std::vector<std::uint8_t> State(static_cast<std::size_t>(N), Unassigned);
  std::vector<double> Measure(static_cast<std::size_t>(N));
  std::priority_queue<std::pair<double, index_t>> Queue;
  for (index_t I = 0; I < N; ++I) {
    Measure[static_cast<std::size_t>(I)] =
        static_cast<double>(St.rowDegree(I));
    Queue.push({Measure[static_cast<std::size_t>(I)], I});
  }
  while (!Queue.empty()) {
    auto [Priority, Point] = Queue.top();
    Queue.pop();
    const auto P = static_cast<std::size_t>(Point);
    if (State[P] != Unassigned || Priority != Measure[P])
      continue;
    if (Priority <= 0.0) {
      State[P] = F;
      continue;
    }
    State[P] = C;
    for (index_t I = St.RowPtr[Point]; I < St.RowPtr[Point + 1]; ++I) {
      const auto D = static_cast<std::size_t>(St.ColIdx[I]);
      if (State[D] != Unassigned)
        continue;
      State[D] = F;
      for (index_t J = S.RowPtr[St.ColIdx[I]]; J < S.RowPtr[St.ColIdx[I] + 1];
           ++J) {
        const auto Infl = static_cast<std::size_t>(S.ColIdx[J]);
        if (State[Infl] != Unassigned)
          continue;
        Measure[Infl] += 1.0;
        Queue.push({Measure[Infl], S.ColIdx[J]});
      }
    }
  }
  std::vector<CfPoint> Split(static_cast<std::size_t>(N));
  for (std::size_t I = 0; I != Split.size(); ++I)
    Split[I] = State[I] == C ? CfPoint::C : CfPoint::F;
  // Every F point with a strong connection keeps a strong C neighbour.
  for (index_t I = 0; I < N; ++I) {
    if (Split[static_cast<std::size_t>(I)] == CfPoint::C ||
        S.rowDegree(I) == 0)
      continue;
    bool HasDonor = false;
    for (index_t J = S.RowPtr[I]; J < S.RowPtr[I + 1] && !HasDonor; ++J)
      HasDonor = Split[static_cast<std::size_t>(S.ColIdx[J])] == CfPoint::C;
    if (!HasDonor)
      Split[static_cast<std::size_t>(I)] = CfPoint::C;
  }
  return Split;
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

TEST(SpGemmTest, SlicedMatchesSerialReference) {
  // Above the grain spgemm runs on row slices of its left operand; each
  // row is written as the serial loop writes it, bit for bit.
  const CsrMatrix<double> Stencil = perturbed(laplace3d7pt(30, 30, 30), 41);
  const CsrMatrix<double> Wide = randomCsr(300, 4000, 0.03, 42);
  const CsrMatrix<double> Narrow = randomCsr(4000, 700, 0.01, 43);
  const CsrMatrix<double> Holes = withEmptyRows(randomCsr(2000, 2000, 0.02, 44), 3);
  const CsrMatrix<double> Unsorted = reverseRows(Stencil);
  struct Case {
    const char *Name;
    const CsrMatrix<double> &A, &B;
  };
  for (const Case &C : {Case{"square", Stencil, Stencil},
                        Case{"rectangular", Wide, Narrow},
                        Case{"empty rows", Holes, Holes},
                        Case{"unsorted rows", Unsorted, Unsorted}}) {
    SCOPED_TRACE(C.Name);
    ASSERT_GE(C.A.nnz(), ParallelConvertGrain);
    CsrMatrix<double> Product = spgemm(C.A, C.B);
    EXPECT_TRUE(Product.isValid());
    EXPECT_TRUE(Product.hasSortedRows());
    expectSameCsr(serialGustavson(C.A, C.B), Product);
  }
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

TEST(CoarsenTest, RugeLMatchesTheLazyQueue) {
  // The indexed heap picks the next point in the order the lazy pair queue
  // popped them (largest measure first, the larger index among equals), so
  // the split is the same; the pattern graphs are full of equal measures.
  struct Case {
    const char *Name;
    CsrMatrix<double> S;
  };
  const Case Cases[] = {
      {"9-point Laplacian", strengthGraph(laplace2d9pt(60, 60))},
      {"anisotropic", strengthGraph(anisotropicLaplacian(50, 40, 0.01))},
      {"random symmetric", randomStrength(3000, 2, true, 0, 45)},
      {"isolated points", randomStrength(3000, 3, false, 4, 46)}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    const std::vector<CfPoint> Split = coarsen(C.S, CoarsenKind::RugeL);
    const std::vector<CfPoint> Expected = lazyQueueRugeL(C.S);
    EXPECT_GT(countCoarse(Expected), 0);
    EXPECT_TRUE(Split == Expected)
        << countCoarse(Split) << " C points against " << countCoarse(Expected);
  }
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
  const std::vector<index_t> Slices = {0, 37, A.NumRows};

  residual(Apply, B.data(), X.data(), R.data(), Slices);
  double R0 = 0;
  for (double V : R)
    R0 += V * V;
  for (int Sweep = 0; Sweep < 20; ++Sweep)
    jacobiSweep(Apply, InvDiag, B.data(), X.data(), Scratch.data(), Slices,
                2.0 / 3.0);
  residual(Apply, B.data(), X.data(), R.data(), Slices);
  double R1 = 0;
  for (double V : R)
    R1 += V * V;
  EXPECT_LT(R1, R0 * 0.5);
}

TEST(RelaxTest, SweepFromZeroMatchesJacobiFromZeroedX) {
  // A V-cycle level's first sweep from a zero guess skips the product A*0:
  // it must leave the bits jacobiSweep leaves from a zeroed X, under the
  // FixedCsr backend's basic CSR operator and under a sliced tuned plan of
  // the Smat backend, whose products of zero may carry either sign.
  CsrMatrix<double> A = laplace3d7pt(20, 20, 20);
  ASSERT_GE(A.nnz(), ParallelConvertGrain);
  std::vector<double> Diag = extractDiagonal(A);
  std::vector<double> InvDiag(Diag.size());
  for (std::size_t I = 0; I != Diag.size(); ++I)
    InvDiag[I] = 1.0 / Diag[I];
  const std::size_t N = static_cast<std::size_t>(A.NumRows);
  std::vector<double> B = randomVector<double>(N, 51);
  B[0] = 0.0;
  B[1] = -0.0;
  const std::vector<index_t> Slices = planRowBounds(A, 1);
  const double Omega = 2.0 / 3.0;

  LearningModel Model;
  Model.Rules.DefaultFormat = FormatKind::DIA;
  Model.Rules.DefaultConfidence = 1.0;
  Model.refreshRuleMetadata();
  const Smat<double> Tuner(Model);
  TuneOptions Opts;
  Opts.AllowMeasure = false; // The model's answer, no timing.
  TunedSpmv<double> Tuned = Tuner.tune(A, Opts);
  EXPECT_EQ(Tuned.format(), FormatKind::DIA);
  EXPECT_EQ(Tuned.formatOperator().numSlices(), planSliceCount());

  std::vector<double> FromZero(N, 1.0); // Its contents are ignored.
  jacobiSweepFromZero(InvDiag, B.data(), FromZero.data(), Slices, Omega);
  const std::pair<const char *, SpmvFn> Backends[] = {
      {"FixedCsr",
       [&A](const double *X, double *Y) {
         kernelTable<double>().Csr.front().Fn(A, X, Y);
       }},
      {"Smat", [&Tuned](const double *X, double *Y) { Tuned.apply(X, Y); }}};
  for (const auto &[Name, Apply] : Backends) {
    SCOPED_TRACE(Name);
    std::vector<double> X(N, 0.0), Scratch(N);
    jacobiSweep(Apply, InvDiag, B.data(), X.data(), Scratch.data(), Slices,
                Omega);
    EXPECT_EQ(std::memcmp(X.data(), FromZero.data(), N * sizeof(double)), 0);
  }
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

TEST(HierarchyTest, SameAtEveryTeamSize) {
  // Every setup pass cuts its slices from the processor count, not the
  // team size, and writes its rows, counts and lists as a serial loop
  // would, so every level keeps its bits however many threads run them.
  const int Hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  struct Case {
    const char *Name;
    CoarsenKind Kind;
    CsrMatrix<double> A;
  };
  const Case Cases[] = {
      {"cljp_7pt", CoarsenKind::Cljp, perturbed(laplace3d7pt(30, 30, 30), 47)},
      {"rugeL_9pt", CoarsenKind::RugeL, perturbed(laplace2d9pt(120, 120), 48)}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ASSERT_GE(C.A.nnz(), ParallelConvertGrain);
    HierarchyOptions Opts;
    Opts.Coarsening = C.Kind;
    AmgHierarchy One;
    {
      OmpThreadsScope Serial(1);
      One.build(C.A, Opts);
    }
    ASSERT_GE(One.numLevels(), 3u);
    for (int Threads : {2, 4, 2 * Hw}) {
      SCOPED_TRACE(testing::Message() << Threads << " threads");
      OmpThreadsScope Team(Threads);
      AmgHierarchy H;
      H.build(C.A, Opts);
      ASSERT_EQ(H.numLevels(), One.numLevels());
      for (std::size_t L = 0; L != H.numLevels(); ++L) {
        SCOPED_TRACE(testing::Message() << "level " << L);
        expectSameCsr(One.level(L).A, H.level(L).A);
        expectSameCsr(One.level(L).P, H.level(L).P);
        expectSameCsr(One.level(L).R, H.level(L).R);
      }
    }
  }
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
  // A grid of 64 rows is not coarsened (the hierarchy stops at 64 rows or
  // fewer): the "hierarchy" is just the fine grid, and the V-cycle is a
  // dense LU solve (at most 512 rows), so one iteration converges.
  CsrMatrix<double> A = laplace2d5pt(8, 8);
  AmgSolver Solver;
  Solver.setup(A, AmgOptions());
  EXPECT_EQ(Solver.hierarchy().numLevels(), 1u);

  auto XTrue = randomVector<double>(64, 29);
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

  // PCG starts from X = 0, which already solves a zero B.
  std::vector<double> Xp(3, 1.0);
  SolveStats Pcg = Solver.solvePcg(B, Xp);
  EXPECT_TRUE(Pcg.Converged);
  EXPECT_EQ(Pcg.Iterations, 0);
  EXPECT_EQ(Pcg.RelResidual, 0.0);
  ASSERT_EQ(Xp.size(), B.size());
  for (double V : Xp)
    EXPECT_EQ(V, 0.0);
}

TEST(AmgSolverTest, AnisotropicProblemStillConverges) {
  // Strong x-direction coupling: a classic AMG stress test for strength
  // thresholds and semicoarsening behaviour.
  CsrMatrix<double> A = anisotropicLaplacian(30, 30, 0.01);
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

TEST(AmgSolverTest, SmatBackendSlicedFineLevelKeepsIterationCount) {
  // The fine operator (860k nonzeros) runs as row slices: under the Smat
  // backend it binds DIA as a sliced plan, and under either backend the
  // solver's vector loops run on its slices with slice-ordered dot
  // products. A setup and solve on a one-thread team, as the serial service
  // worker binds, gives the same slices, so the PCG solve takes as many
  // iterations and returns the same bits as on the default team.
  LearningModel Model;
  Model.Rules.DefaultFormat = FormatKind::DIA;
  Model.Rules.DefaultConfidence = 1.0;
  Model.refreshRuleMetadata();
  const Smat<double> Tuner(Model);
  CsrMatrix<double> A = laplace3d7pt(50, 50, 50);
  ASSERT_GE(A.nnz(), ParallelConvertGrain);
  auto B = randomVector<double>(static_cast<std::size_t>(A.NumRows), 29);

  for (SpmvBackendKind Backend :
       {SpmvBackendKind::Smat, SpmvBackendKind::FixedCsr}) {
    SCOPED_TRACE(Backend == SpmvBackendKind::Smat ? "Smat" : "FixedCsr");
    AmgOptions Opts;
    Opts.Hierarchy.Coarsening = CoarsenKind::Cljp;
    Opts.Backend = Backend;
    if (Backend == SpmvBackendKind::Smat) {
      Opts.Tuner = &Tuner;
      Opts.Tune.AllowMeasure = false; // The model's answer, no timing.
    }
    auto SetupAndSolve = [&](std::vector<double> &X) {
      AmgSolver Solver;
      Solver.setup(A, Opts);
      EXPECT_EQ(Solver.formatDecisions().front().Format,
                Backend == SpmvBackendKind::Smat ? FormatKind::DIA
                                                 : FormatKind::CSR);
      return Solver.solvePcg(B, X);
    };
    std::vector<double> XSliced, XOne;
    SolveStats Sliced = SetupAndSolve(XSliced);
    SolveStats One;
    {
      OmpThreadsScope Serial(1);
      One = SetupAndSolve(XOne);
    }
    ASSERT_TRUE(Sliced.Converged);
    ASSERT_TRUE(One.Converged);
    EXPECT_EQ(Sliced.Iterations, One.Iterations);
    EXPECT_EQ(Sliced.RelResidual, One.RelResidual);
    ASSERT_EQ(XSliced.size(), XOne.size());
    EXPECT_EQ(std::memcmp(XSliced.data(), XOne.data(),
                          XSliced.size() * sizeof(double)),
              0)
        << "the solution's bits depend on the team size";
  }
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
