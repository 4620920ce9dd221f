//===- tests/errors_test.cpp - Trust-boundary error handling --------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The recoverable-error contract (DESIGN.md section 11): every trust
// boundary rejects malformed input with a descriptive diagnostic instead of
// crashing. Regression tests pin the exact diagnostics; the fuzz suites at
// the bottom hammer every entry point with structurally broken CSR / COO /
// MatrixMarket inputs and assert errors-not-crashes (run them under
// SMAT_SANITIZE=ON to also rule out silent memory errors).
//
//===----------------------------------------------------------------------===//

#include "amg/AmgSolver.h"
#include "core/PlanCache.h"
#include "core/Smat.h"
#include "core/Trainer.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "matrix/MatrixMarket.h"
#include "matrix/Validate.h"
#include "ref/RefSpmv.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

TrainingOptions fastOptions() {
  TrainingOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  return Opts;
}

const LearningModel &sharedModel() {
  static const LearningModel Model = [] {
    auto Corpus = buildCorpus(CorpusScale::Tiny);
    std::vector<const CorpusEntry *> Training, Evaluation;
    splitCorpus(Corpus, Training, Evaluation);
    return trainSmat<double>(Training, fastOptions()).Model;
  }();
  return Model;
}

const Smat<double> &sharedTuner() {
  static const Smat<double> Tuner(sharedModel());
  return Tuner;
}

/// Measurement-free options: the decision is the (deterministic) model
/// prediction, so repeated tunes of the same matrix must agree exactly.
TuneOptions deterministicTune() {
  TuneOptions Opts = fastTune();
  Opts.AllowMeasure = false;
  return Opts;
}

/// A seeded random matrix whose shape/density also vary with the seed.
CsrMatrix<double> seededMatrix(std::uint64_t Seed) {
  Rng Rng(Seed * 7919 + 3);
  index_t Rows = static_cast<index_t>(Rng.range(8, 120));
  index_t Cols = static_cast<index_t>(Rng.range(8, 120));
  return randomCsr(Rows, Cols, Rng.uniform(0.02, 0.3), Seed);
}

/// A small healthy matrix the breakers below start from.
CsrMatrix<double> validMatrix(std::uint64_t Seed = 3) {
  return randomCsr(10, 8, 0.4, Seed);
}

void expectContains(const std::string &Haystack, const std::string &Needle) {
  EXPECT_NE(Haystack.find(Needle), std::string::npos)
      << "diagnostic \"" << Haystack << "\" should mention \"" << Needle
      << "\"";
}

} // namespace

// --- Status / Expected basics -----------------------------------------------

TEST(StatusTest, SuccessAndErrorStates) {
  Status Ok = Status::success();
  EXPECT_TRUE(Ok.ok());
  EXPECT_TRUE(Ok.message().empty());
  EXPECT_EQ(Ok.toString(), "ok");

  Status Err = Status::error(ErrorCode::InvalidMatrix, "broken row 3");
  EXPECT_FALSE(Err.ok());
  EXPECT_EQ(Err.code(), ErrorCode::InvalidMatrix);
  EXPECT_EQ(Err.toString(), "invalid_matrix: broken row 3");
}

TEST(StatusTest, ExpectedHoldsValueOrStatus) {
  Expected<int> Good(42);
  ASSERT_TRUE(Good.ok());
  EXPECT_EQ(*Good, 42);
  EXPECT_TRUE(Good.status().ok());

  Expected<int> Bad(Status::error(ErrorCode::ParseError, "nope"));
  EXPECT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::ParseError);
  EXPECT_EQ(Bad.status().message(), "nope");
}

// --- tune / tryTune validation (ISSUE satellite 1 + tentpole) ---------------

TEST(TuneValidationTest, NonMonotoneRowPtrDiagnostic) {
  CsrMatrix<double> A = validMatrix();
  A.RowPtr[3] = A.RowPtr[4] + 2; // Break monotonicity between rows 3 and 4.

  auto Result = sharedTuner().tryTune(A, fastTune());
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidMatrix);
  expectContains(Result.status().message(), "RowPtr not monotone at row 3");
}

TEST(TuneValidationTest, OutOfRangeColumnDiagnostic) {
  CsrMatrix<double> A = validMatrix();
  ASSERT_GT(A.nnz(), 0);
  A.ColIdx.back() = A.NumCols + 7;

  auto Result = sharedTuner().tryTune(A, fastTune());
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidMatrix);
  expectContains(Result.status().message(), "column index");
  expectContains(Result.status().message(), "out of range");
}

TEST(TuneValidationTest, NnzArrayMismatchDiagnostic) {
  CsrMatrix<double> A = validMatrix();
  A.ColIdx.pop_back(); // RowPtr.back() no longer matches the arrays.

  auto Result = sharedTuner().tryTune(A, fastTune());
  ASSERT_FALSE(Result.ok());
  expectContains(Result.status().message(), "ColIdx has");
  expectContains(Result.status().message(), "RowPtr.back()");
}

TEST(TuneValidationTest, NegativeDimensionDiagnostic) {
  CsrMatrix<double> A = validMatrix();
  A.NumCols = -5;

  auto Result = sharedTuner().tryTune(A, fastTune());
  ASSERT_FALSE(Result.ok());
  expectContains(Result.status().message(), "negative dimension");
}

TEST(TuneValidationTest, RowPtrSizeDiagnostic) {
  CsrMatrix<double> A = validMatrix();
  A.RowPtr.pop_back();

  auto Result = sharedTuner().tryTune(A, fastTune());
  ASSERT_FALSE(Result.ok());
  expectContains(Result.status().message(), "expected NumRows + 1");
}

TEST(TuneValidationTest, ThrowingTuneCarriesSameDiagnostic) {
  CsrMatrix<double> A = validMatrix();
  A.RowPtr[0] = 1; // Anchor invariant broken.

  try {
    (void)sharedTuner().tune(A, fastTune());
    FAIL() << "tune() must throw on malformed input";
  } catch (const std::invalid_argument &E) {
    expectContains(E.what(), "SMAT tune rejected input");
    expectContains(E.what(), "RowPtr[0] = 1, expected 0");
  }
}

TEST(TuneValidationTest, BadMeasureOptionRejected) {
  CsrMatrix<double> A = validMatrix();
  TuneOptions Opts = fastTune();
  Opts.MeasureMinSeconds = -1.0;

  auto Result = sharedTuner().tryTune(A, Opts);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidArgument);
  expectContains(Result.status().message(), "MeasureMinSeconds");
}

TEST(TuneValidationTest, TryTuneMatchesThrowingTuneOnValidInput) {
  CsrMatrix<double> A = banded(600, 3);
  TuneOptions Opts = deterministicTune();

  TunedSpmv<double> Reference = sharedTuner().tune(A, Opts);
  auto Result = sharedTuner().tryTune(A, Opts);
  ASSERT_TRUE(Result.ok()) << Result.status().message();

  EXPECT_EQ(Result->format(), Reference.format());
  EXPECT_EQ(Result->kernelName(), Reference.kernelName());

  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 99);
  std::vector<double> Y1(static_cast<std::size_t>(A.NumRows));
  std::vector<double> Y2(static_cast<std::size_t>(A.NumRows));
  Reference.apply(X.data(), Y1.data());
  Result->apply(X.data(), Y2.data());
  EXPECT_EQ(Y1, Y2) << "tryTune must bind the identical tuned operator";
}

// --- C entry points (tentpole) ----------------------------------------------

TEST(CApiTest, TryTuneReportsErrorAndHoldsNoValue) {
  CsrMatrix<double> A = validMatrix();
  A.ColIdx.front() = -1;

  Expected<TunedSpmv<double>> Result = sharedTuner().tryTune(A, fastTune());
  EXPECT_FALSE(Result.ok()) << "the Expected holds no value on failure";
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidMatrix);
  expectContains(Result.status().message(), "out of range");
}

TEST(CApiTest, TryTuneMatchesPaperEntryPointOnValidInput) {
  CsrMatrix<double> A = banded(500, 2);
  TunedSpmv<double> Reference =
      SMAT_dCSR_SpMV(sharedTuner(), A, deterministicTune());

  Expected<TunedSpmv<double>> Result =
      sharedTuner().tryTune(A, deterministicTune());
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_EQ(Result->format(), Reference.format());
  EXPECT_EQ(Result->kernelName(), Reference.kernelName());
}

TEST(CApiTest, SinglePrecisionTryTune) {
  static const Smat<float> FloatTuner(sharedModel());
  CsrMatrix<float> A = convertValueType<float>(validMatrix());

  Expected<TunedSpmv<float>> Result = FloatTuner.tryTune(A, fastTune());
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_EQ(Result->numRows(), A.NumRows);

  A.RowPtr[2] = A.RowPtr[3] + 1;
  Expected<TunedSpmv<float>> Broken = FloatTuner.tryTune(A, fastTune());
  EXPECT_FALSE(Broken.ok());
  EXPECT_EQ(Broken.status().code(), ErrorCode::InvalidMatrix);
  expectContains(Broken.status().message(), "RowPtr not monotone");
}

// --- PlanCache interaction (ISSUE satellite 4) ------------------------------

TEST(PlanCacheErrorTest, FailedTuneNeverInsertsPlan) {
  PlanCache Cache;
  TuneOptions Opts = fastTune();
  Opts.Cache = &Cache;

  CsrMatrix<double> Broken = validMatrix();
  Broken.RowPtr[1] = Broken.RowPtr[2] + 3;
  auto Result = sharedTuner().tryTune(Broken, Opts);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Inserts, 0u)
      << "a rejected tune must not populate the plan cache";

  // The same cache still works for a healthy matrix afterwards.
  CsrMatrix<double> Healthy = validMatrix();
  auto Good = sharedTuner().tryTune(Healthy, Opts);
  ASSERT_TRUE(Good.ok()) << Good.status().message();
  EXPECT_EQ(Cache.stats().Inserts, 1u);
}

// --- Conversion guards (tentpole) -------------------------------------------

TEST(ConversionGuardTest, ConvertersRejectInvalidMatrices) {
  CsrMatrix<double> A = validMatrix();
  A.ColIdx.back() = A.NumCols + 1;

  DiaMatrix<double> Dia;
  EllMatrix<double> Ell;
  BsrMatrix<double> Bsr;
  EXPECT_FALSE(csrToDia(A, Dia, 0.0, 0));
  EXPECT_FALSE(csrToEll(A, Ell, 0.0));
  EXPECT_FALSE(csrToBsr(A, Bsr, 4, 0.0));
}

TEST(ConversionGuardTest, BsrRejectsNonPositiveBlockSize) {
  CsrMatrix<double> A = validMatrix();
  BsrMatrix<double> Bsr;
  EXPECT_FALSE(csrToBsr(A, Bsr, 0));
  EXPECT_FALSE(csrToBsr(A, Bsr, -3));
}

TEST(ConversionGuardTest, BsrBlockSizeOverflowRejected) {
  CsrMatrix<double> A = validMatrix();
  BsrMatrix<double> Bsr;
  // BlockSize^2 alone exceeds the absolute element cap; the guard must
  // reject without attempting the (overflowing) allocation.
  EXPECT_FALSE(csrToBsr(A, Bsr, index_t(1) << 20, 0.0));
}

TEST(ConversionGuardTest, TryCooToCsrReportsBadCoordinates) {
  CooMatrix<double> Coo;
  Coo.NumRows = 4;
  Coo.NumCols = 4;
  Coo.Rows = {0, 9};
  Coo.Cols = {0, 1};
  Coo.Values = {1.0, 2.0};

  auto Result = tryCooToCsr(Coo);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidMatrix);
  expectContains(Result.status().message(), "out of range");

  Coo.Rows[1] = 3;
  auto Fixed = tryCooToCsr(Coo);
  ASSERT_TRUE(Fixed.ok()) << Fixed.status().message();
  EXPECT_EQ(Fixed->nnz(), 2);
}

// --- Kernel preconditions ----------------------------------------------------

TEST(KernelPrecondTest, CooKernelsDeclareNoPrecondAndSliceCsrToCooOutput) {
  // A COO kernel needs nothing beyond the format's invariants: on the whole
  // matrix each takes the entries in any order. A row range finds its
  // entries by binary search, which csrToCoo's monotone rows (the only COO
  // a plan binds) make exact: every kernel, called slice by slice, matches
  // the whole call.
  CsrMatrix<double> A = randomCsr(300, 280, 0.05, 7);
  CooMatrix<double> Coo = csrToCoo(A);
  ASSERT_TRUE(std::is_sorted(Coo.Rows.begin(), Coo.Rows.end()));
  const std::vector<index_t> Bounds = balancedRowBounds(A, 4);
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 8);
  std::vector<double> Expected(static_cast<std::size_t>(A.NumRows));
  refCsrSpmv(A, X.data(), Expected.data());
  for (const auto &K : kernelTable<double>().Coo) {
    SCOPED_TRACE(K.Name);
    std::vector<double> Y(Expected.size(), -1.0);
    for (std::size_t S = 0; S + 1 < Bounds.size(); ++S)
      K.Fn(Coo, Bounds[S], Bounds[S + 1], X.data(), Y.data());
    expectVectorsNear(Expected, Y, 1e-12);
  }

  // Out of row order, the whole-matrix call still holds.
  std::swap(Coo.Rows.front(), Coo.Rows.back());
  std::swap(Coo.Cols.front(), Coo.Cols.back());
  std::swap(Coo.Values.front(), Coo.Values.back());
  ASSERT_FALSE(std::is_sorted(Coo.Rows.begin(), Coo.Rows.end()));
  for (const auto &K : kernelTable<double>().Coo) {
    std::vector<double> Y(Expected.size(), -1.0);
    K.Fn(Coo, X.data(), Y.data());
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

TEST(KernelPrecondTest, TuneOfSkewedGraphComputesTheRightAnswer) {
  // End to end: a COO-bound tune goes through csrToCoo, so its slices find
  // their rows and whatever kernel is bound computes the right answer.
  CsrMatrix<double> A = powerLawGraph(400, 2.2, 1, 50, 5);
  TuneOptions Opts = fastTune();
  auto Result = sharedTuner().tryTune(A, Opts);
  ASSERT_TRUE(Result.ok()) << Result.status().message();

  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 17);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows));
  Result->apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

// --- Foreign model kernel indices -------------------------------------------

// A model trained on a build with a larger kernel library (the AVX2 and
// AVX-512 CSR variants) names kernels a portable build does not have. Such
// a model must stay loadable: the load resolves each unknown name to the
// basic kernel, and a selection that still carries an index past the table
// binds the basic kernel too. Every tune — confident or raced, at k=1 and
// k=8 — must bind the format's basic kernels instead of reading past the
// kernel table.
TEST(ForeignModelTest, OutOfRangeKernelIndicesBindBasicKernels) {
  constexpr int PastTable = 99;
  const std::string Name = "kernel_of_a_wider_build";
  LearningModel Foreign;
  KernelSelection &Sel = Foreign.Kernels;
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL}) {
    const auto F = static_cast<std::size_t>(Kind);
    Sel.BestKernel[F] = PastTable;
    Sel.BestKernelName[F] = Name;
    Sel.BestSpmmKernel[F] = PastTable;
    Sel.BestSpmmKernelName[F] = Name;
  }
  Sel.BestKernelName[static_cast<std::size_t>(FormatKind::BSR)] = "bsr_basic";
  Sel.BestSkewCsrKernel = PastTable;
  Sel.BestSkewCsrKernelName = Name;
  const std::string Path = testing::TempDir() + "foreign_kernel_model.txt";
  ASSERT_TRUE(saveModelFile(Path, Foreign));
  LearningModel Loaded;
  std::string Error;
  ASSERT_TRUE(loadModelFile(Path, Loaded, Error)) << Error;
  std::remove(Path.c_str());
  ASSERT_EQ(Loaded.Kernels.BestKernel[0], 0);
  ASSERT_EQ(Loaded.Kernels.BestSkewCsrKernel, 0);

  const KernelTable<double> &Kernels = kernelTable<double>();
  const std::string BasicSpmv[] = {Kernels.Csr[0].Name, Kernels.Coo[0].Name,
                                   Kernels.Dia[0].Name, Kernels.Ell[0].Name,
                                   Kernels.Bsr[0].Name};
  const std::string BasicSpmm[] = {
      Kernels.CsrSpmm[0].Name, Kernels.CooSpmm[0].Name,
      Kernels.DiaSpmm[0].Name, Kernels.EllSpmm[0].Name, Kernels.Bsr[0].Name};

  auto Check = [&](const LearningModel &Model, const CsrMatrix<double> &A,
                   TuneOptions Opts, index_t K) {
    SCOPED_TRACE("k=" + std::to_string(K));
    Opts.BatchWidth = K;
    auto Result = Smat<double>(Model).tryTune(A, Opts);
    ASSERT_TRUE(Result.ok()) << Result.status().message();
    const auto F = static_cast<std::size_t>(Result->format());
    EXPECT_EQ(Result->kernelName(), BasicSpmv[F]);
    EXPECT_EQ(Result->spmmKernelName(), BasicSpmm[F]);
    for (const MeasuredCandidate &C : Result->report().MeasuredCandidates) {
      const auto CF = static_cast<std::size_t>(C.Format);
      EXPECT_EQ(C.Kernel, K > 1 ? BasicSpmm[CF] : BasicSpmv[CF]);
    }

    const auto Rows = static_cast<std::size_t>(A.NumRows);
    const auto Cols = static_cast<std::size_t>(A.NumCols);
    const auto Width = static_cast<std::size_t>(K);
    auto X = randomVector<double>(Cols * Width, 23);
    std::vector<double> Y(Rows * Width, -1.0);
    Result->multiply(X.data(), Y.data(), K);
    std::vector<double> Xc(Cols), Yc(Rows), Ref(Rows);
    for (std::size_t J = 0; J < Width; ++J) {
      for (std::size_t I = 0; I < Cols; ++I)
        Xc[I] = X[I * Width + J];
      refCsrSpmv(A, Xc.data(), Ref.data());
      for (std::size_t I = 0; I < Rows; ++I)
        Yc[I] = Y[I * Width + J];
      expectVectorsNear(Ref, Yc, 1e-10);
    }
  };

  std::vector<std::pair<std::string, CsrMatrix<double>>> Mats;
  Mats.emplace_back("band", banded(600, 2));
  Mats.emplace_back("powerlaw", powerLawGraph(600, 2.0, 1, 60, 9));
  for (const auto &[Name, A] : Mats) {
    SCOPED_TRACE(Name);
    for (const LearningModel *Source : {&Loaded, &Foreign}) {
      SCOPED_TRACE(Source == &Loaded ? "loaded" : "past the table");
      for (index_t K : {index_t(1), index_t(8)}) {
        // Confident: the ruleset's default names each format outright.
        for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO,
                                FormatKind::DIA, FormatKind::ELL}) {
          SCOPED_TRACE(std::string("confident ") +
                       std::string(formatName(Kind)));
          LearningModel Confident = *Source;
          Confident.ConfidenceThreshold = 0.5;
          Confident.Rules.DefaultFormat = Kind;
          Confident.Rules.DefaultConfidence = 1.0;
          Check(Confident, A, fastTune(), K);
        }
        // Raced: the cost model's menu for the matrix.
        SCOPED_TRACE("raced");
        Check(neverConfident(*Source), A, fastTune(), K);
      }
    }
  }
}

// --- AMG boundary (tentpole) ------------------------------------------------

TEST(AmgBoundaryTest, TrySetupRejectsNonSquare) {
  AmgSolver Solver;
  Status S = Solver.trySetup(randomCsr(6, 9, 0.5, 2), AmgOptions());
  ASSERT_FALSE(S.ok());
  expectContains(S.message(), "square operator");
}

TEST(AmgBoundaryTest, TrySetupRejectsInvalidMatrix) {
  CsrMatrix<double> A = randomCsr(8, 8, 0.5, 2);
  A.RowPtr[4] = A.RowPtr[5] + 1;
  AmgSolver Solver;
  Status S = Solver.trySetup(A, AmgOptions());
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidMatrix);
  expectContains(S.message(), "RowPtr not monotone");
}

TEST(AmgBoundaryTest, SmatBackendRequiresTuner) {
  AmgOptions Opts;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = nullptr;
  AmgSolver Solver;
  Status S = Solver.trySetup(randomCsr(8, 8, 0.5, 2), Opts);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  expectContains(S.message(), "requires a tuner");
}

TEST(AmgBoundaryTest, ThrowingSetupCarriesDiagnostic) {
  AmgSolver Solver;
  EXPECT_THROW(Solver.setup(randomCsr(4, 7, 0.5, 2), AmgOptions()),
               std::invalid_argument);
}

// --- MatrixMarket boundary (ISSUE satellite 3) ------------------------------

TEST(MatrixMarketErrorTest, TruncatedFileNamesProgress) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "3 3 5\n"
                     "1 1 1.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  EXPECT_EQ(Result.Code, ErrorCode::ParseError);
  expectContains(Result.Error, "file ended after 1 of 5 entries");
}

TEST(MatrixMarketErrorTest, OversizedEntryCountRejected) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 5\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  expectContains(Result.Error, "line 2:");
  expectContains(Result.Error, "entry count 5 exceeds matrix capacity 2 x 2");
}

TEST(MatrixMarketErrorTest, NegativeDimensionRejected) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "-3 3 1\n"
                     "1 1 1.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  expectContains(Result.Error, "negative matrix dimension");
}

TEST(MatrixMarketErrorTest, SymmetricRequiresSquare) {
  std::string Text = "%%MatrixMarket matrix coordinate real symmetric\n"
                     "3 4 2\n"
                     "1 1 1.0\n"
                     "2 1 2.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  expectContains(Result.Error, "symmetric symmetry requires a square matrix");
}

TEST(MatrixMarketErrorTest, MirrorOverCapacityRejected) {
  // Both triangles stored in a symmetric file: capacity holds pre-mirror
  // (4 <= 2x2) but mirroring doubles the off-diagonal entries to 8.
  std::string Text = "%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 4\n"
                     "2 1 1.0\n"
                     "2 1 1.0\n"
                     "2 1 1.0\n"
                     "2 1 1.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  expectContains(Result.Error, "symmetric mirroring produced 8 entries");
}

TEST(MatrixMarketErrorTest, TrailingDataRejected) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n"
                     "1 1 1.0\n"
                     "2 2 5.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  expectContains(Result.Error, "trailing data after the declared 1 entries");
}

TEST(MatrixMarketErrorTest, DiagnosticsCarryLineNumbers) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "% a comment pushes the bad entry to line 4\n"
                     "2 2 1\n"
                     "1 bogus 1.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_FALSE(Result.Ok);
  expectContains(Result.Error, "line 4:");
  expectContains(Result.Error, "malformed entry line");
}

TEST(MatrixMarketErrorTest, MissingFileIsInvalidArgument) {
  auto Result = readMatrixMarketFile("/nonexistent/smat_no_such_file.mtx");
  ASSERT_FALSE(Result.Ok);
  EXPECT_EQ(Result.Code, ErrorCode::InvalidArgument);
  expectContains(Result.Error, "cannot open file");
}

// --- Malformed-input fuzz harness (tentpole) --------------------------------
//
// Seeded structural breakers: each mutation produces a CSR matrix violating
// exactly one invariant class. Every trust boundary must answer with a
// diagnostic error — never a crash, never a sanitizer report.

namespace {

enum { NumCsrBreakers = 9 };

CsrMatrix<double> breakCsr(std::uint64_t Seed, int Breaker) {
  Rng Rng(Seed * 2654435761u + static_cast<std::uint64_t>(Breaker));
  CsrMatrix<double> A = randomCsr(4 + static_cast<index_t>(Rng.range(1, 20)),
                                  4 + static_cast<index_t>(Rng.range(1, 20)),
                                  0.35, Seed + 11);
  // Guarantee at least one stored entry so index mutations always apply.
  if (A.nnz() == 0) {
    A.RowPtr.back() = 1;
    for (std::size_t R = A.RowPtr.size() - 1; R-- > 1;)
      A.RowPtr[R] = std::min<index_t>(A.RowPtr[R], 1);
    A.ColIdx.assign(1, 0);
    A.Values.assign(1, 1.0);
  }
  std::size_t Pick = Rng.bounded(A.ColIdx.size());
  switch (Breaker) {
  case 0: // Non-monotone RowPtr.
    A.RowPtr[A.RowPtr.size() / 2] =
        A.RowPtr[A.RowPtr.size() / 2 + (A.NumRows > 0 ? 1 : 0)] + 3;
    break;
  case 1: // Column index past NumCols.
    A.ColIdx[Pick] = A.NumCols + static_cast<index_t>(Rng.range(0, 5));
    break;
  case 2: // Negative column index.
    A.ColIdx[Pick] = -1 - static_cast<index_t>(Rng.range(0, 3));
    break;
  case 3: // ColIdx shorter than RowPtr.back().
    A.ColIdx.pop_back();
    break;
  case 4: // Values longer than RowPtr.back().
    A.Values.push_back(0.5);
    break;
  case 5: // RowPtr missing its final fence.
    A.RowPtr.pop_back();
    break;
  case 6: // Broken anchor.
    A.RowPtr[0] = 1 + static_cast<index_t>(Rng.range(0, 4));
    break;
  case 7: // Negative dimension.
    A.NumRows = -static_cast<index_t>(Rng.range(1, 10));
    break;
  default: // RowPtr.back() overstates nnz.
    A.RowPtr.back() += 4;
    break;
  }
  return A;
}

} // namespace

class MalformedInputFuzz : public ::testing::TestWithParam<std::uint64_t> {
protected:
  // Any assertion failure below reports the seed and the exact rerun
  // command; the trace lives as a member so it covers the whole test body.
  void SetUp() override {
    Trace = std::make_unique<::testing::ScopedTrace>(
        __FILE__, __LINE__,
        "fuzz seed " + std::to_string(GetParam()) + " (rerun with " +
            "SMAT_FUZZ_SEED=" + std::to_string(GetParam()) + ")");
  }

private:
  std::unique_ptr<::testing::ScopedTrace> Trace;
};

TEST_P(MalformedInputFuzz, EveryBoundaryRejectsBrokenCsr) {
  for (int Breaker = 0; Breaker < NumCsrBreakers; ++Breaker) {
    SCOPED_TRACE("breaker " + std::to_string(Breaker));
    CsrMatrix<double> A = breakCsr(GetParam(), Breaker);
    Status Check = validateCsr(A);
    if (Check.ok())
      continue; // A rare mutation may cancel out; nothing to assert.

    // tryTune: diagnostic error, no crash, the Expected holds no value.
    auto Tuned = sharedTuner().tryTune(A, fastTune());
    ASSERT_FALSE(Tuned.ok());
    EXPECT_FALSE(Tuned.status().message().empty());
    EXPECT_NE(Tuned.status().code(), ErrorCode::Ok);

    // Throwing tune and the paper's entry point: std::invalid_argument with
    // the same diagnostic class.
    EXPECT_THROW((void)sharedTuner().tune(A, fastTune()),
                 std::invalid_argument);
    EXPECT_THROW((void)SMAT_dCSR_SpMV(sharedTuner(), A, fastTune()),
                 std::invalid_argument);

    // Converters: defensive rejection (bound-as-CSR is the recovery).
    DiaMatrix<double> Dia;
    EllMatrix<double> Ell;
    BsrMatrix<double> Bsr;
    EXPECT_FALSE(csrToDia(A, Dia, 0.0, 0));
    EXPECT_FALSE(csrToEll(A, Ell, 0.0));
    EXPECT_FALSE(csrToBsr(A, Bsr, 4, 0.0));

    // AMG setup boundary.
    AmgSolver Solver;
    EXPECT_FALSE(Solver.trySetup(A, AmgOptions()).ok());
  }
}

TEST_P(MalformedInputFuzz, BrokenCooAlwaysYieldsErrors) {
  Rng Rng(GetParam() * 977 + 5);
  CooMatrix<double> Coo = csrToCoo(randomCsr(12, 12, 0.3, GetParam() + 40));
  for (int Round = 0; Round < 20; ++Round) {
    CooMatrix<double> Broken = Coo;
    switch (Rng.bounded(4)) {
    case 0:
      if (!Broken.Rows.empty())
        Broken.Rows[Rng.bounded(Broken.Rows.size())] =
            Broken.NumRows + static_cast<index_t>(Rng.range(0, 5));
      break;
    case 1:
      if (!Broken.Cols.empty())
        Broken.Cols[Rng.bounded(Broken.Cols.size())] = -2;
      break;
    case 2:
      Broken.Values.push_back(1.0);
      break;
    default:
      Broken.NumCols = -1;
      break;
    }
    auto Result = tryCooToCsr(Broken);
    if (validateCoo(Broken).ok()) {
      ASSERT_TRUE(Result.ok());
    } else {
      ASSERT_FALSE(Result.ok());
      EXPECT_FALSE(Result.status().message().empty());
    }
  }
}

TEST_P(MalformedInputFuzz, StructuredMatrixMarketMutations) {
  // Line-level (not byte-level: property_test covers that) mutations of a
  // valid file: drop/duplicate/scramble whole lines so the reader's
  // size-line and entry accounting is what gets attacked.
  Rng Rng(GetParam() * 431 + 3);
  std::string Valid =
      writeMatrixMarketString(randomCsr(9, 7, 0.4, GetParam() + 60));
  std::vector<std::string> Lines;
  {
    std::istringstream In(Valid);
    std::string L;
    while (std::getline(In, L))
      Lines.push_back(L);
  }
  for (int Round = 0; Round < 30; ++Round) {
    std::vector<std::string> Mutated = Lines;
    switch (Rng.bounded(4)) {
    case 0: // Drop a line (often an entry: truncation).
      Mutated.erase(Mutated.begin() +
                    static_cast<std::ptrdiff_t>(Rng.bounded(Mutated.size())));
      break;
    case 1: // Duplicate a line (often an entry: trailing data).
      Mutated.push_back(Mutated[Rng.bounded(Mutated.size())]);
      break;
    case 2: // Corrupt the size line.
      Mutated[1] = formatString("%d %d %d", -static_cast<int>(Rng.bounded(5)),
                                static_cast<int>(Rng.bounded(10)),
                                static_cast<int>(Rng.bounded(100)));
      break;
    default: // Scramble an entry line.
      Mutated[1 + Rng.bounded(Mutated.size() - 1)] = "1 x y";
      break;
    }
    std::string Text;
    for (const std::string &L : Mutated)
      Text += L + "\n";
    MatrixMarketResult Result = readMatrixMarketString(Text);
    if (Result.Ok) {
      EXPECT_TRUE(Result.Matrix.isValid());
      EXPECT_EQ(Result.Code, ErrorCode::Ok);
    } else {
      EXPECT_FALSE(Result.Error.empty());
      EXPECT_NE(Result.Code, ErrorCode::Ok);
    }
  }
}

TEST_P(MalformedInputFuzz, ValidInputsKeepIdenticalTunedResults) {
  // The hardening must be behavior-preserving on the happy path: tryTune,
  // tune, and the paper's entry point agree bit-for-bit on format, kernel,
  // and output vector.
  CsrMatrix<double> A = seededMatrix(GetParam());
  TuneOptions Opts = deterministicTune();

  TunedSpmv<double> Thrown = sharedTuner().tune(A, Opts);
  auto Tried = sharedTuner().tryTune(A, Opts);
  ASSERT_TRUE(Tried.ok()) << Tried.status().message();
  TunedSpmv<double> CApi = SMAT_dCSR_SpMV(sharedTuner(), A, Opts);

  EXPECT_EQ(Tried->format(), Thrown.format());
  EXPECT_EQ(CApi.format(), Thrown.format());
  EXPECT_EQ(Tried->kernelName(), Thrown.kernelName());
  EXPECT_EQ(CApi.kernelName(), Thrown.kernelName());

  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols),
                                GetParam() + 3);
  std::vector<double> Y0(static_cast<std::size_t>(A.NumRows));
  std::vector<double> Y1(static_cast<std::size_t>(A.NumRows));
  std::vector<double> Y2(static_cast<std::size_t>(A.NumRows));
  Thrown.apply(X.data(), Y0.data());
  Tried->apply(X.data(), Y1.data());
  CApi.apply(X.data(), Y2.data());
  EXPECT_EQ(Y0, Y1);
  EXPECT_EQ(Y0, Y2);
}

namespace {

/// The eight fuzz seeds, normally 1..8. Setting SMAT_FUZZ_SEED=<base> shifts
/// the window to base..base+7 so CI (or a developer chasing a failure) can
/// replay or widen the campaign without recompiling. Failures print their
/// seed via SCOPED_TRACE in the fixture below.
std::vector<std::uint64_t> fuzzSeeds() {
  std::uint64_t Base = 1;
  if (const char *Env = std::getenv("SMAT_FUZZ_SEED")) {
    char *End = nullptr;
    unsigned long long Parsed = std::strtoull(Env, &End, 10);
    if (End && *End == '\0' && End != Env)
      Base = static_cast<std::uint64_t>(Parsed);
  }
  std::vector<std::uint64_t> Seeds(8);
  for (std::size_t I = 0; I != Seeds.size(); ++I)
    Seeds[I] = Base + I;
  return Seeds;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(FuzzSeeds, MalformedInputFuzz,
                         ::testing::ValuesIn(fuzzSeeds()));
