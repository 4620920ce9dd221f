//===- tests/pipeline_test.cpp - Staged pipeline, operators, plan cache ---===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/AmgSolver.h"
#include "core/FormatOperator.h"
#include "core/PlanCache.h"
#include "core/Smat.h"
#include "core/Trainer.h"
#include "core/TuningPipeline.h"
#include "matrix/Generators.h"
#include "ref/RefSpmv.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>

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

} // namespace

// --- FeatureStage -----------------------------------------------------------

TEST(FeatureStageTest, Step1EagerPowerLawLazy) {
  CsrMatrix<double> A = banded(800, 2);
  TuneOptions Opts;
  TuningContext<double> Ctx{A, sharedModel(), Opts};

  FeatureStageResult F = FeatureStage::run(Ctx);
  EXPECT_DOUBLE_EQ(F.Features.M, 800);
  EXPECT_DOUBLE_EQ(F.Features.N, 800);
  EXPECT_FALSE(F.HaveR) << "step 2 (power-law R) must not run eagerly";
  EXPECT_GE(F.Seconds, 0.0);

  FeatureStage::ensurePowerLaw(Ctx, F);
  EXPECT_TRUE(F.HaveR);
  double R = F.Features.R;
  FeatureStage::ensurePowerLaw(Ctx, F);
  EXPECT_DOUBLE_EQ(F.Features.R, R) << "ensurePowerLaw must be idempotent";
}

// --- PredictStage -----------------------------------------------------------

TEST(PredictStageTest, AgreesWithEndToEndTune) {
  const Smat<double> &Tuner = sharedTuner();
  TuneOptions NoMeasure;
  NoMeasure.AllowMeasure = false;

  for (const CsrMatrix<double> &A :
       {banded(2000, 5), powerLawGraph(600, 2.0, 1, 60, 21)}) {
    TuningContext<double> Ctx{A, Tuner.model(), NoMeasure};
    FeatureStageResult F = FeatureStage::run(Ctx);
    PredictStageResult P = PredictStage::run(Ctx, F);

    TunedSpmv<double> Op = Tuner.tune(A, NoMeasure);
    EXPECT_EQ(Op.report().ModelPrediction, P.Prediction);
    EXPECT_EQ(Op.report().ModelConfident, P.Confident);
    EXPECT_DOUBLE_EQ(Op.report().ModelConfidence, P.Confidence);
  }
}

// --- MeasureStage -----------------------------------------------------------

TEST(MeasureStageTest, GateHonorsOptionsAndConfidence) {
  TuneOptions Opts;
  PredictStageResult Confident;
  Confident.Confident = true;
  PredictStageResult Unsure;

  EXPECT_FALSE(MeasureStage::shouldRun(Opts, Confident));
  EXPECT_TRUE(MeasureStage::shouldRun(Opts, Unsure));

  Opts.AllowMeasure = false;
  EXPECT_FALSE(MeasureStage::shouldRun(Opts, Unsure));

  Opts.ForceMeasure = true;
  EXPECT_TRUE(MeasureStage::shouldRun(Opts, Confident))
      << "ForceMeasure overrides both confidence and AllowMeasure";
}

TEST(MeasureStageTest, MeasuresPlausibleCandidatesAndPicksMax) {
  CsrMatrix<double> A = banded(1500, 2);
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  TuningContext<double> Ctx{A, sharedModel(), Opts};
  FeatureStageResult F = FeatureStage::run(Ctx);

  MeasureStageResult M = MeasureStage::run(Ctx, F, FormatKind::CSR);
  EXPECT_GE(M.Candidates.size(), 2u)
      << "CSR and COO are always measured; DIA/ELL are plausible on a band";
  double BestGflops = -1.0;
  FormatKind BestKind = FormatKind::CSR;
  for (const MeasuredCandidate &C : M.Candidates) {
    EXPECT_FALSE(C.IsBaseline) << "the race has no baseline candidate";
    EXPECT_GT(C.Gflops, 0.0);
    if (C.Gflops > BestGflops) {
      BestGflops = C.Gflops;
      BestKind = C.Format;
    }
  }
  EXPECT_EQ(M.Best, BestKind);
  EXPECT_GT(M.Seconds, 0.0);
}

TEST(MeasureStageTest, FallbackReturnedWhenNothingPlausibleWins) {
  // The fallback only matters when no candidate is measured; with CSR
  // always measured that never happens, so Best must come from the
  // measurements.
  // A heavy-tailed graph: one 400-degree row spikes ELL's padding, and the
  // scattered diagonals blow DIA's fill guard.
  CsrMatrix<double> A = powerLawGraph(3000, 2.0, 1, 400, 3);
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  TuningContext<double> Ctx{A, sharedModel(), Opts};
  FeatureStageResult F = FeatureStage::run(Ctx);
  MeasureStageResult M = MeasureStage::run(Ctx, F, FormatKind::DIA);
  for (const MeasuredCandidate &C : M.Candidates) {
    EXPECT_NE(C.Format, FormatKind::DIA) << "DIA is implausible on a graph";
    EXPECT_NE(C.Format, FormatKind::ELL) << "ELL is implausible on a graph";
  }
  EXPECT_NE(M.Best, FormatKind::DIA);
}

// --- BindStage and FormatOperator -------------------------------------------

TEST(BindStageTest, GuardRejectionFallsBackToCsr) {
  CsrMatrix<double> A = powerLawGraph(800, 2.0, 1, 80, 5);
  TuneOptions Opts;
  TuningContext<double> Ctx{A, sharedModel(), Opts};

  BindStageResult<double> B = BindStage::run(Ctx, FormatKind::DIA);
  ASSERT_TRUE(B.Op);
  EXPECT_EQ(B.BoundFormat, FormatKind::CSR)
      << "a DIA request must fall back to CSR when the fill guard rejects";
  EXPECT_EQ(B.Op->kind(), FormatKind::CSR);
  EXPECT_FALSE(B.Op->ownsStorage()) << "default CSR binding borrows";
  EXPECT_FALSE(B.KernelName.empty());
}

TEST(BindStageTest, SkewedFeaturesBindLoadBalancedCsrKernel) {
  // With the skew pick populated, features whose row CV clears the
  // threshold must route the CSR bind to the load-balanced kernel; without
  // features (legacy 2-arg call sites) the general pick stays.
  const auto &Csr = kernelTable<double>().Csr;
  int NnzSplit = -1;
  for (std::size_t I = 0; I != Csr.size(); ++I)
    if (std::string(Csr[I].Name) == "csr_nnzsplit")
      NnzSplit = static_cast<int>(I);
  ASSERT_GE(NnzSplit, 0);

  LearningModel Model = sharedModel();
  Model.Kernels.BestSkewCsrKernel = NnzSplit;
  Model.Kernels.BestSkewCsrKernelName = "csr_nnzsplit";

  CsrMatrix<double> A = spikedRows(1500, 2, 500, 0.01, 41);
  TuneOptions Opts;
  TuningContext<double> Ctx{A, Model, Opts};
  FeatureStageResult F = FeatureStage::run(Ctx);
  ASSERT_GT(F.Features.rowCv(), SkewRowCvThreshold);

  BindStageResult<double> Skewed = BindStage::run(Ctx, FormatKind::CSR,
                                                  &F.Features);
  ASSERT_TRUE(Skewed.Op);
  EXPECT_EQ(Skewed.KernelName, "csr_nnzsplit");

  BindStageResult<double> Legacy = BindStage::run(Ctx, FormatKind::CSR);
  ASSERT_TRUE(Legacy.Op);
  EXPECT_NE(Legacy.KernelName, "csr_nnzsplit");

  // A balanced matrix stays on the general pick even with features given.
  CsrMatrix<double> B = banded(1500, 2);
  TuningContext<double> CtxB{B, Model, Opts};
  FeatureStageResult FB = FeatureStage::run(CtxB);
  ASSERT_LT(FB.Features.rowCv(), SkewRowCvThreshold);
  BindStageResult<double> Balanced = BindStage::run(CtxB, FormatKind::CSR,
                                                    &FB.Features);
  ASSERT_TRUE(Balanced.Op);
  EXPECT_NE(Balanced.KernelName, "csr_nnzsplit");

  // The bound skewed operator computes the right thing.
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 42);
  auto Expected = denseSpmv(A, X);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -1.0);
  Skewed.Op->apply(X.data(), Y.data());
  expectVectorsNear(Expected, Y, 1e-9);
}

TEST(MeasureStageTest, RaceMeasuresTheKernelTheBindBinds) {
  // Every pick points past the basic entry (the bind falls back to basic
  // when a family has no such member or a precondition fails) and BSR is
  // enabled, so a race that timed a different kernel than the bind binds —
  // a different pick, or BSR without the column-at-a-time path — shows here.
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0; // Never confident: the race decides.
  Model.BsrEnabled = true;
  for (int F = 0; F < NumFormats; ++F) {
    Model.Kernels.BestKernel[static_cast<std::size_t>(F)] = 1;
    for (int W = 0; W < NumSpmmWidths; ++W)
      Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(F)]
                                  [static_cast<std::size_t>(W)] = 1;
  }
  Model.Kernels.BestSkewCsrKernel = 2;
  const Smat<double> Tuner(Model);

  std::vector<std::pair<std::string, CsrMatrix<double>>> Mats;
  Mats.emplace_back("band", banded(1200, 2));
  Mats.emplace_back("fem_blocks", blockFem(150, 4, 0.0, 61));
  Mats.emplace_back("powerlaw", powerLawGraph(1200, 2.0, 1, 120, 62));
  for (const auto &[Name, A] : Mats) {
    SCOPED_TRACE(Name);
    const double RowCv = extractStructureFeatures(A).rowCv();
    for (index_t K : {index_t(1), index_t(8)}) {
      SCOPED_TRACE("k=" + std::to_string(K));
      TuneOptions Opts;
      Opts.MeasureMinSeconds = 1e-4;
      Opts.ForceMeasure = true;
      Opts.BatchWidth = K;
      TunedSpmv<double> Op = Tuner.tune(A, Opts);
      int Tuned = 0;
      for (const MeasuredCandidate &C : Op.report().MeasuredCandidates) {
        if (C.IsBaseline)
          continue;
        ++Tuned;
        auto Bound = bindFormatOperator(A, C.Format, Model.Kernels,
                                        CsrStorage::Borrowed,
                                        Model.Kernels.csrKernelFor(RowCv), K);
        ASSERT_EQ(Bound->kind(), C.Format);
        EXPECT_EQ(C.Kernel,
                  K > 1 ? Bound->spmmKernelName() : Bound->kernelName())
            << "raced " << formatName(C.Format);
      }
      EXPECT_GE(Tuned, 2) << "CSR and COO always race";
    }
  }
}

TEST(FormatOperatorTest, AllFormatsMatchReferenceSpmv) {
  // A band converts cleanly to every four-format representation; each bound
  // operator must agree with the fixed-interface reference library.
  CsrMatrix<double> A = banded(700, 3);
  KernelSelection Sel; // Basic kernels everywhere.
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 11);
  std::vector<double> Expected(static_cast<std::size_t>(A.NumRows));
  refCsrSpmv(A, X.data(), Expected.data());

  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL}) {
    auto Op = bindFormatOperator(A, Kind, Sel);
    ASSERT_TRUE(Op);
    EXPECT_EQ(Op->kind(), Kind);
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -1.0);
    Op->apply(X.data(), Y.data());
    expectVectorsNear(Expected, Y, 1e-12);
  }
}

TEST(FormatOperatorTest, OwnedCsrSurvivesSourceDestruction) {
  KernelSelection Sel;
  auto A = std::make_unique<CsrMatrix<double>>(banded(300, 1));
  auto X = randomVector<double>(300, 13);
  std::vector<double> Expected = denseSpmv(*A, X);

  auto Owned = bindFormatOperator(*A, FormatKind::CSR, Sel, CsrStorage::Owned);
  EXPECT_TRUE(Owned->ownsStorage());
  A.reset();

  std::vector<double> Y(300, -1.0);
  Owned->apply(X.data(), Y.data());
  expectVectorsNear(Expected, Y, 1e-12);
}

// Every tuning entry point takes the caller's matrix by const reference and
// rejects a temporary: the default operator borrows the matrix, so a
// temporary would die under it. EntriesAccept<MD, MF> holds, per entry
// point, whether it compiles with a double (MD) or float (MF) matrix
// argument of that type; a plain type is a temporary.
template <typename MD, typename MF>
constexpr bool EntriesAccept[] = {
    requires(const Smat<double> &S, MD &&A) { S.tune(std::forward<MD>(A)); },
    requires(const Smat<double> &S, MD &&A) {
      S.tryTune(std::forward<MD>(A));
    },
    requires(const Smat<double> &S, MD &&A) {
      SMAT_dCSR_SpMV(S, std::forward<MD>(A));
    },
    requires(const Smat<float> &S, MF &&A) {
      SMAT_sCSR_SpMV(S, std::forward<MF>(A));
    },
    requires(const Smat<double> &S, MD &&A) {
      SMAT_dCSR_SpMM(S, std::forward<MD>(A), 4);
    },
    requires(const Smat<float> &S, MF &&A) {
      SMAT_sCSR_SpMM(S, std::forward<MF>(A), 4);
    },
    requires(const Smat<double> &S, MD &&A, TunedSpmv<double> &Out) {
      SMAT_dCSR_SpMV_try(S, std::forward<MD>(A), Out);
    },
    requires(const Smat<float> &S, MF &&A, TunedSpmv<float> &Out) {
      SMAT_sCSR_SpMV_try(S, std::forward<MF>(A), Out);
    },
    requires(const Smat<double> &S, MD &&A, TunedSpmv<double> &Out) {
      SMAT_dCSR_SpMM_try(S, std::forward<MD>(A), 4, Out);
    },
    requires(const Smat<float> &S, MF &&A, TunedSpmv<float> &Out) {
      SMAT_sCSR_SpMM_try(S, std::forward<MF>(A), 4, Out);
    },
};
static_assert(std::size(EntriesAccept<CsrMatrix<double>, CsrMatrix<float>>) ==
              10);
static_assert(std::ranges::all_of(
                  EntriesAccept<const CsrMatrix<double> &,
                                const CsrMatrix<float> &>,
                  std::identity()),
              "every entry point tunes a matrix the caller keeps alive");
static_assert(std::ranges::none_of(
                  EntriesAccept<CsrMatrix<double>, CsrMatrix<float>>,
                  std::identity()),
              "no entry point tunes a temporary matrix");

TEST(SmatRuntimeTest, OwnedModeIsSelfContained) {
  const Smat<double> &Tuner = sharedTuner();

  // Lvalue tune with CsrMode = Owned: the operator must not reference A.
  {
    auto A = std::make_unique<CsrMatrix<double>>(randomCsr(300, 300, 0.02, 9));
    auto X = randomVector<double>(300, 19);
    std::vector<double> Expected = denseSpmv(*A, X);
    TuneOptions Opts;
    Opts.CsrMode = CsrStorage::Owned;
    TunedSpmv<double> Op = Tuner.tune(*A, Opts);
    EXPECT_TRUE(Op.ownsStorage());
    A.reset();
    std::vector<double> Y(300, -1.0);
    Op.apply(X.data(), Y.data());
    expectVectorsNear(Expected, Y, 1e-12);
  }

  // Default mode on a CSR-bound matrix borrows (documented hazard).
  {
    CsrMatrix<double> A = powerLawGraph(400, 2.0, 1, 40, 31);
    TunedSpmv<double> Op = Tuner.tune(A);
    if (Op.format() == FormatKind::CSR)
      EXPECT_FALSE(Op.ownsStorage());
    else
      EXPECT_TRUE(Op.ownsStorage());
  }
}

// --- Row-sliced plans -------------------------------------------------------

namespace {

/// The library index of the kernel named \p Name in \p List.
template <typename FnT>
int kernelIndex(const std::vector<Kernel<FnT>> &List, const char *Name) {
  for (std::size_t I = 0; I != List.size(); ++I)
    if (std::string(List[I].Name) == Name)
      return static_cast<int>(I);
  ADD_FAILURE() << "no kernel named " << Name;
  return 0;
}

/// Serial SpMV picks everywhere; the DIA SpMM picks are threaded at width 2
/// and serial at width 8, so a sliced multiply runs both slice schedules.
KernelSelection serialPicks() {
  const KernelTable<double> &K = kernelTable<double>();
  KernelSelection Sel;
  Sel.BestKernel[static_cast<int>(FormatKind::DIA)] =
      kernelIndex(K.Dia, "dia_unroll2");
  Sel.BestKernel[static_cast<int>(FormatKind::ELL)] =
      kernelIndex(K.Ell, "ell_simd");
  Sel.BestKernel[static_cast<int>(FormatKind::BSR)] =
      kernelIndex(K.Bsr, "bsr_unrolled");
  auto &DiaSpmm = Sel.BestSpmmKernel[static_cast<int>(FormatKind::DIA)];
  DiaSpmm[static_cast<std::size_t>(spmmWidthIndex(2))] =
      kernelIndex(K.DiaSpmm, "dia_spmm_omp_rows");
  DiaSpmm[static_cast<std::size_t>(spmmWidthIndex(8))] =
      kernelIndex(K.DiaSpmm, "dia_spmm_tiled");
  Sel.BestSpmmKernel[static_cast<int>(FormatKind::ELL)]
                    [static_cast<std::size_t>(spmmWidthIndex(8))] =
      kernelIndex(K.EllSpmm, "ell_spmm_tiled");
  return Sel;
}

/// Checks \p Op against refCsrSpmv on every column of a K-wide block:
/// apply() at K = 1, multiply() above.
void expectMatchesRefSpmv(const FormatOperator<double> &Op,
                          const CsrMatrix<double> &A, index_t K) {
  SCOPED_TRACE("k=" + std::to_string(K));
  const auto Rows = static_cast<std::size_t>(A.NumRows);
  const auto Cols = static_cast<std::size_t>(A.NumCols);
  const auto Width = static_cast<std::size_t>(K);
  auto X = randomVector<double>(Cols * Width, 100 + Width);
  std::vector<double> Y(Rows * Width, -1.0);
  if (K == 1)
    Op.apply(X.data(), Y.data());
  else
    Op.multiply(X.data(), Y.data(), K);
  std::vector<double> Xc(Cols), Expected(Rows), Got(Rows);
  for (std::size_t J = 0; J != Width; ++J) {
    for (std::size_t I = 0; I != Cols; ++I)
      Xc[I] = X[I * Width + J];
    refCsrSpmv(A, Xc.data(), Expected.data());
    for (std::size_t I = 0; I != Rows; ++I)
      Got[I] = Y[I * Width + J];
    expectVectorsNear(Expected, Got, 1e-12);
  }
}

} // namespace

TEST(SlicedPlanTest, LargeSerialPicksRunAsRowSlices) {
  // Above SlicedPlanGrain a serial pick runs as one row slice per OpenMP
  // thread. Results match the reference (to rounding: dia_unroll2 pairs
  // diagonals over each slice's own row range) and the bound names are
  // those of the one-thread bind, which is unsliced.
  const KernelSelection Sel = serialPicks();
  std::vector<std::pair<FormatKind, CsrMatrix<double>>> Cases;
  Cases.emplace_back(FormatKind::DIA, laplace3d7pt(50, 50, 50));
  Cases.emplace_back(FormatKind::ELL,
                     boundedDegreeRandom(50000, 50000, 6, 8, 71));
  Cases.emplace_back(FormatKind::COO,
                     boundedDegreeRandom(50000, 50000, 6, 8, 72));
  for (const auto &[Kind, A] : Cases) {
    SCOPED_TRACE(std::string(formatName(Kind)));
    ASSERT_GE(A.nnz(), SlicedPlanGrain);
    for (index_t K : {index_t(1), index_t(2), index_t(5), index_t(8)}) {
      auto Op = bindFormatOperator(A, Kind, Sel, CsrStorage::Borrowed, -1, K);
      std::unique_ptr<FormatOperator<double>> One;
      {
        OmpThreadsScope Serial(1);
        One = bindFormatOperator(A, Kind, Sel, CsrStorage::Borrowed, -1, K);
      }
      ASSERT_EQ(Op->kind(), Kind);
      EXPECT_EQ(Op->numSlices(), detail::teamSize());
      EXPECT_EQ(One->numSlices(), 1);
      EXPECT_EQ(One->kind(), Kind);
      EXPECT_STREQ(Op->kernelName(), One->kernelName());
      EXPECT_STREQ(Op->spmmKernelName(), One->spmmKernelName());
      EXPECT_TRUE(Op->ownsStorage());
      EXPECT_EQ(Op->numRows(), A.NumRows);
      EXPECT_EQ(Op->numCols(), A.NumCols);
      expectMatchesRefSpmv(*Op, A, K);
    }
  }
}

TEST(SlicedPlanTest, BsrEnabledModelBindsSlicesOnBlockRows) {
  // A model that confidently predicts BSR binds the block-diagonal FEM
  // matrix through Smat::tune; the slices start on block rows, and
  // multiply() runs the column-at-a-time path over the sliced apply().
  LearningModel Model;
  Model.BsrEnabled = true;
  Model.Rules.DefaultFormat = FormatKind::BSR;
  Model.Rules.DefaultConfidence = 1.0;
  Model.Kernels = serialPicks();
  Model.refreshRuleMetadata();
  const Smat<double> Tuner(Model);
  CsrMatrix<double> A = blockFem(20000, 4, 0.0, 73);
  ASSERT_GE(A.nnz(), SlicedPlanGrain);
  TuneOptions Opts;
  Opts.AllowMeasure = false; // The model's answer, no timing override.

  TunedSpmv<double> Op = Tuner.tune(A, Opts);
  TunedSpmv<double> One;
  {
    OmpThreadsScope Serial(1);
    One = Tuner.tune(A, Opts);
  }
  ASSERT_EQ(Op.format(), FormatKind::BSR);
  EXPECT_EQ(Op.formatOperator().numSlices(), detail::teamSize());
  EXPECT_EQ(One.formatOperator().numSlices(), 1);
  EXPECT_EQ(Op.kernelName(), One.kernelName());
  EXPECT_STREQ(Op.spmmKernelName(), One.spmmKernelName());
  for (index_t K : {index_t(1), index_t(2), index_t(5), index_t(8)})
    expectMatchesRefSpmv(Op.formatOperator(), A, K);
}

TEST(SlicedPlanTest, ThreadedPicksAndCsrBindsStayUnsliced) {
  CsrMatrix<double> A = boundedDegreeRandom(50000, 50000, 6, 8, 74);
  ASSERT_GE(A.nnz(), SlicedPlanGrain);
  KernelSelection Sel = serialPicks();
  Sel.BestKernel[static_cast<int>(FormatKind::COO)] =
      kernelIndex(kernelTable<double>().Coo, "coo_omp_rowsplit");

  auto Coo = bindFormatOperator(A, FormatKind::COO, Sel);
  ASSERT_EQ(Coo->kind(), FormatKind::COO);
  EXPECT_STREQ(Coo->kernelName(), "coo_omp_rowsplit");
  EXPECT_EQ(Coo->numSlices(), 1);
  expectMatchesRefSpmv(*Coo, A, 1);

  auto Borrowed = bindFormatOperator(A, FormatKind::CSR, Sel);
  EXPECT_EQ(Borrowed->numSlices(), 1);
  EXPECT_FALSE(Borrowed->ownsStorage());
  expectMatchesRefSpmv(*Borrowed, A, 1);

  auto Owned = bindFormatOperator(A, FormatKind::CSR, Sel, CsrStorage::Owned);
  EXPECT_EQ(Owned->numSlices(), 1);
  EXPECT_TRUE(Owned->ownsStorage());
  expectMatchesRefSpmv(*Owned, A, 8);

  auto Basic = basicCsrOperator(A);
  EXPECT_EQ(Basic->numSlices(), 1);
  EXPECT_FALSE(Basic->ownsStorage());
}

TEST(SlicedPlanTest, WholeMatrixDiaGuardDecidesTheFormat) {
  // Each quarter of the rows holds its own 300 diagonals: 1200 in all, over
  // the 1024-diagonal guard, while a balanced slice of at most half the rows
  // touches at most three quarters (900). The whole-matrix guard still
  // decides, so the bind falls back to CSR.
  const index_t N = 1000, PerQuarter = 300;
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t Row = 0; Row < N; ++Row)
    for (index_t J = 0; J < PerQuarter; ++J) {
      R.push_back(Row);
      C.push_back(Row + (Row * 4 / N) * PerQuarter + J);
      V.push_back(1.0 + 0.001 * J);
    }
  CsrMatrix<double> A = csrFromTriplets<double>(
      N, N + 4 * PerQuarter, std::move(R), std::move(C), std::move(V));
  ASSERT_GE(A.nnz(), SlicedPlanGrain);
  ASSERT_FALSE(diaFits(A));
  std::vector<index_t> Bounds = balancedRowBounds(A, detail::teamSize());
  for (std::size_t S = 0; Bounds.size() > 2 && S + 1 < Bounds.size(); ++S)
    EXPECT_TRUE(diaFits(csrRowSlice(A, Bounds[S], Bounds[S + 1])))
        << "slice " << S << " alone passes the guard";

  auto Op = bindFormatOperator(A, FormatKind::DIA, serialPicks());
  EXPECT_EQ(Op->kind(), FormatKind::CSR);
  EXPECT_EQ(Op->numSlices(), 1);
  expectMatchesRefSpmv(*Op, A, 1);
}

TEST(SlicedPlanTest, BalancedRowBoundsSplitTheEntriesEvenly) {
  CsrMatrix<double> A = laplace2d5pt(40, 40);
  std::vector<index_t> Bounds = balancedRowBounds(A, 4);
  ASSERT_EQ(Bounds.size(), 5u);
  EXPECT_EQ(Bounds.front(), 0);
  EXPECT_EQ(Bounds.back(), A.NumRows);
  for (std::size_t S = 0; S + 1 < Bounds.size(); ++S) {
    std::int64_t Entries = A.RowPtr[Bounds[S + 1]] - A.RowPtr[Bounds[S]];
    EXPECT_NEAR(static_cast<double>(Entries), A.nnz() / 4.0, 10.0);
  }
  // Cuts land on multiples of the alignment, and a matrix with fewer rows
  // than slices gets one slice per row.
  for (index_t Cut : balancedRowBounds(A, 4, 8))
    EXPECT_TRUE(Cut % 8 == 0 || Cut == A.NumRows);
  EXPECT_EQ(balancedRowBounds(banded(3, 1), 8).size(), 4u);
  EXPECT_EQ(balancedRowBounds(CsrMatrix<double>(0, 0), 4),
            (std::vector<index_t>{0, 0}));

  CsrMatrix<double> S = csrRowSlice(A, Bounds[1], Bounds[2]);
  EXPECT_TRUE(S.isValid());
  EXPECT_EQ(S.NumRows, Bounds[2] - Bounds[1]);
  EXPECT_EQ(S.nnz(), A.RowPtr[Bounds[2]] - A.RowPtr[Bounds[1]]);
}

// --- PlanCache --------------------------------------------------------------

TEST(PlanCacheTest, HitMissInsertEvictLru) {
  // One LRU order over the whole cache: it fills to capacity without
  // evicting, and the next insert evicts the least recently used of all.
  constexpr int Capacity = 16;
  PlanCache Cache(Capacity);
  auto Fp = [](int I) {
    PlanFingerprint F;
    F.RowsLog2 = static_cast<std::int16_t>(I);
    return F;
  };

  CachedPlan Plan;
  EXPECT_FALSE(Cache.lookup(Fp(0), Plan));
  Cache.insert(Fp(0), {FormatKind::DIA, 0.5});
  ASSERT_TRUE(Cache.lookup(Fp(0), Plan));
  EXPECT_EQ(Plan.Format, FormatKind::DIA);
  EXPECT_DOUBLE_EQ(Plan.CsrSpmvSeconds, 0.5);
  for (int I = 1; I < Capacity; ++I)
    Cache.insert(Fp(I), {FormatKind::ELL, 0.1});
  EXPECT_EQ(Cache.size(), static_cast<std::size_t>(Capacity));
  EXPECT_EQ(Cache.stats().Evictions, 0u) << "a full cache holds every plan";

  // Refreshing Fp(0) leaves Fp(1) least recently used.
  EXPECT_TRUE(Cache.lookup(Fp(0), Plan));
  Cache.insert(Fp(Capacity), {FormatKind::COO, 0.2});
  EXPECT_EQ(Cache.size(), static_cast<std::size_t>(Capacity));
  EXPECT_FALSE(Cache.lookup(Fp(1), Plan)) << "least recently used must go";
  EXPECT_TRUE(Cache.lookup(Fp(0), Plan));
  EXPECT_TRUE(Cache.lookup(Fp(Capacity), Plan));

  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 4u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.Inserts, static_cast<std::uint64_t>(Capacity) + 1);
  EXPECT_EQ(Stats.Evictions, 1u);

  // Overwriting an existing key is an insert, not an eviction.
  Cache.insert(Fp(2), {FormatKind::CSR, 0.3});
  ASSERT_TRUE(Cache.lookup(Fp(2), Plan));
  EXPECT_EQ(Plan.Format, FormatKind::CSR);
  EXPECT_EQ(Cache.stats().Evictions, 1u);

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Hits, 5u) << "counters survive clear()";
}

TEST(PlanCacheTest, FingerprintGroupsEquivalentStructure) {
  FeatureVector A = extractStructureFeatures(banded(1000, 2));
  FeatureVector B = extractStructureFeatures(banded(1000, 2));
  EXPECT_EQ(fingerprintFeatures(A), fingerprintFeatures(B));

  // Same shape, same nnz scale, radically different structure.
  FeatureVector C =
      extractStructureFeatures(powerLawGraph(1000, 2.0, 1, 100, 3));
  EXPECT_FALSE(fingerprintFeatures(A) == fingerprintFeatures(C));
}

TEST(SmatCacheTest, WarmTuneReusesPlanAndSkipsMeasurement) {
  const Smat<double> &Tuner = sharedTuner();
  PlanCache Cache;
  TuneOptions Opts;
  Opts.Cache = &Cache;
  Opts.MeasureMinSeconds = 1e-4;

  CsrMatrix<double> A = banded(1500, 3);
  TunedSpmv<double> Cold = Tuner.tune(A, Opts);
  EXPECT_FALSE(Cold.report().PlanCacheHit);

  TunedSpmv<double> Warm = Tuner.tune(A, Opts);
  EXPECT_TRUE(Warm.report().PlanCacheHit);
  EXPECT_TRUE(Warm.report().MeasuredCandidates.empty());
  EXPECT_EQ(Warm.format(), Cold.format());
  EXPECT_DOUBLE_EQ(Warm.report().CsrSpmvSeconds,
                   Cold.report().CsrSpmvSeconds)
      << "the cached baseline is reused verbatim";

  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Inserts, 1u);

  // The warm operator is a real, correct operator, not a stale pointer.
  auto X = randomVector<double>(1500, 37);
  std::vector<double> Y(1500, -1.0);
  Warm.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
}

TEST(SmatCacheTest, ForceMeasureBypassesLookupButStillInserts) {
  const Smat<double> &Tuner = sharedTuner();
  PlanCache Cache;
  TuneOptions Opts;
  Opts.Cache = &Cache;
  Opts.MeasureMinSeconds = 1e-4;

  CsrMatrix<double> A = banded(1200, 2);
  (void)Tuner.tune(A, Opts); // Seed the cache.
  std::uint64_t HitsBefore = Cache.stats().Hits;

  TuneOptions Force = Opts;
  Force.ForceMeasure = true;
  TunedSpmv<double> Op = Tuner.tune(A, Force);
  EXPECT_FALSE(Op.report().PlanCacheHit)
      << "forced measurement must not consume a cached plan";
  EXPECT_GT(Op.report().MeasureSeconds, 0.0) << "the race must run";
  EXPECT_EQ(Cache.stats().Hits, HitsBefore);
  EXPECT_GE(Cache.stats().Inserts, 2u)
      << "the fresh ground-truth plan refreshes the cache";
}

TEST(SmatCacheTest, BatchWidthBucketsMissIndependently) {
  const Smat<double> &Tuner = sharedTuner();
  PlanCache Cache;
  TuneOptions Opts;
  Opts.Cache = &Cache;
  Opts.MeasureMinSeconds = 1e-4;

  CsrMatrix<double> A = banded(1400, 3);
  // Cold single-vector tune fills the SpMV (width-0) bucket.
  EXPECT_FALSE(Tuner.tune(A, Opts).report().PlanCacheHit);

  // First batched tune at k=8: same structure, new width bucket — a miss
  // that re-measures, not a collision with the SpMV plan.
  TuneOptions Batch8 = Opts;
  Batch8.BatchWidth = 8;
  TunedSpmv<double> Cold8 = Tuner.tune(A, Batch8);
  EXPECT_FALSE(Cold8.report().PlanCacheHit)
      << "a new batch width must miss its own bucket";

  // Warm tune at the same width hits, and the per-stage timings show what a
  // hit skips: prediction and measurement never run, while features (the
  // fingerprint input) and the bind still do.
  TunedSpmv<double> Warm8 = Tuner.tune(A, Batch8);
  EXPECT_TRUE(Warm8.report().PlanCacheHit);
  EXPECT_TRUE(Warm8.report().MeasuredCandidates.empty());
  EXPECT_EQ(Warm8.report().PredictSeconds, 0.0);
  EXPECT_EQ(Warm8.report().MeasureSeconds, 0.0);
  EXPECT_GT(Warm8.report().FeatureSeconds, 0.0);
  EXPECT_GT(Warm8.report().BindSeconds, 0.0);
  EXPECT_EQ(Warm8.format(), Cold8.format());

  // k=5 rounds up into the same <=8 register-tile bucket: also a hit.
  TuneOptions Batch5 = Opts;
  Batch5.BatchWidth = 5;
  EXPECT_TRUE(Tuner.tune(A, Batch5).report().PlanCacheHit);

  // k=16 is a different bucket: misses again.
  TuneOptions Batch16 = Opts;
  Batch16.BatchWidth = 16;
  EXPECT_FALSE(Tuner.tune(A, Batch16).report().PlanCacheHit);

  // The original SpMV bucket stayed warm through all of it.
  EXPECT_TRUE(Tuner.tune(A, Opts).report().PlanCacheHit);

  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 3u) << "one per distinct width bucket";
  EXPECT_EQ(Stats.Hits, 3u);
  EXPECT_EQ(Cache.size(), 3u);
}

// --- Stage timing in the report ---------------------------------------------

TEST(ReportTest, StageTimingsPopulatedAndConsistent) {
  const Smat<double> &Tuner = sharedTuner();
  CsrMatrix<double> A = banded(1500, 3);
  TunedSpmv<double> Op = Tuner.tune(A);
  const TuningReport &R = Op.report();

  EXPECT_GT(R.TuneSeconds, 0.0);
  EXPECT_GT(R.CsrSpmvSeconds, 0.0);
  EXPECT_GT(R.FeatureSeconds, 0.0);
  EXPECT_GE(R.PredictSeconds, 0.0);
  EXPECT_GE(R.MeasureSeconds, 0.0);
  EXPECT_GT(R.BindSeconds, 0.0);
  double StageSum = R.FeatureSeconds + R.PredictSeconds + R.MeasureSeconds +
                    R.BindSeconds;
  EXPECT_LE(StageSum, R.TuneSeconds + 1e-3)
      << "stages are sub-intervals of the tune wall clock";
}

// --- Model file loading ------------------------------------------------------

TEST(SmatIoTest, FromFileErrorsCarryThePath) {
  const std::string Bogus = testing::TempDir() + "/no_such_model_file.txt";

  std::string Error;
  auto Missing = Smat<double>::tryFromFile(Bogus, &Error);
  EXPECT_FALSE(Missing.has_value());
  EXPECT_NE(Error.find(Bogus), std::string::npos)
      << "the failure message must name the offending file: " << Error;

  try {
    (void)Smat<double>::fromFile(Bogus);
    FAIL() << "fromFile must throw on a missing file";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find(Bogus), std::string::npos);
  }

  // The happy path still round-trips.
  const std::string Good = testing::TempDir() + "/pipeline_model_ok.txt";
  ASSERT_TRUE(saveModelFile(Good, sharedModel()));
  auto Loaded = Smat<double>::tryFromFile(Good, &Error);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->model().Rules.size(), sharedModel().Rules.size());
}

// --- AMG client: one PlanCache across the hierarchy --------------------------

TEST(AmgCacheTest, HierarchySharesOneCache) {
  CsrMatrix<double> A = laplace2d5pt(40, 40);
  const Smat<double> &Tuner = sharedTuner();

  PlanCache Cache;
  AmgOptions Opts;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = &Tuner;
  Opts.Cache = &Cache;

  AmgSolver Solver;
  Solver.setup(A, Opts);
  EXPECT_EQ(Solver.planCache(), &Cache);

  PlanCacheStats S1 = Cache.stats();
  std::size_t NumOps = Solver.formatDecisions().size();
  EXPECT_EQ(S1.Hits + S1.Misses, NumOps)
      << "every tuned operator goes through the shared cache";
  EXPECT_EQ(S1.Inserts, S1.Misses);

  // A second setup over the same matrix re-tunes the same structures: every
  // single lookup must now hit.
  AmgSolver Solver2;
  Solver2.setup(A, Opts);
  PlanCacheStats S2 = Cache.stats();
  EXPECT_EQ(S2.Hits, S1.Hits + NumOps);
  EXPECT_EQ(S2.Misses, S1.Misses);

  // Cache-tuned operators must still solve correctly.
  auto XTrue = randomVector<double>(static_cast<std::size_t>(A.NumRows), 41);
  std::vector<double> B = denseSpmv(A, XTrue);
  std::vector<double> X;
  SolveStats Stats = Solver2.solve(B, X);
  ASSERT_TRUE(Stats.Converged) << "res " << Stats.RelResidual;
  expectVectorsNear(XTrue, X, 1e-6);
}

TEST(AmgCacheTest, SolverOwnsFallbackCache) {
  CsrMatrix<double> A = laplace2d5pt(30, 30);
  AmgOptions Opts;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = &sharedTuner();

  AmgSolver Solver;
  Solver.setup(A, Opts);
  ASSERT_NE(Solver.planCache(), nullptr)
      << "the Smat backend always tunes through a cache";
  PlanCacheStats Stats = Solver.planCache()->stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, Solver.formatDecisions().size());
}
