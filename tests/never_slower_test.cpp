//===- tests/never_slower_test.cpp - Never-slower selection guarantee -----===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The selection guarantee (DESIGN.md section 15): a tuned plan must not lose
// to the untuned basic-CSR plan. One mechanism enforces it: after the bind,
// CheckStage times basic CSR and the bound plan in alternating pairs and
// binds basic CSR when it wins by more than the noise floor. It checks every
// race winner and every confident plan the cost model does not endorse; the
// cost model prunes the race's candidate menu without ever pruning CSR. This
// file tests the check on fake operators (its verdicts and its pair counts),
// the ForceBasicCsr bind, the classifier masks and the report plumbing, and
// the end-to-end property over the pinned corpus (TestUtil.h) for SpMV and
// width-8 SpMM, plus the performance gates of DESIGN.md section 13.4, among
// them the plans a live TuningService publishes (this binary is
// RUN_SERIAL). Fault-armed variants skip themselves unless the
// build compiled the hooks in (SMAT_FAULT_INJECTION=ON; scripts/check.sh's
// -L fault pass runs them).
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"
#include "core/Smat.h"
#include "core/Trainer.h"
#include "core/TuningPipeline.h"
#include "core/TuningService.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/Generators.h"
#include "support/AlignedAlloc.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

/// Asserts that \p Op computes y = A*x correctly against the dense
/// reference; works for TunedSpmv and bare FormatOperators alike.
template <typename OpT>
void expectSpmvMatches(const OpT &Op, const CsrMatrix<double> &A,
                       std::uint64_t Seed = 7) {
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), Seed);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

/// Arms a fault schedule for the test body and disarms it on scope exit.
struct FaultScope {
  explicit FaultScope(const fault::FaultConfig &Cfg) { fault::configure(Cfg); }
  ~FaultScope() { fault::reset(); }
};

/// Min-of-samples GFLOPS of \p Fn -- the same robust discipline the runtime
/// uses, so both sides of every comparison share one noise model.
template <typename FnT>
double robustGflops(std::uint64_t Flnnz, double MinSeconds, FnT Fn) {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = MinSeconds;
  return spmvGflops(Flnnz,
                    robustMeasureSecondsPerCall(Fn, Opts).SecondsPerCall);
}

/// The end-to-end acceptance floor. The serial never-slower gate below
/// enforces the tight 10% noise floor over a median of seven timing pairs;
/// the property test's three pairs of short re-measurements can swing
/// further, so it asserts the gross bound that the pre-guardrail powerlaw
/// mispick (tuned at 49% of basic) clearly violated while honest picks
/// clearly satisfy.
constexpr double TestNoiseFloor = 0.60;

/// How expectNeverSlower times a tuned plan against basic CSR: Pairs
/// alternating (basic, tuned) robust timings of MinSeconds each, of which
/// the pair with the median ratio must reach Floor. One pair is not enough
/// even when the tuned plan runs the basic kernel itself: such a
/// self-comparison read 0.50-0.58 in 2 of 105 runs.
struct NeverSlowerTiming {
  int Pairs = 3;
  double MinSeconds = 5e-4;
  double Floor = TestNoiseFloor;
};

/// (basic, tuned) GFLOPS of the pair with the median ratio among
/// \p Timing.Pairs alternating robust timings of \p Basic and \p Tuned.
/// Basic and tuned alternate, so drift of the host lands on both sides.
template <typename BasicFn, typename TunedFn>
std::pair<double, double> medianTimingPair(std::uint64_t Flnnz,
                                           const NeverSlowerTiming &Timing,
                                           BasicFn Basic, TunedFn Tuned) {
  std::vector<std::pair<double, double>> Pairs;
  for (int I = 0; I < Timing.Pairs; ++I) {
    double BasicG = robustGflops(Flnnz, Timing.MinSeconds, Basic);
    Pairs.emplace_back(BasicG, robustGflops(Flnnz, Timing.MinSeconds, Tuned));
  }
  auto Median = Pairs.begin() + static_cast<std::ptrdiff_t>(Pairs.size() / 2);
  std::nth_element(Pairs.begin(), Median, Pairs.end(),
                   [](const auto &L, const auto &R) {
                     return L.second / L.first < R.second / R.first;
                   });
  return *Median;
}

/// The tuned_never_slower property for one matrix at batch width \p K:
/// tunes \p Case (through SMAT_dCSR_SpMM when K > 1), checks the tuned
/// results, times the plan against the strategy-free basic CSR kernel as
/// \p Timing says, and prints the ratio and the tune's overhead.
TuningReport expectNeverSlower(const Smat<double> &Tuner,
                               const CorpusCase &Case, const TuneOptions &Opts,
                               index_t K, const NeverSlowerTiming &Timing) {
  const CsrMatrix<double> &A = Case.A;
  const KernelTable<double> &Kernels = kernelTable<double>();
  TunedSpmv<double> Op =
      K > 1 ? SMAT_dCSR_SpMM(Tuner, A, K, Opts) : Tuner.tune(A, Opts);
  const auto Width = static_cast<std::size_t>(K);
  AlignedVector<double> X(static_cast<std::size_t>(A.NumCols) * Width, 1.0);
  AlignedVector<double> Yb(static_cast<std::size_t>(A.NumRows) * Width, 0.0);
  AlignedVector<double> Yt(Yb.size(), 0.0);
  auto Basic = [&] {
    if (K > 1)
      Kernels.CsrSpmm[0].Fn(A, X.data(), Yb.data(), K);
    else
      Kernels.Csr[0].Fn(A, X.data(), Yb.data());
  };
  auto Tuned = [&] {
    if (K > 1)
      Op.multiply(X.data(), Yt.data(), K);
    else
      Op.apply(X.data(), Yt.data());
  };
  const TuningReport &R = Op.report();
  if (K > 1) {
    for (const MeasuredCandidate &C : R.MeasuredCandidates)
      if (C.IsBaseline) {
        EXPECT_EQ(C.Kernel, Kernels.CsrSpmm[0].Name)
            << Case.Name << ": the check times basic SpMM at width " << K;
        EXPECT_GT(R.BaselineGflops, 0.0) << Case.Name;
      }
    Basic();
    Tuned();
    expectVectorsNear(std::vector<double>(Yb.begin(), Yb.end()),
                      std::vector<double>(Yt.begin(), Yt.end()), 1e-10);
  } else {
    expectSpmvMatches(Op, A);
  }

  const std::uint64_t Flnnz =
      static_cast<std::uint64_t>(A.nnz()) * static_cast<std::uint64_t>(K);
  const auto [BasicGflops, TunedGflops] =
      medianTimingPair(Flnnz, Timing, Basic, Tuned);
  std::printf("%-14s k=%d  tuned/basic %6.3f  overhead %7.1f CSR SpMVs\n",
              Case.Name.c_str(), static_cast<int>(K),
              TunedGflops / BasicGflops,
              Op.report().TuneSeconds / quickSpmvSeconds(A));
  EXPECT_GE(TunedGflops, BasicGflops * Timing.Floor)
      << Case.Name << ": tuned " << TunedGflops << " GFLOPS vs "
      << (K > 1 ? "basic_x8 " : "basic ") << BasicGflops
      << " GFLOPS (median of " << Timing.Pairs << " pairs, format "
      << formatName(Op.format()) << ", kernel "
      << (K > 1 ? Op.spmmKernelName() : Op.kernelName())
      << (Op.report().GuardrailEngaged ? ", guardrail engaged" : "") << ")";
  return Op.report();
}

} // namespace

// --- Analytic cost model (CostModel.h) --------------------------------------

TEST(CostModelTest, CsrIsAlwaysAllowed) {
  for (const CorpusCase &Case : smokeCorpus()) {
    FeatureVector F = extractAllFeatures(Case.A);
    CostModelDecision D = classifyBottleneck(F);
    EXPECT_TRUE(D.allows(FormatKind::CSR))
        << Case.Name << ": CSR is the guardrail's plan and must never be "
        << "pruned";
    EXPECT_GE(D.numAllowed(), 1);
  }
}

TEST(CostModelTest, SkewedRowsClassifyImbalanceBound) {
  // Row CV above the threshold must dominate every fill-efficiency signal:
  // the cure for imbalance is a load-balanced CSR kernel, not a conversion.
  FeatureVector F;
  F.M = F.N = 1000;
  F.Nnz = 5000;
  F.AverRd = 5;
  F.VarRd = 400; // CV = 4
  F.MaxRd = 400;
  F.Ndiags = 3;
  F.ErDia = 1.0; // would otherwise scream DIA
  F.ErEll = 1.0;
  CostModelDecision D = classifyBottleneck(F);
  EXPECT_EQ(D.Class, BottleneckClass::ImbalanceBound);
  EXPECT_EQ(D.numAllowed(), 1) << "imbalance-bound races CSR kernels only";
  EXPECT_TRUE(D.allows(FormatKind::CSR));
}

TEST(CostModelTest, DiagonalStructureClassifiesBandwidthBound) {
  FeatureVector F = extractAllFeatures(banded(4000, 3));
  CostModelDecision D = classifyBottleneck(F);
  EXPECT_EQ(D.Class, BottleneckClass::BandwidthBound);
  EXPECT_TRUE(D.allows(FormatKind::DIA));
  EXPECT_TRUE(D.allows(FormatKind::CSR));
  EXPECT_FALSE(D.allows(FormatKind::COO))
      << "a dense band never wants the flat nonzero stream";
}

TEST(CostModelTest, ScatteredStructureClassifiesIrregularityBound) {
  // Low-degree scattered graph: no diagonal structure, poor ELL fill, mild
  // skew -- the irregularity remainder where COO is the only alternative.
  FeatureVector F;
  F.M = F.N = 10000;
  F.Nnz = 30000;
  F.AverRd = 3;
  F.VarRd = 1; // CV ~ 0.33
  F.MaxRd = 60;
  F.Ndiags = 9000; // blows the DIA guard
  F.ErDia = 0.001;
  F.ErEll = 0.05;
  F.ErBsr = 0.1;
  CostModelDecision D = classifyBottleneck(F);
  EXPECT_EQ(D.Class, BottleneckClass::IrregularityBound);
  EXPECT_TRUE(D.allows(FormatKind::COO));
  EXPECT_FALSE(D.allows(FormatKind::DIA));
  EXPECT_FALSE(D.allows(FormatKind::ELL));
}

TEST(CostModelTest, ThresholdsGateTheClassification) {
  FeatureVector F;
  F.M = F.N = 1000;
  F.Nnz = 5000;
  F.AverRd = 5;
  F.VarRd = 9; // CV = 0.6
  F.Ndiags = 5;
  F.ErDia = 0.55;
  CostModelThresholds Strict;
  Strict.ImbalanceRowCv = 0.5; // now 0.6 counts as skewed
  EXPECT_EQ(classifyBottleneck(F).Class, BottleneckClass::BandwidthBound);
  EXPECT_EQ(classifyBottleneck(F, Strict).Class,
            BottleneckClass::ImbalanceBound);
}

// --- CheckStage: the never-slower check on fake operators ------------------

namespace {

/// A stand-in bound plan over \p A's shape: Work runs once per call, so a
/// test sets how fast the plan is without a real kernel.
class FakeOperator final : public FormatOperator<double> {
public:
  FakeOperator(const CsrMatrix<double> &A, std::function<void()> Work)
      : Rows(A.NumRows), Cols(A.NumCols), Work(std::move(Work)) {}
  void apply(const double *, double *) const override { Work(); }
  void multiply(const double *, double *, index_t) const override { Work(); }
  FormatKind kind() const override { return FormatKind::ELL; }
  const char *kernelName() const override { return "fake"; }
  const char *spmmKernelName() const override { return "fake"; }
  index_t numRows() const override { return Rows; }
  index_t numCols() const override { return Cols; }
  bool ownsStorage() const override { return true; }
  index_t numSlices() const override { return 1; }

private:
  index_t Rows, Cols;
  std::function<void()> Work;
};

} // namespace

TEST(CheckStageTest, SlowBoundPlanIsReplacedByBasicCsr) {
  CsrMatrix<double> A = banded(1500, 2);
  auto Basic = basicCsrOperator(A);
  FakeOperator Slow(A, [] {
    WallTimer Spin;
    while (Spin.seconds() < 1e-3) {
    }
  });
  for (index_t K : {index_t(1), index_t(8)}) {
    CheckStageResult C = CheckStage::run(*Basic, Slow, K);
    EXPECT_TRUE(C.BasicWins) << "k=" << K;
    EXPECT_EQ(C.Pairs, CheckStage::MinPairs)
        << "k=" << K << ": a 1 ms plan clears the floor at once";
    EXPECT_GE(C.BoundSecondsPerCall, 1e-3);
    EXPECT_GT(C.BoundSeconds, C.BasicSeconds);
  }
}

TEST(CheckStageTest, NoOpBoundPlanIsKeptAfterMinPairs) {
  CsrMatrix<double> A = banded(1500, 2);
  auto Basic = basicCsrOperator(A);
  CheckStageResult C = CheckStage::run(*Basic, FakeOperator(A, [] {}), 1);
  EXPECT_FALSE(C.BasicWins);
  EXPECT_EQ(C.Pairs, CheckStage::MinPairs);
  EXPECT_LT(C.BoundSecondsPerCall, C.BasicSecondsPerCall);
}

TEST(CheckStageTest, BasicKernelAgainstItselfIsKeptWithinThePairCap) {
  CsrMatrix<double> A = banded(2000, 3);
  auto Basic = basicCsrOperator(A);
  auto Same = basicCsrOperator(A);
  // Three pairs of 0.1 ms samples of one kernel can still disagree by more
  // than the floor on a shared host. As in perfbench's same-kernel check, a
  // disagreement is measured again before it counts.
  CheckStageResult C;
  for (int Try = 0; Try < 3 && (Try == 0 || C.BasicWins); ++Try)
    C = CheckStage::run(*Basic, *Same, 1);
  EXPECT_FALSE(C.BasicWins) << "basic " << C.BasicSecondsPerCall
                            << " s/call vs itself " << C.BoundSecondsPerCall
                            << " s/call after " << C.Pairs << " pairs";
  EXPECT_GE(C.Pairs, CheckStage::MinPairs);
  EXPECT_LE(C.Pairs, CheckStage::MaxPairs);
}

TEST(GuardrailRaceTest, CostModelMaskRestrictsTheRaceToCsr) {
  // An imbalance-bound decision admits CSR only; the race must measure no
  // other format even on a band where DIA/ELL are structurally plausible.
  CsrMatrix<double> A = banded(1500, 2);
  LearningModel Model = strictModel();
  TuneOptions Opts = fastTune();
  TuningContext<double> Ctx{A, Model, Opts};
  FeatureStageResult F = FeatureStage::run(Ctx);

  CostModelDecision CsrOnly;
  CsrOnly.Class = BottleneckClass::ImbalanceBound;
  CsrOnly.Allowed[static_cast<std::size_t>(FormatKind::CSR)] = true;
  MeasureStageResult<double> M =
      MeasureStage::run(Ctx, F, FormatKind::CSR, &CsrOnly);
  ASSERT_FALSE(M.Candidates.empty());
  for (const MeasuredCandidate &C : M.Candidates)
    EXPECT_EQ(C.Format, FormatKind::CSR);
  EXPECT_EQ(M.Best, FormatKind::CSR);
}

// --- BindStage: the forced untuned plan -------------------------------------

TEST(GuardrailBindTest, ForceBasicCsrBindsTheUntunedPlan) {
  CsrMatrix<double> A = banded(800, 2);
  LearningModel Model = strictModel();
  TuneOptions Opts = fastTune();
  TuningContext<double> Ctx{A, Model, Opts};
  FeatureStageResult F = FeatureStage::run(Ctx);

  // Even a DIA request (which the band would happily satisfy) must yield
  // the basic CSR kernels with no conversion and no degradation: binding
  // the untuned plan is the guardrail's decision, not a failure.
  BindStageResult<double> B =
      BindStage::run(Ctx, FormatKind::DIA, &F.Features, /*ForceBasicCsr=*/true);
  ASSERT_TRUE(B.Op);
  EXPECT_EQ(B.BoundFormat, FormatKind::CSR);
  EXPECT_EQ(B.KernelName, kernelTable<double>().Csr[0].Name);
  EXPECT_EQ(B.Degradation, DegradationLevel::None);
  expectSpmvMatches(*B.Op, A);
}

// --- End-to-end report plumbing ---------------------------------------------

TEST(GuardrailReportTest, ColdRaceRecordsBaselineAndCandidates) {
  auto Corpus = smokeCorpus();
  Smat<double> Tuner(strictModel());
  const KernelTable<double> &Kernels = kernelTable<double>();
  for (const CorpusCase &Case : Corpus) {
    TunedSpmv<double> Op = Tuner.tune(Case.A, fastTune());
    const TuningReport &R = Op.report();
    EXPECT_GE(R.TuneSeconds, 0.0) << Case.Name;
    int Baselines = 0, Raced = 0;
    for (const MeasuredCandidate &C : R.MeasuredCandidates) {
      Baselines += C.IsBaseline ? 1 : 0;
      Raced += C.IsBaseline ? 0 : 1;
    }
    EXPECT_GT(Raced, 0) << Case.Name;
    // The strict model binds the basic CSR kernels, so a CSR winner is
    // already basic and needs no check.
    const bool WinnerIsBasic = R.ChosenFormat == FormatKind::CSR &&
                               R.KernelName == Kernels.Csr[0].Name &&
                               !R.GuardrailEngaged;
    EXPECT_EQ(Baselines, WinnerIsBasic ? 0 : 1)
        << Case.Name << ": exactly one baseline entry per race, unless the "
        << "winner is already basic (" << formatName(R.ChosenFormat) << ", "
        << R.KernelName << ")";
    EXPECT_EQ(R.BaselineGflops > 0.0, Baselines == 1) << Case.Name;
    EXPECT_EQ(R.BaselineSeconds > 0.0, Baselines == 1)
        << Case.Name << ": only the check times basic CSR";
    if (R.GuardrailEngaged) {
      EXPECT_EQ(R.ChosenFormat, FormatKind::CSR) << Case.Name;
      EXPECT_EQ(R.KernelName, kernelTable<double>().Csr[0].Name) << Case.Name;
    }
  }
}

TEST(GuardrailReportTest, BatchedCsrPlanWithTunedSpmmIsChecked) {
  // A CSR plan whose SpMV kernel is basic but whose SpMM kernel is not is
  // not the untuned plan at k=8: the check must run.
  const KernelTable<double> &Kernels = kernelTable<double>();
  ASSERT_GT(Kernels.CsrSpmm.size(), 1u);
  LearningModel Model = strictModel();
  Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(FormatKind::CSR)] = 1;
  Smat<double> Tuner(Model);
  // Skewed rows classify imbalance-bound: the race is CSR alone.
  CsrMatrix<double> A = powerLawGraph(3000, 2.0, 1, 300, 5);
  TunedSpmv<double> Op = SMAT_dCSR_SpMM(Tuner, A, 8, fastTune());
  const TuningReport &R = Op.report();
  if (!R.GuardrailEngaged) {
    ASSERT_EQ(R.ChosenFormat, FormatKind::CSR);
    ASSERT_EQ(R.KernelName, Kernels.Csr[0].Name);
    ASSERT_EQ(std::string(Op.spmmKernelName()), Kernels.CsrSpmm[1].Name);
  }
  int Baselines = 0;
  for (const MeasuredCandidate &C : R.MeasuredCandidates)
    if (C.IsBaseline) {
      ++Baselines;
      EXPECT_EQ(C.Kernel, Kernels.CsrSpmm[0].Name);
    }
  EXPECT_EQ(Baselines, 1) << "the check compares width-8 SpMM kernels";
  EXPECT_GT(R.BaselineGflops, 0.0);
  EXPECT_GT(R.GuardrailSeconds, 0.0);
}

namespace {

/// Tunes \p A under a RecordSites pass (a no-op without the fault hooks)
/// and checks that a tune whose never-slower check did not run times no
/// basic CSR: it reports no baseline and never reaches the check's basic
/// side.
TuningReport expectNoBasicCsrTimed(const Smat<double> &Tuner,
                                   const CsrMatrix<double> &A,
                                   const TuneOptions &Opts) {
  fault::FaultConfig Record;
  Record.RecordSites = true;
  FaultScope Scope(Record);
  TuningReport R = Tuner.tune(A, Opts).report();
  EXPECT_EQ(R.BaselineSeconds, 0.0);
  EXPECT_DOUBLE_EQ(R.BaselineGflops, 0.0);
  const std::vector<std::string> Sites = fault::observedSites();
  EXPECT_EQ(fault::CompiledIn, !Sites.empty());
  EXPECT_EQ(std::count(Sites.begin(), Sites.end(), "measure.baseline"), 0);
  return R;
}

} // namespace

TEST(GuardrailReportTest, NoMeasureTuneKeepsGuardrailInactive) {
  // The guardrail is a measurement; AllowMeasure=false tunes stay fully
  // deterministic, so it must not run there, and nothing else times basic
  // CSR either.
  CsrMatrix<double> A = powerLawGraph(800, 2.0, 1, 80, 5);
  Smat<double> Tuner(strictModel());
  TuneOptions Opts = fastTune();
  Opts.AllowMeasure = false;

  TuningReport First = expectNoBasicCsrTimed(Tuner, A, Opts);
  TunedSpmv<double> Second = Tuner.tune(A, Opts);
  EXPECT_FALSE(First.GuardrailEngaged);
  EXPECT_TRUE(First.MeasuredCandidates.empty());
  EXPECT_EQ(First.ChosenFormat, Second.report().ChosenFormat);
  EXPECT_EQ(First.KernelName, Second.report().KernelName);
}

TEST(GuardrailReportTest, EndorsedConfidentPlanTimesNoBasicCsr) {
  // The committed model is confident on every pinned matrix and the cost
  // model endorses each plan, so the check is skipped and the tune times
  // no basic CSR at either width.
  std::string Error;
  std::optional<Smat<double>> Tuner =
      Smat<double>::tryFromFile(SMAT_TEST_MODEL_PATH, &Error);
  ASSERT_TRUE(Tuner) << Error;
  for (const CorpusCase &Case : smokeCorpus())
    for (index_t K : {index_t(1), index_t(8)}) {
      SCOPED_TRACE(Case.Name + " k=" + std::to_string(K));
      TuneOptions Opts;
      Opts.BatchWidth = K;
      TuningReport R = expectNoBasicCsrTimed(*Tuner, Case.A, Opts);
      EXPECT_TRUE(R.ModelConfident);
      EXPECT_TRUE(R.MeasuredCandidates.empty()) << "the check was skipped";
    }
}

TEST(GuardrailReportTest, EngagementCounterMatchesTheReports) {
  auto Corpus = smokeCorpus();
  Smat<double> Tuner(strictModel());
  std::uint64_t Engaged = 0;
  for (const CorpusCase &Case : Corpus) {
    TunedSpmv<double> Op = Tuner.tune(Case.A, fastTune());
    Engaged += Op.report().GuardrailEngaged ? 1 : 0;
  }
  SmatResilienceCounters Counters = Tuner.resilienceCounters();
  EXPECT_EQ(Counters.GuardrailEngagements, Engaged);
  EXPECT_EQ(Counters.Tunes, Corpus.size());
}

// --- The tuned_never_slower property (SpMV and width-8 SpMM) ----------------

TEST(NeverSlowerPropertyTest, TunedSpmvNeverGrosslySlowerThanBasicCsr) {
  Smat<double> Tuner(strictModel());
  for (const CorpusCase &Case : smokeCorpus())
    expectNeverSlower(Tuner, Case, fastTune(), 1, NeverSlowerTiming());
}

TEST(NeverSlowerPropertyTest, TunedSpmmK8NeverGrosslySlowerThanBasicCsr) {
  Smat<double> Tuner(strictModel());
  for (const CorpusCase &Case : smokeCorpus())
    expectNeverSlower(Tuner, Case, fastTune(), 8, NeverSlowerTiming());
}

// --- Performance gates (Release builds without a sanitizer) -----------------
//
// The committed model takes the confident path on every pinned matrix,
// including the endorsed verify skip, which strictModel() never reaches.

namespace {

/// Paper Table 3's overhead bound, in basic CSR SpMVs per tune: 2.5x the
/// worst reading on a 4-vCPU host (native, portable or serial, under load).
constexpr double MaxOverheadCsrSpmvs = 100.0;

/// The never-slower and overhead gates for the committed model's tune of
/// every pinned matrix at width \p K.
void expectCommittedModelGates(index_t K) {
  std::string Error;
  std::optional<Smat<double>> Tuner =
      Smat<double>::tryFromFile(SMAT_TEST_MODEL_PATH, &Error);
  ASSERT_TRUE(Tuner) << Error;
  const NeverSlowerTiming Gate{7, 2e-3, 1.0 - GuardrailNoiseFloor};
  for (const CorpusCase &Case : smokeCorpus()) {
    TuningReport R = expectNeverSlower(*Tuner, Case, TuneOptions(), K, Gate);
    const double Unit = quickSpmvSeconds(Case.A);
    ASSERT_GT(Unit, 0.0) << Case.Name << ": no overhead unit measured";
    EXPECT_LE(R.TuneSeconds / Unit, MaxOverheadCsrSpmvs)
        << Case.Name << " k=" << K << ": tune " << R.TuneSeconds * 1e3
        << " ms vs one basic CSR SpMV " << Unit * 1e6 << " us";
  }
}

} // namespace

TEST(NeverSlowerGateTest, CommittedModelSpmv) {
  if (!TimingGatesEnforced)
    GTEST_SKIP() << TimingGatesSkipReason;
  expectCommittedModelGates(1);
}

TEST(NeverSlowerGateTest, CommittedModelSpmmK8) {
  if (!TimingGatesEnforced)
    GTEST_SKIP() << TimingGatesSkipReason;
  expectCommittedModelGates(8);
}

TEST(NeverSlowerGateTest, LiveServicePlansAboveTheGrain) {
  if (!TimingGatesEnforced)
    GTEST_SKIP() << TimingGatesSkipReason;
  // The plans a live TuningService publishes for a band and a power-law
  // graph above the grain. Its worker binds and checks them on one OpenMP
  // thread; the caller runs them as row slices on its default team, timed
  // against basic CSR in alternating pairs with the gate's floor while the
  // service lives.
  std::string Error;
  std::optional<Smat<double>> Tuner =
      Smat<double>::tryFromFile(SMAT_TEST_MODEL_PATH, &Error);
  ASSERT_TRUE(Tuner) << Error;
  TuningService<double> Service(std::move(*Tuner));
  std::vector<CorpusCase> Cases;
  Cases.push_back({"banded_large", banded(40000, 3)});
  Cases.push_back({"powerlaw_large", powerLawGraph(20000, 1.9, 1, 400, 103)});
  const NeverSlowerTiming Gate{7, 2e-3, 1.0 - GuardrailNoiseFloor};
  const KernelTable<double> &Kernels = kernelTable<double>();
  for (CorpusCase &Case : Cases) {
    randomizeValues(Case.A, 7);
    const CsrMatrix<double> &A = Case.A;
    ASSERT_GE(A.nnz(), ParallelConvertGrain) << Case.Name;
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    ASSERT_TRUE(Op.waitTuned(60.0)) << Case.Name << ": " << Op.error();
    expectSpmvMatches(Op, A);
    AlignedVector<double> X(static_cast<std::size_t>(A.NumCols), 1.0);
    AlignedVector<double> Yb(static_cast<std::size_t>(A.NumRows), 0.0);
    AlignedVector<double> Yt(Yb.size(), 0.0);
    const auto [BasicGflops, TunedGflops] = medianTimingPair(
        static_cast<std::uint64_t>(A.nnz()), Gate,
        [&] { Kernels.Csr[0].Fn(A, X.data(), Yb.data()); },
        [&] { Op.apply(X.data(), Yt.data()); });
    const FormatOperator<double> &Plan = Op.formatOperator();
    std::printf("%-14s live service  tuned/basic %6.3f  %s %s, %d slices\n",
                Case.Name.c_str(), TunedGflops / BasicGflops,
                std::string(formatName(Plan.kind())).c_str(),
                Plan.kernelName(), static_cast<int>(Plan.numSlices()));
    EXPECT_GE(TunedGflops, BasicGflops * Gate.Floor)
        << Case.Name << ": tuned " << TunedGflops << " GFLOPS vs basic "
        << BasicGflops << " GFLOPS (median of " << Gate.Pairs
        << " pairs, format " << formatName(Plan.kind()) << ", kernel "
        << Plan.kernelName() << ", " << Plan.numSlices() << " slices)";
  }
}

// --- Fault-armed variants (need SMAT_FAULT_INJECTION=ON) --------------------

TEST(NeverSlowerFaultTest, RaceSurvivesCooCandidateFault) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "fault-injection hooks not compiled in";
  CsrMatrix<double> A = powerLawGraph(2000, 1.9, 1, 400, 102);
  randomizeValues(A, 7);
  // The cost model would prune COO from this imbalance-bound race before
  // the fault site is reached; with no row CV counting as imbalance, the
  // matrix is irregularity-bound and its race holds COO.
  LearningModel Model = strictModel();
  Model.Cost.ImbalanceRowCv = std::numeric_limits<double>::infinity();
  Smat<double> Tuner(Model);

  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"measure.kernel.COO"};
  FaultScope Scope(Cfg);
  TunedSpmv<double> Op = Tuner.tune(A, fastTune());
  EXPECT_NE(Op.format(), FormatKind::COO)
      << "a candidate whose measurement faults must not be selected";
  EXPECT_GT(Op.report().DroppedCandidates, 0);
  bool CsrTimed = false;
  for (const MeasuredCandidate &C : Op.report().MeasuredCandidates)
    CsrTimed = CsrTimed || (C.Format == FormatKind::CSR && C.Gflops > 0.0);
  EXPECT_TRUE(CsrTimed)
      << "basic CSR timing survives an unrelated candidate fault";
  expectSpmvMatches(Op, A);
}

TEST(NeverSlowerFaultTest, BaselineFaultDisablesGuardrailButNotTheTune) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "fault-injection hooks not compiled in";
  CsrMatrix<double> A = banded(1200, 2);
  Smat<double> Tuner(strictModel());

  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"measure.baseline"};
  FaultScope Scope(Cfg);
  TunedSpmv<double> Op = Tuner.tune(A, fastTune());
  const TuningReport &R = Op.report();
  EXPECT_DOUBLE_EQ(R.BaselineGflops, 0.0)
      << "a faulted baseline measurement reports an inactive guardrail";
  EXPECT_FALSE(R.GuardrailEngaged);
  for (const MeasuredCandidate &C : R.MeasuredCandidates)
    EXPECT_FALSE(C.IsBaseline);
  expectSpmvMatches(Op, A);
}

TEST(NeverSlowerFaultTest, WhollyFaultedScoreboardKeepsBasicSelected) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "fault-injection hooks not compiled in";
  // Regression for the scoreboard tie-break bug: with every plan the kernel
  // search times faulted, every table is all zero GFLOPS, and score
  // inflation from reduced pairs that never ran must not promote an
  // unmeasured kernel over basic, for any format or pass.
  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"scoreboard.kernel"};
  FaultScope Scope(Cfg);

  KernelSelection S = searchOptimalKernels<double>(1e-5);
  for (int K = 0; K < NumFormats; ++K) {
    const auto F = static_cast<std::size_t>(K);
    EXPECT_EQ(S.BestKernel[F], 0)
        << formatName(static_cast<FormatKind>(K))
        << ": an unmeasured table must keep the basic kernel selected";
    if (static_cast<FormatKind>(K) == FormatKind::BSR)
      continue;
    EXPECT_EQ(S.BestSpmmKernel[F], 0)
        << formatName(static_cast<FormatKind>(K)) << " SpMM";
  }
  EXPECT_EQ(S.BestSkewCsrKernel, 0);
}
