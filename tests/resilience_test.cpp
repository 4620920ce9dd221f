//===- tests/resilience_test.cpp - Fault-tolerant tuning runtime ----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The resilience contract (DESIGN.md section 12): once a matrix passes
// validation, tune/tryTune cannot fail — they degrade down a ladder (drop
// failing candidates, bind the basic CSR kernel, bind the CSR reference
// plan) and report the rung taken. The measurement watchdog (robust timing,
// budgets, backoff) is covered here too. Tests that need injected faults
// skip themselves unless the build compiled the hooks in (-L fault runs
// them via scripts/check.sh's SMAT_FAULT_INJECTION=ON pass); the timing and
// budget tests run in every tier-1 build.
//
//===----------------------------------------------------------------------===//

#include "amg/AmgSolver.h"
#include "core/Smat.h"
#include "core/TuningPipeline.h"
#include "matrix/Generators.h"
#include "ref/RefSpmv.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

/// A model that is never confident (threshold above any group confidence),
/// so every tune that allows measurement actually measures. Cheap to build:
/// no training, the default ruleset and basic kernels are enough to drive
/// the full pipeline.
LearningModel strictModel() {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0;
  Model.refreshRuleMetadata();
  return Model;
}

TuneOptions fastTune() {
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  return Opts;
}

/// Asserts that \p Op computes y = A*x correctly against the dense
/// reference — the end-to-end check every degradation rung must pass.
void expectSpmvMatches(const TunedSpmv<double> &Op, const CsrMatrix<double> &A,
                       std::uint64_t Seed = 7) {
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), Seed);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

/// \returns how many tuned (non-baseline) candidates the race measured.
int tunedCandidates(const TuningReport &R) {
  int N = 0;
  for (const MeasuredCandidate &C : R.MeasuredCandidates)
    N += !C.IsBaseline;
  return N;
}

/// Arms a fault schedule for the test body and disarms it on scope exit, so
/// a failing assertion cannot leak an armed configuration into later tests.
struct FaultScope {
  explicit FaultScope(const fault::FaultConfig &Cfg) { fault::configure(Cfg); }
  ~FaultScope() { fault::reset(); }
};

} // namespace

// --- Robust timing (watchdog core; no faults needed) ------------------------

TEST(RobustTimingTest, SpreadStatsBasics) {
  EXPECT_DOUBLE_EQ(minValue({}), 0.0);
  EXPECT_DOUBLE_EQ(maxValue({}), 0.0);
  EXPECT_DOUBLE_EQ(relativeSpread({}), 0.0);
  EXPECT_DOUBLE_EQ(relativeSpread({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(minValue({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(maxValue({3.0, 1.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(relativeSpread({1.0, 1.5}), 0.5);
  EXPECT_TRUE(std::isinf(relativeSpread({0.0, 1.0})))
      << "a non-positive minimum cannot anchor a relative spread";
}

TEST(RobustTimingTest, ZeroMinSecondsStillYieldsPositiveTime) {
  // The historical bug: MinSeconds = 0 with a sub-tick callable could
  // return 0 seconds per call (or divide 0/0), which downstream GFLOPS
  // math treated as an unmeasurable kernel.
  double PerCall = measureSecondsPerCall([] {}, 0.0, 0);
  EXPECT_GT(PerCall, 0.0);
  EXPECT_TRUE(std::isfinite(PerCall));
}

TEST(RobustTimingTest, RepCapBoundsTheLoop) {
  std::uint64_t Calls = 0;
  // MinSeconds of an hour would spin forever without the rep cap.
  (void)measureSecondsPerCall([&] { ++Calls; }, 3600.0, 1, 64);
  EXPECT_LE(Calls, 65u) << "64 measured reps + 1 warm-up call";
  EXPECT_GE(Calls, 2u);
}

TEST(RobustTimingTest, RobustMeasureReturnsMinOfSamples) {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = 1e-5;
  Opts.Samples = 3;
  RobustMeasureResult R = robustMeasureSecondsPerCall([] {}, Opts);
  EXPECT_GT(R.SecondsPerCall, 0.0);
  EXPECT_GE(R.SamplesTaken, 3);
  EXPECT_FALSE(R.BudgetHit);
}

TEST(RobustTimingTest, BudgetStopsSamplingAfterFirstSample) {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = 5e-3;
  Opts.Samples = 5;
  Opts.BudgetSeconds = 1e-4; // Spent inside the (unconditional) first sample.
  RobustMeasureResult R = robustMeasureSecondsPerCall([] {}, Opts);
  EXPECT_EQ(R.SamplesTaken, 1)
      << "the first sample is unconditional; the budget gates the rest";
  EXPECT_TRUE(R.BudgetHit);
  EXPECT_GT(R.SecondsPerCall, 0.0);
  EXPECT_EQ(R.Retries, 0);
}

// --- Budget watchdog end-to-end ---------------------------------------------

TEST(BudgetWatchdogTest, TuneBudgetBoundsWallClock) {
  // A strict model measures every plausible candidate on this band (CSR,
  // COO, DIA, ELL): unbudgeted that is >= 4 candidates x 3 samples x
  // MeasureMinSeconds ~ 1s. The tune budget cuts candidates off between
  // samples, so the whole tune lands within ~2x the budget (+ CI slack).
  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(2000, 3);
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 0.08;
  Opts.TuneBudgetSeconds = 0.2;

  WallTimer Clock;
  auto Result = Tuner.tryTune(A, Opts);
  double Elapsed = Clock.seconds();

  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_LT(Elapsed, 2.0 * Opts.TuneBudgetSeconds + 0.5)
      << "a budgeted tune must not run to the unbudgeted ~1s";
  EXPECT_TRUE(Result->report().BudgetExhausted);
  expectSpmvMatches(*Result, A);

  SmatResilienceCounters C = Tuner.resilienceCounters();
  EXPECT_EQ(C.Tunes, 1u);
  EXPECT_EQ(C.BudgetExhaustedTunes, 1u);
}

TEST(BudgetWatchdogTest, MeasureBudgetCapsEachCandidate) {
  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(1200, 2);
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 0.05;
  Opts.MeasureBudgetSeconds = 0.06; // Roughly one sample per candidate.

  WallTimer Clock;
  auto Result = Tuner.tryTune(A, Opts);
  double Elapsed = Clock.seconds();

  ASSERT_TRUE(Result.ok()) << Result.status().message();
  // Four candidates at ~one budgeted sample each, plus bind and check.
  EXPECT_LT(Elapsed, 1.5) << "per-candidate budgets must cap the sweep";
  EXPECT_TRUE(Result->report().BudgetExhausted);
  EXPECT_GT(tunedCandidates(Result->report()), 0)
      << "every candidate keeps its first sample even under budget";
  expectSpmvMatches(*Result, A);
}

TEST(BudgetWatchdogTest, UnlimitedBudgetsReportNothing) {
  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(300, 2);
  auto Result = Tuner.tryTune(A, fastTune());
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_FALSE(Result->report().BudgetExhausted);
  EXPECT_EQ(Result->report().Degradation, DegradationLevel::None);
  EXPECT_EQ(Result->report().DroppedCandidates, 0);
}

TEST(BudgetWatchdogTest, NonFiniteBudgetsAreRejectedAtTheBoundary) {
  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(50, 1);
  TuneOptions Opts = fastTune();
  Opts.TuneBudgetSeconds = -1.0;
  EXPECT_FALSE(Tuner.tryTune(A, Opts).ok());
  Opts.TuneBudgetSeconds = std::nan("");
  EXPECT_FALSE(Tuner.tryTune(A, Opts).ok());
  Opts.TuneBudgetSeconds = 0.0;
  Opts.MeasureBudgetSeconds = -0.5;
  EXPECT_FALSE(Tuner.tryTune(A, Opts).ok());
}

// --- Degradation ladder -----------------------------------------------------

TEST(DegradationLadderTest, LevelNamesAreStable) {
  EXPECT_STREQ(degradationLevelName(DegradationLevel::None), "none");
  EXPECT_STREQ(degradationLevelName(DegradationLevel::CandidateDropped),
               "candidate_dropped");
  EXPECT_STREQ(degradationLevelName(DegradationLevel::BasicKernel),
               "basic_kernel");
  EXPECT_STREQ(degradationLevelName(DegradationLevel::ReferenceCsr),
               "reference_csr");
}

TEST(DegradationLadderTest, CandidateDroppedRung) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // The measured CSR candidate's kernel throws every time: the candidate is
  // dropped, the survivors decide, and the tune still succeeds.
  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"measure.kernel.CSR"};
  FaultScope Scope(Cfg);

  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(600, 2);
  auto Result = Tuner.tryTune(A, fastTune());
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_EQ(Result->report().Degradation, DegradationLevel::CandidateDropped);
  EXPECT_GT(Result->report().DroppedCandidates, 0);
  EXPECT_GT(tunedCandidates(Result->report()), 0)
      << "the other candidates must survive the CSR drop";
  expectSpmvMatches(*Result, A);

  SmatResilienceCounters C = Tuner.resilienceCounters();
  EXPECT_EQ(C.Tunes, 1u);
  EXPECT_GT(C.CandidatesDropped, 0u);
}

TEST(DegradationLadderTest, BasicKernelRung) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"bind.operator"};
  FaultScope Scope(Cfg);

  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(400, 2);
  auto Result = Tuner.tryTune(A, fastTune());
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_EQ(Result->report().Degradation, DegradationLevel::BasicKernel);
  EXPECT_EQ(Result->format(), FormatKind::CSR)
      << "the basic rung binds CSR regardless of the chosen plan";
  expectSpmvMatches(*Result, A);

  SmatResilienceCounters C = Tuner.resilienceCounters();
  EXPECT_EQ(C.BasicKernelFallbacks, 1u);
  EXPECT_EQ(C.ReferenceFallbacks, 0u);
}

TEST(DegradationLadderTest, ReferenceCsrRung) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // Both upper rungs fail ("bind.basic_csr" is reachable only after
  // "bind.operator" already failed, so a discovery sweep never observes it;
  // arm it explicitly): only the reference plan is left, and it must hold.
  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"bind.operator", "bind.basic_csr"};
  FaultScope Scope(Cfg);

  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(400, 2);
  auto Result = Tuner.tryTune(A, fastTune());
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_EQ(Result->report().Degradation, DegradationLevel::ReferenceCsr);
  EXPECT_EQ(Result->format(), FormatKind::CSR);
  EXPECT_EQ(Result->kernelName(), "csr_reference");
  expectSpmvMatches(*Result, A);

  EXPECT_EQ(Tuner.resilienceCounters().ReferenceFallbacks, 1u);
}

TEST(DegradationLadderTest, NoisyTimerInjectionIsReportedNotFatal) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // Every timing sample is scaled by a seeded factor in [1, 11]: the spread
  // check must flag the samples as noisy (after exhausting its backoff
  // retries) while the tune itself still completes with a usable plan.
  fault::FaultConfig Cfg;
  Cfg.Seed = 3;
  Cfg.AlwaysSites = {"measure.timer"};
  Cfg.TimerNoiseFactor = 10.0;
  FaultScope Scope(Cfg);

  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(500, 2);
  TuneOptions Opts = fastTune();
  // Race the full format menu: each measured candidate is an independent
  // 3-sample spread check, and the noisy verdict is the OR over all of them.
  // The cost model would prune this banded matrix to {DIA, CSR}, leaving too
  // few sample sets for the seeded noise to flag reliably; ForceMeasure
  // races every plausible format.
  Opts.ForceMeasure = true;
  auto Result = Tuner.tryTune(A, Opts);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_TRUE(Result->report().NoisyTimings);
  expectSpmvMatches(*Result, A);
  EXPECT_EQ(Tuner.resilienceCounters().NoisyTunes, 1u);
}

TEST(DegradationLadderTest, InjectedTimerStallTripsTheBudget) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // Each timing sample stalls 20 ms of real wall clock; a 30 ms measurement
  // budget therefore expires after the second sample of every candidate.
  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"measure.timer"};
  Cfg.TimerNoiseFactor = 0.0;
  Cfg.StallSeconds = 0.02;
  FaultScope Scope(Cfg);

  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(500, 2);
  TuneOptions Opts = fastTune();
  Opts.MeasureBudgetSeconds = 0.03;
  auto Result = Tuner.tryTune(A, Opts);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_TRUE(Result->report().BudgetExhausted);
  expectSpmvMatches(*Result, A);
}

// --- Every-site sweep -------------------------------------------------------

namespace {

/// The every-site sweep over one tune of \p A: a discovery pass records the
/// sites the tune visits, then each site fails on every invocation and the
/// tune must still bind a working operator with its rung in the report.
/// With \p CompareOneSlice, each armed tune must also take the rung of the
/// same tune with a one-thread team, whose plans are unsliced.
void sweepEverySite(const Smat<double> &Tuner, const CsrMatrix<double> &A,
                    const TuneOptions &Opts, bool CompareOneSlice) {
  // Discovery pass: record every site this tune visits.
  std::vector<std::string> Sites;
  {
    fault::FaultConfig Discover;
    Discover.RecordSites = true;
    FaultScope Scope(Discover);
    auto Probe = Tuner.tryTune(A, Opts);
    ASSERT_TRUE(Probe.ok()) << Probe.status().message();
    Sites = fault::observedSites();
  }
  ASSERT_GE(Sites.size(), 6u) << "the strict-model tune visits at least "
                                 "feature/predict/measure/bind sites";
  // "bind.basic_csr" only executes once "bind.operator" has failed, so the
  // discovery pass cannot see it; cover the rung anyway.
  if (std::find(Sites.begin(), Sites.end(), "bind.basic_csr") == Sites.end())
    Sites.push_back("bind.basic_csr");

  // Kill pass: fail each site on every invocation. The tune must still
  // produce a working operator with the rung visible in the report.
  for (const std::string &Site : Sites) {
    SCOPED_TRACE("always-failing site: " + Site);
    fault::FaultConfig Kill;
    Kill.AlwaysSites = {Site};
    FaultScope Scope(Kill);

    auto Result = Tuner.tryTune(A, Opts);
    ASSERT_TRUE(Result.ok())
        << "site '" << Site << "': " << Result.status().message();
    EXPECT_STRNE(degradationLevelName(Result->report().Degradation),
                 "unknown");
    expectSpmvMatches(*Result, A);
    if (!CompareOneSlice)
      continue;
    OmpThreadsScope Serial(1);
    auto One = Tuner.tryTune(A, Opts);
    ASSERT_TRUE(One.ok()) << One.status().message();
    EXPECT_STREQ(degradationLevelName(Result->report().Degradation),
                 degradationLevelName(One->report().Degradation));
  }
}

} // namespace

TEST(FaultSweepTest, EveryObservedSiteDegradesButNeverFails) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // A band keeps DIA and ELL plausible so their conversion and measurement
  // sites are all on the path.
  sweepEverySite(Smat<double>(strictModel()), banded(500, 2), fastTune(),
                 false);
}

TEST(FaultSweepTest, EverySiteAboveTheSliceGrainTakesTheOneSliceRung) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // Above SlicedPlanGrain the race converts every candidate as row slices;
  // a fault during a slice conversion takes the rung the unsliced tune
  // takes, and the bound operator stays correct.
  CsrMatrix<double> A = banded(60000, 2);
  ASSERT_GE(A.nnz(), SlicedPlanGrain);
  sweepEverySite(Smat<double>(strictModel()), A, fastTune(), true);
}

TEST(DegradationLadderTest, SliceConversionFaultsTakeTheOneSliceRungs) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // The bind of each converted format above the grain, with its conversion
  // allocation, its cap and the bind itself failing in turn: a cap hit is
  // the guard fallback to CSR, a thrown fault the BasicKernel rung —
  // exactly what the one-thread (unsliced) bind reports.
  const LearningModel Model = strictModel();
  CsrMatrix<double> A = banded(60000, 2);
  ASSERT_GE(A.nnz(), SlicedPlanGrain);
  TuneOptions Opts;
  TuningContext<double> Ctx{A, Model, Opts};

  const std::pair<FormatKind, const char *> Formats[] = {
      {FormatKind::COO, "coo"},
      {FormatKind::DIA, "dia"},
      {FormatKind::ELL, "ell"},
      {FormatKind::BSR, "bsr"}};
  for (const auto &[Kind, Name] : Formats) {
    SCOPED_TRACE(Name);
    BindStageResult<double> Clean = BindStage::run(Ctx, Kind);
    ASSERT_EQ(Clean.BoundFormat, Kind);
    EXPECT_EQ(Clean.Op->numSlices(), detail::teamSize());

    std::vector<std::pair<std::string, DegradationLevel>> Sites = {
        {std::string("convert.") + Name + ".alloc",
         DegradationLevel::BasicKernel},
        {"bind.operator", DegradationLevel::BasicKernel}};
    if (Kind != FormatKind::COO)
      Sites.emplace_back(std::string("convert.") + Name + ".cap",
                         DegradationLevel::None);
    for (const auto &[Site, Rung] : Sites) {
      SCOPED_TRACE(Site);
      fault::FaultConfig Kill;
      Kill.AlwaysSites = {Site};
      FaultScope Scope(Kill);
      BindStageResult<double> Sliced = BindStage::run(Ctx, Kind);
      BindStageResult<double> One;
      {
        OmpThreadsScope Serial(1);
        One = BindStage::run(Ctx, Kind);
      }
      EXPECT_EQ(Sliced.Degradation, Rung);
      EXPECT_EQ(One.Degradation, Rung);
      EXPECT_EQ(Sliced.BoundFormat, FormatKind::CSR);
      EXPECT_EQ(One.BoundFormat, FormatKind::CSR);
      EXPECT_GT(fault::injectedCount(), 0u);
      auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 9);
      std::vector<double> Expected(static_cast<std::size_t>(A.NumRows));
      std::vector<double> Y(Expected.size(), -1.0);
      refCsrSpmv(A, X.data(), Expected.data());
      Sliced.Op->apply(X.data(), Y.data());
      expectVectorsNear(Expected, Y, 1e-12);
    }
  }
}

TEST(FaultSweepTest, RandomFaultCampaignStaysCorrect) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // Seeded probabilistic faults across several structures: whatever subset
  // of sites fires, tryTune succeeds and the bound operator is correct.
  Smat<double> Tuner(strictModel());
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(300, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  Inputs.push_back(randomCsr(120, 90, 0.1, 5));

  for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
    fault::FaultConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.Probability = 0.1;
    FaultScope Scope(Cfg);
    for (std::size_t I = 0; I != Inputs.size(); ++I) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + ", input " +
                   std::to_string(I));
      auto Result = Tuner.tryTune(Inputs[I], fastTune());
      ASSERT_TRUE(Result.ok()) << Result.status().message();
      expectSpmvMatches(*Result, Inputs[I], Seed + I);
    }
  }
  SmatResilienceCounters C = Tuner.resilienceCounters();
  EXPECT_EQ(C.Tunes, 12u);
}

TEST(FaultSweepTest, InjectionSchedulesReplayDeterministically) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  Smat<double> Tuner(strictModel());
  CsrMatrix<double> A = banded(300, 2);

  auto RunCampaign = [&](std::uint64_t Seed) {
    fault::FaultConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.Probability = 0.15;
    FaultScope Scope(Cfg);
    auto Result = Tuner.tryTune(A, fastTune());
    EXPECT_TRUE(Result.ok());
    return fault::injectedCount();
  };
  EXPECT_EQ(RunCampaign(42), RunCampaign(42))
      << "same seed, same schedule, same injections";
}

// --- AMG under faults -------------------------------------------------------

TEST(AmgResilienceTest, HierarchySetupAndSolveSurviveFaults) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  fault::FaultConfig Cfg;
  Cfg.Seed = 9;
  Cfg.Probability = 0.05;
  FaultScope Scope(Cfg);

  Smat<double> Tuner(strictModel());
  AmgOptions Opts;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = &Tuner;
  Opts.Tune.MeasureMinSeconds = 1e-4;

  CsrMatrix<double> A = laplace2d5pt(24, 24);
  AmgSolver Solver;
  ASSERT_TRUE(Solver.trySetup(A, Opts).ok());
  for (const LevelFormatInfo &Info : Solver.formatDecisions())
    EXPECT_STRNE(degradationLevelName(Info.Degradation), "unknown");

  // Faulty *tuning* may degrade the bound kernels but never their results:
  // the solve still converges like the fault-free baseline.
  std::vector<double> B(static_cast<std::size_t>(A.NumRows), 1.0), X;
  SolveStats Stats = Solver.solve(B, X);
  EXPECT_TRUE(Stats.Converged);
}

TEST(AmgResilienceTest, TuneOptionsForwardToEveryOperator) {
  // No faults required: the AMG path forwards the caller's budgets and
  // respects the Tune.Cache > Cache > owned precedence.
  Smat<double> Tuner(strictModel());
  PlanCache Cache;
  AmgOptions Opts;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = &Tuner;
  Opts.Tune.MeasureMinSeconds = 1e-4;
  Opts.Tune.Cache = &Cache;

  CsrMatrix<double> A = laplace2d5pt(20, 20);
  AmgSolver Solver;
  ASSERT_TRUE(Solver.trySetup(A, Opts).ok());
  EXPECT_EQ(Solver.planCache(), &Cache);
  EXPECT_GT(Cache.stats().Inserts, 0u)
      << "the forwarded cache must see the per-operator tunes";
  for (const LevelFormatInfo &Info : Solver.formatDecisions())
    EXPECT_EQ(Info.Degradation, DegradationLevel::None);
}
