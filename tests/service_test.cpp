//===- tests/service_test.cpp - Async tuning-as-a-service runtime ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The tuning-as-a-service contract (DESIGN.md section 16): tuneAsync returns
// a handle that serves correct SpMV from call #1 on basic CSR, a background
// worker swaps the tuned plan in atomically, every worker failure parks the
// handle on basic CSR (correct, never a crash), a repeated structure hits
// the service's shared PlanCache, and the cache stays race-free under
// lookup/insert/eviction contention. The whole suite is run under TSan with
// fault injection armed by the CI "service" leg (scripts/check.sh pass 5).
//
//===----------------------------------------------------------------------===//

#include "core/TuningService.h"
#include "matrix/Generators.h"
#include "ref/RefSpmv.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

/// A model that is never confident, so every cold tune in these tests runs
/// the full measurement pipeline off-thread (the interesting path).
LearningModel strictModel() {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0;
  Model.refreshRuleMetadata();
  return Model;
}

/// Service options tuned for test latency: tight (but not degenerate)
/// measurement floors and watchdog budgets.
typename TuningService<double>::Options fastServiceOptions() {
  typename TuningService<double>::Options Opts;
  Opts.Tune.MeasureMinSeconds = 1e-4;
  Opts.Tune.TuneBudgetSeconds = 30.0;
  Opts.Tune.MeasureBudgetSeconds = 10.0;
  return Opts;
}

/// Wait generously: under TSan on a loaded single-core runner a background
/// tune can take a while; a wedged worker still fails the test via this
/// bound instead of hanging ctest forever.
constexpr double WaitSeconds = 240.0;

/// Asserts the handle computes y = A*x correctly right now, whatever plan
/// is serving.
void expectAsyncSpmvMatches(const AsyncSpmv<double> &Op,
                            const CsrMatrix<double> &A,
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

} // namespace

// --- Serve from call #1 -----------------------------------------------------

TEST(TuningServiceTest, ServesCorrectResultsFromCallOne) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  // The worker tunes in submission order, so while it races the formats of
  // a large band submitted first, the handle under test can only serve its
  // bootstrap plan. Without it the small band's tune could publish before
  // the test thread reads call #1's format.
  AsyncSpmv<double> Busy = Service.tuneAsync(banded(100000, 3));
  CsrMatrix<double> A = banded(400, 2);
  AsyncSpmv<double> Op = Service.tuneAsync(A);

  // Call #1: no waiting, no tuning — the bootstrap basic-CSR plan serves.
  ASSERT_TRUE(Op);
  expectAsyncSpmvMatches(Op, A, 1);
  EXPECT_EQ(Op.format(), FormatKind::CSR);

  // The tuned swap lands later; results stay correct across it.
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  EXPECT_EQ(Op.state(), AsyncTuneState::Tuned);
  expectAsyncSpmvMatches(Op, A, 2);
  EXPECT_GT(Op.report().TuneSeconds, 0.0);
  EXPECT_TRUE(Busy.tuned());

  TuningServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Submitted, 2u);
  EXPECT_EQ(Stats.Tuned, 2u);
  EXPECT_EQ(Stats.Failed, 0u);
}

TEST(TuningServiceTest, SlicedPlanServesCorrectlyUnderOversubscribedTeam) {
  // A live worker tunes matrices above the grain to a confidently predicted
  // DIA plan while the caller's team has twice as many threads as the
  // hardware (one under ThreadSanitizer, which cannot see libgomp's
  // synchronization; stress_test race-checks the slices from std::threads).
  // The worker runs on one OpenMP thread, yet the plan it publishes has the
  // process slice count, for a matrix just above the grain too. Every
  // apply, from call #1 on the bootstrap plan through the swap to the
  // sliced plan, matches the reference: the slices share x and write
  // disjoint rows of y.
  OmpThreadsScope Oversubscribed(
      ThreadSanitized ? 1
                      : 2 * static_cast<int>(std::max(
                                1u, std::thread::hardware_concurrency())));
  LearningModel Model;
  Model.Rules.DefaultFormat = FormatKind::DIA;
  Model.Rules.DefaultConfidence = 1.0;
  Model.refreshRuleMetadata();
  auto Opts = fastServiceOptions();
  Opts.Tune.AllowMeasure = false; // The model's answer, no timing override.
  TuningService<double> Service(Smat<double>(Model), Opts);
  for (const CsrMatrix<double> &A :
       {laplace3d7pt(40, 40, 40), laplace3d7pt(20, 20, 20)}) {
    SCOPED_TRACE("nnz " + std::to_string(A.nnz()));
    ASSERT_GE(A.nnz(), ParallelConvertGrain);

    auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 5);
    std::vector<double> Expected(static_cast<std::size_t>(A.NumRows));
    refCsrSpmv(A, X.data(), Expected.data());

    AsyncSpmv<double> Op = Service.tuneAsync(A);
    ASSERT_TRUE(Op);
    int Calls = 0;
    auto ExpectApplyMatches = [&] {
      SCOPED_TRACE("call " + std::to_string(++Calls));
      std::vector<double> Y(Expected.size(), -1.0);
      Op.apply(X.data(), Y.data());
      expectVectorsNear(Expected, Y, 1e-12);
    };
    ExpectApplyMatches();
    for (WallTimer Clock; !Op.tuned() && Clock.seconds() < WaitSeconds &&
                          !::testing::Test::HasFailure();)
      ExpectApplyMatches();
    ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
    EXPECT_EQ(Op.format(), FormatKind::DIA);
    EXPECT_EQ(Op.formatOperator().numSlices(), detail::planSliceCount());
    for (int I = 0; I != 20 && !::testing::Test::HasFailure(); ++I)
      ExpectApplyMatches();
  }
}

#ifdef __linux__
namespace {

/// Threads of this process, from /proc/self/task.
std::size_t processThreads() {
  std::size_t Count = 0;
  for ([[maybe_unused]] const auto &Entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++Count;
  return Count;
}

/// processThreads() once two reads 50 ms apart agree, so threads that
/// earlier tests' teams are still retiring do not count.
std::size_t settledProcessThreads() {
  std::size_t Last = processThreads();
  for (int I = 0; I != 100; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::size_t Now = processThreads();
    if (Now == Last)
      return Now;
    Last = Now;
  }
  return Last;
}

} // namespace
#endif

TEST(TuningServiceTest, WorkerAddsOneThreadAndNoTeam) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads in /proc/self/task";
#else
  // The worker's features, conversions, race and never-slower check of a
  // matrix above the grain run in parallel regions of one thread: the
  // service adds its worker to the process and no OpenMP team beside the
  // callers'.
  CsrMatrix<double> A = laplace3d7pt(20, 20, 20);
  ASSERT_GE(A.nnz(), ParallelConvertGrain);
  {
    // Warm the caller's team: a sliced plan's apply forks it.
    KernelSelection Sel;
    auto Warm = bindFormatOperator(A, FormatKind::DIA, Sel);
    std::vector<double> X(static_cast<std::size_t>(A.NumCols), 1.0);
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows));
    Warm->apply(X.data(), Y.data());
  }
  const std::size_t Before = settledProcessThreads();
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  AsyncSpmv<double> Op = Service.tuneAsync(A);
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  EXPECT_EQ(processThreads(), Before + 1);
  expectAsyncSpmvMatches(Op, A, 3);
#endif
}

TEST(TuningServiceTest, FirstCallIsOrdersOfMagnitudeCheaperThanBlockingTune) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = banded(600, 3);
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 3);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);

  WallTimer FirstCall;
  AsyncSpmv<double> Op = Service.tuneAsync(A);
  Op.apply(X.data(), Y.data());
  double FirstCallSeconds = FirstCall.seconds();

  // The acceptance bound is 25 ms on the pinned corpus in a Release build
  // (TuningServiceGateTest below). Here the build may be Debug + TSan on a
  // shared core, so assert a loose absolute ceiling that still rules out
  // "submit secretly runs the pipeline".
  EXPECT_LT(FirstCallSeconds, 0.5)
      << "submit + first apply must not block on tuning";
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);

  // A tune of this matrix takes milliseconds, so a tuneAsync that tuned
  // before returning would pass both time bounds. This tune is slow by
  // construction (every candidate races for 50 ms windows), so the first
  // call returns before it only if it never waited: an ordering check.
  auto SlowOpts = fastServiceOptions();
  SlowOpts.Tune.MeasureMinSeconds = 0.05;
  TuningService<double> SlowService(Smat<double>(strictModel()), SlowOpts);
  AsyncSpmv<double> Slow = SlowService.tuneAsync(A);
  Slow.apply(X.data(), Y.data());
  AsyncTuneState State = Slow.state();
  EXPECT_TRUE(State == AsyncTuneState::Pending ||
              State == AsyncTuneState::Tuning)
      << "state " << static_cast<int>(State)
      << " after the first call: it waited for the tune";
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

TEST(TuningServiceGateTest, FirstCallWithin25MsOnPinnedCorpus) {
  // Performance gate (DESIGN.md section 13.4): submit plus the first apply
  // of every pinned matrix through a live service. 25 ms is loose for
  // shared runners but far below a blocking tune.
  if (!TimingGatesEnforced)
    GTEST_SKIP() << TimingGatesSkipReason;
  constexpr double MaxFirstCallMs = 25.0;
  std::string Error;
  std::optional<Smat<double>> Tuner =
      Smat<double>::tryFromFile(SMAT_TEST_MODEL_PATH, &Error);
  ASSERT_TRUE(Tuner) << Error;
  TuningService<double> Service(*Tuner);
  for (const CorpusCase &Case : smokeCorpus()) {
    const CsrMatrix<double> &A = Case.A;
    auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 9);
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
    CsrMatrix<double> Owned = A; // Time the O(1) handoff, not a deep copy.
    WallTimer SinceSubmit;
    AsyncSpmv<double> Op = Service.tuneAsync(std::move(Owned));
    Op.apply(X.data(), Y.data());
    double FirstCallMs = SinceSubmit.seconds() * 1e3;
    std::printf("%-14s first call %.3f ms\n", Case.Name.c_str(), FirstCallMs);
    EXPECT_LE(FirstCallMs, MaxFirstCallMs)
        << Case.Name << ": submit + first apply must not wait for tuning";
    expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
  }
}

TEST(TuningServiceTest, RvalueSubmitMovesAndFloatVariantWorks) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = randomCsr(120, 90, 0.08, 17);
  CsrMatrix<double> Copy = A;
  AsyncSpmv<double> Op = Service.tuneAsync(std::move(Copy));
  expectAsyncSpmvMatches(Op, A, 5);
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  expectAsyncSpmvMatches(Op, A, 6);

  // The unified-interface spelling drives the same machinery.
  TuningService<float> FloatService{Smat<float>(strictModel())};
  CsrMatrix<float> Af;
  Af.NumRows = 3;
  Af.NumCols = 3;
  Af.RowPtr = {0, 1, 2, 3};
  Af.ColIdx = {0, 1, 2};
  Af.Values = {1.0f, 2.0f, 3.0f};
  AsyncSpmv<float> Fop = SMAT_sCSR_SpMV_async(FloatService, Af);
  std::vector<float> Xf = {1.0f, 1.0f, 1.0f}, Yf(3, 0.0f);
  Fop.apply(Xf.data(), Yf.data());
  EXPECT_FLOAT_EQ(Yf[0], 1.0f);
  EXPECT_FLOAT_EQ(Yf[1], 2.0f);
  EXPECT_FLOAT_EQ(Yf[2], 3.0f);
  ASSERT_TRUE(Fop.waitTuned(WaitSeconds)) << Fop.error();
}

TEST(TuningServiceTest, InvalidInputFailsSynchronously) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> Bad;
  Bad.NumRows = 2;
  Bad.NumCols = 2;
  Bad.RowPtr = {0, 2, 1}; // non-monotone
  Bad.ColIdx = {0, 1};
  Bad.Values = {1.0, 1.0};

  Expected<AsyncSpmv<double>> Result = Service.tryTuneAsync(Bad);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidMatrix);
  EXPECT_THROW((void)Service.tuneAsync(Bad), std::invalid_argument);
  // Rejected submissions never reach the worker or the stats.
  EXPECT_EQ(Service.stats().Submitted, 0u);
}

TEST(TuningServiceTest, ManyConcurrentHandlesAllStayCorrect) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(300, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  Inputs.push_back(randomCsr(120, 90, 0.1, 5));
  Inputs.push_back(banded(350, 1));

  // Submit everything up front, then hammer every handle from the caller
  // thread while the single worker drains the queue — applies race the
  // plan swaps by construction.
  std::vector<AsyncSpmv<double>> Handles;
  for (const auto &A : Inputs)
    Handles.push_back(Service.tuneAsync(A));
  for (int Round = 0; Round < 20; ++Round)
    for (std::size_t I = 0; I != Handles.size(); ++I)
      expectAsyncSpmvMatches(Handles[I], Inputs[I],
                             static_cast<std::uint64_t>(Round * 10 + I));
  for (std::size_t I = 0; I != Handles.size(); ++I) {
    ASSERT_TRUE(Handles[I].waitTuned(WaitSeconds)) << Handles[I].error();
    expectAsyncSpmvMatches(Handles[I], Inputs[I], 99 + I);
  }
  EXPECT_EQ(Service.stats().Tuned, Inputs.size());
}

// --- Resilience counters under concurrency ----------------------------------

TEST(TuningServiceTest, ResilienceCountersNeverTearMidTune) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  std::atomic<bool> Stop{false};
  // A monitoring thread samples the aggregated counters while the worker is
  // mid-tune. Every snapshot must satisfy the cross-counter invariants —
  // a tune adds its whole delta under the counters' lock, or none of it.
  std::thread Monitor([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      SmatResilienceCounters C = Service.resilienceCounters();
      ASSERT_LE(C.NoisyTunes, C.Tunes);
      ASSERT_LE(C.BudgetExhaustedTunes, C.Tunes);
      ASSERT_LE(C.BasicKernelFallbacks, C.Tunes);
      ASSERT_LE(C.ReferenceFallbacks, C.Tunes);
      ASSERT_LE(C.GuardrailEngagements, C.Tunes);
    }
  });
  std::vector<AsyncSpmv<double>> Handles;
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed)
    Handles.push_back(
        Service.tuneAsync(powerLawGraph(150, 2.0, 1, 30, Seed)));
  for (auto &H : Handles)
    (void)H.waitTuned(WaitSeconds);
  Stop.store(true, std::memory_order_release);
  Monitor.join();
  EXPECT_EQ(Service.resilienceCounters().Tunes, 6u);
}

// --- Concurrent PlanCache: lookup/insert vs eviction -------------------------

TEST(PlanCacheConcurrencyTest, SizeNeverExceedsCapacity) {
  for (std::size_t Capacity : {1u, 2u, 7u, 63u, 1024u}) {
    SCOPED_TRACE(Capacity);
    PlanCache Cache(Capacity);
    EXPECT_EQ(Cache.capacity(), Capacity);
    for (int I = 0; I < 4 * static_cast<int>(Capacity); ++I) {
      PlanFingerprint Fp;
      Fp.RowsLog2 = static_cast<std::int16_t>(I % 1000);
      Fp.ColsLog2 = static_cast<std::int16_t>(I / 1000);
      Cache.insert(Fp, CachedPlan{});
      ASSERT_LE(Cache.size(), Cache.capacity());
    }
    EXPECT_EQ(Cache.size(), Capacity);
    EXPECT_EQ(Cache.stats().Evictions, 3 * Capacity);
  }
}

TEST(PlanCacheConcurrencyTest, LookupInsertRacesLruEviction) {
  // Tiny cache: two entries for five fingerprints, so nearly every insert
  // is an eviction — the worst case for the lookup/evict interleaving.
  PlanCache Cache(2);
  constexpr int NumThreads = 4;
  constexpr int NumOps = 400;
  std::atomic<std::uint64_t> HitsSeen{0};
  std::vector<std::thread> Threads;
  for (int Tid = 0; Tid < NumThreads; ++Tid) {
    Threads.emplace_back([&, Tid] {
      for (int I = 0; I < NumOps; ++I) {
        PlanFingerprint Fp;
        Fp.RowsLog2 = static_cast<std::int16_t>((Tid + I) % 5);
        CachedPlan Plan;
        if (Cache.lookup(Fp, Plan)) {
          ASSERT_EQ(Plan.Format, FormatKind::ELL);
          HitsSeen.fetch_add(1, std::memory_order_relaxed);
        } else if (I % 7 != 0) { // else a tune that cached nothing
          Plan.Format = FormatKind::ELL;
          Plan.CsrSpmvSeconds = 1e-6;
          Cache.insert(Fp, Plan);
        }
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  EXPECT_LE(Cache.size(), 2u);
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<std::uint64_t>(NumThreads) * NumOps);
  EXPECT_EQ(Stats.Hits, HitsSeen.load());
  EXPECT_GT(Stats.Evictions, 0u);
}

// --- Plan reuse: a repeated structure hits the shared cache ----------------

TEST(TuningServiceTest, RepeatedStructureHitsSharedPlanCache) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = banded(400, 2);

  AsyncSpmv<double> Cold = Service.tuneAsync(A);
  ASSERT_TRUE(Cold.waitTuned(WaitSeconds)) << Cold.error();
  EXPECT_FALSE(Cold.report().PlanCacheHit);
  expectAsyncSpmvMatches(Cold, A, 29);

  // Same structure again: served from the cache, no re-measurement.
  AsyncSpmv<double> Warm = Service.tuneAsync(A);
  ASSERT_TRUE(Warm.waitTuned(WaitSeconds)) << Warm.error();
  EXPECT_TRUE(Warm.report().PlanCacheHit);
  EXPECT_TRUE(Warm.report().MeasuredCandidates.empty());
  expectAsyncSpmvMatches(Warm, A, 31);
  EXPECT_GE(Service.planCache().stats().Hits, 1u);
}

// --- Fault injection: the worker dies, the handle keeps serving -------------

TEST(AsyncFaultTest, KilledWorkerSitesParkHandleOnBasicCsr) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  CsrMatrix<double> A = banded(400, 2);
  for (const char *Site :
       {"async.submit", "async.worker.start", "async.worker.publish"}) {
    SCOPED_TRACE(std::string("always-failing site: ") + Site);
    fault::FaultConfig Kill;
    Kill.AlwaysSites = {Site};
    FaultScope Scope(Kill);

    TuningService<double> Service(Smat<double>(strictModel()),
                                  fastServiceOptions());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    EXPECT_FALSE(Op.waitTuned(WaitSeconds));
    EXPECT_EQ(Op.state(), AsyncTuneState::Failed);
    EXPECT_FALSE(Op.error().empty());
    // The degradation contract: basic CSR keeps serving, correctly.
    expectAsyncSpmvMatches(Op, A, 51);
    EXPECT_EQ(Op.format(), FormatKind::CSR);
    EXPECT_EQ(Service.stats().Failed, 1u);
  }
}

TEST(AsyncFaultTest, EveryObservedAsyncSiteDegradesToServingHandle) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  CsrMatrix<double> A = banded(400, 2);

  // Discover every site a full async tune visits (submit, worker,
  // pipeline).
  std::vector<std::string> Sites;
  {
    fault::FaultConfig Discover;
    Discover.RecordSites = true;
    FaultScope Scope(Discover);
    TuningService<double> Service(Smat<double>(strictModel()),
                                  fastServiceOptions());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
    Sites = fault::observedSites();
  }
  // The async rungs themselves must all be on the discovered path.
  for (const char *Rung :
       {"async.submit", "async.worker.start", "async.worker.publish"})
    EXPECT_NE(std::find(Sites.begin(), Sites.end(), Rung), Sites.end())
        << "site '" << Rung << "' not visited by the async tune";

  // Kill pass: each site fails on every invocation. Whatever rung dies —
  // async machinery or any pipeline stage inherited from the blocking
  // path — the handle must keep producing correct results.
  for (const std::string &Site : Sites) {
    SCOPED_TRACE("always-failing site: " + Site);
    fault::FaultConfig Kill;
    Kill.AlwaysSites = {Site};
    FaultScope Scope(Kill);

    TuningService<double> Service(Smat<double>(strictModel()),
                                  fastServiceOptions());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    (void)Op.waitTuned(WaitSeconds); // Tuned or Failed are both acceptable
    ASSERT_NE(Op.state(), AsyncTuneState::Pending);
    ASSERT_NE(Op.state(), AsyncTuneState::Tuning);
    expectAsyncSpmvMatches(Op, A, 61);
  }
}

TEST(AsyncFaultTest, RandomFaultCampaignNeverCrashesOrCorrupts) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(300, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  Inputs.push_back(randomCsr(120, 90, 0.1, 5));

  for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
    fault::FaultConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.Probability = 0.1;
    FaultScope Scope(Cfg);
    TuningService<double> Service(Smat<double>(strictModel()),
                                  fastServiceOptions());
    std::vector<AsyncSpmv<double>> Handles;
    for (const auto &A : Inputs)
      Handles.push_back(Service.tuneAsync(A));
    for (std::size_t I = 0; I != Handles.size(); ++I) {
      (void)Handles[I].waitTuned(WaitSeconds);
      expectAsyncSpmvMatches(Handles[I], Inputs[I], Seed * 10 + I);
    }
  }
}
