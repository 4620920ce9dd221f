//===- tests/stress_test.cpp - Concurrent tuning stress (TSan target) -----===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Thread-stress coverage of the shared-state paths: many threads tuning
// through one Smat instance and one PlanCache. Concurrent tunes of one
// structure may each measure, but they must share one cache entry, the
// resilience counters must stay consistent under concurrent updates and
// reads, and every thread's operator must stay correct. scripts/check.sh
// runs this binary under ThreadSanitizer (SMAT_SANITIZE=thread, -L stress),
// and with fault injection armed (-L fault, and TSan with faults); it is
// also part of tier 1 so the logic is exercised in every build.
//
//===----------------------------------------------------------------------===//

#include "core/PlanCache.h"
#include "core/Smat.h"
#include "matrix/Generators.h"
#include "support/FaultInjection.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

constexpr int NumThreads = 8;

/// Never-confident model: every cache miss pays the full execute-and-measure
/// path, the longest a tune holds its matrix and the cache apart.
LearningModel strictModel() {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0;
  Model.refreshRuleMetadata();
  return Model;
}

void expectSpmvMatches(const TunedSpmv<double> &Op, const CsrMatrix<double> &A,
                       std::uint64_t Seed) {
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), Seed);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

} // namespace

TEST(StressTest, ConcurrentSameFingerprintTunesShareOneEntry) {
  Smat<double> Tuner(strictModel());
  PlanCache Cache;
  CsrMatrix<double> A = banded(800, 2);
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 2e-3; // Long enough that tunes overlap.
  Opts.Cache = &Cache;

  constexpr int TunesPerThread = 4;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != TunesPerThread; ++I) {
        auto Result = Tuner.tryTune(A, Opts);
        if (!Result.ok()) {
          ++Failures;
          return;
        }
        expectSpmvMatches(*Result, A, static_cast<std::uint64_t>(T * 31 + I));
      }
    });
  // Concurrent counter reads race against the tuning threads' updates; TSan
  // verifies the lock makes that safe.
  for (int Poll = 0; Poll != 50; ++Poll)
    (void)Tuner.resilienceCounters();
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0);
  PlanCacheStats Stats = Cache.stats();
  constexpr std::uint64_t Total = NumThreads * TunesPerThread;
  // Tunes that overlap the first one miss and measure too; every tune is
  // counted once, and all of them land on the one fingerprint's entry.
  EXPECT_EQ(Stats.Hits + Stats.Misses, Total);
  EXPECT_GE(Stats.Misses, 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Tuner.resilienceCounters().Tunes, Total);
}

TEST(StressTest, ConcurrentDistinctStructuresStayIndependent) {
  Smat<double> Tuner(strictModel());
  PlanCache Cache;
  // Sizes a power of two apart land in distinct fingerprint buckets.
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(200, 2));
  Inputs.push_back(banded(500, 2));
  Inputs.push_back(banded(1100, 2));
  Inputs.push_back(banded(2300, 2));
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  Opts.Cache = &Cache;

  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      const CsrMatrix<double> &A =
          Inputs[static_cast<std::size_t>(T) % Inputs.size()];
      for (int I = 0; I != 3; ++I) {
        auto Result = Tuner.tryTune(A, Opts);
        if (!Result.ok()) {
          ++Failures;
          return;
        }
        expectSpmvMatches(*Result, A, static_cast<std::uint64_t>(T + I));
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0);
  PlanCacheStats Stats = Cache.stats();
  EXPECT_GE(Stats.Misses, Inputs.size())
      << "at least one measuring tune per structural class";
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<std::uint64_t>(NumThreads) * 3);
  EXPECT_EQ(Cache.size(), Inputs.size());
}

TEST(StressTest, ConcurrentTunesUnderRandomFaultsStayCorrect) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  // Probabilistic faults while eight threads hammer a shared cache: no
  // tryTune may fail and every bound operator must stay correct. (A tune
  // whose feature stage faults skips the cache entirely.)
  fault::FaultConfig Cfg;
  Cfg.Seed = 17;
  Cfg.Probability = 0.02;
  fault::configure(Cfg);

  Smat<double> Tuner(strictModel());
  PlanCache Cache;
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(300, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  Opts.Cache = &Cache;

  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != 3; ++I) {
        const CsrMatrix<double> &A =
            Inputs[static_cast<std::size_t>(T + I) % Inputs.size()];
        auto Result = Tuner.tryTune(A, Opts);
        if (!Result.ok()) {
          ++Failures;
          return;
        }
        std::vector<double> X(static_cast<std::size_t>(A.NumCols), 1.0);
        std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
        Result->apply(X.data(), Y.data());
        std::vector<double> Ref = denseSpmv(A, X);
        for (std::size_t J = 0; J != Ref.size(); ++J)
          if (std::abs(Ref[J] - Y[J]) > 1e-9 * std::max(1.0, std::abs(Ref[J]))) {
            ++Failures;
            return;
          }
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  fault::reset();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Tuner.resilienceCounters().Tunes,
            static_cast<std::uint64_t>(NumThreads) * 3);
}
