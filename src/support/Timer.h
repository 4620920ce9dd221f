//===- support/Timer.h - Wall-clock timing helpers --------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timer and the repetition-controlled measurement helpers
/// behind the plan timer (core/TuningPipeline.h) and the benchmark
/// harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_SUPPORT_TIMER_H
#define SMAT_SUPPORT_TIMER_H

#include "support/FaultInjection.h"
#include "support/Stats.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace smat {

/// A simple steady-clock stopwatch.
class WallTimer {
public:
  WallTimer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// \returns seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Upper bound on repetitions in measureSecondsPerCall. Generous enough to
/// never bind for a real kernel (even a 30 ns call hits a 2 ms MinSeconds
/// floor in ~70k reps), but it stops the loop from spinning forever when a
/// stalled or hostile clock keeps Elapsed below MinSeconds.
inline constexpr std::uint64_t DefaultMaxMeasureReps = 1ull << 26;

/// Runs \p Fn repeatedly until at least \p MinSeconds have elapsed (and at
/// least \p MinReps repetitions have run) and returns the mean seconds per
/// call. Used everywhere a per-kernel time is needed so that very fast
/// kernels are still measured with acceptable resolution.
///
/// Hostile inputs are clamped rather than trusted: MinReps has a floor of
/// one so the rep count can never be zero at the division, \p MaxReps caps
/// the loop so an injected timer stall (or a clock that stops advancing)
/// cannot spin forever, and a non-positive elapsed reading is floored to
/// one nanosecond so MinSeconds=0 never produces a 0/0 or a zero per-call
/// time that downstream GFLOPS math would discard.
template <typename Callable>
double measureSecondsPerCall(Callable &&Fn, double MinSeconds = 2e-3,
                             std::uint64_t MinReps = 3,
                             std::uint64_t MaxReps = DefaultMaxMeasureReps) {
  // One warm-up call so first-touch page faults and cache cold misses do not
  // pollute the measurement.
  Fn();
  MinReps = std::max<std::uint64_t>(MinReps, 1);
  MaxReps = std::max(MaxReps, MinReps);
  std::uint64_t Reps = 0;
  WallTimer Timer;
  double Elapsed = 0.0;
  do {
    Fn();
    ++Reps;
    Elapsed = Timer.seconds();
  } while ((Elapsed < MinSeconds || Reps < MinReps) && Reps < MaxReps);
  if (!(Elapsed > 0.0))
    Elapsed = 1e-9;
  return Elapsed / static_cast<double>(Reps);
}

/// Samples robustMeasureSecondsPerCall takes per attempt; the reported time
/// is their minimum.
inline constexpr int RobustMeasureSamples = 3;

/// A sample set whose relativeSpread() exceeds this is noisy and retried.
inline constexpr double RobustMeasureMaxSpread = 0.25;

/// Controls for robustMeasureSecondsPerCall. Each sample is capped at
/// DefaultMaxMeasureReps repetitions.
struct RobustMeasureOptions {
  /// Per-sample measurement floor (passed through to measureSecondsPerCall).
  double MinSeconds = 2e-3;
  /// Per-sample repetition floor.
  std::uint64_t MinReps = 3;
  /// Noisy-sample retries. Each retry doubles MinSeconds (capped exponential
  /// backoff): longer windows average out scheduling jitter.
  int MaxRetries = 2;
  /// Wall-clock budget in seconds for this whole measurement; 0 = unlimited.
  /// Checked between samples, so one sample may overshoot slightly.
  double BudgetSeconds = 0.0;
};

/// Outcome of robustMeasureSecondsPerCall.
struct RobustMeasureResult {
  /// Minimum per-call seconds across the accepted sample set.
  double SecondsPerCall = 0.0;
  /// The final sample set still exceeded RobustMeasureMaxSpread.
  bool Noisy = false;
  /// Sampling stopped early because BudgetSeconds ran out.
  bool BudgetHit = false;
  /// Backoff retries performed.
  int Retries = 0;
  /// Total samples measured across all attempts.
  int SamplesTaken = 0;
};

/// Outlier-robust wrapper around measureSecondsPerCall: takes min-of-k
/// samples, checks their relative spread, and retries noisy sets with a
/// doubled measurement window (capped exponential backoff). The minimum is
/// the right summary for wall-clock timing — interference only ever adds
/// time — and the spread check tells the caller how trustworthy it is.
/// Always returns a usable positive time, even when the budget expires
/// after the first sample.
template <typename Callable>
RobustMeasureResult
robustMeasureSecondsPerCall(Callable &&Fn,
                            const RobustMeasureOptions &Opts = {}) {
  RobustMeasureResult Result;
  WallTimer Budget;
  double MinSeconds = Opts.MinSeconds;
  std::vector<double> Set;
  Set.reserve(static_cast<std::size_t>(RobustMeasureSamples));
  for (int Attempt = 0;; ++Attempt) {
    Set.clear();
    for (int I = 0; I != RobustMeasureSamples; ++I) {
      // The first sample is unconditional so there is always a result; after
      // that, stop sampling once the budget is spent.
      if (I > 0 && Opts.BudgetSeconds > 0.0 &&
          Budget.seconds() >= Opts.BudgetSeconds) {
        Result.BudgetHit = true;
        break;
      }
      double Sample = measureSecondsPerCall(Fn, MinSeconds, Opts.MinReps);
      Sample = fault::injectTimerSample("measure.timer", Sample);
      Set.push_back(Sample);
      ++Result.SamplesTaken;
    }
    Result.SecondsPerCall = std::max(minValue(Set), 1e-12);
    Result.Noisy = relativeSpread(Set) > RobustMeasureMaxSpread;
    if (!Result.Noisy || Result.BudgetHit || Attempt >= Opts.MaxRetries)
      return Result;
    if (Opts.BudgetSeconds > 0.0 && Budget.seconds() >= Opts.BudgetSeconds) {
      Result.BudgetHit = true;
      return Result;
    }
    ++Result.Retries;
    MinSeconds *= 2.0;
  }
}

/// Converts a per-call SpMV time into GFLOPS given the nonzero count.
/// Each nonzero contributes one multiply and one add.
inline double spmvGflops(std::uint64_t Nnz, double SecondsPerCall) {
  if (SecondsPerCall <= 0.0)
    return 0.0;
  return 2.0 * static_cast<double>(Nnz) / SecondsPerCall * 1e-9;
}

} // namespace smat

#endif // SMAT_SUPPORT_TIMER_H
