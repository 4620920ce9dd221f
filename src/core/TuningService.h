//===- core/TuningService.h - Async tuning-as-a-service runtime -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuning-as-a-service layer (DESIGN.md section 16, ROADMAP north
/// star): SMAT's adaptive selection without ever making a caller wait for
/// it. A blocking cold `Smat::tune` costs milliseconds (5.6 ms median in
/// perfbench tune_cold on a 4-vCPU VM), tens of the SpMV calls it
/// optimizes, which is too long on a traffic-serving path.
/// `TuningService::tuneAsync`
/// instead returns a servable `AsyncSpmv` handle in O(1): the handle
/// multiplies on the basic (strategy-free) CSR kernel from call #1, while a
/// background worker thread runs the full Feature/Predict/Measure/Bind
/// pipeline and atomically swaps the tuned `FormatOperator` into the handle
/// at completion. Callers never observe the swap except as a throughput
/// improvement; per the amortization analysis in PAPERS.md (arXiv
/// 2407.00019), tuning then pays for itself without a pay-up-front window.
///
/// Robustness contract (the PR 7 ladder, extended off-thread):
///  - Every worker failure — injected fault, watchdog budget expiry,
///    exception out of any pipeline stage — parks the handle in the Failed
///    state still serving basic CSR. Correct results, never a crash, never
///    slower than not tuning (the never-slower guardrail also rides along
///    in the worker's TuneOptions).
///  - Publication is a release-store of an immutable plan pointer
///    (TSan-clean, no refcount traffic on the multiply hot path): in-flight
///    multiplies finish on the plan they loaded while new calls see the
///    tuned plan; the job owns both plans, so neither dies before the
///    last handle does.
///  - The model is fixed for the service's lifetime: it is set before the
///    worker starts and never changes, so the worker reads it without a
///    lock.
///  - The worker never forks an OpenMP team: it sets its own thread to one
///    OpenMP thread, so its features, conversions, race and never-slower
///    check run on one core, and the callers' team is the only one in the
///    process. The plans it binds still slice for the callers, since the
///    slice count is a process value (core/FormatOperator.h).
///
/// Typical usage:
/// \code
///   smat::TuningService<double> Service(smat::Smat<double>::fromFile(P));
///   smat::AsyncSpmv<double> Op = Service.tuneAsync(A);   // O(1), servable
///   Op.multiply(X.data(), Y.data(), 1);                  // basic CSR now,
///                                                        // tuned kernel
///                                                        // once ready
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_TUNINGSERVICE_H
#define SMAT_CORE_TUNINGSERVICE_H

#include "core/Smat.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace smat {

/// Where an async tune currently stands. The handle is servable in every
/// state; the state only says which plan multiplies run on.
enum class AsyncTuneState : int {
  /// Queued behind other jobs; serving the bootstrap basic-CSR plan.
  Pending = 0,
  /// The worker is running the pipeline; still serving basic CSR.
  Tuning = 1,
  /// The tuned plan has been swapped in and is serving.
  Tuned = 2,
  /// The tune failed (fault, budget, rejection); the bootstrap basic-CSR
  /// plan serves permanently. error() carries the reason.
  Failed = 3,
};

/// Monotonic counters describing a service instance's history.
struct TuningServiceStats {
  std::uint64_t Submitted = 0;   ///< tuneAsync accepted jobs.
  std::uint64_t Tuned = 0;       ///< Jobs whose tuned plan was published.
  std::uint64_t Failed = 0;      ///< Jobs parked on the bootstrap plan.
};

namespace detail {

/// An immutable published plan: the operator plus the report describing how
/// it was chosen. Handles swap between AsyncPlans via an atomic pointer
/// whose targets the owning job keeps alive.
template <typename T> struct AsyncPlan {
  std::unique_ptr<FormatOperator<T>> Op;
  TuningReport Report;
  /// False for the bootstrap basic-CSR plan, true once tuned.
  bool Tuned = false;
};

/// Shared state of one async job. The handle and the worker each hold a
/// shared_ptr, so the matrix (which the plans' CSR operators borrow)
/// outlives every plan regardless of which side finishes last.
template <typename T> struct AsyncJob {
  /// The service's own copy of the input; operators borrow it, so it must
  /// be immutable for the job's lifetime.
  CsrMatrix<T> Matrix;
  /// The bootstrap basic-CSR plan, bound at submit time. Never null, never
  /// replaced: it keeps serving forever when the tune fails.
  std::shared_ptr<const AsyncPlan<T>> Bootstrap;
  /// The tuned plan. Written exactly once by the worker before it publishes
  /// the pointer below; no other thread touches this member.
  std::shared_ptr<const AsyncPlan<T>> TunedPlan;
  /// The serving plan: Bootstrap.get() from construction, TunedPlan.get()
  /// after the worker's release-store publish. Both plans are immutable
  /// once published and owned by the job itself, so readers take no
  /// refcount traffic on the multiply hot path and an in-flight multiply
  /// can never outlive the plan it loaded (the handle pins the job).
  std::atomic<const AsyncPlan<T> *> Plan{nullptr};
  std::atomic<int> State{static_cast<int>(AsyncTuneState::Pending)};
  /// Completion latch for waitTuned().
  std::mutex DoneMutex;
  std::condition_variable DoneCv;
  bool Done = false;
  /// Failure reason, written by the worker before Done (read after).
  std::string Error;
};

} // namespace detail

/// The servable handle returned by TuningService::tuneAsync. Cheap to copy
/// (two shared_ptr-sized members); all copies observe the same tune.
///
/// Thread safety: multiply()/apply() may race freely with the worker's plan
/// swap and with each other. Accessors (state, format, report, ...) are
/// likewise safe at any time.
template <typename T> class AsyncSpmv {
public:
  AsyncSpmv() = default;

  /// Computes y := A*x on the currently published plan (basic CSR until
  /// the tuned swap lands).
  void apply(const T *X, T *Y) const {
    assert(Job && "apply() on a default-constructed AsyncSpmv");
    Job->Plan.load(std::memory_order_acquire)->Op->apply(X, Y);
  }

  /// Computes Y := A*X for \p K row-major right-hand sides.
  void multiply(const T *X, T *Y, index_t K) const {
    assert(Job && "multiply() on a default-constructed AsyncSpmv");
    Job->Plan.load(std::memory_order_acquire)->Op->multiply(X, Y, K);
  }

  AsyncTuneState state() const {
    assert(Job && "state() on a default-constructed AsyncSpmv");
    return static_cast<AsyncTuneState>(
        Job->State.load(std::memory_order_acquire));
  }

  /// True once the tuned plan is serving.
  bool tuned() const { return state() == AsyncTuneState::Tuned; }

  /// Blocks until the tune completes (Tuned or Failed). \returns true when
  /// the tuned plan was published; false on failure or when \p TimeoutSeconds
  /// (0 = wait forever) expires first.
  bool waitTuned(double TimeoutSeconds = 0.0) const;

  /// \returns the failure reason after state() == Failed ("" otherwise).
  std::string error() const;

  /// The report of the currently serving plan: the bootstrap's synthetic
  /// basic-CSR report until the swap, the full pipeline trace after.
  TuningReport report() const {
    assert(Job && "report() on a default-constructed AsyncSpmv");
    return Job->Plan.load(std::memory_order_acquire)->Report;
  }

  FormatKind format() const { return report().ChosenFormat; }

  /// The currently serving operator (basic CSR until the swap). The job
  /// owns every plan it publishes, so the reference stays valid while this
  /// handle lives.
  const FormatOperator<T> &formatOperator() const {
    assert(Job && "formatOperator() on a default-constructed AsyncSpmv");
    return *Job->Plan.load(std::memory_order_acquire)->Op;
  }

  index_t numRows() const { return Job->Matrix.NumRows; }
  index_t numCols() const { return Job->Matrix.NumCols; }
  std::int64_t nnz() const { return Job->Matrix.nnz(); }

  /// False only for a default-constructed handle.
  explicit operator bool() const { return Job != nullptr; }

private:
  template <typename U> friend class TuningService;

  explicit AsyncSpmv(std::shared_ptr<detail::AsyncJob<T>> JobIn)
      : Job(std::move(JobIn)) {}

  std::shared_ptr<detail::AsyncJob<T>> Job;
};

/// The async tuning service: one background worker thread, one model and
/// a shared PlanCache. One instance serves many matrices; destruction stops
/// the worker (the running job finishes, queued jobs park on their
/// bootstrap plans).
template <typename T> class TuningService {
public:
  struct Options {
    /// Per-job tuning options. Cache is managed by the service (any value
    /// set here is overwritten); a CSR plan borrows the job's owned matrix
    /// copy. The watchdog budgets default ON for the service — a background
    /// tune that stalls must degrade, not wedge the worker — and are
    /// inherited by every job.
    TuneOptions Tune = defaultTuneOptions();

    static TuneOptions defaultTuneOptions() {
      TuneOptions O;
      O.TuneBudgetSeconds = 5.0;
      O.MeasureBudgetSeconds = 1.0;
      return O;
    }
  };

  explicit TuningService(Smat<T> Tuner, Options Opts = Options());
  ~TuningService();

  TuningService(const TuningService &) = delete;
  TuningService &operator=(const TuningService &) = delete;

  /// Submits \p A for background tuning and \returns a handle that serves
  /// basic-CSR SpMV immediately (O(nnz) copy + O(1) bind; no measurement,
  /// no conversion). Throws std::invalid_argument on a structurally invalid
  /// matrix or bad options — validation is synchronous so the error
  /// surfaces at the call site, not in a worker log.
  AsyncSpmv<T> tuneAsync(const CsrMatrix<T> &A);
  /// Rvalue overload: moves the matrix into the service instead of copying.
  AsyncSpmv<T> tuneAsync(CsrMatrix<T> &&A);

  /// The shared plan cache (stats; warm-hit-rate reporting).
  const PlanCache &planCache() const { return Cache; }

  TuningServiceStats stats() const;

  /// Aggregated resilience counters of the tuner (consistent even while the
  /// worker is mid-tune; see Smat::resilienceCounters).
  SmatResilienceCounters resilienceCounters() const {
    return Model.resilienceCounters();
  }

private:
  std::shared_ptr<detail::AsyncJob<T>> makeJob(CsrMatrix<T> &&A) const;
  void workerLoop();
  void runJob(detail::AsyncJob<T> &Job);
  static void finishJob(detail::AsyncJob<T> &Job, AsyncTuneState Final,
                        std::string Error);

  Options Opts;
  /// Set before the worker starts and never changed.
  const Smat<T> Model;
  PlanCache Cache;

  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<detail::AsyncJob<T>>> Queue;
  bool Stopping = false;
  std::thread Worker;

  std::atomic<std::uint64_t> NumSubmitted{0};
  std::atomic<std::uint64_t> NumTuned{0};
  std::atomic<std::uint64_t> NumFailed{0};
};

extern template class AsyncSpmv<float>;
extern template class AsyncSpmv<double>;
extern template class TuningService<float>;
extern template class TuningService<double>;

} // namespace smat

#endif // SMAT_CORE_TUNINGSERVICE_H
