//===- core/TuningService.cpp - Async tuning-as-a-service runtime ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/TuningService.h"

#include "kernels/KernelRegistry.h"
#include "matrix/Validate.h"
#include "support/FaultInjection.h"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace smat;

//===----------------------------------------------------------------------===//
// AsyncSpmv
//===----------------------------------------------------------------------===//

template <typename T>
bool AsyncSpmv<T>::waitTuned(double TimeoutSeconds) const {
  assert(Job && "waitTuned() on a default-constructed AsyncSpmv");
  std::unique_lock<std::mutex> Lock(Job->DoneMutex);
  if (TimeoutSeconds > 0.0) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::duration<double>(TimeoutSeconds));
    if (!Job->DoneCv.wait_until(Lock, Deadline, [&] { return Job->Done; }))
      return false;
  } else {
    Job->DoneCv.wait(Lock, [&] { return Job->Done; });
  }
  return Job->State.load(std::memory_order_acquire) ==
         static_cast<int>(AsyncTuneState::Tuned);
}

template <typename T> std::string AsyncSpmv<T>::error() const {
  assert(Job && "error() on a default-constructed AsyncSpmv");
  std::lock_guard<std::mutex> Lock(Job->DoneMutex);
  return Job->Error;
}

//===----------------------------------------------------------------------===//
// TuningService
//===----------------------------------------------------------------------===//

template <typename T>
TuningService<T>::TuningService(Smat<T> Tuner, Options OptsIn)
    : Opts(std::move(OptsIn)), Model(std::move(Tuner)) {
  Worker = std::thread([this] { workerLoop(); });
}

template <typename T> TuningService<T>::~TuningService() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  if (Worker.joinable())
    Worker.join();
  // Jobs still queued at shutdown park on their bootstrap plans: the
  // handles keep serving basic CSR, they just never get tuned.
  std::deque<std::shared_ptr<detail::AsyncJob<T>>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Remaining.swap(Queue);
  }
  for (auto &Job : Remaining) {
    NumFailed.fetch_add(1, std::memory_order_relaxed);
    finishJob(*Job, AsyncTuneState::Failed, "tuning service shut down");
  }
}

template <typename T>
std::shared_ptr<detail::AsyncJob<T>>
TuningService<T>::makeJob(CsrMatrix<T> &&A) const {
  auto Job = std::make_shared<detail::AsyncJob<T>>();
  Job->Matrix = std::move(A);
  // The bootstrap plan: the basic (strategy-free) CSR kernels borrowed
  // against the job's own matrix copy. Precondition-free, O(1) to bind —
  // this is what makes the handle servable before the worker ever runs.
  auto Boot = std::make_shared<detail::AsyncPlan<T>>();
  Boot->Op = basicCsrOperator(Job->Matrix);
  Boot->Report.ChosenFormat = FormatKind::CSR;
  Boot->Report.KernelName = Boot->Op->kernelName();
  Boot->Tuned = false;
  Job->Bootstrap = std::move(Boot);
  Job->Plan.store(Job->Bootstrap.get(), std::memory_order_release);
  return Job;
}

template <typename T>
Expected<AsyncSpmv<T>> TuningService<T>::submit(CsrMatrix<T> &&A) {
  // Validation is synchronous: a malformed matrix or option set must fail
  // at the call site with the same diagnostics the blocking API produces,
  // not in a worker log after the caller already holds a handle.
  if (Status S = validateCsr(A); !S.ok())
    return S;
  if (Status S = Smat<T>::validateTuneOptions(Opts.Tune); !S.ok())
    return S;

  auto Job = makeJob(std::move(A));
  NumSubmitted.fetch_add(1, std::memory_order_relaxed);

  // Fault site: the enqueue itself fails (queue allocation, service
  // tear-down race). The handle is already servable on its bootstrap plan,
  // so the degradation is "never tuned", not an error the caller sees.
  if (fault::injectFailure("async.submit")) {
    NumFailed.fetch_add(1, std::memory_order_relaxed);
    finishJob(*Job, AsyncTuneState::Failed, "injected submit failure");
    return AsyncSpmv<T>(std::move(Job));
  }

  bool Rejected = false;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping)
      Rejected = true;
    else
      Queue.push_back(Job);
  }
  if (Rejected) {
    NumFailed.fetch_add(1, std::memory_order_relaxed);
    finishJob(*Job, AsyncTuneState::Failed, "tuning service shut down");
  } else {
    QueueCv.notify_one();
  }
  return AsyncSpmv<T>(std::move(Job));
}

template <typename T>
AsyncSpmv<T> TuningService<T>::tuneAsync(const CsrMatrix<T> &A) {
  return tuneAsync(CsrMatrix<T>(A));
}

template <typename T> AsyncSpmv<T> TuningService<T>::tuneAsync(CsrMatrix<T> &&A) {
  Expected<AsyncSpmv<T>> Result = submit(std::move(A));
  if (!Result.ok())
    throw std::invalid_argument("SMAT async tune rejected input: " +
                                Result.status().message());
  return std::move(Result.value());
}

template <typename T>
Expected<AsyncSpmv<T>> TuningService<T>::tryTuneAsync(const CsrMatrix<T> &A) {
  return submit(CsrMatrix<T>(A));
}

template <typename T>
Expected<AsyncSpmv<T>> TuningService<T>::tryTuneAsync(CsrMatrix<T> &&A) {
  return submit(std::move(A));
}

template <typename T> void TuningService<T>::workerLoop() {
#ifdef _OPENMP
  // One OpenMP thread for this thread only: the worker's parallel regions
  // run on itself and never start a second team beside the callers'.
  omp_set_num_threads(1);
#endif
  for (;;) {
    std::shared_ptr<detail::AsyncJob<T>> Job;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Stopping)
        return; // leftover jobs are parked by the destructor
      Job = std::move(Queue.front());
      Queue.pop_front();
    }
    runJob(*Job);
  }
}

template <typename T> void TuningService<T>::runJob(detail::AsyncJob<T> &Job) {
  Job.State.store(static_cast<int>(AsyncTuneState::Tuning),
                  std::memory_order_release);
  std::string Error;
  try {
    // Fault site: the worker dies before the pipeline starts (thread-local
    // init failure, scheduler kill). Must park the handle on basic CSR.
    fault::injectKernelFault("async.worker.start");

    TuneOptions JobOpts = Opts.Tune;
    JobOpts.Cache = &Cache;
    JobOpts.CsrMode = CsrStorage::Borrowed;

    Expected<TunedSpmv<T>> Result = Model.tryTune(Job.Matrix, JobOpts);
    if (!Result.ok()) {
      Error = Result.status().message();
    } else {
      auto Plan = std::make_shared<detail::AsyncPlan<T>>();
      Plan->Report = Result.value().report();
      Plan->Op = Result.value().takeOperator();
      Plan->Tuned = true;
      if (!Plan->Op) {
        Error = "tune returned no operator";
      } else if (fault::injectFailure("async.worker.publish")) {
        // Fault site: the swap itself fails. The bootstrap plan keeps
        // serving; the tuned plan (and its converted storage) is dropped.
        Error = "injected publish failure";
      } else {
        // TunedPlan is worker-private until this release-store makes it
        // reachable; the job owns it from here on, so readers can serve
        // from the raw pointer without refcount traffic.
        Job.TunedPlan = std::move(Plan);
        Job.Plan.store(Job.TunedPlan.get(), std::memory_order_release);
        NumTuned.fetch_add(1, std::memory_order_relaxed);
        finishJob(Job, AsyncTuneState::Tuned, "");
        return;
      }
    }
  } catch (const std::exception &E) {
    Error = E.what();
  } catch (...) {
    Error = "unknown exception in async tuning worker";
  }
  // Every failure path lands here: the handle stays on its bootstrap
  // basic-CSR plan — correct results, degraded performance, no crash.
  NumFailed.fetch_add(1, std::memory_order_relaxed);
  finishJob(Job, AsyncTuneState::Failed, std::move(Error));
}

template <typename T>
void TuningService<T>::finishJob(detail::AsyncJob<T> &Job,
                                 AsyncTuneState Final, std::string Error) {
  Job.State.store(static_cast<int>(Final), std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(Job.DoneMutex);
    Job.Done = true;
    Job.Error = std::move(Error);
  }
  Job.DoneCv.notify_all();
}

template <typename T> TuningServiceStats TuningService<T>::stats() const {
  TuningServiceStats Out;
  Out.Submitted = NumSubmitted.load(std::memory_order_relaxed);
  Out.Tuned = NumTuned.load(std::memory_order_relaxed);
  Out.Failed = NumFailed.load(std::memory_order_relaxed);
  return Out;
}

namespace smat {
template class AsyncSpmv<float>;
template class AsyncSpmv<double>;
template class TuningService<float>;
template class TuningService<double>;
} // namespace smat

AsyncSpmv<double> smat::SMAT_dCSR_SpMV_async(TuningService<double> &Service,
                                             const CsrMatrix<double> &A) {
  return Service.tuneAsync(A);
}

AsyncSpmv<float> smat::SMAT_sCSR_SpMV_async(TuningService<float> &Service,
                                            const CsrMatrix<float> &A) {
  return Service.tuneAsync(A);
}
