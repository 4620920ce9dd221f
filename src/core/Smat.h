//===- core/Smat.h - The SMAT runtime auto-tuner ----------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-line stage of SMAT (paper Section 6 / Figure 7) and the unified
/// programming interface (paper Figure 5): the user hands over a CSR matrix
/// and receives a tuned SpMV. The runtime is a staged pipeline
/// (FeatureStage -> PredictStage -> MeasureStage -> BindStage -> CheckStage,
/// see TuningPipeline.h) with an optional feature-fingerprint PlanCache that
/// lets structurally equivalent matrices skip prediction and measurement.
///
/// Typical usage:
/// \code
///   smat::Smat<double> Tuner(Model);            // model trained off-line
///   smat::TunedSpmv<double> Op = Tuner.tune(A); // A: CsrMatrix<double>
///   Op.apply(X.data(), Y.data());               // y := A*x, tuned kernel
///
///   // Tuning many structurally similar matrices? Share a plan cache so
///   // repeated structure pays the full tuning cost only once:
///   smat::PlanCache Cache;
///   smat::TuneOptions Opts;
///   Opts.Cache = &Cache;
///   for (const auto &M : Matrices)
///     Ops.push_back(Tuner.tune(M, Opts));       // warm tunes skip measure
///
///   // Input cannot outlive the operator? Request an owning CSR bind,
///   // which copies the matrix (tuning a temporary does not compile):
///   Opts.CsrMode = smat::CsrStorage::Owned;
///   smat::TunedSpmv<double> SelfContained = Tuner.tune(ShortLived, Opts);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_SMAT_H
#define SMAT_CORE_SMAT_H

#include "core/CostModel.h"
#include "core/LearningModel.h"
#include "core/PlanCache.h"
#include "core/TuningPipeline.h"
#include "matrix/FormatConvert.h"
#include "matrix/Validate.h"
#include "support/Status.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace smat {

/// What the tuner did for one matrix: the Table-3 trace columns plus
/// per-stage wall-clock accounting.
struct TuningReport {
  FeatureVector Features;
  /// Ruleset outcome. Meaningless (left at defaults) when PlanCacheHit is
  /// set: a cache hit skips PredictStage entirely.
  FormatKind ModelPrediction = FormatKind::CSR;
  double ModelConfidence = 0.0;
  bool ModelConfident = false;
  /// Every plan measured for the selection, each with the kernel its
  /// operator ran: the execute-and-measure candidates, then the never-slower
  /// check's basic-CSR side (IsBaseline) and, when no race recorded it, the
  /// check's bound side. Empty on a plan-cache hit, when measurement was
  /// disallowed, and when a confident plan skipped the check.
  std::vector<MeasuredCandidate> MeasuredCandidates;
  /// The never-slower guardrail fired: the check found basic CSR faster
  /// than the bound plan by more than GuardrailNoiseFloor, so the untuned
  /// basic CSR plan was bound instead.
  bool GuardrailEngaged = false;
  /// Analytic bottleneck classification (CostModel.h) of this matrix; only
  /// meaningful when CostModelApplied is set (features survived and the
  /// classifier ran).
  BottleneckClass Bottleneck = BottleneckClass::IrregularityBound;
  bool CostModelApplied = false;
  /// Final decision.
  FormatKind ChosenFormat = FormatKind::CSR;
  std::string KernelName;
  /// True when the decision was reused from a PlanCache fingerprint hit
  /// (PredictStage, MeasureStage and the never-slower check were skipped).
  bool PlanCacheHit = false;
  /// Overhead accounting: total tuning seconds and the equivalent number of
  /// basic CSR-SpMV executions (the paper's "times of CSR-SpMV" metric).
  /// TuneSeconds excludes the basic-CSR timings: the check's basic side and
  /// the separate overhead-unit timing. BaselineSeconds reports their wall
  /// clock instead of hiding it in a clamped subtraction, so budget overruns
  /// there stay visible. CsrSpmvSeconds is the per-call time of one basic
  /// CSR SpMV: the check's k=1 basic samples, else its own timing.
  double TuneSeconds = 0.0;
  double BaselineSeconds = 0.0;
  double CsrSpmvSeconds = 0.0;
  /// Throughput of the check's basic-CSR side: basic CSR SpMV for
  /// single-vector tunes, basic CSR SpMM at the requested width for batched
  /// tunes. 0 when the check did not run (skipped, or faulted).
  double BaselineGflops = 0.0;
  /// Per-stage wall-clock accounting. FeatureSeconds covers extraction
  /// step 1; a lazily triggered step 2 (power-law R) is included in
  /// PredictSeconds, which demanded it.
  double FeatureSeconds = 0.0;
  double PredictSeconds = 0.0;
  double MeasureSeconds = 0.0;
  double BindSeconds = 0.0;
  /// Wall clock of the check's bound side (0 when the check did not run).
  double GuardrailSeconds = 0.0;
  /// Resilience trace (DESIGN.md section 12). The rung of the degradation
  /// ladder this tune had to take; None when everything succeeded.
  DegradationLevel Degradation = DegradationLevel::None;
  /// Candidates (or pipeline stages) dropped mid-tune because a conversion
  /// or kernel failed; the plan was built from the survivors.
  int DroppedCandidates = 0;
  /// Some candidate's timing samples stayed noisier than the robust-measure
  /// spread threshold even after backoff retries.
  bool NoisyTimings = false;
  /// A MeasureBudgetSeconds/TuneBudgetSeconds budget expired mid-tune and
  /// the remaining work was skipped.
  bool BudgetExhausted = false;

  double overheadRatio() const {
    return CsrSpmvSeconds > 0 ? TuneSeconds / CsrSpmvSeconds : 0.0;
  }
};

/// Snapshot of one Smat instance's monotonic resilience counters, aggregated
/// across every tune it has run (thread-safe; see Smat::resilienceCounters).
struct SmatResilienceCounters {
  std::uint64_t Tunes = 0;              ///< Tunes completed.
  std::uint64_t CandidatesDropped = 0;  ///< Candidates/stages dropped.
  std::uint64_t NoisyTunes = 0;         ///< Tunes with NoisyTimings.
  std::uint64_t BudgetExhaustedTunes = 0; ///< Tunes with BudgetExhausted.
  std::uint64_t BasicKernelFallbacks = 0; ///< Tunes that bound the basic rung.
  std::uint64_t ReferenceFallbacks = 0;   ///< Tunes that bound the last rung.
  std::uint64_t GuardrailEngagements = 0; ///< Tunes bound to the untuned
                                          ///< baseline by the guardrail.
};

/// A tuned SpMV operator bound to one matrix.
///
/// Dispatch goes through the polymorphic `FormatOperator`, which owns the
/// converted COO/DIA/ELL/BSR storage. When the chosen format is CSR the
/// default (`CsrStorage::Borrowed`) operator references the caller's matrix
/// instead of copying it, so the input CsrMatrix must outlive the TunedSpmv
/// (the usual pattern: tune once, apply in a solver loop, drop both
/// together); `ownsStorage()` reports whether that constraint applies.
/// Request `TuneOptions::CsrMode = CsrStorage::Owned` for a self-contained
/// operator; tuning a temporary matrix does not compile.
template <typename T> class TunedSpmv {
public:
  /// \returns the chosen storage format.
  FormatKind format() const { return Report.ChosenFormat; }

  /// \returns the bound kernel's name.
  const std::string &kernelName() const { return Report.KernelName; }

  /// \returns the full tuning trace.
  const TuningReport &report() const { return Report; }

  /// Computes y := A*x with the tuned (format, kernel) pair.
  /// \p X must have numCols() elements, \p Y numRows().
  void apply(const T *X, T *Y) const {
    assert(Op && "apply() on a default or moved-from TunedSpmv");
    Op->apply(X, Y);
  }

  /// Computes Y := A*X for a row-major block of \p K right-hand sides:
  /// \p X holds numCols() rows of K contiguous values each, \p Y numRows()
  /// rows of K. Dispatches to the bound register-tiled SpMM kernel (K = 1
  /// falls back to apply()). Any K >= 1 is supported regardless of the
  /// TuneOptions::BatchWidth the tune optimized for — the width only
  /// steers which kernel was considered optimal.
  void multiply(const T *X, T *Y, index_t K) const {
    assert(Op && "multiply() on a default or moved-from TunedSpmv");
    assert(K >= 1 && "batch width must be at least 1");
    Op->multiply(X, Y, K);
  }

  /// \returns the bound batched (SpMM) kernel's name; for operators without
  /// a dedicated SpMM kernel this is the SpMV kernel driving the
  /// column-at-a-time fallback.
  const char *spmmKernelName() const {
    assert(Op && "no operator bound");
    return Op->spmmKernelName();
  }

  /// \returns the bound operator (for storage/ownership introspection).
  const FormatOperator<T> &formatOperator() const {
    assert(Op && "no operator bound");
    return *Op;
  }

  /// \returns false when the operator borrows the caller's CSR matrix,
  /// which must then outlive this object.
  bool ownsStorage() const { return Op && Op->ownsStorage(); }

  /// Releases ownership of the bound operator, leaving this TunedSpmv in
  /// the moved-from state (apply() asserts). Used by runtime layers that
  /// re-publish the operator under their own lifetime discipline — the
  /// async TuningService swaps it into a handle's atomic plan slot.
  std::unique_ptr<FormatOperator<T>> takeOperator() {
    return std::move(Op);
  }

  index_t numRows() const { return NumRows; }
  index_t numCols() const { return NumCols; }
  std::int64_t nnz() const { return Nnz; }

private:
  template <typename U> friend class Smat;

  TuningReport Report;
  index_t NumRows = 0, NumCols = 0;
  std::int64_t Nnz = 0;
  std::unique_ptr<FormatOperator<T>> Op;
};

/// The SMAT auto-tuner: one instance per trained model (reused across
/// matrices, the paper's reusability property).
template <typename T> class Smat {
public:
  explicit Smat(LearningModel ModelIn)
      : Model(std::move(ModelIn)),
        Resilience(std::make_unique<ResilienceState>()) {
    Model.refreshRuleMetadata();
  }

  /// Copying a tuner copies the model but starts fresh resilience counters
  /// (they describe an instance's history, not the model).
  Smat(const Smat &Other)
      : Model(Other.Model), Resilience(std::make_unique<ResilienceState>()) {}
  Smat &operator=(const Smat &Other) {
    Model = Other.Model;
    Resilience = std::make_unique<ResilienceState>();
    return *this;
  }
  Smat(Smat &&) noexcept = default;
  Smat &operator=(Smat &&) noexcept = default;

  /// Loads a model file produced by saveModelFile. Throws std::runtime_error
  /// (with the path and parse error in the message) on failure.
  static Smat fromFile(const std::string &Path);

  /// Non-throwing variant of fromFile: \returns the tuner, or std::nullopt
  /// with the failure reason written to \p Error (when non-null).
  static std::optional<Smat> tryFromFile(const std::string &Path,
                                         std::string *Error = nullptr);

  const LearningModel &model() const { return Model; }

  /// Tunes SpMV for \p A: the staged pipeline of paper Figure 7. With the
  /// default `CsrStorage::Borrowed`, \p A must outlive the returned operator
  /// (see TunedSpmv). \p A is validated up front; a structurally invalid
  /// matrix throws std::invalid_argument carrying the diagnostic (which row,
  /// which invariant). Callers that must not throw use tryTune.
  TunedSpmv<T> tune(const CsrMatrix<T> &A,
                    const TuneOptions &Opts = TuneOptions()) const;

  /// Tuning a temporary is rejected: the default operator borrows the
  /// matrix, which would die under it. Keep the matrix alive, or tune a
  /// named one with `CsrMode = CsrStorage::Owned`, which copies it.
  TunedSpmv<T> tune(CsrMatrix<T> &&A,
                    const TuneOptions &Opts = TuneOptions()) const = delete;

  /// Non-throwing tune: validates \p A and \p Opts and returns either the
  /// tuned operator or the Status naming the violated invariant. A failed
  /// tryTune leaves every side channel untouched — in particular it never
  /// inserts a plan into Opts.Cache.
  Expected<TunedSpmv<T>> tryTune(const CsrMatrix<T> &A,
                                 const TuneOptions &Opts = TuneOptions()) const;

  /// Rejected for the same reason as the rvalue tune().
  Expected<TunedSpmv<T>>
  tryTune(CsrMatrix<T> &&A,
          const TuneOptions &Opts = TuneOptions()) const = delete;

  /// \returns a snapshot of this instance's resilience counters: how many
  /// tunes ran, and how often they dropped candidates, hit noisy timings,
  /// exhausted budgets, fell down the degradation ladder, or bound basic
  /// CSR by the guardrail. Thread-safe, and never half a tune: each tune
  /// adds its whole delta under the same lock this copy is taken under.
  SmatResilienceCounters resilienceCounters() const;

  /// Validates the option struct alone (budgets, batch width, flag
  /// combinations) without a matrix. Public so layers that defer the tune —
  /// the async TuningService validates options at submit time, before the
  /// worker ever sees the job — can reject bad options synchronously with
  /// the same diagnostics tune() would produce.
  static Status validateTuneOptions(const TuneOptions &Opts);

private:
  /// Validation shared by every public entry point (matrix and options).
  static Status validateTuneInput(const CsrMatrix<T> &A,
                                  const TuneOptions &Opts);

  TunedSpmv<T> tuneImpl(const CsrMatrix<T> &A, const TuneOptions &Opts) const;

  /// The counters and their lock, behind a pointer so the tuner stays
  /// movable (and tuneImpl, which is const, can count).
  struct ResilienceState {
    std::mutex Lock;
    SmatResilienceCounters Counters;
  };

  LearningModel Model;
  std::unique_ptr<ResilienceState> Resilience;
};

extern template class TunedSpmv<float>;
extern template class TunedSpmv<double>;
extern template class Smat<float>;
extern template class Smat<double>;

/// The paper's unified C-style interface (Figure 5): one call, CSR in,
/// tuned SpMV out. 'd'/'s' select double/single precision. The optional
/// \p Opts carries the production knobs (plan cache, CSR ownership).
/// Malformed input throws std::invalid_argument with the diagnostic; the
/// _try variants below report the same failures as error codes instead.
/// Every entry point rejects a temporary matrix, as Smat::tune does.
TunedSpmv<double> SMAT_dCSR_SpMV(const Smat<double> &Tuner,
                                 const CsrMatrix<double> &A,
                                 const TuneOptions &Opts = TuneOptions());
TunedSpmv<float> SMAT_sCSR_SpMV(const Smat<float> &Tuner,
                                const CsrMatrix<float> &A,
                                const TuneOptions &Opts = TuneOptions());
TunedSpmv<double> SMAT_dCSR_SpMV(const Smat<double> &, CsrMatrix<double> &&,
                                 const TuneOptions & = TuneOptions()) = delete;
TunedSpmv<float> SMAT_sCSR_SpMV(const Smat<float> &, CsrMatrix<float> &&,
                                const TuneOptions & = TuneOptions()) = delete;

/// Batched (multi-RHS) variants: tune for \p BatchWidth right-hand sides
/// and return an operator whose multiply(X, Y, K) runs the register-tiled
/// SpMM kernel the scoreboard picked for that width bucket. \p BatchWidth
/// overrides Opts.BatchWidth; everything else in \p Opts applies as usual.
TunedSpmv<double> SMAT_dCSR_SpMM(const Smat<double> &Tuner,
                                 const CsrMatrix<double> &A,
                                 index_t BatchWidth,
                                 TuneOptions Opts = TuneOptions());
TunedSpmv<float> SMAT_sCSR_SpMM(const Smat<float> &Tuner,
                                const CsrMatrix<float> &A, index_t BatchWidth,
                                TuneOptions Opts = TuneOptions());
TunedSpmv<double> SMAT_dCSR_SpMM(const Smat<double> &, CsrMatrix<double> &&,
                                 index_t, TuneOptions = TuneOptions()) = delete;
TunedSpmv<float> SMAT_sCSR_SpMM(const Smat<float> &, CsrMatrix<float> &&,
                                index_t, TuneOptions = TuneOptions()) = delete;

/// Error-code variants of the unified interface for callers that cannot
/// unwind: validates \p A, fills \p Out on success, and \returns
/// ErrorCode::Ok — or the failure code, with the full diagnostic copied to
/// \p ErrorMessage when non-null. \p Out is untouched on failure.
ErrorCode SMAT_dCSR_SpMV_try(const Smat<double> &Tuner,
                             const CsrMatrix<double> &A,
                             TunedSpmv<double> &Out,
                             std::string *ErrorMessage = nullptr,
                             const TuneOptions &Opts = TuneOptions());
ErrorCode SMAT_sCSR_SpMV_try(const Smat<float> &Tuner,
                             const CsrMatrix<float> &A, TunedSpmv<float> &Out,
                             std::string *ErrorMessage = nullptr,
                             const TuneOptions &Opts = TuneOptions());
ErrorCode SMAT_dCSR_SpMM_try(const Smat<double> &Tuner,
                             const CsrMatrix<double> &A, index_t BatchWidth,
                             TunedSpmv<double> &Out,
                             std::string *ErrorMessage = nullptr,
                             TuneOptions Opts = TuneOptions());
ErrorCode SMAT_sCSR_SpMM_try(const Smat<float> &Tuner,
                             const CsrMatrix<float> &A, index_t BatchWidth,
                             TunedSpmv<float> &Out,
                             std::string *ErrorMessage = nullptr,
                             TuneOptions Opts = TuneOptions());
ErrorCode SMAT_dCSR_SpMV_try(const Smat<double> &, CsrMatrix<double> &&,
                             TunedSpmv<double> &, std::string * = nullptr,
                             const TuneOptions & = TuneOptions()) = delete;
ErrorCode SMAT_sCSR_SpMV_try(const Smat<float> &, CsrMatrix<float> &&,
                             TunedSpmv<float> &, std::string * = nullptr,
                             const TuneOptions & = TuneOptions()) = delete;
ErrorCode SMAT_dCSR_SpMM_try(const Smat<double> &, CsrMatrix<double> &&,
                             index_t, TunedSpmv<double> &,
                             std::string * = nullptr,
                             TuneOptions = TuneOptions()) = delete;
ErrorCode SMAT_sCSR_SpMM_try(const Smat<float> &, CsrMatrix<float> &&, index_t,
                             TunedSpmv<float> &, std::string * = nullptr,
                             TuneOptions = TuneOptions()) = delete;

} // namespace smat

#endif // SMAT_CORE_SMAT_H
