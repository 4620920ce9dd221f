//===- core/Smat.cpp - The SMAT runtime auto-tuner ------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"

#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <cmath>
#include <limits>
#include <stdexcept>

using namespace smat;

namespace {

/// Rungs are ordered; a tune reports the deepest one it touched.
DegradationLevel maxLevel(DegradationLevel A, DegradationLevel B) {
  return static_cast<int>(A) >= static_cast<int>(B) ? A : B;
}

/// Table 3's overhead unit: seconds per call of one basic CSR SpMV on \p A,
/// where the never-slower check takes no k=1 basic sample. Min-of-k quick
/// sampling, not a single shot: the minimum is robust — interference only
/// adds time. ORs the spread check into \p Noisy.
template <typename T>
double quickSpmvSeconds(const CsrMatrix<T> &A, bool &Noisy) {
  std::unique_ptr<FormatOperator<T>> Basic = basicCsrOperator(A);
  AlignedVector<T> X(static_cast<std::size_t>(A.NumCols), T(1));
  AlignedVector<T> Y(static_cast<std::size_t>(A.NumRows), T(0));
  RobustMeasureOptions Opts;
  Opts.MinSeconds = 1e-4;
  Opts.MinReps = 2;
  Opts.MaxRetries = 1;
  RobustMeasureResult M = robustMeasureSecondsPerCall(
      [&] {
        fault::injectKernelFault("measure.baseline");
        Basic->apply(X.data(), Y.data());
      },
      Opts);
  Noisy = Noisy || M.Noisy;
  return M.SecondsPerCall;
}

} // namespace

template <typename T> Smat<T> Smat<T>::fromFile(const std::string &Path) {
  LearningModel Model;
  std::string Error;
  if (!loadModelFile(Path, Model, Error))
    throw std::runtime_error("SMAT model load failed for '" + Path +
                             "': " + Error);
  return Smat(std::move(Model));
}

template <typename T>
std::optional<Smat<T>> Smat<T>::tryFromFile(const std::string &Path,
                                            std::string *Error) {
  LearningModel Model;
  std::string Reason;
  if (!loadModelFile(Path, Model, Reason)) {
    if (Error)
      *Error = "SMAT model load failed for '" + Path + "': " + Reason;
    return std::nullopt;
  }
  return Smat(std::move(Model));
}

template <typename T>
Status Smat<T>::validateTuneInput(const CsrMatrix<T> &A,
                                  const TuneOptions &Opts) {
  if (Status S = validateCsr(A); !S.ok())
    return S;
  return validateTuneOptions(Opts);
}

template <typename T>
Status Smat<T>::validateTuneOptions(const TuneOptions &Opts) {
  if (!(Opts.MeasureMinSeconds >= 0.0) ||
      !std::isfinite(Opts.MeasureMinSeconds))
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: MeasureMinSeconds must be finite and "
                     "non-negative (got %g)",
                     Opts.MeasureMinSeconds));
  if (!(Opts.MeasureBudgetSeconds >= 0.0) ||
      !std::isfinite(Opts.MeasureBudgetSeconds))
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: MeasureBudgetSeconds must be finite and "
                     "non-negative (got %g)",
                     Opts.MeasureBudgetSeconds));
  if (!(Opts.TuneBudgetSeconds >= 0.0) || !std::isfinite(Opts.TuneBudgetSeconds))
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: TuneBudgetSeconds must be finite and "
                     "non-negative (got %g)",
                     Opts.TuneBudgetSeconds));
  if (Opts.BatchWidth < 1)
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: BatchWidth must be at least 1 (got %d)",
                     static_cast<int>(Opts.BatchWidth)));
  // Guard the dense-block size computations (NumCols * BatchWidth and the
  // 2*nnz*K flop count) against overflow from absurd widths.
  constexpr index_t MaxBatchWidth = 65536;
  if (Opts.BatchWidth > MaxBatchWidth)
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: BatchWidth must be at most %d (got %d)",
                     static_cast<int>(MaxBatchWidth),
                     static_cast<int>(Opts.BatchWidth)));
  return Status::success();
}

template <typename T>
TunedSpmv<T> Smat<T>::tune(const CsrMatrix<T> &A,
                           const TuneOptions &Opts) const {
  if (Status S = validateTuneInput(A, Opts); !S.ok())
    throw std::invalid_argument("SMAT tune rejected input: " + S.message());
  return tuneImpl(A, Opts);
}

template <typename T>
Expected<TunedSpmv<T>> Smat<T>::tryTune(const CsrMatrix<T> &A,
                                        const TuneOptions &Opts) const {
  if (Status S = validateTuneInput(A, Opts); !S.ok())
    return S;
  return tuneImpl(A, Opts);
}

template <typename T>
TunedSpmv<T> Smat<T>::tuneImpl(const CsrMatrix<T> &A,
                               const TuneOptions &Opts) const {
  // Every public entry point has already run validateTuneInput; interior
  // stages assume a well-formed matrix from here on.
  assert(A.isValid() && "tuneImpl behind an unvalidated boundary");
  WallTimer TuneTimer;

  TunedSpmv<T> Op;
  Op.NumRows = A.NumRows;
  Op.NumCols = A.NumCols;
  Op.Nnz = A.nnz();
  TuningReport &Report = Op.Report;

  TuningContext<T> Ctx{A, Model, Opts,
                       Opts.TuneBudgetSeconds > 0.0 ? &TuneTimer : nullptr};

  // Seconds of whole-tune budget left; +inf when unlimited.
  auto TuneRemaining = [&]() -> double {
    if (Opts.TuneBudgetSeconds <= 0.0)
      return std::numeric_limits<double>::infinity();
    return Opts.TuneBudgetSeconds - TuneTimer.seconds();
  };

  // Stage 1: feature extraction (step 1; R stays lazy inside PredictStage).
  // A matrix that passed validation cannot fail to tune: a throwing stage
  // is dropped and the tune continues with what remains (DESIGN.md section
  // 12). Without features there is no fingerprint and no rule walk, so the
  // decision collapses straight to CSR.
  FeatureStageResult Features;
  bool HaveFeatures = true;
  try {
    Features = FeatureStage::run(Ctx);
  } catch (...) {
    HaveFeatures = false;
    Features = FeatureStageResult();
    ++Report.DroppedCandidates;
  }
  Report.FeatureSeconds = Features.Seconds;

  // Analytic bottleneck classification (CostModel.h): computed from step-1
  // features only, so it is available before the cache probe (the class is
  // part of the fingerprint) and costs no extra matrix traversal. Pruning is
  // only applied to the execute-and-measure race, and never under
  // ForceMeasure (the caller asked for ground truth over the full set).
  CostModelDecision CostDecision;
  bool HaveCost = false;
  if (HaveFeatures) {
    CostDecision = classifyBottleneck(Features.Features, Model.Cost);
    Report.Bottleneck = CostDecision.Class;
    HaveCost = !Opts.ForceMeasure;
    Report.CostModelApplied = HaveCost;
  }

  // Plan-cache probe. The fingerprint needs only step-1 features, so a hit
  // costs one extraction + one hash lookup and skips everything up to the
  // bind. ForceMeasure bypasses the lookup (the caller wants ground truth)
  // but the freshly tuned plan is still inserted below.
  FormatKind Chosen = FormatKind::CSR;
  bool Decided = !HaveFeatures;
  // Bind the untuned basic-CSR plan: set when the cached plan recorded an
  // engaged guardrail.
  bool ForceBasic = false;
  PlanFingerprint Fp;
  PlanCache *Cache = HaveFeatures ? Opts.Cache : nullptr;
  if (Cache) {
    Fp = fingerprintFeatures(Features.Features);
    // The batch width is a tuning input, not a matrix feature, so it is
    // stamped onto the fingerprint here rather than in fingerprintFeatures:
    // the same structure tuned at k=1 and k=8 may bind different plans, and
    // a warm tune at a new width must miss only the width bucket. The
    // bottleneck class is stamped for the same reason in reverse: it changes
    // which candidates raced, so plans from pruned and unpruned tunes must
    // not alias.
    Fp.WidthBucket =
        Opts.BatchWidth > 1
            ? static_cast<std::int16_t>(1 + spmmWidthIndex(Opts.BatchWidth))
            : std::int16_t(0);
    Fp.ClassBucket =
        HaveCost ? static_cast<std::int16_t>(
                       1 + static_cast<int>(CostDecision.Class))
                 : std::int16_t(0);
    CachedPlan Hit;
    if (!Opts.ForceMeasure && Cache->lookup(Fp, Hit)) {
      Chosen = Hit.Format;
      Report.CsrSpmvSeconds = Hit.CsrSpmvSeconds;
      Report.PlanCacheHit = true;
      // A cached guardrail engagement replays the guarded bind: the class
      // was already shown to be fastest untuned, so the warm tune binds the
      // basic plan directly instead of re-deriving that verdict.
      Report.GuardrailEngaged = Hit.GuardrailEngaged;
      ForceBasic = Hit.GuardrailEngaged;
      Decided = true;
    }
  }

  // The basic side of the never-slower check and the overhead unit are
  // excluded from TuneSeconds (the unit is Table 3's metric, not part of
  // tuning); track their wall clock so it can be subtracted at the end.
  double BaselineSeconds = 0.0;

  // The check is a measurement: with AllowMeasure false (and no
  // ForceMeasure) the caller asked for the model's deterministic answer,
  // and a timing-dependent override would break that contract.
  const bool GuardrailActive = Opts.AllowMeasure || Opts.ForceMeasure;
  const index_t Width = std::max<index_t>(index_t(1), Opts.BatchWidth);

  if (!Decided) {
    // Stage 2: confidence-gated prediction. A throwing predictor is dropped;
    // the default-constructed (unconfident) result lets execute-and-measure
    // recover the decision when allowed.
    PredictStageResult Prediction;
    try {
      Prediction = PredictStage::run(Ctx, Features);
    } catch (...) {
      Prediction = PredictStageResult();
      ++Report.DroppedCandidates;
    }
    Report.ModelPrediction = Prediction.Prediction;
    Report.ModelConfidence = Prediction.Confidence;
    Report.ModelConfident = Prediction.Confident;
    Report.PredictSeconds = Prediction.Seconds;
    Chosen = Prediction.Prediction;

    // Stage 3: execute-and-measure when forced or unconfident. The stage
    // handles per-candidate failures and budgets itself; this catch only
    // covers its shared setup (vector allocation). The cost model prunes
    // the candidate set it races.
    if (MeasureStage::shouldRun(Opts, Prediction) && TuneRemaining() > 0.0) {
      try {
        MeasureStageResult Measured = MeasureStage::run(
            Ctx, Features, Prediction.Prediction,
            HaveCost ? &CostDecision : nullptr);
        Report.MeasuredCandidates = std::move(Measured.Candidates);
        Report.MeasureSeconds = Measured.Seconds;
        Report.NoisyTimings = Report.NoisyTimings || Measured.NoisyTimings;
        Report.BudgetExhausted = Measured.BudgetExhausted;
        Report.DroppedCandidates += Measured.DroppedCandidates;
        Chosen = Measured.Best;
      } catch (...) {
        ++Report.DroppedCandidates;
      }
    } else if (MeasureStage::shouldRun(Opts, Prediction)) {
      Report.BudgetExhausted = true;
    }
  }

  // Stage 4: conversion + kernel binding through the degradation ladder —
  // full bind, then the basic CSR kernel, then the CSR reference plan. The
  // stage cannot fail; it reports the rung it had to take. The long-standing
  // conversion-guard fallback to CSR inside the full bind stays rung 0: the
  // report and the cache both record what was actually bound.
  // Features (when extraction survived) make the bind skew-aware: the CSR
  // kernel choice follows the row-length CV even on a plan-cache hit, since
  // the cache stores only the format and the kernel is re-bound per tune.
  BindStageResult<T> Bound = BindStage::run(
      Ctx, Chosen, HaveFeatures ? &Features.Features : nullptr, ForceBasic);
  Report.ChosenFormat = Bound.BoundFormat;
  Report.KernelName = std::move(Bound.KernelName);
  Report.BindSeconds = Bound.Seconds;
  Report.Degradation = Bound.Degradation;
  Op.Op = std::move(Bound.Op);

  // Stage 5: the never-slower check, on every race winner and on every
  // confident plan the cost model does not endorse. When the ruleset and
  // the analytic classifier, two selectors with uncorrelated failure modes,
  // agree, the agreement is the certificate, and skipping the check keeps
  // AMG's small coarse operators on one plan from setup to setup (DESIGN.md
  // section 15.2). The other skips: the plan already is basic CSR at the
  // tune width; the budget is spent.
  if (!Decided) {
    // The kernels the check times: SpMV at k=1, SpMM above.
    const std::string BasicKernel = Width > 1 ? basicCsrSpmmKernel<T>().Name
                                              : basicCsrKernel<T>().Name;
    const std::string BoundKernel =
        Width > 1 ? Op.Op->spmmKernelName() : Op.Op->kernelName();
    const bool Endorsed = Report.ModelConfident && HaveCost &&
                          CostDecision.allows(Report.ChosenFormat);
    const bool AlreadyBasic =
        Report.ChosenFormat == FormatKind::CSR && BoundKernel == BasicKernel;
    if (GuardrailActive && !Endorsed && !AlreadyBasic) {
      if (TuneRemaining() > 0.0) {
        try {
          CheckStageResult Check =
              CheckStage::run(*basicCsrOperator(A), *Op.Op, Width);
          BaselineSeconds += Check.BasicSeconds;
          Report.GuardrailSeconds = Check.BoundSeconds;
          const std::uint64_t Flnnz = static_cast<std::uint64_t>(Op.Nnz) *
                                      static_cast<std::uint64_t>(Width);
          Report.BaselineGflops = spmvGflops(Flnnz, Check.BasicSecondsPerCall);
          if (Width == 1)
            Report.CsrSpmvSeconds = Check.BasicSecondsPerCall;
          // A race already recorded the plan it bound.
          if (Report.MeasuredCandidates.empty())
            Report.MeasuredCandidates.push_back(
                {Report.ChosenFormat, BoundKernel,
                 spmvGflops(Flnnz, Check.BoundSecondsPerCall), false});
          Report.MeasuredCandidates.push_back(
              {FormatKind::CSR, BasicKernel, Report.BaselineGflops, true});
          if (Check.BasicWins) {
            Report.GuardrailEngaged = true;
            BindStageResult<T> Guarded = BindStage::run(
                Ctx, FormatKind::CSR,
                HaveFeatures ? &Features.Features : nullptr, true);
            Report.ChosenFormat = Guarded.BoundFormat;
            Report.KernelName = std::move(Guarded.KernelName);
            Report.BindSeconds += Guarded.Seconds;
            Report.Degradation =
                maxLevel(Report.Degradation, Guarded.Degradation);
            Op.Op = std::move(Guarded.Op);
          }
        } catch (...) {
          // A faulted check leaves the bound plan in place: the guardrail
          // refines the decision, it must never break a good bind.
          ++Report.DroppedCandidates;
        }
      } else {
        Report.BudgetExhausted = true;
      }
    }
    // Table 3's overhead unit, one basic CSR SpMV on this matrix, timed on
    // its own where the check took no k=1 basic sample. Skipped when the
    // tune budget is spent; the report then has no overhead unit
    // (overheadRatio() returns 0).
    if (Report.CsrSpmvSeconds == 0.0) {
      if (TuneRemaining() > 0.0) {
        WallTimer UnitTimer;
        try {
          Report.CsrSpmvSeconds = quickSpmvSeconds(A, Report.NoisyTimings);
        } catch (...) {
          ++Report.DroppedCandidates;
        }
        BaselineSeconds += UnitTimer.seconds();
      } else {
        Report.BudgetExhausted = true;
      }
    }
  }

  if (Report.DroppedCandidates > 0)
    Report.Degradation =
        maxLevel(Report.Degradation, DegradationLevel::CandidateDropped);

  if (Cache && !Report.PlanCacheHit)
    Cache->insert(Fp, CachedPlan{Report.ChosenFormat, Report.CsrSpmvSeconds,
                                 Report.GuardrailEngaged});

  Report.Features = Features.Features;
  // The baseline timings are nested inside the tune wall clock, so the
  // difference cannot go negative; reporting BaselineSeconds separately
  // (instead of clamping) keeps budget overruns during the baseline visible.
  Report.BaselineSeconds = BaselineSeconds;
  Report.TuneSeconds = TuneTimer.seconds() - BaselineSeconds;

  // The whole delta lands under one lock, so a concurrent
  // resilienceCounters() (a monitor sampling while the service worker tunes)
  // never sees half a tune: every flag counter stays <= Tunes.
  {
    ResilienceState &RS = *Resilience;
    std::lock_guard<std::mutex> Lock(RS.Lock);
    SmatResilienceCounters &C = RS.Counters;
    ++C.Tunes;
    C.CandidatesDropped += static_cast<std::uint64_t>(Report.DroppedCandidates);
    C.NoisyTunes += Report.NoisyTimings;
    C.BudgetExhaustedTunes += Report.BudgetExhausted;
    C.BasicKernelFallbacks +=
        Report.Degradation == DegradationLevel::BasicKernel;
    C.ReferenceFallbacks += Report.Degradation == DegradationLevel::ReferenceCsr;
    C.GuardrailEngagements += Report.GuardrailEngaged;
  }
  return Op;
}

template <typename T>
SmatResilienceCounters Smat<T>::resilienceCounters() const {
  std::lock_guard<std::mutex> Lock(Resilience->Lock);
  return Resilience->Counters;
}

TunedSpmv<double> smat::SMAT_dCSR_SpMV(const Smat<double> &Tuner,
                                       const CsrMatrix<double> &A,
                                       const TuneOptions &Opts) {
  return Tuner.tune(A, Opts);
}

TunedSpmv<float> smat::SMAT_sCSR_SpMV(const Smat<float> &Tuner,
                                      const CsrMatrix<float> &A,
                                      const TuneOptions &Opts) {
  return Tuner.tune(A, Opts);
}

TunedSpmv<double> smat::SMAT_dCSR_SpMM(const Smat<double> &Tuner,
                                       const CsrMatrix<double> &A,
                                       index_t BatchWidth, TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return Tuner.tune(A, Opts);
}

TunedSpmv<float> smat::SMAT_sCSR_SpMM(const Smat<float> &Tuner,
                                      const CsrMatrix<float> &A,
                                      index_t BatchWidth, TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return Tuner.tune(A, Opts);
}

namespace {

template <typename T>
ErrorCode trySpmvEntry(const Smat<T> &Tuner, const CsrMatrix<T> &A,
                       TunedSpmv<T> &Out, std::string *ErrorMessage,
                       const TuneOptions &Opts) {
  Expected<TunedSpmv<T>> Result = Tuner.tryTune(A, Opts);
  if (!Result.ok()) {
    if (ErrorMessage)
      *ErrorMessage = Result.status().message();
    return Result.status().code();
  }
  Out = std::move(*Result);
  return ErrorCode::Ok;
}

} // namespace

ErrorCode smat::SMAT_dCSR_SpMV_try(const Smat<double> &Tuner,
                                   const CsrMatrix<double> &A,
                                   TunedSpmv<double> &Out,
                                   std::string *ErrorMessage,
                                   const TuneOptions &Opts) {
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

ErrorCode smat::SMAT_sCSR_SpMV_try(const Smat<float> &Tuner,
                                   const CsrMatrix<float> &A,
                                   TunedSpmv<float> &Out,
                                   std::string *ErrorMessage,
                                   const TuneOptions &Opts) {
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

ErrorCode smat::SMAT_dCSR_SpMM_try(const Smat<double> &Tuner,
                                   const CsrMatrix<double> &A,
                                   index_t BatchWidth, TunedSpmv<double> &Out,
                                   std::string *ErrorMessage,
                                   TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

ErrorCode smat::SMAT_sCSR_SpMM_try(const Smat<float> &Tuner,
                                   const CsrMatrix<float> &A,
                                   index_t BatchWidth, TunedSpmv<float> &Out,
                                   std::string *ErrorMessage,
                                   TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

namespace smat {
template class TunedSpmv<float>;
template class TunedSpmv<double>;
template class Smat<float>;
template class Smat<double>;
} // namespace smat
