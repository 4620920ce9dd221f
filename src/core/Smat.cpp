//===- core/Smat.cpp - The SMAT runtime auto-tuner ------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"

#include "support/Timer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

using namespace smat;

namespace {

/// Rungs are ordered; a tune reports the deepest one it touched.
DegradationLevel maxLevel(DegradationLevel A, DegradationLevel B) {
  return static_cast<int>(A) >= static_cast<int>(B) ? A : B;
}

/// The plan cache's bucket for batch width \p K: 0 for k = 1, then 1 for
/// k = 2, 2 for 3-4, 3 for 5-8 and 4 from 9 up.
std::int16_t widthBucket(index_t K) {
  const int Bits = std::bit_width(static_cast<unsigned>(K - 1));
  return static_cast<std::int16_t>(std::min(Bits, 4));
}

} // namespace

template <typename T> double smat::quickSpmvSeconds(const CsrMatrix<T> &A) {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = 1e-4;
  Opts.MinReps = 2;
  Opts.MaxRetries = 1;
  return timePlan(*basicCsrOperator(A), 1, "measure.baseline", Opts)
      .SecondsPerCall;
}

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
  // only applied to the execute-and-measure race.
  CostModelDecision CostDecision;
  if (HaveFeatures) {
    CostDecision = classifyBottleneck(Features.Features, Model.Cost);
    Report.Bottleneck = CostDecision.Class;
  }

  // Plan-cache probe. The fingerprint needs only step-1 features, so a hit
  // costs one extraction + one hash lookup and skips everything up to the
  // bind.
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
    // bottleneck class is stamped because it decides which candidates race,
    // so a plan raced under one class is never reused under another.
    Fp.WidthBucket = widthBucket(Opts.BatchWidth);
    Fp.ClassBucket =
        static_cast<std::int16_t>(1 + static_cast<int>(CostDecision.Class));
    CachedPlan Hit;
    if (Cache->lookup(Fp, Hit)) {
      Chosen = Hit.Format;
      Report.PlanCacheHit = true;
      // A cached guardrail engagement replays the guarded bind: the class
      // was already shown to be fastest untuned, so the warm tune binds the
      // basic plan directly instead of re-deriving that verdict.
      Report.GuardrailEngaged = Hit.GuardrailEngaged;
      ForceBasic = Hit.GuardrailEngaged;
      Decided = true;
    }
  }

  const index_t Width = std::max<index_t>(index_t(1), Opts.BatchWidth);

  // Binds a plan this tune already built and timed: the race's winner, or
  // the basic plan of an engaged guardrail.
  auto BindTimed = [&](std::unique_ptr<FormatOperator<T>> Plan) {
    Report.ChosenFormat = Plan->kind();
    Report.KernelName = Plan->kernelName();
    Op.Op = std::move(Plan);
  };

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

    // Stage 3: execute-and-measure when unconfident. The stage handles
    // per-candidate failures and budgets itself; this catch is the backstop
    // for anything outside a candidate. The cost model prunes the candidate
    // set it races (features exist: the tune is undecided). The winner's
    // operator is bound as it was timed.
    if (MeasureStage::shouldRun(Opts, Prediction) && TuneRemaining() > 0.0) {
      try {
        MeasureStageResult<T> Measured = MeasureStage::run(
            Ctx, Features, Prediction.Prediction, &CostDecision);
        Report.MeasuredCandidates = std::move(Measured.Candidates);
        Report.MeasureSeconds = Measured.Seconds;
        Report.NoisyTimings = Report.NoisyTimings || Measured.NoisyTimings;
        Report.BudgetExhausted = Measured.BudgetExhausted;
        Report.DroppedCandidates += Measured.DroppedCandidates;
        Chosen = Measured.Best;
        if (Measured.Op)
          BindTimed(std::move(Measured.Op));
      } catch (...) {
        ++Report.DroppedCandidates;
      }
    } else if (MeasureStage::shouldRun(Opts, Prediction)) {
      Report.BudgetExhausted = true;
    }
  }

  // Stage 4: the bind of a plan nothing has built yet (a confident
  // prediction, a cache hit, a race with no survivor) through the
  // degradation ladder — full bind, then the basic CSR kernel, then the CSR
  // reference plan. The stage cannot fail; it reports the rung it had to
  // take. The long-standing conversion-guard fallback to CSR inside the
  // full bind stays rung 0: the report and the cache both record what was
  // actually bound. Features (when extraction survived) make the bind
  // skew-aware: the CSR kernel choice follows the row-length CV even on a
  // plan-cache hit, since the cache stores only the format and the kernel
  // is re-bound per tune.
  if (!Op.Op) {
    BindStageResult<T> Bound = BindStage::run(
        Ctx, Chosen, HaveFeatures ? &Features.Features : nullptr, ForceBasic);
    Report.ChosenFormat = Bound.BoundFormat;
    Report.KernelName = std::move(Bound.KernelName);
    Report.BindSeconds = Bound.Seconds;
    Report.Degradation = Bound.Degradation;
    Op.Op = std::move(Bound.Op);
  }

  // Stage 5: the never-slower check, on every race winner and on every
  // confident plan the cost model does not endorse. When the ruleset and
  // the analytic classifier, two selectors with uncorrelated failure modes,
  // agree, the agreement is the certificate, and skipping the check keeps
  // AMG's small coarse operators on one plan from setup to setup (DESIGN.md
  // section 15.2). The other skips: the plan already is basic CSR at the
  // tune width; the budget is spent; AllowMeasure is false, because the
  // check is a measurement and that caller asked for the model's
  // deterministic answer.
  if (!Decided) {
    // The kernels the check times: SpMV at k=1, SpMM above.
    const std::string BasicKernel = Width > 1 ? basicCsrSpmmKernel<T>().Name
                                              : basicCsrKernel<T>().Name;
    const std::string BoundKernel =
        Width > 1 ? Op.Op->spmmKernelName() : Op.Op->kernelName();
    const bool Endorsed =
        Report.ModelConfident && CostDecision.allows(Report.ChosenFormat);
    const bool AlreadyBasic =
        Report.ChosenFormat == FormatKind::CSR && BoundKernel == BasicKernel;
    if (Opts.AllowMeasure && !Endorsed && !AlreadyBasic) {
      if (TuneRemaining() > 0.0) {
        try {
          std::unique_ptr<FormatOperator<T>> Basic = basicCsrOperator(A);
          CheckStageResult Check = CheckStage::run(*Basic, *Op.Op, Width);
          Report.BaselineSeconds = Check.BasicSeconds;
          Report.GuardrailSeconds = Check.BoundSeconds;
          const std::uint64_t Flnnz = static_cast<std::uint64_t>(Op.Nnz) *
                                      static_cast<std::uint64_t>(Width);
          Report.BaselineGflops = spmvGflops(Flnnz, Check.BasicSecondsPerCall);
          // A race already recorded the plan it bound.
          if (Report.MeasuredCandidates.empty())
            Report.MeasuredCandidates.push_back(
                {Report.ChosenFormat, BoundKernel,
                 spmvGflops(Flnnz, Check.BoundSecondsPerCall), false});
          Report.MeasuredCandidates.push_back(
              {FormatKind::CSR, BasicKernel, Report.BaselineGflops, true});
          // An engaged guardrail binds the basic plan the check just timed.
          if (Check.BasicWins) {
            Report.GuardrailEngaged = true;
            BindTimed(std::move(Basic));
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
  }

  if (Report.DroppedCandidates > 0)
    Report.Degradation =
        maxLevel(Report.Degradation, DegradationLevel::CandidateDropped);

  if (Cache && !Report.PlanCacheHit)
    Cache->insert(Fp,
                  CachedPlan{Report.ChosenFormat, Report.GuardrailEngaged});

  Report.Features = Features.Features;
  // The check's basic side is nested inside the tune wall clock, so the
  // difference cannot go negative; reporting BaselineSeconds separately
  // (instead of clamping) keeps budget overruns during the baseline visible.
  Report.TuneSeconds = TuneTimer.seconds() - Report.BaselineSeconds;

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

namespace smat {
template double quickSpmvSeconds(const CsrMatrix<float> &);
template double quickSpmvSeconds(const CsrMatrix<double> &);
template class TunedSpmv<float>;
template class TunedSpmv<double>;
template class Smat<float>;
template class Smat<double>;
} // namespace smat
