//===- core/TuningPipeline.cpp - Staged on-line tuning pipeline -----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/TuningPipeline.h"

#include "ref/RefSpmv.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <limits>

using namespace smat;

const char *smat::degradationLevelName(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::None:
    return "none";
  case DegradationLevel::CandidateDropped:
    return "candidate_dropped";
  case DegradationLevel::BasicKernel:
    return "basic_kernel";
  case DegradationLevel::ReferenceCsr:
    return "reference_csr";
  }
  return "unknown";
}

namespace {

/// Cheap structural plausibility of a conversion to \p Kind, computed from
/// the already-extracted features so no conversion is attempted for
/// hopeless candidates during execute-and-measure. BSR candidacy uses the
/// 4x4 block fill efficiency with the same strict guard as training
/// (padding inflates flops).
bool conversionPlausible(FormatKind Kind, const FeatureVector &F) {
  constexpr double BsrMaxFillRatio = 1.5;
  switch (Kind) {
  case FormatKind::DIA:
    return F.Ndiags > 0 && F.Ndiags <= DefaultMaxDiags &&
           F.ErDia * DefaultMaxFillRatio >= 1.0;
  case FormatKind::ELL:
    return F.MaxRd > 0 && F.ErEll * DefaultMaxFillRatio >= 1.0;
  case FormatKind::BSR:
    return F.ErBsr * BsrMaxFillRatio >= 1.0;
  default:
    return true;
  }
}

} // namespace

// --- FeatureStage -----------------------------------------------------------

template <typename T>
FeatureStageResult FeatureStage::run(const TuningContext<T> &Ctx) {
  WallTimer Timer;
  FeatureStageResult Result;
  fault::injectKernelFault("feature.extract");
  Result.Features = extractStructureFeatures(Ctx.A);
  Result.Seconds = Timer.seconds();
  return Result;
}

template <typename T>
void FeatureStage::ensurePowerLaw(const TuningContext<T> &Ctx,
                                  FeatureStageResult &Features) {
  if (Features.HaveR)
    return;
  extractPowerLawFeature(Ctx.A, Features.Features);
  Features.HaveR = true;
}

// --- PredictStage -----------------------------------------------------------

template <typename T>
PredictStageResult PredictStage::run(const TuningContext<T> &Ctx,
                                     FeatureStageResult &Features) {
  WallTimer Timer;
  const LearningModel &Model = Ctx.Model;
  PredictStageResult Result;
  fault::injectKernelFault("predict.classify");
  Result.Prediction = Model.Rules.DefaultFormat;

  // Rule-group walk with lazy R (feature extraction step 2). Groups are
  // visited in DIA -> ELL -> [BSR] -> CSR -> COO order; R is computed the
  // first time a group whose rules reference it comes up (COO always does in
  // spirit: its signature feature is the power-law exponent).
  auto X = Features.Features.values();
  for (FormatKind Kind : RuleGroupOrder) {
    if (Kind == FormatKind::BSR && !Model.BsrEnabled)
      continue;
    if (Model.GroupUsesR[static_cast<int>(Kind)] || Kind == FormatKind::COO) {
      FeatureStage::ensurePowerLaw(Ctx, Features);
      X = Features.Features.values();
    }
    double Confidence = Model.Rules.groupConfidence(Kind, X);
    if (Confidence > Model.ConfidenceThreshold) {
      Result.Prediction = Kind;
      Result.Confidence = Confidence;
      Result.Confident = true;
      break;
    }
  }
  if (!Result.Confident) {
    FeatureStage::ensurePowerLaw(Ctx, Features);
    RulePrediction P = Model.Rules.classify(Features.Features.values());
    Result.Prediction = P.Format;
    Result.Confidence = P.Confidence;
    Result.Confident = P.Confidence > Model.ConfidenceThreshold;
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

// --- MeasureStage -----------------------------------------------------------

bool MeasureStage::shouldRun(const TuneOptions &Opts,
                             const PredictStageResult &Prediction) {
  return Opts.ForceMeasure || (!Prediction.Confident && Opts.AllowMeasure);
}

template <typename T>
MeasureStageResult MeasureStage::run(const TuningContext<T> &Ctx,
                                     const FeatureStageResult &Features,
                                     FormatKind Fallback,
                                     const CostModelDecision *Allowed) {
  WallTimer Timer;
  const CsrMatrix<T> &A = Ctx.A;
  const LearningModel &Model = Ctx.Model;
  const FeatureVector &F = Features.Features;
  MeasureStageResult Result;
  Result.Best = Fallback;

  // Execute-and-measure over the plausible candidates (paper Figure 7's
  // below-threshold path; Table 3 shows e.g. "CSR+COO" executions). A
  // batched tune (BatchWidth > 1) times multiply() over a Width-wide dense
  // block instead, so the format choice reflects batched performance.
  const index_t Width = std::max<index_t>(index_t(1), Ctx.Opts.BatchWidth);
  const bool Batched = Width > 1;
  AlignedVector<T> X(static_cast<std::size_t>(A.NumCols) *
                         static_cast<std::size_t>(Width),
                     T(1));
  AlignedVector<T> Y(static_cast<std::size_t>(A.NumRows) *
                         static_cast<std::size_t>(Width),
                     T(0));

  // Seconds of tune budget left; +inf when unlimited.
  auto TuneRemaining = [&]() -> double {
    if (Ctx.Opts.TuneBudgetSeconds <= 0.0 || !Ctx.TuneClock)
      return std::numeric_limits<double>::infinity();
    return Ctx.Opts.TuneBudgetSeconds - Ctx.TuneClock->seconds();
  };

  // CSR is always raced (it is the substrate format).
  // With a cost-model decision in hand, only the formats that can address
  // the classified bottleneck join it; a pruned format is not a dropped
  // candidate — it was excluded by design, not lost to a failure. The
  // feature-based plausibility guards skip conversions that cannot pass.
  auto Admitted = [&](FormatKind Kind) {
    if (Kind == FormatKind::CSR)
      return true;
    if ((Allowed && !Allowed->allows(Kind)) ||
        (Kind == FormatKind::BSR && !Model.BsrEnabled))
      return false;
    return conversionPlausible(Kind, F);
  };
  static constexpr const char *Sites[NumFormats] = {
      "measure.kernel.CSR", "measure.kernel.COO", "measure.kernel.DIA",
      "measure.kernel.ELL", "measure.kernel.BSR"};

  double BestGflops = -1.0;
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL, FormatKind::BSR}) {
    if (!Admitted(Kind))
      continue;
    // Measurement watchdog around one candidate: robust (min-of-k, spread
    // checked, backoff-retried) timing under the tighter of the
    // per-candidate and remaining whole-tune budgets. A candidate whose
    // conversion or kernel throws is dropped and the sweep continues; the
    // operator (and its converted storage) is freed before the next
    // candidate converts.
    try {
      std::unique_ptr<FormatOperator<T>> Op =
          bindFormatOperator(A, Kind, Model.Kernels, CsrStorage::Borrowed,
                             Model.Kernels.csrKernelFor(F.rowCv()), Width);
      if (Op->kind() != Kind)
        continue; // A conversion guard rejected the format.
      double Remaining = TuneRemaining();
      if (Remaining <= 0.0) {
        Result.BudgetExhausted = true;
        continue;
      }
      RobustMeasureOptions MOpts;
      MOpts.MinSeconds = Ctx.Opts.MeasureMinSeconds;
      MOpts.BudgetSeconds = Ctx.Opts.MeasureBudgetSeconds;
      if (Remaining != std::numeric_limits<double>::infinity() &&
          (MOpts.BudgetSeconds <= 0.0 || Remaining < MOpts.BudgetSeconds))
        MOpts.BudgetSeconds = Remaining;
      RobustMeasureResult M = robustMeasureSecondsPerCall(
          [&] {
            fault::injectKernelFault(Sites[static_cast<int>(Kind)]);
            if (Batched)
              Op->multiply(X.data(), Y.data(), Width);
            else
              Op->apply(X.data(), Y.data());
          },
          MOpts);
      Result.NoisyTimings = Result.NoisyTimings || M.Noisy;
      Result.BudgetExhausted = Result.BudgetExhausted || M.BudgetHit;
      double Gflops = spmvGflops(static_cast<std::uint64_t>(A.nnz()) *
                                     static_cast<std::uint64_t>(Width),
                                 M.SecondsPerCall);
      Result.Candidates.push_back(
          {Kind, Batched ? Op->spmmKernelName() : Op->kernelName(), Gflops,
           false});
      if (Gflops > BestGflops) {
        BestGflops = Gflops;
        Result.Best = Kind;
      }
    } catch (...) {
      ++Result.DroppedCandidates;
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

// --- BindStage --------------------------------------------------------------

template <typename T>
BindStageResult<T> BindStage::run(const TuningContext<T> &Ctx,
                                  FormatKind Requested,
                                  const FeatureVector *Features,
                                  bool ForceBasicCsr) {
  WallTimer Timer;
  BindStageResult<T> Result;

  // Skew-aware CSR kernel choice: with features in hand, a heavily skewed
  // row-length distribution binds the scoreboard's skew-pass pick.
  int CsrOverride =
      Features ? Ctx.Model.Kernels.csrKernelFor(Features->rowCv()) : -1;

  // Rung 0: the full bind — conversion plus the scoreboard-selected kernel
  // (with the long-standing guard fallback to CSR inside). When the caller
  // forces the basic-CSR plan (the never-slower guardrail decided tuning
  // does not pay), this rung is skipped entirely: the basic bind below is
  // the requested plan, not a degradation, so Degradation stays None.
  if (!ForceBasicCsr) {
    try {
      fault::injectKernelFault("bind.operator");
      Result.Op = bindFormatOperator(Ctx.A, Requested, Ctx.Model.Kernels,
                                     Ctx.Opts.CsrMode, CsrOverride,
                                     Ctx.Opts.BatchWidth);
    } catch (...) {
      Result.Op = nullptr;
    }
  }

  // Rung BasicKernel: the strategy-free CSR kernels, no conversion and no
  // scoreboard lookup.
  if (!Result.Op) {
    if (!ForceBasicCsr)
      Result.Degradation = DegradationLevel::BasicKernel;
    try {
      fault::injectKernelFault("bind.basic_csr");
      Result.Op = basicCsrOperator(Ctx.A, Ctx.Opts.CsrMode);
    } catch (...) {
      Result.Op = nullptr;
    }
  }

  // Final rung: CSR bound to the fixed-interface reference kernel
  // (ref/RefSpmv.h) — no conversion, no kernel table, no scoreboard
  // selection. Once the node exists nothing can fail. It always borrows: if
  // Owned was requested but its copy failed above, borrowing is the honest
  // remainder, and ownsStorage() reports it.
  if (!Result.Op) {
    Result.Degradation = DegradationLevel::ReferenceCsr;
    const Kernel<CsrKernelFn<T>> Reference{"csr_reference", OptNone,
                                           &refCsrSpmv<T>};
    Result.Op = std::make_unique<BoundOperator<CsrMatrix, T>>(Ctx.A, Reference);
  }

  Result.BoundFormat = Result.Op->kind();
  Result.KernelName = Result.Op->kernelName();
  Result.Seconds = Timer.seconds();
  return Result;
}

// --- CheckStage -------------------------------------------------------------

template <typename T>
CheckStageResult CheckStage::run(const FormatOperator<T> &Basic,
                                 const FormatOperator<T> &Bound,
                                 index_t Width) {
  const auto K = static_cast<std::size_t>(Width);
  AlignedVector<T> X(static_cast<std::size_t>(Bound.numCols()) * K, T(1));
  AlignedVector<T> Y(static_cast<std::size_t>(Bound.numRows()) * K, T(0));
  CheckStageResult Result;
  // One sample of \p Op: timed calls until 0.1 ms has run. \returns the
  // fastest call, since interference only adds time; the wall clock goes to
  // \p Spent.
  auto Sample = [&](const FormatOperator<T> &Op, const char *Site,
                    double &Spent) {
    WallTimer Timer;
    double Fastest = std::numeric_limits<double>::infinity();
    std::uint64_t Calls = 0;
    do {
      WallTimer CallTimer;
      fault::injectKernelFault(Site);
      if (Width > 1)
        Op.multiply(X.data(), Y.data(), Width);
      else
        Op.apply(X.data(), Y.data());
      Fastest = std::min(Fastest, CallTimer.seconds());
    } while (Timer.seconds() < 1e-4 && ++Calls < DefaultMaxMeasureReps);
    Spent += Timer.seconds();
    return std::max(Fastest, 1e-9);
  };

  // (basic, bound) seconds per call; a ratio above 1 means basic is faster.
  using Pair = std::pair<double, double>;
  auto Ratio = [](const Pair &P) { return P.second / P.first; };
  std::vector<Pair> Pairs;
  Pair Median;
  while (static_cast<int>(Pairs.size()) < MaxPairs) {
    // Basic first: the order of evaluation of arguments is unspecified.
    double BasicSample = Sample(Basic, "measure.baseline", Result.BasicSeconds);
    Pairs.emplace_back(BasicSample,
                       Sample(Bound, "guardrail.verify", Result.BoundSeconds));
    if (static_cast<int>(Pairs.size()) < MinPairs)
      continue;
    std::vector<Pair> Sorted = Pairs;
    auto Mid = Sorted.begin() + static_cast<std::ptrdiff_t>(Sorted.size() / 2);
    std::nth_element(Sorted.begin(), Mid, Sorted.end(),
                     [&](const Pair &L, const Pair &R) {
                       return Ratio(L) < Ratio(R);
                     });
    Median = *Mid;
    if (Ratio(Median) > 1.0 + GuardrailNoiseFloor ||
        Ratio(Median) * (1.0 + GuardrailNoiseFloor) < 1.0)
      break;
  }
  Result.Pairs = static_cast<int>(Pairs.size());
  Result.BasicSecondsPerCall = Median.first;
  Result.BoundSecondsPerCall = Median.second;
  Result.BasicWins = Ratio(Median) > 1.0 + GuardrailNoiseFloor;
  return Result;
}

// --- Explicit instantiations ------------------------------------------------

namespace smat {
template FeatureStageResult FeatureStage::run(const TuningContext<float> &);
template FeatureStageResult FeatureStage::run(const TuningContext<double> &);
template void FeatureStage::ensurePowerLaw(const TuningContext<float> &,
                                           FeatureStageResult &);
template void FeatureStage::ensurePowerLaw(const TuningContext<double> &,
                                           FeatureStageResult &);
template PredictStageResult PredictStage::run(const TuningContext<float> &,
                                              FeatureStageResult &);
template PredictStageResult PredictStage::run(const TuningContext<double> &,
                                              FeatureStageResult &);
template MeasureStageResult MeasureStage::run(const TuningContext<float> &,
                                              const FeatureStageResult &,
                                              FormatKind,
                                              const CostModelDecision *);
template MeasureStageResult MeasureStage::run(const TuningContext<double> &,
                                              const FeatureStageResult &,
                                              FormatKind,
                                              const CostModelDecision *);
template BindStageResult<float>
BindStage::run(const TuningContext<float> &, FormatKind,
               const FeatureVector *, bool);
template BindStageResult<double>
BindStage::run(const TuningContext<double> &, FormatKind,
               const FeatureVector *, bool);
template CheckStageResult CheckStage::run(const FormatOperator<float> &,
                                          const FormatOperator<float> &,
                                          index_t);
template CheckStageResult CheckStage::run(const FormatOperator<double> &,
                                          const FormatOperator<double> &,
                                          index_t);
} // namespace smat
