//===- core/TuningPipeline.h - Staged on-line tuning pipeline ---*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline layer of the tuning runtime: paper Figure 7's linear
/// procedure split into five named, individually testable stages, each
/// returning a typed result with its own wall-clock accounting:
///
///   FeatureStage  — Table-2 feature extraction (step 1 eagerly, the
///                   power-law step 2 lazily on demand);
///   PredictStage  — confidence-gated rule-group walk over the trained
///                   ruleset;
///   MeasureStage  — execute-and-measure fallback over the plausible
///                   candidate formats;
///   BindStage     — format conversion (with guard fallback to CSR) and
///                   optimal-kernel binding through `FormatOperator`;
///   CheckStage    — the never-slower check: the bound plan against basic
///                   CSR, timed in alternating pairs.
///
/// `Smat::tune` composes these stages — and consults the optional
/// `PlanCache` between FeatureStage and PredictStage — but each stage is a
/// plain function of its typed inputs, so tests and ablations can run any
/// stage in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_TUNINGPIPELINE_H
#define SMAT_CORE_TUNINGPIPELINE_H

#include "core/CostModel.h"
#include "core/FormatOperator.h"
#include "core/LearningModel.h"
#include "features/FeatureExtractor.h"
#include "support/Timer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace smat {

class PlanCache;

/// How far down the degradation ladder a tune had to go (DESIGN.md section
/// 12). Once a matrix passes validation the runtime never fails a tune; it
/// takes the highest rung that still works and reports it here.
enum class DegradationLevel {
  /// Everything the tune attempted succeeded.
  None = 0,
  /// At least one candidate format or pipeline stage failed and was dropped;
  /// the plan was built from the survivors.
  CandidateDropped,
  /// Binding the chosen plan failed; the basic (strategy-free) CSR kernel
  /// was bound instead.
  BasicKernel,
  /// Even the basic-kernel bind failed; the fixed-interface CSR reference
  /// kernel was bound. Nothing below this rung exists.
  ReferenceCsr,
};

/// \returns a short stable name for \p Level ("none", "candidate_dropped",
/// "basic_kernel", "reference_csr").
const char *degradationLevelName(DegradationLevel Level);

/// Tuning knobs for one tune() call.
struct TuneOptions {
  /// Permit the execute-and-measure fallback (paper Figure 7's
  /// "< threshold" path). When false, low-confidence predictions are used
  /// as-is.
  bool AllowMeasure = true;
  /// Force execute-and-measure even for confident predictions (used by the
  /// accuracy analysis to recover the ground-truth best format). Also
  /// bypasses PlanCache lookups: forced measurement means the caller wants
  /// fresh ground truth, not a reused plan.
  bool ForceMeasure = false;
  /// Measurement floor per candidate during execute-and-measure.
  double MeasureMinSeconds = 5e-4;
  /// Whether a CSR-bound operator borrows the caller's matrix (default) or
  /// owns a copy.
  CsrStorage CsrMode = CsrStorage::Borrowed;
  /// Optional plan cache shared across tune() calls. A fingerprint hit
  /// skips PredictStage, MeasureStage and CheckStage entirely; a miss
  /// inserts the bound plan afterwards. Concurrent tunes of one structure
  /// each miss and measure for themselves.
  PlanCache *Cache = nullptr;
  /// Wall-clock budget in seconds for measuring a single candidate format
  /// (0 = unlimited). A candidate that exhausts its budget keeps its best
  /// sample so far; retries and extra samples are skipped.
  double MeasureBudgetSeconds = 0.0;
  /// Wall-clock budget in seconds for the whole tune (0 = unlimited). When
  /// it expires, remaining candidates are skipped and the tune completes
  /// from what was measured — degrading rather than failing. The budget is
  /// checked between candidates, so a tune finishes within roughly 2x the
  /// budget in the worst case.
  double TuneBudgetSeconds = 0.0;
  /// Number of right-hand sides the tune optimizes for (>= 1). Widths above
  /// 1 make MeasureStage time the batched (SpMM) kernels — so the format
  /// choice reflects batched performance — key the plan cache on the
  /// register-tile width bucket, and bind the scoreboard's per-width SpMM
  /// pick. 1 is the classic single-vector SpMV tune. Every bound operator
  /// supports multiply() at any width regardless of this value; the width
  /// only steers which plan is considered optimal.
  index_t BatchWidth = 1;
  /// Generation stamp of the learned model that produced this tune, mixed
  /// into the plan-cache fingerprint. Layers that hot-reload model files at
  /// runtime (TuningService) bump this on every reload so plans cached
  /// under the previous model stop matching and age out by LRU instead of
  /// being served stale. Callers that never reload leave it at 0.
  std::uint32_t ModelGeneration = 0;
};

/// Everything the stages read; one per tune() call.
template <typename T> struct TuningContext {
  const CsrMatrix<T> &A;
  const LearningModel &Model;
  const TuneOptions &Opts;
  /// Wall clock of the whole tune, set by Smat::tuneImpl when
  /// Opts.TuneBudgetSeconds > 0 so stages can check the remaining budget.
  const WallTimer *TuneClock = nullptr;
};

/// Result of FeatureStage. Seconds covers step 1 only; a lazily triggered
/// step 2 (power-law R) is accounted to the stage that demanded it.
struct FeatureStageResult {
  FeatureVector Features;
  /// Whether step 2 (the power-law R) has been computed.
  bool HaveR = false;
  double Seconds = 0.0;
};

/// Result of PredictStage.
struct PredictStageResult {
  FormatKind Prediction = FormatKind::CSR;
  double Confidence = 0.0;
  /// True when some rule group cleared the model's confidence threshold.
  bool Confident = false;
  double Seconds = 0.0;
};

/// One measured plan: a candidate of the execute-and-measure race, or a
/// side of the never-slower check (CheckStage). The check's basic-CSR side
/// is the one entry with IsBaseline set.
struct MeasuredCandidate {
  FormatKind Format = FormatKind::CSR;
  /// The kernel the candidate's operator ran: its SpMM kernel in a batched
  /// tune, its SpMV kernel otherwise.
  std::string Kernel;
  double Gflops = 0.0;
  /// True for the untuned basic-CSR side of the never-slower check.
  bool IsBaseline = false;
};

/// Result of MeasureStage.
struct MeasureStageResult {
  /// The race in measurement order, with the kernel each candidate operator
  /// ran.
  std::vector<MeasuredCandidate> Candidates;
  /// The measured winner (or the fallback passed in when nothing ran).
  FormatKind Best = FormatKind::CSR;
  double Seconds = 0.0;
  /// Some candidate's timing samples disagreed beyond the robust-measure
  /// spread threshold even after backoff retries.
  bool NoisyTimings = false;
  /// A measurement or tune budget expired before every candidate ran.
  bool BudgetExhausted = false;
  /// Candidates skipped because their conversion or kernel threw.
  int DroppedCandidates = 0;
};

/// Result of BindStage.
template <typename T> struct BindStageResult {
  std::unique_ptr<FormatOperator<T>> Op;
  /// The format actually bound: the requested one, or CSR when a
  /// conversion guard rejected it.
  FormatKind BoundFormat = FormatKind::CSR;
  std::string KernelName;
  double Seconds = 0.0;
  /// The ladder rung the bind itself had to take (None, BasicKernel, or
  /// ReferenceCsr — binding never reports CandidateDropped).
  DegradationLevel Degradation = DegradationLevel::None;
};

/// Stage 1: Table-2 feature extraction (paper Section 6's two-step split).
class FeatureStage {
public:
  /// Runs step 1 (one matrix traversal, everything but R).
  template <typename T>
  static FeatureStageResult run(const TuningContext<T> &Ctx);

  /// Runs step 2 (power-law R) if it has not run yet; idempotent.
  template <typename T>
  static void ensurePowerLaw(const TuningContext<T> &Ctx,
                             FeatureStageResult &Features);
};

/// Stage 2: the confidence-gated rule-group walk (DIA -> ELL -> [BSR] ->
/// CSR -> COO), computing R lazily the first time a group needs it.
class PredictStage {
public:
  template <typename T>
  static PredictStageResult run(const TuningContext<T> &Ctx,
                                FeatureStageResult &Features);
};

/// Stage 3: execute-and-measure over the plausible candidates.
class MeasureStage {
public:
  /// The Figure-7 gate: forced, or unconfident with measurement allowed.
  static bool shouldRun(const TuneOptions &Opts,
                        const PredictStageResult &Prediction);

  /// Builds each candidate that passes its structural plausibility guard
  /// with bindFormatOperator — the operator a win would bind — and times its
  /// apply() (multiply() at BatchWidth > 1); \p Fallback is returned as
  /// Best when nothing is measured. \p Allowed, when non-null, restricts
  /// the race to the cost model's candidate mask (CSR is always raced). The
  /// race has no baseline candidate: CheckStage judges the bound winner
  /// against basic CSR.
  template <typename T>
  static MeasureStageResult run(const TuningContext<T> &Ctx,
                                const FeatureStageResult &Features,
                                FormatKind Fallback,
                                const CostModelDecision *Allowed = nullptr);
};

/// Stage 4: conversion + kernel binding through the operator layer.
class BindStage {
public:
  /// \p Features, when non-null, enables skew-aware CSR kernel selection:
  /// a row-length CV above SkewRowCvThreshold binds the scoreboard's
  /// skew-pass pick (KernelSelection::BestSkewCsrKernel) instead of the
  /// general CSR kernel. Null keeps the historical behavior.
  /// \p ForceBasicCsr binds the untuned plan directly — the basic
  /// (strategy-free) CSR SpMV and SpMM kernels with no conversion — used
  /// when the never-slower guardrail decided tuning does not pay. It is a
  /// deliberate decision, not a failure: Degradation stays None.
  template <typename T>
  static BindStageResult<T> run(const TuningContext<T> &Ctx,
                                FormatKind Requested,
                                const FeatureVector *Features = nullptr,
                                bool ForceBasicCsr = false);
};

/// Relative margin of the never-slower check: basic CSR must beat the bound
/// plan by more than this before the guardrail binds basic CSR, and a median
/// pair ratio beyond it in either direction ends the check early. 0.10 is
/// the 10% noise floor of short alternating timings.
inline constexpr double GuardrailNoiseFloor = 0.10;

/// Result of CheckStage.
struct CheckStageResult {
  /// Basic CSR beat the bound plan by more than GuardrailNoiseFloor: the
  /// caller binds the untuned basic plan.
  bool BasicWins = false;
  /// (basic, bound) samples taken.
  int Pairs = 0;
  /// Seconds per call of each side in the pair with the median ratio.
  double BasicSecondsPerCall = 0.0;
  double BoundSecondsPerCall = 0.0;
  /// Wall clock spent timing each side, warm-up calls included.
  double BasicSeconds = 0.0;
  double BoundSeconds = 0.0;
};

/// Stage 5: the never-slower check. Times \p Basic (the untuned basic-CSR
/// plan) and \p Bound alternately, one sample at a time, at width
/// \p Width >= 1 (apply() at 1, multiply() above), so drift of the host
/// lands on both sides alike. A sample is the fastest call in 0.1 ms (at
/// least one call). After MinPairs pairs the check stops as soon as the
/// median pair ratio clears GuardrailNoiseFloor in either direction, and
/// in any case after MaxPairs. The fault sites are "measure.baseline" on
/// the basic side and "guardrail.verify" on the bound side.
class CheckStage {
public:
  static constexpr int MinPairs = 3;
  static constexpr int MaxPairs = 9;

  template <typename T>
  static CheckStageResult run(const FormatOperator<T> &Basic,
                              const FormatOperator<T> &Bound, index_t Width);
};

extern template FeatureStageResult
FeatureStage::run(const TuningContext<float> &);
extern template FeatureStageResult
FeatureStage::run(const TuningContext<double> &);
extern template void FeatureStage::ensurePowerLaw(const TuningContext<float> &,
                                                  FeatureStageResult &);
extern template void
FeatureStage::ensurePowerLaw(const TuningContext<double> &,
                             FeatureStageResult &);
extern template PredictStageResult
PredictStage::run(const TuningContext<float> &, FeatureStageResult &);
extern template PredictStageResult
PredictStage::run(const TuningContext<double> &, FeatureStageResult &);
extern template MeasureStageResult
MeasureStage::run(const TuningContext<float> &, const FeatureStageResult &,
                  FormatKind, const CostModelDecision *);
extern template MeasureStageResult
MeasureStage::run(const TuningContext<double> &, const FeatureStageResult &,
                  FormatKind, const CostModelDecision *);
extern template BindStageResult<float>
BindStage::run(const TuningContext<float> &, FormatKind,
               const FeatureVector *, bool);
extern template BindStageResult<double>
BindStage::run(const TuningContext<double> &, FormatKind,
               const FeatureVector *, bool);
extern template CheckStageResult
CheckStage::run(const FormatOperator<float> &, const FormatOperator<float> &,
                index_t);
extern template CheckStageResult
CheckStage::run(const FormatOperator<double> &, const FormatOperator<double> &,
                index_t);

} // namespace smat

#endif // SMAT_CORE_TUNINGPIPELINE_H
