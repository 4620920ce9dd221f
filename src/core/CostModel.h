//===- core/CostModel.h - Analytic bottleneck classification ----*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profiling-free pre-filtering of the execute-and-measure candidate menu
/// (DESIGN.md section 15). Following the bottleneck taxonomy of Elafrou et
/// al. (arXiv 1711.05487), every matrix is classified from the
/// already-extracted step-1 features — no extra traversal — as
///
///   bandwidth-bound    regular structure; streaming memory traffic
///                      dominates, so the dense-stream formats (DIA, ELL)
///                      are the candidates worth racing;
///   imbalance-bound    heavily skewed row lengths; thread/work imbalance
///                      dominates and nonzero-balanced row slices of CSR
///                      are the answer, so format conversion buys nothing;
///   irregularity-bound scattered accesses with no exploitable structure;
///                      CSR and COO are the only sensible plans.
///
/// The classification prunes the candidate set MeasureStage races when the
/// ruleset is unconfident: most tunes then measure one or two formats
/// instead of the full menu. It is a pre-filter, not an oracle — the
/// never-slower guardrail (basic CSR as a first-class race candidate)
/// bounds the cost of a misclassification.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_COSTMODEL_H
#define SMAT_CORE_COSTMODEL_H

#include "features/FeatureExtractor.h"
#include "matrix/Format.h"

#include <array>

namespace smat {

/// The performance-bottleneck taxonomy (Elafrou et al.).
enum class BottleneckClass {
  BandwidthBound = 0,
  ImbalanceBound,
  IrregularityBound,
};

inline constexpr int NumBottleneckClasses = 3;

/// \returns a short stable name for \p Class ("bandwidth", "imbalance",
/// "irregularity").
const char *bottleneckClassName(BottleneckClass Class);

/// Tunable routing thresholds of the analytic classifier. Serialized with
/// the trained model (optional `costmodel` lines, see LearningModel) so one
/// architecture's calibration serves every process; absent lines keep these
/// defaults, which is also how models trained before the classifier existed
/// stay loadable.
struct CostModelThresholds {
  /// Row-length coefficient of variation above which the matrix counts as
  /// imbalance-bound. Matches SkewRowCvThreshold so the classifier and the
  /// skew-aware CSR kernel bind agree on what "skewed" means.
  double ImbalanceRowCv = 1.0;
  /// Minimum DIA fill efficiency (ER_DIA) for the diagonal format to be a
  /// bandwidth-bound candidate (0.5 = at most 2x padding).
  double DiaFillMin = 0.5;
  /// Minimum ELL fill efficiency (ER_ELL) for the padded-rows format to be
  /// a bandwidth-bound candidate.
  double EllFillMin = 0.6;

  friend bool operator==(const CostModelThresholds &,
                         const CostModelThresholds &) = default;
};

/// Outcome of the analytic classification: the bottleneck class and the
/// format candidates worth measuring for it. CSR is always allowed — it is
/// the substrate format and the guardrail's comparison plan.
struct CostModelDecision {
  BottleneckClass Class = BottleneckClass::IrregularityBound;
  std::array<bool, NumFormats> Allowed{};

  bool allows(FormatKind Kind) const {
    return Allowed[static_cast<std::size_t>(Kind)];
  }
  int numAllowed() const {
    int N = 0;
    for (bool A : Allowed)
      N += A ? 1 : 0;
    return N;
  }
};

/// Classifies \p F into its bottleneck class and candidate-format mask.
/// Uses only step-1 features (never the lazy power-law R), so it can run
/// right after FeatureStage at zero additional traversal cost.
CostModelDecision classifyBottleneck(const FeatureVector &F,
                                     const CostModelThresholds &Thresholds =
                                         CostModelThresholds());

} // namespace smat

#endif // SMAT_CORE_COSTMODEL_H
