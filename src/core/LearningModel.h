//===- core/LearningModel.h - The trained SMAT model ------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The artifact of the off-line stage (paper Figure 4): the tailored ruleset
/// with confidence factors, the scoreboard-selected per-format kernels, and
/// the runtime confidence threshold. Serializable so one training run
/// serves every subsequent process on the same architecture.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_LEARNINGMODEL_H
#define SMAT_CORE_LEARNINGMODEL_H

#include "core/CostModel.h"
#include "kernels/Scoreboard.h"
#include "ml/RuleSet.h"

#include <string>

namespace smat {

/// Default runtime confidence threshold. Group confidences above this let
/// the model decide directly; below it the execute-and-measure path runs.
inline constexpr double DefaultConfidenceThreshold = 0.85;

/// The complete trained model.
struct LearningModel {
  RuleSet Rules;
  KernelSelection Kernels;
  double ConfidenceThreshold = DefaultConfidenceThreshold;
  /// Whether the model was trained with the BSR extension format; gates the
  /// runtime's BSR candidacy (prediction and execute-and-measure).
  bool BsrEnabled = false;
  /// Routing thresholds of the analytic bottleneck classifier (CostModel.h)
  /// that pre-filters the execute-and-measure candidate menu. Serialized as
  /// `costmodel` lines; a model file without them parses with the defaults.
  CostModelThresholds Cost;

  /// Per-group flags: whether any rule of the group tests the power-law R
  /// attribute. Lets the runtime skip the (comparatively expensive) R
  /// computation until a group actually needs it (paper Section 6's
  /// two-step feature extraction).
  std::array<bool, NumFormats> GroupUsesR{};

  /// Recomputes GroupUsesR from Rules; call after any rule edit.
  void refreshRuleMetadata();
};

/// Serializes the model (threshold + kernel selection + ruleset).
std::string serializeModel(const LearningModel &Model);

/// Parses serializeModel output. \returns true on success.
bool parseModel(const std::string &Text, LearningModel &Model,
                std::string &Error);

bool saveModelFile(const std::string &Path, const LearningModel &Model);
bool loadModelFile(const std::string &Path, LearningModel &Model,
                   std::string &Error);

} // namespace smat

#endif // SMAT_CORE_LEARNINGMODEL_H
