//===- core/Trainer.h - SMAT off-line training pipeline ---------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The off-line stage of paper Figure 4: kernel search on the target
/// architecture, per-corpus-matrix feature extraction and exhaustive
/// per-format measurement (labeling "Best_Format"), feature database
/// assembly, decision-tree learning, and ruleset ordering + tailoring.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_TRAINER_H
#define SMAT_CORE_TRAINER_H

#include "core/FeatureDatabase.h"
#include "core/LearningModel.h"
#include "matrix/Corpus.h"
#include "matrix/FormatConvert.h"

namespace smat {

/// Knobs of the training pipeline.
struct TrainingOptions {
  /// Per-kernel measurement floor; larger is more accurate, slower.
  double MeasureMinSeconds = 1e-3;
  /// The BSR extension format. Off by default so the paper's four-format
  /// experiments reproduce unchanged; the ext_bsr_extension bench turns it
  /// on to demonstrate the framework's extensibility (contribution 3).
  bool EnableBsr = false;
  /// Tree learner configuration.
  TreeConfig Tree;
  /// Rule tailoring tolerance (paper: 1% accuracy gap).
  double TailorAccuracyLoss = 0.01;
  /// Runtime confidence threshold stored into the model.
  double ConfidenceThreshold = DefaultConfidenceThreshold;
  /// Skip the scoreboard (use basic kernels); for fast unit tests.
  bool SkipKernelSearch = false;
};

/// Measures the best-kernel GFLOPS of matrix \p A in all four formats
/// using the kernels chosen in \p Selection. Returns FormatKind-indexed
/// GFLOPS; formats rejected by the fill guards get -1.
template <typename T>
std::array<double, NumFormats>
measureAllFormats(const CsrMatrix<T> &A, const KernelSelection &Selection,
                  const TrainingOptions &Opts = TrainingOptions());

/// Builds the feature record of one corpus entry: features + measured
/// per-format GFLOPS + best-format label.
template <typename T>
FeatureRecord buildRecord(const CorpusEntry &Entry,
                          const KernelSelection &Selection,
                          const TrainingOptions &Opts = TrainingOptions());

/// Everything the off-line stage produces (model plus introspection data
/// for the benches/ablations).
struct TrainResult {
  LearningModel Model;
  FeatureDatabase Database;
  RuleSet FullRules;      ///< Before tailoring (for the ablation bench).
  double TreeAccuracy = 0; ///< Training accuracy of the pruned tree.
  double FullRuleAccuracy = 0;
  double TailoredRuleAccuracy = 0;
  double TrainSeconds = 0;
};

/// Runs the complete off-line pipeline on \p Training.
template <typename T>
TrainResult trainSmat(const std::vector<const CorpusEntry *> &Training,
                      const TrainingOptions &Opts = TrainingOptions());

extern template std::array<double, NumFormats>
measureAllFormats(const CsrMatrix<float> &, const KernelSelection &,
                  const TrainingOptions &);
extern template std::array<double, NumFormats>
measureAllFormats(const CsrMatrix<double> &, const KernelSelection &,
                  const TrainingOptions &);
extern template FeatureRecord buildRecord<float>(const CorpusEntry &,
                                                 const KernelSelection &,
                                                 const TrainingOptions &);
extern template FeatureRecord buildRecord<double>(const CorpusEntry &,
                                                  const KernelSelection &,
                                                  const TrainingOptions &);
extern template TrainResult
trainSmat<float>(const std::vector<const CorpusEntry *> &,
                 const TrainingOptions &);
extern template TrainResult
trainSmat<double>(const std::vector<const CorpusEntry *> &,
                  const TrainingOptions &);

} // namespace smat

#endif // SMAT_CORE_TRAINER_H
