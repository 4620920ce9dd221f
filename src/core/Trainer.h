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
/// The kernel search and the labels time what the runtime binds: each plan
/// is built by bindFormatOperator and timed with timePlan, the race's timer.
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
  /// The plan timer's sample window for the kernel search and the labels;
  /// larger is more accurate, slower.
  double MeasureMinSeconds = 1e-3;
  /// The BSR extension format. Off by default so the paper's four-format
  /// experiments reproduce unchanged; the ext_bsr_extension bench turns it
  /// on to demonstrate the framework's extensibility (contribution 3).
  bool EnableBsr = false;
};

/// The batch width the kernel search times each SpMM family at: the width
/// of the batched perfbench tunes and of the kernel sweep's SpMM table.
inline constexpr index_t SpmmSearchWidth = 8;

/// Times every kernel of \p Kind's SpMV list (its SpMM list at \p Width > 1;
/// BSR has none) as a plan: bound to \p Probe by bindFormatOperator, so it
/// runs as row slices above the grain, and timed with timePlan at the fault
/// site "scoreboard.kernel". \returns the scoreboard's performance table,
/// index-aligned with the kernel list; a kernel whose plan throws, or whose
/// conversion is declined, is recorded at zero GFLOPS.
template <typename T>
std::vector<KernelMeasurement>
measureKernelPlans(const CsrMatrix<T> &Probe, FormatKind Kind, index_t Width,
                   double MinSeconds);

/// The kernel search (paper Section 5.2): on one format-friendly probe per
/// format, measureKernelPlans and runScoreboard pick each format's SpMV
/// kernel; a second CSR pass on a power-law probe picks the skew kernel,
/// and one pass at SpmmSearchWidth picks each SpMM family's kernel on its
/// own format's probe: ten scoreboards in all. \p MinSeconds is the plan
/// timer's window.
template <typename T>
KernelSelection searchOptimalKernels(double MinSeconds = 2e-3);

/// Labels \p A: the GFLOPS of the plan bindFormatOperator builds from
/// \p Selection in each format (CSR with csrKernelFor(rowCv), the pick the
/// bind makes), timed with timePlan at the race's fault sites. CSR's label
/// is the faster of that plan and basicCsrOperator, the plan the
/// never-slower check binds when basic wins. Returns FormatKind-indexed
/// GFLOPS; a format whose conversion guard declines, or whose plan throws,
/// gets -1.
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

extern template std::vector<KernelMeasurement>
measureKernelPlans(const CsrMatrix<float> &, FormatKind, index_t, double);
extern template std::vector<KernelMeasurement>
measureKernelPlans(const CsrMatrix<double> &, FormatKind, index_t, double);
extern template KernelSelection searchOptimalKernels<float>(double);
extern template KernelSelection searchOptimalKernels<double>(double);
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
