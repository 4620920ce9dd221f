//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by all benchmark binaries: a disk-cached trained model
/// (train once, reuse across bench processes), corpus scale selection via
/// the SMAT_FULL environment variable, and tuned-operator measurement.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_BENCH_BENCHUTIL_H
#define SMAT_BENCH_BENCHUTIL_H

#include "core/Smat.h"
#include "core/Trainer.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace smat {
namespace bench {

/// SMAT_FULL=1 selects the paper-scale corpus (2000+ matrices); default is
/// the Small corpus so the whole bench suite finishes in minutes.
inline CorpusScale corpusScaleFromEnv() {
  const char *Env = std::getenv("SMAT_FULL");
  return (Env && Env[0] == '1') ? CorpusScale::Full : CorpusScale::Small;
}

inline const char *corpusScaleName(CorpusScale Scale) {
  switch (Scale) {
  case CorpusScale::Tiny:
    return "tiny";
  case CorpusScale::Small:
    return "small";
  case CorpusScale::Full:
    return "full";
  }
  return "?";
}

/// Cache directory for trained models / databases (created on demand).
inline std::string cacheDir() {
  std::string Dir = "bench_cache";
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  return Dir;
}

/// Training options used by all benches (uniform so cached artifacts are
/// consistent).
inline TrainingOptions benchTrainingOptions() {
  TrainingOptions Opts;
  Opts.MeasureMinSeconds = 1e-3;
  return Opts;
}

/// Returns the trained model for value type \p T, training and caching it on
/// first use. \p Precision is "double" or "float" (cache key).
template <typename T>
LearningModel getSharedModel(const char *Precision) {
  CorpusScale Scale = corpusScaleFromEnv();
  std::string Path = cacheDir() + "/model_" + Precision + "_" +
                     corpusScaleName(Scale) + ".txt";
  LearningModel Model;
  std::string Error;
  if (loadModelFile(Path, Model, Error))
    return Model;

  std::fprintf(stderr,
               "[bench] training %s-precision model on the %s corpus "
               "(cached at %s)...\n",
               Precision, corpusScaleName(Scale), Path.c_str());
  auto Corpus = buildCorpus(Scale);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  TrainResult Result = trainSmat<T>(Training, benchTrainingOptions());
  std::fprintf(stderr, "[bench] trained in %.1fs (%zu rules, %.1f%% train "
                       "accuracy)\n",
               Result.TrainSeconds, Result.Model.Rules.size(),
               100.0 * Result.TailoredRuleAccuracy);
  saveModelFile(Path, Result.Model);
  // Persist the feature database too; fig6/tab1 reuse it.
  Result.Database.saveCsvFile(cacheDir() + std::string("/db_") + Precision +
                              "_" + corpusScaleName(Scale) + ".csv");
  return Result.Model;
}

/// Returns the measured feature database (features + per-format GFLOPS +
/// best format for every training matrix), training if not cached.
template <typename T>
FeatureDatabase getSharedDatabase(const char *Precision) {
  CorpusScale Scale = corpusScaleFromEnv();
  std::string Path = cacheDir() + std::string("/db_") + Precision + "_" +
                     corpusScaleName(Scale) + ".csv";
  FeatureDatabase Db;
  std::string Error;
  if (FeatureDatabase::loadCsvFile(Path, Db, Error) && Db.size() > 0)
    return Db;
  (void)getSharedModel<T>(Precision); // Trains and writes the DB.
  if (!FeatureDatabase::loadCsvFile(Path, Db, Error)) {
    std::fprintf(stderr, "[bench] cannot load database: %s\n", Error.c_str());
    std::exit(1);
  }
  return Db;
}

/// Steady-state GFLOPS of a tuned operator's plan, timed with the tuner's
/// plan timer (min of \p MinSeconds windows).
template <typename T>
double measureTunedGflops(const TunedSpmv<T> &Op, double MinSeconds = 5e-3) {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = MinSeconds;
  return spmvGflops(
      static_cast<std::uint64_t>(Op.nnz()),
      timePlan(Op.formatOperator(), 1, "bench.tuned", Opts).SecondsPerCall);
}

/// Formats a GFLOPS value ("-" when the format was inadmissible).
inline std::string gflopsCell(double G) {
  return G < 0 ? std::string("-") : formatString("%.3f", G);
}

} // namespace bench
} // namespace smat

#endif // SMAT_BENCH_BENCHUTIL_H
