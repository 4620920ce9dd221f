//===- examples/train_model.cpp - The off-line stage as a CLI tool --------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Runs SMAT's complete off-line stage (paper Figure 4, lower half) and
// saves the artifacts for later runs — the "train once, reuse for every
// input matrix" deployment the paper's reusability property describes.
//
//   ./train_model out_model.txt [options] [training.mtx ...]
//
//   --scale tiny|small|full   synthetic corpus size (default small)
//   --precision float|double  value type to tune for (default double)
//   --bsr                     enable the BSR extension format
//   --threshold X             runtime confidence threshold (default 0.85)
//   --database out.csv        also save the measured feature database
//
// Any .mtx files listed are added to the synthetic training corpus, so a
// site can bias the model toward its own workload.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"
#include "core/Trainer.h"
#include "matrix/MatrixMarket.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace smat;

namespace {

template <typename T>
int runTraining(const std::string &ModelPath, const std::string &DbPath,
                CorpusScale Scale, bool EnableBsr, double Threshold,
                const std::vector<std::string> &ExtraFiles) {
  auto Corpus = buildCorpus(Scale);
  for (const std::string &Path : ExtraFiles) {
    MatrixMarketResult Load = readMatrixMarketFile(Path);
    if (!Load.Ok) {
      std::fprintf(stderr, "error: %s\n", Load.Error.c_str());
      return 1;
    }
    Corpus.push_back({Path, "user", std::move(Load.Matrix)});
  }
  std::printf("corpus: %zu matrices (%zu user-supplied)\n", Corpus.size(),
              ExtraFiles.size());

  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);

  TrainingOptions Opts;
  Opts.EnableBsr = EnableBsr;
  std::printf("training on %zu matrices (%zu held out)...\n", Training.size(),
              Evaluation.size());
  TrainResult Result = trainSmat<T>(Training, Opts);

  std::printf("\noff-line stage finished in %.1fs:\n", Result.TrainSeconds);
  std::printf("  kernel search        ");
  for (int K = 0; K < NumFormats; ++K)
    std::printf(" %s=%s",
                std::string(formatName(static_cast<FormatKind>(K))).c_str(),
                Result.Model.Kernels.BestKernelName[static_cast<std::size_t>(K)]
                    .c_str());
  std::printf("\n");
  std::printf("  decision tree        %.1f%% training accuracy\n",
              100.0 * Result.TreeAccuracy);
  std::printf("  ruleset              %zu rules -> %zu after tailoring "
              "(%.1f%% -> %.1f%%)\n",
              Result.FullRules.size(), Result.Model.Rules.size(),
              100.0 * Result.FullRuleAccuracy,
              100.0 * Result.TailoredRuleAccuracy);

  auto Dist = Result.Database.formatDistribution();
  std::printf("  best-format counts   ");
  for (int K = 0; K < NumFormats; ++K)
    std::printf(" %s=%zu",
                std::string(formatName(static_cast<FormatKind>(K))).c_str(),
                Dist[static_cast<std::size_t>(K)]);
  std::printf("\n");

  Result.Model.ConfidenceThreshold = Threshold;
  if (!saveModelFile(ModelPath, Result.Model)) {
    std::fprintf(stderr, "error: cannot write model to %s\n",
                 ModelPath.c_str());
    return 1;
  }
  std::printf("\nmodel saved to %s\n", ModelPath.c_str());
  if (!DbPath.empty()) {
    if (!Result.Database.saveCsvFile(DbPath)) {
      std::fprintf(stderr, "error: cannot write database to %s\n",
                   DbPath.c_str());
      return 1;
    }
    std::printf("feature database saved to %s\n", DbPath.c_str());
  }
  std::printf("\nreload with:  Smat<%s>::fromFile(\"%s\")\n",
              sizeof(T) == sizeof(double) ? "double" : "float",
              ModelPath.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s out_model.txt [--scale tiny|small|full] "
                 "[--precision float|double] [--bsr] [--threshold X] "
                 "[--database out.csv] [training.mtx ...]\n",
                 argv[0]);
    return 2;
  }
  std::string ModelPath = argv[1];
  std::string DbPath;
  CorpusScale Scale = CorpusScale::Small;
  bool EnableBsr = false;
  bool UseFloat = false;
  double Threshold = DefaultConfidenceThreshold;
  std::vector<std::string> ExtraFiles;

  for (int Arg = 2; Arg < argc; ++Arg) {
    std::string Flag = argv[Arg];
    auto NextValue = [&]() -> const char * {
      if (Arg + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag.c_str());
        std::exit(2);
      }
      return argv[++Arg];
    };
    if (Flag == "--scale") {
      std::string V = NextValue();
      if (V == "tiny")
        Scale = CorpusScale::Tiny;
      else if (V == "small")
        Scale = CorpusScale::Small;
      else if (V == "full")
        Scale = CorpusScale::Full;
      else {
        std::fprintf(stderr, "error: unknown scale '%s'\n", V.c_str());
        return 2;
      }
    } else if (Flag == "--precision") {
      std::string V = NextValue();
      if (V == "float")
        UseFloat = true;
      else if (V != "double") {
        std::fprintf(stderr, "error: unknown precision '%s'\n", V.c_str());
        return 2;
      }
    } else if (Flag == "--bsr") {
      EnableBsr = true;
    } else if (Flag == "--threshold") {
      Threshold = std::strtod(NextValue(), nullptr);
    } else if (Flag == "--database") {
      DbPath = NextValue();
    } else if (!Flag.empty() && Flag[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Flag.c_str());
      return 2;
    } else {
      ExtraFiles.push_back(Flag);
    }
  }

  return UseFloat ? runTraining<float>(ModelPath, DbPath, Scale, EnableBsr,
                                       Threshold, ExtraFiles)
                  : runTraining<double>(ModelPath, DbPath, Scale, EnableBsr,
                                        Threshold, ExtraFiles);
}
