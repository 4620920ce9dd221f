//===- examples/corpus_explorer.cpp - Inspect matrices like SMAT does -----===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// A diagnostic tool over the public API: for a MatrixMarket file (or each
// of the 16 Figure-8 representatives when run without arguments) it prints
// the Table-2 feature parameters, the per-format measured GFLOPS, and what
// a trained SMAT model decides — the full paper pipeline, one matrix at a
// time, in human-readable form.
//
//   ./corpus_explorer [matrix.mtx ...]
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"
#include "core/Trainer.h"
#include "matrix/MatrixMarket.h"
#include "support/Table.h"

#include <cstdio>

using namespace smat;

namespace {

void explain(const CorpusEntry &Entry, const Smat<double> &Tuner,
             const KernelSelection &Kernels) {
  const CsrMatrix<double> &A = Entry.Matrix;
  std::printf("== %s (%s): %d x %d, %lld nonzeros\n", Entry.Name.c_str(),
              Entry.Domain.c_str(), A.NumRows, A.NumCols,
              static_cast<long long>(A.nnz()));

  FeatureVector F = extractAllFeatures(A);
  std::printf("   features: %s\n", F.toString().c_str());

  TrainingOptions Measure;
  Measure.MeasureMinSeconds = 2e-3;
  auto Gflops = measureAllFormats(A, Kernels, Measure);
  std::printf("   measured:");
  for (int K = 0; K < NumFormats; ++K) {
    double G = Gflops[static_cast<std::size_t>(K)];
    if (G < 0)
      std::printf(" %s=inadmissible",
                  std::string(formatName(static_cast<FormatKind>(K))).c_str());
    else
      std::printf(" %s=%.2fGF",
                  std::string(formatName(static_cast<FormatKind>(K))).c_str(),
                  G);
  }
  std::printf("\n");

  TunedSpmv<double> Op = Tuner.tune(A);
  const TuningReport &Report = Op.report();
  std::printf("   SMAT: predicted %s (conf %.2f%s), chose %s via '%s', "
              "overhead %.1fx CSR-SpMV\n\n",
              std::string(formatName(Report.ModelPrediction)).c_str(),
              Report.ModelConfidence,
              Report.ModelConfident ? "" : ", below threshold -> measured",
              std::string(formatName(Op.format())).c_str(),
              Op.kernelName().c_str(),
              Report.TuneSeconds / quickSpmvSeconds(A));
}

} // namespace

int main(int argc, char **argv) {
  std::printf("training SMAT model (off-line stage)...\n\n");
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  TrainingOptions Opts;
  Opts.MeasureMinSeconds = 5e-4;
  TrainResult Trained = trainSmat<double>(Training, Opts);
  const Smat<double> Tuner(Trained.Model);

  std::printf("learned ruleset (%zu rules after tailoring):\n",
              Trained.Model.Rules.size());
  for (const Rule &R : Trained.Model.Rules.Rules)
    std::printf("  %s\n", R.toString().c_str());
  std::printf("\n");

  if (argc > 1) {
    for (int Arg = 1; Arg < argc; ++Arg) {
      MatrixMarketResult Load = readMatrixMarketFile(argv[Arg]);
      if (!Load.Ok) {
        std::fprintf(stderr, "error reading %s: %s\n", argv[Arg],
                     Load.Error.c_str());
        continue;
      }
      explain({argv[Arg], "user", std::move(Load.Matrix)}, Tuner,
              Trained.Model.Kernels);
    }
    return 0;
  }

  for (const CorpusEntry &Entry : representativeMatrices())
    explain(Entry, Tuner, Trained.Model.Kernels);
  return 0;
}
