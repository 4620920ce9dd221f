//===- examples/quickstart.cpp - SMAT in five minutes ---------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The unified-interface workflow of paper Figure 5: prepare a sparse matrix
// in CSR (the only format the user ever touches), train or load a model,
// call the single SMAT entry point, and run the tuned SpMV.
//
//   ./quickstart [matrix.mtx]
//
// With no argument a demonstration matrix is generated; with a MatrixMarket
// file the tuner runs on your matrix.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"
#include "core/Trainer.h"
#include "matrix/Generators.h"
#include "matrix/MatrixMarket.h"

#include <cstdio>

using namespace smat;

int main(int argc, char **argv) {
  // 1. Get a sparse matrix in CSR format. This is all SMAT ever asks of
  //    you — no per-format entry points (compare MKL's mkl_xcsrgemv /
  //    mkl_xdiagemv / mkl_xcoogemv / ... zoo in paper Figure 5).
  CsrMatrix<double> A;
  if (argc > 1) {
    MatrixMarketResult Load = readMatrixMarketFile(argv[1]);
    if (!Load.Ok) {
      std::fprintf(stderr, "error: %s\n", Load.Error.c_str());
      return 1;
    }
    A = std::move(Load.Matrix);
    std::printf("loaded %s: %d x %d, %lld nonzeros\n", argv[1], A.NumRows,
                A.NumCols, static_cast<long long>(A.nnz()));
  } else {
    A = laplace2d9pt(300, 300); // A 9-point stencil: DIA territory.
    std::printf("generated a 9-point Laplacian: %d x %d, %lld nonzeros\n",
                A.NumRows, A.NumCols, static_cast<long long>(A.nnz()));
  }

  // 2. Train the model (off-line stage). Real deployments do this once per
  //    machine and save/load it with saveModelFile / Smat::fromFile.
  std::printf("training the learning model on the synthetic corpus...\n");
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  TrainingOptions Opts;
  Opts.MeasureMinSeconds = 5e-4;
  TrainResult Trained = trainSmat<double>(Training, Opts);
  std::printf("  %zu rules, %.0f%% training accuracy, %.1fs\n",
              Trained.Model.Rules.size(),
              100.0 * Trained.TailoredRuleAccuracy, Trained.TrainSeconds);

  // 3. The unified interface: one call, CSR in, tuned SpMV out.
  const Smat<double> Tuner(Trained.Model);
  TunedSpmv<double> Op = SMAT_dCSR_SpMV(Tuner, A);

  const TuningReport &Report = Op.report();
  std::printf("\nSMAT decision:\n");
  std::printf("  features        %s\n", Report.Features.toString().c_str());
  std::printf("  model predicted %s (confidence %.2f, %s)\n",
              std::string(formatName(Report.ModelPrediction)).c_str(),
              Report.ModelConfidence,
              Report.ModelConfident ? "confident" : "below threshold");
  if (Report.MeasureSeconds > 0.0) {
    std::printf("  execute-and-measure ran:");
    for (const MeasuredCandidate &C : Report.MeasuredCandidates)
      if (!C.IsBaseline)
        std::printf(" %s=%.2fGF", std::string(formatName(C.Format)).c_str(),
                    C.Gflops);
    std::printf("\n");
  }
  std::printf("  chosen          %s with kernel '%s'\n",
              std::string(formatName(Op.format())).c_str(),
              Op.kernelName().c_str());
  std::printf("  tuning overhead %.1fx one CSR SpMV\n",
              Report.overheadRatio());

  // 4. Use the tuned operator like any SpMV: y = A*x.
  std::vector<double> X(static_cast<std::size_t>(A.NumCols), 1.0);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
  Op.apply(X.data(), Y.data());

  double Checksum = 0;
  for (double V : Y)
    Checksum += V;
  std::printf("\ny = A*x computed; checksum(y) = %.6g\n", Checksum);
  return 0;
}
