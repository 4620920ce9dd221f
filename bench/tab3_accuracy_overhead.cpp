//===- bench/tab3_accuracy_overhead.cpp - Paper Table 3 reproduction ------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Paper Table 3: "Analysis of SMAT" — per representative matrix: the model's
// prediction (or "confidence < TH"), which formats the execute-and-measure
// pass ran, SMAT's final format, the exhaustive-search best format, whether
// the model was right, and the tuning overhead in units of one CSR SpMV
// (the median of three cache-free tunes, which the break-even column uses
// too).
// The paper reports 92%/82% (SP/DP) accuracy on Intel over 331 matrices and
// overheads of ~2-5x (confident path) / ~16x (measured path).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>

using namespace smat;
using namespace smat::bench;

namespace {

template <typename T>
double heldOutAccuracy(const char *Precision) {
  LearningModel Model = getSharedModel<T>(Precision);
  const Smat<T> Tuner(Model);
  auto Corpus = buildCorpus(corpusScaleFromEnv());
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);

  TrainingOptions Measure = benchTrainingOptions();
  int Correct = 0, Total = 0;
  for (const CorpusEntry *Entry : Evaluation) {
    CsrMatrix<T> A = convertValueType<T>(Entry->Matrix);
    FeatureRecord Truth = buildRecord<T>(*Entry, Model.Kernels, Measure);
    TunedSpmv<T> Op = Tuner.tune(A);
    ++Total;
    Correct += Op.format() == Truth.BestFormat ? 1 : 0;
  }
  return Total ? 100.0 * Correct / Total : 0.0;
}

} // namespace

int main() {
  std::printf("=== Table 3: SMAT decision trace, accuracy, and overhead "
              "===\n\n");

  LearningModel Model = getSharedModel<double>("double");
  const Smat<double> Tuner(Model);
  TrainingOptions Measure = benchTrainingOptions();
  Measure.MeasureMinSeconds = 5e-3;

  auto Reps = representativeMatrices();
  AsciiTable Table({"#", "matrix", "model prediction", "execution",
                    "SMAT format", "best format", "acc", "overhead (xCSR)",
                    "break-even iters"});
  int Right = 0;
  for (std::size_t I = 0; I != Reps.size(); ++I) {
    const CorpusEntry &Entry = Reps[I];

    // Ground truth by exhaustive measurement (the paper's "Best Format").
    FeatureRecord Truth = buildRecord<double>(Entry, Model.Kernels, Measure);

    // The row is the median of three cache-free tunes by TuneSeconds: the
    // first tune of a matrix in the process alone swings several-fold from
    // run to run.
    std::vector<TunedSpmv<double>> Tunes;
    for (int Rep = 0; Rep != 3; ++Rep)
      Tunes.push_back(Tuner.tune(Entry.Matrix));
    std::sort(Tunes.begin(), Tunes.end(), [](const auto &L, const auto &R) {
      return L.report().TuneSeconds < R.report().TuneSeconds;
    });
    const TunedSpmv<double> &Op = Tunes[1];
    const TuningReport &Report = Op.report();
    // The overhead unit: one basic CSR SpMV on this matrix.
    const double UnitSeconds = quickSpmvSeconds(Entry.Matrix);

    // Amortization (the paper's acceptability argument: the overhead "is
    // acceptable when an application executes an SpMV kernel hundreds of
    // times"): iterations until tuning pays for itself against running
    // plain CSR forever.
    double TunedGflops = measureTunedGflops(Op, 2e-3);
    double TunedSeconds =
        2.0 * static_cast<double>(Entry.Matrix.nnz()) * 1e-9 /
        std::max(1e-12, TunedGflops);
    double PerIterGain = UnitSeconds - TunedSeconds;
    std::string BreakEven =
        PerIterGain > 1e-12
            ? formatString("%.0f", Report.TuneSeconds / PerIterGain)
            : std::string("-");

    std::string Prediction =
        Report.ModelConfident
            ? std::string(formatName(Report.ModelPrediction))
            : std::string("confidence < TH");
    std::string Execution = "-";
    if (Report.MeasureSeconds > 0.0) {
      Execution.clear();
      for (const MeasuredCandidate &C : Report.MeasuredCandidates) {
        if (C.IsBaseline)
          continue;
        if (!Execution.empty())
          Execution += "+";
        Execution += formatName(C.Format);
      }
    }
    bool Correct = Op.format() == Truth.BestFormat;
    Right += Correct ? 1 : 0;
    Table.addRow({formatString("%zu", I + 1), Entry.Name, Prediction,
                  Execution, std::string(formatName(Op.format())),
                  std::string(formatName(Truth.BestFormat)),
                  Correct ? "R" : "W",
                  formatString("%.2f", Report.TuneSeconds / UnitSeconds),
                  BreakEven});
  }
  Table.print();
  std::printf("\n16-matrix accuracy: %d/16 (paper Table 3: 14/16 right, "
              "wrong only on CSR heavyweights)\n\n",
              Right);

  std::printf("Held-out accuracy (end-to-end SMAT decision vs measured "
              "best):\n");
  double Dp = heldOutAccuracy<double>("double");
  double Sp = heldOutAccuracy<float>("float");
  std::printf("  double precision: %.1f%%   (paper Intel DP: 82%%)\n", Dp);
  std::printf("  single precision: %.1f%%   (paper Intel SP: 92%%)\n", Sp);
  std::printf("\nShape check: confident predictions cost a few CSR-SpMVs\n"
              "(paper 2-5x); execute-and-measure paths cost more\n"
              "(paper ~16x) but stay far below exhaustive conversion search\n"
              "(paper: 40+x).\n");
  return 0;
}
