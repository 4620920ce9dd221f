//===- core/Trainer.cpp - SMAT off-line training pipeline -----------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Trainer.h"

#include "support/Timer.h"

#include <algorithm>

using namespace smat;

namespace {

/// Measures one bound kernel on (A-format, X, Y).
template <typename T, typename MatrixT, typename FnT>
double measureOne(FnT Fn, const MatrixT &A, const AlignedVector<T> &X,
                  AlignedVector<T> &Y, double MinSeconds) {
  double Seconds = measureSecondsPerCall(
      [&] { Fn(A, X.data(), Y.data()); }, MinSeconds);
  return spmvGflops(static_cast<std::uint64_t>(A.nnz()), Seconds);
}

} // namespace

template <typename T>
std::array<double, NumFormats>
smat::measureAllFormats(const CsrMatrix<T> &A, const KernelSelection &Selection,
                        const TrainingOptions &Opts) {
  const KernelTable<T> &Kernels = kernelTable<T>();
  AlignedVector<T> X(static_cast<std::size_t>(A.NumCols));
  AlignedVector<T> Y(static_cast<std::size_t>(A.NumRows), T(0));
  for (std::size_t I = 0; I != X.size(); ++I)
    X[I] = T(0.01) * static_cast<T>(I % 100) - T(0.5);

  std::array<double, NumFormats> Gflops;
  Gflops.fill(-1.0);
  auto Best = [&Selection](FormatKind Kind) {
    return Selection.BestKernel[static_cast<int>(Kind)];
  };

  // CSR: measured directly on the input. The label must reflect the best
  // CSR plan the runtime can actually bind — the basic kernel (the
  // guardrail's plan), the scoreboard's general pick, and the skew-pass
  // pick are all candidates at run time — so the CSR entry is the max over
  // them. Labeling with the general pick alone teaches the tree that CSR
  // loses on matrices where binding a different CSR kernel (or simply not
  // tuning) wins, which is exactly the powerlaw mispick.
  {
    const auto &General = pickKernel(Kernels.Csr, Best(FormatKind::CSR), A);
    const auto &Basic = basicCsrKernel<T>();
    double CsrBest = measureOne<T>(General.Fn, A, X, Y, Opts.MeasureMinSeconds);
    if (&General != &Basic)
      CsrBest = std::max(CsrBest, measureOne<T>(Basic.Fn, A, X, Y,
                                                Opts.MeasureMinSeconds));
    const auto &Skew = pickKernel(Kernels.Csr, Selection.BestSkewCsrKernel, A);
    if (&Skew != &General && &Skew != &Basic)
      CsrBest = std::max(CsrBest, measureOne<T>(Skew.Fn, A, X, Y,
                                                Opts.MeasureMinSeconds));
    Gflops[static_cast<int>(FormatKind::CSR)] = CsrBest;
  }

  // COO: always representable.
  {
    CooMatrix<T> Coo = csrToCoo(A);
    Gflops[static_cast<int>(FormatKind::COO)] = measureOne<T>(
        pickKernel(Kernels.Coo, Best(FormatKind::COO), Coo).Fn, Coo, X, Y,
        Opts.MeasureMinSeconds);
  }

  // DIA and ELL: only when the converters' default fill guards, the ones
  // bindFormatOperator converts under, admit the format.
  {
    DiaMatrix<T> Dia;
    if (csrToDia(A, Dia))
      Gflops[static_cast<int>(FormatKind::DIA)] = measureOne<T>(
          pickKernel(Kernels.Dia, Best(FormatKind::DIA), Dia).Fn, Dia, X, Y,
          Opts.MeasureMinSeconds);
  }

  {
    EllMatrix<T> Ell;
    if (csrToEll(A, Ell))
      Gflops[static_cast<int>(FormatKind::ELL)] = measureOne<T>(
          pickKernel(Kernels.Ell, Best(FormatKind::ELL), Ell).Fn, Ell, X, Y,
          Opts.MeasureMinSeconds);
  }

  // BSR: extension format, only when enabled and a block size passes the
  // default fill guard (OSKI-style block-size selection).
  if (Opts.EnableBsr) {
    index_t BlockSize = chooseBsrBlockSize(A);
    BsrMatrix<T> Bsr;
    if (BlockSize > 0 && csrToBsr(A, Bsr, BlockSize))
      Gflops[static_cast<int>(FormatKind::BSR)] = measureOne<T>(
          pickKernel(Kernels.Bsr, Best(FormatKind::BSR), Bsr).Fn, Bsr, X, Y,
          Opts.MeasureMinSeconds);
  }
  return Gflops;
}

template <typename T>
FeatureRecord smat::buildRecord(const CorpusEntry &Entry,
                                const KernelSelection &Selection,
                                const TrainingOptions &Opts) {
  FeatureRecord Record;
  Record.Name = Entry.Name;
  Record.Domain = Entry.Domain;

  CsrMatrix<T> A = convertValueType<T>(Entry.Matrix);
  Record.Features = extractAllFeatures(A);
  Record.Gflops = measureAllFormats(A, Selection, Opts);

  int Best = static_cast<int>(FormatKind::CSR);
  for (int K = 0; K < NumFormats; ++K)
    if (Record.Gflops[static_cast<std::size_t>(K)] >
        Record.Gflops[static_cast<std::size_t>(Best)])
      Best = K;
  Record.BestFormat = static_cast<FormatKind>(Best);
  return Record;
}

template <typename T>
TrainResult smat::trainSmat(const std::vector<const CorpusEntry *> &Training,
                            const TrainingOptions &Opts) {
  WallTimer Timer;
  TrainResult Result;

  // Stage 1: kernel search (paper Section 5.2). The scoreboard quantizes
  // the architecture through kernel performance, so the learning stage
  // below trains against the kernels that will actually run.
  if (Opts.SkipKernelSearch) {
    Result.Model.Kernels = KernelSelection();
    const KernelTable<T> &Kernels = kernelTable<T>();
    Result.Model.Kernels.BestKernelName = {
        Kernels.Csr.front().Name, Kernels.Coo.front().Name,
        Kernels.Dia.front().Name, Kernels.Ell.front().Name,
        Kernels.Bsr.front().Name};
  } else {
    Result.Model.Kernels =
        searchOptimalKernels<T>(Opts.MeasureMinSeconds);
  }

  // Stage 2: feature database (paper Section 4).
  Result.Database.Records.reserve(Training.size());
  for (const CorpusEntry *Entry : Training)
    Result.Database.Records.push_back(
        buildRecord<T>(*Entry, Result.Model.Kernels, Opts));

  // Stage 3: data mining (paper Section 5.1).
  Dataset Data = Result.Database.toDataset();
  DecisionTree Tree;
  Tree.build(Data, Opts.Tree);
  Result.TreeAccuracy = Tree.accuracy(Data);

  RuleSet Rules = RuleSet::fromTree(Tree, Data);
  Rules.orderByContribution(Data);
  Result.FullRules = Rules;
  Result.FullRuleAccuracy = Rules.accuracy(Data);

  // Stage 4: rule tailoring and grouping (paper Section 6).
  Result.Model.Rules = Rules.tailored(Data, Opts.TailorAccuracyLoss);
  Result.TailoredRuleAccuracy = Result.Model.Rules.accuracy(Data);
  Result.Model.ConfidenceThreshold = Opts.ConfidenceThreshold;
  Result.Model.BsrEnabled = Opts.EnableBsr;
  Result.Model.refreshRuleMetadata();

  Result.TrainSeconds = Timer.seconds();
  return Result;
}

template std::array<double, smat::NumFormats>
smat::measureAllFormats(const CsrMatrix<float> &, const KernelSelection &,
                        const TrainingOptions &);
template std::array<double, smat::NumFormats>
smat::measureAllFormats(const CsrMatrix<double> &, const KernelSelection &,
                        const TrainingOptions &);
template smat::FeatureRecord
smat::buildRecord<float>(const CorpusEntry &, const KernelSelection &,
                         const TrainingOptions &);
template smat::FeatureRecord
smat::buildRecord<double>(const CorpusEntry &, const KernelSelection &,
                          const TrainingOptions &);
template smat::TrainResult
smat::trainSmat<float>(const std::vector<const CorpusEntry *> &,
                       const TrainingOptions &);
template smat::TrainResult
smat::trainSmat<double>(const std::vector<const CorpusEntry *> &,
                        const TrainingOptions &);
