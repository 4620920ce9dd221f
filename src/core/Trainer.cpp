//===- core/Trainer.cpp - SMAT off-line training pipeline -----------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Trainer.h"

#include "core/TuningPipeline.h"
#include "matrix/Generators.h"
#include "support/Timer.h"

#include <algorithm>

using namespace smat;

namespace {

/// The scoreboard rows of \p Kind's SpMV kernels, or of its SpMM kernels
/// when \p Spmm (none for BSR), not yet measured.
template <typename T>
std::vector<KernelMeasurement> unmeasuredTable(FormatKind Kind, bool Spmm) {
  const KernelTable<T> &Kernels = kernelTable<T>();
  std::vector<KernelMeasurement> Table;
  auto Add = [&Table](const auto &List) {
    for (const auto &K : List)
      Table.push_back({K.Name, K.Flags, 0.0});
  };
  switch (Kind) {
  case FormatKind::CSR:
    Spmm ? Add(Kernels.CsrSpmm) : Add(Kernels.Csr);
    break;
  case FormatKind::COO:
    Spmm ? Add(Kernels.CooSpmm) : Add(Kernels.Coo);
    break;
  case FormatKind::DIA:
    Spmm ? Add(Kernels.DiaSpmm) : Add(Kernels.Dia);
    break;
  case FormatKind::ELL:
    Spmm ? Add(Kernels.EllSpmm) : Add(Kernels.Ell);
    break;
  case FormatKind::BSR:
    if (!Spmm)
      Add(Kernels.Bsr);
    break;
  }
  return Table;
}

} // namespace

template <typename T>
std::vector<KernelMeasurement>
smat::measureKernelPlans(const CsrMatrix<T> &Probe, FormatKind Kind,
                         index_t Width, double MinSeconds) {
  const bool Spmm = Width > 1;
  std::vector<KernelMeasurement> Table = unmeasuredTable<T>(Kind, Spmm);
  RobustMeasureOptions Opts;
  Opts.MinSeconds = MinSeconds;
  const auto Format = static_cast<std::size_t>(Kind);
  for (std::size_t I = 0; I != Table.size(); ++I) {
    KernelSelection Sel;
    (Spmm ? Sel.BestSpmmKernel : Sel.BestKernel)[Format] = static_cast<int>(I);
    try {
      std::unique_ptr<FormatOperator<T>> Op =
          bindFormatOperator(Probe, Kind, Sel);
      if (Op->kind() != Kind)
        continue; // A conversion guard declined the probe.
      double Seconds =
          timePlan(*Op, Width, "scoreboard.kernel", Opts).SecondsPerCall;
      Table[I].Gflops = spmvGflops(static_cast<std::uint64_t>(Probe.nnz()) *
                                       static_cast<std::uint64_t>(Width),
                                   Seconds);
    } catch (...) {
      // A throwing plan scores zero; the scoreboard will not pick it.
    }
  }
  return Table;
}

template <typename T>
KernelSelection smat::searchOptimalKernels(double MinSeconds) {
  KernelSelection Selection;
  // Format-friendly probes, indexed by FormatKind and sized to overflow L2 a
  // little so the memory system participates in the measurement. All but
  // BSR's are above the grain, so their plans run as row slices.
  const std::array<CsrMatrix<T>, NumFormats> Probes = {
      convertValueType<T>(blockFem(120, 24, 4.0, 42)),
      convertValueType<T>(powerLawGraph(20000, 2.2, 1, 64, 43)),
      convertValueType<T>(banded(30000, 4)),
      convertValueType<T>(boundedDegreeRandom(20000, 20000, 6, 6, 44)),
      convertValueType<T>(blockFem(1500, 4, 0.0, 45))};

  // One scoreboard over the plans of \p Kind's kernels on \p Probe at
  // \p Width; the winner goes to \p Index and \p Name.
  auto Pick = [MinSeconds](const CsrMatrix<T> &Probe, FormatKind Kind,
                           index_t Width, int &Index, std::string &Name) {
    std::vector<KernelMeasurement> Table =
        measureKernelPlans(Probe, Kind, Width, MinSeconds);
    Index = runScoreboard(Table).BestIndex;
    Name = Table[static_cast<std::size_t>(Index)].Name;
  };

  for (int K = 0; K < NumFormats; ++K)
    Pick(Probes[static_cast<std::size_t>(K)], static_cast<FormatKind>(K), 1,
         Selection.BestKernel[static_cast<std::size_t>(K)],
         Selection.BestKernelName[static_cast<std::size_t>(K)]);

  // Second CSR pass on a heavily skewed (power-law, row CV > 2) probe: the
  // CSR kernels rank differently on long rows than on the balanced FEM
  // probe above, so the skew-bound kernel gets its own scoreboard where long
  // rows actually exist.
  Pick(convertValueType<T>(powerLawGraph(30000, 1.8, 1, 3000, 46)),
       FormatKind::CSR, 1, Selection.BestSkewCsrKernel,
       Selection.BestSkewCsrKernelName);

  // SpMM pass: one scoreboard per family at SpmmSearchWidth, each on its
  // own format's probe. The pick serves multiply() at every width; the
  // kernels dispatch their own register tiles by width.
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL}) {
    const auto K = static_cast<std::size_t>(Kind);
    Pick(Probes[K], Kind, SpmmSearchWidth, Selection.BestSpmmKernel[K],
         Selection.BestSpmmKernelName[K]);
  }
  return Selection;
}

template <typename T>
std::array<double, NumFormats>
smat::measureAllFormats(const CsrMatrix<T> &A, const KernelSelection &Selection,
                        const TrainingOptions &Opts) {
  RobustMeasureOptions MOpts;
  MOpts.MinSeconds = Opts.MeasureMinSeconds;
  std::array<double, NumFormats> Gflops;
  Gflops.fill(-1.0);

  // Keeps in Gflops[Kind] the faster of what is there and the plan Bind()
  // builds, timed at Site, when that plan is of format Kind (a conversion
  // guard may have declined it). A plan whose bind or kernel throws is
  // dropped, as the race drops it.
  auto Label = [&](FormatKind Kind, const char *Site, auto Bind) {
    try {
      std::unique_ptr<FormatOperator<T>> Op = Bind();
      if (Op->kind() != Kind)
        return;
      double &Rate = Gflops[static_cast<std::size_t>(Kind)];
      Rate = std::max(
          Rate, spmvGflops(static_cast<std::uint64_t>(A.nnz()),
                           timePlan(*Op, 1, Site, MOpts).SecondsPerCall));
    } catch (...) {
    }
  };

  const int CsrKernel =
      Selection.csrKernelFor(extractStructureFeatures(A).rowCv());
  for (int K = 0; K < NumFormats; ++K) {
    const auto Kind = static_cast<FormatKind>(K);
    if (Kind == FormatKind::BSR && !Opts.EnableBsr)
      continue;
    Label(Kind, MeasureStage::site(Kind), [&] {
      return bindFormatOperator(A, Kind, Selection, CsrKernel);
    });
  }
  // Basic CSR is a second CSR plan unless the pick already is csr_basic,
  // which never slices.
  if (&kernelEntry(kernelTable<T>().Csr, CsrKernel) != &basicCsrKernel<T>())
    Label(FormatKind::CSR, "measure.baseline",
          [&] { return basicCsrOperator(A); });
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
  Result.Model.Kernels = searchOptimalKernels<T>(Opts.MeasureMinSeconds);

  // Stage 2: feature database (paper Section 4).
  Result.Database.Records.reserve(Training.size());
  for (const CorpusEntry *Entry : Training)
    Result.Database.Records.push_back(
        buildRecord<T>(*Entry, Result.Model.Kernels, Opts));

  // Stage 3: data mining (paper Section 5.1).
  Dataset Data = Result.Database.toDataset();
  DecisionTree Tree;
  Tree.build(Data);
  Result.TreeAccuracy = Tree.accuracy(Data);

  RuleSet Rules = RuleSet::fromTree(Tree, Data);
  Rules.orderByContribution(Data);
  Result.FullRules = Rules;
  Result.FullRuleAccuracy = Rules.accuracy(Data);

  // Stage 4: rule tailoring and grouping (paper Section 6), within the
  // paper's 1% accuracy loss (tailored's default).
  Result.Model.Rules = Rules.tailored(Data);
  Result.TailoredRuleAccuracy = Result.Model.Rules.accuracy(Data);
  Result.Model.BsrEnabled = Opts.EnableBsr;
  Result.Model.refreshRuleMetadata();

  Result.TrainSeconds = Timer.seconds();
  return Result;
}

template std::vector<smat::KernelMeasurement>
smat::measureKernelPlans(const CsrMatrix<float> &, FormatKind, index_t,
                         double);
template std::vector<smat::KernelMeasurement>
smat::measureKernelPlans(const CsrMatrix<double> &, FormatKind, index_t,
                         double);
template smat::KernelSelection smat::searchOptimalKernels<float>(double);
template smat::KernelSelection smat::searchOptimalKernels<double>(double);
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
