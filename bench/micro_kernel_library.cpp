//===- bench/micro_kernel_library.cpp - The kernel library swept as plans -===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Sweeps the kernel library (paper Section 5.2) as the runtime runs it: every
// SpMV kernel at k=1 and every SpMM kernel at k=8, in double and float, each
// bound by measureKernelPlans, so it runs as the row-sliced plan a tune would
// bind. The matrices are the Small corpus and the 16 representatives of paper
// Figure 8, and the whole set is swept three times.
//
// For each kernel the table counts the matrices where its plan was measured,
// where it is the fastest of its family and where it is within
// GuardrailNoiseFloor of the fastest (both on the median of the sweeps), and
// the matrices where it is needed: faster than every other kernel of its
// family by more than the floor in every sweep. A kernel needed nowhere can
// leave the library; one needed on only a few matrices has them listed by
// name. Last, the skew pass: on the matrices with row CV above
// SkewRowCvThreshold, how often each committed model's general CSR pick
// trails its skew pick by more than the floor. Takes no arguments; run it
// from the repository root so it finds bench_cache/.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "features/FeatureExtractor.h"
#include "matrix/Corpus.h"

#include <algorithm>
#include <map>

using namespace smat;
using namespace smat::bench;

namespace {

constexpr std::size_t Sweeps = 3;
/// A kernel needed on at most this many matrices has them listed by name.
constexpr std::size_t ListNeededUpTo = 8;

/// One kernel list the scoreboard ranks: a format's SpMV kernels (Width 1)
/// or its SpMM kernels (Width SpmmSearchWidth, the kernel search's; BSR has
/// none).
struct Family {
  FormatKind Kind;
  index_t Width;

  std::string label() const {
    return formatString("%s k=%d", std::string(formatName(Kind)).c_str(),
                        static_cast<int>(Width));
  }
};

std::vector<Family> families() {
  std::vector<Family> Result;
  for (int K = 0; K < NumFormats; ++K)
    Result.push_back({static_cast<FormatKind>(K), 1});
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL})
    Result.push_back({Kind, SpmmSearchWidth});
  return Result;
}

/// One family's sweep: kernel names, and GFLOPS [matrix][sweep][kernel],
/// 0 where the plan was not measured (a declined conversion).
struct FamilyRates {
  std::vector<std::string> Names;
  std::vector<std::array<std::vector<double>, Sweeps>> Rates;
};

/// The median over the sweeps of kernel \p K on matrix \p M.
double medianRate(const FamilyRates &F, std::size_t M, std::size_t K) {
  std::array<double, Sweeps> V;
  for (std::size_t S = 0; S != Sweeps; ++S)
    V[S] = F.Rates[M][S][K];
  std::sort(V.begin(), V.end());
  return V[Sweeps / 2];
}

/// Whether kernel \p K beats every other measured kernel of its family on
/// matrix \p M by more than the floor in every sweep.
bool isNeeded(const FamilyRates &F, std::size_t M, std::size_t K) {
  for (const std::vector<double> &Sweep : F.Rates[M]) {
    if (Sweep[K] <= 0.0)
      return false;
    for (std::size_t J = 0; J != Sweep.size(); ++J)
      if (J != K && Sweep[J] > 0.0 &&
          Sweep[K] <= (1.0 + GuardrailNoiseFloor) * Sweep[J])
        return false;
  }
  return true;
}

template <typename T>
std::vector<FamilyRates> sweepLibrary(const std::vector<CorpusEntry> &Set,
                                      const char *Precision) {
  const double MinSeconds = benchTrainingOptions().MeasureMinSeconds;
  const std::vector<Family> Families = families();
  std::vector<FamilyRates> Result(Families.size());
  for (FamilyRates &F : Result)
    F.Rates.resize(Set.size());
  for (std::size_t S = 0; S != Sweeps; ++S) {
    std::fprintf(stderr, "[sweep] %s %zu/%zu\n", Precision, S + 1, Sweeps);
    for (std::size_t M = 0; M != Set.size(); ++M) {
      const CsrMatrix<T> A = convertValueType<T>(Set[M].Matrix);
      for (std::size_t Fam = 0; Fam != Families.size(); ++Fam) {
        std::vector<KernelMeasurement> Table = measureKernelPlans(
            A, Families[Fam].Kind, Families[Fam].Width, MinSeconds);
        std::vector<double> &Rates = Result[Fam].Rates[M][S];
        Rates.clear();
        for (const KernelMeasurement &Row : Table)
          Rates.push_back(Row.Gflops);
        if (Result[Fam].Names.empty())
          for (const KernelMeasurement &Row : Table)
            Result[Fam].Names.push_back(Row.Name);
      }
    }
  }
  return Result;
}

void reportLibrary(const std::vector<CorpusEntry> &Set,
                   const std::vector<FamilyRates> &Rates) {
  const std::vector<Family> Families = families();
  AsciiTable Table(
      {"family", "kernel", "measured", "fastest", "within", "needed"});
  std::map<std::string, std::vector<std::string>> NeededOn;
  for (std::size_t Fam = 0; Fam != Families.size(); ++Fam) {
    const FamilyRates &F = Rates[Fam];
    const std::size_t N = F.Names.size();
    std::vector<int> Measured(N), Fastest(N), Within(N), Needed(N);
    for (std::size_t M = 0; M != Set.size(); ++M) {
      std::vector<double> Median(N);
      for (std::size_t K = 0; K != N; ++K)
        Median[K] = medianRate(F, M, K);
      const auto Best = std::max_element(Median.begin(), Median.end());
      if (*Best <= 0.0)
        continue;
      ++Fastest[static_cast<std::size_t>(Best - Median.begin())];
      for (std::size_t K = 0; K != N; ++K) {
        if (Median[K] <= 0.0)
          continue;
        ++Measured[K];
        if ((1.0 + GuardrailNoiseFloor) * Median[K] >= *Best)
          ++Within[K];
        if (isNeeded(F, M, K)) {
          ++Needed[K];
          NeededOn[F.Names[K]].push_back(Set[M].Name);
        }
      }
    }
    for (std::size_t K = 0; K != N; ++K)
      Table.addRow({Families[Fam].label(), F.Names[K],
                    formatString("%d", Measured[K]),
                    formatString("%d", Fastest[K]),
                    formatString("%d", Within[K]),
                    formatString("%d", Needed[K])});
  }
  Table.print();
  for (const auto &[Name, Matrices] : NeededOn) {
    if (Matrices.size() > ListNeededUpTo)
      continue;
    std::string List;
    for (const std::string &Matrix : Matrices)
      List += (List.empty() ? "" : ", ") + Matrix;
    std::printf("  %s needed on: %s\n", Name.c_str(), List.c_str());
  }
}

/// The skew pass of the committed model for \p Precision: on the matrices
/// with row CV above SkewRowCvThreshold, how often its general CSR pick
/// trails its skew pick by more than the floor (median of the sweeps).
void reportSkewPass(const std::vector<CorpusEntry> &Set,
                    const FamilyRates &CsrRates, const char *Precision) {
  const std::string Path =
      cacheDir() + "/model_" + std::string(Precision) + "_small.txt";
  LearningModel Model;
  std::string Error;
  if (!loadModelFile(Path, Model, Error)) {
    std::printf("skew pass: no committed model (%s)\n", Error.c_str());
    return;
  }
  const std::string &General =
      Model.Kernels.BestKernelName[static_cast<std::size_t>(FormatKind::CSR)];
  const std::string &Skew = Model.Kernels.BestSkewCsrKernelName;
  auto IndexOf = [&CsrRates](const std::string &Name) -> std::ptrdiff_t {
    auto It = std::find(CsrRates.Names.begin(), CsrRates.Names.end(), Name);
    return It == CsrRates.Names.end() ? -1 : It - CsrRates.Names.begin();
  };
  const std::ptrdiff_t G = IndexOf(General), K = IndexOf(Skew);
  if (G < 0 || K < 0 || G == K) {
    std::printf("skew pass (%s): general pick %s, skew pick %s: %s\n",
                Precision, General.c_str(),
                Skew.empty() ? "(none)" : Skew.c_str(),
                G >= 0 && G == K ? "the same kernel"
                                 : "not both registered here");
    return;
  }
  int Skewed = 0, Trails = 0, SkewedAtGrain = 0, TrailsAtGrain = 0;
  for (std::size_t M = 0; M != Set.size(); ++M) {
    if (extractStructureFeatures(Set[M].Matrix).rowCv() <= SkewRowCvThreshold)
      continue;
    const bool AtGrain = Set[M].Matrix.nnz() >= ParallelConvertGrain;
    const bool Trailing =
        (1.0 + GuardrailNoiseFloor) *
            medianRate(CsrRates, M, static_cast<std::size_t>(G)) <
        medianRate(CsrRates, M, static_cast<std::size_t>(K));
    ++Skewed;
    SkewedAtGrain += AtGrain;
    Trails += Trailing;
    TrailsAtGrain += Trailing && AtGrain;
  }
  std::printf("skew pass (%s): general pick %s trails skew pick %s by more "
              "than the floor on %d of %d matrices with row CV > %.1f (%d of "
              "%d at or above the grain)\n",
              Precision, General.c_str(), Skew.c_str(), Trails, Skewed,
              SkewRowCvThreshold, TrailsAtGrain, SkewedAtGrain);
}

template <typename T>
void sweepAndReport(const std::vector<CorpusEntry> &Set,
                    const char *Precision) {
  std::printf("\n=== %s: %zu matrices, %zu sweeps, floor %.0f%% ===\n",
              Precision, Set.size(), Sweeps, 100.0 * GuardrailNoiseFloor);
  const std::vector<FamilyRates> Rates = sweepLibrary<T>(Set, Precision);
  reportLibrary(Set, Rates);
  reportSkewPass(Set, Rates[static_cast<std::size_t>(FormatKind::CSR)],
                 Precision);
}

} // namespace

int main() {
  WallTimer Timer;
  std::vector<CorpusEntry> Set = buildCorpus(CorpusScale::Small);
  for (CorpusEntry &Entry : representativeMatrices())
    Set.push_back(std::move(Entry));
  std::printf("=== Kernel library swept as plans (paper Section 5.2): SpMV "
              "at k=1, SpMM at k=%d ===\n",
              static_cast<int>(SpmmSearchWidth));
  sweepAndReport<double>(Set, "double");
  sweepAndReport<float>(Set, "float");
  std::printf("\nswept in %.0f s\n", Timer.seconds());
  return 0;
}
