//===- bench/micro_plan_cache.cpp - Cold vs warm tuning latency -----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the feature-fingerprint PlanCache buys a workload that tunes
// many structurally similar matrices (a parameter sweep, a time-stepping
// refinement loop, an AMG hierarchy): per-family cold tuning latency
// (no cache), warm latency (every lookup hits), the resulting speedup, and
// the tuning overhead in the paper's "times of one CSR SpMV" unit.
//
// Two deployment regimes are measured, because they differ by an order of
// magnitude in what the cache can save:
//   confident — the trained model as-is; most predictions clear the
//               confidence threshold, so a cold tune costs features +
//               prediction + the bind, plus the never-slower check where
//               the cost model does not endorse the plan. The cache saves
//               the prediction and the check: a modest win.
//   measured  — the threshold raised above every rule's confidence (the
//               paper's low-threshold ablation regime, i.e. a deployment
//               that demands empirical validation): every cold tune pays
//               the execute-and-measure fallback. The cache saves the whole
//               measurement pass: the order-of-magnitude win it exists for.
//
// The decision itself must not drift: a warm tune binds the format the cold
// tune inserted for that fingerprint class.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/PlanCache.h"
#include "matrix/Generators.h"

#include <vector>

using namespace smat;
using namespace smat::bench;

namespace {

struct Family {
  std::string Name;
  std::vector<CsrMatrix<double>> Instances;
};

/// Structurally homogeneous families: instances differ in exact size and
/// seed but stay inside one fingerprint equivalence class (sizes span less
/// than one log2 bucket).
std::vector<Family> buildFamilies() {
  std::vector<Family> Families;
  const int K = 6;

  Family Banded{"banded", {}};
  for (int I = 0; I < K; ++I)
    Banded.Instances.push_back(banded(3000 + 120 * I, 4));
  Families.push_back(std::move(Banded));

  Family Stencil{"2d_stencil", {}};
  for (int I = 0; I < K; ++I)
    Stencil.Instances.push_back(laplace2d5pt(52 + I, 52 + I));
  Families.push_back(std::move(Stencil));

  Family Graph{"power_law", {}};
  for (int I = 0; I < K; ++I)
    Graph.Instances.push_back(powerLawGraph(
        3000 + 120 * I, 2.0, 1, 100, static_cast<std::uint64_t>(1000 + I)));
  Families.push_back(std::move(Graph));

  Family Random{"bounded_random", {}};
  for (int I = 0; I < K; ++I)
    Random.Instances.push_back(
        boundedDegreeRandom(3000 + 120 * I, 3000 + 120 * I, 4, 8,
                            static_cast<std::uint64_t>(2000 + I)));
  Families.push_back(std::move(Random));

  return Families;
}

struct ScenarioTotals {
  double Cold = 0.0;
  double Warm = 0.0;
};

ScenarioTotals runScenario(const char *Scenario, const Smat<double> &Tuner,
                           std::vector<Family> &Families, AsciiTable &Table) {
  ScenarioTotals Totals;
  for (Family &F : Families) {
    std::size_t N = F.Instances.size();

    // Cold: every matrix pays the full pipeline (no cache). Each matrix's
    // overhead unit (one basic CSR SpMV) is timed once, after its cold tune.
    std::vector<FormatKind> ColdFormats;
    std::vector<double> Units;
    double ColdSeconds = 0.0, ColdOverhead = 0.0;
    for (const CsrMatrix<double> &A : F.Instances) {
      WallTimer Timer;
      TunedSpmv<double> Op = Tuner.tune(A);
      ColdSeconds += Timer.seconds();
      Units.push_back(quickSpmvSeconds(A));
      ColdOverhead += Op.report().TuneSeconds / Units.back();
      ColdFormats.push_back(Op.format());
    }

    // Populate (untimed): one shared cache sees every instance once. Later
    // instances may already transfer the plan of an earlier structural twin;
    // that rate is reported as "transfer".
    PlanCache Cache;
    TuneOptions Opts;
    Opts.Cache = &Cache;
    for (const CsrMatrix<double> &A : F.Instances)
      (void)Tuner.tune(A, Opts);
    double TransferRate = static_cast<double>(Cache.stats().Hits) / N;
    std::uint64_t HitsBefore = Cache.stats().Hits;

    // Warm: re-tuning the same workload; every fingerprint is now resident.
    double WarmSeconds = 0.0, WarmOverhead = 0.0;
    std::size_t FormatMatches = 0;
    for (std::size_t I = 0; I != N; ++I) {
      WallTimer Timer;
      TunedSpmv<double> Op = Tuner.tune(F.Instances[I], Opts);
      WarmSeconds += Timer.seconds();
      WarmOverhead += Op.report().TuneSeconds / Units[I];
      FormatMatches += Op.format() == ColdFormats[I] ? 1 : 0;
    }
    double HitRate =
        static_cast<double>(Cache.stats().Hits - HitsBefore) / N;

    Totals.Cold += ColdSeconds;
    Totals.Warm += WarmSeconds;
    Table.addRow(
        {Scenario, F.Name, formatString("%zu", N),
         formatString("%.3f", 1e3 * ColdSeconds / N),
         formatString("%.3f", 1e3 * WarmSeconds / N),
         formatString("%.1fx", ColdSeconds / std::max(1e-12, WarmSeconds)),
         formatString("%.1f", ColdOverhead / N),
         formatString("%.2f", WarmOverhead / N),
         formatString("%.0f%%", 100.0 * HitRate),
         formatString("%.0f%%", 100.0 * TransferRate),
         formatString("%zu/%zu", FormatMatches, N)});
  }
  return Totals;
}

} // namespace

int main() {
  std::printf("=== PlanCache micro-benchmark: cold vs warm tune latency "
              "===\n\n");

  LearningModel Model = getSharedModel<double>("double");
  const Smat<double> Confident(Model);

  // The always-measure deployment: no rule clears a threshold above 1, so
  // every cold tune runs the execute-and-measure fallback.
  LearningModel StrictModel = Model;
  StrictModel.ConfidenceThreshold = 2.0;
  const Smat<double> Measured(StrictModel);

  auto Families = buildFamilies();
  AsciiTable Table({"scenario", "family", "n", "cold ms", "warm ms",
                    "speedup", "cold xCSR", "warm xCSR", "hit rate",
                    "transfer", "fmt match"});
  ScenarioTotals ConfidentTotals =
      runScenario("confident", Confident, Families, Table);
  ScenarioTotals MeasuredTotals =
      runScenario("measured", Measured, Families, Table);
  Table.print();

  double ConfidentSpeedup =
      ConfidentTotals.Cold / std::max(1e-12, ConfidentTotals.Warm);
  double MeasuredSpeedup =
      MeasuredTotals.Cold / std::max(1e-12, MeasuredTotals.Warm);
  std::printf("\nwarm-vs-cold tuning speedup, confident path: %.1fx "
              "(cache skips the never-slower check)\n",
              ConfidentSpeedup);
  std::printf("warm-vs-cold tuning speedup, measured path:  %.1fx "
              "(cache skips execute-and-measure)\n",
              MeasuredSpeedup);
  std::printf("\nShape check: warm tunes run only feature extraction and the\n"
              "format bind, so warm overhead sits well under one CSR SpMV\n"
              "equivalent, against the paper's 2-5x (confident) and ~16x\n"
              "(measured) cold overheads; the measured-path speedup should\n"
              "exceed 10x. A fmt-match below n/n only appears where the\n"
              "uncached execute-and-measure pass itself flips between\n"
              "near-tied candidates (e.g. CSR vs COO on power-law graphs);\n"
              "the cache pins one of the tied winners.\n");
  return 0;
}
