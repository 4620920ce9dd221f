//===- tests/core_test.cpp - Trainer and runtime tuner tests --------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"
#include "core/Trainer.h"
#include "matrix/Generators.h"
#include "ml/ModelIO.h"
#include "support/Str.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>

using namespace smat;
using namespace smat::test;

namespace {

TrainingOptions fastOptions() {
  TrainingOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  return Opts;
}

/// A tiny trained model shared across tests (training is measured, so build
/// it once).
const TrainResult &sharedTrainResult() {
  static const TrainResult Result = [] {
    auto Corpus = buildCorpus(CorpusScale::Tiny);
    std::vector<const CorpusEntry *> Training, Evaluation;
    splitCorpus(Corpus, Training, Evaluation);
    return trainSmat<double>(Training, fastOptions());
  }();
  return Result;
}

} // namespace

// --- FeatureDatabase ------------------------------------------------------------

TEST(FeatureDatabaseTest, CsvRoundTrip) {
  FeatureDatabase Db;
  FeatureRecord R;
  R.Name = "t2d_q9";
  R.Domain = "2d_3d";
  R.Features.M = 9801;
  R.Features.N = 9801;
  R.Features.Ndiags = 9;
  R.Features.NTdiagsRatio = 1.0;
  R.Features.Nnz = 87025;
  R.Features.MaxRd = 9;
  R.Features.VarRd = 0.35;
  R.Features.ErDia = 0.99;
  R.Features.ErEll = 0.99;
  R.Features.R = FeatureInf;
  R.Gflops = {1.0, 0.8, 2.5, 1.9};
  R.BestFormat = FormatKind::DIA;
  Db.Records.push_back(R);

  FeatureDatabase Parsed;
  std::string Error;
  ASSERT_TRUE(FeatureDatabase::parseCsv(Db.toCsv(), Parsed, Error)) << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed.Records[0].Name, "t2d_q9");
  EXPECT_DOUBLE_EQ(Parsed.Records[0].Features.NTdiagsRatio, 1.0);
  EXPECT_DOUBLE_EQ(Parsed.Records[0].Gflops[2], 2.5);
  EXPECT_EQ(Parsed.Records[0].BestFormat, FormatKind::DIA);
}

TEST(FeatureDatabaseTest, DatasetProjection) {
  FeatureDatabase Db;
  FeatureRecord R;
  R.Name = "x";
  R.Features.Ndiags = 3;
  R.BestFormat = FormatKind::ELL;
  Db.Records.push_back(R);
  Dataset Data = Db.toDataset();
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_EQ(Data.Samples[0].Label, FormatKind::ELL);
  EXPECT_DOUBLE_EQ(Data.Samples[0].X[FeatNdiags], 3.0);
}

TEST(FeatureDatabaseTest, FormatDistributionCounts) {
  FeatureDatabase Db;
  for (int I = 0; I < 5; ++I) {
    FeatureRecord R;
    R.BestFormat = I < 3 ? FormatKind::CSR : FormatKind::COO;
    Db.Records.push_back(R);
  }
  auto Dist = Db.formatDistribution();
  EXPECT_EQ(Dist[static_cast<int>(FormatKind::CSR)], 3u);
  EXPECT_EQ(Dist[static_cast<int>(FormatKind::COO)], 2u);
}

// --- Kernel search (paper Section 5.2) -------------------------------------------

TEST(KernelSearchTest, KernelPlansRecordFiniteRatesAtTheirIndices) {
  const KernelTable<double> &T = kernelTable<double>();
  auto Check = [](const std::vector<KernelMeasurement> &Table,
                  const auto &List) {
    ASSERT_EQ(Table.size(), List.size());
    for (std::size_t I = 0; I != Table.size(); ++I) {
      EXPECT_EQ(Table[I].Name, List[I].Name);
      EXPECT_GT(Table[I].Gflops, 0.0) << Table[I].Name;
      EXPECT_LT(Table[I].Gflops, 1000.0) << Table[I].Name;
    }
  };
  // One slice below the grain, row slices above it. ELL's sliced kernels
  // run on every ELL plan: RowLen is part of the format's invariant.
  for (const CsrMatrix<double> &A :
       {randomCsr(200, 200, 0.05, 8), banded(20000, 2)}) {
    SCOPED_TRACE("nnz " + std::to_string(A.nnz()));
    Check(measureKernelPlans(A, FormatKind::CSR, 1, 1e-4), T.Csr);
    Check(measureKernelPlans(A, FormatKind::CSR, 8, 1e-4), T.CsrSpmm);
    Check(measureKernelPlans(A, FormatKind::ELL, 1, 1e-4), T.Ell);
    Check(measureKernelPlans(A, FormatKind::ELL, 8, 1e-4), T.EllSpmm);
  }
}

TEST(KernelSearchTest, DeclinedConversionLeavesBasicSelected) {
  // DIA's fill guard declines a power-law graph: no DIA plan is timed, every
  // entry stays at zero GFLOPS and the scoreboard keeps the basic kernel.
  auto Table = measureKernelPlans(powerLawGraph(3000, 2.0, 1, 400, 3),
                                  FormatKind::DIA, 1, 1e-5);
  ASSERT_EQ(Table.size(), kernelTable<double>().Dia.size());
  for (const KernelMeasurement &Row : Table)
    EXPECT_EQ(Row.Gflops, 0.0) << Row.Name;
  EXPECT_EQ(runScoreboard(Table).BestIndex, 0);
}

TEST(KernelSearchTest, SearchOptimalKernelsReturnsValidIndices) {
  KernelSelection S = searchOptimalKernels<double>(/*MinSeconds=*/2e-4);
  const auto &T = kernelTable<double>();
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::CSR)],
            static_cast<int>(T.Csr.size()));
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::COO)],
            static_cast<int>(T.Coo.size()));
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::DIA)],
            static_cast<int>(T.Dia.size()));
  EXPECT_LT(S.BestKernel[static_cast<int>(FormatKind::ELL)],
            static_cast<int>(T.Ell.size()));
  for (int K = 0; K < NumFormats; ++K) {
    EXPECT_GE(S.BestKernel[static_cast<std::size_t>(K)], 0);
    EXPECT_FALSE(S.BestKernelName[static_cast<std::size_t>(K)].empty());
  }
  // The skewed-CSR pass always runs.
  EXPECT_GE(S.BestSkewCsrKernel, 0);
  EXPECT_LT(S.BestSkewCsrKernel, static_cast<int>(T.Csr.size()));
  EXPECT_FALSE(S.BestSkewCsrKernelName.empty());
  // csrKernelFor routes by row CV: below the threshold the general pick,
  // above it the skew pick.
  EXPECT_EQ(S.csrKernelFor(0.0), S.BestKernel[static_cast<int>(FormatKind::CSR)]);
  EXPECT_EQ(S.csrKernelFor(SkewRowCvThreshold + 1.0), S.BestSkewCsrKernel);
  // Every SpMM family is searched once; BSR has none.
  for (int K = 0; K < NumFormats; ++K) {
    const auto F = static_cast<std::size_t>(K);
    if (static_cast<FormatKind>(K) == FormatKind::BSR) {
      EXPECT_EQ(S.BestSpmmKernel[F], -1);
      EXPECT_TRUE(S.BestSpmmKernelName[F].empty());
      continue;
    }
    EXPECT_GE(S.BestSpmmKernel[F], 0) << formatName(static_cast<FormatKind>(K));
    EXPECT_FALSE(S.BestSpmmKernelName[F].empty());
  }
}

// --- Trainer ---------------------------------------------------------------------

TEST(TrainerTest, MeasureAllFormatsRespectsGuards) {
  KernelSelection Sel; // Basic kernels everywhere.
  TrainingOptions Opts = fastOptions();

  // Banded matrix: all four basic formats measurable; BSR stays -1 because
  // the extension format is disabled by default.
  auto Gflops = measureAllFormats(banded(2000, 2), Sel, Opts);
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL})
    EXPECT_GT(Gflops[static_cast<std::size_t>(static_cast<int>(Kind))], 0.0);
  EXPECT_LT(Gflops[static_cast<int>(FormatKind::BSR)], 0.0);

  // With the extension enabled, a block-structured matrix measures BSR too.
  TrainingOptions BsrOpts = Opts;
  BsrOpts.EnableBsr = true;
  auto Gflops3 = measureAllFormats(blockFem(100, 4, 0.0, 7), Sel, BsrOpts);
  EXPECT_GT(Gflops3[static_cast<int>(FormatKind::BSR)], 0.0);

  // Power-law graph: DIA (scattered diagonals) and ELL (spiked max degree)
  // must be rejected by the guards.
  auto Gflops2 =
      measureAllFormats(powerLawGraph(3000, 2.0, 1, 400, 3), Sel, Opts);
  EXPECT_GT(Gflops2[static_cast<int>(FormatKind::CSR)], 0.0);
  EXPECT_GT(Gflops2[static_cast<int>(FormatKind::COO)], 0.0);
  EXPECT_LT(Gflops2[static_cast<int>(FormatKind::DIA)], 0.0);
  EXPECT_LT(Gflops2[static_cast<int>(FormatKind::ELL)], 0.0);
}

TEST(TrainerTest, BuildRecordLabelsBestFormat) {
  KernelSelection Sel;
  CorpusEntry Entry{"probe", "materials", banded(3000, 3)};
  FeatureRecord Record = buildRecord<double>(Entry, Sel, fastOptions());
  EXPECT_EQ(Record.Name, "probe");
  EXPECT_DOUBLE_EQ(Record.Features.Ndiags, 7);
  double BestGflops = Record.Gflops[static_cast<int>(Record.BestFormat)];
  for (double G : Record.Gflops)
    EXPECT_LE(G, BestGflops);
}

TEST(TrainerTest, TrainProducesUsableModel) {
  const TrainResult &Result = sharedTrainResult();
  EXPECT_FALSE(Result.Model.Rules.Rules.empty());
  EXPECT_GE(Result.TreeAccuracy, 0.6)
      << "the tree should beat the CSR-everywhere prior on training data";
  EXPECT_GE(Result.TailoredRuleAccuracy + 0.011, Result.FullRuleAccuracy);
  EXPECT_LE(Result.Model.Rules.size(), Result.FullRules.size());
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  EXPECT_EQ(Result.Database.size(), Training.size());
}

TEST(TrainerTest, TrainingLabelsCoverMultipleFormats) {
  const TrainResult &Result = sharedTrainResult();
  auto Dist = Result.Database.formatDistribution();
  int NonEmpty = 0;
  for (std::size_t C : Dist)
    NonEmpty += C > 0 ? 1 : 0;
  EXPECT_GE(NonEmpty, 2)
      << "the corpus must not collapse onto a single best format";
}

// --- LearningModel IO -------------------------------------------------------------

TEST(LearningModelTest, SerializeParseRoundTrip) {
  const LearningModel &Model = sharedTrainResult().Model;
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_DOUBLE_EQ(Parsed.ConfidenceThreshold, Model.ConfidenceThreshold);
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());
  for (int K = 0; K < NumFormats; ++K) {
    EXPECT_EQ(Parsed.Kernels.BestKernel[static_cast<std::size_t>(K)],
              Model.Kernels.BestKernel[static_cast<std::size_t>(K)]);
    EXPECT_EQ(Parsed.Kernels.BestKernelName[static_cast<std::size_t>(K)],
              Model.Kernels.BestKernelName[static_cast<std::size_t>(K)]);
  }
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernel,
            Model.Kernels.BestSkewCsrKernel);
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernelName,
            Model.Kernels.BestSkewCsrKernelName);
}

TEST(LearningModelTest, SkewKernelLineRoundTripsAndStaysOptional) {
  // With the skew pick set, serialize/parse preserves it without disturbing
  // the ruleset.
  LearningModel Model = sharedTrainResult().Model;
  const int Simd = kernelIndexNamed(kernelTable<double>().Csr, "csr_simd");
  ASSERT_GT(Simd, 0);
  Model.Kernels.BestSkewCsrKernel = Simd;
  Model.Kernels.BestSkewCsrKernelName = "csr_simd";
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernel, Simd);
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernelName, "csr_simd");
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());

  // A model text without a kernel_skew line parses with the field at its
  // -1 default and the full ruleset intact.
  Model.Kernels.BestSkewCsrKernel = -1;
  Model.Kernels.BestSkewCsrKernelName.clear();
  std::string Legacy = serializeModel(Model);
  EXPECT_EQ(Legacy.find("kernel_skew"), std::string::npos);
  LearningModel Reparsed;
  ASSERT_TRUE(parseModel(Legacy, Reparsed, Error)) << Error;
  EXPECT_EQ(Reparsed.Kernels.BestSkewCsrKernel, -1);
  EXPECT_EQ(Reparsed.Rules.size(), Model.Rules.size());
}

TEST(LearningModelTest, SpmmKernelLinesRoundTripAndStayOptional) {
  // A partial SpMM search (only some families recorded) round-trips:
  // written picks come back exactly, unwritten ones stay at the -1
  // "unsearched" default.
  const auto Csr = static_cast<std::size_t>(FormatKind::CSR);
  const auto Ell = static_cast<std::size_t>(FormatKind::ELL);
  LearningModel Model = sharedTrainResult().Model;
  Model.Kernels.BestSpmmKernel.fill(-1);
  for (std::string &Name : Model.Kernels.BestSpmmKernelName)
    Name.clear();
  Model.Kernels.BestSpmmKernel[Csr] = 1;
  Model.Kernels.BestSpmmKernelName[Csr] = "csr_spmm_tiled";
  Model.Kernels.BestSpmmKernel[Ell] = 1;
  Model.Kernels.BestSpmmKernelName[Ell] = "ell_spmm_tiled";
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Kernels.BestSpmmKernel, Model.Kernels.BestSpmmKernel);
  EXPECT_EQ(Parsed.Kernels.BestSpmmKernelName,
            Model.Kernels.BestSpmmKernelName);
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());

  // A model text with no kernel_spmm lines parses with every family
  // unsearched.
  Model.Kernels.BestSpmmKernel.fill(-1);
  std::string Bare = serializeModel(Model);
  EXPECT_EQ(Bare.find("kernel_spmm"), std::string::npos);
  LearningModel Reparsed;
  ASSERT_TRUE(parseModel(Bare, Reparsed, Error)) << Error;
  EXPECT_EQ(Reparsed.Kernels.BestSpmmKernel[Csr], -1);
  EXPECT_EQ(Reparsed.Rules.size(), Model.Rules.size());
}

TEST(LearningModelTest, V1HeaderIsRejectedByName) {
  // Model files carry name-only kernel lines under the SMAT-MODEL v2
  // header; a file with another header is refused, and the message names
  // the header it found.
  std::string Text = serializeModel(sharedTrainResult().Model);
  ASSERT_EQ(Text.rfind("SMAT-MODEL v2\n", 0), 0u);
  Text.replace(0, std::string("SMAT-MODEL v2").size(), "SMAT-MODEL v1");
  LearningModel Parsed;
  std::string Error;
  EXPECT_FALSE(parseModel(Text, Parsed, Error));
  EXPECT_NE(Error.find("SMAT-MODEL v1"), std::string::npos) << Error;
}

TEST(LearningModelTest, CostModelLinesRoundTripAndStayOptional) {
  // Calibrated analytic-classifier thresholds survive the round trip.
  LearningModel Model = sharedTrainResult().Model;
  Model.Cost.ImbalanceRowCv = 1.75;
  Model.Cost.DiaFillMin = 0.25;
  Model.Cost.EllFillMin = 0.9;
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Cost, Model.Cost);
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());

  // A model text without costmodel lines parses with the
  // CostModelThresholds defaults.
  std::string Legacy = serializeModel(Model);
  for (std::size_t Pos;
       (Pos = Legacy.find("costmodel ")) != std::string::npos;)
    Legacy.erase(Pos, Legacy.find('\n', Pos) - Pos + 1);
  EXPECT_EQ(Legacy.find("costmodel"), std::string::npos);
  LearningModel Reparsed;
  ASSERT_TRUE(parseModel(Legacy, Reparsed, Error)) << Error;
  EXPECT_EQ(Reparsed.Cost, CostModelThresholds());
  EXPECT_EQ(Reparsed.Rules.size(), Model.Rules.size());

  // A costmodel line with an unknown key is malformed, not skipped.
  std::string Bad = serializeModel(Model);
  std::size_t RulesetPos = Bad.find(serializeRuleSet(Model.Rules));
  ASSERT_NE(RulesetPos, std::string::npos);
  Bad.insert(RulesetPos, "costmodel bogus_key 1.0\n");
  LearningModel Rejected;
  EXPECT_FALSE(parseModel(Bad, Rejected, Error));
}

TEST(LearningModelTest, KernelPicksBindByName) {
  // A model's kernel lines carry names only: the load resolves each pick by
  // name against this build's table, so a reordered table cannot bind
  // another kernel, and a name this build lacks binds the format's basic
  // kernel.
  const KernelTable<double> &K = kernelTable<double>();
  auto Index = [](const auto &List, const std::string &Name) {
    for (std::size_t I = 0; I != List.size(); ++I)
      if (Name == List[I].Name)
        return static_cast<int>(I);
    ADD_FAILURE() << "no kernel named " << Name;
    return 0;
  };
  const auto Csr = static_cast<std::size_t>(FormatKind::CSR);
  const auto Dia = static_cast<std::size_t>(FormatKind::DIA);
  const auto Ell = static_cast<std::size_t>(FormatKind::ELL);
  LearningModel Model = sharedTrainResult().Model;
  Model.Kernels.BestKernel[Csr] = 0;
  Model.Kernels.BestKernelName[Csr] = "csr_unroll4";
  Model.Kernels.BestKernel[Dia] = 3;
  Model.Kernels.BestKernelName[Dia] = "dia_of_another_build";
  Model.Kernels.BestSkewCsrKernel = 0;
  Model.Kernels.BestSkewCsrKernelName = "csr_simd";
  Model.Kernels.BestSpmmKernel[Csr] = 0;
  Model.Kernels.BestSpmmKernelName[Csr] = "csr_spmm_tiled";
  Model.Kernels.BestSpmmKernel[Ell] = 1;
  Model.Kernels.BestSpmmKernelName[Ell] = "ell_spmm_of_another_build";
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Kernels.BestKernel[Csr], Index(K.Csr, "csr_unroll4"));
  EXPECT_EQ(Parsed.Kernels.BestKernel[Dia], 0);
  EXPECT_EQ(Parsed.Kernels.BestKernelName[Dia], "dia_of_another_build");
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernel, Index(K.Csr, "csr_simd"));
  EXPECT_EQ(Parsed.Kernels.BestSpmmKernel[Csr],
            Index(K.CsrSpmm, "csr_spmm_tiled"));
  EXPECT_EQ(Parsed.Kernels.BestSpmmKernel[Ell], 0);

  // The double table answers for both value types: they register the same
  // names in the same order.
  const KernelTable<float> &F = kernelTable<float>();
  auto SameNames = [](const auto &L, const auto &R) {
    if (L.size() != R.size())
      return false;
    for (std::size_t I = 0; I != L.size(); ++I)
      if (std::string(L[I].Name) != R[I].Name)
        return false;
    return true;
  };
  EXPECT_TRUE(SameNames(K.Csr, F.Csr) && SameNames(K.Coo, F.Coo) &&
              SameNames(K.Dia, F.Dia) && SameNames(K.Ell, F.Ell) &&
              SameNames(K.Bsr, F.Bsr) && SameNames(K.CsrSpmm, F.CsrSpmm) &&
              SameNames(K.CooSpmm, F.CooSpmm) &&
              SameNames(K.DiaSpmm, F.DiaSpmm) &&
              SameNames(K.EllSpmm, F.EllSpmm));
}

TEST(LearningModelTest, CommittedModelsNameRegisteredKernels) {
  // Every kernel line of the committed bench_cache models names a kernel
  // this build registers, and the load binds it; only an AVX kernel may be
  // missing, on a build without its instruction set, and that pick binds
  // the basic kernel. A pick of a kernel the library no longer has would
  // silently bind the basic kernel instead.
#if defined(__AVX2__)
  constexpr bool HasAvx2 = true;
#else
  constexpr bool HasAvx2 = false;
#endif
#if defined(__AVX512F__)
  constexpr bool HasAvx512 = true;
#else
  constexpr bool HasAvx512 = false;
#endif
  const KernelTable<double> &K = kernelTable<double>();
  auto IndexNamed = [&K](FormatKind Kind, bool Spmm,
                         const std::string &Name) -> int {
    auto Find = [&Name](const auto &List) {
      for (std::size_t I = 0; I != List.size(); ++I)
        if (Name == List[I].Name)
          return static_cast<int>(I);
      return -1;
    };
    switch (Kind) {
    case FormatKind::CSR:
      return Spmm ? Find(K.CsrSpmm) : Find(K.Csr);
    case FormatKind::COO:
      return Spmm ? Find(K.CooSpmm) : Find(K.Coo);
    case FormatKind::DIA:
      return Spmm ? Find(K.DiaSpmm) : Find(K.Dia);
    case FormatKind::ELL:
      return Spmm ? Find(K.EllSpmm) : Find(K.Ell);
    case FormatKind::BSR:
      return Spmm ? -1 : Find(K.Bsr);
    }
    return -1;
  };
  for (const char *File : {"model_double_small.txt", "model_float_small.txt"}) {
    SCOPED_TRACE(File);
    const std::string Path =
        std::string(SMAT_TEST_BENCH_CACHE_DIR) + "/" + File;
    LearningModel Model;
    std::string Error;
    ASSERT_TRUE(loadModelFile(Path, Model, Error)) << Error;
    const KernelSelection &Sel = Model.Kernels;
    std::ifstream In(Path);
    int Lines = 0;
    for (std::string Line; std::getline(In, Line);) {
      std::vector<std::string> Parts = splitWhitespace(Line);
      FormatKind Kind;
      if (Parts.size() != 3 || !parseFormatName(Parts[1], Kind))
        continue;
      const auto F = static_cast<std::size_t>(Kind);
      int Bound = 0;
      bool Spmm = false;
      if (Parts[0] == "kernel") {
        Bound = Sel.BestKernel[F];
      } else if (Parts[0] == "kernel_skew" && Kind == FormatKind::CSR) {
        Bound = Sel.BestSkewCsrKernel;
      } else if (Parts[0] == "kernel_spmm") {
        Spmm = true;
        Bound = Sel.BestSpmmKernel[F];
      } else {
        continue;
      }
      ++Lines;
      const std::string &Name = Parts[2];
      const int Registered = IndexNamed(Kind, Spmm, Name);
      if (Registered < 0) {
        EXPECT_TRUE((Name == "csr_avx2" && !HasAvx2) ||
                    (Name == "csr_avx512" && !HasAvx512))
            << Line;
        EXPECT_EQ(Bound, 0) << Line;
        continue;
      }
      EXPECT_EQ(Bound, Registered) << Line;
    }
    // Five SpMV picks, the skew pick and four SpMM picks.
    EXPECT_EQ(Lines, NumFormats + 1 + 4);
  }
}

TEST(LearningModelTest, FileRoundTripAndSmatFromFile) {
  const LearningModel &Model = sharedTrainResult().Model;
  std::string Path = testing::TempDir() + "/smat_model_test.txt";
  ASSERT_TRUE(saveModelFile(Path, Model));
  Smat<double> Tuner = Smat<double>::fromFile(Path);
  EXPECT_EQ(Tuner.model().Rules.size(), Model.Rules.size());
}

TEST(LearningModelTest, RefreshRuleMetadataTracksR) {
  LearningModel Model;
  Rule R;
  R.Format = FormatKind::COO;
  R.Conditions.push_back({FeatR, true, 4.0});
  Model.Rules.Rules.push_back(R);
  Model.refreshRuleMetadata();
  EXPECT_TRUE(Model.GroupUsesR[static_cast<int>(FormatKind::COO)]);
  EXPECT_FALSE(Model.GroupUsesR[static_cast<int>(FormatKind::DIA)]);
}

// --- Smat runtime -------------------------------------------------------------------

TEST(SmatRuntimeTest, TunedResultMatchesReference) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  // Structurally diverse inputs; the tuned operator must be numerically
  // right regardless of which format it picks.
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(800, 2));
  Inputs.push_back(powerLawGraph(600, 2.0, 1, 60, 21));
  Inputs.push_back(boundedDegreeRandom(500, 500, 4, 4, 22));
  Inputs.push_back(randomCsr(300, 240, 0.05, 23));

  for (const CsrMatrix<double> &A : Inputs) {
    TunedSpmv<double> Op = Tuner.tune(A);
    EXPECT_EQ(Op.numRows(), A.NumRows);
    EXPECT_EQ(Op.numCols(), A.NumCols);
    auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 31);
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -1.0);
    Op.apply(X.data(), Y.data());
    expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
  }
}

TEST(SmatRuntimeTest, ReportIsPopulated) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = banded(1500, 3);
  TunedSpmv<double> Op = Tuner.tune(A);
  const TuningReport &Report = Op.report();
  EXPECT_DOUBLE_EQ(Report.Features.M, 1500);
  EXPECT_GT(Report.TuneSeconds, 0.0);
  const double Unit = quickSpmvSeconds(A);
  EXPECT_GT(Unit, 0.0) << "Table 3's overhead unit";
  EXPECT_GT(Report.TuneSeconds / Unit, 0.0);
  EXPECT_FALSE(Report.KernelName.empty());
}

TEST(SmatRuntimeTest, UnconfidentTuneBindsTheRaceWinner) {
  const Smat<double> Tuner(neverConfident(sharedTrainResult().Model));
  CsrMatrix<double> A = banded(3000, 2);
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 2e-4;
  TunedSpmv<double> Op = Tuner.tune(A, Opts);
  int Tuned = 0;
  for (const MeasuredCandidate &C : Op.report().MeasuredCandidates)
    Tuned += !C.IsBaseline;
  EXPECT_GE(Tuned, 2) << "a band races CSR and DIA";
  // The chosen format is the best race candidate, unless the never-slower
  // check found basic CSR faster and bound it instead.
  double BestGflops = -1;
  FormatKind BestKind = FormatKind::CSR;
  for (const MeasuredCandidate &C : Op.report().MeasuredCandidates)
    if (!C.IsBaseline && C.Gflops > BestGflops) {
      BestGflops = C.Gflops;
      BestKind = C.Format;
    }
  EXPECT_EQ(Op.format(),
            Op.report().GuardrailEngaged ? FormatKind::CSR : BestKind);
}

TEST(SmatRuntimeTest, MeasureDisabledUsesPredictionAsIs) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = randomCsr(200, 200, 0.02, 33);
  TuneOptions Opts;
  Opts.AllowMeasure = false;
  TunedSpmv<double> Op = Tuner.tune(A, Opts);
  EXPECT_TRUE(Op.report().MeasuredCandidates.empty());
  EXPECT_EQ(Op.format(), Op.report().ChosenFormat);
}

TEST(SmatRuntimeTest, UnifiedInterfaceEntryPoints) {
  const Smat<double> TunerD(sharedTrainResult().Model);
  CsrMatrix<double> Ad = tridiagonal(400);
  TunedSpmv<double> OpD = SMAT_dCSR_SpMV(TunerD, Ad);
  auto Xd = randomVector<double>(400, 41);
  std::vector<double> Yd(400);
  OpD.apply(Xd.data(), Yd.data());
  expectVectorsNear(denseSpmv(Ad, Xd), Yd, 1e-12);

  // Single precision path (trained separately, here reuse double's shape by
  // training a tiny float model).
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  TrainResult FloatResult = trainSmat<float>(Training, fastOptions());
  const Smat<float> TunerS(FloatResult.Model);
  CsrMatrix<float> As = convertValueType<float>(Ad);
  TunedSpmv<float> OpS = SMAT_sCSR_SpMV(TunerS, As);
  auto Xs = randomVector<float>(400, 43);
  std::vector<float> Ys(400);
  OpS.apply(Xs.data(), Ys.data());
  expectVectorsNear(denseSpmv(As, Xs), Ys, 1e-4);
}

TEST(SmatRuntimeTest, BsrExtensionEndToEnd) {
  // Contribution 3 of the paper: new formats can be added to the framework.
  // Train with the BSR extension enabled on a corpus augmented with
  // block-structured matrices and verify the whole pipeline carries it.
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  for (int I = 0; I < 6; ++I)
    Corpus.push_back({formatString("block_%d", I), "structural",
                      blockFem(150 + 30 * I, I % 2 ? 8 : 4, 0.0,
                               static_cast<std::uint64_t>(900 + I))});
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);

  TrainingOptions Opts = fastOptions();
  Opts.EnableBsr = true;
  TrainResult Result = trainSmat<double>(Training, Opts);
  EXPECT_TRUE(Result.Model.BsrEnabled);

  // The database must contain BSR measurements for the block matrices.
  bool SawBsrMeasurement = false;
  for (const FeatureRecord &R : Result.Database.Records)
    SawBsrMeasurement |= R.Gflops[static_cast<int>(FormatKind::BSR)] > 0;
  EXPECT_TRUE(SawBsrMeasurement);

  // Model round-trips with the extension flag.
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Result.Model), Parsed, Error))
      << Error;
  EXPECT_TRUE(Parsed.BsrEnabled);

  // Runtime: a block matrix raced by a never-confident copy of the model
  // must consider BSR, and the tuned operator must be numerically correct
  // either way. The copy's cost model counts no matrix as DIA-bound, so
  // this block diagonal lands in the padded-rows class, whose race holds
  // BSR.
  LearningModel Raced = neverConfident(Result.Model);
  Raced.Cost.DiaFillMin = std::numeric_limits<double>::infinity();
  const Smat<double> Tuner(Raced);
  CsrMatrix<double> A = blockFem(400, 4, 0.0, 999);
  TunedSpmv<double> Op = Tuner.tune(A);
  bool BsrConsidered = false;
  for (const MeasuredCandidate &C : Op.report().MeasuredCandidates)
    BsrConsidered |= C.Format == FormatKind::BSR;
  EXPECT_TRUE(BsrConsidered);

  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 51);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows));
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
}

TEST(SmatRuntimeTest, BsrNeverChosenWhenDisabled) {
  // A 4-format model must never propose or measure BSR, even on a
  // perfectly block-structured input raced in the padded-rows class, whose
  // race would hold BSR (see BsrExtensionEndToEnd).
  LearningModel Raced = neverConfident(sharedTrainResult().Model);
  Raced.Cost.DiaFillMin = std::numeric_limits<double>::infinity();
  const Smat<double> Tuner(Raced);
  ASSERT_FALSE(Tuner.model().BsrEnabled);
  CsrMatrix<double> A = blockFem(300, 4, 0.0, 77);
  TunedSpmv<double> Op = Tuner.tune(A);
  EXPECT_NE(Op.format(), FormatKind::BSR);
  for (const MeasuredCandidate &C : Op.report().MeasuredCandidates)
    EXPECT_NE(C.Format, FormatKind::BSR);
}

TEST(SmatRuntimeTest, DiaPredictionOnPerfectDiagonalMatrix) {
  // A pristine multi-diagonal matrix is DIA's home turf: whatever path the
  // tuner takes (confident rule or measurement), DIA should usually win.
  // We assert the *mechanism*: the decision is either DIA, or measured —
  // by the race, or by the never-slower check binding basic CSR over a
  // confident plan. The Tiny model is trained from 100 us timings, so under
  // parallel load it can come out confident in COO or ELL here.
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = multiDiagonal(20000, {-500, -1, 0, 1, 500});
  TunedSpmv<double> Op = Tuner.tune(A);
  const TuningReport &R = Op.report();
  if (Op.format() != FormatKind::DIA) {
    // Every plan timed: the race's candidates, and both sides of the
    // never-slower check when it ran (its basic side is the IsBaseline
    // entry).
    bool Checked = false;
    std::string Timed;
    for (const MeasuredCandidate &C : R.MeasuredCandidates) {
      Checked = Checked || C.IsBaseline;
      Timed += formatString(" %s%s %s at %.3f GFLOPS;",
                            C.IsBaseline ? "check's basic side " : "",
                            std::string(formatName(C.Format)).c_str(),
                            C.Kernel.c_str(), C.Gflops);
    }
    EXPECT_TRUE(R.MeasureSeconds > 0.0 || R.GuardrailEngaged)
        << "non-DIA choice must come from measurement, not a blind guess: "
        << formatName(Op.format()) << " (" << Op.kernelName()
        << "), predicted " << formatName(R.ModelPrediction)
        << " at confidence " << R.ModelConfidence << ", cost-model class "
        << bottleneckClassName(R.Bottleneck) << ", never-slower check "
        << (Checked ? "ran;" : "did not run;") << Timed;
  }
}

TEST(SmatRuntimeTest, DegenerateInputsSurvive) {
  const Smat<double> Tuner(sharedTrainResult().Model);

  // 1x1 matrix.
  {
    auto A = csrFromTriplets<double>(1, 1, {0}, {0}, {3.0});
    TunedSpmv<double> Op = Tuner.tune(A);
    double X = 2.0, Y = 0.0;
    Op.apply(&X, &Y);
    EXPECT_DOUBLE_EQ(Y, 6.0);
  }
  // All-zero matrix (no entries at all).
  {
    CsrMatrix<double> A(8, 8);
    TunedSpmv<double> Op = Tuner.tune(A);
    std::vector<double> X(8, 1.0), Y(8, -1.0);
    Op.apply(X.data(), Y.data());
    for (double V : Y)
      EXPECT_DOUBLE_EQ(V, 0.0);
  }
  // Single dense row.
  {
    CsrMatrix<double> A = randomCsr(1, 64, 0.8, 71);
    TunedSpmv<double> Op = Tuner.tune(A);
    auto X = randomVector<double>(64, 72);
    std::vector<double> Y(1);
    Op.apply(X.data(), Y.data());
    expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
  }
  // Column vector shape with no entries.
  {
    CsrMatrix<double> A(5, 1);
    TunedSpmv<double> Op = Tuner.tune(A);
    double X = 4.0;
    std::vector<double> Y(5, -1.0);
    Op.apply(&X, Y.data());
    for (double V : Y)
      EXPECT_DOUBLE_EQ(V, 0.0);
  }
}

TEST(SmatRuntimeTest, RectangularMatrixTunes) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = lpRectangular(900, 120, 4, 75);
  TunedSpmv<double> Op = Tuner.tune(A);
  EXPECT_EQ(Op.numRows(), 900);
  EXPECT_EQ(Op.numCols(), 120);
  auto X = randomVector<double>(120, 76);
  std::vector<double> Y(900);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
}

TEST(SmatRuntimeTest, TuneIsDeterministicWithoutMeasurement) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = banded(2000, 5);
  TuneOptions NoMeasure;
  NoMeasure.AllowMeasure = false;
  FormatKind First = Tuner.tune(A, NoMeasure).format();
  for (int Rep = 0; Rep < 3; ++Rep)
    EXPECT_EQ(Tuner.tune(A, NoMeasure).format(), First);
}
