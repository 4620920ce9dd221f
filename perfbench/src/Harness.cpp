//===- perfbench/src/Harness.cpp - Benchmark harness building blocks ------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "ref/RefSpmv.h"
#include "support/Checksum.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

extern char **environ;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

Percentile percentile(std::vector<double> Xs, double P) {
  Percentile Out;
  Out.Count = Xs.size();
  if (Xs.empty())
    return Out;
  std::sort(Xs.begin(), Xs.end());
  double Pos = std::clamp(P, 0.0, 100.0) / 100.0 *
               static_cast<double>(Xs.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  Out.Value = Xs[Lo] + (Xs[Hi] - Xs[Lo]) * Frac;
  Out.Beyond = static_cast<std::size_t>(
      Xs.end() - std::upper_bound(Xs.begin(), Xs.end(), Out.Value));
  return Out;
}

GeoMean geomean(const std::vector<double> &Xs) {
  GeoMean Out;
  double LogSum = 0.0;
  for (double X : Xs) {
    if (!(X > 0.0))
      continue;
    LogSum += std::log(X);
    ++Out.Count;
  }
  if (Out.Count)
    Out.Value = std::exp(LogSum / static_cast<double>(Out.Count));
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

void Tracer::recordTuneStages(const smat::TuningReport &R,
                              std::int64_t StartNs, int Parent, int MatrixId) {
  if (!Enabled)
    return;
  const std::pair<const char *, double> Stages[] = {
      {"features", R.FeatureSeconds},     {"core.predict", R.PredictSeconds},
      {"core.baseline", R.BaselineSeconds}, {"core.measure", R.MeasureSeconds},
      {"core.bind", R.BindSeconds},       {"core.guardrail", R.GuardrailSeconds}};
  std::int64_t At = StartNs;
  for (const auto &[Name, Seconds] : Stages) {
    // Feature extraction runs on every tune; the other stages only count
    // when they ran.
    if (Seconds <= 0.0 && std::strcmp(Name, "features") != 0)
      continue;
    std::int64_t End = At + static_cast<std::int64_t>(Seconds * 1e9);
    record(Name, At, End, Parent, MatrixId);
    At = End;
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::selfTimes() const {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const SpanRecord &S : Spans) {
    if (S.Parent < 0)
      continue;
    const SpanRecord &P = Spans[static_cast<std::size_t>(S.Parent)];
    std::int64_t Lo = std::max(S.StartNs, P.StartNs);
    std::int64_t Hi = std::min(S.EndNs, P.EndNs);
    if (Hi > Lo)
      Covered[static_cast<std::size_t>(S.Parent)] += static_cast<double>(Hi - Lo);
  }
  std::map<std::string, NameTotals> Out;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    NameTotals &N = Out[Spans[I].Name];
    double Duration = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
    N.SelfNs += std::max(0.0, Duration - Covered[I]);
    ++N.Count;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const SpanRecord &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs - Origin
        << ",\"end_ns\":" << S.EndNs - Origin << ",\"parent\":" << S.Parent
        << ",\"matrix\":" << S.MatrixId << "}\n";
  }
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

double relError(const double *Y, const double *Ref, std::size_t N) {
  double Err = 0.0, Scale = 0.0;
  for (std::size_t I = 0; I != N; ++I) {
    double D = std::fabs(Y[I] - Ref[I]);
    // NaN compares false everywhere; catch it explicitly.
    if (std::isnan(Y[I]))
      return INFINITY;
    Err = std::max(Err, D);
    Scale = std::max(Scale, std::fabs(Ref[I]));
  }
  return Scale > 0.0 ? Err / Scale : Err;
}

bool Oracle::check(const char *Op, const double *Y, const double *Ref,
                   std::size_t N) {
  double Err = relError(Y, Ref, N);
  bool Ok = Err <= OracleRelTol;
  char Detail[96] = "";
  if (!Ok)
    std::snprintf(Detail, sizeof(Detail), "relative error %.3e > %.0e", Err,
                  OracleRelTol);
  count(Op, Ok, Detail);
  return Ok;
}

void Oracle::count(const char *Op, bool Ok, const std::string &Detail) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 16)
    Failures.push_back(std::string(Op) + ": " + Detail);
}

void refSpmv(const CsrMatrix<double> &A, const double *X, double *Y) {
  smat::refCsrSpmv(A, X, Y);
}

void refSpmm(const CsrMatrix<double> &A, const double *X, double *Y,
             index_t K) {
  std::vector<double> Xc(static_cast<std::size_t>(A.NumCols));
  std::vector<double> Yc(static_cast<std::size_t>(A.NumRows));
  for (index_t C = 0; C < K; ++C) {
    for (std::size_t I = 0; I != Xc.size(); ++I)
      Xc[I] = X[I * K + C];
    smat::refCsrSpmv(A, Xc.data(), Yc.data());
    for (std::size_t I = 0; I != Yc.size(); ++I)
      Y[I * K + C] = Yc[I];
  }
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t A, std::uint64_t B) {
  std::uint64_t S = Seed * 0x9e3779b97f4a7c15ULL + A * 0x632be59bd9b4e019ULL +
                    B * 0x85ebca77c2b2ae63ULL;
  return smat::splitMix64(S);
}

/// One matrix of family \p Family at roughly \p Rows rows. Structure comes
/// from \p S, and so do the values of the generators that set them to 1.
NamedMatrix familyMatrix(int Family, index_t Rows, std::uint64_t S) {
  using namespace smat;
  smat::Rng R(S);
  NamedMatrix M;
  switch (Family) {
  case 0: {
    index_t Nx = Rows / 160 + static_cast<index_t>(R.bounded(
                                  static_cast<std::uint64_t>(Rows / 800 + 1)));
    M = {"stencil", laplace2d5pt(Nx, Rows / Nx)};
    randomizeValues(M.A, S);
    break;
  }
  case 1:
    M = {"broken_diagonals",
         brokenDiagonals(Rows, {-Rows / 50, -1, 0, 1, Rows / 50}, 0.97, S)};
    break;
  case 2:
    M = {"fem_blocks", blockFem(Rows / 8, 8, 3.0, S)};
    break;
  case 3:
    M = {"bounded_degree", boundedDegreeRandom(Rows, Rows, 6, 10, S)};
    break;
  case 4:
    M = {"power_law", powerLawGraph(Rows, 1.9, 1, Rows / 20, S)};
    break;
  case 5:
    M = {"circuit", circuitLike(Rows, 8, 0.2, S)};
    break;
  case 6:
    M = {"spiked_rows", spikedRows(Rows, 6, Rows / 50, 0.01, S)};
    break;
  case 7:
    M = {"lp_rectangular", lpRectangular(Rows / 2, Rows, 10, S)};
    break;
  default:
    M = {"amg_transfer", transferOperator(Rows, 3, S)};
    break;
  }
  return M;
}

constexpr int NumFamilies = 9;

} // namespace

std::vector<NamedMatrix> tuneColdMatrices(std::uint64_t Seed, int Round) {
  std::vector<NamedMatrix> Out;
  for (int F = 0; F != NumFamilies; ++F)
    Out.push_back(familyMatrix(F, 20000, mixSeed(Seed, 1000 + Round, F)));
  return Out;
}

NamedMatrix serveMatrix(std::uint64_t Seed, int Index) {
  return familyMatrix(Index % NumFamilies, 8000, mixSeed(Seed, 7, Index));
}

std::vector<double> seededVector(std::size_t N, std::uint64_t Seed) {
  smat::Rng R(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = R.uniform(-1.0, 1.0);
  return V;
}

std::uint64_t structureHash(const CsrMatrix<double> &A) {
  std::uint64_t H = smat::fnv1a64(std::string_view(
      reinterpret_cast<const char *>(&A.NumRows), sizeof(A.NumRows)));
  auto Mix = [&H](const void *P, std::size_t Bytes) {
    H ^= smat::fnv1a64(
        std::string_view(static_cast<const char *>(P), Bytes));
    H *= 1099511628211ull;
  };
  Mix(&A.NumCols, sizeof(A.NumCols));
  Mix(A.RowPtr.data(), A.RowPtr.size() * sizeof(index_t));
  Mix(A.ColIdx.data(), A.ColIdx.size() * sizeof(index_t));
  return H;
}

//===----------------------------------------------------------------------===//
// Layer helpers
//===----------------------------------------------------------------------===//

double bytesComputed(const CsrMatrix<double> &A, smat::FormatKind Format,
                     const smat::FeatureVector &F, index_t K) {
  const double M = A.NumRows, N = A.NumCols, Nnz = static_cast<double>(A.nnz());
  const double Vectors = 8.0 * (M + N) * K;
  const double Csr = 4.0 * (M + 1) + 12.0 * Nnz;
  switch (Format) {
  case smat::FormatKind::CSR:
    return Csr + Vectors;
  case smat::FormatKind::COO:
    return 16.0 * Nnz + Vectors;
  case smat::FormatKind::DIA:
    return 8.0 * F.Ndiags * M + 4.0 * F.Ndiags + Vectors;
  case smat::FormatKind::ELL:
    return 12.0 * F.MaxRd * M + Vectors;
  case smat::FormatKind::BSR: {
    index_t B = smat::chooseBsrBlockSize(A);
    if (B == 0)
      return Csr + Vectors;
    double Blocks = static_cast<double>(smat::countOccupiedBlocks(A, B));
    return 8.0 * Blocks * B * B + 4.0 * Blocks + 4.0 * (M / B + 1) + Vectors;
  }
  }
  return Csr + Vectors;
}

double convertSeconds(const CsrMatrix<double> &A, smat::FormatKind Format) {
  std::int64_t Start = nowNs();
  switch (Format) {
  case smat::FormatKind::CSR:
    return 0.0;
  case smat::FormatKind::COO: {
    smat::CooMatrix<double> B = smat::csrToCoo(A);
    break;
  }
  case smat::FormatKind::DIA: {
    smat::DiaMatrix<double> B;
    smat::csrToDia(A, B);
    break;
  }
  case smat::FormatKind::ELL: {
    smat::EllMatrix<double> B;
    smat::csrToEll(A, B);
    break;
  }
  case smat::FormatKind::BSR: {
    smat::BsrMatrix<double> B;
    if (index_t Size = smat::chooseBsrBlockSize(A))
      smat::csrToBsr(A, B, Size);
    break;
  }
  }
  return static_cast<double>(nowNs() - Start) * 1e-9;
}

double peakRssBytes() {
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) * 1024.0;
}

Environment probeEnvironment(const std::string &ModelPath, std::uint64_t Seed) {
  Environment E;
  E.Nproc = std::thread::hardware_concurrency();
#ifdef _OPENMP
  E.OmpMaxThreads = omp_get_max_threads();
#endif
  for (char **Var = environ; Var && *Var; ++Var) {
    std::string Entry(*Var);
    if (Entry.rfind("OMP_", 0) != 0 && Entry.rfind("GOMP_", 0) != 0)
      continue;
    std::size_t Eq = Entry.find('=');
    E.OmpVars.emplace_back(Entry.substr(0, Eq),
                           Eq == std::string::npos ? "" : Entry.substr(Eq + 1));
  }
  std::sort(E.OmpVars.begin(), E.OmpVars.end());
#if defined(__clang__)
  E.Compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  E.Compiler = std::string("gcc ") + __VERSION__;
#else
  E.Compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  E.BuildType = PERFBENCH_BUILD_TYPE;
#endif
  // 32 MiB stands in when the C library cannot report the LLC.
  long Llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  E.LlcBytes = Llc > 0 ? static_cast<std::uint64_t>(Llc) : (32u << 20);
  E.ModelPath = ModelPath;
  std::ifstream Model(ModelPath, std::ios::binary);
  std::stringstream Bytes;
  Bytes << Model.rdbuf();
  E.ModelChecksum = smat::fnv1a64(Bytes.str());
  E.Seed = Seed;
  return E;
}

double measureTriadGbps(std::uint64_t LlcBytes, double &WorkingSetBytes) {
  // Three arrays whose combined size is at least 4x the LLC, so the triad
  // streams from memory rather than from cache.
  std::size_t N = static_cast<std::size_t>(4 * LlcBytes / 3 / sizeof(double)) + 1;
  std::unique_ptr<double[]> A(new double[N]), B(new double[N]), C(new double[N]);
  const std::int64_t Len = static_cast<std::int64_t>(N);
#pragma omp parallel for schedule(static)
  for (std::int64_t I = 0; I < Len; ++I) {
    A[I] = 0.0;
    B[I] = 1.0;
    C[I] = 2.0;
  }
  double Best = 1e30;
  for (int Pass = 0; Pass != 5; ++Pass) {
    std::int64_t Start = nowNs();
#pragma omp parallel for schedule(static)
    for (std::int64_t I = 0; I < Len; ++I)
      A[I] = B[I] + 3.0 * C[I];
    Best = std::min(Best, static_cast<double>(nowNs() - Start) * 1e-9);
  }
  WorkingSetBytes = 3.0 * static_cast<double>(N) * sizeof(double);
  // Keep the result observable so the passes cannot be elided.
  if (A[N / 2] != 7.0)
    std::fprintf(stderr, "perfbench: triad produced a wrong value\n");
  return WorkingSetBytes / Best * 1e-9;
}

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"tune_cold", "amg_pcg",
                                                 "serve_mixed"};
  return Names;
}

const std::vector<std::string> &endToEndNames() {
  static const std::vector<std::string> Names = {
      "setup_s", "spmv_gflops", "latency_ms_p50", "peak_rss_mb"};
  return Names;
}

namespace {

/// Span names whose summed self time becomes a per-layer "<metric>" in ms.
const std::pair<const char *, const char *> SelfTimeMetrics[] = {
    {"features", "features.self_ms"},
    {"features.standalone", "features.standalone_ms"},
    {"core.tune", "core.tune.self_ms"},
    {"core.predict", "core.predict.self_ms"},
    {"core.baseline", "core.baseline.self_ms"},
    {"core.measure", "core.measure.self_ms"},
    {"core.bind", "core.bind.self_ms"},
    {"matrix.convert", "matrix.convert_ms"},
    {"core.guardrail", "core.guardrail.self_ms"},
    {"kernels.spmv", "kernels.spmv.self_ms"},
    {"kernels.spmm8", "kernels.spmm8.self_ms"},
};

} // namespace

const std::vector<std::string> &perLayerNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const auto &[Span, Metric] : SelfTimeMetrics)
      N.push_back(Metric);
    for (const char *Name :
         {"features.calls", "core.tune.calls", "core.predict.confident_frac",
          "core.measure.candidates", "core.measure.noisy",
          "core.guardrail.engaged", "core.guardrail.verify_skipped",
          "core.degraded", "core.dropped_candidates", "core.plancache.hits",
          "core.plancache.misses", "core.plancache.hit_ratio",
          "core.plancache.singleflight_waits", "core.plancache.evictions",
          "core.service.queue_wait_ms_p50", "core.service.tune_ms_p50",
          "core.service.tuned", "core.service.failed",
          "core.service.bootstrap_calls", "core.service.tuned_calls",
          "kernels.basic.gflops", "kernels.spmv.bytes_computed",
          "kernels.spmv.pct_of_triad", "kernels.spmm8.bytes_computed",
          "kernels.spmm8.pct_of_triad", "ref.csr.gflops", "amg.hierarchy_ms",
          "amg.tune_ms", "amg.iterations", "amg.levels",
          "amg.operator_complexity", "amg.fixed_csr_solve_s",
          "amg.fine_A.apply_us", "amg.coarse.apply_us",
          "bench.generator_late_ms_p99", "bench.working_set_bytes",
          "bench.tracing_overhead_frac", "bench.spans", "bench.triad_gbps",
          "bench.triad_bytes", "bench.llc_bytes", "bench.same_kernel_noisy"})
      N.push_back(Name);
    return N;
  }();
  return Names;
}

void addTraceMetrics(const Tracer &T, double RunSeconds, Metrics &Out) {
  std::map<std::string, Tracer::NameTotals> Self = T.selfTimes();
  for (const auto &[Span, Metric] : SelfTimeMetrics) {
    auto It = Self.find(Span);
    Out[Metric] = {It == Self.end() ? 0.0 : It->second.SelfNs * 1e-6, "ms"};
  }
  auto CountOf = [&Self](const char *Span) {
    auto It = Self.find(Span);
    return It == Self.end() ? 0.0 : static_cast<double>(It->second.Count);
  };
  Out["features.calls"] = {CountOf("features"), "count"};
  Out["core.tune.calls"] = {CountOf("core.tune"), "count"};
  Out["bench.spans"] = {static_cast<double>(T.size()), "count"};

  // Tracing overhead: the cost of recording one span, measured here on a
  // scratch tracer, times the spans this run recorded, over the run time.
  Tracer Probe(true);
  const int Reps = 100000;
  std::int64_t Start = nowNs();
  for (int I = 0; I != Reps; ++I)
    Probe.record("probe", nowNs(), nowNs(), -1, I);
  double PerSpan = static_cast<double>(nowNs() - Start) * 1e-9 / Reps;
  Out["bench.tracing_overhead_frac"] = {
      RunSeconds > 0 ? PerSpan * static_cast<double>(T.size()) / RunSeconds
                     : 0.0,
      "ratio"};
}

} // namespace perfbench
