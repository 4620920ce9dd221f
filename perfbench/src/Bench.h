//===- perfbench/src/Bench.h - Benchmark harness building blocks -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the repository benchmark shares: summary
/// statistics that carry their sample counts, an in-memory span tracer, the
/// correctness oracle, the metric sink that becomes the result line, and
/// the seeded input generators. Nothing here reaches into the library's
/// internals: every layer is timed from outside, around its public calls.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_PERFBENCH_BENCH_H
#define SMAT_PERFBENCH_BENCH_H

#include "core/Smat.h"
#include "matrix/CsrMatrix.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using smat::CsrMatrix;
using smat::index_t;

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// A percentile together with the sample set it was taken from. Tail
/// percentiles are only meaningful with at least ten samples beyond them,
/// which Beyond reports.
struct Percentile {
  double Value = 0.0;
  std::size_t Count = 0;
  std::size_t Beyond = 0;
};

/// Linear-interpolation percentile (\p P in [0, 100]) of \p Xs.
Percentile percentile(std::vector<double> Xs, double P);

/// Geometric mean of the strictly positive values of \p Xs and how many
/// values it averaged (non-positive values are skipped and not counted).
struct GeoMean {
  double Value = 0.0;
  std::size_t Count = 0;
};
GeoMean geomean(const std::vector<double> &Xs);

inline double median(const std::vector<double> &Xs) {
  return percentile(Xs, 50.0).Value;
}

//===----------------------------------------------------------------------===//
// Clock and tracing
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One recorded span. Parent is an index into the tracer's span list, -1 for
/// a root; MatrixId ties the spans of one input matrix together.
struct SpanRecord {
  const char *Name;
  std::int64_t StartNs;
  std::int64_t EndNs;
  std::int32_t Parent;
  std::int32_t MatrixId;
};

/// Records spans in memory; writes them out once at the end of the run.
/// Disabled tracers record nothing, so untraced runs pay one branch per
/// call site.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Records a finished span and \returns its index (-1 when disabled).
  int record(const char *Name, std::int64_t StartNs, std::int64_t EndNs,
             int Parent, int MatrixId) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, StartNs, EndNs, Parent, MatrixId});
    return static_cast<int>(Spans.size()) - 1;
  }

  /// Records the stage seconds of a TuningReport as consecutive child spans
  /// of the tune span \p Parent starting at \p StartNs. The report's fields
  /// are wall-clock seconds the library already measures; laying them end to
  /// end is exact for the serial stages of one tune.
  void recordTuneStages(const smat::TuningReport &R, std::int64_t StartNs,
                        int Parent, int MatrixId);

  /// Sum of self times (duration minus the part covered by direct children)
  /// per span name, in nanoseconds, and the number of spans per name.
  struct NameTotals {
    double SelfNs = 0.0;
    std::uint64_t Count = 0;
  };
  std::map<std::string, NameTotals> selfTimes() const;

  std::size_t size() const { return Spans.size(); }

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<SpanRecord> Spans;
};

//===----------------------------------------------------------------------===//
// Correctness oracle
//===----------------------------------------------------------------------===//

/// Relative tolerance of every SpMV/SpMM check: the max-norm of the error
/// over the max-norm of the reference. Kernels reorder the same sums, so
/// results agree to a few ulps times the row length.
inline constexpr double OracleRelTol = 1e-10;
/// Largest true relative residual ||b - A x|| / ||b|| an AMG solve to
/// RelTol 1e-8 may leave, recomputed with basic CSR (slack for rounding).
inline constexpr double ResidualTol = 2e-8;

/// \returns ||Y - Ref||_inf / ||Ref||_inf over \p N values.
double relError(const double *Y, const double *Ref, std::size_t N);

/// Counts attempted and failed operations and remembers the first few
/// failures by name, so a failing run says which operation failed.
class Oracle {
public:
  /// Checks \p Y against \p Ref; records a failure of \p Op when the
  /// relative error exceeds OracleRelTol. \returns true when correct.
  bool check(const char *Op, const double *Y, const double *Ref,
             std::size_t N);
  /// Records one attempted operation that succeeded (\p Ok) or failed.
  void count(const char *Op, bool Ok, const std::string &Detail = "");

  std::uint64_t attempted() const { return Attempted; }
  std::uint64_t failed() const { return Failed; }
  const std::vector<std::string> &failures() const { return Failures; }

private:
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
};

/// y := A x with the fixed-interface reference library (the oracle).
void refSpmv(const CsrMatrix<double> &A, const double *X, double *Y);
/// Y := A X for a row-major block of \p K columns, one reference SpMV per
/// column.
void refSpmm(const CsrMatrix<double> &A, const double *X, double *Y,
             index_t K);

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// Ordered metric sink; becomes the "metrics" object of the result line.
using Metrics = std::map<std::string, Metric>;

/// What one workload run hands back to main().
struct WorkloadResult {
  Metrics EndToEnd;
  Metrics PerLayer;
  /// Workload-specific figures (such as solve_s or first_call_ms_p50) and
  /// tail percentiles, printed in the human-readable report only.
  std::vector<std::pair<std::string, Metric>> Report;
  /// Median achieved bandwidth (computed bytes / measured time) of the
  /// tuned SpMV and k=8 SpMM calls; turned into kernels.*.pct_of_triad once
  /// the triad has run.
  double SpmvGbps = 0.0, Spmm8Gbps = 0.0;
  /// Same-kernel disagreements that persisted after re-measuring. A run
  /// with any is noisy: its result line reads "correct": false.
  std::uint64_t Noisy = 0;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One generated input with the generator family that produced it.
struct NamedMatrix {
  std::string Family;
  CsrMatrix<double> A;
};

/// One tune_cold round: one matrix of every generator family whose label
/// differs, structure drawn from (\p Seed, \p Round). Sizes do not depend
/// on the seed, so runs with different seeds do the same amount of work.
std::vector<NamedMatrix> tuneColdMatrices(std::uint64_t Seed, int Round);

/// The serve_mixed base shapes: smaller matrices of the same families, so a
/// background tune finishes well inside one submit period.
NamedMatrix serveMatrix(std::uint64_t Seed, int Index);

/// Deterministic input vector of length \p N (values in [-1, 1]).
std::vector<double> seededVector(std::size_t N, std::uint64_t Seed);

/// FNV-1a over a matrix's structure (dimensions, RowPtr, ColIdx).
std::uint64_t structureHash(const CsrMatrix<double> &A);

//===----------------------------------------------------------------------===//
// Layer helpers
//===----------------------------------------------------------------------===//

/// Bytes one SpMV (\p K = 1) or SpMM moves for \p A stored in \p Format,
/// computed from the stored array sizes: every stored index and value read
/// once, x read once per column block, y written once. A model, not a
/// measurement; reported as "computed".
double bytesComputed(const CsrMatrix<double> &A, smat::FormatKind Format,
                     const smat::FeatureVector &F, index_t K);

/// Seconds of one standalone conversion of \p A to \p Format through the
/// public csrTo{Coo,Dia,Ell,Bsr} entry points (0 for CSR).
double convertSeconds(const CsrMatrix<double> &A, smat::FormatKind Format);

/// Peak resident set size of this process, in bytes.
double peakRssBytes();

/// Environment record printed with every result.
struct Environment {
  unsigned Nproc = 0;
  int OmpMaxThreads = 0;
  std::vector<std::pair<std::string, std::string>> OmpVars;
  std::string Compiler;
  std::string BuildType;
  std::uint64_t LlcBytes = 0;
  double TriadBytes = 0.0;
  double TriadGbps = 0.0;
  std::string ModelPath;
  std::uint64_t ModelChecksum = 0;
  std::uint64_t Seed = 0;
};

/// Fills the static parts of the record (everything except the triad).
Environment probeEnvironment(const std::string &ModelPath, std::uint64_t Seed);

/// Best-of-5 STREAM triad a = b + s*c over three arrays whose combined size
/// is at least 4x \p LlcBytes; \returns GB/s and writes the bytes used.
double measureTriadGbps(std::uint64_t LlcBytes, double &WorkingSetBytes);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TracePath;
};

/// The workload names, in the order the documentation lists them.
const std::vector<std::string> &workloadNames();

WorkloadResult runTuneCold(const RunConfig &Cfg, const smat::Smat<double> &Tuner,
                           Oracle &Check, Tracer &T);
WorkloadResult runAmgPcg(const RunConfig &Cfg, const smat::Smat<double> &Tuner,
                         Oracle &Check, Tracer &T);
WorkloadResult runServeMixed(const RunConfig &Cfg,
                             const smat::Smat<double> &Tuner, Oracle &Check,
                             Tracer &T);

/// Names every workload's end-to-end and per-layer output must carry.
const std::vector<std::string> &endToEndNames();
const std::vector<std::string> &perLayerNames();

/// Fills the per-layer metrics that come from the trace's self times and
/// from the tracer itself (shared by every workload).
void addTraceMetrics(const Tracer &T, double RunSeconds, Metrics &Out);

} // namespace perfbench

#endif // SMAT_PERFBENCH_BENCH_H
