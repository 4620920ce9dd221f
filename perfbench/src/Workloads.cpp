//===- perfbench/src/Workloads.cpp - The three benchmark workloads --------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// tune_cold    closed loop: a seeded cycle of distinct matrices, each tuned
//              once at k=1 and once at k=8 by a blocking Smat::tune, then
//              timed steady-state interleaved with basic CSR and the
//              reference library. No plan cache.
// amg_pcg      paper Table 4: AMG-preconditioned CG on the 7-point 50^3
//              Laplacian (CLJP) and the 9-point 500^2 Laplacian (Ruge-Stueben)
//              with the Smat backend and a shared plan cache, against the
//              FixedCsr backend in the same run.
// serve_mixed  open loop against one TuningService: submissions at a fixed
//              rate (half of them repeat an earlier structure with new
//              values) and SpMV calls on the live handles at a fixed rate,
//              each call timed from its due time.
//
// Every workload repeats whole rounds until the run's seconds are spent and
// reports medians over rounds. A round's inputs depend only on the seed and
// on the round's place in a fixed cycle, so a faster build runs more rounds
// of the same inputs, not different inputs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "amg/AmgSolver.h"
#include "core/TuningService.h"
#include "features/FeatureExtractor.h"
#include "kernels/KernelRegistry.h"
#include "matrix/Generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>

namespace perfbench {

using smat::TuningReport;

namespace {

/// Relative disagreement above which two timings of the same kernel on the
/// same matrix mark the run as noisy (stricter than the spmv_gflops bound).
constexpr double SameKernelBound = 0.10;
/// How often a disagreeing same-kernel pair is measured again before the
/// disagreement counts.
constexpr int SameKernelRemeasures = 3;

/// The unit of a per-layer metric, from its name's suffix.
std::string unitOf(const std::string &Name) {
  auto Ends = [&Name](const char *Suffix) {
    std::string S(Suffix);
    return Name.size() >= S.size() &&
           Name.compare(Name.size() - S.size(), S.size(), S) == 0;
  };
  if (Ends("_ms") || Ends("_ms_p50") || Ends("_ms_p99"))
    return "ms";
  if (Ends("_us"))
    return "us";
  if (Ends("_s"))
    return "s";
  if (Ends("gflops"))
    return "GFLOPS";
  if (Ends("gbps"))
    return "GB/s";
  if (Ends("pct_of_triad"))
    return "%";
  if (Ends("bytes") || Ends("bytes_computed"))
    return "bytes";
  if (Ends("_frac") || Ends("hit_ratio") || Ends("operator_complexity"))
    return "ratio";
  return "count";
}

/// Every per-layer metric at zero: a layer a workload does not exercise
/// reads 0.
Metrics zeroPerLayer() {
  Metrics Out;
  for (const std::string &Name : perLayerNames())
    Out[Name] = {0.0, unitOf(Name)};
  return Out;
}

void set(Metrics &Out, const std::string &Name, double Value) {
  Out[Name] = {Value, unitOf(Name)};
}

/// Counters drawn from the TuningReports of every tune a workload ran.
struct TuneTally {
  std::uint64_t Predicted = 0, Confident = 0, Candidates = 0,
                Noisy = 0, Engaged = 0, VerifySkipped = 0, Degraded = 0,
                Dropped = 0, CacheHits = 0;

  void add(const TuningReport &R) {
    CacheHits += R.PlanCacheHit;
    if (!R.PlanCacheHit) {
      ++Predicted;
      Confident += R.ModelConfident;
      // A confident prediction with nothing raced or verified: the
      // post-bind guardrail check was skipped.
      VerifySkipped += R.ModelConfident && R.MeasuredCandidates.empty();
    }
    Candidates += R.MeasuredCandidates.size();
    Noisy += R.NoisyTimings;
    Engaged += R.GuardrailEngaged;
    Degraded += R.Degradation != smat::DegradationLevel::None;
    Dropped += static_cast<std::uint64_t>(R.DroppedCandidates);
  }

  void emit(Metrics &Out) const {
    set(Out, "core.predict.confident_frac",
        Predicted ? static_cast<double>(Confident) / Predicted : 0.0);
    set(Out, "core.measure.candidates", static_cast<double>(Candidates));
    set(Out, "core.measure.noisy", static_cast<double>(Noisy));
    set(Out, "core.guardrail.engaged", static_cast<double>(Engaged));
    set(Out, "core.guardrail.verify_skipped", static_cast<double>(VerifySkipped));
    set(Out, "core.degraded", static_cast<double>(Degraded));
    set(Out, "core.dropped_candidates", static_cast<double>(Dropped));
  }
};

void emitPlanCache(const smat::PlanCacheStats &S, Metrics &Out) {
  set(Out, "core.plancache.hits", static_cast<double>(S.Hits));
  set(Out, "core.plancache.misses", static_cast<double>(S.Misses));
  set(Out, "core.plancache.hit_ratio",
      S.Hits + S.Misses ? static_cast<double>(S.Hits) / (S.Hits + S.Misses)
                        : 0.0);
  set(Out, "core.plancache.singleflight_waits",
      static_cast<double>(S.SingleflightWaits));
  set(Out, "core.plancache.evictions", static_cast<double>(S.Evictions));
}

void addStats(smat::PlanCacheStats &Sum, const smat::PlanCacheStats &S) {
  Sum.Hits += S.Hits;
  Sum.Misses += S.Misses;
  Sum.SingleflightWaits += S.SingleflightWaits;
  Sum.Evictions += S.Evictions;
}

/// Runs \p Fn once, records it as span \p Name, \returns its seconds.
template <typename Fn>
double timedCall(Tracer &T, const char *Name, int Parent, int Id, Fn &&F) {
  std::int64_t Start = nowNs();
  F();
  std::int64_t End = nowNs();
  T.record(Name, Start, End, Parent, Id);
  return static_cast<double>(End - Start) * 1e-9;
}

/// A blocking tune timed from outside, with its report's stage seconds
/// recorded as child spans. \returns false (and counts the failure) when
/// the tune throws.
bool timedTune(Tracer &T, Oracle &Check, int Id, const char *What,
               smat::TunedSpmv<double> &Out, double &Seconds,
               const std::function<smat::TunedSpmv<double>()> &Tune) {
  std::int64_t Start = nowNs();
  try {
    Out = Tune();
  } catch (const std::exception &E) {
    Check.count(What, false, E.what());
    return false;
  }
  std::int64_t End = nowNs();
  Check.count(What, true);
  int Span = T.record("core.tune", Start, End, -1, Id);
  T.recordTuneStages(Out.report(), Start, Span, Id);
  Seconds = static_cast<double>(End - Start) * 1e-9;
  return true;
}

double gflops(double Flops, double Seconds) {
  return Seconds > 0 ? Flops / Seconds * 1e-9 : 0.0;
}

std::uint64_t mix(std::uint64_t Seed, std::uint64_t Salt) {
  return Seed * 0x9e3779b97f4a7c15ULL ^ (Salt + 0x2545f4914f6cdd1dULL);
}

/// Standalone timings of the features and matrix layers on \p A (the same
/// public entry points the pipeline calls), recorded as spans.
void standaloneLayers(Tracer &T, int Id, const CsrMatrix<double> &A,
                      smat::FormatKind Bound) {
  timedCall(T, "features.standalone", -1, Id, [&] {
    smat::FeatureVector F = smat::extractStructureFeatures(A);
    smat::extractPowerLawFeature(A, F);
  });
  timedCall(T, "matrix.convert", -1, Id,
            [&] { convertSeconds(A, Bound); });
}

} // namespace

//===----------------------------------------------------------------------===//
// tune_cold
//===----------------------------------------------------------------------===//

WorkloadResult runTuneCold(const RunConfig &Cfg,
                           const smat::Smat<double> &Tuner, Oracle &Check,
                           Tracer &T) {
  constexpr int SpmvPairs = 40, SpmmPairs = 12;
  // The run cycles through InputRounds seeded rounds of matrices and stops
  // only at the end of a cycle, so every run takes its medians over the same
  // matrices, each the same number of times.
  constexpr int InputRounds = 6;
  constexpr index_t K = 8;
  const auto &Basic = smat::basicCsrKernel<double>();
  const auto &Basic8 = smat::basicCsrSpmmKernel<double>();

  std::vector<double> RoundSetup, TuneMs, CallMs, Spmv, Spmm8, BasicG, RefG,
      SpmvGbps, Spmm8Gbps, SpmvBytes, Spmm8Bytes, CallMedMs;
  double WorkingSet = 0.0;
  int Violations = 0, Noisy = 0, Id = 0;
  std::uint64_t Calls = 0;
  TuneTally Tally;

  std::int64_t RunStart = nowNs();
  auto Elapsed = [&] { return static_cast<double>(nowNs() - RunStart) * 1e-9; };
  for (int Round = 0; Round % InputRounds != 0 || Elapsed() < Cfg.Seconds;
       ++Round) {
    double RoundTune = 0.0;
    std::vector<NamedMatrix> Inputs =
        tuneColdMatrices(Cfg.Seed, Round % InputRounds);
    for (std::size_t F = 0; F != Inputs.size(); ++F) {
      const NamedMatrix &NM = Inputs[F];
      const CsrMatrix<double> &A = NM.A;
      const int MatrixId = Id++;
      const std::uint64_t InputId =
          (Round % InputRounds) * Inputs.size() + F;
      const std::size_t M = A.NumRows, N = A.NumCols;
      const double Flops = 2.0 * static_cast<double>(A.nnz());
      std::vector<double> X = seededVector(N, mix(Cfg.Seed, InputId));
      std::vector<double> X8 = seededVector(N * K, mix(Cfg.Seed, ~InputId));
      std::vector<double> Ref(M), Y(M), Ref8(M * K), Y8(M * K);
      refSpmv(A, X.data(), Ref.data());
      refSpmm(A, X8.data(), Ref8.data(), K);
      WorkingSet = std::max(
          WorkingSet, bytesComputed(A, smat::FormatKind::CSR, {}, K));

      smat::TunedSpmv<double> Op1, Op8;
      double S1 = 0, S8 = 0;
      std::string What1 = "tune k=1 " + NM.Family, What8 = "tune k=8 " + NM.Family;
      if (!timedTune(T, Check, MatrixId, What1.c_str(), Op1, S1,
                     [&] { return Tuner.tune(A); }) ||
          !timedTune(T, Check, MatrixId, What8.c_str(), Op8, S8,
                     [&] { return smat::SMAT_dCSR_SpMM(Tuner, A, K); }))
        continue;
      RoundTune += S1 + S8;
      TuneMs.push_back(S1 * 1e3);
      TuneMs.push_back(S8 * 1e3);
      Tally.add(Op1.report());
      Tally.add(Op8.report());

      // Steady state: one warm-up call per role, then interleaved timed
      // calls, every result checked against the reference.
      auto TimeSpmv = [&](std::vector<double> &TT, std::vector<double> &TB,
                          std::vector<double> &TR) {
        Op1.apply(X.data(), Y.data());
        Basic.Fn(A, X.data(), Y.data());
        for (int P = 0; P != SpmvPairs; ++P) {
          TT.push_back(timedCall(T, "kernels.spmv", -1, MatrixId,
                                 [&] { Op1.apply(X.data(), Y.data()); }));
          Check.check("tuned apply", Y.data(), Ref.data(), M);
          TB.push_back(timedCall(T, "kernels.basic", -1, MatrixId,
                                 [&] { Basic.Fn(A, X.data(), Y.data()); }));
          Check.check("basic csr spmv", Y.data(), Ref.data(), M);
          TR.push_back(timedCall(T, "ref.csr", -1, MatrixId,
                                 [&] { refSpmv(A, X.data(), Y.data()); }));
        }
        Calls += 3 * SpmvPairs;
      };
      auto TimeSpmm = [&](std::vector<double> &TT, std::vector<double> &TB) {
        Op8.multiply(X8.data(), Y8.data(), K);
        Basic8.Fn(A, X8.data(), Y8.data(), K);
        for (int P = 0; P != SpmmPairs; ++P) {
          TT.push_back(timedCall(T, "kernels.spmm8", -1, MatrixId, [&] {
            Op8.multiply(X8.data(), Y8.data(), K);
          }));
          Check.check("tuned multiply k=8", Y8.data(), Ref8.data(), M * K);
          TB.push_back(timedCall(T, "kernels.basic8", -1, MatrixId, [&] {
            Basic8.Fn(A, X8.data(), Y8.data(), K);
          }));
          Check.check("basic csr spmm k=8", Y8.data(), Ref8.data(), M * K);
        }
        Calls += 2 * SpmmPairs;
      };

      // Same-kernel consistency: when the tuned plan runs the basic kernel,
      // its two readings must agree. A disagreement is measured again; one
      // that persists marks the run as noisy.
      auto Agree = [](bool Same, const std::vector<double> &TunedTimes,
                      const std::vector<double> &BasicTimes) {
        return !Same || std::fabs(median(BasicTimes) / median(TunedTimes) -
                                  1.0) <= SameKernelBound;
      };
      auto Disagreement = [&](const char *Kernel, double GT, double GB) {
        ++Noisy;
        std::printf("noisy: %s read %.3f (tuned) vs %.3f (basic) GFLOPS on %s "
                    "after %d re-measures\n",
                    Kernel, GT, GB, NM.Family.c_str(), SameKernelRemeasures);
      };
      const bool Same1 = Op1.kernelName() == Basic.Name;
      std::vector<double> TT, TB, TR;
      for (int Try = 0;
           Try == 0 || (Try <= SameKernelRemeasures && !Agree(Same1, TT, TB));
           ++Try) {
        TT.clear(), TB.clear(), TR.clear();
        TimeSpmv(TT, TB, TR);
      }
      double G1 = gflops(Flops, median(TT)), GB = gflops(Flops, median(TB));
      if (!Agree(Same1, TT, TB))
        Disagreement(Basic.Name, G1, GB);
      const bool Same8 = std::string(Op8.spmmKernelName()) == Basic8.Name;
      std::vector<double> TT8, TB8;
      for (int Try = 0;
           Try == 0 || (Try <= SameKernelRemeasures && !Agree(Same8, TT8, TB8));
           ++Try) {
        TT8.clear(), TB8.clear();
        TimeSpmm(TT8, TB8);
      }
      double G8 = gflops(Flops * K, median(TT8));
      double GB8 = gflops(Flops * K, median(TB8));
      if (!Agree(Same8, TT8, TB8))
        Disagreement(Basic8.Name, G8, GB8);

      // Never-slower: tuned below basic by more than the guardrail's floor.
      Violations += G1 < GB * (1.0 - smat::GuardrailNoiseFloor);
      Violations += G8 < GB8 * (1.0 - smat::GuardrailNoiseFloor);

      for (double Sec : TT)
        CallMs.push_back(Sec * 1e3);
      CallMedMs.push_back(median(TT) * 1e3);
      Spmv.push_back(G1);
      Spmm8.push_back(G8);
      BasicG.push_back(GB);
      RefG.push_back(gflops(Flops, median(TR)));
      double B1 = bytesComputed(A, Op1.format(), Op1.report().Features, 1);
      double B8 = bytesComputed(A, Op8.format(), Op8.report().Features, K);
      SpmvBytes.push_back(B1);
      Spmm8Bytes.push_back(B8);
      SpmvGbps.push_back(B1 / median(TT) * 1e-9);
      Spmm8Gbps.push_back(B8 / median(TT8) * 1e-9);
      standaloneLayers(T, MatrixId, A, Op1.format());
    }
    RoundSetup.push_back(RoundTune);
  }

  WorkloadResult R;
  Percentile Tune90 = percentile(TuneMs, 90), Call90 = percentile(CallMs, 90);
  R.EndToEnd["setup_s"] = {median(RoundSetup), "s"};
  R.EndToEnd["spmv_gflops"] = {geomean(Spmv).Value, "GFLOPS"};
  // The median call per matrix, then the geomean over matrices: a median
  // over the pooled calls would fall between two families' call times and
  // jump with the mix.
  R.EndToEnd["latency_ms_p50"] = {geomean(CallMedMs).Value, "ms"};
  R.Report = {
      {"setup_s", {median(RoundSetup), "s"}},
      {"setup_rounds", {static_cast<double>(RoundSetup.size()), "count"}},
      {"tune_ms_p50", {median(TuneMs), "ms"}},
      {"tune_ms_p90", {Tune90.Value, "ms"}},
      {"tunes", {static_cast<double>(Tune90.Count), "count"}},
      {"tune_ms_p90_beyond", {static_cast<double>(Tune90.Beyond), "count"}},
      {"call_ms_p50", {median(CallMs), "ms"}},
      {"call_ms_p90", {Call90.Value, "ms"}},
      {"call_ms_p90_beyond", {static_cast<double>(Call90.Beyond), "count"}},
      {"calls", {static_cast<double>(Calls), "count"}},
      {"spmv_gflops", {geomean(Spmv).Value, "GFLOPS"}},
      {"spmm8_gflops", {geomean(Spmm8).Value, "GFLOPS"}},
      {"never_slower_violations", {static_cast<double>(Violations), "count"}},
  };
  R.PerLayer = zeroPerLayer();
  Tally.emit(R.PerLayer);
  // No plan cache in this workload: hits can only come from a report
  // claiming one, which would be a bug.
  set(R.PerLayer, "core.plancache.hits", static_cast<double>(Tally.CacheHits));
  set(R.PerLayer, "kernels.basic.gflops", geomean(BasicG).Value);
  set(R.PerLayer, "ref.csr.gflops", geomean(RefG).Value);
  set(R.PerLayer, "kernels.spmv.bytes_computed", median(SpmvBytes));
  set(R.PerLayer, "kernels.spmm8.bytes_computed", median(Spmm8Bytes));
  set(R.PerLayer, "bench.working_set_bytes", WorkingSet);
  R.Noisy = static_cast<std::uint64_t>(Noisy);
  R.SpmvGbps = median(SpmvGbps);
  R.Spmm8Gbps = median(Spmm8Gbps);
  return R;
}

//===----------------------------------------------------------------------===//
// amg_pcg
//===----------------------------------------------------------------------===//

namespace {

struct AmgCase {
  const char *Name;
  smat::CoarsenKind Coarsening;
  CsrMatrix<double> A;
  std::vector<double> B;
};

/// Solves with PCG and checks the result: converged, and the true residual
/// recomputed with the basic CSR kernel within ResidualTol.
double checkedSolve(Tracer &T, Oracle &Check, const char *Span, int Id,
                    const smat::AmgSolver &S, const AmgCase &C,
                    int &Iterations) {
  std::vector<double> X;
  smat::SolveStats St;
  double Seconds =
      timedCall(T, Span, -1, Id, [&] { St = S.solvePcg(C.B, X); });
  std::vector<double> Ax(C.B.size());
  smat::basicCsrKernel<double>().Fn(C.A, X.data(), Ax.data());
  double RNorm = 0.0, BNorm = 0.0;
  for (std::size_t I = 0; I != Ax.size(); ++I) {
    RNorm += (C.B[I] - Ax[I]) * (C.B[I] - Ax[I]);
    BNorm += C.B[I] * C.B[I];
  }
  double Rel = std::sqrt(RNorm / BNorm);
  char Detail[128];
  std::snprintf(Detail, sizeof(Detail),
                "%s converged=%d iterations=%d residual %.3e", C.Name,
                St.Converged, St.Iterations, Rel);
  Check.count(Span, St.Converged && Rel <= ResidualTol, Detail);
  Iterations = St.Iterations;
  return Seconds;
}

/// Median seconds of \p Reps checked applies of \p Op.
double timedApplies(Tracer &T, Oracle &Check, int Id, const char *What,
                    const smat::TunedSpmv<double> &Op,
                    const CsrMatrix<double> &A, int Reps) {
  std::vector<double> X = seededVector(A.NumCols, A.nnz());
  std::vector<double> Ref(A.NumRows), Y(A.NumRows), Times;
  refSpmv(A, X.data(), Ref.data());
  Op.apply(X.data(), Y.data());
  for (int I = 0; I != Reps; ++I) {
    Times.push_back(timedCall(T, "kernels.spmv", -1, Id,
                              [&] { Op.apply(X.data(), Y.data()); }));
    Check.check(What, Y.data(), Ref.data(), Y.size());
  }
  return median(Times);
}

} // namespace

WorkloadResult runAmgPcg(const RunConfig &Cfg, const smat::Smat<double> &Tuner,
                         Oracle &Check, Tracer &T) {
  constexpr int TimedSolves = 3, SetupReps = 2, ApplyReps = 30;
  std::vector<AmgCase> Cases;
  Cases.push_back({"cljp_7pt", smat::CoarsenKind::Cljp,
                   smat::laplace3d7pt(50, 50, 50), {}});
  Cases.push_back({"rugeL_9pt", smat::CoarsenKind::RugeL,
                   smat::laplace2d9pt(500, 500), {}});
  for (std::size_t I = 0; I != Cases.size(); ++I)
    Cases[I].B = seededVector(Cases[I].A.NumRows, mix(Cfg.Seed, I));

  smat::AmgOptions Base;
  Base.RelTol = 1e-8;
  Base.MaxIterations = 100;
  Base.PreSweeps = 2;
  Base.PostSweeps = 2;

  std::vector<double> Setup, Hier, TuneMs, Solve, FixedSolve, FineUs, CoarseUs,
      FineGflops, RefG, SpmvGbps, SpmvBytes;
  std::vector<int> Iters(Cases.size(), -1);
  int Levels = 0;
  double Complexity = 0.0, WorkingSet = 0.0;
  smat::PlanCacheStats CacheSum;
  TuneTally Tally;
  std::uint64_t Calls = 0;

  // One untimed Smat setup per input first, with a cache of its own: it pays
  // the process's first-use costs, which are not the solver's set-up.
  for (const AmgCase &C : Cases) {
    smat::PlanCache Scratch;
    smat::AmgOptions Opts = Base;
    Opts.Hierarchy.Coarsening = C.Coarsening;
    Opts.Backend = smat::SpmvBackendKind::Smat;
    Opts.Tuner = &Tuner;
    Opts.Cache = &Scratch;
    smat::AmgSolver Warm;
    timedCall(T, "amg.setup.warmup", -1, -1, [&] { Warm.setup(C.A, Opts); });
  }

  std::int64_t RunStart = nowNs();
  auto Elapsed = [&] { return static_cast<double>(nowNs() - RunStart) * 1e-9; };
  for (int Round = 0; Round < 2 || Elapsed() < Cfg.Seconds; ++Round) {
    // FixedCsr setups (the hierarchy build alone), then SetupReps Smat
    // setups of both inputs, each pair with a fresh plan cache shared by
    // both inputs: every sample starts cold. The last pair's solvers and
    // cache serve the rest of the round, including the per-level re-tunes.
    std::vector<smat::AmgSolver> Fixed(Cases.size()), Tuned(Cases.size());
    std::unique_ptr<smat::PlanCache> Cache;
    double RoundHier = 0, RoundFixed = 0, RoundFine = 0, RoundCoarse = 0;
    for (std::size_t CI = 0; CI != Cases.size(); ++CI) {
      smat::AmgOptions Opts = Base;
      Opts.Hierarchy.Coarsening = Cases[CI].Coarsening;
      Opts.Backend = smat::SpmvBackendKind::FixedCsr;
      RoundHier += timedCall(T, "amg.setup.fixed", -1, static_cast<int>(CI),
                             [&] { Fixed[CI].setup(Cases[CI].A, Opts); });
    }
    for (int Rep = 0; Rep != SetupReps; ++Rep) {
      if (Cache)
        addStats(CacheSum, Cache->stats());
      Cache = std::make_unique<smat::PlanCache>();
      double RepSetup = 0;
      for (std::size_t CI = 0; CI != Cases.size(); ++CI) {
        smat::AmgOptions Opts = Base;
        Opts.Hierarchy.Coarsening = Cases[CI].Coarsening;
        Opts.Backend = smat::SpmvBackendKind::Smat;
        Opts.Tuner = &Tuner;
        Opts.Cache = Cache.get();
        Tuned[CI] = smat::AmgSolver();
        RepSetup += timedCall(T, "amg.setup", -1, static_cast<int>(CI),
                              [&] { Tuned[CI].setup(Cases[CI].A, Opts); });
      }
      Setup.push_back(RepSetup);
      TuneMs.push_back((RepSetup - RoundHier) * 1e3);
    }

    std::vector<double> RoundSolve(TimedSolves, 0.0);
    for (std::size_t CI = 0; CI != Cases.size(); ++CI) {
      const AmgCase &C = Cases[CI];
      const int Id = static_cast<int>(CI);

      // No warm-up solve: setup has written every level operator, and a
      // first solve read no slower than later ones. The one-time process
      // costs went into the untimed setups above.
      int It = 0, FixedIt = 0;
      for (int S = 0; S != TimedSolves; ++S)
        RoundSolve[S] +=
            checkedSolve(T, Check, "amg.solve", Id, Tuned[CI], C, It);
      RoundFixed +=
          checkedSolve(T, Check, "amg.solve.fixed", Id, Fixed[CI], C, FixedIt);
      if (Iters[CI] >= 0 && Iters[CI] != It)
        Check.count("amg.iterations repeat", false,
                    std::string(C.Name) + " iteration count changed");
      Iters[CI] = It;

      // Each level operator re-tuned through the solver's plan cache (same
      // plan), then applied from outside.
      const smat::AmgHierarchy &H = Tuned[CI].hierarchy();
      for (std::size_t L = 0; L != H.numLevels(); ++L) {
        const CsrMatrix<double> &A = H.level(L).A;
        smat::TuneOptions TO;
        TO.Cache = Cache.get();
        smat::TunedSpmv<double> Op;
        double Unused = 0;
        if (!timedTune(T, Check, Id, "amg level re-tune", Op, Unused,
                       [&] { return Tuner.tune(A, TO); }))
          continue;
        Tally.add(Op.report());
        double Sec = timedApplies(T, Check, Id, "amg level apply", Op, A,
                                  ApplyReps);
        Calls += ApplyReps + 1;
        if (L == 0) {
          RoundFine += Sec;
          double Flops = 2.0 * static_cast<double>(A.nnz());
          FineGflops.push_back(gflops(Flops, Sec));
          double Bytes = bytesComputed(A, Op.format(), Op.report().Features, 1);
          SpmvBytes.push_back(Bytes);
          SpmvGbps.push_back(Bytes / Sec * 1e-9);
          WorkingSet = std::max(
              WorkingSet, bytesComputed(A, smat::FormatKind::CSR, {}, 1));
          std::vector<double> X = seededVector(A.NumCols, 3), Y(A.NumRows);
          std::vector<double> RefT;
          for (int I = 0; I != 10; ++I)
            RefT.push_back(timedCall(T, "ref.csr", -1, Id, [&] {
              refSpmv(A, X.data(), Y.data());
            }));
          RefG.push_back(gflops(Flops, median(RefT)));
          standaloneLayers(T, Id, A, Op.format());
        } else {
          RoundCoarse += Sec;
        }
      }
      if (Round == 0) {
        Levels += static_cast<int>(H.numLevels());
        Complexity += H.operatorComplexity() / Cases.size();
      }
    }
    addStats(CacheSum, Cache->stats());
    Hier.push_back(RoundHier);
    for (double S : RoundSolve)
      Solve.push_back(S);
    FixedSolve.push_back(RoundFixed);
    FineUs.push_back(RoundFine * 1e6);
    CoarseUs.push_back(RoundCoarse * 1e6);
  }

  WorkloadResult R;
  Percentile P50 = percentile(Solve, 50), P90 = percentile(Solve, 90);
  R.EndToEnd["setup_s"] = {median(Setup), "s"};
  R.EndToEnd["spmv_gflops"] = {geomean(FineGflops).Value, "GFLOPS"};
  R.EndToEnd["latency_ms_p50"] = {P50.Value * 1e3, "ms"};
  double IterSum = 0;
  for (int I : Iters)
    IterSum += I;
  R.Report = {
      {"setup_s", {median(Setup), "s"}},
      {"setup_samples", {static_cast<double>(Setup.size()), "count"}},
      {"solve_s", {P50.Value, "s"}},
      {"solve_s_p90", {P90.Value, "s"}},
      {"solve_samples", {static_cast<double>(Solve.size()), "count"}},
      {"fixed_csr_solve_s", {median(FixedSolve), "s"}},
      {"speedup_vs_fixed_csr",
       {P50.Value > 0 ? median(FixedSolve) / P50.Value : 0.0, "ratio"}},
      {"iterations", {IterSum, "count"}},
      {"level_applies", {static_cast<double>(Calls), "count"}},
  };
  R.PerLayer = zeroPerLayer();
  Tally.emit(R.PerLayer);
  emitPlanCache(CacheSum, R.PerLayer);
  set(R.PerLayer, "amg.hierarchy_ms", median(Hier) * 1e3);
  set(R.PerLayer, "amg.tune_ms", median(TuneMs));
  set(R.PerLayer, "amg.iterations", IterSum);
  set(R.PerLayer, "amg.levels", Levels);
  set(R.PerLayer, "amg.operator_complexity", Complexity);
  set(R.PerLayer, "amg.fixed_csr_solve_s", median(FixedSolve));
  set(R.PerLayer, "amg.fine_A.apply_us", median(FineUs));
  set(R.PerLayer, "amg.coarse.apply_us", median(CoarseUs));
  set(R.PerLayer, "ref.csr.gflops", geomean(RefG).Value);
  set(R.PerLayer, "kernels.spmv.bytes_computed", median(SpmvBytes));
  set(R.PerLayer, "bench.working_set_bytes", WorkingSet);
  R.SpmvGbps = median(SpmvGbps);
  return R;
}

//===----------------------------------------------------------------------===//
// serve_mixed
//===----------------------------------------------------------------------===//

namespace {

/// One submitted matrix as the generator tracks it.
struct Submission {
  int Input = 0;
  smat::AsyncSpmv<double> Handle;
  std::int64_t SubmitNs = 0, TuningNs = 0, DoneNs = 0;
  std::uint64_t BootstrapCalls = 0, TunedCalls = 0;
  /// Computed bytes of one call on the tuned plan (0 until first needed).
  double TunedBytes = 0.0;
};

/// One pre-generated input: matrix, x, and the reference y.
struct ServeInput {
  CsrMatrix<double> A;
  std::vector<double> X, Ref;
};

} // namespace

WorkloadResult runServeMixed(const RunConfig &Cfg,
                             const smat::Smat<double> &Tuner, Oracle &Check,
                             Tracer &T) {
  constexpr double SubmitsPerSecond = 6.0, CallsPerSecond = 500.0;
  constexpr std::size_t Window = 8, ColdStarts = 40, ColdStartJobs = 3;
  constexpr double DrainSeconds = 60.0;

  // Service set-up, measured many times: construction, then the first
  // ColdStartJobs submissions until every one's tuned plan has published.
  // Two untimed cold starts before the open loop pay the process's own
  // first-use costs (code pages, OpenMP runtime start, heap growth), which
  // read up to 30x a later cold start and are not the service's set-up.
  // The timed ones run after the open loop, once the process is warm:
  // before it they read about 20 % slower, and a median over a mix of the
  // two would hinge on how many fell on each side.
  std::vector<double> Setup;
  std::vector<CsrMatrix<double>> ColdStartInputs;
  for (std::size_t I = 0; I != ColdStartJobs; ++I)
    ColdStartInputs.push_back(serveMatrix(Cfg.Seed, static_cast<int>(I)).A);
  auto ColdStart = [&](bool Timed) {
    std::int64_t Start = nowNs();
    smat::TuningService<double> Service(Tuner);
    std::vector<smat::AsyncSpmv<double>> Handles;
    for (const CsrMatrix<double> &A : ColdStartInputs)
      Handles.push_back(Service.tuneAsync(A));
    for (const smat::AsyncSpmv<double> &H : Handles)
      Check.count("service cold start", H.waitTuned(DrainSeconds), H.error());
    if (Timed)
      Setup.push_back(static_cast<double>(nowNs() - Start) * 1e-9);
    T.record("core.service.cold_start", Start, nowNs(), -1, -1);
  };
  ColdStart(/*Timed=*/false);
  ColdStart(/*Timed=*/false);

  // The submission stream, generated up front so the generator thread only
  // submits and calls while the clock runs. Even submissions are new
  // structures (the families in turn); odd ones repeat an earlier structure
  // with new values: i % 4 == 1 the one submitted just before, i % 4 == 3
  // one submitted seven earlier. Half the stream repeats. The service has
  // one worker that tunes its queue in order, so a repeat's tune always
  // starts after the earlier structure's plan is cached: both kinds of
  // repeat are plan-cache hits, and no submission reaches the cache's
  // singleflight wait (that needs two tunes of one structure at once). The
  // cache keys plans by feature fingerprint, so most new structures of a
  // family seen before hit as well.
  const std::size_t NumSubmits =
      static_cast<std::size_t>(std::ceil(Cfg.Seconds * SubmitsPerSecond));
  std::vector<ServeInput> Inputs;
  std::vector<double> RefG;
  double WorkingSet = 0.0;
  for (std::size_t I = 0; I != NumSubmits; ++I) {
    ServeInput In;
    if (I % 2 == 0) {
      In.A = serveMatrix(Cfg.Seed, static_cast<int>(I / 2)).A;
    } else {
      std::size_t Base = I % 4 == 1 ? I - 1 : (I >= 7 ? I - 7 : I - 3);
      In.A = Inputs[Base].A;
      smat::randomizeValues(In.A, mix(Cfg.Seed, 5000 + I));
    }
    In.X = seededVector(In.A.NumCols, mix(Cfg.Seed, 9000 + I));
    In.Ref.resize(In.A.NumRows);
    double Sec = timedCall(T, "ref.csr", -1, static_cast<int>(I), [&] {
      refSpmv(In.A, In.X.data(), In.Ref.data());
    });
    RefG.push_back(gflops(2.0 * static_cast<double>(In.A.nnz()), Sec));
    WorkingSet += bytesComputed(In.A, smat::FormatKind::CSR, {}, 1);
    Inputs.push_back(std::move(In));
  }

  smat::TuningService<double> Service(Tuner);
  std::vector<Submission> Subs;
  Subs.reserve(NumSubmits);
  std::deque<std::size_t> Live; // indices into Subs receiving calls
  std::vector<double> FirstCallMs, CallUs, LateMs, QueueMs, TuneMs,
      CrossoverMs, TunedGbps, BootstrapG, SpmvBytes;
  std::vector<double> Y, CallG;
  double Flops = 0.0;
  std::size_t Next = 0, CallCursor = 0, Done = 0;
  TuneTally Tally;

  const std::int64_t SubmitPeriod =
      static_cast<std::int64_t>(1e9 / SubmitsPerSecond);
  const std::int64_t CallPeriod = static_cast<std::int64_t>(1e9 / CallsPerSecond);
  const std::int64_t Start = nowNs();
  std::int64_t NextSubmit = Start, NextCall = Start + CallPeriod;
  const std::int64_t Deadline =
      Start + static_cast<std::int64_t>((Cfg.Seconds + DrainSeconds) * 1e9);

  auto Call = [&](Submission &S, bool First, std::int64_t DueNs) {
    const ServeInput &In = Inputs[static_cast<std::size_t>(S.Input)];
    Y.resize(In.Ref.size());
    bool Tuned = S.Handle.tuned();
    std::int64_t Begin = nowNs();
    S.Handle.apply(In.X.data(), Y.data());
    std::int64_t End = nowNs();
    T.record(Tuned ? "kernels.spmv" : "kernels.basic", Begin, End, -1,
             S.Input);
    double F = 2.0 * static_cast<double>(In.A.nnz());
    Flops += F;
    CallG.push_back(gflops(F, static_cast<double>(End - Begin) * 1e-9));
    if (Tuned) {
      ++S.TunedCalls;
      if (!S.TunedBytes)
        S.TunedBytes = bytesComputed(In.A, S.Handle.format(),
                                     S.Handle.report().Features, 1);
      TunedGbps.push_back(S.TunedBytes /
                          (static_cast<double>(End - Begin) * 1e-9) * 1e-9);
    } else {
      ++S.BootstrapCalls;
      BootstrapG.push_back(gflops(F, static_cast<double>(End - Begin) * 1e-9));
    }
    if (First)
      FirstCallMs.push_back(static_cast<double>(End - S.SubmitNs) * 1e-6);
    else
      CallUs.push_back(static_cast<double>(End - DueNs) * 1e-3);
    Check.check(Tuned ? "async apply (tuned)" : "async apply (bootstrap)",
                Y.data(), In.Ref.data(), Y.size());
  };

  // Polls every unfinished submission for its state transitions.
  auto Poll = [&](std::int64_t Now) {
    for (Submission &S : Subs) {
      if (S.DoneNs)
        continue;
      smat::AsyncTuneState St = S.Handle.state();
      if (St == smat::AsyncTuneState::Pending)
        continue;
      if (!S.TuningNs)
        S.TuningNs = Now;
      if (St == smat::AsyncTuneState::Tuning)
        continue;
      S.DoneNs = Now;
      ++Done;
      bool Ok = St == smat::AsyncTuneState::Tuned;
      Check.count("async tune", Ok, S.Handle.error());
      QueueMs.push_back(static_cast<double>(S.TuningNs - S.SubmitNs) * 1e-6);
      T.record("core.service.queue_wait", S.SubmitNs, S.TuningNs, -1, S.Input);
      if (!Ok)
        continue;
      TuneMs.push_back(static_cast<double>(Now - S.TuningNs) * 1e-6);
      CrossoverMs.push_back(static_cast<double>(Now - S.SubmitNs) * 1e-6);
      TuningReport R = S.Handle.report();
      Tally.add(R);
      SpmvBytes.push_back(bytesComputed(
          Inputs[static_cast<std::size_t>(S.Input)].A, R.ChosenFormat,
          R.Features, 1));
      int Span = T.record("core.tune", S.TuningNs, Now, -1, S.Input);
      T.recordTuneStages(R, S.TuningNs, Span, S.Input);
    }
  };

  while (Done < NumSubmits) {
    std::int64_t Now = nowNs();
    if (Now > Deadline) {
      Check.count("async tune drain", false,
                  "handles still untuned after the drain deadline");
      break;
    }
    if (Next < NumSubmits && Now >= NextSubmit) {
      LateMs.push_back(static_cast<double>(Now - NextSubmit) * 1e-6);
      Submission S;
      S.Input = static_cast<int>(Next);
      S.SubmitNs = nowNs();
      try {
        S.Handle = Service.tuneAsync(Inputs[Next].A);
        T.record("core.service.submit", S.SubmitNs, nowNs(), -1, S.Input);
        Subs.push_back(std::move(S));
        Call(Subs.back(), /*First=*/true, 0);
        Live.push_back(Subs.size() - 1);
        if (Live.size() > Window)
          Live.pop_front();
      } catch (const std::exception &E) {
        Check.count("tuneAsync", false, E.what());
        ++Done;
      }
      ++Next;
      NextSubmit += SubmitPeriod;
      continue;
    }
    if (Now >= NextCall && !Live.empty()) {
      LateMs.push_back(static_cast<double>(Now - NextCall) * 1e-6);
      Call(Subs[Live[CallCursor++ % Live.size()]], /*First=*/false, NextCall);
      NextCall += CallPeriod;
      continue;
    }
    Poll(Now);
    std::int64_t Wake = std::min(Next < NumSubmits ? NextSubmit : NextCall,
                                 NextCall);
    if (Wake - nowNs() > 200000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Wake - nowNs() - 150000));
  }
  double WallSeconds = static_cast<double>(nowNs() - Start) * 1e-9;

  std::uint64_t Bootstrap = 0, TunedCalls = 0;
  for (const Submission &S : Subs) {
    Bootstrap += S.BootstrapCalls;
    TunedCalls += S.TunedCalls;
  }
  smat::TuningServiceStats SS = Service.stats();
  for (std::size_t I = 0; I != ColdStarts; ++I)
    ColdStart(/*Timed=*/true);

  WorkloadResult R;
  Percentile Call50 = percentile(CallUs, 50), Call90 = percentile(CallUs, 90),
             Call99 = percentile(CallUs, 99);
  Percentile Cross90 = percentile(CrossoverMs, 90);
  R.EndToEnd["setup_s"] = {median(Setup), "s"};
  R.EndToEnd["spmv_gflops"] = {median(CallG), "GFLOPS"};
  R.EndToEnd["latency_ms_p50"] = {Call50.Value * 1e-3, "ms"};
  R.Report = {
      {"setup_s", {median(Setup), "s"}},
      {"setup_samples", {static_cast<double>(Setup.size()), "count"}},
      {"submissions", {static_cast<double>(Subs.size()), "count"}},
      {"calls", {static_cast<double>(Bootstrap + TunedCalls), "count"}},
      {"first_call_ms_p50", {percentile(FirstCallMs, 50).Value, "ms"}},
      {"first_call_ms_p90", {percentile(FirstCallMs, 90).Value, "ms"}},
      {"crossover_ms_p50", {percentile(CrossoverMs, 50).Value, "ms"}},
      {"crossover_ms_p90", {Cross90.Value, "ms"}},
      {"crossover_p90_beyond", {static_cast<double>(Cross90.Beyond), "count"}},
      {"call_latency_us_p50", {Call50.Value, "us"}},
      {"call_latency_us_p90", {Call90.Value, "us"}},
      {"call_latency_us_p99", {Call99.Value, "us"}},
      {"call_p99_beyond", {static_cast<double>(Call99.Beyond), "count"}},
      {"served_gflops", {gflops(Flops, WallSeconds), "GFLOPS"}},
  };
  R.PerLayer = zeroPerLayer();
  Tally.emit(R.PerLayer);
  emitPlanCache(Service.planCache().stats(), R.PerLayer);
  set(R.PerLayer, "core.service.queue_wait_ms_p50", median(QueueMs));
  set(R.PerLayer, "core.service.tune_ms_p50", median(TuneMs));
  set(R.PerLayer, "core.service.tuned", static_cast<double>(SS.Tuned));
  set(R.PerLayer, "core.service.failed", static_cast<double>(SS.Failed));
  set(R.PerLayer, "core.service.bootstrap_calls", static_cast<double>(Bootstrap));
  set(R.PerLayer, "core.service.tuned_calls", static_cast<double>(TunedCalls));
  set(R.PerLayer, "kernels.basic.gflops", median(BootstrapG));
  set(R.PerLayer, "ref.csr.gflops", geomean(RefG).Value);
  set(R.PerLayer, "kernels.spmv.bytes_computed", median(SpmvBytes));
  set(R.PerLayer, "bench.generator_late_ms_p99", percentile(LateMs, 99).Value);
  set(R.PerLayer, "bench.working_set_bytes", WorkingSet);
  R.SpmvGbps = median(TunedGbps);
  return R;
}

} // namespace perfbench
