//===- perfbench/src/main.cpp - Repository benchmark runner ---------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints, in order: the environment record, the
// workload's named figures, any failures, and as the last line the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are the per-layer set
// and the spans are written to --trace-out.
//
//   perfbench --workload tune_cold --seed 1 --seconds 30 --trace 0
//             --model bench_cache/model_double_small.txt
//             [--trace-out spans.jsonl]
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --model PATH [--trace-out PATH]\n",
               Why);
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

void printEnvironment(const Environment &E, const std::string &Workload,
                      bool Trace) {
  std::string Omp = "{";
  for (std::size_t I = 0; I != E.OmpVars.size(); ++I)
    Omp += (I ? "," : "") + jsonString(E.OmpVars[I].first) + ":" +
           jsonString(E.OmpVars[I].second);
  Omp += "}";
  char Checksum[24];
  std::snprintf(Checksum, sizeof(Checksum), "%016llx",
                static_cast<unsigned long long>(E.ModelChecksum));
  std::printf("env {\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"nproc\":%u,"
              "\"omp_max_threads\":%d,\"omp_env\":%s,\"compiler\":%s,"
              "\"build_type\":%s,\"llc_bytes\":%llu,\"triad_bytes\":%s,"
              "\"triad_gbps\":%s,\"model\":%s,\"model_fnv1a64\":\"%s\"}\n",
              jsonString(Workload).c_str(),
              static_cast<unsigned long long>(E.Seed), Trace ? 1 : 0, E.Nproc,
              E.OmpMaxThreads, Omp.c_str(), jsonString(E.Compiler).c_str(),
              jsonString(E.BuildType).c_str(),
              static_cast<unsigned long long>(E.LlcBytes),
              jsonNumber(E.TriadBytes).c_str(),
              jsonNumber(E.TriadGbps).c_str(), jsonString(E.ModelPath).c_str(),
              Checksum);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string ModelPath;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = Argv[++I];
    if (Arg == "--workload")
      Cfg.Workload = Val, HaveWorkload = true;
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(Val.c_str(), nullptr, 10), HaveSeed = true;
    else if (Arg == "--seconds")
      Cfg.Seconds = std::atof(Val.c_str()), HaveSeconds = true;
    else if (Arg == "--trace")
      Cfg.Trace = Val == "1";
    else if (Arg == "--trace-out")
      Cfg.TracePath = Val;
    else if (Arg == "--model")
      ModelPath = Val;
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || ModelPath.empty())
    return usage("--workload, --seed, --seconds and --model are required");
  if (!(Cfg.Seconds > 0))
    return usage("--seconds must be positive");

  std::string Error;
  std::optional<smat::Smat<double>> Tuner =
      smat::Smat<double>::tryFromFile(ModelPath, &Error);
  if (!Tuner) {
    std::fprintf(stderr, "perfbench: cannot load model: %s\n", Error.c_str());
    return 1;
  }

  Environment Env = probeEnvironment(ModelPath, Cfg.Seed);
  Oracle Check;
  Tracer T(Cfg.Trace);
  WorkloadResult R;
  std::int64_t Start = nowNs();
  try {
    if (Cfg.Workload == "tune_cold")
      R = runTuneCold(Cfg, *Tuner, Check, T);
    else if (Cfg.Workload == "amg_pcg")
      R = runAmgPcg(Cfg, *Tuner, Check, T);
    else if (Cfg.Workload == "serve_mixed")
      R = runServeMixed(Cfg, *Tuner, Check, T);
    else
      return usage(("unknown workload " + Cfg.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", Cfg.Workload.c_str(),
                 E.what());
    return 1;
  }
  double RunSeconds = static_cast<double>(nowNs() - Start) * 1e-9;

  // Peak RSS before the triad, whose arrays would otherwise dominate it.
  R.EndToEnd["peak_rss_mb"] = {peakRssBytes() / (1024.0 * 1024.0), "MB"};
  Env.TriadGbps = measureTriadGbps(Env.LlcBytes, Env.TriadBytes);
  R.PerLayer["bench.triad_gbps"] = {Env.TriadGbps, "GB/s"};
  R.PerLayer["bench.triad_bytes"] = {Env.TriadBytes, "bytes"};
  R.PerLayer["bench.llc_bytes"] = {static_cast<double>(Env.LlcBytes), "bytes"};
  R.PerLayer["kernels.spmv.pct_of_triad"] = {
      100.0 * R.SpmvGbps / Env.TriadGbps, "%"};
  R.PerLayer["kernels.spmm8.pct_of_triad"] = {
      100.0 * R.Spmm8Gbps / Env.TriadGbps, "%"};
  R.PerLayer["bench.same_kernel_noisy"] = {static_cast<double>(R.Noisy),
                                           "count"};
  addTraceMetrics(T, RunSeconds, R.PerLayer);

  double FailedFrac =
      Check.attempted()
          ? static_cast<double>(Check.failed()) / Check.attempted()
          : 1.0;
  printEnvironment(Env, Cfg.Workload, Cfg.Trace);
  for (const auto &[Name, M] : R.Report)
    std::printf("%s = %s %s\n", Name.c_str(), jsonNumber(M.Value).c_str(),
                M.Unit.c_str());
  std::printf("peak_rss_mb = %s MB\n",
              jsonNumber(R.EndToEnd["peak_rss_mb"].Value).c_str());
  std::printf("failed_frac = %s ratio (%llu of %llu operations)\n",
              jsonNumber(FailedFrac).c_str(),
              static_cast<unsigned long long>(Check.failed()),
              static_cast<unsigned long long>(Check.attempted()));
  for (const std::string &F : Check.failures())
    std::printf("FAILED %s\n", F.c_str());
  // A persisting same-kernel disagreement means the host disturbed the
  // timings: the run is noisy and its figures are not a result.
  if (R.Noisy)
    std::printf("NOISY %llu same-kernel disagreements; this run is not a "
                "result\n",
                static_cast<unsigned long long>(R.Noisy));

  if (Cfg.Trace && !Cfg.TracePath.empty() && !T.write(Cfg.TracePath))
    std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                 Cfg.TracePath.c_str());

  const Metrics &Chosen = Cfg.Trace ? R.PerLayer : R.EndToEnd;
  const std::vector<std::string> &Names =
      Cfg.Trace ? perLayerNames() : endToEndNames();
  std::string Out = "{";
  bool Correct = Check.failed() == 0 && Check.attempted() > 0 && !R.Noisy;
  for (std::size_t I = 0; I != Names.size(); ++I) {
    auto It = Chosen.find(Names[I]);
    if (It == Chosen.end() || !std::isfinite(It->second.Value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   Names[I].c_str());
      Correct = false;
      continue;
    }
    Out += (Out.size() > 1 ? "," : "") + jsonString(Names[I]) +
           ":{\"value\":" +
           jsonNumber(It->second.Value) +
           ",\"unit\":" + jsonString(It->second.Unit) + "}";
  }
  Out += "}";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Check.attempted()),
              static_cast<unsigned long long>(Check.failed()), Out.c_str());
  return 0;
}
