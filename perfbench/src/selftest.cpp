//===- perfbench/src/selftest.cpp - Checks of the benchmark's own parts ---===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Checks the parts of the benchmark that the results rest on:
//  - the percentile and geomean helpers report their sample counts;
//  - the same seed yields identical matrix structures, a different seed
//    different ones;
//  - the oracle catches an injected wrong y (and a NaN);
//  - the workload and metric names are the documented ones, each used once.
// Prints one line per failed check and exits non-zero if any failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <set>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::printf("selftest FAILED: %s\n", What);
    ++Failures;
  }
}

void checkStats() {
  std::vector<double> Xs;
  for (int I = 1; I <= 100; ++I)
    Xs.push_back(I);
  Percentile P90 = percentile(Xs, 90);
  expect(P90.Count == 100, "percentile reports its sample count");
  expect(std::fabs(P90.Value - 90.1) < 1e-12, "p90 of 1..100 is 90.1");
  expect(P90.Beyond == 10, "p90 of 1..100 has 10 samples beyond it");
  expect(percentile({}, 50).Count == 0, "empty percentile has no samples");
  GeoMean G = geomean({1.0, 4.0, 0.0, -1.0});
  expect(G.Count == 2 && std::fabs(G.Value - 2.0) < 1e-12,
         "geomean skips non-positive values and counts the rest");
}

std::vector<std::uint64_t> hashes(const std::vector<NamedMatrix> &Ms) {
  std::vector<std::uint64_t> H;
  for (const NamedMatrix &M : Ms)
    H.push_back(structureHash(M.A));
  return H;
}

void checkSeeds() {
  std::vector<std::uint64_t> A = hashes(tuneColdMatrices(11, 0));
  std::vector<std::uint64_t> B = hashes(tuneColdMatrices(11, 0));
  std::vector<std::uint64_t> C = hashes(tuneColdMatrices(12, 0));
  std::vector<std::uint64_t> D = hashes(tuneColdMatrices(11, 1));
  expect(A == B, "same seed and round give identical tune_cold structures");
  int DiffSeed = 0, DiffRound = 0;
  for (std::size_t I = 0; I != A.size(); ++I) {
    DiffSeed += A[I] != C[I];
    DiffRound += A[I] != D[I];
  }
  // The stencil family draws only its grid shape from the seed, so two
  // seeds may share it; every other family must differ.
  expect(DiffSeed >= static_cast<int>(A.size()) - 1,
         "a different seed gives different tune_cold structures");
  expect(DiffRound >= static_cast<int>(A.size()) - 1,
         "a different round gives different tune_cold structures");
  expect(structureHash(serveMatrix(11, 3).A) ==
             structureHash(serveMatrix(11, 3).A),
         "same seed gives identical serve_mixed structures");
  expect(structureHash(serveMatrix(11, 3).A) !=
             structureHash(serveMatrix(12, 3).A),
         "a different seed gives different serve_mixed structures");
  expect(seededVector(64, 5) == seededVector(64, 5) &&
             seededVector(64, 5) != seededVector(64, 6),
         "seeded vectors follow their seed");
}

void checkOracle() {
  NamedMatrix M = serveMatrix(3, 4);
  std::vector<double> X = seededVector(M.A.NumCols, 1);
  std::vector<double> Ref(M.A.NumRows), Y(M.A.NumRows);
  refSpmv(M.A, X.data(), Ref.data());
  smat::basicCsrKernel<double>().Fn(M.A, X.data(), Y.data());
  Oracle Check;
  expect(Check.check("basic", Y.data(), Ref.data(), Y.size()),
         "oracle accepts a correct y");
  Y[Y.size() / 2] += 1e-6 * (std::fabs(Y[Y.size() / 2]) + 1.0);
  expect(!Check.check("injected", Y.data(), Ref.data(), Y.size()),
         "oracle rejects an injected wrong y");
  Y[Y.size() / 2] = NAN;
  expect(!Check.check("nan", Y.data(), Ref.data(), Y.size()),
         "oracle rejects a NaN in y");
  expect(Check.attempted() == 3 && Check.failed() == 2 &&
             Check.failures().size() == 2 &&
             Check.failures()[0].rfind("injected", 0) == 0,
         "oracle counts failures and names the failing operation");

  // The k-column reference agrees with k single-column references.
  const index_t K = 3;
  std::vector<double> XK = seededVector(M.A.NumCols * K, 2);
  std::vector<double> YK(M.A.NumRows * K), YK2(M.A.NumRows * K);
  refSpmm(M.A, XK.data(), YK.data(), K);
  smat::basicCsrSpmmKernel<double>().Fn(M.A, XK.data(), YK2.data(), K);
  expect(relError(YK2.data(), YK.data(), YK.size()) <= OracleRelTol,
         "column-wise reference SpMM matches the basic SpMM kernel");
}

void checkNames() {
  expect(workloadNames() ==
             std::vector<std::string>{"tune_cold", "amg_pcg", "serve_mixed"},
         "workload names are tune_cold, amg_pcg, serve_mixed");
  std::set<std::string> Seen;
  for (const auto *List : {&endToEndNames(), &perLayerNames()})
    for (const std::string &N : *List)
      expect(Seen.insert(N).second, ("metric used once: " + N).c_str());
  expect(endToEndNames().front() == "setup_s", "setup_s is an end-to-end metric");
}

} // namespace

int main() {
  checkStats();
  checkSeeds();
  checkOracle();
  checkNames();
  std::printf("selftest: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}
