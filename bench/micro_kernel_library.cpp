//===- bench/micro_kernel_library.cpp - Kernel-variant microbenchmarks ----===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Google-benchmark sweep over every implementation in the kernel library on
// format-friendly probe matrices, each kernel called serially on the whole
// matrix. The kernel search (paper Section 5.2) times the same kernels as
// bound plans instead, row-sliced above the grain; its selections are
// printed after the timed runs.
//
//===----------------------------------------------------------------------===//

#include "core/Trainer.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "support/AlignedAlloc.h"

#include <benchmark/benchmark.h>

using namespace smat;

namespace {

struct Probes {
  CsrMatrix<double> Csr = blockFem(120, 24, 4.0, 42);
  CooMatrix<double> Coo;
  DiaMatrix<double> Dia;
  EllMatrix<double> Ell;
  BsrMatrix<double> Bsr;
  AlignedVector<double> X, Y;

  Probes() {
    Coo = csrToCoo(powerLawGraph(20000, 2.2, 1, 64, 43));
    bool DiaOk = csrToDia(banded(30000, 4), Dia);
    bool EllOk = csrToEll(boundedDegreeRandom(20000, 20000, 6, 6, 44), Ell);
    bool BsrOk = csrToBsr(blockFem(1500, 4, 0.0, 45), Bsr, 4);
    (void)DiaOk;
    (void)EllOk;
    (void)BsrOk;
    std::size_t MaxCols = 30000, MaxRows = 30000;
    X.assign(MaxCols, 0.5);
    Y.assign(MaxRows, 0.0);
  }
};

Probes &probes() {
  static Probes P;
  return P;
}

template <typename MatrixT, typename FnT>
void runKernelBench(benchmark::State &State, const MatrixT &A, FnT Fn) {
  Probes &P = probes();
  for (auto _ : State) {
    Fn(A, P.X.data(), P.Y.data());
    benchmark::DoNotOptimize(P.Y.data());
  }
  State.counters["FLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(A.nnz()) *
          static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void registerAll() {
  Probes &P = probes();
  const KernelTable<double> &Kernels = kernelTable<double>();
  for (const auto &K : Kernels.Csr)
    benchmark::RegisterBenchmark(
        (std::string("csr/") + K.Name).c_str(),
        [&P, Fn = K.Fn](benchmark::State &S) { runKernelBench(S, P.Csr, Fn); });
  for (const auto &K : Kernels.Coo)
    benchmark::RegisterBenchmark(
        (std::string("coo/") + K.Name).c_str(),
        [&P, Fn = K.Fn](benchmark::State &S) { runKernelBench(S, P.Coo, Fn); });
  for (const auto &K : Kernels.Dia)
    benchmark::RegisterBenchmark(
        (std::string("dia/") + K.Name).c_str(),
        [&P, Fn = K.Fn](benchmark::State &S) { runKernelBench(S, P.Dia, Fn); });
  for (const auto &K : Kernels.Ell)
    benchmark::RegisterBenchmark(
        (std::string("ell/") + K.Name).c_str(),
        [&P, Fn = K.Fn](benchmark::State &S) { runKernelBench(S, P.Ell, Fn); });
  for (const auto &K : Kernels.Bsr)
    benchmark::RegisterBenchmark(
        (std::string("bsr/") + K.Name).c_str(),
        [&P, Fn = K.Fn](benchmark::State &S) { runKernelBench(S, P.Bsr, Fn); });
}

void printScoreboard() {
  std::printf("\n=== Scoreboard search result (paper Section 5.2) ===\n");
  KernelSelection Selection = searchOptimalKernels<double>(2e-3);
  for (int K = 0; K < NumFormats; ++K)
    std::printf("  %s -> %s (index %d)\n",
                std::string(formatName(static_cast<FormatKind>(K))).c_str(),
                Selection.BestKernelName[static_cast<std::size_t>(K)].c_str(),
                Selection.BestKernel[static_cast<std::size_t>(K)]);
}

} // namespace

int main(int argc, char **argv) {
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printScoreboard();
  return 0;
}
