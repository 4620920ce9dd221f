//===- bench/micro_slice_grain.cpp - Serial pick vs row-sliced plan -------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The measurement behind the plan grain, ParallelConvertGrain
// (core/FormatOperator.h): per nonzero count, the median latency of one SpMV
// call through a serial kernel pick (dia_unroll2 on a 7-diagonal band;
// ell_simd and the serial CSR pick, csr_avx2 where the build has it, on a
// bounded-degree random matrix) against the same pick run as one row slice
// per processor, and of csr_basic, the unsliced kernel every plan is checked
// against. Calls are 2 ms apart, so every sliced call pays the wake-up of an
// idle team, as a solver's or a server's calls do between other work.
//
// Two phases: first the process has no TuningService; then one has tuned a
// matrix above the grain and sits idle. Its worker runs at one OpenMP thread
// and forks no team, so the process keeps one team and the two phases
// should agree; a second team would make libgomp stop spinning (more
// threads than cores) and every sliced call pay a wake-up.
//
// The plans are built the way bindFormatOperator builds them (one matrix,
// balancedRowBounds slices), at every size, so sizes below the grain can be
// measured too.
//
// Usage: micro_slice_grain [calls per point, default 200]
//
//===----------------------------------------------------------------------===//

#include "core/FormatOperator.h"
#include "core/TuningService.h"
#include "matrix/Generators.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace smat;

namespace {

/// Binds \p K to \p M, the conversion of \p A, as \p Parts row slices.
template <template <typename> class MatrixT>
std::unique_ptr<FormatOperator<double>>
slicedPlan(const CsrMatrix<double> &A, MatrixT<double> M, index_t Parts,
           const Kernel<typename BoundOperator<MatrixT, double>::SpmvFn> &K) {
  return std::make_unique<BoundOperator<MatrixT, double>>(
      std::move(M), K, nullptr, balancedRowBounds(A, Parts));
}

/// The library entry named \p Name.
template <typename FnT>
const Kernel<FnT> &kernelNamed(const std::vector<Kernel<FnT>> &List,
                               const std::string &Name) {
  for (const Kernel<FnT> &K : List)
    if (Name == K.Name)
      return K;
  std::fprintf(stderr, "no kernel named %s\n", Name.c_str());
  std::exit(1);
}

/// Median microseconds of \p Calls applies of \p Op, 2 ms apart.
double medianCallUs(const FormatOperator<double> &Op, int Calls) {
  std::vector<double> X(static_cast<std::size_t>(Op.numCols()), 1.0);
  std::vector<double> Y(static_cast<std::size_t>(Op.numRows()));
  std::vector<double> Us;
  for (int I = 0; I != Calls; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    WallTimer Timer;
    Op.apply(X.data(), Y.data());
    Us.push_back(Timer.seconds() * 1e6);
  }
  std::nth_element(Us.begin(), Us.begin() + Us.size() / 2, Us.end());
  return Us[Us.size() / 2];
}

struct Point {
  const char *Format;
  CsrMatrix<double> A;
  std::unique_ptr<FormatOperator<double>> Basic, Serial, Sliced;
};

std::vector<Point> buildPoints(index_t Parts) {
  const KernelTable<double> &K = kernelTable<double>();
  const auto &DiaPick = kernelNamed(K.Dia, "dia_unroll2");
  const auto &EllPick = kernelNamed(K.Ell, "ell_simd");
  const bool HaveAvx2 = kernelIndexNamed(K.Csr, "csr_avx2") != 0;
  const auto &CsrPick =
      kernelNamed(K.Csr, HaveAvx2 ? "csr_avx2" : "csr_unroll4");
  std::vector<Point> Points;
  for (std::int64_t Nnz = std::int64_t(1) << 13; Nnz <= std::int64_t(1) << 20;
       Nnz *= 2) {
    auto Rows = static_cast<index_t>(Nnz / 7);
    Points.push_back({"DIA", banded(Rows, 3), nullptr, nullptr, nullptr});
    Points.push_back({"ELL", boundedDegreeRandom(Rows, Rows, 6, 8, 90),
                      nullptr, nullptr, nullptr});
    Points.push_back({"CSR", boundedDegreeRandom(Rows, Rows, 6, 8, 91),
                      nullptr, nullptr, nullptr});
  }
  for (Point &P : Points) {
    P.Basic = basicCsrOperator(P.A);
    const std::string Format = P.Format;
    if (Format == "DIA") {
      DiaMatrix<double> M;
      csrToDia(P.A, M);
      P.Serial = slicedPlan<DiaMatrix>(P.A, M, 1, DiaPick);
      P.Sliced = slicedPlan<DiaMatrix>(P.A, std::move(M), Parts, DiaPick);
    } else if (Format == "ELL") {
      EllMatrix<double> M;
      csrToEll(P.A, M);
      P.Serial = slicedPlan<EllMatrix>(P.A, M, 1, EllPick);
      P.Sliced = slicedPlan<EllMatrix>(P.A, std::move(M), Parts, EllPick);
    } else {
      P.Serial = slicedPlan<CsrMatrix>(P.A, P.A, 1, CsrPick);
      P.Sliced = slicedPlan<CsrMatrix>(P.A, P.A, Parts, CsrPick);
    }
  }
  return Points;
}

void measure(const char *Title, std::vector<Point> &Points, int Calls) {
  std::printf("\n%s\n", Title);
  AsciiTable Table({"format", "kernel", "nnz", "slices", "csr_basic_us",
                    "serial_us", "sliced_us", "serial/sliced"});
  for (Point &P : Points) {
    double BasicUs = medianCallUs(*P.Basic, Calls);
    double SerialUs = medianCallUs(*P.Serial, Calls);
    double SlicedUs = medianCallUs(*P.Sliced, Calls);
    Table.addRow({P.Format, P.Serial->kernelName(),
                  std::to_string(P.A.nnz()),
                  std::to_string(P.Sliced->numSlices()),
                  formatString("%.1f", BasicUs),
                  formatString("%.1f", SerialUs),
                  formatString("%.1f", SlicedUs),
                  formatString("%.2f", SerialUs / SlicedUs)});
  }
  Table.print();
}

} // namespace

int main(int Argc, char **Argv) {
  const int Calls = Argc > 1 ? std::max(1, std::atoi(Argv[1])) : 200;
  const index_t Parts = planSliceCount();
  std::printf("micro_slice_grain: %d calls per point, %d slices, grain %lld "
              "nonzeros\n",
              Calls, static_cast<int>(Parts),
              static_cast<long long>(ParallelConvertGrain));
  std::vector<Point> Points = buildPoints(Parts);

  measure("no TuningService", Points, Calls);

  // An idle service worker that has tuned a matrix above the grain: its
  // conversions and feature extraction ran in parallel regions of one
  // thread.
  TuningService<double> Service{Smat<double>(LearningModel())};
  AsyncSpmv<double> Warm = Service.tuneAsync(banded(20000, 3));
  if (!Warm.waitTuned(60.0)) {
    std::fprintf(stderr, "service tune failed: %s\n", Warm.error().c_str());
    return 1;
  }
  measure("with a live TuningService (serial worker)", Points, Calls);
  return 0;
}
