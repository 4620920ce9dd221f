//===- bench/micro_slice_grain.cpp - Serial pick vs row-sliced plan -------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The measurement behind SlicedPlanGrain (matrix/FormatConvert.h): per
// nonzero count, the median latency of one SpMV call through the serial
// kernel pick (dia_unroll2 on a 7-diagonal band, ell_simd on a bounded-degree
// random matrix) against the same pick run as one row slice per OpenMP
// thread. Calls are 2 ms apart, so every sliced call pays the wake-up of an
// idle team, as a solver's or a server's calls do between other work.
//
// Two phases: first the process has one OpenMP team; then a TuningService
// has tuned one matrix, so its idle worker keeps a second team alive, and
// libgomp stops spinning when more threads exist than cores. The grain has
// to sit above the crossover of the second phase.
//
// The sliced plans are built here the way bindFormatOperator builds them
// above the grain (balancedRowBounds, csrRowSlice, guard-free conversion),
// so sizes below the grain can be measured too.
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

/// Binds \p K to \p A converted by \p Convert as \p Parts row slices.
template <template <typename> class MatrixT, typename ConvertFn>
std::unique_ptr<FormatOperator<double>>
slicedPlan(const CsrMatrix<double> &A, index_t Parts,
           const Kernel<typename BoundOperator<MatrixT, double>::SpmvFn> &K,
           ConvertFn Convert) {
  std::vector<index_t> Bounds = balancedRowBounds(A, Parts);
  std::vector<MatrixT<double>> Slices(Bounds.size() - 1);
  for (std::size_t S = 0; S != Slices.size(); ++S)
    if (!Convert(csrRowSlice(A, Bounds[S], Bounds[S + 1]), Slices[S]))
      return nullptr;
  Bounds.pop_back();
  return std::make_unique<BoundOperator<MatrixT, double>>(
      std::move(Slices), std::move(Bounds), K, nullptr);
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
  std::unique_ptr<FormatOperator<double>> Serial, Sliced;
};

std::vector<Point> buildPoints(index_t Parts) {
  const KernelTable<double> &K = kernelTable<double>();
  const auto &DiaPick = kernelNamed(K.Dia, "dia_unroll2");
  const auto &EllPick = kernelNamed(K.Ell, "ell_simd");
  auto ToDia = [](const CsrMatrix<double> &M, DiaMatrix<double> &Out) {
    return csrToDia(M, Out, 0.0, 0);
  };
  auto ToEll = [](const CsrMatrix<double> &M, EllMatrix<double> &Out) {
    return csrToEll(M, Out, 0.0);
  };
  std::vector<Point> Points;
  for (std::int64_t Nnz = std::int64_t(1) << 13; Nnz <= std::int64_t(1) << 20;
       Nnz *= 2) {
    auto Rows = static_cast<index_t>(Nnz / 7);
    Points.push_back({"DIA", banded(Rows, 3), nullptr, nullptr});
    Points.push_back(
        {"ELL", boundedDegreeRandom(Rows, Rows, 6, 8, 90), nullptr, nullptr});
  }
  for (Point &P : Points) {
    if (std::string(P.Format) == "DIA") {
      P.Serial = slicedPlan<DiaMatrix>(P.A, 1, DiaPick, ToDia);
      P.Sliced = slicedPlan<DiaMatrix>(P.A, Parts, DiaPick, ToDia);
    } else {
      P.Serial = slicedPlan<EllMatrix>(P.A, 1, EllPick, ToEll);
      P.Sliced = slicedPlan<EllMatrix>(P.A, Parts, EllPick, ToEll);
    }
  }
  return Points;
}

void measure(const char *Title, std::vector<Point> &Points, int Calls) {
  std::printf("\n%s\n", Title);
  AsciiTable Table({"format", "nnz", "slices", "serial_us", "sliced_us",
                    "serial/sliced"});
  for (Point &P : Points) {
    double SerialUs = medianCallUs(*P.Serial, Calls);
    double SlicedUs = medianCallUs(*P.Sliced, Calls);
    Table.addRow({P.Format, std::to_string(P.A.nnz()),
                  std::to_string(P.Sliced->numSlices()),
                  formatString("%.1f", SerialUs),
                  formatString("%.1f", SlicedUs),
                  formatString("%.2f", SerialUs / SlicedUs)});
  }
  Table.print();
}

} // namespace

int main(int Argc, char **Argv) {
  const int Calls = Argc > 1 ? std::max(1, std::atoi(Argv[1])) : 200;
  const index_t Parts = detail::teamSize();
  std::printf("micro_slice_grain: %d calls per point, %d slices, grain %lld "
              "nonzeros\n",
              Calls, static_cast<int>(Parts),
              static_cast<long long>(SlicedPlanGrain));
  std::vector<Point> Points = buildPoints(Parts);

  measure("one OpenMP team", Points, Calls);

  // An idle service worker that has run parallel regions of its own: the
  // tune of a matrix above ParallelConvertGrain converts and extracts
  // features with its team.
  TuningService<double> Service{Smat<double>(LearningModel())};
  AsyncSpmv<double> Warm = Service.tuneAsync(banded(20000, 3));
  if (!Warm.waitTuned(60.0)) {
    std::fprintf(stderr, "service tune failed: %s\n", Warm.error().c_str());
    return 1;
  }
  measure("with a live TuningService's idle second team", Points, Calls);
  return 0;
}
