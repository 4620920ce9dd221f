//===- kernels/Scoreboard.h - Kernel search (paper Sec. 5.2) ----*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scoreboard kernel search of paper Section 5.2: all implementations of
/// a format are run on a probe matrix and recorded in a performance table;
/// each optimization strategy is scored +1/-1 (or neglected when the gap is
/// below 0.01 GFLOPS) by comparing implementations that differ in exactly
/// that strategy; the implementation whose strategy-score sum is highest is
/// selected as the format's optimal kernel on this architecture.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_KERNELS_SCOREBOARD_H
#define SMAT_KERNELS_SCOREBOARD_H

#include "kernels/KernelRegistry.h"
#include "matrix/Format.h"
#include "support/AlignedAlloc.h"
#include "support/Timer.h"

#include <array>
#include <string>
#include <vector>

namespace smat {

/// One row of the scoreboard's performance record table.
struct KernelMeasurement {
  std::string Name;
  unsigned Flags = 0;
  double Gflops = 0.0;
};

/// Output of the scoreboard algorithm for one format.
struct ScoreboardResult {
  /// Summed votes per optimization strategy bit.
  std::array<int, NumOptStrategies> StrategyScores{};
  /// Strategy bits whose measured effect never exceeded the neglect gap.
  std::array<bool, NumOptStrategies> Neglected{};
  /// Per-implementation score (sum of its strategies' scores).
  std::vector<int> KernelScores;
  /// Index of the selected implementation in the measurement list. Entries
  /// recorded at zero GFLOPS (unmeasured: precondition violation, fault or
  /// watchdog abort, expired budget) are never selected; when the whole
  /// table is unmeasured this stays the basic entry.
  int BestIndex = 0;
};

/// Runs the scoreboard algorithm over a measured performance table.
/// \p NoEffectGap is the paper's 0.01 (GFLOPS) neglect threshold.
/// The table must contain exactly one basic (Flags == 0) entry.
ScoreboardResult runScoreboard(const std::vector<KernelMeasurement> &Table,
                               double NoEffectGap = 0.01);

/// Measures every kernel of one format on one matrix and returns the
/// performance record table. MatrixT/FnT pairs are (CsrMatrix, CsrKernelFn)
/// and so on.
///
/// Resilience: a kernel that throws during measurement is recorded at zero
/// GFLOPS (never selectable) instead of aborting the search, and once
/// \p BudgetSeconds (0 = unlimited) of wall clock is spent the remaining
/// kernels are recorded unmeasured at zero GFLOPS. Indices always stay
/// aligned with the kernel list.
template <typename T, typename MatrixT, typename FnT>
std::vector<KernelMeasurement>
measureKernelTable(const std::vector<Kernel<FnT>> &Kernels, const MatrixT &A,
                   double MinSeconds = 2e-3, double BudgetSeconds = 0.0) {
  AlignedVector<T> X(static_cast<std::size_t>(A.NumCols), T(1));
  AlignedVector<T> Y(static_cast<std::size_t>(A.NumRows), T(0));
  for (std::size_t I = 0; I != X.size(); ++I)
    X[I] = T(0.01) * static_cast<T>(I % 100) - T(0.5);

  WallTimer Budget;
  std::vector<KernelMeasurement> Table;
  Table.reserve(Kernels.size());
  for (const Kernel<FnT> &K : Kernels) {
    // A kernel whose declared precondition the probe violates is never run:
    // it is recorded at zero GFLOPS (indices must stay aligned with the
    // kernel list) so the scoreboard cannot select it for this input.
    if (!kernelPrecondsHold(K.Preconds, A)) {
      Table.push_back({K.Name, K.Flags, 0.0});
      continue;
    }
    if (BudgetSeconds > 0.0 && Budget.seconds() >= BudgetSeconds) {
      Table.push_back({K.Name, K.Flags, 0.0});
      continue;
    }
    try {
      double Seconds = measureSecondsPerCall(
          [&] {
            fault::injectKernelFault("scoreboard.kernel");
            K.Fn(A, X.data(), Y.data());
          },
          MinSeconds);
      Table.push_back({K.Name, K.Flags,
                       spmvGflops(static_cast<std::uint64_t>(A.nnz()),
                                  Seconds)});
    } catch (...) {
      // A throwing kernel scores zero; the scoreboard will not pick it.
      Table.push_back({K.Name, K.Flags, 0.0});
    }
  }
  return Table;
}

/// Measures every SpMM kernel of one format on one matrix at batch width
/// \p Width and returns the performance record table. GFLOPS are effective:
/// 2 * nnz * Width flops per call. Same resilience contract as
/// measureKernelTable.
template <typename T, typename MatrixT, typename FnT>
std::vector<KernelMeasurement>
measureSpmmKernelTable(const std::vector<Kernel<FnT>> &Kernels,
                       const MatrixT &A, index_t Width,
                       double MinSeconds = 2e-3, double BudgetSeconds = 0.0) {
  AlignedVector<T> X(static_cast<std::size_t>(A.NumCols) *
                         static_cast<std::size_t>(Width),
                     T(1));
  AlignedVector<T> Y(static_cast<std::size_t>(A.NumRows) *
                         static_cast<std::size_t>(Width),
                     T(0));
  for (std::size_t I = 0; I != X.size(); ++I)
    X[I] = T(0.01) * static_cast<T>(I % 100) - T(0.5);

  WallTimer Budget;
  std::vector<KernelMeasurement> Table;
  Table.reserve(Kernels.size());
  for (const Kernel<FnT> &K : Kernels) {
    if (!kernelPrecondsHold(K.Preconds, A)) {
      Table.push_back({K.Name, K.Flags, 0.0});
      continue;
    }
    if (BudgetSeconds > 0.0 && Budget.seconds() >= BudgetSeconds) {
      Table.push_back({K.Name, K.Flags, 0.0});
      continue;
    }
    try {
      double Seconds = measureSecondsPerCall(
          [&] {
            fault::injectKernelFault("scoreboard.kernel");
            K.Fn(A, X.data(), Y.data(), Width);
          },
          MinSeconds);
      Table.push_back({K.Name, K.Flags,
                       spmvGflops(static_cast<std::uint64_t>(A.nnz()) *
                                      static_cast<std::uint64_t>(Width),
                                  Seconds)});
    } catch (...) {
      Table.push_back({K.Name, K.Flags, 0.0});
    }
  }
  return Table;
}

/// Row-length coefficient of variation (sqrt(var_RD)/aver_RD) above which
/// the runtime considers a matrix skewed and binds the skew-selected CSR
/// kernel (KernelSelection::BestSkewCsrKernel) instead of the general one.
inline constexpr double SkewRowCvThreshold = 1.0;

/// The register-tile widths the SpMM scoreboard searches. Other batch
/// widths route to a bucket via spmmWidthIndex.
inline constexpr std::array<index_t, 4> SpmmSearchWidths = {2, 4, 8, 16};
inline constexpr int NumSpmmWidths =
    static_cast<int>(SpmmSearchWidths.size());

/// Index into SpmmSearchWidths of the bucket serving batch width \p K:
/// the smallest searched width >= K, saturating at the widest tile.
inline int spmmWidthIndex(index_t K) {
  for (int W = 0; W < NumSpmmWidths; ++W)
    if (K <= SpmmSearchWidths[static_cast<std::size_t>(W)])
      return W;
  return NumSpmmWidths - 1;
}

/// The per-format kernels selected by the scoreboard on this machine.
struct KernelSelection {
  std::array<int, NumFormats> BestKernel{}; ///< Indexed by FormatKind.
  std::array<std::string, NumFormats> BestKernelName{};
  /// CSR kernel for heavily skewed row-length distributions, selected by a
  /// second scoreboard pass on a power-law probe (where long rows change
  /// how the serial kernels rank). -1 = not searched; the runtime then uses
  /// BestKernel[CSR] everywhere.
  int BestSkewCsrKernel = -1;
  std::string BestSkewCsrKernelName;

  /// Per-width SpMM kernel picks, indexed [FormatKind][SpmmSearchWidths
  /// slot]. -1 = that width was not searched; the runtime then binds the
  /// basic SpMM kernel of the format. BSR has no SpMM family, so its row
  /// stays unsearched.
  std::array<std::array<int, NumSpmmWidths>, NumFormats> BestSpmmKernel = {
      {{{-1, -1, -1, -1}},
       {{-1, -1, -1, -1}},
       {{-1, -1, -1, -1}},
       {{-1, -1, -1, -1}},
       {{-1, -1, -1, -1}}}};
  std::array<std::array<std::string, NumSpmmWidths>, NumFormats>
      BestSpmmKernelName{};

  /// The CSR kernel index to bind for a matrix with row-length coefficient
  /// of variation \p RowCv.
  int csrKernelFor(double RowCv) const {
    int Base = BestKernel[static_cast<int>(FormatKind::CSR)];
    return (BestSkewCsrKernel >= 0 && RowCv > SkewRowCvThreshold)
               ? BestSkewCsrKernel
               : Base;
  }

  /// The SpMM kernel index (into the format's SpMM list) to bind for batch
  /// width \p K, or -1 when that width bucket was never searched.
  int spmmKernelFor(FormatKind Kind, index_t K) const {
    return BestSpmmKernel[static_cast<std::size_t>(Kind)]
                         [static_cast<std::size_t>(spmmWidthIndex(K))];
  }
};

/// Runs the full off-line kernel search: builds one format-friendly probe
/// matrix per format, measures every implementation, and applies the
/// scoreboard. Deterministic probes; \p MinSeconds controls measurement
/// cost. \p BudgetSeconds (0 = unlimited) bounds the whole search: the
/// budget is split evenly across the five formats, and a format whose share
/// expires keeps its basic kernel.
template <typename T>
KernelSelection searchOptimalKernels(double MinSeconds = 2e-3,
                                     double BudgetSeconds = 0.0);

extern template KernelSelection searchOptimalKernels<float>(double, double);
extern template KernelSelection searchOptimalKernels<double>(double, double);

} // namespace smat

#endif // SMAT_KERNELS_SCOREBOARD_H
