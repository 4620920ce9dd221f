//===- kernels/Scoreboard.h - The scoreboard (paper Sec. 5.2) ---*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scoreboard of paper Section 5.2 and the kernel picks it produces.
/// Given a performance table of one format's implementations on a probe
/// matrix, each optimization strategy is scored +1/-1 (or neglected when
/// the gap is below 0.01 GFLOPS) by comparing implementations that differ
/// in exactly that strategy; the implementation whose strategy-score sum is
/// highest is selected as the format's optimal kernel on this architecture.
/// Nothing here times a kernel: the kernel search (core/Trainer.h) fills
/// the table by timing each kernel as the plan that binds it.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_KERNELS_SCOREBOARD_H
#define SMAT_KERNELS_SCOREBOARD_H

#include "kernels/KernelRegistry.h"
#include "matrix/Format.h"

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
  /// recorded at zero GFLOPS (unmeasured: a plan that bound another kernel,
  /// a declined conversion, a fault) are never selected; when the whole
  /// table is unmeasured this stays the basic entry.
  int BestIndex = 0;
};

/// Runs the scoreboard algorithm over a measured performance table.
/// \p NoEffectGap is the paper's 0.01 (GFLOPS) neglect threshold.
/// The table must contain exactly one basic (Flags == 0) entry.
ScoreboardResult runScoreboard(const std::vector<KernelMeasurement> &Table,
                               double NoEffectGap = 0.01);

/// Row-length coefficient of variation (sqrt(var_RD)/aver_RD) above which
/// the runtime considers a matrix skewed and binds the skew-selected CSR
/// kernel (KernelSelection::BestSkewCsrKernel) instead of the general one.
inline constexpr double SkewRowCvThreshold = 1.0;

/// The per-format kernels selected by the scoreboard on this machine.
struct KernelSelection {
  std::array<int, NumFormats> BestKernel{}; ///< Indexed by FormatKind.
  std::array<std::string, NumFormats> BestKernelName{};
  /// CSR kernel for heavily skewed row-length distributions, selected by a
  /// second scoreboard pass on a power-law probe (where long rows change
  /// how the CSR kernels rank). -1 = not searched; the runtime then uses
  /// BestKernel[CSR] everywhere.
  int BestSkewCsrKernel = -1;
  std::string BestSkewCsrKernelName;

  /// SpMM kernel picks (index into the format's SpMM list), indexed by
  /// FormatKind and searched at batch width 8. -1 = not searched; the
  /// runtime then binds the format's basic SpMM kernel. BSR has no SpMM
  /// family, so its pick stays -1.
  std::array<int, NumFormats> BestSpmmKernel = {-1, -1, -1, -1, -1};
  std::array<std::string, NumFormats> BestSpmmKernelName{};

  /// The CSR kernel index to bind for a matrix with row-length coefficient
  /// of variation \p RowCv.
  int csrKernelFor(double RowCv) const {
    int Base = BestKernel[static_cast<int>(FormatKind::CSR)];
    return (BestSkewCsrKernel >= 0 && RowCv > SkewRowCvThreshold)
               ? BestSkewCsrKernel
               : Base;
  }
};

} // namespace smat

#endif // SMAT_KERNELS_SCOREBOARD_H
