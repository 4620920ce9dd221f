//===- kernels/Scoreboard.cpp - Kernel search (paper Sec. 5.2) ------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "kernels/Scoreboard.h"

#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "support/Compiler.h"

#include <bit>

using namespace smat;

ScoreboardResult smat::runScoreboard(const std::vector<KernelMeasurement> &Table,
                                     double NoEffectGap) {
  ScoreboardResult Result;
  Result.KernelScores.assign(Table.size(), 0);
  if (Table.empty())
    return Result;

  // Locate the basic implementation.
  int BasicIdx = -1;
  for (std::size_t I = 0; I != Table.size(); ++I)
    if (Table[I].Flags == OptNone)
      BasicIdx = static_cast<int>(I);
  assert(BasicIdx >= 0 && "scoreboard needs a basic (flag-free) entry");

  // Finds the entry with exactly the given flag set; -1 when absent.
  auto FindFlags = [&Table](unsigned Flags) -> int {
    for (std::size_t I = 0; I != Table.size(); ++I)
      if (Table[I].Flags == Flags)
        return static_cast<int>(I);
    return -1;
  };

  // Vote accumulation. Each (implementation, strategy) comparison against the
  // implementation with one less strategy contributes +1, -1, or nothing
  // (gap below the neglect threshold).
  std::array<int, NumOptStrategies> Votes{};
  std::array<bool, NumOptStrategies> SawEffect{};
  for (std::size_t I = 0; I != Table.size(); ++I) {
    unsigned Flags = Table[I].Flags;
    int Bits = std::popcount(Flags);
    if (Bits == 0)
      continue;
    for (unsigned Bit = 0; Bit < NumOptStrategies; ++Bit) {
      if (!(Flags & (1u << Bit)))
        continue;
      unsigned Reduced = Flags & ~(1u << Bit);
      int Reference = Bits == 1 ? BasicIdx : FindFlags(Reduced);
      if (Reference < 0)
        continue; // No one-less-strategy partner in the library.
      double Diff =
          Table[I].Gflops - Table[static_cast<std::size_t>(Reference)].Gflops;
      if (Diff > NoEffectGap) {
        ++Votes[Bit];
        SawEffect[Bit] = true;
      } else if (Diff < -NoEffectGap) {
        --Votes[Bit];
        SawEffect[Bit] = true;
      }
      // else: below the gap — "no effect on this architecture", neglected.
    }
  }
  Result.StrategyScores = Votes;
  for (unsigned Bit = 0; Bit < NumOptStrategies; ++Bit)
    Result.Neglected[Bit] = !SawEffect[Bit];

  // Implementation score: sum of its strategies' scores.
  for (std::size_t I = 0; I != Table.size(); ++I) {
    int Score = 0;
    for (unsigned Bit = 0; Bit < NumOptStrategies; ++Bit)
      if (Table[I].Flags & (1u << Bit))
        Score += Votes[Bit];
    Result.KernelScores[I] = Score;
  }

  // Highest score wins; measured GFLOPS breaks ties. An entry recorded at
  // zero GFLOPS was never successfully measured (precondition violation,
  // fault/watchdog abort, or an expired budget — a real measurement cannot
  // produce exactly zero): it is unselectable no matter how well its
  // strategy bits scored elsewhere, otherwise a partially measured table
  // can crown a kernel that never ran. When nothing measured at all the
  // basic entry stays selected — binding it is always safe.
  int Best = BasicIdx;
  for (std::size_t I = 0; I != Table.size(); ++I) {
    if (Table[I].Gflops <= 0.0)
      continue;
    if (Table[static_cast<std::size_t>(Best)].Gflops <= 0.0) {
      Best = static_cast<int>(I);
      continue;
    }
    int BestScore = Result.KernelScores[static_cast<std::size_t>(Best)];
    if (Result.KernelScores[I] > BestScore ||
        (Result.KernelScores[I] == BestScore &&
         Table[I].Gflops > Table[static_cast<std::size_t>(Best)].Gflops))
      Best = static_cast<int>(I);
  }
  Result.BestIndex = Best;
  return Result;
}

template <typename T>
KernelSelection smat::searchOptimalKernels(double MinSeconds,
                                           double BudgetSeconds) {
  KernelSelection Selection;
  const KernelTable<T> &Kernels = kernelTable<T>();
  // Split the overall budget evenly across the per-format searches (five
  // formats, the skewed CSR pass, and one share per SpMM batch width) so a
  // slow early format cannot starve the later ones completely.
  double FormatBudget =
      BudgetSeconds > 0.0
          ? BudgetSeconds / (NumFormats + 1 + NumSpmmWidths)
          : 0.0;

  // Format-friendly probe structures, all sized to overflow L2 a little so
  // the memory system participates in the measurement.
  CsrMatrix<double> CsrProbeD = blockFem(120, 24, 4.0, 42);
  CsrMatrix<double> CooProbeD = powerLawGraph(20000, 2.2, 1, 64, 43);
  CsrMatrix<double> DiaProbeD = banded(30000, 4);
  CsrMatrix<double> EllProbeD = boundedDegreeRandom(20000, 20000, 6, 6, 44);
  CsrMatrix<double> BsrProbeD = blockFem(1500, 4, 0.0, 45);

  CsrMatrix<T> CsrProbe = convertValueType<T>(CsrProbeD);
  CooMatrix<T> CooProbe = csrToCoo(convertValueType<T>(CooProbeD));
  DiaMatrix<T> DiaProbe;
  bool DiaOk = csrToDia(convertValueType<T>(DiaProbeD), DiaProbe);
  EllMatrix<T> EllProbe;
  bool EllOk = csrToEll(convertValueType<T>(EllProbeD), EllProbe);
  BsrMatrix<T> BsrProbe;
  bool BsrOk = csrToBsr(convertValueType<T>(BsrProbeD), BsrProbe, 4);
  assert(DiaOk && EllOk && BsrOk && "probe matrices must convert losslessly");
  (void)DiaOk;
  (void)EllOk;
  (void)BsrOk;

  auto Pick = [&](FormatKind Kind, auto &KernelList, const auto &Probe) {
    auto Measurements =
        measureKernelTable<T>(KernelList, Probe, MinSeconds, FormatBudget);
    ScoreboardResult Result = runScoreboard(Measurements);
    int Idx = static_cast<int>(Kind);
    Selection.BestKernel[Idx] = Result.BestIndex;
    Selection.BestKernelName[Idx] =
        Measurements[static_cast<std::size_t>(Result.BestIndex)].Name;
  };

  Pick(FormatKind::CSR, Kernels.Csr, CsrProbe);
  Pick(FormatKind::COO, Kernels.Coo, CooProbe);
  Pick(FormatKind::DIA, Kernels.Dia, DiaProbe);
  Pick(FormatKind::ELL, Kernels.Ell, EllProbe);
  Pick(FormatKind::BSR, Kernels.Bsr, BsrProbe);

  // Second CSR pass on a heavily skewed (power-law, row CV > 2) probe: the
  // serial CSR kernels rank differently on long rows than on the balanced
  // FEM probe above, so the skew-bound kernel gets its own scoreboard where
  // long rows actually exist.
  CsrMatrix<double> SkewProbeD = powerLawGraph(30000, 1.8, 1, 3000, 46);
  CsrMatrix<T> SkewProbe = convertValueType<T>(SkewProbeD);
  {
    auto Measurements =
        measureKernelTable<T>(Kernels.Csr, SkewProbe, MinSeconds, FormatBudget);
    ScoreboardResult Result = runScoreboard(Measurements);
    Selection.BestSkewCsrKernel = Result.BestIndex;
    Selection.BestSkewCsrKernelName =
        Measurements[static_cast<std::size_t>(Result.BestIndex)].Name;
  }

  // SpMM pass: one scoreboard per (format, batch width) over the same
  // format-friendly probes. Register-tile payoff is width-dependent (wider
  // tiles raise arithmetic intensity but also register pressure), so each
  // width gets its own pick. Each width's budget share is split across the
  // four SpMM families.
  for (int W = 0; W < NumSpmmWidths; ++W) {
    const index_t Width = SpmmSearchWidths[static_cast<std::size_t>(W)];
    const double FamilyBudget = FormatBudget > 0.0 ? FormatBudget / 4 : 0.0;
    auto PickSpmm = [&](FormatKind Kind, auto &KernelList,
                        const auto &Probe) {
      auto Measurements = measureSpmmKernelTable<T>(KernelList, Probe, Width,
                                                    MinSeconds, FamilyBudget);
      ScoreboardResult Result = runScoreboard(Measurements);
      std::size_t Idx = static_cast<std::size_t>(Kind);
      Selection.BestSpmmKernel[Idx][static_cast<std::size_t>(W)] =
          Result.BestIndex;
      Selection.BestSpmmKernelName[Idx][static_cast<std::size_t>(W)] =
          Measurements[static_cast<std::size_t>(Result.BestIndex)].Name;
    };
    PickSpmm(FormatKind::CSR, Kernels.CsrSpmm, CsrProbe);
    PickSpmm(FormatKind::COO, Kernels.CooSpmm, CooProbe);
    PickSpmm(FormatKind::DIA, Kernels.DiaSpmm, DiaProbe);
    PickSpmm(FormatKind::ELL, Kernels.EllSpmm, EllProbe);
  }
  return Selection;
}

template KernelSelection smat::searchOptimalKernels<float>(double, double);
template KernelSelection smat::searchOptimalKernels<double>(double, double);
