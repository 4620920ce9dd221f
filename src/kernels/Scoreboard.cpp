//===- kernels/Scoreboard.cpp - The scoreboard (paper Sec. 5.2) -----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "kernels/Scoreboard.h"

#include <bit>
#include <cassert>

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
  // zero GFLOPS was never successfully measured (its plan bound another
  // kernel, its conversion was declined or a fault hit it — a real
  // measurement cannot produce exactly zero): it is unselectable no matter
  // how well its strategy bits scored elsewhere, otherwise a partially
  // measured table can crown a kernel that never ran. When nothing measured
  // at all the basic entry stays selected — binding it is always safe.
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
