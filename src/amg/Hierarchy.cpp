//===- amg/Hierarchy.cpp - AMG grid hierarchy -----------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/Hierarchy.h"

#include "amg/Interp.h"
#include "amg/SpGemm.h"
#include "amg/Strength.h"
#include "matrix/FormatConvert.h"

using namespace smat;

namespace {

/// Strength-of-connection threshold.
constexpr double StrengthTheta = 0.25;
constexpr int MaxLevels = 25;
/// Stop when a level has this few rows.
constexpr index_t MinCoarseSize = 64;
/// Stop when coarsening stalls (coarse size > ratio * fine size).
constexpr double MaxCoarseningRatio = 0.9;
/// Level L coarsens with seed Seed + L.
constexpr std::uint64_t Seed = 7;

} // namespace

void AmgHierarchy::build(CsrMatrix<double> A, const HierarchyOptions &Opts) {
  Levels.clear();
  Levels.push_back(AmgLevel{std::move(A), {}, {}});

  while (static_cast<int>(Levels.size()) < MaxLevels) {
    AmgLevel &Fine = Levels.back();
    index_t N = Fine.A.NumRows;
    if (N <= MinCoarseSize)
      break;

    CsrMatrix<double> S = strengthGraph(Fine.A, StrengthTheta);
    std::vector<CfPoint> Split =
        coarsen(S, Opts.Coarsening, Seed + Levels.size());
    index_t NumCoarse = countCoarse(Split);
    if (NumCoarse == 0 ||
        NumCoarse >= static_cast<index_t>(MaxCoarseningRatio *
                                          static_cast<double>(N)))
      break; // Coarsening stalled.

    CsrMatrix<double> P = directInterpolation(Fine.A, S, Split);
    CsrMatrix<double> R = transposeCsr(P);
    CsrMatrix<double> Coarse = galerkinProduct(R, Fine.A, P);

    Fine.P = std::move(P);
    Fine.R = std::move(R);
    Levels.push_back(AmgLevel{std::move(Coarse), {}, {}});
  }
}

double AmgHierarchy::operatorComplexity() const {
  if (Levels.empty() || Levels.front().A.nnz() == 0)
    return 0.0;
  double Total = 0.0;
  for (const AmgLevel &L : Levels)
    Total += static_cast<double>(L.A.nnz());
  return Total / static_cast<double>(Levels.front().A.nnz());
}
