//===- features/FeatureExtractor.cpp - Table-2 feature parameters ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "features/FeatureExtractor.h"

#include "matrix/FormatConvert.h"
#include "support/Compiler.h"
#include "support/Slices.h"
#include "support/Stats.h"
#include "support/Str.h"

#include <algorithm>
#include <cmath>

using namespace smat;

const char *smat::featureName(int Index) {
  switch (Index) {
  case FeatM:
    return "M";
  case FeatN:
    return "N";
  case FeatNdiags:
    return "Ndiags";
  case FeatNTdiagsRatio:
    return "NTdiags_ratio";
  case FeatNnz:
    return "NNZ";
  case FeatMaxRd:
    return "max_RD";
  case FeatAverRd:
    return "aver_RD";
  case FeatVarRd:
    return "var_RD";
  case FeatErDia:
    return "ER_DIA";
  case FeatErEll:
    return "ER_ELL";
  case FeatErBsr:
    return "ER_BSR";
  case FeatR:
    return "R";
  }
  smatUnreachable("invalid feature index");
}

std::string FeatureVector::toString() const {
  return formatString(
      "{M=%g N=%g Ndiags=%g NTdiags_ratio=%.3f NNZ=%g max_RD=%g aver_RD=%.3f "
      "var_RD=%.3f ER_DIA=%.3f ER_ELL=%.3f ER_BSR=%.3f R=%s}",
      M, N, Ndiags, NTdiagsRatio, Nnz, MaxRd, AverRd, VarRd, ErDia, ErEll,
      ErBsr, R >= FeatureInf ? "inf" : formatString("%.3f", R).c_str());
}

template <typename T>
FeatureVector smat::extractStructureFeatures(const CsrMatrix<T> &A) {
  FeatureVector F;
  F.M = static_cast<double>(A.NumRows);
  F.N = static_cast<double>(A.NumCols);
  F.Nnz = static_cast<double>(A.nnz());

  if (A.NumRows == 0) {
    F.AverRd = F.MaxRd = F.VarRd = 0;
    return F;
  }

  // Nonzero distribution, from RowPtr. The degrees sum to NNZ; the
  // variance runs on the planRowBounds slices and adds their partials in
  // slice order, so it does not depend on the team size, and a matrix below
  // the grain (one slice) sums its rows in row order.
  F.AverRd = F.Nnz / F.M;
  F.MaxRd = static_cast<double>(maxRowDegree(A));
  const double AverRd = F.AverRd;
  auto SquaredDeviations = [&A, AverRd](index_t, index_t Begin, index_t End) {
    double Sum = 0;
    for (index_t Row = Begin; Row < End; ++Row) {
      double Delta = static_cast<double>(A.rowDegree(Row)) - AverRd;
      Sum += Delta * Delta;
    }
    return Sum;
  };
  F.VarRd = sumSlices(planRowBounds(A, 1), SquaredDeviations) / F.M;

  // Diagonal situation: Ndiags and the "true diagonal" ratio. A diagonal is
  // "true" when it is mostly occupied (>= TrueDiagOccupancy of its length).
  // The per-diagonal counts are csrToDia's (per-slice partials).
  const DiagonalCounts Diags = countDiagonals(A);
  index_t Ndiags = 0, TrueDiags = 0;
  for (std::size_t I = 0; I != Diags.Counts.size(); ++I) {
    if (Diags.Counts[I] == 0)
      continue;
    ++Ndiags;
    index_t Offset = Diags.First + static_cast<index_t>(I);
    index_t Length = std::min(A.NumRows, A.NumCols - Offset) -
                     std::max(index_t(0), -Offset);
    if (Length > 0 && static_cast<double>(Diags.Counts[I]) >=
                          TrueDiagOccupancy * static_cast<double>(Length))
      ++TrueDiags;
  }
  F.Ndiags = static_cast<double>(Ndiags);
  F.NTdiagsRatio =
      Ndiags > 0 ? static_cast<double>(TrueDiags) / static_cast<double>(Ndiags)
                 : 0.0;

  F.ErDia = (Ndiags > 0 && F.M > 0) ? F.Nnz / (F.Ndiags * F.M) : 0.0;
  F.ErEll = (F.MaxRd > 0 && F.M > 0) ? F.Nnz / (F.MaxRd * F.M) : 0.0;

  // BSR fill efficiency for the canonical 4x4 tiling (the extension
  // format's signature feature; one extra O(nnz) pass).
  if (F.Nnz > 0) {
    std::int64_t Blocks = countOccupiedBlocks(A, 4);
    F.ErBsr = Blocks > 0 ? F.Nnz / (static_cast<double>(Blocks) * 16.0) : 0.0;
  }
  return F;
}

template <typename T>
void smat::extractPowerLawFeature(const CsrMatrix<T> &A,
                                  FeatureVector &Features) {
  Features.R = FeatureInf;
  if (A.NumRows == 0 || A.nnz() == 0)
    return;

  // Degree histogram P(k): Count[k] rows of degree k (no degree exceeds
  // max_RD, which is at most NNZ).
  std::vector<index_t> Count(static_cast<std::size_t>(maxRowDegree(A)) + 1,
                             0);
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    ++Count[static_cast<std::size_t>(A.rowDegree(Row))];

  // The (k, P(k)) pairs for k >= 1, in ascending k.
  std::vector<double> LogK, LogP;
  double Rows = static_cast<double>(A.NumRows);
  for (std::size_t Deg = 1; Deg < Count.size(); ++Deg) {
    if (Count[Deg] == 0)
      continue;
    LogK.push_back(std::log(static_cast<double>(Deg)));
    LogP.push_back(std::log(static_cast<double>(Count[Deg]) / Rows));
  }
  // A power law needs a spread of degrees; near-regular matrices have no
  // scale-free structure at all -> "inf", exactly like the paper's t2d_q9
  // training record.
  if (LogK.size() < 3)
    return;

  double Slope = 0, Intercept = 0;
  if (!leastSquaresFit(LogK, LogP, Slope, Intercept))
    return;

  // Require the fit to actually explain the distribution (R^2 >= 0.5);
  // otherwise the degree structure is not scale-free.
  double MeanLogP = mean(LogP);
  double SsTot = 0, SsRes = 0;
  for (std::size_t I = 0; I != LogK.size(); ++I) {
    double Fit = Slope * LogK[I] + Intercept;
    SsTot += (LogP[I] - MeanLogP) * (LogP[I] - MeanLogP);
    SsRes += (LogP[I] - Fit) * (LogP[I] - Fit);
  }
  if (SsTot <= 0 || SsRes / SsTot > 0.5)
    return;
  double R = -Slope;
  if (R <= 0) // Degrees growing more frequent with size: not a power law.
    return;
  Features.R = R;
}

template FeatureVector smat::extractStructureFeatures(const CsrMatrix<float> &);
template FeatureVector smat::extractStructureFeatures(const CsrMatrix<double> &);
template void smat::extractPowerLawFeature(const CsrMatrix<float> &,
                                           FeatureVector &);
template void smat::extractPowerLawFeature(const CsrMatrix<double> &,
                                           FeatureVector &);
