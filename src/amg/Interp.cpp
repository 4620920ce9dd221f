//===- amg/Interp.cpp - Direct interpolation ------------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/Interp.h"

#include "amg/CsrBySlices.h"
#include "matrix/FormatConvert.h"

#include <cmath>

using namespace smat;

CsrMatrix<double> smat::directInterpolation(const CsrMatrix<double> &A,
                                            const CsrMatrix<double> &S,
                                            const std::vector<CfPoint> &Split) {
  index_t N = A.NumRows;
  assert(Split.size() == static_cast<std::size_t>(N) &&
         "splitting size mismatch");

  // Coarse numbering.
  std::vector<index_t> CoarseId(static_cast<std::size_t>(N), -1);
  index_t NumCoarse = 0;
  for (index_t I = 0; I < N; ++I)
    if (Split[static_cast<std::size_t>(I)] == CfPoint::C)
      CoarseId[static_cast<std::size_t>(I)] = NumCoarse++;

  // Calls Entry(CoarseCol, Weight) for each entry of P's row Row: a C
  // point injects; an F point interpolates from its strong C neighbours,
  // found through StrongCMark, which marks them with the row id.
  auto ForEachEntry = [&](index_t Row, index_t *StrongCMark, auto &&Entry) {
    if (Split[static_cast<std::size_t>(Row)] == CfPoint::C) {
      Entry(CoarseId[static_cast<std::size_t>(Row)], 1.0);
      return;
    }

    // Strong C neighbours of this F row.
    for (index_t J = S.RowPtr[Row]; J < S.RowPtr[Row + 1]; ++J) {
      index_t Col = S.ColIdx[J];
      if (Split[static_cast<std::size_t>(Col)] == CfPoint::C)
        StrongCMark[Col] = Row;
    }

    double Diag = 0.0, OffDiagSum = 0.0, StrongCSum = 0.0;
    for (index_t J = A.RowPtr[Row]; J < A.RowPtr[Row + 1]; ++J) {
      index_t Col = A.ColIdx[J];
      double Val = A.Values[J];
      if (Col == Row) {
        Diag = Val;
        continue;
      }
      OffDiagSum += Val;
      if (StrongCMark[Col] == Row)
        StrongCSum += Val;
    }

    // Truly isolated F row (enforceInterpolationCover guarantees donors for
    // every connected F point): contributes no coarse correction.
    if (StrongCSum == 0.0 || Diag == 0.0)
      return;

    double Alpha = OffDiagSum / StrongCSum;
    for (index_t J = A.RowPtr[Row]; J < A.RowPtr[Row + 1]; ++J) {
      index_t Col = A.ColIdx[J];
      if (Col == Row || StrongCMark[Col] != Row)
        continue;
      double Weight = -Alpha * A.Values[J] / Diag;
      if (Weight == 0.0)
        continue;
      Entry(CoarseId[static_cast<std::size_t>(Col)], Weight);
    }
  };

  // One mark array per slice, allocated here. Both passes mark the same
  // columns of a row with its id, so the fill pass may find the count
  // pass's marks and reads the same set.
  const std::vector<index_t> Bounds = planRowBounds(A, 1);
  std::vector<std::vector<index_t>> Marks(
      Bounds.size() - 1, std::vector<index_t>(static_cast<std::size_t>(N), -1));
  return csrBySlices<double>(
      N, NumCoarse, Bounds,
      [&](index_t Slice, index_t Row) {
        index_t Len = 0;
        ForEachEntry(Row, Marks[static_cast<std::size_t>(Slice)].data(),
                     [&](index_t, double) { ++Len; });
        return Len;
      },
      [&](index_t Slice, index_t Row, index_t *Cols, double *Vals) {
        index_t Len = 0;
        ForEachEntry(Row, Marks[static_cast<std::size_t>(Slice)].data(),
                     [&](index_t Col, double Weight) {
                       Cols[Len] = Col;
                       Vals[Len++] = Weight;
                     });
        return Len;
      });
}
