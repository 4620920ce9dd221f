//===- amg/Strength.cpp - Strength-of-connection graph --------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/Strength.h"

#include "amg/CsrBySlices.h"
#include "matrix/FormatConvert.h"

#include <algorithm>
#include <cmath>

using namespace smat;

CsrMatrix<double> smat::strengthGraph(const CsrMatrix<double> &A,
                                      double Theta) {
  assert(A.NumRows == A.NumCols && "strength graph needs a square operator");
  // Calls Strong(Col) for each strong connection of Row, in entry order.
  auto ForEachStrong = [&](index_t Row, auto &&Strong) {
    double MaxOffDiag = 0.0;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
      if (A.ColIdx[I] != Row)
        MaxOffDiag = std::max(MaxOffDiag, std::abs(A.Values[I]));
    double Bar = Theta * MaxOffDiag;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
      index_t Col = A.ColIdx[I];
      if (Col == Row || std::abs(A.Values[I]) < Bar || MaxOffDiag == 0.0)
        continue;
      Strong(Col);
    }
  };
  return csrBySlices<double>(
      A.NumRows, A.NumCols, planRowBounds(A, 1),
      [&](index_t, index_t Row) {
        index_t Len = 0;
        ForEachStrong(Row, [&](index_t) { ++Len; });
        return Len;
      },
      [&](index_t, index_t Row, index_t *Cols, double *Vals) {
        index_t Len = 0;
        ForEachStrong(Row, [&](index_t Col) {
          Cols[Len] = Col;
          Vals[Len++] = 1.0;
        });
        return Len;
      });
}
