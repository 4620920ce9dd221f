//===- amg/CsrBySlices.h - Build a CSR matrix on row slices -----*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-pass row build the AMG setup's row passes share (both products
/// of the Galerkin triple product, the strength graph, direct
/// interpolation and the Galerkin drop). The output rows run as row slices
/// on the slice runner (support/Slices.h): the first pass counts each
/// row's entries, the calling thread then prefixes the row pointer and
/// allocates the output, and the second pass fills each row's range of it.
/// A row's entries come out exactly as a serial loop over the rows would
/// write them, so the matrix does not depend on the slices. Whatever
/// scratch a pass needs per slice (markers, accumulators) is allocated by
/// the caller before the passes, so nothing allocates inside a parallel
/// region.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_CSRBYSLICES_H
#define SMAT_AMG_CSRBYSLICES_H

#include "matrix/CsrMatrix.h"
#include "support/Slices.h"

#include <vector>

namespace smat {

/// Builds a \p NumRows x \p NumCols CSR matrix on the row slices \p Bounds.
/// \p Count(S, Row) \returns how many entries row Row holds; \p Fill(S, Row,
/// Cols, Vals) writes them to Cols[0..) and Vals[0..) and \returns how many
/// it wrote, which must equal the count. S is the slice that runs the row,
/// so a pass may use per-slice scratch.
template <typename T, typename CountFn, typename FillFn>
CsrMatrix<T> csrBySlices(index_t NumRows, index_t NumCols,
                         const std::vector<index_t> &Bounds, CountFn &&Count,
                         FillFn &&Fill) {
  CsrMatrix<T> C(NumRows, NumCols);
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    for (index_t Row = Begin; Row < End; ++Row)
      C.RowPtr[Row + 1] = Count(S, Row);
  });
  for (index_t Row = 0; Row < NumRows; ++Row)
    C.RowPtr[Row + 1] += C.RowPtr[Row];
  C.ColIdx.resize(static_cast<std::size_t>(C.nnz()));
  C.Values.resize(static_cast<std::size_t>(C.nnz()));
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    for (index_t Row = Begin; Row < End; ++Row) {
      [[maybe_unused]] index_t Written =
          Fill(S, Row, C.ColIdx.data() + C.RowPtr[Row],
               C.Values.data() + C.RowPtr[Row]);
      assert(Written == C.rowDegree(Row) && "fill must write what it counted");
    }
  });
  return C;
}

} // namespace smat

#endif // SMAT_AMG_CSRBYSLICES_H
