//===- matrix/CsrMatrix.h - Compressed sparse row matrix --------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSR (compressed sparse row) storage: the unified input format of SMAT
/// (paper Figure 2a). "RowPtr" stores the beginning position of each row in
/// "ColIdx"/"Values".
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_CSRMATRIX_H
#define SMAT_MATRIX_CSRMATRIX_H

#include "matrix/Format.h"
#include "support/AlignedAlloc.h"

#include <cassert>
#include <cstdint>

namespace smat {

/// A sparse matrix in CSR format with \p T-typed values.
///
/// Invariants (checked by isValid()): RowPtr has NumRows+1 monotonically
/// non-decreasing entries starting at 0; ColIdx/Values have RowPtr.back()
/// entries; all column indices lie in [0, NumCols). Column indices within a
/// row are expected (and produced by all builders here) in ascending order.
template <typename T> struct CsrMatrix {
  static constexpr FormatKind Format = FormatKind::CSR;
  index_t NumRows = 0;
  index_t NumCols = 0;
  AlignedVector<index_t> RowPtr; ///< Size NumRows + 1.
  AlignedVector<index_t> ColIdx; ///< Size nnz().
  AlignedVector<T> Values;       ///< Size nnz().

  CsrMatrix() = default;

  /// Creates an empty matrix with the given shape (all-zero rows).
  CsrMatrix(index_t Rows, index_t Cols)
      : NumRows(Rows), NumCols(Cols),
        RowPtr(static_cast<std::size_t>(Rows) + 1, 0) {
    assert(Rows >= 0 && Cols >= 0 && "negative matrix dimension");
  }

  /// \returns the number of stored nonzero entries.
  std::int64_t nnz() const {
    return RowPtr.empty() ? 0 : static_cast<std::int64_t>(RowPtr.back());
  }

  /// \returns the number of stored entries in row \p Row.
  index_t rowDegree(index_t Row) const {
    assert(Row >= 0 && Row < NumRows && "row out of range");
    return RowPtr[Row + 1] - RowPtr[Row];
  }

  /// Structural validity check; O(nnz).
  bool isValid() const {
    if (NumRows < 0 || NumCols < 0)
      return false;
    if (RowPtr.size() != static_cast<std::size_t>(NumRows) + 1)
      return false;
    if (!RowPtr.empty() && RowPtr.front() != 0)
      return false;
    for (index_t Row = 0; Row < NumRows; ++Row)
      if (RowPtr[Row] > RowPtr[Row + 1])
        return false;
    std::size_t Nnz = RowPtr.empty() ? 0 : static_cast<std::size_t>(RowPtr.back());
    if (ColIdx.size() != Nnz || Values.size() != Nnz)
      return false;
    for (index_t Col : ColIdx)
      if (Col < 0 || Col >= NumCols)
        return false;
    return true;
  }

  /// \returns true when column indices are strictly ascending in every row.
  bool hasSortedRows() const {
    for (index_t Row = 0; Row < NumRows; ++Row)
      for (index_t I = RowPtr[Row] + 1; I < RowPtr[Row + 1]; ++I)
        if (ColIdx[I - 1] >= ColIdx[I])
          return false;
    return true;
  }

  /// \returns the stored value at (Row, Col), or zero if not stored.
  /// O(rowDegree); intended for tests and small matrices.
  T at(index_t Row, index_t Col) const {
    assert(Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols &&
           "index out of range");
    for (index_t I = RowPtr[Row]; I < RowPtr[Row + 1]; ++I)
      if (ColIdx[I] == Col)
        return Values[I];
    return T(0);
  }
};

} // namespace smat

#endif // SMAT_MATRIX_CSRMATRIX_H
