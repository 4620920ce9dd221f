//===- matrix/CooMatrix.h - Coordinate format matrix ------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// COO (coordinate) storage: explicit row and column index per nonzero
/// (paper Figure 2b). The paper notes COO usually wins on large scale-free
/// graph matrices.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_COOMATRIX_H
#define SMAT_MATRIX_COOMATRIX_H

#include "matrix/Format.h"
#include "support/AlignedAlloc.h"

#include <cassert>
#include <cstdint>

namespace smat {

/// A sparse matrix in COO format. Entries are kept in row-major order (rows
/// ascending, columns ascending within a row) by every builder in this
/// library; kernels that need that property assert it in tests.
template <typename T> struct CooMatrix {
  static constexpr FormatKind Format = FormatKind::COO;
  index_t NumRows = 0;
  index_t NumCols = 0;
  AlignedVector<index_t> Rows;
  AlignedVector<index_t> Cols;
  AlignedVector<T> Values;

  /// \returns the number of stored nonzero entries.
  std::int64_t nnz() const { return static_cast<std::int64_t>(Values.size()); }

  /// Structural validity check; O(nnz).
  bool isValid() const {
    if (NumRows < 0 || NumCols < 0)
      return false;
    if (Rows.size() != Values.size() || Cols.size() != Values.size())
      return false;
    for (std::size_t I = 0; I != Rows.size(); ++I)
      if (Rows[I] < 0 || Rows[I] >= NumRows || Cols[I] < 0 ||
          Cols[I] >= NumCols)
        return false;
    return true;
  }

  /// \returns true when entries are sorted row-major with unique positions.
  bool isSortedRowMajor() const {
    for (std::size_t I = 1; I < Rows.size(); ++I) {
      if (Rows[I - 1] > Rows[I])
        return false;
      if (Rows[I - 1] == Rows[I] && Cols[I - 1] >= Cols[I])
        return false;
    }
    return true;
  }
};

} // namespace smat

#endif // SMAT_MATRIX_COOMATRIX_H
