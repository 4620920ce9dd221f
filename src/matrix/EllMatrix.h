//===- matrix/EllMatrix.h - ELLPACK format matrix ---------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ELL (ELLPACK) storage (paper Figure 2d): all nonzeros are packed towards
/// the left and the resulting dense NumRows x Width matrix is stored
/// column-major. Short rows are padded, which is what the ER_ELL and var_RD
/// features quantify.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_ELLMATRIX_H
#define SMAT_MATRIX_ELLMATRIX_H

#include "matrix/Format.h"
#include "support/AlignedAlloc.h"

#include <cassert>
#include <cstdint>

namespace smat {

/// A sparse matrix in ELL format.
///
/// Data layout matches the paper's kernel: the \p C-th packed entry of row
/// \p Row lives at Data[C * NumRows + Row] (column-major). Padding entries
/// store value 0 with column index 0, so they are numerically harmless.
template <typename T> struct EllMatrix {
  static constexpr FormatKind Format = FormatKind::ELL;
  index_t NumRows = 0;
  index_t NumCols = 0;
  index_t Width = 0;              ///< max_RD: packed row length.
  std::int64_t TrueNnz = 0;       ///< Nonzeros before zero-fill.
  AlignedVector<index_t> Indices; ///< Size Width * NumRows, column-major.
  AlignedVector<T> Data;          ///< Size Width * NumRows, column-major.
  /// Per-row packed lengths, size NumRows, each within Width. The sliced
  /// load-balanced kernels sweep a row only this far.
  AlignedVector<index_t> RowLen;

  /// \returns the number of *structural* nonzeros (excluding padding).
  std::int64_t nnz() const { return TrueNnz; }

  /// \returns total stored elements, padding included.
  std::int64_t storedElements() const {
    return static_cast<std::int64_t>(Width) * NumRows;
  }

  /// Structural validity check; O(stored elements).
  bool isValid() const {
    if (NumRows < 0 || NumCols < 0 || Width < 0 || TrueNnz < 0)
      return false;
    std::size_t Expected =
        static_cast<std::size_t>(Width) * static_cast<std::size_t>(NumRows);
    if (Indices.size() != Expected || Data.size() != Expected ||
        RowLen.size() != static_cast<std::size_t>(NumRows))
      return false;
    for (index_t Col : Indices)
      if (Col < 0 || Col >= NumCols)
        return false;
    for (index_t Len : RowLen)
      if (Len < 0 || Len > Width)
        return false;
    return true;
  }
};

} // namespace smat

#endif // SMAT_MATRIX_ELLMATRIX_H
