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
  /// Optional per-row packed lengths (size NumRows, or empty). csrToEll
  /// fills it; hand-built ELL may leave it empty, in which case the sliced
  /// load-balanced kernels (PrecondRowLengths) are not eligible.
  AlignedVector<index_t> RowLen;

  /// \returns the number of *structural* nonzeros (excluding padding).
  std::int64_t nnz() const { return TrueNnz; }

  /// Whether the per-row length sidecar is present (PrecondRowLengths).
  bool hasRowLengths() const {
    return RowLen.size() == static_cast<std::size_t>(NumRows);
  }

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
    if (Indices.size() != Expected || Data.size() != Expected)
      return false;
    for (index_t Col : Indices)
      if (Col < 0 || Col >= NumCols)
        return false;
    // RowLen is optional, but when present it must cover every row and stay
    // within the packed width.
    if (!RowLen.empty()) {
      if (RowLen.size() != static_cast<std::size_t>(NumRows))
        return false;
      for (index_t Len : RowLen)
        if (Len < 0 || Len > Width)
          return false;
    }
    return true;
  }
};

} // namespace smat

#endif // SMAT_MATRIX_ELLMATRIX_H
