//===- matrix/DiaMatrix.h - Diagonal format matrix --------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DIA (diagonal) storage (paper Figure 2c): nonzeros are stored by the order
/// of diagonals, with "Offsets" recording each diagonal's offset from the
/// principal one. Rows with no entry on a stored diagonal are zero-padded,
/// which is exactly the fill overhead the ER_DIA / NTdiags_ratio features
/// quantify.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_DIAMATRIX_H
#define SMAT_MATRIX_DIAMATRIX_H

#include "matrix/Format.h"
#include "support/AlignedAlloc.h"

#include <cassert>
#include <cstdint>

namespace smat {

/// A sparse matrix in DIA format.
///
/// Data layout matches the paper's kernel: element of diagonal \p D at row
/// \p Row lives at Data[D * Stride + Row], where Stride == NumRows. Only the
/// rows intersecting the matrix for the given offset are meaningful; the rest
/// is zero padding.
template <typename T> struct DiaMatrix {
  static constexpr FormatKind Format = FormatKind::DIA;
  index_t NumRows = 0;
  index_t NumCols = 0;
  std::int64_t TrueNnz = 0;        ///< Nonzeros before zero-fill.
  AlignedVector<index_t> Offsets;  ///< Diagonal offsets (Col - Row), ascending.
  AlignedVector<T> Data;           ///< Size Offsets.size() * NumRows.

  /// \returns the number of stored diagonals.
  index_t numDiags() const { return static_cast<index_t>(Offsets.size()); }

  /// \returns the leading dimension of Data (one diagonal's storage length).
  index_t stride() const { return NumRows; }

  /// \returns the number of *structural* nonzeros (excluding padding).
  std::int64_t nnz() const { return TrueNnz; }

  /// \returns total stored elements, padding included.
  std::int64_t storedElements() const {
    return static_cast<std::int64_t>(Offsets.size()) * NumRows;
  }

  /// Structural validity check; O(numDiags).
  bool isValid() const {
    if (NumRows < 0 || NumCols < 0 || TrueNnz < 0)
      return false;
    if (Data.size() !=
        static_cast<std::size_t>(Offsets.size()) * static_cast<std::size_t>(NumRows))
      return false;
    for (std::size_t I = 0; I != Offsets.size(); ++I) {
      if (Offsets[I] <= -NumRows || Offsets[I] >= NumCols)
        return false;
      if (I > 0 && Offsets[I - 1] >= Offsets[I])
        return false;
    }
    return true;
  }
};

} // namespace smat

#endif // SMAT_MATRIX_DIAMATRIX_H
