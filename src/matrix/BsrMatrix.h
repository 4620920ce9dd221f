//===- matrix/BsrMatrix.h - Block compressed sparse row matrix --*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BSR (block compressed sparse row) storage: the BCSR blocking variant the
/// paper lists in Section 2.1 and OSKI builds on, implemented here as
/// SMAT's extension format (contribution 3: "users can add not only new
/// formats and novel implementations ..."). The matrix is tiled into
/// BlockSize x BlockSize dense blocks; occupied blocks are stored densely
/// (row-major within the block) under a CSR-like block-row index.
///
/// Matrices whose dimensions are not multiples of BlockSize are padded
/// *logically*: edge blocks are stored in full with explicit zeros, and the
/// kernels clamp their row/column loops so no out-of-bounds X/Y access ever
/// happens.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_BSRMATRIX_H
#define SMAT_MATRIX_BSRMATRIX_H

#include "matrix/Format.h"
#include "support/AlignedAlloc.h"

#include <cassert>
#include <cstdint>

namespace smat {

/// A sparse matrix in BSR format.
template <typename T> struct BsrMatrix {
  static constexpr FormatKind Format = FormatKind::BSR;
  index_t NumRows = 0;       ///< Scalar rows.
  index_t NumCols = 0;       ///< Scalar columns.
  index_t BlockSize = 1;     ///< Block edge length (square blocks).
  std::int64_t TrueNnz = 0;  ///< Scalar nonzeros before zero-fill.
  AlignedVector<index_t> RowPtr; ///< Size numBlockRows() + 1.
  AlignedVector<index_t> ColIdx; ///< Block-column index per stored block.
  AlignedVector<T> Values; ///< BlockSize^2 values per block, row-major.

  /// \returns the number of block rows (ceil division).
  index_t numBlockRows() const {
    return BlockSize > 0 ? (NumRows + BlockSize - 1) / BlockSize : 0;
  }

  /// \returns the number of block columns (ceil division).
  index_t numBlockCols() const {
    return BlockSize > 0 ? (NumCols + BlockSize - 1) / BlockSize : 0;
  }

  /// \returns the number of stored blocks.
  std::int64_t numBlocks() const {
    return RowPtr.empty() ? 0 : static_cast<std::int64_t>(RowPtr.back());
  }

  /// \returns the number of *structural* nonzeros (excluding block padding).
  std::int64_t nnz() const { return TrueNnz; }

  /// \returns total stored scalar elements, block padding included.
  std::int64_t storedElements() const {
    return numBlocks() * BlockSize * BlockSize;
  }

  /// Structural validity check; O(blocks).
  bool isValid() const {
    if (NumRows < 0 || NumCols < 0 || BlockSize < 1 || TrueNnz < 0)
      return false;
    if (RowPtr.size() != static_cast<std::size_t>(numBlockRows()) + 1)
      return false;
    if (!RowPtr.empty() && RowPtr.front() != 0)
      return false;
    for (std::size_t I = 1; I < RowPtr.size(); ++I)
      if (RowPtr[I - 1] > RowPtr[I])
        return false;
    std::size_t Blocks = static_cast<std::size_t>(numBlocks());
    if (ColIdx.size() != Blocks)
      return false;
    if (Values.size() != Blocks * static_cast<std::size_t>(BlockSize) *
                             static_cast<std::size_t>(BlockSize))
      return false;
    for (index_t Col : ColIdx)
      if (Col < 0 || Col >= numBlockCols())
        return false;
    return true;
  }
};

} // namespace smat

#endif // SMAT_MATRIX_BSRMATRIX_H
