//===- matrix/FormatConvert.h - Conversions between formats -----*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conversions between the four basic storage formats. CSR is the canonical
/// source format (it is SMAT's unified interface); DIA and ELL conversions
/// take explicit fill guards because their zero-padding can explode memory
/// for unsuitable structures — the paper's runtime only attempts them when
/// the fill stays sane.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_FORMATCONVERT_H
#define SMAT_MATRIX_FORMATCONVERT_H

#include "matrix/BsrMatrix.h"
#include "matrix/CooMatrix.h"
#include "matrix/CsrMatrix.h"
#include "matrix/DiaMatrix.h"
#include "matrix/EllMatrix.h"
#include "matrix/Validate.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace smat {

/// Default guards used by the runtime when considering a DIA or ELL
/// conversion: stored elements (incl. padding) may not exceed
/// DefaultMaxFillRatio * nnz, and DIA may not need more than
/// DefaultMaxDiags diagonals.
inline constexpr double DefaultMaxFillRatio = 20.0;
inline constexpr index_t DefaultMaxDiags = 1024;

/// Absolute ceiling on the padded element count any conversion may
/// allocate, applied even when the relative fill guards are disabled: a
/// hostile structure whose Ndiags*M (or Width*M, or Blocks*b^2) product
/// explodes must be rejected — the runtime then binds as CSR — instead of
/// attempting a multi-terabyte allocation.
inline constexpr std::int64_t MaxConvertedElements = std::int64_t(1) << 31;

/// The grain: the nonzero count below which nothing forks an OpenMP team.
/// The converters stay serial below it (forking a team for a matrix this
/// small costs more than the scan itself, and the serial path keeps
/// small-matrix conversions bit-for-bit reproducible across thread counts;
/// plan-cache fingerprints hash converted features), and a plan runs as row
/// slices from it on (core/FormatOperator.h). With one team in the process
/// slicing wins from 8k-16k nonzeros (DESIGN.md section 10), so the grain
/// sits above the crossover.
inline constexpr std::int64_t ParallelConvertGrain = std::int64_t(1) << 15;

/// Builds a CSR matrix from (possibly unsorted, possibly duplicated)
/// triplets. Duplicate coordinates are summed, matching MatrixMarket
/// semantics.
template <typename T>
CsrMatrix<T> csrFromTriplets(index_t NumRows, index_t NumCols,
                             std::vector<index_t> Rows,
                             std::vector<index_t> Cols, std::vector<T> Vals) {
  assert(Rows.size() == Cols.size() && Rows.size() == Vals.size() &&
         "triplet arrays must have equal length");

  std::vector<std::size_t> Order(Rows.size());
  std::iota(Order.begin(), Order.end(), std::size_t{0});
  std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
    if (Rows[A] != Rows[B])
      return Rows[A] < Rows[B];
    return Cols[A] < Cols[B];
  });

  CsrMatrix<T> M(NumRows, NumCols);
  M.ColIdx.reserve(Rows.size());
  M.Values.reserve(Rows.size());
  index_t PrevRow = -1, PrevCol = -1;
  for (std::size_t K : Order) {
    index_t Row = Rows[K], Col = Cols[K];
    assert(Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols &&
           "triplet out of range");
    if (Row == PrevRow && Col == PrevCol) {
      M.Values.back() += Vals[K];
      continue;
    }
    M.ColIdx.push_back(Col);
    M.Values.push_back(Vals[K]);
    ++M.RowPtr[Row + 1];
    PrevRow = Row;
    PrevCol = Col;
  }
  for (index_t Row = 0; Row < NumRows; ++Row)
    M.RowPtr[Row + 1] += M.RowPtr[Row];
  return M;
}

/// CSR -> COO; entries come out with monotone (non-decreasing) row indices
/// by construction, so a COO kernel called on a row range finds its entries
/// by binary search in every COO matrix this function produces.
template <typename T> CooMatrix<T> csrToCoo(const CsrMatrix<T> &A) {
  assert(A.isValid() && "csrToCoo requires a structurally valid CSR matrix");
  fault::injectAllocFailure("convert.coo.alloc");
  CooMatrix<T> B;
  B.NumRows = A.NumRows;
  B.NumCols = A.NumCols;
  std::size_t Nnz = static_cast<std::size_t>(A.nnz());
  B.Rows.resize(Nnz);
  B.Cols.assign(A.ColIdx.begin(), A.ColIdx.end());
  B.Values.assign(A.Values.begin(), A.Values.end());
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
      B.Rows[static_cast<std::size_t>(I)] = Row;
  return B;
}

/// COO -> CSR; sorts and sums duplicates. Precondition: \p A is valid
/// (asserted); untrusted COO goes through tryCooToCsr.
template <typename T> CsrMatrix<T> cooToCsr(const CooMatrix<T> &A) {
  assert(A.isValid() && "cooToCsr requires a structurally valid COO matrix");
  return csrFromTriplets<T>(
      A.NumRows, A.NumCols, std::vector<index_t>(A.Rows.begin(), A.Rows.end()),
      std::vector<index_t>(A.Cols.begin(), A.Cols.end()),
      std::vector<T>(A.Values.begin(), A.Values.end()));
}

/// Validating COO -> CSR for untrusted input: \returns the converted matrix,
/// or the diagnostic naming the violated COO invariant.
template <typename T> Expected<CsrMatrix<T>> tryCooToCsr(const CooMatrix<T> &A) {
  if (Status S = validateCoo(A); !S.ok())
    return S;
  return cooToCsr(A);
}

/// Validating triplet builder for untrusted input: \returns the CSR matrix,
/// or the diagnostic naming the offending triplet.
template <typename T>
Expected<CsrMatrix<T>>
tryCsrFromTriplets(index_t NumRows, index_t NumCols, std::vector<index_t> Rows,
                   std::vector<index_t> Cols, std::vector<T> Vals) {
  if (Status S = validateTriplets(NumRows, NumCols, Rows, Cols, Vals); !S.ok())
    return S;
  return csrFromTriplets<T>(NumRows, NumCols, std::move(Rows), std::move(Cols),
                            std::move(Vals));
}

/// Sorts \p A into canonical row-major order in place (stable within equal
/// coordinates). Establishes the threaded kernels' precondition for COO that
/// arrived from outside the library's own builders.
template <typename T> void sortCooRowMajor(CooMatrix<T> &A) {
  if (A.isSortedRowMajor())
    return;
  std::vector<std::size_t> Order(A.Values.size());
  std::iota(Order.begin(), Order.end(), std::size_t{0});
  std::stable_sort(Order.begin(), Order.end(),
                   [&A](std::size_t I, std::size_t J) {
                     if (A.Rows[I] != A.Rows[J])
                       return A.Rows[I] < A.Rows[J];
                     return A.Cols[I] < A.Cols[J];
                   });
  CooMatrix<T> Sorted;
  Sorted.NumRows = A.NumRows;
  Sorted.NumCols = A.NumCols;
  Sorted.Rows.reserve(Order.size());
  Sorted.Cols.reserve(Order.size());
  Sorted.Values.reserve(Order.size());
  for (std::size_t K : Order) {
    Sorted.Rows.push_back(A.Rows[K]);
    Sorted.Cols.push_back(A.Cols[K]);
    Sorted.Values.push_back(A.Values[K]);
  }
  A = std::move(Sorted);
}

namespace detail {

/// Flags the occupied diagonals of \p A, indexed by Col - Row + (NumRows - 1)
/// in [0, NumRows + NumCols - 2]. Threads may mark the same diagonal; the
/// atomic accesses keep the racing stores of the same value well-defined,
/// and a flag is read before it is written, so the few cache lines of a
/// banded matrix's flags are stored once rather than bounced between cores
/// on every entry.
template <typename T>
std::vector<char> occupiedDiagonals(const CsrMatrix<T> &A) {
  std::vector<char> Occupied(
      static_cast<std::size_t>(A.NumRows) + A.NumCols, 0);
  if (A.nnz() <= ParallelConvertGrain) {
    for (index_t Row = 0; Row < A.NumRows; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
        Occupied[static_cast<std::size_t>(A.ColIdx[I]) - Row + A.NumRows - 1] =
            1;
  } else {
#pragma omp parallel for schedule(static)
    for (index_t Row = 0; Row < A.NumRows; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        char &Flag =
            Occupied[static_cast<std::size_t>(A.ColIdx[I]) - Row + A.NumRows -
                     1];
        char Seen;
#pragma omp atomic read
        Seen = Flag;
        if (!Seen) {
#pragma omp atomic write
          Flag = 1;
        }
      }
  }
  return Occupied;
}

/// Whether storing \p Stored padded elements for \p A stays within
/// MaxConvertedElements and \p MaxFillRatio * nnz (values <= 0 disable the
/// ratio).
template <typename T>
bool paddingFits(const CsrMatrix<T> &A, std::int64_t Stored,
                 double MaxFillRatio) {
  if (Stored > MaxConvertedElements)
    return false;
  return !(MaxFillRatio > 0 && A.nnz() > 0 &&
           static_cast<double>(Stored) >
               MaxFillRatio * static_cast<double>(A.nnz()));
}

/// The csrToDia guards for \p NumDiags occupied diagonals of \p A.
template <typename T>
bool diaGuardsPass(const CsrMatrix<T> &A, index_t NumDiags,
                   double MaxFillRatio, index_t MaxDiags) {
  return (MaxDiags <= 0 || NumDiags <= MaxDiags) &&
         paddingFits(A, static_cast<std::int64_t>(NumDiags) * A.NumRows,
                     MaxFillRatio);
}

/// \returns the largest row degree of \p A (the ELL width).
template <typename T> index_t maxRowDegree(const CsrMatrix<T> &A) {
  index_t Width = 0;
#pragma omp parallel for schedule(static) reduction(max : Width)             \
    if (A.nnz() > ParallelConvertGrain)
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Width = std::max(Width, A.rowDegree(Row));
  return Width;
}

} // namespace detail

/// CSR -> DIA.
///
/// \param MaxFillRatio reject when padded storage exceeds this multiple of
/// nnz (values <= 0 disable the guard).
/// \param MaxDiags reject when more than this many diagonals are occupied
/// (values <= 0 disable the guard).
/// \returns true and fills \p B on success; false when a guard rejects.
template <typename T>
bool csrToDia(const CsrMatrix<T> &A, DiaMatrix<T> &B,
              double MaxFillRatio = DefaultMaxFillRatio,
              index_t MaxDiags = DefaultMaxDiags) {
  if (!A.isValid())
    return false;
  std::vector<char> Occupied = detail::occupiedDiagonals(A);
  index_t NumDiags = 0;
  for (char Flag : Occupied)
    NumDiags += Flag;
  if (!detail::diaGuardsPass(A, NumDiags, MaxFillRatio, MaxDiags))
    return false;
  if (fault::injectFailure("convert.dia.cap"))
    return false;
  fault::injectAllocFailure("convert.dia.alloc");

  B = DiaMatrix<T>();
  B.NumRows = A.NumRows;
  B.NumCols = A.NumCols;
  B.TrueNnz = A.nnz();
  B.Offsets.reserve(NumDiags);
  // Map offset index -> dense diagonal slot.
  std::vector<index_t> Slot(Occupied.size(), -1);
  for (std::size_t I = 0; I != Occupied.size(); ++I) {
    if (!Occupied[I])
      continue;
    Slot[I] = B.numDiags();
    B.Offsets.push_back(static_cast<index_t>(I) - (A.NumRows - 1));
  }
  B.Data.assign(static_cast<std::size_t>(NumDiags) *
                    static_cast<std::size_t>(A.NumRows),
                T(0));
  // Scatter fill: each entry owns a distinct (diagonal, row) slot, so rows
  // can be processed concurrently without synchronization.
#pragma omp parallel for schedule(static) if (A.nnz() > ParallelConvertGrain)
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
      index_t D = Slot[static_cast<std::size_t>(A.ColIdx[I]) - Row +
                       A.NumRows - 1];
      B.Data[static_cast<std::size_t>(D) * A.NumRows + Row] = A.Values[I];
    }
  return true;
}

/// CSR -> ELL.
///
/// \param MaxFillRatio reject when padded storage exceeds this multiple of
/// nnz (values <= 0 disable the guard).
/// \returns true and fills \p B on success; false when the guard rejects.
template <typename T>
bool csrToEll(const CsrMatrix<T> &A, EllMatrix<T> &B,
              double MaxFillRatio = DefaultMaxFillRatio) {
  if (!A.isValid())
    return false;
  index_t Width = detail::maxRowDegree(A);
  if (!detail::paddingFits(A, static_cast<std::int64_t>(Width) * A.NumRows,
                           MaxFillRatio))
    return false;
  if (fault::injectFailure("convert.ell.cap"))
    return false;
  fault::injectAllocFailure("convert.ell.alloc");

  B = EllMatrix<T>();
  B.NumRows = A.NumRows;
  B.NumCols = A.NumCols;
  B.Width = Width;
  B.TrueNnz = A.nnz();
  std::size_t Elements = static_cast<std::size_t>(Width) *
                         static_cast<std::size_t>(A.NumRows);
  B.Indices.assign(Elements, 0);
  B.Data.assign(Elements, T(0));
  B.RowLen.resize(static_cast<std::size_t>(A.NumRows));
  // Rows write disjoint column-major slots, so the packing loop is safely
  // row-parallel.
#pragma omp parallel for schedule(static) if (A.nnz() > ParallelConvertGrain)
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    B.RowLen[static_cast<std::size_t>(Row)] = A.rowDegree(Row);
    index_t Packed = 0;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I, ++Packed) {
      std::size_t Dst =
          static_cast<std::size_t>(Packed) * A.NumRows + Row;
      B.Indices[Dst] = A.ColIdx[I];
      B.Data[Dst] = A.Values[I];
    }
  }
  return true;
}

/// DIA -> CSR; padding zeros are dropped (exact zero test, which is correct
/// because the converter wrote exact zeros).
template <typename T> CsrMatrix<T> diaToCsr(const DiaMatrix<T> &A) {
  std::vector<index_t> Rows, Cols;
  std::vector<T> Vals;
  for (index_t D = 0; D < A.numDiags(); ++D) {
    index_t Offset = A.Offsets[D];
    index_t RowBegin = std::max(index_t(0), -Offset);
    index_t RowEnd =
        std::min(A.NumRows, A.NumCols - Offset);
    for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
      T Val = A.Data[static_cast<std::size_t>(D) * A.NumRows + Row];
      if (Val == T(0))
        continue;
      Rows.push_back(Row);
      Cols.push_back(Row + Offset);
      Vals.push_back(Val);
    }
  }
  return csrFromTriplets<T>(A.NumRows, A.NumCols, std::move(Rows),
                            std::move(Cols), std::move(Vals));
}

/// ELL -> CSR; padding (zero value) entries are dropped.
template <typename T> CsrMatrix<T> ellToCsr(const EllMatrix<T> &A) {
  std::vector<index_t> Rows, Cols;
  std::vector<T> Vals;
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    for (index_t C = 0; C < A.Width; ++C) {
      std::size_t I = static_cast<std::size_t>(C) * A.NumRows + Row;
      if (A.Data[I] == T(0))
        continue;
      Rows.push_back(Row);
      Cols.push_back(A.Indices[I]);
      Vals.push_back(A.Data[I]);
    }
  return csrFromTriplets<T>(A.NumRows, A.NumCols, std::move(Rows),
                            std::move(Cols), std::move(Vals));
}

/// Counts the occupied BlockSize x BlockSize tiles of \p A; the basis of
/// the OSKI-style block-size choice and the ER_BSR feature.
template <typename T>
std::int64_t countOccupiedBlocks(const CsrMatrix<T> &A, index_t BlockSize) {
  assert(BlockSize >= 1 && "block size must be positive");
  index_t BlockCols = (A.NumCols + BlockSize - 1) / BlockSize;
  index_t BlockRows = (A.NumRows + BlockSize - 1) / BlockSize;
  std::int64_t Occupied = 0;
  // Block rows are independent, so each thread dedups with a private marker
  // array (stamped with the block row id) and the counts reduce at the end.
#pragma omp parallel if (A.nnz() > ParallelConvertGrain)
  {
    std::vector<index_t> Stamp(static_cast<std::size_t>(BlockCols), -1);
#pragma omp for schedule(static) reduction(+ : Occupied)
    for (index_t Br = 0; Br < BlockRows; ++Br) {
      index_t RowEnd = std::min(A.NumRows, (Br + 1) * BlockSize);
      for (index_t Row = Br * BlockSize; Row < RowEnd; ++Row)
        for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
          index_t Bc = A.ColIdx[I] / BlockSize;
          if (Stamp[static_cast<std::size_t>(Bc)] != Br) {
            Stamp[static_cast<std::size_t>(Bc)] = Br;
            ++Occupied;
          }
        }
    }
  }
  return Occupied;
}

/// OSKI-style block-size selection: among \p Candidates, picks the block
/// size with the smallest padded storage (fill), requiring the fill ratio
/// (stored / nnz) to stay at or below \p MaxFillRatio. \returns 0 when no
/// candidate qualifies.
template <typename T>
index_t chooseBsrBlockSize(const CsrMatrix<T> &A,
                           std::initializer_list<index_t> Candidates = {8, 4,
                                                                        2},
                           double MaxFillRatio = 1.5) {
  if (A.nnz() == 0)
    return 0;
  index_t Best = 0;
  double BestStored = 0;
  for (index_t B : Candidates) {
    double Stored = static_cast<double>(countOccupiedBlocks(A, B)) *
                    static_cast<double>(B) * static_cast<double>(B);
    if (Stored > MaxFillRatio * static_cast<double>(A.nnz()))
      continue;
    if (Best == 0 || Stored < BestStored ||
        (Stored == BestStored && B > Best)) {
      Best = B;
      BestStored = Stored;
    }
  }
  return Best;
}

namespace detail {

/// The csrToBsr guards for \p Blocks occupied BlockSize x BlockSize tiles.
template <typename T>
bool bsrGuardsPass(const CsrMatrix<T> &A, std::int64_t Blocks,
                   index_t BlockSize, double MaxFillRatio) {
  std::int64_t BlockElems = static_cast<std::int64_t>(BlockSize) * BlockSize;
  // Checked by division first: the product of two huge factors overflows.
  return BlockElems <= MaxConvertedElements &&
         Blocks <= MaxConvertedElements / BlockElems &&
         paddingFits(A, Blocks * BlockElems, MaxFillRatio);
}

} // namespace detail

/// CSR -> BSR with the given block size.
///
/// \param MaxFillRatio reject when padded storage exceeds this multiple of
/// nnz (values <= 0 disable the guard). BSR's guard default is much
/// stricter than DIA/ELL's because its padding also bloats the *flop*
/// count, not just storage.
/// \returns true and fills \p B on success; false when the guard rejects.
template <typename T>
bool csrToBsr(const CsrMatrix<T> &A, BsrMatrix<T> &B, index_t BlockSize,
              double MaxFillRatio = 1.5) {
  if (BlockSize < 1 || !A.isValid())
    return false;
  std::int64_t Blocks = countOccupiedBlocks(A, BlockSize);
  if (!detail::bsrGuardsPass(A, Blocks, BlockSize, MaxFillRatio))
    return false;
  if (fault::injectFailure("convert.bsr.cap"))
    return false;
  fault::injectAllocFailure("convert.bsr.alloc");

  B = BsrMatrix<T>();
  B.NumRows = A.NumRows;
  B.NumCols = A.NumCols;
  B.BlockSize = BlockSize;
  B.TrueNnz = A.nnz();
  index_t BlockRows = B.numBlockRows();
  index_t BlockCols = B.numBlockCols();
  B.RowPtr.assign(static_cast<std::size_t>(BlockRows) + 1, 0);
  B.ColIdx.reserve(static_cast<std::size_t>(Blocks));
  B.Values.assign(static_cast<std::size_t>(Blocks) *
                      static_cast<std::size_t>(BlockSize) *
                      static_cast<std::size_t>(BlockSize),
                  T(0));

  // Pass 1 (serial): discover the sorted block pattern per block row; the
  // cumulative RowPtr/ColIdx emission is inherently sequential.
  std::vector<index_t> Slot(static_cast<std::size_t>(BlockCols), -1);
  std::vector<index_t> Pattern;
  for (index_t Br = 0; Br < BlockRows; ++Br) {
    Pattern.clear();
    index_t RowEnd = std::min(A.NumRows, (Br + 1) * BlockSize);
    for (index_t Row = Br * BlockSize; Row < RowEnd; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        index_t Bc = A.ColIdx[I] / BlockSize;
        if (Slot[static_cast<std::size_t>(Bc)] != Br) {
          Slot[static_cast<std::size_t>(Bc)] = Br;
          Pattern.push_back(Bc);
        }
      }
    std::sort(Pattern.begin(), Pattern.end());
    for (index_t Bc : Pattern)
      B.ColIdx.push_back(Bc);
    B.RowPtr[Br + 1] = static_cast<index_t>(B.ColIdx.size());
  }

  // Pass 2 (parallel): scatter the values. A block row's blocks occupy a
  // disjoint Values slice, so block rows fill concurrently; the dense block
  // of an entry is found by binary search in the sorted per-row pattern.
#pragma omp parallel for schedule(dynamic, 64)                               \
    if (A.nnz() > ParallelConvertGrain)
  for (index_t Br = 0; Br < BlockRows; ++Br) {
    const index_t *First = B.ColIdx.data() + B.RowPtr[Br];
    const index_t *Last = B.ColIdx.data() + B.RowPtr[Br + 1];
    index_t RowEnd = std::min(A.NumRows, (Br + 1) * BlockSize);
    for (index_t Row = Br * BlockSize; Row < RowEnd; ++Row) {
      index_t LocalRow = Row - Br * BlockSize;
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        index_t Bc = A.ColIdx[I] / BlockSize;
        const index_t *It = std::lower_bound(First, Last, Bc);
        assert(It != Last && *It == Bc && "pattern mismatch");
        std::size_t Block =
            static_cast<std::size_t>(B.RowPtr[Br]) +
            static_cast<std::size_t>(It - First);
        index_t LocalCol = A.ColIdx[I] - Bc * BlockSize;
        B.Values[Block * BlockSize * BlockSize +
                 static_cast<std::size_t>(LocalRow) * BlockSize + LocalCol] =
            A.Values[I];
      }
    }
  }
  return true;
}

/// BSR -> CSR; block-padding zeros are dropped.
template <typename T> CsrMatrix<T> bsrToCsr(const BsrMatrix<T> &A) {
  std::vector<index_t> Rows, Cols;
  std::vector<T> Vals;
  index_t B = A.BlockSize;
  for (index_t Br = 0; Br < A.numBlockRows(); ++Br)
    for (index_t I = A.RowPtr[Br]; I < A.RowPtr[Br + 1]; ++I) {
      index_t Bc = A.ColIdx[I];
      const T *Block =
          A.Values.data() + static_cast<std::size_t>(I) * B * B;
      for (index_t R = 0; R < B; ++R)
        for (index_t C = 0; C < B; ++C) {
          T Val = Block[R * B + C];
          if (Val == T(0))
            continue;
          index_t Row = Br * B + R, Col = Bc * B + C;
          assert(Row < A.NumRows && Col < A.NumCols &&
                 "padding must be zero outside the matrix");
          Rows.push_back(Row);
          Cols.push_back(Col);
          Vals.push_back(Val);
        }
    }
  return csrFromTriplets<T>(A.NumRows, A.NumCols, std::move(Rows),
                            std::move(Cols), std::move(Vals));
}

// --- Row slices -------------------------------------------------------------
//
// A row-sliced plan (core/FormatOperator.h) is one matrix plus row bounds:
// every kernel runs over a row range, so no slice is ever copied.

/// Splits the rows of \p A into at most \p Parts contiguous slices of
/// near-equal nonzero counts. \returns the slice bounds: 0, the interior
/// cuts, each rounded down to a multiple of \p Align (a BSR block row must
/// not straddle two slices), and NumRows. A cut that would leave a slice
/// empty is dropped, so few rows or one dense row yield fewer slices.
template <typename T>
std::vector<index_t> balancedRowBounds(const CsrMatrix<T> &A, index_t Parts,
                                       index_t Align = 1) {
  assert(Parts >= 1 && Align >= 1 && "slice count and alignment must be >= 1");
  std::vector<index_t> Bounds{0};
  for (index_t P = 1; P < Parts; ++P) {
    // The first row that starts at or after the P-th share of the entries.
    std::int64_t Target = A.nnz() * P / Parts;
    auto Row = static_cast<index_t>(
        std::lower_bound(A.RowPtr.begin(), A.RowPtr.end(), Target) -
        A.RowPtr.begin());
    Row -= Row % Align;
    if (Row > Bounds.back() && Row < A.NumRows)
      Bounds.push_back(Row);
  }
  Bounds.push_back(A.NumRows);
  return Bounds;
}

/// \returns A^T in CSR format (used by AMG's Galerkin product and by the
/// rectangular corpus generators).
template <typename T> CsrMatrix<T> transposeCsr(const CsrMatrix<T> &A) {
  CsrMatrix<T> B(A.NumCols, A.NumRows);
  std::size_t Nnz = static_cast<std::size_t>(A.nnz());
  B.ColIdx.resize(Nnz);
  B.Values.resize(Nnz);
  // Count per-column entries.
  for (index_t Col : A.ColIdx)
    ++B.RowPtr[Col + 1];
  for (index_t Col = 0; Col < A.NumCols; ++Col)
    B.RowPtr[Col + 1] += B.RowPtr[Col];
  std::vector<index_t> Cursor(B.RowPtr.begin(), B.RowPtr.end() - 1);
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
      index_t Dst = Cursor[A.ColIdx[I]]++;
      B.ColIdx[Dst] = Row;
      B.Values[Dst] = A.Values[I];
    }
  return B;
}

/// Converts a CSR matrix between value types (e.g. double -> float for the
/// single-precision experiments).
template <typename Dst, typename Src>
CsrMatrix<Dst> convertValueType(const CsrMatrix<Src> &A) {
  CsrMatrix<Dst> B;
  B.NumRows = A.NumRows;
  B.NumCols = A.NumCols;
  B.RowPtr.assign(A.RowPtr.begin(), A.RowPtr.end());
  B.ColIdx.assign(A.ColIdx.begin(), A.ColIdx.end());
  B.Values.assign(A.Values.begin(), A.Values.end());
  return B;
}

} // namespace smat

#endif // SMAT_MATRIX_FORMATCONVERT_H
