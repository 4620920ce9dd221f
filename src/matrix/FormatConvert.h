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
#include "support/Slices.h"

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
/// BSR's default fill guard: much stricter than DIA's and ELL's, because
/// its padding bloats the flop count, not just storage.
inline constexpr double DefaultBsrMaxFillRatio = 1.5;

/// Absolute ceiling on the padded element count any conversion may
/// allocate, applied even when the relative fill guards are disabled: a
/// hostile structure whose Ndiags*M (or Width*M, or Blocks*b^2) product
/// explodes must be rejected — the runtime then binds as CSR — instead of
/// attempting a multi-terabyte allocation.
inline constexpr std::int64_t MaxConvertedElements = std::int64_t(1) << 31;

/// The grain: the nonzero count from which work on a matrix runs as row
/// slices side by side (planRowBounds). Below it every sliced path is one
/// slice, run inline on the calling thread, so nothing forks an OpenMP team
/// (forking a team for a matrix this small costs more than the work). A
/// plan runs as row slices from it on (core/FormatOperator.h), and so do
/// feature extraction and the conversions. With one team in the process
/// slicing wins from 8k-16k nonzeros (DESIGN.md section 10), so the grain
/// sits above the crossover.
inline constexpr std::int64_t ParallelConvertGrain = std::int64_t(1) << 15;

// --- Row slices -------------------------------------------------------------
//
// A row-sliced plan (core/FormatOperator.h) is one matrix plus row bounds:
// every kernel runs over a row range, so no slice is ever copied. Feature
// extraction and the conversions run on the same bounds.

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

/// The slice bounds work on \p A runs as: planSliceCount() slices of
/// near-equal nonzero counts, cut on multiples of \p Align rows, once \p A
/// has ParallelConvertGrain nonzeros; one slice below that. The one place
/// the grain is applied: plans, the AMG solve's vector loops, feature
/// extraction and the conversions all cut their slices here.
template <typename T>
std::vector<index_t> planRowBounds(const CsrMatrix<T> &A, index_t Align) {
  return balancedRowBounds(
      A, A.nnz() >= ParallelConvertGrain ? index_t(planSliceCount())
                                         : index_t(1),
      Align);
}

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

/// How many entries of a matrix lie on each of its diagonals: Counts[I]
/// entries lie on the diagonal of offset Col - Row = First + I. The first
/// and the last count are nonzero; a matrix without entries has no counts.
struct DiagonalCounts {
  index_t First = 0;
  std::vector<index_t> Counts;

  /// \returns how many diagonals hold an entry.
  index_t numOccupied() const {
    return static_cast<index_t>(
        Counts.size() -
        static_cast<std::size_t>(std::count(Counts.begin(), Counts.end(), 0)));
  }
};

namespace detail {

/// \returns the index of offset \p Offset in counts that start at \p First.
inline std::size_t diagonalSlot(index_t Offset, index_t First) {
  return static_cast<std::size_t>(static_cast<std::int64_t>(Offset) - First);
}

} // namespace detail

/// Counts the entries of \p A on each diagonal (feature step 1's diagonal
/// situation and csrToDia's occupied diagonals). The rows run as
/// planRowBounds slices: each slice counts into a partial spanning only the
/// offsets its own entries reach (rows may be unsorted), and the partials
/// are added in slice order. Every partial is allocated on the calling
/// thread before the slices run, so an allocation failure throws here,
/// never inside a parallel region; a slice fills its own partial. Slices
/// that each reach every diagonal take planSliceCount() * (NumRows +
/// NumCols) partial counts.
template <typename T> DiagonalCounts countDiagonals(const CsrMatrix<T> &A) {
  const std::vector<index_t> Bounds = planRowBounds(A, 1);
  const std::size_t NumSlices = Bounds.size() - 1;
  // The offsets each slice's entries reach; Lo > Hi for a slice without
  // entries.
  std::vector<index_t> Lo(NumSlices, std::numeric_limits<index_t>::max());
  std::vector<index_t> Hi(NumSlices, std::numeric_limits<index_t>::min());
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    index_t L = Lo[static_cast<std::size_t>(S)];
    index_t H = Hi[static_cast<std::size_t>(S)];
    for (index_t Row = Begin; Row < End; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        L = std::min(L, A.ColIdx[I] - Row);
        H = std::max(H, A.ColIdx[I] - Row);
      }
    Lo[static_cast<std::size_t>(S)] = L;
    Hi[static_cast<std::size_t>(S)] = H;
  });

  std::vector<DiagonalCounts> Partials(NumSlices);
  for (std::size_t S = 0; S != NumSlices; ++S)
    if (Lo[S] <= Hi[S]) {
      Partials[S].First = Lo[S];
      Partials[S].Counts.reserve(detail::diagonalSlot(Hi[S], Lo[S]) + 1);
    }
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    const auto Slice = static_cast<std::size_t>(S);
    if (Lo[Slice] > Hi[Slice])
      return;
    DiagonalCounts &P = Partials[Slice];
    // Within the capacity reserved above: no allocation in the slice.
    P.Counts.assign(detail::diagonalSlot(Hi[Slice], Lo[Slice]) + 1, 0);
    for (index_t Row = Begin; Row < End; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
        ++P.Counts[detail::diagonalSlot(A.ColIdx[I] - Row, P.First)];
  });
  if (NumSlices == 1)
    return std::move(Partials.front());

  DiagonalCounts Sum;
  const index_t L = *std::min_element(Lo.begin(), Lo.end());
  const index_t H = *std::max_element(Hi.begin(), Hi.end());
  if (L > H)
    return Sum;
  Sum.First = L;
  Sum.Counts.assign(detail::diagonalSlot(H, L) + 1, 0);
  for (const DiagonalCounts &P : Partials) {
    if (P.Counts.empty())
      continue;
    index_t *Dst = Sum.Counts.data() + detail::diagonalSlot(P.First, L);
    for (std::size_t I = 0; I != P.Counts.size(); ++I)
      Dst[I] += P.Counts[I];
  }
  return Sum;
}

/// \returns the largest row degree of \p A (the ELL width), its rows run as
/// planRowBounds slices.
template <typename T> index_t maxRowDegree(const CsrMatrix<T> &A) {
  const std::vector<index_t> Bounds = planRowBounds(A, 1);
  std::vector<index_t> Widths(Bounds.size() - 1, 0);
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    index_t Width = 0;
    for (index_t Row = Begin; Row < End; ++Row)
      Width = std::max(Width, A.rowDegree(Row));
    Widths[static_cast<std::size_t>(S)] = Width;
  });
  return *std::max_element(Widths.begin(), Widths.end());
}

namespace detail {

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
  const DiagonalCounts Diags = countDiagonals(A);
  const index_t NumDiags = Diags.numOccupied();
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
  std::vector<index_t> Slot(Diags.Counts.size(), -1);
  for (std::size_t I = 0; I != Diags.Counts.size(); ++I) {
    if (Diags.Counts[I] == 0)
      continue;
    Slot[I] = B.numDiags();
    B.Offsets.push_back(Diags.First + static_cast<index_t>(I));
  }
  B.Data.assign(static_cast<std::size_t>(NumDiags) *
                    static_cast<std::size_t>(A.NumRows),
                T(0));
  // Scatter fill: each entry owns a distinct (diagonal, row) slot, so the
  // row slices fill side by side without synchronization.
  runSlices(planRowBounds(A, 1), [&](index_t, index_t Begin, index_t End) {
    for (index_t Row = Begin; Row < End; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        index_t D =
            Slot[detail::diagonalSlot(A.ColIdx[I] - Row, Diags.First)];
        B.Data[static_cast<std::size_t>(D) * A.NumRows + Row] = A.Values[I];
      }
  });
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
  index_t Width = maxRowDegree(A);
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
  // Rows write disjoint column-major slots, so the row slices pack side by
  // side.
  runSlices(planRowBounds(A, 1), [&](index_t, index_t Begin, index_t End) {
    for (index_t Row = Begin; Row < End; ++Row) {
      B.RowLen[static_cast<std::size_t>(Row)] = A.rowDegree(Row);
      index_t Packed = 0;
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I, ++Packed) {
        std::size_t Dst = static_cast<std::size_t>(Packed) * A.NumRows + Row;
        B.Indices[Dst] = A.ColIdx[I];
        B.Data[Dst] = A.Values[I];
      }
    }
  });
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
  const auto BlockCols =
      static_cast<std::size_t>((A.NumCols + BlockSize - 1) / BlockSize);
  // Block rows are independent, so each slice of whole block rows dedups
  // with a marker array of its own (stamped with the block row id),
  // allocated here and filled in the slice; the counts add in slice order.
  const std::vector<index_t> Bounds = planRowBounds(A, BlockSize);
  std::vector<std::vector<index_t>> Stamps(Bounds.size() - 1);
  for (std::vector<index_t> &Stamp : Stamps)
    Stamp.reserve(BlockCols);
  return sumSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    std::vector<index_t> &Stamp = Stamps[static_cast<std::size_t>(S)];
    Stamp.assign(BlockCols, -1);
    std::int64_t Occupied = 0;
    for (index_t Row = Begin; Row < End; ++Row) {
      const index_t Br = Row / BlockSize;
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        index_t Bc = A.ColIdx[I] / BlockSize;
        if (Stamp[static_cast<std::size_t>(Bc)] != Br) {
          Stamp[static_cast<std::size_t>(Bc)] = Br;
          ++Occupied;
        }
      }
    }
    return Occupied;
  });
}

/// OSKI-style block-size selection: among \p Candidates, picks the block
/// size with the smallest padded storage (fill), requiring the fill ratio
/// (stored / nnz) to stay at or below \p MaxFillRatio. \returns 0 when no
/// candidate qualifies.
template <typename T>
index_t chooseBsrBlockSize(const CsrMatrix<T> &A,
                           std::initializer_list<index_t> Candidates = {8, 4,
                                                                        2},
                           double MaxFillRatio = DefaultBsrMaxFillRatio) {
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
/// nnz (values <= 0 disable the guard).
/// \returns true and fills \p B on success; false when the guard rejects.
template <typename T>
bool csrToBsr(const CsrMatrix<T> &A, BsrMatrix<T> &B, index_t BlockSize,
              double MaxFillRatio = DefaultBsrMaxFillRatio) {
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

  // Pass 2: scatter the values. A block row's blocks occupy a disjoint
  // Values slice, so slices of whole block rows fill side by side; the
  // dense block of an entry is found by binary search in the sorted
  // per-row pattern.
  runSlices(planRowBounds(A, BlockSize), [&](index_t, index_t Begin,
                                             index_t End) {
    for (index_t Row = Begin; Row < End; ++Row) {
      const index_t Br = Row / BlockSize;
      const index_t *First = B.ColIdx.data() + B.RowPtr[Br];
      const index_t *Last = B.ColIdx.data() + B.RowPtr[Br + 1];
      index_t LocalRow = Row - Br * BlockSize;
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        index_t Bc = A.ColIdx[I] / BlockSize;
        const index_t *It = std::lower_bound(First, Last, Bc);
        assert(It != Last && *It == Bc && "pattern mismatch");
        std::size_t Block = static_cast<std::size_t>(B.RowPtr[Br]) +
                            static_cast<std::size_t>(It - First);
        index_t LocalCol = A.ColIdx[I] - Bc * BlockSize;
        B.Values[Block * BlockSize * BlockSize +
                 static_cast<std::size_t>(LocalRow) * BlockSize + LocalCol] =
            A.Values[I];
      }
    }
  });
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

/// \returns A^T in CSR format (used by AMG's Galerkin product and
/// coarsening, and by the rectangular corpus generators). Each output row
/// lists its entries in ascending source-row order. The source rows run as
/// planRowBounds slices: each slice counts its entries per column, the
/// counts are prefixed over (column, slice) on the calling thread, so a
/// column's entries from slice 0 come first, and each slice then scatters
/// its rows in order into its own offsets. The per-slice counts
/// (planSliceCount() * NumCols above the grain) are allocated before the
/// slices run.
template <typename T> CsrMatrix<T> transposeCsr(const CsrMatrix<T> &A) {
  CsrMatrix<T> B(A.NumCols, A.NumRows);
  const std::vector<index_t> Bounds = planRowBounds(A, 1);
  const std::size_t NumSlices = Bounds.size() - 1;
  const auto Cols = static_cast<std::size_t>(A.NumCols);
  // Cursor[S * Cols + Col]: first slice S's entry count in column Col,
  // then where its next entry in that column goes.
  std::vector<index_t> Cursor(NumSlices * Cols, 0);
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    index_t *Count = Cursor.data() + static_cast<std::size_t>(S) * Cols;
    for (index_t I = A.RowPtr[Begin]; I < A.RowPtr[End]; ++I)
      ++Count[A.ColIdx[I]];
  });
  index_t Next = 0;
  for (std::size_t Col = 0; Col != Cols; ++Col) {
    for (std::size_t S = 0; S != NumSlices; ++S) {
      index_t &Slot = Cursor[S * Cols + Col];
      const index_t Count = Slot;
      Slot = Next;
      Next += Count;
    }
    B.RowPtr[Col + 1] = Next;
  }
  B.ColIdx.resize(static_cast<std::size_t>(A.nnz()));
  B.Values.resize(static_cast<std::size_t>(A.nnz()));
  runSlices(Bounds, [&](index_t S, index_t Begin, index_t End) {
    index_t *Dst = Cursor.data() + static_cast<std::size_t>(S) * Cols;
    for (index_t Row = Begin; Row < End; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        const index_t At = Dst[A.ColIdx[I]]++;
        B.ColIdx[At] = Row;
        B.Values[At] = A.Values[I];
      }
  });
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
