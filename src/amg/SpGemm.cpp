//===- amg/SpGemm.cpp - Sparse matrix-matrix products ---------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/SpGemm.h"

#include "amg/CsrBySlices.h"
#include "matrix/FormatConvert.h"

#include <algorithm>

using namespace smat;

namespace {

/// One slice's Gustavson scratch, each array one entry per column of the
/// product, reused across the slice's rows: a row-stamped marker per pass
/// (the marker makes exact mid-row cancellation harmless) and the fill
/// pass's dense accumulator.
template <typename T> struct GustavsonScratch {
  std::vector<index_t> Counted, Filled;
  std::vector<T> Accumulator;
};

} // namespace

template <typename T>
CsrMatrix<T> smat::spgemm(const CsrMatrix<T> &A, const CsrMatrix<T> &B) {
  assert(A.NumCols == B.NumRows && "spgemm shape mismatch");
  const std::vector<index_t> Bounds = planRowBounds(A, 1);
  const auto Cols = static_cast<std::size_t>(B.NumCols);
  std::vector<GustavsonScratch<T>> Scratch(Bounds.size() - 1);
  for (GustavsonScratch<T> &W : Scratch) {
    W.Counted.assign(Cols, -1);
    W.Filled.assign(Cols, -1);
    W.Accumulator.assign(Cols, T(0));
  }

  auto Count = [&](index_t S, index_t Row) {
    index_t *Marker = Scratch[static_cast<std::size_t>(S)].Counted.data();
    index_t Len = 0;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
      index_t K = A.ColIdx[I];
      for (index_t J = B.RowPtr[K]; J < B.RowPtr[K + 1]; ++J)
        if (Marker[B.ColIdx[J]] != Row) {
          Marker[B.ColIdx[J]] = Row;
          ++Len;
        }
    }
    return Len;
  };
  // Collects the row's columns in first-touch order, sorts them and reads
  // their sums off the accumulator.
  auto Fill = [&](index_t S, index_t Row, index_t *RowCols, T *RowVals) {
    GustavsonScratch<T> &W = Scratch[static_cast<std::size_t>(S)];
    index_t *Marker = W.Filled.data();
    T *Accumulator = W.Accumulator.data();
    index_t Len = 0;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
      index_t K = A.ColIdx[I];
      T AVal = A.Values[I];
      for (index_t J = B.RowPtr[K]; J < B.RowPtr[K + 1]; ++J) {
        index_t Col = B.ColIdx[J];
        if (Marker[Col] != Row) {
          Marker[Col] = Row;
          RowCols[Len++] = Col;
          Accumulator[Col] = AVal * B.Values[J];
        } else {
          Accumulator[Col] =
              spgemmAccumulate(Accumulator[Col], AVal, B.Values[J]);
        }
      }
    }
    std::sort(RowCols, RowCols + Len);
    for (index_t I = 0; I < Len; ++I)
      RowVals[I] = Accumulator[RowCols[I]];
    return Len;
  };
  return csrBySlices<T>(A.NumRows, B.NumCols, Bounds, Count, Fill);
}

template <typename T>
CsrMatrix<T> smat::galerkinProduct(const CsrMatrix<T> &R, const CsrMatrix<T> &A,
                                   const CsrMatrix<T> &P) {
  return spgemm(spgemm(R, A), P);
}

template CsrMatrix<float> smat::spgemm(const CsrMatrix<float> &,
                                       const CsrMatrix<float> &);
template CsrMatrix<double> smat::spgemm(const CsrMatrix<double> &,
                                        const CsrMatrix<double> &);
template CsrMatrix<float> smat::galerkinProduct(const CsrMatrix<float> &,
                                                const CsrMatrix<float> &,
                                                const CsrMatrix<float> &);
template CsrMatrix<double> smat::galerkinProduct(const CsrMatrix<double> &,
                                                 const CsrMatrix<double> &,
                                                 const CsrMatrix<double> &);
