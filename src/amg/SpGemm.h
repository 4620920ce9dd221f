//===- amg/SpGemm.h - Sparse matrix-matrix products -------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSR sparse matrix-matrix multiplication (Gustavson's algorithm) and the
/// Galerkin triple product R*A*P that builds AMG coarse-grid operators —
/// the machinery that produces the level-by-level structure drift shown in
/// paper Figure 1. Both run as row slices of their left operand on the
/// slice runner (amg/CsrBySlices.h): a count pass, then a fill pass that
/// writes each row as the serial Gustavson loop does, so the product's
/// bits do not depend on the slices or the team size.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_SPGEMM_H
#define SMAT_AMG_SPGEMM_H

#include "matrix/CsrMatrix.h"

#include <cmath>

namespace smat {

/// The accumulate step of spgemm's Gustavson loop, \p Acc + \p A * \p B:
/// one fused multiply-add where the target has FMA, which is what the
/// compiler contracts a plain `Acc += A * B` row loop to there, and a
/// multiply and an add elsewhere. Spelled out so the product keeps those
/// bits wherever the loop body is compiled.
template <typename T> inline T spgemmAccumulate(T Acc, T A, T B) {
#ifdef __FMA__
  return std::fma(A, B, Acc);
#else
  return Acc + A * B;
#endif
}

/// C = A * B (Gustavson row-merge). Column indices of each output row are
/// sorted. Requires A.NumCols == B.NumRows.
template <typename T>
CsrMatrix<T> spgemm(const CsrMatrix<T> &A, const CsrMatrix<T> &B);

/// The Galerkin product A_c = R * A * P, multiplied as (R * A) * P; the
/// order is part of the result's bits.
template <typename T>
CsrMatrix<T> galerkinProduct(const CsrMatrix<T> &R, const CsrMatrix<T> &A,
                             const CsrMatrix<T> &P);

extern template CsrMatrix<float> spgemm(const CsrMatrix<float> &,
                                        const CsrMatrix<float> &);
extern template CsrMatrix<double> spgemm(const CsrMatrix<double> &,
                                         const CsrMatrix<double> &);
extern template CsrMatrix<float> galerkinProduct(const CsrMatrix<float> &,
                                                 const CsrMatrix<float> &,
                                                 const CsrMatrix<float> &);
extern template CsrMatrix<double> galerkinProduct(const CsrMatrix<double> &,
                                                  const CsrMatrix<double> &,
                                                  const CsrMatrix<double> &);

} // namespace smat

#endif // SMAT_AMG_SPGEMM_H
