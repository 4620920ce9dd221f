//===- amg/Interp.h - Direct interpolation ----------------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classical direct interpolation: C points inject, F points interpolate
/// from their strong C neighbours with weights
///   w_ij = -alpha_i * a_ij / a_ii,
///   alpha_i = (sum of all off-diagonal a_ik) / (sum over strong C a_ik),
/// which preserves constant vectors for M-matrix-like operators.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_INTERP_H
#define SMAT_AMG_INTERP_H

#include "amg/Coarsen.h"

namespace smat {

/// Builds the prolongation operator P (NumRows x NumCoarse) from operator
/// \p A, strength graph \p S and splitting \p Split. The rows run as row
/// slices of \p A (amg/CsrBySlices.h).
CsrMatrix<double> directInterpolation(const CsrMatrix<double> &A,
                                      const CsrMatrix<double> &S,
                                      const std::vector<CfPoint> &Split);

} // namespace smat

#endif // SMAT_AMG_INTERP_H
