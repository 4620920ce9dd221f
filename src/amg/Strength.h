//===- amg/Strength.h - Strength-of-connection graph ------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classical strength-of-connection: entry (i, j), j != i, is a strong
/// connection when |a_ij| >= Theta * max_{k != i} |a_ik|. The strength graph
/// drives both coarsening algorithms and the interpolation stencil.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_STRENGTH_H
#define SMAT_AMG_STRENGTH_H

#include "matrix/CsrMatrix.h"

namespace smat {

/// The strength pattern S of \p A: a CSR boolean pattern (values all 1.0)
/// with one row per variable and the strong off-diagonal connections as
/// entries, in \p A's entry order. \p Theta is the classical strength
/// threshold (0.25 default). The rows run as row slices of \p A
/// (amg/CsrBySlices.h).
CsrMatrix<double> strengthGraph(const CsrMatrix<double> &A,
                                double Theta = 0.25);

} // namespace smat

#endif // SMAT_AMG_STRENGTH_H
