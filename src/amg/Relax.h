//===- amg/Relax.h - Smoothers and dense coarse solve -----------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Relaxation methods for the AMG V-cycle. Weighted Jacobi is expressed in
/// terms of a pluggable SpMV operator (x += omega * D^-1 * (b - A x)), so
/// the solver's dominant cost is exactly the SpMV kernel SMAT tunes — the
/// property the paper's Table 4 experiment relies on. A dense LU
/// coarse-grid solve is also provided.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_RELAX_H
#define SMAT_AMG_RELAX_H

#include "matrix/CsrMatrix.h"

#include <functional>
#include <vector>

namespace smat {

/// A bound y := A*x operator (either a plain CSR kernel or a SMAT-tuned
/// kernel).
using SpmvFn = std::function<void(const double *X, double *Y)>;

/// Extracts the diagonal of \p A (zeros where absent), its rows run as
/// planRowBounds slices.
std::vector<double> extractDiagonal(const CsrMatrix<double> &A);

/// One weighted-Jacobi sweep: X += Omega * D^-1 * (B - A*X), with the A*X
/// product supplied by \p Spmv and \p Scratch a work array of A's rows.
/// The update runs on the row slices \p Slices (0, the cuts, NumRows) side
/// by side (support/Slices.h).
void jacobiSweep(const SpmvFn &Spmv, const std::vector<double> &InvDiag,
                 const double *B, double *X, double *Scratch,
                 const std::vector<index_t> &Slices, double Omega);

/// The weighted-Jacobi sweep from X = 0: X = Omega * D^-1 * B, written
/// with jacobiSweep's expression for X = 0 and A*X = 0, so X holds the bits
/// jacobiSweep gives from a zeroed X, without the product. \p X's contents
/// are ignored.
void jacobiSweepFromZero(const std::vector<double> &InvDiag, const double *B,
                         double *X, const std::vector<index_t> &Slices,
                         double Omega);

/// Residual R = B - A*X via \p Spmv, the subtraction running on the row
/// slices \p Slices side by side.
void residual(const SpmvFn &Spmv, const double *B, const double *X, double *R,
              const std::vector<index_t> &Slices);

/// Dense LU solver for the coarsest grid.
class DenseLu {
public:
  /// Factors \p A (partial pivoting). \p A must be square and small.
  void factor(const CsrMatrix<double> &A);

  /// Solves A*X = B in place: X starts as B.
  void solve(double *X) const;

  index_t size() const { return N; }

private:
  index_t N = 0;
  std::vector<double> Lu;    ///< Row-major packed factors.
  std::vector<index_t> Perm; ///< Pivot row permutation.
};

} // namespace smat

#endif // SMAT_AMG_RELAX_H
