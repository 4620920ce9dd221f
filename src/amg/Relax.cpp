//===- amg/Relax.cpp - Smoothers and dense coarse solve -------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/Relax.h"

#include "matrix/FormatConvert.h"
#include "support/Compiler.h"
#include "support/Slices.h"

#include <cmath>

using namespace smat;

std::vector<double> smat::extractDiagonal(const CsrMatrix<double> &A) {
  std::vector<double> Diag(static_cast<std::size_t>(A.NumRows), 0.0);
  double *D = Diag.data();
  runSlices(planRowBounds(A, 1), [&](index_t, index_t Begin, index_t End) {
    for (index_t Row = Begin; Row < End; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
        if (A.ColIdx[I] == Row)
          D[Row] = A.Values[I];
  });
  return Diag;
}

void smat::jacobiSweep(const SpmvFn &Spmv, const std::vector<double> &InvDiag,
                       const double *B, double *X, double *Scratch,
                       const std::vector<index_t> &Slices, double Omega) {
  Spmv(X, Scratch); // Scratch = A*X
  const double *D = InvDiag.data();
  runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    for (index_t I = Begin; I < End; ++I)
      X[I] += Omega * D[I] * (B[I] - Scratch[I]);
  });
}

void smat::jacobiSweepFromZero(const std::vector<double> &InvDiag,
                               const double *B, double *X,
                               const std::vector<index_t> &Slices,
                               double Omega) {
  const double *D = InvDiag.data();
  runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    for (index_t I = Begin; I < End; ++I)
      X[I] = 0.0 + Omega * D[I] * (B[I] - 0.0);
  });
}

void smat::residual(const SpmvFn &Spmv, const double *B, const double *X,
                    double *R, const std::vector<index_t> &Slices) {
  Spmv(X, R); // R = A*X
  runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    for (index_t I = Begin; I < End; ++I)
      R[I] = B[I] - R[I];
  });
}

void DenseLu::factor(const CsrMatrix<double> &A) {
  assert(A.NumRows == A.NumCols && "dense LU needs a square matrix");
  N = A.NumRows;
  Lu.assign(static_cast<std::size_t>(N) * static_cast<std::size_t>(N), 0.0);
  Perm.resize(static_cast<std::size_t>(N));
  for (index_t Row = 0; Row < N; ++Row) {
    Perm[static_cast<std::size_t>(Row)] = Row;
    for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I)
      Lu[static_cast<std::size_t>(Row) * N + A.ColIdx[I]] = A.Values[I];
  }

  for (index_t K = 0; K < N; ++K) {
    // Partial pivoting.
    index_t Pivot = K;
    double Best = std::abs(Lu[static_cast<std::size_t>(K) * N + K]);
    for (index_t Row = K + 1; Row < N; ++Row) {
      double Cand = std::abs(Lu[static_cast<std::size_t>(Row) * N + K]);
      if (Cand > Best) {
        Best = Cand;
        Pivot = Row;
      }
    }
    if (Pivot != K) {
      for (index_t Col = 0; Col < N; ++Col)
        std::swap(Lu[static_cast<std::size_t>(K) * N + Col],
                  Lu[static_cast<std::size_t>(Pivot) * N + Col]);
      std::swap(Perm[static_cast<std::size_t>(K)],
                Perm[static_cast<std::size_t>(Pivot)]);
    }
    double Diag = Lu[static_cast<std::size_t>(K) * N + K];
    if (Diag == 0.0)
      continue; // Singular block; the V-cycle still contracts elsewhere.
    for (index_t Row = K + 1; Row < N; ++Row) {
      double Factor = Lu[static_cast<std::size_t>(Row) * N + K] / Diag;
      Lu[static_cast<std::size_t>(Row) * N + K] = Factor;
      if (Factor == 0.0)
        continue;
      for (index_t Col = K + 1; Col < N; ++Col)
        Lu[static_cast<std::size_t>(Row) * N + Col] -=
            Factor * Lu[static_cast<std::size_t>(K) * N + Col];
    }
  }
}

void DenseLu::solve(double *X) const {
  // Apply the row permutation.
  std::vector<double> B(static_cast<std::size_t>(N));
  for (index_t I = 0; I < N; ++I)
    B[static_cast<std::size_t>(I)] = X[Perm[static_cast<std::size_t>(I)]];
  // Forward substitution (unit lower triangle).
  for (index_t Row = 0; Row < N; ++Row) {
    double Sum = B[static_cast<std::size_t>(Row)];
    for (index_t Col = 0; Col < Row; ++Col)
      Sum -= Lu[static_cast<std::size_t>(Row) * N + Col] *
             B[static_cast<std::size_t>(Col)];
    B[static_cast<std::size_t>(Row)] = Sum;
  }
  // Back substitution.
  for (index_t Row = N - 1; Row >= 0; --Row) {
    double Sum = B[static_cast<std::size_t>(Row)];
    for (index_t Col = Row + 1; Col < N; ++Col)
      Sum -= Lu[static_cast<std::size_t>(Row) * N + Col] *
             B[static_cast<std::size_t>(Col)];
    double Diag = Lu[static_cast<std::size_t>(Row) * N + Row];
    B[static_cast<std::size_t>(Row)] = Diag != 0.0 ? Sum / Diag : 0.0;
  }
  for (index_t I = 0; I < N; ++I)
    X[I] = B[static_cast<std::size_t>(I)];
}
