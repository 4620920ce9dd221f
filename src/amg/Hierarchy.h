//===- amg/Hierarchy.h - AMG grid hierarchy ---------------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AMG setup phase: builds the sequence of grid operators
/// (A_0, ..., A_{N-1}) and transfer operators (P_0, ..., P_{N-2}) via
/// strength -> coarsening -> direct interpolation -> Galerkin product.
/// These are exactly the "two series of sparse matrices [that] dynamically
/// show different sparse features from the original input matrix A" that
/// motivate SMAT's use inside AMG (paper Section 7.4 / Figure 1). The row
/// passes (strength, interpolation, the transposes, both Galerkin products)
/// and CLJP's local-maximum test run on row slices through the slice
/// runner; every level's A, P and R is the same, bit for bit, at any team
/// size.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_HIERARCHY_H
#define SMAT_AMG_HIERARCHY_H

#include "amg/Coarsen.h"

#include <vector>

namespace smat {

/// One grid level. P/R are present on every level except the coarsest:
/// P maps coarse (level L+1) vectors up to level L, R = P^T restricts.
struct AmgLevel {
  CsrMatrix<double> A;
  CsrMatrix<double> P;
  CsrMatrix<double> R;
};

/// Setup-phase knobs. The rest of the setup is fixed: strength threshold
/// 0.25, at most 25 levels, no coarsening of a level of 64 rows or fewer,
/// a stop once a level keeps more than 90% of its rows as coarse points,
/// and coarsening seed 7 plus the level index.
struct HierarchyOptions {
  CoarsenKind Coarsening = CoarsenKind::RugeL;
};

/// The built hierarchy.
class AmgHierarchy {
public:
  /// Builds levels from fine operator \p A (consumed by value).
  void build(CsrMatrix<double> A, const HierarchyOptions &Opts);

  std::size_t numLevels() const { return Levels.size(); }
  const AmgLevel &level(std::size_t L) const { return Levels[L]; }
  AmgLevel &level(std::size_t L) { return Levels[L]; }

  /// Grid complexity: sum of level nnz over finest nnz.
  double operatorComplexity() const;

private:
  std::vector<AmgLevel> Levels;
};

} // namespace smat

#endif // SMAT_AMG_HIERARCHY_H
