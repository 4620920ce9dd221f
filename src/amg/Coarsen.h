//===- amg/Coarsen.h - C/F splitting algorithms -----------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two coarsening algorithms the paper's Table 4 exercises:
///  - "rugeL": classical Ruge–Stüben first-pass greedy coarsening driven by
///    the number of points each point strongly influences. The next C point
///    comes off an indexed max-heap ordered by (measure, point), the larger
///    index first among equal measures, whose keys grow in place as F points
///    bump their influencers; it is serial;
///  - "cljp": a CLJP/PMIS-style parallel independent-set coarsening with
///    randomized tie-breaking measures. Each sweep's local-maximum test runs
///    on row slices of S (support/Slices.h), and the new C points are
///    applied in slice order, which is the serial sweep's order.
/// Both are followed by a second pass guaranteeing every F point keeps at
/// least one strong C neighbour (required by direct interpolation). Neither
/// split depends on the slices or the team size.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_COARSEN_H
#define SMAT_AMG_COARSEN_H

#include "matrix/CsrMatrix.h"

#include <vector>

namespace smat {

/// Point classification produced by coarsening.
enum class CfPoint : std::uint8_t { F = 0, C = 1 };

/// Which coarsening algorithm to run.
enum class CoarsenKind { RugeL, Cljp };

/// Computes a C/F splitting of the variables of strength graph \p S.
/// \p Seed randomizes CLJP's tie-breaking (ignored by RugeL).
std::vector<CfPoint> coarsen(const CsrMatrix<double> &S, CoarsenKind Kind,
                             std::uint64_t Seed = 7);

/// \returns the number of C points in \p Split.
index_t countCoarse(const std::vector<CfPoint> &Split);

} // namespace smat

#endif // SMAT_AMG_COARSEN_H
