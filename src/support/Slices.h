//===- support/Slices.h - Run row slices side by side -----------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slice runner: the one body through which a row-sliced plan
/// (core/FormatOperator.h), the AMG solver's vector loops, feature
/// extraction and the format conversions reach threads. A bounds vector (0,
/// the interior cuts, the end) names the slices; slice S is the half-open
/// range [Bounds[S], Bounds[S + 1]). A call runs every slice once, side by
/// side on the OpenMP team under a static schedule, so two calls over the
/// same bounds run slice S on the same thread. A single slice runs inline
/// on the calling thread without forking a team.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_SUPPORT_SLICES_H
#define SMAT_SUPPORT_SLICES_H

#include <cassert>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace smat {

/// \returns how many slices work above the grain (matrix/FormatConvert.h's
/// planRowBounds) is cut into: one per processor the process may use,
/// whichever thread asks, so a plan the serial tuning-service worker binds
/// slices for its callers too. 1 without OpenMP.
inline int planSliceCount() {
#ifdef _OPENMP
  return omp_get_num_procs();
#else
  return 1;
#endif
}

/// Runs \p Fn(S, Begin, End) on every slice S of \p Bounds side by side.
template <typename IndexT, typename FnT>
void runSlices(const std::vector<IndexT> &Bounds, FnT &&Fn) {
  assert(Bounds.size() >= 2 && "bounds name at least one slice");
  const auto N = static_cast<IndexT>(Bounds.size() - 1);
  if (N == 1) {
    Fn(IndexT(0), Bounds[0], Bounds[1]);
    return;
  }
#pragma omp parallel for schedule(static)
  for (IndexT S = 0; S < N; ++S)
    Fn(S, Bounds[S], Bounds[S + 1]);
}

/// \returns the sum of \p Fn(S, Begin, End) over the slices of \p Bounds,
/// in the type \p Fn returns: the partials run side by side as in runSlices
/// and are added in slice order, so the sum depends on the bounds alone,
/// not on the team size or on which thread ran which slice.
template <typename IndexT, typename FnT>
auto sumSlices(const std::vector<IndexT> &Bounds, FnT &&Fn) {
  using SumT = std::invoke_result_t<FnT &, IndexT, IndexT, IndexT>;
  std::vector<SumT> Partials(Bounds.size() - 1);
  runSlices(Bounds, [&](IndexT S, IndexT Begin, IndexT End) {
    Partials[static_cast<std::size_t>(S)] = Fn(S, Begin, End);
  });
  SumT Sum = 0;
  for (SumT P : Partials)
    Sum += P;
  return Sum;
}

} // namespace smat

#endif // SMAT_SUPPORT_SLICES_H
