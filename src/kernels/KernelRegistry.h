//===- kernels/KernelRegistry.h - SpMV kernel library -----------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SpMV kernel library (paper Figure 4, "Kernel Library"). Every format
/// has multiple implementations, each tagged with the set of optimization
/// strategies it applies. The scoreboard search (Scoreboard.h) scores the
/// strategies on the target architecture and picks the per-format optimal
/// kernel.
///
/// Kernel semantics: every kernel is written once over a row range. Called
/// as (A, RowBegin, RowEnd, x, y) it computes rows [RowBegin, RowEnd) of
/// y := A * x, overwriting them, and writes no other row of y; called as
/// (A, x, y) it runs the whole matrix. Each row's arithmetic is the same
/// whatever range it is computed in, so a plan cut into row slices gives
/// the same bits as the whole call (core/FormatOperator.h).
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_KERNELS_KERNELREGISTRY_H
#define SMAT_KERNELS_KERNELREGISTRY_H

#include "matrix/BsrMatrix.h"
#include "matrix/CooMatrix.h"
#include "matrix/CsrMatrix.h"
#include "matrix/DiaMatrix.h"
#include "matrix/EllMatrix.h"

#include <string>
#include <string_view>
#include <vector>

namespace smat {

/// Optimization strategies the kernel library explores (paper Section 5.2:
/// blocking/unrolling, SIMDization, software prefetching, branch
/// optimization). The paper's multi-threading and thread scheduling are not
/// kernel strategies here: every kernel is serial, and a plan runs its kernel
/// as balanced row slices across the OpenMP team once the matrix reaches the
/// grain (core/FormatOperator.h).
enum OptStrategy : unsigned {
  OptNone = 0,
  OptUnroll = 1u << 0,      ///< Inner-loop unrolling / multiple accumulators.
  OptSimd = 1u << 1,        ///< Explicit or pragma-driven vectorization.
  OptPrefetch = 1u << 2,    ///< Software prefetching of index/value streams.
  OptBranchFree = 1u << 3,  ///< Branch elimination / store deferral.
  OptInterchange = 1u << 4, ///< Loop-order interchange (ELL row-major).
  OptLoadBalance = 1u << 5, ///< Work bounded by each row's own length
                            ///< (sliced ELL) for skewed row lengths.
};

/// Number of distinct strategy bits above.
inline constexpr unsigned NumOptStrategies = 6;

/// Structural preconditions a kernel demands of its input beyond the
/// format's base invariants. Declared at registration so the binding layer
/// (and the scoreboard) can check them instead of trusting an assert.
enum KernelPrecond : unsigned {
  PrecondNone = 0,
  /// ELL storage must carry the optional per-row length sidecar
  /// (EllMatrix::RowLen); the sliced kernels use it to compute per-slice
  /// effective widths instead of sweeping the global padded width.
  PrecondRowLengths = 1u << 0,
};

/// Whether \p A satisfies the precondition set \p Preconds. The generic
/// overload accepts everything; formats with declared preconditions
/// specialize.
template <typename MatrixT>
inline bool kernelPrecondsHold(unsigned Preconds, const MatrixT &) {
  return Preconds == PrecondNone;
}

template <typename T>
inline bool kernelPrecondsHold(unsigned Preconds, const EllMatrix<T> &A) {
  if (Preconds & PrecondRowLengths)
    return A.hasRowLengths();
  return true;
}

/// \returns a short name for strategy bit \p Bit (0-based).
const char *optStrategyName(unsigned Bit);

/// \returns a "+"-joined list of the strategies in \p Flags, or "basic".
std::string optFlagsString(unsigned Flags);

/// A kernel's entry point: the row-range function it is written as, also
/// callable on the whole matrix. \p Args are the kernel's operands after the
/// row range. For BSR, both bounds must fall on block rows (RowEnd may also
/// be NumRows); a BSR kernel computes whole block rows.
template <typename MatrixT, typename... Args> struct RowRangeFn {
  using RangeFn = void (*)(const MatrixT &, index_t RowBegin, index_t RowEnd,
                           Args...);
  constexpr RowRangeFn(RangeFn Range = nullptr) : Range(Range) {}
  void operator()(const MatrixT &A, index_t RowBegin, index_t RowEnd,
                  Args... Operands) const {
    Range(A, RowBegin, RowEnd, Operands...);
  }
  void operator()(const MatrixT &A, Args... Operands) const {
    Range(A, 0, A.NumRows, Operands...);
  }
  RangeFn Range;
};

/// SpMV entry point: y := A * x.
template <typename MatrixT, typename T>
using RowRangeSpmv = RowRangeFn<MatrixT, const T *, T *>;

/// Batched (multi-RHS) SpMM entry point: Y := A * X where X is a row-major
/// dense block of K right-hand sides (NumCols x K) and Y is the row-major
/// result block (NumRows x K); the row range selects rows of Y. Keeping
/// the K values of one matrix row contiguous is what lets the
/// register-tiled variants hold the whole tile in registers while the
/// matrix is streamed once.
template <typename MatrixT, typename T>
using RowRangeSpmm = RowRangeFn<MatrixT, const T *, T *, index_t>;

template <typename T> using CsrKernelFn = RowRangeSpmv<CsrMatrix<T>, T>;
template <typename T> using CooKernelFn = RowRangeSpmv<CooMatrix<T>, T>;
template <typename T> using DiaKernelFn = RowRangeSpmv<DiaMatrix<T>, T>;
template <typename T> using EllKernelFn = RowRangeSpmv<EllMatrix<T>, T>;
template <typename T> using BsrKernelFn = RowRangeSpmv<BsrMatrix<T>, T>;

template <typename T> using CsrSpmmFn = RowRangeSpmm<CsrMatrix<T>, T>;
template <typename T> using CooSpmmFn = RowRangeSpmm<CooMatrix<T>, T>;
template <typename T> using DiaSpmmFn = RowRangeSpmm<DiaMatrix<T>, T>;
template <typename T> using EllSpmmFn = RowRangeSpmm<EllMatrix<T>, T>;

/// One kernel-library entry: an implementation plus its strategy tag set
/// and any structural preconditions it demands of the input.
template <typename FnT> struct Kernel {
  const char *Name;
  unsigned Flags;
  FnT Fn;
  unsigned Preconds = PrecondNone;
};

/// Builders defined by the per-format kernel translation units. Index 0 is
/// always the basic (strategy-free) implementation the scoreboard compares
/// against.
template <typename T> std::vector<Kernel<CsrKernelFn<T>>> makeCsrKernels();
template <typename T> std::vector<Kernel<CooKernelFn<T>>> makeCooKernels();
template <typename T> std::vector<Kernel<DiaKernelFn<T>>> makeDiaKernels();
template <typename T> std::vector<Kernel<EllKernelFn<T>>> makeEllKernels();
template <typename T> std::vector<Kernel<BsrKernelFn<T>>> makeBsrKernels();

/// SpMM (batched) kernel builders. Same index-0-is-basic convention.
template <typename T> std::vector<Kernel<CsrSpmmFn<T>>> makeCsrSpmmKernels();
template <typename T> std::vector<Kernel<CooSpmmFn<T>>> makeCooSpmmKernels();
template <typename T> std::vector<Kernel<DiaSpmmFn<T>>> makeDiaSpmmKernels();
template <typename T> std::vector<Kernel<EllSpmmFn<T>>> makeEllSpmmKernels();

/// The full kernel library for one value type.
template <typename T> struct KernelTable {
  std::vector<Kernel<CsrKernelFn<T>>> Csr;
  std::vector<Kernel<CooKernelFn<T>>> Coo;
  std::vector<Kernel<DiaKernelFn<T>>> Dia;
  std::vector<Kernel<EllKernelFn<T>>> Ell;
  std::vector<Kernel<BsrKernelFn<T>>> Bsr;

  /// Batched (SpMM) implementations. BSR has no dedicated SpMM family; the
  /// binding layer falls back to column-at-a-time SpMV there.
  std::vector<Kernel<CsrSpmmFn<T>>> CsrSpmm;
  std::vector<Kernel<CooSpmmFn<T>>> CooSpmm;
  std::vector<Kernel<DiaSpmmFn<T>>> DiaSpmm;
  std::vector<Kernel<EllSpmmFn<T>>> EllSpmm;

  /// Total number of implementations across all formats.
  std::size_t size() const {
    return Csr.size() + Coo.size() + Dia.size() + Ell.size() + Bsr.size() +
           CsrSpmm.size() + CooSpmm.size() + DiaSpmm.size() + EllSpmm.size();
  }
};

/// \returns the process-wide kernel table for \p T (float or double);
/// constructed once on first use.
template <typename T> const KernelTable<T> &kernelTable();

/// \returns the basic (strategy-free) CSR kernel, index 0 of the CSR list.
/// This is the degradation ladder's BasicKernel rung: it has no structural
/// preconditions and works on any validated CSR matrix.
template <typename T> const Kernel<CsrKernelFn<T>> &basicCsrKernel() {
  return kernelTable<T>().Csr.front();
}

/// \returns the basic (strategy-free) CSR SpMM kernel, index 0 of the CSR
/// SpMM list. Precondition-free, so it is always bindable.
template <typename T> const Kernel<CsrSpmmFn<T>> &basicCsrSpmmKernel() {
  return kernelTable<T>().CsrSpmm.front();
}

/// \returns the kernel-library entry \p Idx of \p List, or the basic entry
/// (index 0) when \p Idx is out of range — a model file trained on a build
/// with a larger library, e.g. the AVX2/AVX-512 CSR variants, loaded into a
/// portable build.
template <typename FnT>
const Kernel<FnT> &kernelEntry(const std::vector<Kernel<FnT>> &List,
                               int Idx) {
  if (Idx < 0 || static_cast<std::size_t>(Idx) >= List.size())
    return List.front();
  return List[static_cast<std::size_t>(Idx)];
}

/// \returns the index of the entry named \p Name in \p List, or 0 (the
/// basic entry) when this build registers no kernel of that name.
template <typename FnT>
int kernelIndexNamed(const std::vector<Kernel<FnT>> &List,
                     std::string_view Name) {
  for (std::size_t I = 0; I != List.size(); ++I)
    if (Name == List[I].Name)
      return static_cast<int>(I);
  return 0;
}

/// \returns kernelEntry(List, Idx), or the basic entry (precondition-free)
/// when \p M violates that entry's declared structural preconditions.
template <typename FnT, typename MatrixT>
const Kernel<FnT> &pickKernel(const std::vector<Kernel<FnT>> &List, int Idx,
                              const MatrixT &M) {
  const Kernel<FnT> &K = kernelEntry(List, Idx);
  return kernelPrecondsHold(K.Preconds, M) ? K : List.front();
}

extern template const KernelTable<float> &kernelTable<float>();
extern template const KernelTable<double> &kernelTable<double>();

} // namespace smat

#endif // SMAT_KERNELS_KERNELREGISTRY_H
