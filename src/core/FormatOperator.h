//===- core/FormatOperator.h - Polymorphic tuned SpMV operators -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operator layer of the tuning runtime. `FormatOperator<T>` is the
/// interface `TunedSpmv::apply` dispatches through; `BoundOperator` is its
/// one implementation: a matrix in one storage format bound to the
/// scoreboard-selected SpMV kernel and, for every format with an SpMM family,
/// the per-width SpMM kernel. `bindFormatOperator` is the one place that
/// turns a `FormatKind` into a conversion plus kernel picks; the
/// execute-and-measure race times the operators it builds, so the race
/// measures exactly what a win binds. Adding a format (paper contribution 3)
/// means adding its matrix type, converter and one case there.
///
/// CSR is special: because it is the unified input format, the operator can
/// either borrow the caller's matrix (zero-copy, the tune-once/apply-in-loop
/// pattern) or own a copy when the caller cannot guarantee the input
/// outlives the operator. See `CsrStorage`.
///
/// A large converted plan whose kernel pick is serial is bound as row
/// slices, one per OpenMP thread, that run the same kernel side by side;
/// see `bindFormatOperator`.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_FORMATOPERATOR_H
#define SMAT_CORE_FORMATOPERATOR_H

#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace smat {

/// How a CSR-bound operator holds the input matrix.
enum class CsrStorage {
  /// Reference the caller's matrix; it must outlive the operator. This is
  /// the default (zero conversion cost, zero memory cost) and matches the
  /// paper's usage pattern.
  Borrowed,
  /// Copy the matrix into the operator, which is then self-contained.
  Owned,
};

/// A tuned SpMV operator bound to one (format, kernel) pair: `apply`
/// computes y := A*x and `multiply` computes the batched Y := A*X over a
/// row-major block of K right-hand sides.
template <typename T> class FormatOperator {
public:
  virtual ~FormatOperator() = default;

  /// Computes y := A*x with the bound kernel.
  virtual void apply(const T *X, T *Y) const = 0;

  /// Computes Y := A*X for a row-major block of K right-hand sides
  /// (X: numCols() x K, Y: numRows() x K). Every operator supports it; one
  /// without an SpMM kernel (BSR, the reference rung) runs apply() column by
  /// column through staging buffers.
  virtual void multiply(const T *X, T *Y, index_t K) const = 0;

  /// \returns the storage format this operator executes in.
  virtual FormatKind kind() const = 0;

  /// \returns the bound kernel's registry name.
  virtual const char *kernelName() const = 0;

  /// \returns the bound SpMM kernel's registry name, or the SpMV kernel
  /// name when multiply() runs through the column-at-a-time fallback.
  virtual const char *spmmKernelName() const = 0;

  /// Dimensions of the bound matrix.
  virtual index_t numRows() const = 0;
  virtual index_t numCols() const = 0;

  /// \returns false when the operator borrows the caller's CSR matrix.
  virtual bool ownsStorage() const = 0;

  /// \returns how many row slices apply() and multiply() run side by side;
  /// 1 for an unsliced plan.
  virtual index_t numSlices() const = 0;
};

/// The one FormatOperator implementation: a `MatrixT<T>` (CsrMatrix,
/// CooMatrix, ...) bound to an SpMV kernel and an optional SpMM kernel. The
/// operator owns its matrix, or borrows the caller's (CSR only); it is
/// always heap-allocated and never copied, since it may point at itself.
/// An owned matrix is held as one or more row slices: with several, apply()
/// and multiply() run the bound kernel on every slice in one OpenMP parallel
/// loop, and each slice writes only its own rows of y. The unsliced operator
/// is the one-slice case.
template <template <typename> class MatrixT, typename T>
class BoundOperator final : public FormatOperator<T> {
public:
  using Matrix = MatrixT<T>;
  using SpmvFn = void (*)(const Matrix &, const T *, T *);
  using SpmmFn = void (*)(const Matrix &, const T *, T *, index_t);

  /// Binds \p Spmv and \p Spmm to \p Borrowed, which must outlive the
  /// operator. A null \p Spmm makes multiply() run \p Spmv column by
  /// column.
  BoundOperator(const Matrix &Borrowed, const Kernel<SpmvFn> &Spmv,
                const Kernel<SpmmFn> *Spmm = nullptr)
      : A(&Borrowed), Rows(A->NumRows), Cols(A->NumCols) {
    bindKernels(Spmv, Spmm);
  }

  /// Binds the kernels to the owned row slices \p Parts: slice S holds the
  /// matrix rows from \p Begins[S] up to the next slice's first row. One
  /// slice starting at row 0 is an owned, unsliced matrix.
  BoundOperator(std::vector<Matrix> &&Parts, std::vector<index_t> &&Begins,
                const Kernel<SpmvFn> &Spmv, const Kernel<SpmmFn> *Spmm)
      : Slices(std::move(Parts)), RowBegin(std::move(Begins)),
        A(Slices.data()), Rows(RowBegin.back() + Slices.back().NumRows),
        Cols(A->NumCols) {
    assert(!Slices.empty() && Slices.size() == RowBegin.size() &&
           "one first row per slice");
    bindKernels(Spmv, Spmm);
  }
  BoundOperator(const BoundOperator &) = delete;
  BoundOperator &operator=(const BoundOperator &) = delete;

  void apply(const T *X, T *Y) const override {
    if (Slices.size() < 2) {
      Spmv(*A, X, Y);
      return;
    }
    const auto N = static_cast<index_t>(Slices.size());
#pragma omp parallel for schedule(static)
    for (index_t S = 0; S < N; ++S)
      Spmv(Slices[S], X, Y + RowBegin[S]);
  }

  void multiply(const T *X, T *Y, index_t K) const override {
    if (Spmm) {
      if (Slices.size() < 2) {
        Spmm(*A, X, Y, K);
        return;
      }
      // A threaded SpMM pick spans the team by itself: its slices run in
      // turn instead of nesting one team inside another.
      const auto N = static_cast<index_t>(Slices.size());
#pragma omp parallel for schedule(static) if (!SpmmThreaded)
      for (index_t S = 0; S < N; ++S)
        Spmm(Slices[S], X, Y + static_cast<std::size_t>(RowBegin[S]) * K, K);
      return;
    }
    if (K == 1) {
      apply(X, Y);
      return;
    }
    AlignedVector<T> Xc(static_cast<std::size_t>(Cols));
    AlignedVector<T> Yc(static_cast<std::size_t>(Rows));
    for (index_t J = 0; J < K; ++J) {
      for (index_t I = 0; I < Cols; ++I)
        Xc[static_cast<std::size_t>(I)] =
            X[static_cast<std::size_t>(I) * K + J];
      apply(Xc.data(), Yc.data());
      for (index_t I = 0; I < Rows; ++I)
        Y[static_cast<std::size_t>(I) * K + J] =
            Yc[static_cast<std::size_t>(I)];
    }
  }

  FormatKind kind() const override { return Matrix::Format; }
  const char *kernelName() const override { return SpmvName; }
  const char *spmmKernelName() const override { return SpmmName; }
  index_t numRows() const override { return Rows; }
  index_t numCols() const override { return Cols; }
  bool ownsStorage() const override { return !Slices.empty(); }
  index_t numSlices() const override {
    return std::max(index_t(1), static_cast<index_t>(Slices.size()));
  }

private:
  void bindKernels(const Kernel<SpmvFn> &SpmvK, const Kernel<SpmmFn> *SpmmK) {
    Spmv = SpmvK.Fn;
    SpmvName = SpmvK.Name;
    Spmm = SpmmK ? SpmmK->Fn : nullptr;
    SpmmName = SpmmK ? SpmmK->Name : SpmvK.Name;
    SpmmThreaded = SpmmK && (SpmmK->Flags & OptThreads);
  }

  /// The owned matrix as row slices in row order; empty when borrowing.
  std::vector<Matrix> Slices;
  /// First matrix row of each slice (empty for a borrowing operator).
  std::vector<index_t> RowBegin;
  /// The borrowed matrix, or the first slice.
  const Matrix *A;
  const index_t Rows, Cols;
  SpmvFn Spmv;
  SpmmFn Spmm;
  const char *SpmvName;
  const char *SpmmName;
  bool SpmmThreaded;
};

namespace detail {

/// Binds the CSR kernels \p K and \p M to \p A, borrowed or, per
/// \p Storage, copied into the operator as one slice.
template <typename T>
std::unique_ptr<FormatOperator<T>>
csrOperator(const CsrMatrix<T> &A, const Kernel<CsrKernelFn<T>> &K,
            const Kernel<CsrSpmmFn<T>> &M, CsrStorage Storage) {
  using Op = BoundOperator<CsrMatrix, T>;
  if (Storage == CsrStorage::Borrowed)
    return std::make_unique<Op>(A, K, &M);
  return std::make_unique<Op>(std::vector<CsrMatrix<T>>(1, A),
                              std::vector<index_t>{0}, K, &M);
}

/// \returns the team size of the next OpenMP parallel region; 1 without
/// OpenMP.
inline index_t teamSize() {
#ifdef _OPENMP
  return static_cast<index_t>(omp_get_max_threads());
#else
  return 1;
#endif
}

/// Converts \p A with \p Convert and binds the picks \p SpmvIdx of
/// \p SpmvList and \p SpmmIdx of \p SpmmList (null: no SpMM family), each
/// through pickKernel. \p Convert(M, Out, Guarded) converts M into Out,
/// with the format's fill guards only when Guarded; \p Fits(M) runs those
/// guards alone. \returns null when a guard declines.
///
/// A matrix of at least SlicedPlanGrain nonzeros whose SpMV pick is serial
/// (a threaded pick already spans the team) is converted as teamSize() row
/// slices of near-equal nonzero counts, each starting on a multiple of
/// \p Align rows. \p Fits judges the whole matrix first, so slicing never
/// changes the bound format; the slices are then converted without guards,
/// one after another on the calling thread, so their storage is never
/// allocated inside a parallel region.
template <template <typename> class MatrixT, typename T, typename FitsFn,
          typename ConvertFn>
std::unique_ptr<FormatOperator<T>> bindConverted(
    const CsrMatrix<T> &A,
    const std::vector<Kernel<typename BoundOperator<MatrixT, T>::SpmvFn>>
        &SpmvList,
    int SpmvIdx,
    const std::vector<Kernel<typename BoundOperator<MatrixT, T>::SpmmFn>>
        *SpmmList,
    int SpmmIdx, index_t Align, FitsFn Fits, ConvertFn Convert) {
  const bool Serial = !(kernelEntry(SpmvList, SpmvIdx).Flags & OptThreads);
  std::vector<index_t> Bounds = balancedRowBounds(
      A, Serial && A.nnz() >= SlicedPlanGrain ? teamSize() : index_t(1),
      Align);
  std::vector<MatrixT<T>> Slices(Bounds.size() - 1);
  if (Slices.size() == 1) {
    if (!Convert(A, Slices.front(), true))
      return nullptr;
  } else {
    if (!Fits(A))
      return nullptr;
    for (std::size_t S = 0; S != Slices.size(); ++S)
      if (!Convert(csrRowSlice(A, Bounds[S], Bounds[S + 1]), Slices[S],
                   false))
        return nullptr;
  }
  const auto &K = pickKernel(SpmvList, SpmvIdx, Slices.front());
  const auto *M =
      SpmmList ? &pickKernel(*SpmmList, SpmmIdx, Slices.front()) : nullptr;
  Bounds.pop_back();
  return std::make_unique<BoundOperator<MatrixT, T>>(
      std::move(Slices), std::move(Bounds), K, M);
}

} // namespace detail

/// The untuned plan: \p A bound to the basic (strategy-free) CSR SpMV and
/// SpMM kernels, with no conversion and no model lookup. Serves the async
/// service's bootstrap, the never-slower guardrail's forced bind and the
/// degradation ladder's BasicKernel rung.
template <typename T>
std::unique_ptr<FormatOperator<T>>
basicCsrOperator(const CsrMatrix<T> &A,
                 CsrStorage Storage = CsrStorage::Borrowed) {
  return detail::csrOperator(A, basicCsrKernel<T>(), basicCsrSpmmKernel<T>(),
                             Storage);
}

/// Converts \p A to \p Requested and binds the scoreboard-selected kernels
/// from \p Sel, each passed through pickKernel. A DIA/ELL/BSR conversion can
/// be rejected by its fill guards even when the model predicted the format
/// confidently; the fallback is always CSR (honoring \p Storage).
/// \p CsrKernelOverride, when non-negative, replaces the
/// scoreboard's general CSR pick — the skew-aware bind path passes
/// Sel.csrKernelFor(rowCv) here so heavily skewed matrices get the
/// load-balanced kernel. \p BatchWidth selects which per-width SpMM pick
/// (KernelSelection::BestSpmmKernel) the operator binds for multiply(); an
/// unsearched width binds the format's basic SpMM kernel, so multiply() is
/// batched for CSR/COO/DIA/ELL regardless of tuning width.
///
/// A COO/DIA/ELL/BSR plan is row-sliced when \p A has at least
/// SlicedPlanGrain nonzeros and the format's SpMV pick is serial (see
/// detail::bindConverted). CSR binds, threaded picks and basicCsrOperator
/// are never sliced.
template <typename T>
std::unique_ptr<FormatOperator<T>>
bindFormatOperator(const CsrMatrix<T> &A, FormatKind Requested,
                   const KernelSelection &Sel,
                   CsrStorage Storage = CsrStorage::Borrowed,
                   int CsrKernelOverride = -1, index_t BatchWidth = 1) {
  const KernelTable<T> &Kernels = kernelTable<T>();
  auto Spmv = [&Sel](FormatKind Kind) {
    return Sel.BestKernel[static_cast<int>(Kind)];
  };
  auto Spmm = [&Sel, BatchWidth](FormatKind Kind) {
    return Sel.spmmKernelFor(Kind, BatchWidth);
  };

  std::unique_ptr<FormatOperator<T>> Op;
  switch (Requested) {
  case FormatKind::COO:
    Op = detail::bindConverted<CooMatrix>(
        A, Kernels.Coo, Spmv(FormatKind::COO), &Kernels.CooSpmm,
        Spmm(FormatKind::COO), 1, [](const CsrMatrix<T> &) { return true; },
        [](const CsrMatrix<T> &M, CooMatrix<T> &Out, bool) {
          Out = csrToCoo(M);
          return true;
        });
    break;
  case FormatKind::DIA:
    Op = detail::bindConverted<DiaMatrix>(
        A, Kernels.Dia, Spmv(FormatKind::DIA), &Kernels.DiaSpmm,
        Spmm(FormatKind::DIA), 1,
        [](const CsrMatrix<T> &M) { return diaFits(M); },
        [](const CsrMatrix<T> &M, DiaMatrix<T> &Out, bool Guarded) {
          return Guarded ? csrToDia(M, Out) : csrToDia(M, Out, 0.0, 0);
        });
    break;
  case FormatKind::ELL:
    Op = detail::bindConverted<EllMatrix>(
        A, Kernels.Ell, Spmv(FormatKind::ELL), &Kernels.EllSpmm,
        Spmm(FormatKind::ELL), 1,
        [](const CsrMatrix<T> &M) { return ellFits(M); },
        [](const CsrMatrix<T> &M, EllMatrix<T> &Out, bool Guarded) {
          return Guarded ? csrToEll(M, Out) : csrToEll(M, Out, 0.0);
        });
    break;
  case FormatKind::BSR: {
    // BSR has no SpMM kernel family: multiply() runs the SpMV kernel column
    // by column. Slices start on block rows, so they tile the same blocks.
    index_t BlockSize = chooseBsrBlockSize(A);
    if (BlockSize <= 0)
      break;
    Op = detail::bindConverted<BsrMatrix>(
        A, Kernels.Bsr, Spmv(FormatKind::BSR), nullptr, -1, BlockSize,
        [BlockSize](const CsrMatrix<T> &M) { return bsrFits(M, BlockSize); },
        [BlockSize](const CsrMatrix<T> &M, BsrMatrix<T> &Out, bool Guarded) {
          return Guarded ? csrToBsr(M, Out, BlockSize)
                         : csrToBsr(M, Out, BlockSize, 0.0);
        });
    break;
  }
  case FormatKind::CSR:
    break;
  }
  if (Op)
    return Op;

  int CsrIdx =
      CsrKernelOverride >= 0 ? CsrKernelOverride : Spmv(FormatKind::CSR);
  return detail::csrOperator(
      A, pickKernel(Kernels.Csr, CsrIdx, A),
      pickKernel(Kernels.CsrSpmm, Spmm(FormatKind::CSR), A), Storage);
}

} // namespace smat

#endif // SMAT_CORE_FORMATOPERATOR_H
