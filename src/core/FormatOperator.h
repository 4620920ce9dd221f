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
/// its SpMM kernel. `bindFormatOperator` is the one place that
/// turns a `FormatKind` into a conversion plus kernel picks; the
/// execute-and-measure race times the operators it builds, and the tune
/// binds the winner it timed. Adding a format (paper contribution 3)
/// means adding its matrix type, converter and one case there.
///
/// CSR is special: because it is the unified input format, a CSR plan
/// borrows the caller's matrix (zero-copy, the tune-once/apply-in-loop
/// pattern), which must outlive the operator; every other format owns its
/// converted copy.
///
/// Threads reach a plan only here: every kernel is serial, and a plan of
/// ParallelConvertGrain nonzeros or more runs as row slices, one per
/// processor: the one matrix plus nonzero-balanced row bounds, each slice
/// running the pick's row-range kernel on its rows side by side through the
/// slice runner (support/Slices.h); see `bindFormatOperator`. The AMG
/// solver runs its vector loops through the same runner, on the bounds of
/// each level's plan, and feature extraction and the conversions run on it
/// too; all of them cut their slices with `planRowBounds`
/// (matrix/FormatConvert.h).
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_FORMATOPERATOR_H
#define SMAT_CORE_FORMATOPERATOR_H

#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"
#include "support/Slices.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace smat {

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

  /// \returns how many row slices apply() runs side by side; 1 for an
  /// unsliced plan. multiply() runs the same slices unless its SpMM kernel
  /// is the basic CSR one.
  virtual index_t numSlices() const = 0;
};

/// The one FormatOperator implementation: a `MatrixT<T>` (CsrMatrix,
/// CooMatrix, ...) bound to an SpMV kernel and an optional SpMM kernel. The
/// operator owns its matrix, or borrows the caller's (CSR only); it is
/// always heap-allocated and never copied, since it may point at itself.
///
/// The operator also holds row bounds that cut the matrix into slices (one
/// slice by default). apply() and multiply() run their kernel on every slice
/// through runSlices, each slice writing only its own rows of y, when the
/// kernel runs sliced (runsSliced); otherwise they make one whole-matrix
/// call. Either way the matrix is the same one: a slice is a row range,
/// never a copy.
template <template <typename> class MatrixT, typename T>
class BoundOperator final : public FormatOperator<T> {
public:
  using Matrix = MatrixT<T>;
  using SpmvFn = RowRangeSpmv<Matrix, T>;
  using SpmmFn = RowRangeSpmm<Matrix, T>;

  /// Binds \p Spmv and \p Spmm to \p Borrowed, which must outlive the
  /// operator, with the slice bounds \p Bounds (0, the interior cuts,
  /// NumRows; empty for one slice). A null \p Spmm makes multiply() run
  /// \p Spmv column by column.
  BoundOperator(const Matrix &Borrowed, const Kernel<SpmvFn> &Spmv,
                const Kernel<SpmmFn> *Spmm = nullptr,
                std::vector<index_t> Bounds = {})
      : A(&Borrowed) {
    bind(Spmv, Spmm, std::move(Bounds));
  }

  /// Same, with the operator owning \p Owned.
  BoundOperator(Matrix &&Owned, const Kernel<SpmvFn> &Spmv,
                const Kernel<SpmmFn> *Spmm, std::vector<index_t> Bounds = {})
      : Storage(std::move(Owned)), A(&*Storage) {
    bind(Spmv, Spmm, std::move(Bounds));
  }
  BoundOperator(const BoundOperator &) = delete;
  BoundOperator &operator=(const BoundOperator &) = delete;

  void apply(const T *X, T *Y) const override {
    if (!SliceSpmv) {
      Spmv(*A, X, Y);
      return;
    }
    runSlices(Bounds, [this, X, Y](index_t, index_t Begin, index_t End) {
      Spmv(*A, Begin, End, X, Y);
    });
  }

  void multiply(const T *X, T *Y, index_t K) const override {
    if (Spmm.Range) {
      if (!SliceSpmm) {
        Spmm(*A, X, Y, K);
        return;
      }
      runSlices(Bounds, [this, X, Y, K](index_t, index_t Begin, index_t End) {
        Spmm(*A, Begin, End, X, Y, K);
      });
      return;
    }
    if (K == 1) {
      apply(X, Y);
      return;
    }
    AlignedVector<T> Xc(static_cast<std::size_t>(A->NumCols));
    AlignedVector<T> Yc(static_cast<std::size_t>(A->NumRows));
    for (index_t J = 0; J < K; ++J) {
      for (index_t I = 0; I < A->NumCols; ++I)
        Xc[static_cast<std::size_t>(I)] =
            X[static_cast<std::size_t>(I) * K + J];
      apply(Xc.data(), Yc.data());
      for (index_t I = 0; I < A->NumRows; ++I)
        Y[static_cast<std::size_t>(I) * K + J] =
            Yc[static_cast<std::size_t>(I)];
    }
  }

  FormatKind kind() const override { return Matrix::Format; }
  const char *kernelName() const override { return SpmvName; }
  const char *spmmKernelName() const override { return SpmmName; }
  index_t numRows() const override { return A->NumRows; }
  index_t numCols() const override { return A->NumCols; }
  bool ownsStorage() const override { return Storage.has_value(); }
  index_t numSlices() const override {
    return SliceSpmv ? static_cast<index_t>(Bounds.size() - 1) : 1;
  }

  /// Whether \p K runs as row slices when the plan has several: every
  /// kernel does but the basic CSR ones, which stay the serial reference
  /// every plan is checked against (by name, which is how a report reads
  /// them).
  template <typename FnT> static bool runsSliced(const Kernel<FnT> &K) {
    return std::strcmp(K.Name, basicCsrKernel<T>().Name) != 0 &&
           std::strcmp(K.Name, basicCsrSpmmKernel<T>().Name) != 0;
  }

private:
  void bind(const Kernel<SpmvFn> &SpmvK, const Kernel<SpmmFn> *SpmmK,
            std::vector<index_t> RowBounds) {
    assert((RowBounds.empty() ||
            (RowBounds.front() == 0 && RowBounds.back() == A->NumRows)) &&
           "slice bounds run from row 0 to NumRows");
    Bounds = std::move(RowBounds);
    const bool Sliced = Bounds.size() > 2;
    Spmv = SpmvK.Fn;
    SpmvName = SpmvK.Name;
    SliceSpmv = Sliced && runsSliced(SpmvK);
    Spmm = SpmmK ? SpmmK->Fn : SpmmFn();
    SpmmName = SpmmK ? SpmmK->Name : SpmvK.Name;
    SliceSpmm = Sliced && SpmmK && runsSliced(*SpmmK);
  }

  /// The owned matrix; empty when borrowing.
  std::optional<Matrix> Storage;
  /// The borrowed or owned matrix.
  const Matrix *A;
  /// Slice bounds: slice S is rows [Bounds[S], Bounds[S + 1]).
  std::vector<index_t> Bounds;
  SpmvFn Spmv;
  SpmmFn Spmm;
  const char *SpmvName;
  const char *SpmmName;
  bool SliceSpmv = false, SliceSpmm = false;
};

namespace detail {

/// Binds the CSR kernels \p K and \p M to the borrowed \p A as
/// planRowBounds slices.
template <typename T>
std::unique_ptr<FormatOperator<T>>
csrOperator(const CsrMatrix<T> &A, const Kernel<CsrKernelFn<T>> &K,
            const Kernel<CsrSpmmFn<T>> &M) {
  return std::make_unique<BoundOperator<CsrMatrix, T>>(A, K, &M,
                                                       planRowBounds(A, 1));
}

/// Converts \p A with \p Convert and binds the picks \p SpmvIdx of
/// \p SpmvList and \p SpmmIdx of \p SpmmList (null: no SpMM family), each
/// through kernelEntry, as planRowBounds slices of the one converted matrix
/// cut on multiples of \p Align rows. \p Convert(M, Out) converts M into
/// Out with the format's fill guards, which judge the whole matrix.
/// \returns null when a guard declines.
template <template <typename> class MatrixT, typename T, typename ConvertFn>
std::unique_ptr<FormatOperator<T>> bindConverted(
    const CsrMatrix<T> &A,
    const std::vector<Kernel<typename BoundOperator<MatrixT, T>::SpmvFn>>
        &SpmvList,
    int SpmvIdx,
    const std::vector<Kernel<typename BoundOperator<MatrixT, T>::SpmmFn>>
        *SpmmList,
    int SpmmIdx, index_t Align, ConvertFn Convert) {
  MatrixT<T> M;
  if (!Convert(A, M))
    return nullptr;
  const auto *S = SpmmList ? &kernelEntry(*SpmmList, SpmmIdx) : nullptr;
  return std::make_unique<BoundOperator<MatrixT, T>>(
      std::move(M), kernelEntry(SpmvList, SpmvIdx), S, planRowBounds(A, Align));
}

} // namespace detail

/// The untuned plan: the borrowed \p A bound to the basic (strategy-free)
/// CSR SpMV and SpMM kernels, with no conversion and no model lookup. Serves
/// the async service's bootstrap, the never-slower check's basic side (which
/// an engaged guardrail binds), the cached guardrail's replay and the
/// degradation ladder's BasicKernel rung.
template <typename T>
std::unique_ptr<FormatOperator<T>> basicCsrOperator(const CsrMatrix<T> &A) {
  return detail::csrOperator(A, basicCsrKernel<T>(), basicCsrSpmmKernel<T>());
}

/// Converts \p A to \p Requested and binds the scoreboard-selected kernels
/// from \p Sel, each through kernelEntry: the format's SpMV pick for
/// apply() and its SpMM pick for multiply() (an unsearched SpMM pick binds
/// the format's basic SpMM kernel, so multiply() is batched for
/// CSR/COO/DIA/ELL at any width). A DIA/ELL/BSR conversion can be rejected
/// by its fill guards even when the model predicted the format confidently;
/// the fallback is always CSR. \p CsrKernelOverride, when non-negative,
/// replaces the scoreboard's general CSR pick — the skew-aware bind path
/// passes Sel.csrKernelFor(rowCv) here so heavily skewed matrices get the
/// kernel the skewed probe picked.
///
/// A plan of any format is cut into row slices when \p A has at least
/// ParallelConvertGrain nonzeros, and each of its kernels runs sliced unless
/// it is a basic CSR kernel (BoundOperator::runsSliced). A CSR plan stays
/// zero-copy; basicCsrOperator never slices.
template <typename T>
std::unique_ptr<FormatOperator<T>>
bindFormatOperator(const CsrMatrix<T> &A, FormatKind Requested,
                   const KernelSelection &Sel, int CsrKernelOverride = -1) {
  const KernelTable<T> &Kernels = kernelTable<T>();
  auto Spmv = [&Sel](FormatKind Kind) {
    return Sel.BestKernel[static_cast<int>(Kind)];
  };
  auto Spmm = [&Sel](FormatKind Kind) {
    return Sel.BestSpmmKernel[static_cast<int>(Kind)];
  };

  std::unique_ptr<FormatOperator<T>> Op;
  switch (Requested) {
  case FormatKind::COO:
    Op = detail::bindConverted<CooMatrix>(
        A, Kernels.Coo, Spmv(FormatKind::COO), &Kernels.CooSpmm,
        Spmm(FormatKind::COO), 1,
        [](const CsrMatrix<T> &M, CooMatrix<T> &Out) {
          Out = csrToCoo(M);
          return true;
        });
    break;
  case FormatKind::DIA:
    Op = detail::bindConverted<DiaMatrix>(
        A, Kernels.Dia, Spmv(FormatKind::DIA), &Kernels.DiaSpmm,
        Spmm(FormatKind::DIA), 1,
        [](const CsrMatrix<T> &M, DiaMatrix<T> &Out) {
          return csrToDia(M, Out);
        });
    break;
  case FormatKind::ELL:
    Op = detail::bindConverted<EllMatrix>(
        A, Kernels.Ell, Spmv(FormatKind::ELL), &Kernels.EllSpmm,
        Spmm(FormatKind::ELL), 1,
        [](const CsrMatrix<T> &M, EllMatrix<T> &Out) {
          return csrToEll(M, Out);
        });
    break;
  case FormatKind::BSR: {
    // BSR has no SpMM kernel family: multiply() runs the SpMV kernel column
    // by column. Slices start on block rows.
    index_t BlockSize = chooseBsrBlockSize(A);
    if (BlockSize <= 0)
      break;
    Op = detail::bindConverted<BsrMatrix>(
        A, Kernels.Bsr, Spmv(FormatKind::BSR), nullptr, -1, BlockSize,
        [BlockSize](const CsrMatrix<T> &M, BsrMatrix<T> &Out) {
          return csrToBsr(M, Out, BlockSize);
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
      A, kernelEntry(Kernels.Csr, CsrIdx),
      kernelEntry(Kernels.CsrSpmm, Spmm(FormatKind::CSR)));
}

} // namespace smat

#endif // SMAT_CORE_FORMATOPERATOR_H
