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
/// Threads reach a plan only here: every kernel is serial, and a plan of
/// ParallelConvertGrain nonzeros or more runs as row slices, one per
/// processor: the one matrix plus nonzero-balanced row bounds, each slice
/// running the pick's row-range kernel on its rows side by side in one
/// OpenMP loop; see `bindFormatOperator`.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_FORMATOPERATOR_H
#define SMAT_CORE_FORMATOPERATOR_H

#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
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
/// in one OpenMP parallel loop, each slice writing only its own rows of y,
/// when the kernel runs sliced (runsSliced); otherwise they make one
/// whole-matrix call. Either way the matrix is the same one: a slice is a
/// row range, never a copy.
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
    const auto N = static_cast<index_t>(Bounds.size() - 1);
#pragma omp parallel for schedule(static)
    for (index_t S = 0; S < N; ++S)
      Spmv(*A, Bounds[S], Bounds[S + 1], X, Y);
  }

  void multiply(const T *X, T *Y, index_t K) const override {
    if (Spmm.Range) {
      if (!SliceSpmm) {
        Spmm(*A, X, Y, K);
        return;
      }
      const auto N = static_cast<index_t>(Bounds.size() - 1);
#pragma omp parallel for schedule(static)
      for (index_t S = 0; S < N; ++S)
        Spmm(*A, Bounds[S], Bounds[S + 1], X, Y, K);
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

/// \returns how many row slices a plan above the grain runs as: one per
/// processor the process may use, whichever thread binds it, so a plan the
/// serial tuning-service worker binds slices for its callers too. 1 without
/// OpenMP.
inline index_t planSliceCount() {
#ifdef _OPENMP
  return static_cast<index_t>(omp_get_num_procs());
#else
  return 1;
#endif
}

/// The slice bounds a plan of \p A runs as: planSliceCount() slices of
/// near-equal nonzero counts, cut on multiples of \p Align rows, once \p A
/// has ParallelConvertGrain nonzeros; one slice below that.
template <typename T>
std::vector<index_t> planRowBounds(const CsrMatrix<T> &A, index_t Align) {
  return balancedRowBounds(
      A, A.nnz() >= ParallelConvertGrain ? planSliceCount() : index_t(1),
      Align);
}

/// Binds the CSR kernels \p K and \p M to \p A, borrowed or, per
/// \p Storage, copied into the operator, as planRowBounds slices.
template <typename T>
std::unique_ptr<FormatOperator<T>>
csrOperator(const CsrMatrix<T> &A, const Kernel<CsrKernelFn<T>> &K,
            const Kernel<CsrSpmmFn<T>> &M, CsrStorage Storage) {
  using Op = BoundOperator<CsrMatrix, T>;
  std::vector<index_t> Bounds = planRowBounds(A, 1);
  if (Storage == CsrStorage::Borrowed)
    return std::make_unique<Op>(A, K, &M, std::move(Bounds));
  return std::make_unique<Op>(CsrMatrix<T>(A), K, &M, std::move(Bounds));
}

/// Converts \p A with \p Convert and binds the picks \p SpmvIdx of
/// \p SpmvList and \p SpmmIdx of \p SpmmList (null: no SpMM family), each
/// through pickKernel, as planRowBounds slices of the one converted matrix
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
  const auto &K = pickKernel(SpmvList, SpmvIdx, M);
  const auto *S = SpmmList ? &pickKernel(*SpmmList, SpmmIdx, M) : nullptr;
  return std::make_unique<BoundOperator<MatrixT, T>>(
      std::move(M), K, S, planRowBounds(A, Align));
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
/// Sel.csrKernelFor(rowCv) here so heavily skewed matrices get the kernel
/// the skewed probe picked. \p BatchWidth selects which per-width SpMM pick
/// (KernelSelection::BestSpmmKernel) the operator binds for multiply(); an
/// unsearched width binds the format's basic SpMM kernel, so multiply() is
/// batched for CSR/COO/DIA/ELL regardless of tuning width.
///
/// A plan of any format is cut into row slices when \p A has at least
/// ParallelConvertGrain nonzeros, and each of its kernels runs sliced unless
/// it is a basic CSR kernel (BoundOperator::runsSliced). A borrowed CSR plan
/// stays zero-copy; basicCsrOperator never slices.
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
      A, pickKernel(Kernels.Csr, CsrIdx, A),
      pickKernel(Kernels.CsrSpmm, Spmm(FormatKind::CSR), A), Storage);
}

} // namespace smat

#endif // SMAT_CORE_FORMATOPERATOR_H
