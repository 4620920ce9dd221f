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
/// pattern) or own a copied/moved-in CSR when the caller cannot guarantee
/// the input outlives the operator. See `CsrStorage`.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_FORMATOPERATOR_H
#define SMAT_CORE_FORMATOPERATOR_H

#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"

#include <memory>
#include <utility>

namespace smat {

/// How a CSR-bound operator holds the input matrix.
enum class CsrStorage {
  /// Reference the caller's matrix; it must outlive the operator. This is
  /// the default (zero conversion cost, zero memory cost) and matches the
  /// paper's usage pattern.
  Borrowed,
  /// Copy (or, through the rvalue `Smat::tune` overload, move) the matrix
  /// into the operator, which is then self-contained.
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
};

/// The one FormatOperator implementation: a `MatrixT<T>` (CsrMatrix,
/// CooMatrix, ...) bound to an SpMV kernel and an optional SpMM kernel. The
/// operator owns its matrix, or borrows the caller's (CSR only); it is
/// always heap-allocated and never copied, since it may point at itself.
template <template <typename> class MatrixT, typename T>
class BoundOperator final : public FormatOperator<T> {
public:
  using Matrix = MatrixT<T>;
  using SpmvFn = void (*)(const Matrix &, const T *, T *);
  using SpmmFn = void (*)(const Matrix &, const T *, T *, index_t);

  /// Binds the kernels to \p Borrowed, which must outlive the operator, or,
  /// when it is null, to an owned empty matrix that adoptMatrix fills.
  /// A null \p Spmm makes multiply() run \p Spmv column by column.
  BoundOperator(const Matrix *Borrowed, SpmvFn Spmv, const char *SpmvName,
                SpmmFn Spmm = nullptr, const char *SpmmName = nullptr)
      : A(Borrowed ? Borrowed : &Owned), Spmv(Spmv), Spmm(Spmm),
        SpmvName(SpmvName), SpmmName(Spmm ? SpmmName : SpmvName) {}
  BoundOperator(const BoundOperator &) = delete;
  BoundOperator &operator=(const BoundOperator &) = delete;

  void apply(const T *X, T *Y) const override { Spmv(*A, X, Y); }

  void multiply(const T *X, T *Y, index_t K) const override {
    if (Spmm) {
      Spmm(*A, X, Y, K);
      return;
    }
    if (K == 1) {
      apply(X, Y);
      return;
    }
    const index_t Rows = A->NumRows, Cols = A->NumCols;
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
  index_t numRows() const override { return A->NumRows; }
  index_t numCols() const override { return A->NumCols; }
  bool ownsStorage() const override { return A == &Owned; }

  /// Moves \p M in and binds to it. noexcept, so the degradation ladder can
  /// run the one throwing step (allocating this node over an empty matrix)
  /// first and only then move a precious move-source matrix in — if the
  /// allocation throws, the source is still intact for the next rung.
  void adoptMatrix(Matrix &&M) noexcept {
    Owned = std::move(M);
    A = &Owned;
  }

private:
  Matrix Owned;
  const Matrix *A;
  SpmvFn Spmv;
  SpmmFn Spmm;
  const char *SpmvName;
  const char *SpmmName;
};

namespace detail {

/// Allocates an owning operator over an empty matrix — the only throwing
/// step — and then adopts \p M noexcept, so a failed allocation leaves a
/// move-source matrix intact for the caller's degradation ladder.
template <template <typename> class MatrixT, typename T>
std::unique_ptr<FormatOperator<T>>
ownOperator(MatrixT<T> &&M, typename BoundOperator<MatrixT, T>::SpmvFn Spmv,
            const char *SpmvName,
            typename BoundOperator<MatrixT, T>::SpmmFn Spmm = nullptr,
            const char *SpmmName = nullptr) {
  auto Op = std::make_unique<BoundOperator<MatrixT, T>>(
      nullptr, Spmv, SpmvName, Spmm, SpmmName);
  Op->adoptMatrix(std::move(M));
  return Op;
}

/// Binds the CSR kernels \p K and \p M to \p A, borrowed or owned per
/// \p Storage; an owned bind moves \p MoveSource in when given, else copies.
template <typename T>
std::unique_ptr<FormatOperator<T>>
csrOperator(const CsrMatrix<T> &A, const Kernel<CsrKernelFn<T>> &K,
            const Kernel<CsrSpmmFn<T>> &M, CsrStorage Storage,
            CsrMatrix<T> *MoveSource) {
  if (Storage == CsrStorage::Borrowed)
    return std::make_unique<BoundOperator<CsrMatrix, T>>(&A, K.Fn, K.Name,
                                                         M.Fn, M.Name);
  if (MoveSource)
    return ownOperator(std::move(*MoveSource), K.Fn, K.Name, M.Fn, M.Name);
  return ownOperator(CsrMatrix<T>(A), K.Fn, K.Name, M.Fn, M.Name);
}

} // namespace detail

/// The untuned plan: \p A bound to the basic (strategy-free) CSR SpMV and
/// SpMM kernels, with no conversion and no model lookup. Serves the async
/// service's bootstrap, the never-slower guardrail's forced bind and the
/// degradation ladder's BasicKernel rung.
template <typename T>
std::unique_ptr<FormatOperator<T>>
basicCsrOperator(const CsrMatrix<T> &A,
                 CsrStorage Storage = CsrStorage::Borrowed,
                 CsrMatrix<T> *MoveSource = nullptr) {
  return detail::csrOperator(A, basicCsrKernel<T>(), basicCsrSpmmKernel<T>(),
                             Storage, MoveSource);
}

/// Converts \p A to \p Requested and binds the scoreboard-selected kernels
/// from \p Sel, each passed through pickKernel. A DIA/ELL/BSR conversion can
/// be rejected by its fill guards even when the model predicted the format
/// confidently; the fallback is always CSR (honoring \p Storage).
/// \p MoveSource, when non-null, is the same matrix as \p A but mutable: an
/// Owned CSR bind moves its storage instead of copying (the rvalue tune
/// path). \p CsrKernelOverride, when non-negative, replaces the
/// scoreboard's general CSR pick — the skew-aware bind path passes
/// Sel.csrKernelFor(rowCv) here so heavily skewed matrices get the
/// load-balanced kernel. \p BatchWidth selects which per-width SpMM pick
/// (KernelSelection::BestSpmmKernel) the operator binds for multiply(); an
/// unsearched width binds the format's basic SpMM kernel, so multiply() is
/// batched for CSR/COO/DIA/ELL regardless of tuning width.
template <typename T>
std::unique_ptr<FormatOperator<T>>
bindFormatOperator(const CsrMatrix<T> &A, FormatKind Requested,
                   const KernelSelection &Sel,
                   CsrStorage Storage = CsrStorage::Borrowed,
                   CsrMatrix<T> *MoveSource = nullptr,
                   int CsrKernelOverride = -1, index_t BatchWidth = 1) {
  const KernelTable<T> &Kernels = kernelTable<T>();
  auto Spmv = [&Sel](FormatKind Kind) {
    return Sel.BestKernel[static_cast<int>(Kind)];
  };
  auto Spmm = [&Sel, BatchWidth](FormatKind Kind) {
    return Sel.spmmKernelFor(Kind, BatchWidth);
  };

  switch (Requested) {
  case FormatKind::COO: {
    CooMatrix<T> Coo = csrToCoo(A);
    const auto &K = pickKernel(Kernels.Coo, Spmv(FormatKind::COO), Coo);
    const auto &M = pickKernel(Kernels.CooSpmm, Spmm(FormatKind::COO), Coo);
    return detail::ownOperator(std::move(Coo), K.Fn, K.Name, M.Fn, M.Name);
  }
  case FormatKind::DIA: {
    DiaMatrix<T> Dia;
    if (!csrToDia(A, Dia))
      break;
    const auto &K = pickKernel(Kernels.Dia, Spmv(FormatKind::DIA), Dia);
    const auto &M = pickKernel(Kernels.DiaSpmm, Spmm(FormatKind::DIA), Dia);
    return detail::ownOperator(std::move(Dia), K.Fn, K.Name, M.Fn, M.Name);
  }
  case FormatKind::ELL: {
    EllMatrix<T> Ell;
    if (!csrToEll(A, Ell))
      break;
    const auto &K = pickKernel(Kernels.Ell, Spmv(FormatKind::ELL), Ell);
    const auto &M = pickKernel(Kernels.EllSpmm, Spmm(FormatKind::ELL), Ell);
    return detail::ownOperator(std::move(Ell), K.Fn, K.Name, M.Fn, M.Name);
  }
  case FormatKind::BSR: {
    // BSR has no SpMM kernel family: multiply() runs the SpMV kernel column
    // by column.
    index_t BlockSize = chooseBsrBlockSize(A);
    BsrMatrix<T> Bsr;
    if (BlockSize <= 0 || !csrToBsr(A, Bsr, BlockSize))
      break;
    const auto &K = pickKernel(Kernels.Bsr, Spmv(FormatKind::BSR), Bsr);
    return detail::ownOperator(std::move(Bsr), K.Fn, K.Name);
  }
  case FormatKind::CSR:
    break;
  }

  int CsrIdx =
      CsrKernelOverride >= 0 ? CsrKernelOverride : Spmv(FormatKind::CSR);
  return detail::csrOperator(
      A, pickKernel(Kernels.Csr, CsrIdx, A),
      pickKernel(Kernels.CsrSpmm, Spmm(FormatKind::CSR), A), Storage,
      MoveSource);
}

} // namespace smat

#endif // SMAT_CORE_FORMATOPERATOR_H
