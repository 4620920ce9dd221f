//===- amg/AmgSolver.h - AMG V-cycle solver with SMAT backend ---*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AMG solver of paper Section 7.4: a V-cycle with weighted-Jacobi
/// smoothing whose every operator application (A on each level, P, R) goes
/// through a pluggable SpMV backend. The FixedCsr backend mirrors Hypre's
/// always-CSR behaviour; the Smat backend replaces each operator's SpMV
/// with a SMAT-tuned kernel — "we simply replace the SpMV kernel codes with
/// SMAT interfaces with no changes to the original CSR data structure".
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_AMG_AMGSOLVER_H
#define SMAT_AMG_AMGSOLVER_H

#include "amg/Hierarchy.h"
#include "amg/Relax.h"
#include "core/Smat.h"

#include <string>

namespace smat {

/// Which SpMV implementation the solver binds per operator.
enum class SpmvBackendKind {
  FixedCsr, ///< Basic CSR kernel everywhere (the Hypre-style baseline).
  Smat,     ///< SMAT-tuned format + kernel per operator.
};

/// Solver configuration. The smoother is weighted Jacobi with omega 2/3,
/// and a coarsest grid of at most 512 rows is solved by dense LU (a larger
/// one by 50 smoothing sweeps).
struct AmgOptions {
  HierarchyOptions Hierarchy;
  int PreSweeps = 1;
  int PostSweeps = 1;
  double RelTol = 1e-8;
  int MaxIterations = 100;
  SpmvBackendKind Backend = SpmvBackendKind::FixedCsr;
  /// Required when Backend == Smat.
  const Smat<double> *Tuner = nullptr;
  /// Optional plan cache shared across every operator tuned during setup
  /// (Smat backend only). Coarse-grid operators repeat structure level
  /// after level, so sharing pays the full tuning cost once per structural
  /// class. When null the solver creates and owns a private cache.
  PlanCache *Cache = nullptr;
  /// Tuning knobs forwarded to every per-operator tune (Smat backend only):
  /// measurement floors, the resilience budgets, AllowMeasure, ... . Its
  /// Cache is overwritten with the cache above (or the solver-owned one).
  /// The bindings borrow the hierarchy's operators, which outlive them.
  TuneOptions Tune;
};

/// Outcome of a solve.
struct SolveStats {
  bool Converged = false;
  int Iterations = 0;
  double RelResidual = 0.0;
  double SetupSeconds = 0.0;
  double SolveSeconds = 0.0;
};

/// Per-operator format decisions (for the Table-4 style reporting).
struct LevelFormatInfo {
  std::size_t Level = 0;
  std::string Operator; ///< "A", "P" or "R".
  index_t Rows = 0;
  std::int64_t Nnz = 0;
  FormatKind Format = FormatKind::CSR;
  std::string Kernel;
  /// Degradation ladder rung this operator's tune took (always None for the
  /// FixedCsr backend).
  DegradationLevel Degradation = DegradationLevel::None;
};

/// Algebraic multigrid solver (V-cycle; also usable as a PCG
/// preconditioner through solvePcg).
///
/// One solver runs one solve at a time: solve() and solvePcg() are const,
/// but they write the levels' work vectors, so two threads that solve at
/// once need a solver each. A solve's vector loops run on the row slices of
/// the level's plan, and its dot products and norms add per-slice partial
/// sums in slice order, so its result, bit for bit, and its iteration count
/// do not depend on the OpenMP team size.
class AmgSolver {
public:
  /// Builds the hierarchy from \p A and binds the SpMV backend. \p A is
  /// validated up front (the solver is a trust boundary like Smat::tune);
  /// malformed input throws std::invalid_argument with the diagnostic.
  void setup(const CsrMatrix<double> &A, const AmgOptions &Opts);

  /// Non-throwing setup: \returns the violated invariant (structurally
  /// invalid or non-square \p A, Smat backend without a tuner) instead of
  /// throwing. The solver is left untouched on failure.
  Status trySetup(const CsrMatrix<double> &A, const AmgOptions &Opts);

  /// Stationary V-cycle iteration on A*X = B until RelTol or MaxIterations.
  /// \p X is both the initial guess and the result.
  SolveStats solve(const std::vector<double> &B,
                   std::vector<double> &X) const;

  /// Conjugate gradients preconditioned with one V-cycle per application.
  SolveStats solvePcg(const std::vector<double> &B,
                      std::vector<double> &X) const;

  const AmgHierarchy &hierarchy() const { return Hier; }

  /// The formats/kernels chosen for every operator (Smat backend) or the
  /// uniform CSR picture (FixedCsr backend).
  const std::vector<LevelFormatInfo> &formatDecisions() const {
    return Decisions;
  }

  double setupSeconds() const { return SetupTime; }

  /// The plan cache the Smat backend tuned through (AmgOptions::Cache, or
  /// the solver-owned one); null for the FixedCsr backend or before setup().
  const PlanCache *planCache() const {
    if (Options.Backend != SpmvBackendKind::Smat)
      return nullptr;
    return Options.Cache ? Options.Cache : OwnedCache.get();
  }

private:
  struct LevelOps {
    SpmvFn ApplyA, ApplyP, ApplyR;
    std::vector<double> InvDiag;
    /// The row bounds a plan of the level's A runs (planRowBounds):
    /// every vector loop over this level's rows runs on these slices, in
    /// both backends.
    std::vector<index_t> Slices;
    // Work vectors sized for this level.
    mutable std::vector<double> X, B, Scratch;
  };

  /// The build behind the validated boundary; assumes well-formed input.
  void setupImpl(const CsrMatrix<double> &A, const AmgOptions &Opts);

  /// One V-cycle on level \p L for A*X = B. \p X holds the initial guess,
  /// or, when \p ZeroGuess, is treated as zero: its first smoothing sweep
  /// then skips the product A*0 (jacobiSweepFromZero).
  void runVcycle(std::size_t L, const double *B, double *X,
                 bool ZeroGuess) const;

  AmgHierarchy Hier;
  AmgOptions Options;
  std::vector<LevelOps> Ops;
  /// Tuned operators (Smat backend); pointers into Hier stay valid because
  /// the hierarchy is immutable after setup.
  std::vector<TunedSpmv<double>> Tuned;
  /// Fallback cache when the caller did not supply one (unique_ptr keeps
  /// the solver movable; PlanCache itself holds a mutex).
  std::unique_ptr<PlanCache> OwnedCache;
  std::vector<LevelFormatInfo> Decisions;
  DenseLu CoarseLu;
  bool UseCoarseLu = false;
  double SetupTime = 0.0;
};

} // namespace smat

#endif // SMAT_AMG_AMGSOLVER_H
