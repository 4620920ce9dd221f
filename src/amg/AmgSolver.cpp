//===- amg/AmgSolver.cpp - AMG V-cycle solver with SMAT backend -----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/AmgSolver.h"

#include "kernels/KernelRegistry.h"
#include "matrix/Validate.h"
#include "support/Slices.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

using namespace smat;

namespace {

using Bounds = std::vector<index_t>;

/// The weighted-Jacobi smoother's omega.
constexpr double JacobiOmega = 2.0 / 3.0;
/// Coarsest grids at or below this size use a dense LU solve; larger
/// coarsest grids fall back to repeated smoothing.
constexpr index_t DenseCoarseLimit = 512;

/// X . Y as per-slice partial sums added in slice order.
double dot(const Bounds &Slices, const double *X, const double *Y) {
  return sumSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    double Sum = 0.0;
    for (index_t I = Begin; I < End; ++I)
      Sum += X[I] * Y[I];
    return Sum;
  });
}

double norm2(const Bounds &Slices, const double *X) {
  return std::sqrt(dot(Slices, X, X));
}

/// Y := X on every slice.
void copySlices(const Bounds &Slices, const double *X, double *Y) {
  runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    std::copy(X + Begin, X + End, Y + Begin);
  });
}

/// X := 0 on every slice.
void zeroSlices(const Bounds &Slices, double *X) {
  runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    std::fill(X + Begin, X + End, 0.0);
  });
}

/// The FixedCsr backend's operator application: the basic CSR kernel, which
/// is what Hypre-style always-CSR solvers run.
SpmvFn bindFixedCsr(const CsrMatrix<double> &A) {
  const auto &Basic = kernelTable<double>().Csr.front();
  return [&A, Fn = Basic.Fn](const double *X, double *Y) { Fn(A, X, Y); };
}

} // namespace

Status AmgSolver::trySetup(const CsrMatrix<double> &A,
                           const AmgOptions &Opts) {
  if (Status S = validateCsr(A); !S.ok())
    return S;
  if (A.NumRows != A.NumCols)
    return Status::error(ErrorCode::InvalidMatrix,
                         formatString("AMG requires a square operator, got "
                                      "%d x %d",
                                      A.NumRows, A.NumCols));
  if (Opts.Backend == SpmvBackendKind::Smat && !Opts.Tuner)
    return Status::error(ErrorCode::InvalidArgument,
                         "AmgOptions: the Smat backend requires a tuner");
  setupImpl(A, Opts);
  return Status::success();
}

void AmgSolver::setup(const CsrMatrix<double> &A, const AmgOptions &Opts) {
  if (Status S = trySetup(A, Opts); !S.ok())
    throw std::invalid_argument("AMG setup rejected input: " + S.message());
}

void AmgSolver::setupImpl(const CsrMatrix<double> &A, const AmgOptions &Opts) {
  WallTimer Timer;
  Options = Opts;
  Hier.build(A, Opts.Hierarchy);

  std::size_t NumLevels = Hier.numLevels();
  Ops.clear();
  Ops.resize(NumLevels);
  Decisions.clear();
  Tuned.clear();
  // Three operators per level at most; reserving up front keeps the lambdas'
  // pointers into Tuned stable.
  Tuned.reserve(3 * NumLevels);

  // One plan cache for the whole hierarchy: operators on neighbouring
  // levels repeat structure, so tuning a class once covers its recurrences.
  // The caller's tuning knobs (budgets, measurement floors, ...) are
  // forwarded per operator; the bindings borrow the hierarchy's matrices.
  TuneOptions TuneOpts = Options.Tune;
  if (Options.Backend == SpmvBackendKind::Smat) {
    if (!Options.Cache && !OwnedCache)
      OwnedCache = std::make_unique<PlanCache>();
    TuneOpts.Cache = Options.Cache ? Options.Cache : OwnedCache.get();
  }

  auto Bind = [&](const CsrMatrix<double> &M, std::size_t Level,
                  const char *Name) -> SpmvFn {
    LevelFormatInfo Info;
    Info.Level = Level;
    Info.Operator = Name;
    Info.Rows = M.NumRows;
    Info.Nnz = M.nnz();
    if (Options.Backend == SpmvBackendKind::Smat) {
      assert(Options.Tuner && "Smat backend requires a tuner");
      Tuned.push_back(Options.Tuner->tune(M, TuneOpts));
      TunedSpmv<double> *Op = &Tuned.back();
      Info.Format = Op->format();
      Info.Kernel = Op->kernelName();
      Info.Degradation = Op->report().Degradation;
      Decisions.push_back(Info);
      return [Op](const double *X, double *Y) { Op->apply(X, Y); };
    }
    Info.Format = FormatKind::CSR;
    Info.Kernel = kernelTable<double>().Csr.front().Name;
    Decisions.push_back(Info);
    return bindFixedCsr(M);
  };

  for (std::size_t L = 0; L != NumLevels; ++L) {
    const AmgLevel &Level = Hier.level(L);
    LevelOps &Bound = Ops[L];
    Bound.ApplyA = Bind(Level.A, L, "A");
    if (L + 1 != NumLevels) {
      Bound.ApplyP = Bind(Level.P, L, "P");
      Bound.ApplyR = Bind(Level.R, L, "R");
    }
    Bound.Slices = planRowBounds(Level.A, 1);
    Bound.InvDiag = extractDiagonal(Level.A);
    double *InvDiag = Bound.InvDiag.data();
    runSlices(Bound.Slices, [=](index_t, index_t Begin, index_t End) {
      for (index_t I = Begin; I < End; ++I)
        InvDiag[I] = InvDiag[I] != 0.0 ? 1.0 / InvDiag[I] : 0.0;
    });
    std::size_t N = static_cast<std::size_t>(Level.A.NumRows);
    Bound.X.assign(N, 0.0);
    Bound.B.assign(N, 0.0);
    Bound.Scratch.assign(N, 0.0);
  }

  // Coarsest-level solver.
  const CsrMatrix<double> &Coarsest = Hier.level(NumLevels - 1).A;
  UseCoarseLu = Coarsest.NumRows <= DenseCoarseLimit;
  if (UseCoarseLu)
    CoarseLu.factor(Coarsest);

  SetupTime = Timer.seconds();
}

void AmgSolver::runVcycle(std::size_t L, const double *B, double *X,
                          bool ZeroGuess) const {
  const LevelOps &Bound = Ops[L];
  const Bounds &Slices = Bound.Slices;
  double *Scratch = Bound.Scratch.data();

  // Smooths Sweeps times from X, or from zero when ZeroGuess: the first
  // sweep from zero skips the product A*0.
  auto Smooth = [&](int Sweeps) {
    int Sweep = 0;
    if (ZeroGuess) {
      if (Sweeps == 0) {
        zeroSlices(Slices, X);
        return;
      }
      jacobiSweepFromZero(Bound.InvDiag, B, X, Slices, JacobiOmega);
      Sweep = 1;
    }
    for (; Sweep < Sweeps; ++Sweep)
      jacobiSweep(Bound.ApplyA, Bound.InvDiag, B, X, Scratch, Slices,
                  JacobiOmega);
  };

  if (L + 1 == Hier.numLevels()) {
    if (UseCoarseLu) {
      copySlices(Slices, B, X);
      CoarseLu.solve(X);
    } else {
      // Fall back to heavy smoothing on an oversized coarsest grid.
      Smooth(50);
    }
    return;
  }

  // Pre-smoothing.
  Smooth(Options.PreSweeps);

  // Restrict the residual.
  residual(Bound.ApplyA, B, X, Scratch, Slices);
  const LevelOps &CoarseOps = Ops[L + 1];
  Bound.ApplyR(Scratch, CoarseOps.B.data());

  // Coarse-grid correction from a zero guess.
  runVcycle(L + 1, CoarseOps.B.data(), CoarseOps.X.data(), true);

  // Prolongate and correct. ApplyP writes a full fine-level vector.
  Bound.ApplyP(CoarseOps.X.data(), Scratch);
  runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
    for (index_t I = Begin; I < End; ++I)
      X[I] += Scratch[I];
  });

  // Post-smoothing.
  for (int Sweep = 0; Sweep < Options.PostSweeps; ++Sweep)
    jacobiSweep(Bound.ApplyA, Bound.InvDiag, B, X, Scratch, Slices,
                JacobiOmega);
}

SolveStats AmgSolver::solve(const std::vector<double> &B,
                            std::vector<double> &X) const {
  assert(!Ops.empty() && "solve() before setup()");
  SolveStats Stats;
  Stats.SetupSeconds = SetupTime;
  WallTimer Timer;

  const Bounds &Slices = Ops[0].Slices;
  std::size_t N = B.size();
  X.resize(N, 0.0);
  double BNorm = norm2(Slices, B.data());
  if (BNorm == 0.0)
    BNorm = 1.0;

  std::vector<double> R(N);
  for (int Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    runVcycle(0, B.data(), X.data(), false);
    ++Stats.Iterations;
    residual(Ops[0].ApplyA, B.data(), X.data(), R.data(), Slices);
    Stats.RelResidual = norm2(Slices, R.data()) / BNorm;
    if (Stats.RelResidual <= Options.RelTol) {
      Stats.Converged = true;
      break;
    }
  }
  Stats.SolveSeconds = Timer.seconds();
  return Stats;
}

SolveStats AmgSolver::solvePcg(const std::vector<double> &B,
                               std::vector<double> &X) const {
  assert(!Ops.empty() && "solvePcg() before setup()");
  SolveStats Stats;
  Stats.SetupSeconds = SetupTime;
  WallTimer Timer;

  const Bounds &Slices = Ops[0].Slices;
  std::size_t N = B.size();
  X.assign(N, 0.0);
  double BNorm = norm2(Slices, B.data());
  if (BNorm == 0.0)
    BNorm = 1.0;

  // X starts at zero, so the first residual is B: a solve that starts
  // within RelTol (a zero B) takes no iteration.
  std::vector<double> R(N), Z(N), P(N), Ap(N);
  copySlices(Slices, B.data(), R.data());
  Stats.RelResidual = norm2(Slices, R.data()) / BNorm;
  if (Stats.RelResidual <= Options.RelTol) {
    Stats.Converged = true;
    Stats.SolveSeconds = Timer.seconds();
    return Stats;
  }

  // z = M^-1 r via one V-cycle from a zero guess.
  runVcycle(0, R.data(), Z.data(), true);
  copySlices(Slices, Z.data(), P.data());
  double RzOld = dot(Slices, R.data(), Z.data());

  double *Xp = X.data(), *Rp = R.data(), *Zp = Z.data(), *Pp = P.data();
  const double *App = Ap.data();
  for (int Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    Ops[0].ApplyA(Pp, Ap.data());
    double PAp = dot(Slices, Pp, App);
    if (PAp == 0.0)
      break;
    double Alpha = RzOld / PAp;
    // x += alpha p and r -= alpha Ap, with |r|^2 summed on the same pass.
    double RR = sumSlices(Slices, [=](index_t, index_t Begin, index_t End) {
      double Sum = 0.0;
      for (index_t I = Begin; I < End; ++I) {
        Xp[I] += Alpha * Pp[I];
        Rp[I] -= Alpha * App[I];
        Sum += Rp[I] * Rp[I];
      }
      return Sum;
    });
    ++Stats.Iterations;
    Stats.RelResidual = std::sqrt(RR) / BNorm;
    if (Stats.RelResidual <= Options.RelTol) {
      Stats.Converged = true;
      break;
    }
    runVcycle(0, Rp, Zp, true);
    double RzNew = dot(Slices, Rp, Zp);
    double Beta = RzNew / RzOld;
    RzOld = RzNew;
    runSlices(Slices, [=](index_t, index_t Begin, index_t End) {
      for (index_t I = Begin; I < End; ++I)
        Pp[I] = Zp[I] + Beta * Pp[I];
    });
  }
  Stats.SolveSeconds = Timer.seconds();
  return Stats;
}
