//===- bench/tab4_amg_solve.cpp - Paper Table 4 reproduction --------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Paper Table 4: "SMAT-based AMG execution time" — the Hypre AMG solve
// phase with the stock always-CSR SpMV vs the same solve with SMAT-tuned
// kernels swapped in per operator:
//
//   coarsen   input              rows   Hypre AMG  SMAT AMG  speedup
//   cljp      7pt Laplacian 50^3 125K   3034 ms    2487 ms   1.22x
//   rugeL     9pt Laplacian 500^2 250K  388 ms     300 ms    1.29x
//
// We rebuild both rows with our AMG on the same inputs. SMAT chooses DIA
// for the fine-level A-operators and ELL for most P-operators, exactly the
// behaviour the paper describes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "amg/AmgSolver.h"
#include "matrix/Generators.h"

using namespace smat;
using namespace smat::bench;

namespace {

struct CaseSpec {
  const char *Name;
  CoarsenKind Coarsening;
  CsrMatrix<double> A;
  double PaperSpeedup;
};

void runCase(const CaseSpec &Case, const Smat<double> &Tuner,
             AsciiTable &Table) {
  std::vector<double> B(static_cast<std::size_t>(Case.A.NumRows), 1.0);

  AmgOptions Opts;
  Opts.Hierarchy.Coarsening = Case.Coarsening;
  Opts.RelTol = 1e-8;
  Opts.MaxIterations = 100;
  Opts.PreSweeps = 2;
  Opts.PostSweeps = 2;

  // AMG-preconditioned CG, as in Hypre ("AMG is used as a preconditioner
  // such as conjugate gradients", paper Section 7.1). Each backend gets a
  // warm-up solve so first-touch page faults don't pollute the timing.

  // Fixed-CSR (Hypre-style) backend.
  AmgSolver Fixed;
  Opts.Backend = SpmvBackendKind::FixedCsr;
  Fixed.setup(Case.A, Opts);
  std::vector<double> XFixed;
  Fixed.solvePcg(B, XFixed);
  XFixed.clear();
  SolveStats FixedStats = Fixed.solvePcg(B, XFixed);

  // SMAT backend.
  AmgSolver Tuned;
  Opts.Backend = SpmvBackendKind::Smat;
  Opts.Tuner = &Tuner;
  Tuned.setup(Case.A, Opts);
  std::vector<double> XTuned;
  Tuned.solvePcg(B, XTuned);
  XTuned.clear();
  SolveStats TunedStats = Tuned.solvePcg(B, XTuned);

  double Speedup = TunedStats.SolveSeconds > 0
                       ? FixedStats.SolveSeconds / TunedStats.SolveSeconds
                       : 0.0;
  Table.addRow({Case.Name, formatString("%d", Case.A.NumRows),
                formatString("%d", FixedStats.Iterations),
                formatString("%.0f", FixedStats.SolveSeconds * 1e3),
                formatString("%.0f", TunedStats.SolveSeconds * 1e3),
                formatString("%.2fx", Speedup),
                formatString("%.2fx", Case.PaperSpeedup)});

  // Per-operator decisions of the tuned solver (the paper: "SMAT chooses
  // DIA format for A-operators at the first few levels, and ELL format for
  // most P-operators").
  std::printf("  %s per-operator choices:", Case.Name);
  for (const LevelFormatInfo &D : Tuned.formatDecisions())
    std::printf(" L%zu.%s=%s", D.Level, D.Operator.c_str(),
                std::string(formatName(D.Format)).c_str());
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("=== Table 4: AMG solve time, fixed-CSR vs SMAT backend "
              "===\n\n");

  LearningModel Model = getSharedModel<double>("double");
  const Smat<double> Tuner(Model);

  // The paper's grid sizes (125K and 250K rows). Override with SMAT_SMALL=1
  // for a quicker run.
  bool SmallRun = std::getenv("SMAT_SMALL") != nullptr;
  index_t Cube = SmallRun ? 30 : 50;
  index_t Square = SmallRun ? 300 : 500;

  std::vector<CaseSpec> Cases;
  Cases.push_back({"cljp_7pt", CoarsenKind::Cljp,
                   laplace3d7pt(Cube, Cube, Cube), 1.22});
  Cases.push_back({"rugeL_9pt", CoarsenKind::RugeL,
                   laplace2d9pt(Square, Square), 1.29});

  AsciiTable Table({"case", "rows", "iters", "fixed-CSR (ms)", "SMAT (ms)",
                    "speedup", "paper"});
  for (const CaseSpec &Case : Cases)
    runCase(Case, Tuner, Table);
  std::printf("\n");
  Table.print();

  std::printf("\nShape check: same iteration count for both backends (the\n"
              "numerics are identical); SMAT's solve phase is faster because\n"
              "fine-level stencil operators run in DIA/ELL instead of CSR.\n"
              "Paper speedups: 1.22x (cljp 7pt) and 1.29x (rugeL 9pt) on a\n"
              "12-core Xeon, parallel Hypre against parallel SMAT. Here the\n"
              "fixed-CSR backend runs the serial basic kernel, while SMAT's\n"
              "large level operators run as row slices across the OpenMP\n"
              "team, so the speedup includes threading (EXPERIMENTS.md).\n");
  return 0;
}
