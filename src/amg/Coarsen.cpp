//===- amg/Coarsen.cpp - C/F splitting algorithms -------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "amg/Coarsen.h"

#include "matrix/FormatConvert.h"
#include "support/Rng.h"

#include <algorithm>

using namespace smat;

namespace {

/// An indexed max-heap over the points 0..N-1, ordered by (measure, point):
/// the largest measure first and, among equal measures, the larger point
/// first, which is the order a std::priority_queue of (measure, point)
/// pairs pops in. A point's measure may only grow while it is in the heap,
/// and the caller says so with increased().
class PointHeap {
public:
  explicit PointHeap(const std::vector<index_t> &Measure)
      : Measure(Measure), Heap(Measure.size()), Pos(Measure.size()) {
    for (std::size_t I = 0; I != Heap.size(); ++I)
      place(I, static_cast<index_t>(I));
    for (std::size_t I = Heap.size() / 2; I-- > 0;)
      siftDown(I);
  }

  bool empty() const { return Heap.empty(); }
  index_t top() const { return Heap.front(); }

  void pop() {
    place(0, Heap.back());
    Heap.pop_back();
    if (!Heap.empty())
      siftDown(0);
  }

  /// Restores the order after \p Point's measure grew.
  void increased(index_t Point) {
    std::size_t I = Pos[static_cast<std::size_t>(Point)];
    assert(I < Heap.size() && Heap[I] == Point && "point left the heap");
    while (I > 0) {
      std::size_t Parent = (I - 1) / 2;
      if (!above(Point, Heap[Parent]))
        break;
      place(I, Heap[Parent]);
      I = Parent;
    }
    place(I, Point);
  }

private:
  bool above(index_t A, index_t B) const {
    index_t MA = Measure[static_cast<std::size_t>(A)];
    index_t MB = Measure[static_cast<std::size_t>(B)];
    return MA > MB || (MA == MB && A > B);
  }

  void place(std::size_t I, index_t Point) {
    Heap[I] = Point;
    Pos[static_cast<std::size_t>(Point)] = I;
  }

  void siftDown(std::size_t I) {
    index_t Point = Heap[I];
    for (;;) {
      std::size_t Child = 2 * I + 1;
      if (Child >= Heap.size())
        break;
      if (Child + 1 < Heap.size() && above(Heap[Child + 1], Heap[Child]))
        ++Child;
      if (!above(Heap[Child], Point))
        break;
      place(I, Heap[Child]);
      I = Child;
    }
    place(I, Point);
  }

  const std::vector<index_t> &Measure;
  std::vector<index_t> Heap;   ///< Points in heap order.
  std::vector<std::size_t> Pos; ///< Pos[P]: P's index in Heap.
};

/// Ruge–Stüben first pass: points are picked as C in decreasing order of the
/// number of points they strongly influence (|S^T row|); unassigned strong
/// dependents become F, and each new F point bumps the measure of the other
/// points it depends on, steering the sweep towards good covers. The next
/// point is the unassigned one of the largest measure, the larger index
/// first among equals (PointHeap); a point that turned F stays in the heap
/// until it surfaces and is skipped then.
std::vector<CfPoint> coarsenRugeL(const CsrMatrix<double> &S,
                                  const CsrMatrix<double> &St) {
  index_t N = S.NumRows;
  constexpr std::uint8_t Unassigned = 2;
  std::vector<std::uint8_t> State(static_cast<std::size_t>(N), Unassigned);
  std::vector<index_t> Measure(static_cast<std::size_t>(N));
  for (index_t I = 0; I < N; ++I)
    Measure[static_cast<std::size_t>(I)] = St.rowDegree(I);

  PointHeap Heap(Measure);
  while (!Heap.empty()) {
    index_t Point = Heap.top();
    Heap.pop();
    if (State[static_cast<std::size_t>(Point)] != Unassigned)
      continue;
    if (Measure[static_cast<std::size_t>(Point)] <= 0) {
      // Influences no one: keep it fine (classical RS leaves these F).
      State[static_cast<std::size_t>(Point)] =
          static_cast<std::uint8_t>(CfPoint::F);
      continue;
    }
    State[static_cast<std::size_t>(Point)] =
        static_cast<std::uint8_t>(CfPoint::C);
    // Unassigned points strongly depending on this new C point become F.
    for (index_t I = St.RowPtr[Point]; I < St.RowPtr[Point + 1]; ++I) {
      index_t Dependent = St.ColIdx[I];
      if (State[static_cast<std::size_t>(Dependent)] != Unassigned)
        continue;
      State[static_cast<std::size_t>(Dependent)] =
          static_cast<std::uint8_t>(CfPoint::F);
      // Each point the new F point depends on becomes more attractive.
      for (index_t J = S.RowPtr[Dependent]; J < S.RowPtr[Dependent + 1];
           ++J) {
        index_t Influencer = S.ColIdx[J];
        if (State[static_cast<std::size_t>(Influencer)] != Unassigned)
          continue;
        ++Measure[static_cast<std::size_t>(Influencer)];
        Heap.increased(Influencer);
      }
    }
  }

  std::vector<CfPoint> Split(static_cast<std::size_t>(N));
  for (index_t I = 0; I < N; ++I)
    Split[static_cast<std::size_t>(I)] =
        State[static_cast<std::size_t>(I)] ==
                static_cast<std::uint8_t>(CfPoint::C)
            ? CfPoint::C
            : CfPoint::F;
  return Split;
}

/// CLJP/PMIS-style splitting: measure = strong-influence count plus a random
/// tie-breaker in [0, 1); every point that is a local maximum among its
/// undecided strong neighbours becomes C, its undecided strong neighbours
/// become F; repeat until all points are decided. Isolated points (no strong
/// connections at all) become F.
std::vector<CfPoint> coarsenCljp(const CsrMatrix<double> &S,
                                 const CsrMatrix<double> &St,
                                 std::uint64_t Seed) {
  index_t N = S.NumRows;
  constexpr std::uint8_t Unassigned = 2;
  std::vector<std::uint8_t> State(static_cast<std::size_t>(N), Unassigned);
  std::vector<double> Measure(static_cast<std::size_t>(N));
  Rng Rng(Seed);
  for (index_t I = 0; I < N; ++I)
    Measure[static_cast<std::size_t>(I)] =
        static_cast<double>(St.rowDegree(I)) + Rng.uniform();

  // Points with no strong connections in either direction never interpolate
  // from anyone: make them F immediately (they smooth perfectly).
  for (index_t I = 0; I < N; ++I)
    if (S.rowDegree(I) == 0 && St.rowDegree(I) == 0)
      State[static_cast<std::size_t>(I)] =
          static_cast<std::uint8_t>(CfPoint::F);

  // Each sweep tests its points for a local maximum on row slices of S;
  // the test only reads State and Measure. A slice lists its new C points
  // in a vector reserved here for all of its points, so the sweep
  // allocates nothing, and the lists are applied in slice order: the order
  // a serial sweep finds the points in.
  const std::vector<index_t> Bounds = planRowBounds(S, 1);
  std::vector<std::vector<index_t>> NewC(Bounds.size() - 1);
  for (std::size_t Slice = 0; Slice != NewC.size(); ++Slice)
    NewC[Slice].reserve(
        static_cast<std::size_t>(Bounds[Slice + 1] - Bounds[Slice]));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Independent-set sweep over undecided points.
    runSlices(Bounds, [&](index_t Slice, index_t Begin, index_t End) {
      std::vector<index_t> &Found = NewC[static_cast<std::size_t>(Slice)];
      Found.clear();
      for (index_t I = Begin; I < End; ++I) {
        if (State[static_cast<std::size_t>(I)] != Unassigned)
          continue;
        double Mine = Measure[static_cast<std::size_t>(I)];
        auto CheckNeighbors = [&](const CsrMatrix<double> &Graph) {
          for (index_t J = Graph.RowPtr[I]; J < Graph.RowPtr[I + 1]; ++J) {
            index_t Neighbor = Graph.ColIdx[J];
            if (State[static_cast<std::size_t>(Neighbor)] == Unassigned &&
                Measure[static_cast<std::size_t>(Neighbor)] > Mine)
              return false;
          }
          return true;
        };
        if (CheckNeighbors(S) && CheckNeighbors(St))
          Found.push_back(I);
      }
    });
    for (const std::vector<index_t> &Found : NewC)
      for (index_t Point : Found) {
        if (State[static_cast<std::size_t>(Point)] != Unassigned)
          continue;
        State[static_cast<std::size_t>(Point)] =
            static_cast<std::uint8_t>(CfPoint::C);
        Changed = true;
        // Undecided points that strongly depend on a new C point become F.
        for (index_t I = St.RowPtr[Point]; I < St.RowPtr[Point + 1]; ++I) {
          index_t Dependent = St.ColIdx[I];
          if (State[static_cast<std::size_t>(Dependent)] == Unassigned)
            State[static_cast<std::size_t>(Dependent)] =
                static_cast<std::uint8_t>(CfPoint::F);
        }
      }
  }
  // Anything left undecided (isolated cliques of equal measure cannot occur
  // thanks to the random tie-breaker, but stay safe): make it C.
  std::vector<CfPoint> Split(static_cast<std::size_t>(N));
  for (index_t I = 0; I < N; ++I)
    Split[static_cast<std::size_t>(I)] =
        State[static_cast<std::size_t>(I)] ==
                static_cast<std::uint8_t>(CfPoint::F)
            ? CfPoint::F
            : CfPoint::C;
  return Split;
}

/// Second pass shared by both algorithms: any F point with at least one
/// strong connection but no strong C neighbour is promoted to C so direct
/// interpolation always has a donor.
void enforceInterpolationCover(const CsrMatrix<double> &S,
                               std::vector<CfPoint> &Split) {
  for (index_t I = 0; I < S.NumRows; ++I) {
    if (Split[static_cast<std::size_t>(I)] == CfPoint::C)
      continue;
    if (S.rowDegree(I) == 0)
      continue; // Truly isolated; interpolates to zero correction.
    bool HasCoarseDonor = false;
    for (index_t J = S.RowPtr[I]; J < S.RowPtr[I + 1] && !HasCoarseDonor; ++J)
      HasCoarseDonor =
          Split[static_cast<std::size_t>(S.ColIdx[J])] == CfPoint::C;
    if (!HasCoarseDonor)
      Split[static_cast<std::size_t>(I)] = CfPoint::C;
  }
}

} // namespace

std::vector<CfPoint> smat::coarsen(const CsrMatrix<double> &S,
                                   CoarsenKind Kind, std::uint64_t Seed) {
  CsrMatrix<double> St = transposeCsr(S);
  std::vector<CfPoint> Split = Kind == CoarsenKind::RugeL
                                   ? coarsenRugeL(S, St)
                                   : coarsenCljp(S, St, Seed);
  enforceInterpolationCover(S, Split);
  return Split;
}

index_t smat::countCoarse(const std::vector<CfPoint> &Split) {
  index_t Count = 0;
  for (CfPoint P : Split)
    Count += P == CfPoint::C ? 1 : 0;
  return Count;
}
