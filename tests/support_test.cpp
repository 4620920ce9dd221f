//===- tests/support_test.cpp - Support library unit tests ----------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/AlignedAlloc.h"
#include "support/Rng.h"
#include "support/Slices.h"
#include "support/Stats.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/Timer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>

using namespace smat;

// --- Str -------------------------------------------------------------------

TEST(StrTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StrTest, SplitOnSeparator) {
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "b");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StrTest, SplitKeepsEmptyPiecesWhenAsked) {
  auto Parts = split("a,,b,", ',', /*KeepEmpty=*/true);
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[3], "");
}

TEST(StrTest, SplitWhitespaceCollapsesRuns) {
  auto Parts = splitWhitespace("  one \t two\nthree ");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "one");
  EXPECT_EQ(Parts[2], "three");
}

TEST(StrTest, EqualsIgnoreCase) {
  EXPECT_TRUE(equalsIgnoreCase("CSR", "csr"));
  EXPECT_TRUE(equalsIgnoreCase("", ""));
  EXPECT_FALSE(equalsIgnoreCase("CSR", "CSRX"));
  EXPECT_FALSE(equalsIgnoreCase("abc", "abd"));
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(startsWith("%%MatrixMarket matrix", "%%MatrixMarket"));
  EXPECT_FALSE(startsWith("%%", "%%MatrixMarket"));
}

TEST(StrTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("%.2f", 1.5), "1.50");
  EXPECT_EQ(formatString("empty"), "empty");
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A(), B());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A() == B() ? 1 : 0;
  EXPECT_LT(Same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.bounded(17), 17u);
}

TEST(RngTest, RangeInclusive) {
  Rng R(11);
  std::set<std::int64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    std::int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u) << "all values of a small range should appear";
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng R(13);
  double Sum = 0;
  constexpr int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

// --- Stats -----------------------------------------------------------------

TEST(StatsTest, MeanAndVariance) {
  std::vector<double> Xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(Xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(Xs), 1.25);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({4, 1}), 2.0);
  EXPECT_DOUBLE_EQ(geometricMean({2, 2, 2}), 2.0);
  EXPECT_DOUBLE_EQ(geometricMean({1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(StatsTest, LeastSquaresRecoversLine) {
  std::vector<double> X = {0, 1, 2, 3, 4};
  std::vector<double> Y;
  for (double V : X)
    Y.push_back(3.0 * V - 1.0);
  double Slope = 0, Intercept = 0;
  ASSERT_TRUE(leastSquaresFit(X, Y, Slope, Intercept));
  EXPECT_NEAR(Slope, 3.0, 1e-12);
  EXPECT_NEAR(Intercept, -1.0, 1e-12);
}

TEST(StatsTest, LeastSquaresRejectsDegenerateInput) {
  double Slope, Intercept;
  EXPECT_FALSE(leastSquaresFit({1.0}, {2.0}, Slope, Intercept));
  EXPECT_FALSE(leastSquaresFit({2, 2, 2}, {1, 2, 3}, Slope, Intercept));
}

// --- AlignedAlloc ----------------------------------------------------------

TEST(AlignedAllocTest, VectorDataIs64ByteAligned) {
  AlignedVector<double> V(1000, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(V.data()) % 64, 0u);
  AlignedVector<float> W(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(W.data()) % 64, 0u);
}

TEST(AlignedAllocTest, GrowsAndKeepsContents) {
  AlignedVector<int> V;
  for (int I = 0; I < 1000; ++I)
    V.push_back(I);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(V[static_cast<std::size_t>(I)], I);
}

TEST(AlignedAllocTest, AlignmentHoldsAcrossElementTypes) {
  // Odd-sized elements stress the round-up path: the rounded byte count is
  // not a multiple of sizeof(T), yet data() must still start on the line.
  struct Odd {
    char C[7];
  };
  AlignedVector<std::uint8_t> Bytes(129);
  AlignedVector<std::int16_t> Shorts(77);
  AlignedVector<Odd> Odds(13);
  AlignedVector<long double> Longs(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Bytes.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Shorts.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Odds.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Longs.data()) % 64, 0u);
}

TEST(AlignedAllocTest, RebindThroughContainersKeepsAlignment) {
  // Node-based containers rebind AlignedAllocator<T> to their node type; the
  // rebound allocator must interoperate (equality) and stay aligned.
  using IntAlloc = AlignedAllocator<int>;
  using NodeAlloc = IntAlloc::rebind<std::pair<const int, double>>::other;
  static_assert(
      std::is_same_v<NodeAlloc, AlignedAllocator<std::pair<const int, double>>>,
      "rebind must preserve the alignment parameter");
  EXPECT_TRUE(IntAlloc() == NodeAlloc()); // Stateless: always interchangeable.

  std::vector<std::vector<double, AlignedAllocator<double>>,
              AlignedAllocator<std::vector<double, AlignedAllocator<double>>>>
      Nested(3);
  for (auto &Inner : Nested) {
    Inner.assign(17, 0.5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Inner.data()) % 64, 0u);
  }
}

TEST(AlignedAllocTest, ZeroSizeAllocateReturnsNull) {
  AlignedAllocator<double> Alloc;
  double *P = Alloc.allocate(0);
  EXPECT_EQ(P, nullptr);
  Alloc.deallocate(P, 0); // free(nullptr) is a no-op; must not crash.
}

TEST(AlignedAllocTest, AllocationSizeOverflowThrowsBadAlloc) {
  // N * sizeof(T) would wrap; the allocator must refuse rather than hand
  // back a tiny block for a huge request.
  AlignedAllocator<double> Alloc;
  const std::size_t Huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(static_cast<void>(Alloc.allocate(Huge)), std::bad_alloc);
  // The largest count that still rounds up past SIZE_MAX must throw too.
  const std::size_t BarelyOver =
      std::numeric_limits<std::size_t>::max() / sizeof(double);
  EXPECT_THROW(static_cast<void>(Alloc.allocate(BarelyOver)), std::bad_alloc);
}

// --- Timer -----------------------------------------------------------------

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink += I;
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(TimerTest, MeasureSecondsPerCallRunsMinimumReps) {
  int Calls = 0;
  double PerCall = measureSecondsPerCall([&Calls] { ++Calls; }, 1e-6, 5);
  EXPECT_GE(Calls, 6) << "warm-up + at least MinReps";
  EXPECT_GT(PerCall, 0.0);
}

TEST(TimerTest, SpmvGflopsFormula) {
  // 1e9 nonzeros in 2 seconds = 1 GFLOP/s (2 flops per nonzero).
  EXPECT_DOUBLE_EQ(spmvGflops(1000000000ull, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(spmvGflops(100, 0.0), 0.0);
}

// --- Slices ------------------------------------------------------------------

TEST(SlicesTest, RunsEverySliceOnce) {
  const std::vector<int> Bounds = {0, 3, 7, 10, 16};
  std::vector<int> Hits(16, 0), Seen(4, -1);
  runSlices(Bounds, [&](int S, int Begin, int End) {
    Seen[static_cast<std::size_t>(S)] = Begin;
    for (int I = Begin; I < End; ++I)
      ++Hits[static_cast<std::size_t>(I)];
  });
  EXPECT_EQ(Seen, std::vector<int>({0, 3, 7, 10}));
  EXPECT_EQ(Hits, std::vector<int>(16, 1));
}

TEST(SlicesTest, OneSliceRunsOnTheCallingThread) {
  std::thread::id Ran;
  runSlices(std::vector<int>{0, 5},
            [&](int, int, int) { Ran = std::this_thread::get_id(); });
  EXPECT_EQ(Ran, std::this_thread::get_id());
}

TEST(SlicesTest, SumAddsPartialsInSliceOrderOnAnyTeam) {
  // Partials whose floating-point sum depends on the order they are added.
  const std::vector<double> Partials = {1e16, 1.0, -1e16, 1.0};
  const std::vector<int> Bounds = {0, 1, 2, 3, 4};
  auto Sum = [&] {
    return sumSlices(Bounds, [&](int S, int, int) {
      return Partials[static_cast<std::size_t>(S)];
    });
  };
  volatile double Acc = 0.0;
  for (double P : Partials)
    Acc = Acc + P;
  EXPECT_EQ(Sum(), Acc);
  test::OmpThreadsScope Serial(1);
  EXPECT_EQ(Sum(), Acc);
}

// --- AsciiTable --------------------------------------------------------------

TEST(TableTest, CsvRendering) {
  AsciiTable T({"a", "b"});
  T.addRow({"1", "2"});
  T.addRow({"3"}); // Short row padded.
  EXPECT_EQ(T.toCsv(), "a,b\n1,2\n3,\n");
}
