//===- tests/matrix_test.cpp - Format and conversion unit tests -----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "matrix/FormatConvert.h"
#include "matrix/Generators.h"
#include "matrix/MatrixMarket.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace smat;
using namespace smat::test;

namespace {

/// The paper's Figure 2 example matrix:
///   [1 5 0 0]
///   [0 2 6 0]
///   [8 0 3 7]
///   [0 9 0 4]
CsrMatrix<double> paperExample() {
  return csrFromTriplets<double>(
      4, 4, {0, 0, 1, 1, 2, 2, 2, 3, 3}, {0, 1, 1, 2, 0, 2, 3, 1, 3},
      {1, 5, 2, 6, 8, 3, 7, 9, 4});
}

} // namespace

// --- CSR basics --------------------------------------------------------------

TEST(CsrTest, PaperExampleLayout) {
  CsrMatrix<double> A = paperExample();
  ASSERT_TRUE(A.isValid());
  EXPECT_EQ(A.nnz(), 9);
  // Paper Figure 2(a): ptr [0 2 4 7 9], indices [0 1 1 2 0 2 3 1 3].
  std::vector<index_t> ExpectedPtr = {0, 2, 4, 7, 9};
  std::vector<index_t> ExpectedIdx = {0, 1, 1, 2, 0, 2, 3, 1, 3};
  EXPECT_TRUE(std::equal(ExpectedPtr.begin(), ExpectedPtr.end(),
                         A.RowPtr.begin()));
  EXPECT_TRUE(std::equal(ExpectedIdx.begin(), ExpectedIdx.end(),
                         A.ColIdx.begin()));
  EXPECT_DOUBLE_EQ(A.at(2, 3), 7.0);
  EXPECT_DOUBLE_EQ(A.at(0, 3), 0.0);
  EXPECT_EQ(A.rowDegree(2), 3);
  EXPECT_TRUE(A.hasSortedRows());
}

TEST(CsrTest, EmptyMatrixIsValid) {
  CsrMatrix<double> A(5, 3);
  EXPECT_TRUE(A.isValid());
  EXPECT_EQ(A.nnz(), 0);
  EXPECT_EQ(A.rowDegree(4), 0);
}

TEST(CsrTest, InvalidWhenColumnOutOfRange) {
  CsrMatrix<double> A = paperExample();
  A.ColIdx[0] = 4;
  EXPECT_FALSE(A.isValid());
  A.ColIdx[0] = -1;
  EXPECT_FALSE(A.isValid());
}

TEST(CsrTest, InvalidWhenRowPtrNotMonotone) {
  CsrMatrix<double> A = paperExample();
  A.RowPtr[2] = 5;
  A.RowPtr[3] = 4;
  EXPECT_FALSE(A.isValid());
}

TEST(CsrTest, TripletsSumDuplicates) {
  auto A = csrFromTriplets<double>(2, 2, {0, 0, 1}, {1, 1, 0}, {2.0, 3.0, 1.0});
  EXPECT_EQ(A.nnz(), 2);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), 1.0);
}

TEST(CsrTest, TripletsSortUnorderedInput) {
  auto A = csrFromTriplets<double>(3, 3, {2, 0, 1}, {0, 2, 1}, {3, 1, 2});
  EXPECT_TRUE(A.isValid());
  EXPECT_TRUE(A.hasSortedRows());
  EXPECT_DOUBLE_EQ(A.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(A.at(2, 0), 3.0);
}

// --- COO ---------------------------------------------------------------------

TEST(CooTest, CsrToCooMatchesPaperFigure) {
  CooMatrix<double> B = csrToCoo(paperExample());
  ASSERT_TRUE(B.isValid());
  EXPECT_TRUE(B.isSortedRowMajor());
  // Paper Figure 2(b): rows [0 0 1 1 2 2 2 3 3].
  std::vector<index_t> ExpectedRows = {0, 0, 1, 1, 2, 2, 2, 3, 3};
  ASSERT_EQ(B.Rows.size(), ExpectedRows.size());
  EXPECT_TRUE(std::equal(ExpectedRows.begin(), ExpectedRows.end(),
                         B.Rows.begin()));
}

TEST(CooTest, RoundTripThroughCsr) {
  CsrMatrix<double> A = randomCsr(40, 23, 0.1, 5);
  CsrMatrix<double> Back = cooToCsr(csrToCoo(A));
  EXPECT_EQ(toDense(A), toDense(Back));
}

// --- DIA ---------------------------------------------------------------------

TEST(DiaTest, PaperExampleDiagonals) {
  DiaMatrix<double> B;
  ASSERT_TRUE(csrToDia(paperExample(), B));
  ASSERT_TRUE(B.isValid());
  // Paper Figure 2(c): offsets [-2 0 1].
  std::vector<index_t> ExpectedOffsets = {-2, 0, 1};
  ASSERT_EQ(B.Offsets.size(), ExpectedOffsets.size());
  EXPECT_TRUE(std::equal(ExpectedOffsets.begin(), ExpectedOffsets.end(),
                         B.Offsets.begin()));
  EXPECT_EQ(B.nnz(), 9);
  EXPECT_EQ(B.storedElements(), 12);
}

TEST(DiaTest, RoundTripThroughCsr) {
  CsrMatrix<double> A = randomCsr(30, 30, 0.15, 6);
  DiaMatrix<double> Dia;
  ASSERT_TRUE(csrToDia(A, Dia, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0));
  CsrMatrix<double> Back = diaToCsr(Dia);
  EXPECT_EQ(toDense(A), toDense(Back));
}

TEST(DiaTest, FillGuardRejectsScatteredMatrix) {
  // An anti-diagonal-ish scatter occupies ~N diagonals with one element
  // each: stored = N*N, nnz = N -> fill ratio N.
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t I = 0; I < 32; ++I) {
    R.push_back(I);
    C.push_back((I * 7 + 3) % 32);
    V.push_back(1.0);
  }
  auto A = csrFromTriplets<double>(32, 32, std::move(R), std::move(C),
                                   std::move(V));
  DiaMatrix<double> Dia;
  EXPECT_FALSE(csrToDia(A, Dia, /*MaxFillRatio=*/10.0));
  EXPECT_TRUE(csrToDia(A, Dia, /*MaxFillRatio=*/0.0, /*MaxDiags=*/0));
}

TEST(DiaTest, MaxDiagsGuard) {
  CsrMatrix<double> A = randomCsr(20, 20, 0.5, 7);
  DiaMatrix<double> Dia;
  EXPECT_FALSE(csrToDia(A, Dia, 0.0, /*MaxDiags=*/3));
}

TEST(DiaTest, RectangularMatrix) {
  CsrMatrix<double> A = randomCsr(12, 30, 0.2, 8);
  DiaMatrix<double> Dia;
  ASSERT_TRUE(csrToDia(A, Dia, 0.0, 0));
  EXPECT_EQ(toDense(diaToCsr(Dia)), toDense(A));
}

// --- ELL ---------------------------------------------------------------------

TEST(EllTest, WidthIsMaxRowDegree) {
  EllMatrix<double> B;
  ASSERT_TRUE(csrToEll(paperExample(), B));
  ASSERT_TRUE(B.isValid());
  EXPECT_EQ(B.Width, 3); // Row 2 has 3 entries.
  EXPECT_EQ(B.nnz(), 9);
  EXPECT_EQ(B.storedElements(), 12);
}

TEST(EllTest, RowLengthsArePartOfValidity) {
  // RowLen is part of ELL's invariant: NumRows entries, each within Width.
  // csrToEll fills it, and the sliced kernels read it unchecked.
  EllMatrix<double> B;
  ASSERT_TRUE(csrToEll(paperExample(), B));
  ASSERT_TRUE(B.isValid());
  EXPECT_EQ(B.RowLen.size(), static_cast<std::size_t>(B.NumRows));

  EllMatrix<double> Empty = B;
  Empty.RowLen.clear();
  EXPECT_FALSE(Empty.isValid());
  EllMatrix<double> Short = B;
  Short.RowLen.pop_back();
  EXPECT_FALSE(Short.isValid());
  EllMatrix<double> Wide = B;
  Wide.RowLen.front() = B.Width + 1;
  EXPECT_FALSE(Wide.isValid());
}

TEST(EllTest, ColumnMajorLayout) {
  EllMatrix<double> B;
  ASSERT_TRUE(csrToEll(paperExample(), B));
  // First packed column = first entry of each row: 1, 2, 8, 9.
  EXPECT_DOUBLE_EQ(B.Data[0], 1.0);
  EXPECT_DOUBLE_EQ(B.Data[1], 2.0);
  EXPECT_DOUBLE_EQ(B.Data[2], 8.0);
  EXPECT_DOUBLE_EQ(B.Data[3], 9.0);
}

TEST(EllTest, RoundTripThroughCsr) {
  CsrMatrix<double> A = randomCsr(25, 18, 0.2, 9);
  EllMatrix<double> Ell;
  ASSERT_TRUE(csrToEll(A, Ell, /*MaxFillRatio=*/0.0));
  EXPECT_EQ(toDense(ellToCsr(Ell)), toDense(A));
}

TEST(EllTest, FillGuardRejectsSpikedRow) {
  // One dense row forces Width = N while nnz ~ 2N.
  std::vector<index_t> R, C;
  std::vector<double> V;
  for (index_t I = 0; I < 64; ++I) {
    R.push_back(0);
    C.push_back(I);
    V.push_back(1.0);
  }
  for (index_t I = 1; I < 64; ++I) {
    R.push_back(I);
    C.push_back(I);
    V.push_back(1.0);
  }
  auto A = csrFromTriplets<double>(64, 64, std::move(R), std::move(C),
                                   std::move(V));
  EllMatrix<double> Ell;
  EXPECT_FALSE(csrToEll(A, Ell, /*MaxFillRatio=*/8.0));
  EXPECT_TRUE(csrToEll(A, Ell, /*MaxFillRatio=*/0.0));
}

// --- BSR (extension format) ---------------------------------------------------

TEST(BsrTest, RoundTripThroughCsrExactDims) {
  CsrMatrix<double> A = randomCsr(32, 48, 0.15, 13);
  BsrMatrix<double> B;
  ASSERT_TRUE(csrToBsr(A, B, 4, /*MaxFillRatio=*/0.0));
  ASSERT_TRUE(B.isValid());
  EXPECT_EQ(B.numBlockRows(), 8);
  EXPECT_EQ(B.numBlockCols(), 12);
  EXPECT_EQ(toDense(bsrToCsr(B)), toDense(A));
}

TEST(BsrTest, RoundTripWithRaggedDims) {
  // 33x47 with block size 4: both edges have partial blocks.
  CsrMatrix<double> A = randomCsr(33, 47, 0.2, 14);
  BsrMatrix<double> B;
  ASSERT_TRUE(csrToBsr(A, B, 4, 0.0));
  ASSERT_TRUE(B.isValid());
  EXPECT_EQ(B.numBlockRows(), 9);
  EXPECT_EQ(B.numBlockCols(), 12);
  EXPECT_EQ(toDense(bsrToCsr(B)), toDense(A));
}

TEST(BsrTest, DenseBlockMatrixHasPerfectFill) {
  CsrMatrix<double> A = blockFem(10, 4, 0.0, 15);
  BsrMatrix<double> B;
  ASSERT_TRUE(csrToBsr(A, B, 4, 1.01));
  EXPECT_EQ(B.storedElements(), A.nnz()) << "aligned 4x4 blocks: no padding";
  EXPECT_EQ(B.numBlocks(), 10);
}

TEST(BsrTest, FillGuardRejectsScatter) {
  // A diagonal matrix blocked 4x4 wastes 16x storage.
  CsrMatrix<double> A = multiDiagonal(64, {0});
  BsrMatrix<double> B;
  EXPECT_FALSE(csrToBsr(A, B, 4, 1.5));
  EXPECT_TRUE(csrToBsr(A, B, 4, 0.0));
  EXPECT_EQ(toDense(bsrToCsr(B)), toDense(A));
}

TEST(BsrTest, CountOccupiedBlocks) {
  // Entries at (0,0) and (3,3) share the 4x4 block; (4,0) opens another.
  auto A = csrFromTriplets<double>(8, 8, {0, 3, 4}, {0, 3, 0}, {1, 2, 3});
  EXPECT_EQ(countOccupiedBlocks(A, 4), 2);
  EXPECT_EQ(countOccupiedBlocks(A, 2), 3);
  EXPECT_EQ(countOccupiedBlocks(A, 1), 3);
}

TEST(BsrTest, ChooseBlockSizePrefersLowestFill) {
  // Aligned dense 4x4 blocks: b=4 has zero fill and must win.
  CsrMatrix<double> A = blockFem(20, 4, 0.0, 16);
  EXPECT_EQ(chooseBsrBlockSize(A), 4);
  // Pure diagonal: every candidate blows the 1.5x fill budget.
  EXPECT_EQ(chooseBsrBlockSize(multiDiagonal(64, {0})), 0);
}

TEST(BsrTest, ChooseBlockSizeEight) {
  CsrMatrix<double> A = blockFem(12, 8, 0.0, 17);
  EXPECT_EQ(chooseBsrBlockSize(A), 8);
}

// --- Sliced conversions ----------------------------------------------------

namespace {

/// The arrays the sliced conversions write, for one team size.
struct Converted {
  DiaMatrix<double> Dia, UnsortedDia;
  EllMatrix<double> Ell;
  BsrMatrix<double> Bsr;
  std::vector<std::int64_t> Blocks;
};

} // namespace

TEST(SlicedConvertTest, ArraysAreTheSameAtEveryTeamSize) {
  // Above the grain every conversion runs on row slices; what it writes
  // does not depend on how many threads run them, and a DIA conversion of
  // unsorted rows writes what the sorted rows give.
  CsrMatrix<double> Band = banded(20000, 3);
  CsrMatrix<double> Fem = blockFem(5000, 4, 0.0, 61);
  CsrMatrix<double> Random = boundedDegreeRandom(20000, 20000, 2, 12, 62);
  randomizeValues(Band, 63);
  randomizeValues(Fem, 64);
  for (const CsrMatrix<double> *A : {&Band, &Fem, &Random})
    ASSERT_GE(A->nnz(), ParallelConvertGrain);
  const CsrMatrix<double> Unsorted = reverseRows(Band);

  auto Convert = [&] {
    Converted Out;
    EXPECT_TRUE(csrToDia(Band, Out.Dia));
    EXPECT_TRUE(csrToDia(Unsorted, Out.UnsortedDia));
    EXPECT_TRUE(csrToEll(Band, Out.Ell));
    EXPECT_TRUE(csrToBsr(Fem, Out.Bsr, 4));
    for (const CsrMatrix<double> *A : {&Band, &Fem, &Random})
      for (index_t Size : {2, 4, 8})
        Out.Blocks.push_back(countOccupiedBlocks(*A, Size));
    return Out;
  };
  Converted One;
  {
    OmpThreadsScope Serial(1);
    One = Convert();
  }
  EXPECT_EQ(std::vector<index_t>(One.Dia.Offsets.begin(),
                                 One.Dia.Offsets.end()),
            std::vector<index_t>({-3, -2, -1, 0, 1, 2, 3}));
  EXPECT_EQ(One.UnsortedDia.Offsets, One.Dia.Offsets);
  EXPECT_EQ(One.UnsortedDia.Data, One.Dia.Data);
  const CsrMatrix<double> Back = bsrToCsr(One.Bsr);
  EXPECT_EQ(Back.RowPtr, Fem.RowPtr);
  EXPECT_EQ(Back.ColIdx, Fem.ColIdx);
  EXPECT_EQ(Back.Values, Fem.Values);

  const int Hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int Threads : {2, 4, 2 * Hw}) {
    SCOPED_TRACE(Threads);
    OmpThreadsScope Team(Threads);
    const Converted Out = Convert();
    EXPECT_EQ(Out.Dia.Offsets, One.Dia.Offsets);
    EXPECT_EQ(Out.Dia.Data, One.Dia.Data);
    EXPECT_EQ(Out.UnsortedDia.Data, One.Dia.Data);
    EXPECT_EQ(Out.Ell.Width, One.Ell.Width);
    EXPECT_EQ(Out.Ell.Indices, One.Ell.Indices);
    EXPECT_EQ(Out.Ell.Data, One.Ell.Data);
    EXPECT_EQ(Out.Ell.RowLen, One.Ell.RowLen);
    EXPECT_EQ(Out.Bsr.RowPtr, One.Bsr.RowPtr);
    EXPECT_EQ(Out.Bsr.ColIdx, One.Bsr.ColIdx);
    EXPECT_EQ(Out.Bsr.Values, One.Bsr.Values);
    EXPECT_EQ(Out.Blocks, One.Blocks);
  }
}

// --- Transpose / value conversion --------------------------------------------

TEST(TransposeTest, TransposeTwiceIsIdentity) {
  CsrMatrix<double> A = randomCsr(17, 29, 0.15, 10);
  CsrMatrix<double> Att = transposeCsr(transposeCsr(A));
  EXPECT_EQ(toDense(A), toDense(Att));
}

TEST(TransposeTest, TransposeSwapsIndices) {
  CsrMatrix<double> A = paperExample();
  CsrMatrix<double> At = transposeCsr(A);
  EXPECT_EQ(At.NumRows, A.NumCols);
  EXPECT_EQ(At.NumCols, A.NumRows);
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    for (index_t Col = 0; Col < A.NumCols; ++Col)
      EXPECT_DOUBLE_EQ(A.at(Row, Col), At.at(Col, Row));
}

TEST(TransposeTest, SlicedMatchesSerialCountingSort) {
  // Above the grain the source rows run as slices, each scattering into
  // its own offsets; every output row still lists its source rows in
  // ascending order, as one counting sort over all rows does.
  auto CountingSort = [](const CsrMatrix<double> &A) {
    CsrMatrix<double> B(A.NumCols, A.NumRows);
    for (index_t Col : A.ColIdx)
      ++B.RowPtr[Col + 1];
    for (index_t Col = 0; Col < A.NumCols; ++Col)
      B.RowPtr[Col + 1] += B.RowPtr[Col];
    std::vector<index_t> Next(B.RowPtr.begin(), B.RowPtr.end() - 1);
    B.ColIdx.resize(A.ColIdx.size());
    B.Values.resize(A.Values.size());
    for (index_t Row = 0; Row < A.NumRows; ++Row)
      for (index_t I = A.RowPtr[Row]; I < A.RowPtr[Row + 1]; ++I) {
        index_t Dst = Next[static_cast<std::size_t>(A.ColIdx[I])]++;
        B.ColIdx[Dst] = Row;
        B.Values[Dst] = A.Values[I];
      }
    return B;
  };
  const CsrMatrix<double> Wide = randomCsr(200, 20000, 0.01, 71);
  const CsrMatrix<double> Tall = randomCsr(20000, 300, 0.01, 72);
  const CsrMatrix<double> Unsorted = reverseRows(Tall);
  for (const CsrMatrix<double> *A : {&Wide, &Tall, &Unsorted}) {
    ASSERT_GE(A->nnz(), ParallelConvertGrain);
    expectSameCsr(CountingSort(*A), transposeCsr(*A));
  }
}

TEST(ConvertValueTest, DoubleToFloatAndBack) {
  CsrMatrix<double> A = paperExample();
  CsrMatrix<float> F = convertValueType<float>(A);
  EXPECT_EQ(F.nnz(), A.nnz());
  EXPECT_FLOAT_EQ(F.at(2, 3), 7.0f);
  CsrMatrix<double> D = convertValueType<double>(F);
  EXPECT_EQ(toDense(D), toDense(A));
}

// --- Format names -------------------------------------------------------------

TEST(FormatTest, NamesRoundTrip) {
  for (int K = 0; K < NumFormats; ++K) {
    FormatKind Kind = static_cast<FormatKind>(K);
    FormatKind Parsed;
    ASSERT_TRUE(parseFormatName(formatName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  FormatKind Unused;
  EXPECT_FALSE(parseFormatName("BCSR", Unused));
}

// --- MatrixMarket -------------------------------------------------------------

TEST(MatrixMarketTest, WriteReadRoundTrip) {
  CsrMatrix<double> A = randomCsr(15, 11, 0.2, 11);
  auto Result = readMatrixMarketString(writeMatrixMarketString(A));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(toDense(Result.Matrix), toDense(A));
}

TEST(MatrixMarketTest, SymmetricExpansion) {
  std::string Text = "%%MatrixMarket matrix coordinate real symmetric\n"
                     "% comment line\n"
                     "3 3 3\n"
                     "1 1 2.0\n"
                     "2 1 -1.0\n"
                     "3 2 -1.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.Matrix.nnz(), 5);
  EXPECT_DOUBLE_EQ(Result.Matrix.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(Result.Matrix.at(1, 0), -1.0);
}

TEST(MatrixMarketTest, SkewSymmetricNegatesMirror) {
  std::string Text = "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                     "2 2 1\n"
                     "2 1 3.0\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_DOUBLE_EQ(Result.Matrix.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(Result.Matrix.at(0, 1), -3.0);
}

TEST(MatrixMarketTest, PatternFieldDefaultsToOne) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 2\n"
                     "1 1\n"
                     "2 2\n";
  auto Result = readMatrixMarketString(Text);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_DOUBLE_EQ(Result.Matrix.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(Result.Matrix.at(1, 1), 1.0);
}

TEST(MatrixMarketTest, RejectsComplexField) {
  std::string Text = "%%MatrixMarket matrix coordinate complex general\n"
                     "1 1 1\n"
                     "1 1 1.0 0.0\n";
  auto Result = readMatrixMarketString(Text);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("complex"), std::string::npos);
}

TEST(MatrixMarketTest, RejectsTruncatedFile) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "3 3 5\n"
                     "1 1 1.0\n";
  EXPECT_FALSE(readMatrixMarketString(Text).Ok);
}

TEST(MatrixMarketTest, RejectsOutOfRangeEntry) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n"
                     "3 1 1.0\n";
  EXPECT_FALSE(readMatrixMarketString(Text).Ok);
}

TEST(MatrixMarketTest, RejectsGarbage) {
  EXPECT_FALSE(readMatrixMarketString("").Ok);
  EXPECT_FALSE(readMatrixMarketString("hello world\n").Ok);
  EXPECT_FALSE(
      readMatrixMarketString("%%MatrixMarket matrix array real general\n")
          .Ok);
}

TEST(MatrixMarketTest, FileRoundTrip) {
  CsrMatrix<double> A = randomCsr(8, 8, 0.3, 12);
  std::string Path = testing::TempDir() + "/smat_mm_test.mtx";
  ASSERT_TRUE(writeMatrixMarketFile(Path, A));
  auto Result = readMatrixMarketFile(Path);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(toDense(Result.Matrix), toDense(A));
}
