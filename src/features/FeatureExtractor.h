//===- features/FeatureExtractor.h - Table-2 feature parameters -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of the 11 sparse-structure feature parameters of paper
/// Table 2. Per paper Section 6, extraction is split into two independent
/// steps so the runtime can stop early:
///   step 1 — one pass over the matrix computing the DIA/ELL/CSR parameters
///            (dimensions, nonzero distribution, diagonal situation, fill
///            ratios);
///   step 2 — the power-law exponent R for COO, computed lazily because the
///            degree-distribution fit is comparatively expensive.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_FEATURES_FEATUREEXTRACTOR_H
#define SMAT_FEATURES_FEATUREEXTRACTOR_H

#include "matrix/CsrMatrix.h"

#include <array>
#include <cmath>
#include <limits>
#include <string>

namespace smat {

/// Number of learned feature attributes (paper Table 2).
inline constexpr int NumFeatures = 12;

/// Attribute indices into FeatureVector::values(). Order matches the
/// paper's attribute collection {M, N, Ndiags, NTdiags_ratio, NNZ, max_RD,
/// aver_RD, var_RD, ER_DIA, ER_ELL, R}, extended with ER_BSR (block fill
/// efficiency) for the BSR extension format.
enum FeatureIndex : int {
  FeatM = 0,
  FeatN,
  FeatNdiags,
  FeatNTdiagsRatio,
  FeatNnz,
  FeatMaxRd,
  FeatAverRd,
  FeatVarRd,
  FeatErDia,
  FeatErEll,
  FeatErBsr,
  FeatR,
};

/// \returns the canonical attribute name for \p Index.
const char *featureName(int Index);

/// Sentinel for "power-law R not defined" (the paper's "inf": the matrix has
/// no scale-free degree structure). A large finite value so threshold
/// comparisons in learned rules behave naturally.
inline constexpr double FeatureInf = 1e30;

/// The feature parameters of one sparse matrix (paper Table 2).
struct FeatureVector {
  double M = 0;            ///< Number of rows.
  double N = 0;            ///< Number of columns.
  double Ndiags = 0;       ///< Number of occupied diagonals.
  double NTdiagsRatio = 0; ///< "True" diagonals / total occupied diagonals.
  double Nnz = 0;          ///< Number of nonzeros.
  double MaxRd = 0;        ///< Maximum nonzeros per row.
  double AverRd = 0;       ///< Average nonzeros per row.
  double VarRd = 0;        ///< Variance of nonzeros per row.
  double ErDia = 0;        ///< NNZ / (Ndiags * M): DIA fill efficiency.
  double ErEll = 0;        ///< NNZ / (max_RD * M): ELL fill efficiency.
  double ErBsr = 0;        ///< NNZ / (4x4 blocks * 16): BSR fill efficiency.
  double R = FeatureInf;   ///< Power-law exponent, FeatureInf if undefined.

  /// Packs the attributes in FeatureIndex order.
  std::array<double, NumFeatures> values() const {
    return {M, N, Ndiags, NTdiagsRatio, Nnz, MaxRd,
            AverRd, VarRd, ErDia, ErEll, ErBsr, R};
  }

  /// Row-length coefficient of variation sqrt(var_RD)/aver_RD — the
  /// skew signal that steers CSR binding toward the skew pass's kernel
  /// (compare SkewRowCvThreshold).
  double rowCv() const { return AverRd > 0 ? std::sqrt(VarRd) / AverRd : 0.0; }

  /// One-line human-readable rendering (for traces and CSV headers).
  std::string toString() const;
};

/// Occupancy fraction above which a diagonal counts as a "true" diagonal
/// (paper Section 4: "occupied mostly with non-zeros").
inline constexpr double TrueDiagOccupancy = 0.6;

/// Step 1: extracts every parameter except R in one matrix traversal.
/// R is left at FeatureInf.
template <typename T>
FeatureVector extractStructureFeatures(const CsrMatrix<T> &A);

/// Step 2: fits the power-law exponent R of the row-degree distribution
/// P(k) ~ k^-R via log-log least squares, writing it into \p Features.
/// Leaves FeatureInf when the matrix has no scale-free degree structure
/// (fewer than 3 distinct degrees, or a poor fit).
template <typename T>
void extractPowerLawFeature(const CsrMatrix<T> &A, FeatureVector &Features);

/// Convenience: both steps.
template <typename T> FeatureVector extractAllFeatures(const CsrMatrix<T> &A) {
  FeatureVector Features = extractStructureFeatures(A);
  extractPowerLawFeature(A, Features);
  return Features;
}

extern template FeatureVector extractStructureFeatures(const CsrMatrix<float> &);
extern template FeatureVector extractStructureFeatures(const CsrMatrix<double> &);
extern template void extractPowerLawFeature(const CsrMatrix<float> &,
                                            FeatureVector &);
extern template void extractPowerLawFeature(const CsrMatrix<double> &,
                                            FeatureVector &);

} // namespace smat

#endif // SMAT_FEATURES_FEATUREEXTRACTOR_H
