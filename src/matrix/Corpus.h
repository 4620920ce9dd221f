//===- matrix/Corpus.h - Training/evaluation matrix corpus ------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The labeled matrix corpus used for SMAT's off-line training and all
/// evaluation benches. It substitutes for the UF sparse matrix collection
/// (paper Table 1): 20+ "application domain" families, each a parameterized
/// mixture of the generators in Generators.h, plus the 16 representative
/// matrices of paper Figure 8 (scaled to this machine).
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_MATRIX_CORPUS_H
#define SMAT_MATRIX_CORPUS_H

#include "matrix/CsrMatrix.h"

#include <string>
#include <vector>

namespace smat {

/// One corpus matrix with its provenance labels.
struct CorpusEntry {
  std::string Name;
  std::string Domain;
  CsrMatrix<double> Matrix;
};

/// Controls corpus matrix sizes and per-domain replication.
enum class CorpusScale {
  Tiny,  ///< ~2 per domain, few-hundred-row matrices; unit tests.
  Small, ///< ~12 per domain; fast training (default for most benches).
  Full,  ///< ~90 per domain, >2000 matrices; mirrors the paper's 2386.
};

/// \returns the list of application-domain names (Table 1 rows).
const std::vector<std::string> &corpusDomains();

/// Builds the deterministic corpus at the given scale. The same
/// (Scale, Seed) always produces the same matrices.
std::vector<CorpusEntry> buildCorpus(CorpusScale Scale,
                                     std::uint64_t Seed = 20130616);

/// Splits \p Corpus into training and held-out evaluation subsets with the
/// paper's proportions (2055 : 331 ~= 6 : 1). Every 7th entry is held out.
void splitCorpus(const std::vector<CorpusEntry> &Corpus,
                 std::vector<const CorpusEntry *> &Training,
                 std::vector<const CorpusEntry *> &Evaluation);

/// The 16 representative matrices of paper Figure 8, reproduced as synthetic
/// structural analogues (same format-affinity roles, sizes scaled to a
/// 4-vCPU machine). Order matches the paper's numbering 1-16.
std::vector<CorpusEntry> representativeMatrices(bool Large = false);

} // namespace smat

#endif // SMAT_MATRIX_CORPUS_H
