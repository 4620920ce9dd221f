//===- core/LearningModel.cpp - The trained SMAT model --------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/LearningModel.h"

#include "ml/ModelIO.h"
#include "support/Str.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace smat;

namespace {

/// The index of the kernel named \p Name in this build's SpMV (\p Spmm
/// false) or SpMM library of \p Kind; 0, the basic kernel, when the build
/// has no kernel of that name or (BSR) no SpMM family. Both value types
/// register the same names in the same order, so the double table answers
/// for either.
int kernelIndexFor(FormatKind Kind, const std::string &Name, bool Spmm) {
  const KernelTable<double> &K = kernelTable<double>();
  switch (Kind) {
  case FormatKind::CSR:
    return Spmm ? kernelIndexNamed(K.CsrSpmm, Name)
                : kernelIndexNamed(K.Csr, Name);
  case FormatKind::COO:
    return Spmm ? kernelIndexNamed(K.CooSpmm, Name)
                : kernelIndexNamed(K.Coo, Name);
  case FormatKind::DIA:
    return Spmm ? kernelIndexNamed(K.DiaSpmm, Name)
                : kernelIndexNamed(K.Dia, Name);
  case FormatKind::ELL:
    return Spmm ? kernelIndexNamed(K.EllSpmm, Name)
                : kernelIndexNamed(K.Ell, Name);
  case FormatKind::BSR:
    return Spmm ? 0 : kernelIndexNamed(K.Bsr, Name);
  }
  return 0;
}

} // namespace

void LearningModel::refreshRuleMetadata() {
  GroupUsesR.fill(false);
  for (const Rule &R : Rules.Rules)
    for (const Condition &C : R.Conditions)
      if (C.Feature == FeatR)
        GroupUsesR[static_cast<int>(R.Format)] = true;
}

std::string smat::serializeModel(const LearningModel &Model) {
  std::string Out = "SMAT-MODEL v1\n";
  Out += formatString("threshold %.17g\n", Model.ConfidenceThreshold);
  Out += formatString("bsr %d\n", Model.BsrEnabled ? 1 : 0);
  for (int K = 0; K < NumFormats; ++K)
    Out += formatString(
        "kernel %s %d %s\n",
        std::string(formatName(static_cast<FormatKind>(K))).c_str(),
        Model.Kernels.BestKernel[static_cast<std::size_t>(K)],
        Model.Kernels.BestKernelName[static_cast<std::size_t>(K)].c_str());
  // Optional skew-pass CSR kernel (v1-compatible: old parsers that reach the
  // ruleset reader treat an unknown leading line as ruleset text, and the
  // line is only written when the search actually produced a skew pick).
  if (Model.Kernels.BestSkewCsrKernel >= 0)
    Out += formatString("kernel_skew CSR %d %s\n",
                        Model.Kernels.BestSkewCsrKernel,
                        Model.Kernels.BestSkewCsrKernelName.c_str());
  // Optional per-width SpMM picks (same v1 compatibility contract as
  // kernel_skew: only searched entries are written, and a parser that does
  // not know the tag treats the first non-matching line as ruleset text).
  for (int K = 0; K < NumFormats; ++K)
    for (int W = 0; W < NumSpmmWidths; ++W)
      if (Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(K)]
                                      [static_cast<std::size_t>(W)] >= 0)
        Out += formatString(
            "kernel_spmm %d %s %d %s\n",
            static_cast<int>(SpmmSearchWidths[static_cast<std::size_t>(W)]),
            std::string(formatName(static_cast<FormatKind>(K))).c_str(),
            Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(K)]
                                        [static_cast<std::size_t>(W)],
            Model.Kernels.BestSpmmKernelName[static_cast<std::size_t>(K)]
                                            [static_cast<std::size_t>(W)]
                .c_str());
  // Optional analytic-classifier thresholds (same v1 compatibility contract
  // as kernel_skew: a parser that predates the tag treats the first
  // non-matching line as ruleset text, and a file without the lines parses
  // with the CostModelThresholds defaults).
  Out += formatString("costmodel imbalance_rowcv %.17g\n",
                      Model.Cost.ImbalanceRowCv);
  Out += formatString("costmodel dia_fill %.17g\n", Model.Cost.DiaFillMin);
  Out += formatString("costmodel ell_fill %.17g\n", Model.Cost.EllFillMin);
  Out += serializeRuleSet(Model.Rules);
  return Out;
}

bool smat::parseModel(const std::string &Text, LearningModel &Model,
                      std::string &Error) {
  Model = LearningModel();
  std::istringstream In(Text);
  std::string Line;

  if (!std::getline(In, Line) || trim(Line) != "SMAT-MODEL v1") {
    Error = "missing SMAT-MODEL v1 header";
    return false;
  }
  if (!std::getline(In, Line)) {
    Error = "missing threshold line";
    return false;
  }
  auto ThresholdParts = splitWhitespace(Line);
  if (ThresholdParts.size() != 2 || ThresholdParts[0] != "threshold") {
    Error = "malformed threshold line: '" + Line + "'";
    return false;
  }
  Model.ConfidenceThreshold = std::strtod(ThresholdParts[1].c_str(), nullptr);

  if (!std::getline(In, Line)) {
    Error = "missing bsr line";
    return false;
  }
  auto BsrParts = splitWhitespace(Line);
  if (BsrParts.size() != 2 || BsrParts[0] != "bsr") {
    Error = "malformed bsr line: '" + Line + "'";
    return false;
  }
  Model.BsrEnabled = BsrParts[1] == "1";

  for (int K = 0; K < NumFormats; ++K) {
    if (!std::getline(In, Line)) {
      Error = "missing kernel line";
      return false;
    }
    auto KernelParts = splitWhitespace(Line);
    FormatKind Kind;
    if (KernelParts.size() != 4 || KernelParts[0] != "kernel" ||
        !parseFormatName(KernelParts[1], Kind)) {
      Error = "malformed kernel line: '" + Line + "'";
      return false;
    }
    // Picks bind by name: the index a model was written with is only
    // informative, since another build's table may order (or lack) kernels
    // differently.
    int Idx = static_cast<int>(Kind);
    Model.Kernels.BestKernel[static_cast<std::size_t>(Idx)] =
        kernelIndexFor(Kind, KernelParts[3], false);
    Model.Kernels.BestKernelName[static_cast<std::size_t>(Idx)] =
        KernelParts[3];
  }

  // Optional lines (absent in models trained before the features existed):
  // kernel_skew (skew-pass CSR kernel; BestSkewCsrKernel stays -1 without
  // it) and kernel_spmm (per-width batched picks; the affected width bucket
  // stays unsearched without them). Lookahead loop: the first consumed line
  // matching neither tag belongs to the ruleset.
  std::string RulesetPrefix;
  while (std::getline(In, Line)) {
    auto Parts = splitWhitespace(Line);
    if (Parts.size() == 4 && Parts[0] == "kernel_skew") {
      if (Parts[1] != "CSR") {
        Error = "malformed kernel_skew line: '" + Line + "'";
        return false;
      }
      Model.Kernels.BestSkewCsrKernel =
          kernelIndexFor(FormatKind::CSR, Parts[3], false);
      Model.Kernels.BestSkewCsrKernelName = Parts[3];
      continue;
    }
    if (Parts.size() == 5 && Parts[0] == "kernel_spmm") {
      FormatKind Kind;
      index_t Width =
          static_cast<index_t>(std::strtol(Parts[1].c_str(), nullptr, 10));
      if (!parseFormatName(Parts[2], Kind) || Width < 2 ||
          Width != SpmmSearchWidths[static_cast<std::size_t>(
                       spmmWidthIndex(Width))]) {
        Error = "malformed kernel_spmm line: '" + Line + "'";
        return false;
      }
      std::size_t F = static_cast<std::size_t>(Kind);
      std::size_t W = static_cast<std::size_t>(spmmWidthIndex(Width));
      Model.Kernels.BestSpmmKernel[F][W] = kernelIndexFor(Kind, Parts[4], true);
      Model.Kernels.BestSpmmKernelName[F][W] = Parts[4];
      continue;
    }
    if (Parts.size() == 3 && Parts[0] == "costmodel") {
      double Value = std::strtod(Parts[2].c_str(), nullptr);
      if (Parts[1] == "imbalance_rowcv")
        Model.Cost.ImbalanceRowCv = Value;
      else if (Parts[1] == "dia_fill")
        Model.Cost.DiaFillMin = Value;
      else if (Parts[1] == "ell_fill")
        Model.Cost.EllFillMin = Value;
      else {
        Error = "malformed costmodel line: '" + Line + "'";
        return false;
      }
      continue;
    }
    RulesetPrefix = Line + "\n";
    break;
  }

  // The remainder of the stream is the ruleset.
  std::ostringstream Rest;
  Rest << In.rdbuf();
  if (!parseRuleSet(RulesetPrefix + Rest.str(), Model.Rules, Error))
    return false;
  Model.refreshRuleMetadata();
  return true;
}

bool smat::saveModelFile(const std::string &Path, const LearningModel &Model) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << serializeModel(Model);
  return static_cast<bool>(Out);
}

bool smat::loadModelFile(const std::string &Path, LearningModel &Model,
                         std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open file '" + Path + "'";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return parseModel(Buffer.str(), Model, Error);
}
