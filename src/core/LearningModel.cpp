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
#include <string_view>

using namespace smat;

namespace {

/// The model file's first line; a file with any other is rejected.
constexpr std::string_view ModelHeader = "SMAT-MODEL v2";

/// The index of the kernel named \p Name in this build's SpMV (\p Spmm
/// false) or SpMM library of \p Kind (not BSR, which has none); 0, the
/// basic kernel, when the build has no kernel of that name. Both value types
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
    return kernelIndexNamed(K.Bsr, Name);
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
  const KernelSelection &Sel = Model.Kernels;
  auto Format = [](int K) {
    return std::string(formatName(static_cast<FormatKind>(K)));
  };
  std::string Out = std::string(ModelHeader) + "\n";
  Out += formatString("threshold %.17g\n", Model.ConfidenceThreshold);
  Out += formatString("bsr %d\n", Model.BsrEnabled ? 1 : 0);
  for (int K = 0; K < NumFormats; ++K)
    Out += formatString(
        "kernel %s %s\n", Format(K).c_str(),
        Sel.BestKernelName[static_cast<std::size_t>(K)].c_str());
  // The skew and SpMM picks are written only when the search made them.
  if (Sel.BestSkewCsrKernel >= 0)
    Out += formatString("kernel_skew CSR %s\n",
                        Sel.BestSkewCsrKernelName.c_str());
  for (int K = 0; K < NumFormats; ++K)
    if (Sel.BestSpmmKernel[static_cast<std::size_t>(K)] >= 0)
      Out += formatString(
          "kernel_spmm %s %s\n", Format(K).c_str(),
          Sel.BestSpmmKernelName[static_cast<std::size_t>(K)].c_str());
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

  if (!std::getline(In, Line)) {
    Error = "missing " + std::string(ModelHeader) + " header";
    return false;
  }
  if (trim(Line) != ModelHeader) {
    Error = "unsupported model header '" + std::string(trim(Line)) +
            "' (expected " + std::string(ModelHeader) + ")";
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

  // Picks bind by name: another build's table may order (or lack) kernels
  // differently.
  KernelSelection &Sel = Model.Kernels;
  for (int K = 0; K < NumFormats; ++K) {
    if (!std::getline(In, Line)) {
      Error = "missing kernel line";
      return false;
    }
    auto KernelParts = splitWhitespace(Line);
    FormatKind Kind;
    if (KernelParts.size() != 3 || KernelParts[0] != "kernel" ||
        !parseFormatName(KernelParts[1], Kind)) {
      Error = "malformed kernel line: '" + Line + "'";
      return false;
    }
    const auto F = static_cast<std::size_t>(Kind);
    Sel.BestKernel[F] = kernelIndexFor(Kind, KernelParts[2], false);
    Sel.BestKernelName[F] = KernelParts[2];
  }

  // Optional lines: kernel_skew (BestSkewCsrKernel stays -1 without it),
  // kernel_spmm (a family without one binds its basic SpMM kernel) and
  // costmodel (CostModelThresholds defaults without them). Lookahead loop:
  // the first consumed line matching no tag belongs to the ruleset.
  std::string RulesetPrefix;
  while (std::getline(In, Line)) {
    auto Parts = splitWhitespace(Line);
    if (Parts.size() == 3 && Parts[0] == "kernel_skew") {
      if (Parts[1] != "CSR") {
        Error = "malformed kernel_skew line: '" + Line + "'";
        return false;
      }
      Sel.BestSkewCsrKernel = kernelIndexFor(FormatKind::CSR, Parts[2], false);
      Sel.BestSkewCsrKernelName = Parts[2];
      continue;
    }
    if (Parts.size() == 3 && Parts[0] == "kernel_spmm") {
      FormatKind Kind;
      if (!parseFormatName(Parts[1], Kind) || Kind == FormatKind::BSR) {
        Error = "malformed kernel_spmm line: '" + Line + "'";
        return false;
      }
      const auto F = static_cast<std::size_t>(Kind);
      Sel.BestSpmmKernel[F] = kernelIndexFor(Kind, Parts[2], true);
      Sel.BestSpmmKernelName[F] = Parts[2];
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
