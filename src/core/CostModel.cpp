//===- core/CostModel.cpp - Analytic bottleneck classification ------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"

#include "matrix/FormatConvert.h"

using namespace smat;

const char *smat::bottleneckClassName(BottleneckClass Class) {
  switch (Class) {
  case BottleneckClass::BandwidthBound:
    return "bandwidth";
  case BottleneckClass::ImbalanceBound:
    return "imbalance";
  case BottleneckClass::IrregularityBound:
    return "irregularity";
  }
  return "unknown";
}

CostModelDecision
smat::classifyBottleneck(const FeatureVector &F,
                         const CostModelThresholds &Thresholds) {
  CostModelDecision D;
  // CSR is always a candidate: it is the substrate the tuner starts from
  // and the plan the never-slower guardrail falls back to.
  D.Allowed[static_cast<std::size_t>(FormatKind::CSR)] = true;

  // Imbalance first: a heavily skewed row-length distribution makes work
  // imbalance the dominant cost regardless of any fill efficiency, and the
  // cure is CSR in nonzero-balanced row slices (and the skew pass's CSR
  // kernel), not a format conversion. Racing conversions here wastes the
  // latency the pre-filter exists to save.
  if (F.rowCv() > Thresholds.ImbalanceRowCv) {
    D.Class = BottleneckClass::ImbalanceBound;
    return D;
  }

  // Bandwidth-bound, diagonal flavor: enough occupied-diagonal fill that
  // DIA's branch-free streaming pays. DIA strictly dominates ELL on this
  // structure, so the menu stays at two candidates.
  const bool DiaStructure = F.Ndiags > 0 &&
                            F.Ndiags <= static_cast<double>(DefaultMaxDiags) &&
                            F.ErDia >= Thresholds.DiaFillMin;
  if (DiaStructure) {
    D.Class = BottleneckClass::BandwidthBound;
    D.Allowed[static_cast<std::size_t>(FormatKind::DIA)] = true;
    return D;
  }

  // Bandwidth-bound, padded-rows flavor: near-uniform row lengths with
  // little padding waste stream well through ELL (and BSR when the 4x4
  // block fill is dense enough to beat its padding flops).
  if (F.MaxRd > 0 && F.ErEll >= Thresholds.EllFillMin) {
    D.Class = BottleneckClass::BandwidthBound;
    D.Allowed[static_cast<std::size_t>(FormatKind::ELL)] = true;
    if (F.ErBsr * DefaultBsrMaxFillRatio >= 1.0)
      D.Allowed[static_cast<std::size_t>(FormatKind::BSR)] = true;
    return D;
  }

  // Irregularity-bound remainder: scattered structure with moderate
  // balance. COO's flat nonzero stream is the only alternative worth
  // racing against CSR.
  D.Class = BottleneckClass::IrregularityBound;
  D.Allowed[static_cast<std::size_t>(FormatKind::COO)] = true;
  if (F.ErBsr * DefaultBsrMaxFillRatio >= 1.0)
    D.Allowed[static_cast<std::size_t>(FormatKind::BSR)] = true;
  return D;
}
