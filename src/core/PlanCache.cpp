//===- core/PlanCache.cpp - Feature-fingerprint tuning-plan cache ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/PlanCache.h"

#include <algorithm>
#include <cmath>

using namespace smat;

namespace {

/// floor(log2(X + 1)) for non-negative feature values; 0 for degenerate
/// inputs so empty matrices still fingerprint deterministically.
std::int16_t log2Bucket(double X) {
  if (!(X > 0.0))
    return 0;
  return static_cast<std::int16_t>(std::floor(std::log2(X + 1.0)));
}

/// A ratio in [0, 1] quantized to eighth steps (bucket 0..8).
std::int16_t eighthBucket(double Ratio) {
  double Clamped = std::clamp(Ratio, 0.0, 1.0);
  return static_cast<std::int16_t>(std::floor(Clamped * 8.0));
}

} // namespace

std::size_t
PlanFingerprintHash::operator()(const PlanFingerprint &Fp) const {
  const std::int16_t Buckets[] = {
      Fp.RowsLog2,   Fp.ColsLog2,      Fp.DensityBucket, Fp.DispersionBucket,
      Fp.MaxRdLog2,  Fp.NdiagsLog2,    Fp.NTdiagsBucket, Fp.DiaFillBucket,
      Fp.EllFillBucket, Fp.BsrFillBucket, Fp.WidthBucket, Fp.ClassBucket};
  std::uint64_t Hash = 1469598103934665603ull;
  for (std::int16_t B : Buckets) {
    Hash ^= static_cast<std::uint64_t>(static_cast<std::uint16_t>(B));
    Hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(Hash);
}

PlanFingerprint smat::fingerprintFeatures(const FeatureVector &F) {
  PlanFingerprint Fp;
  Fp.RowsLog2 = log2Bucket(F.M);
  Fp.ColsLog2 = log2Bucket(F.N);
  // Density as nonzeros per row, half-log2 resolution.
  Fp.DensityBucket = static_cast<std::int16_t>(2 * log2Bucket(F.AverRd));
  // Dispersion: coefficient of variation of the row degrees (scale-free
  // inputs land in high buckets, stencils in bucket 0).
  double Cv = F.AverRd > 0.0 ? std::sqrt(std::max(0.0, F.VarRd)) / F.AverRd
                             : 0.0;
  Fp.DispersionBucket = static_cast<std::int16_t>(
      std::floor(2.0 * std::log2(1.0 + Cv)));
  Fp.MaxRdLog2 = log2Bucket(F.MaxRd);
  Fp.NdiagsLog2 = log2Bucket(F.Ndiags);
  Fp.NTdiagsBucket = eighthBucket(F.NTdiagsRatio);
  Fp.DiaFillBucket = eighthBucket(F.ErDia);
  Fp.EllFillBucket = eighthBucket(F.ErEll);
  Fp.BsrFillBucket = eighthBucket(F.ErBsr);
  return Fp;
}

PlanCache::PlanCache(std::size_t Capacity)
    : Capacity(std::max<std::size_t>(1, Capacity)) {}

bool PlanCache::lookup(const PlanFingerprint &Fp, CachedPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Fp);
  if (It == Index.end()) {
    ++Counters.Misses;
    return false;
  }
  ++Counters.Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  Plan = It->second->second;
  return true;
}

void PlanCache::insert(const PlanFingerprint &Fp, const CachedPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Fp);
  if (It != Index.end()) {
    It->second->second = Plan;
    Lru.splice(Lru.begin(), Lru, It->second);
    ++Counters.Inserts;
    return;
  }
  if (Lru.size() >= Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
  }
  Lru.emplace_front(Fp, Plan);
  Index.emplace(Fp, Lru.begin());
  ++Counters.Inserts;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}
