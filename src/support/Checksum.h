//===- support/Checksum.h - FNV-1a content checksums ------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a content hashing, used by the repository benchmark (perfbench):
/// it records the hash of the model file it tunes with in each result's
/// environment, and its self-test hashes the structure of the generated
/// matrices to check that the generators are deterministic. Not
/// cryptographic.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_SUPPORT_CHECKSUM_H
#define SMAT_SUPPORT_CHECKSUM_H

#include <cstdint>
#include <string_view>

namespace smat {

/// 64-bit FNV-1a over \p Bytes.
inline std::uint64_t fnv1a64(std::string_view Bytes) {
  std::uint64_t Hash = 1469598103934665603ull;
  for (char C : Bytes) {
    Hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(C));
    Hash *= 1099511628211ull;
  }
  return Hash;
}

} // namespace smat

#endif // SMAT_SUPPORT_CHECKSUM_H
