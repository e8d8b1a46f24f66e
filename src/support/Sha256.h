//===- support/Sha256.h - Dependency-free SHA-256 --------------*- C++ -*-===//
///
/// \file
/// Minimal SHA-256 (FIPS 180-4), implemented locally so the build stays
/// free of external crypto dependencies. One use: content-addressing the
/// serialized policy tables (regex/TableIO.h), hashed once per ISA when
/// its tables register and checked when a blob loads. That is an
/// integrity check for drift detection, not a security boundary: the
/// tables are re-derivable from the grammars at any time, and no
/// verdict rests on the hash.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_SUPPORT_SHA256_H
#define ROCKSALT_SUPPORT_SHA256_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rocksalt {
namespace support {

/// Streaming SHA-256. Typical use:
///   Sha256 H; H.update(ptr, len); auto D = H.digest();
class Sha256 {
public:
  Sha256();

  /// Absorbs \p Len bytes. May be called repeatedly.
  void update(const void *Data, size_t Len);

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards.
  std::array<uint8_t, 32> digest();

  /// One-shot convenience.
  static std::array<uint8_t, 32> hash(const void *Data, size_t Len);

  /// Lowercase hex rendering of a digest.
  static std::string hex(const std::array<uint8_t, 32> &Digest);

private:
  void compress(const uint8_t *Block);

  uint32_t State[8];
  uint64_t TotalLen = 0;
  uint8_t Buf[64];
  size_t BufLen = 0;
};

} // namespace support
} // namespace rocksalt

#endif // ROCKSALT_SUPPORT_SHA256_H
