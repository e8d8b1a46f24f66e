//===- support/Sha256.h - Dependency-free SHA-256 --------------*- C++ -*-===//
///
/// \file
/// Minimal SHA-256 (FIPS 180-4), implemented locally so the build stays
/// free of external crypto dependencies. Two uses, with different
/// stakes:
///
///  * content-addressing the serialized policy tables (regex/TableIO.h):
///    an integrity check for drift detection — the tables are
///    re-derivable from the grammars at any time;
///  * keying the incremental verifier's chunk cache (incr/ChunkCache.h):
///    here a collision would let one chunk's cached scan stand in for
///    different bytes, so that cache's soundness rests on SHA-256's
///    collision resistance.
///
/// On x86 CPUs with the SHA extensions the block compress runs on the
/// `sha256rnds2`/`sha256msg` instructions; CPUID picks it once per
/// process, and the portable compress is the path everywhere else. Both
/// compute the same function, so the digest never depends on the CPU
/// (policy_table_format_test certifies the two against each other).
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
  uint32_t State[8];
  uint64_t TotalLen = 0;
  uint8_t Buf[64];
  size_t BufLen = 0;
};

namespace detail {

/// The block compress: folds \p NumBlocks consecutive 64-byte blocks
/// into \p State. The portable form runs anywhere; the SHA-NI form only
/// where `hasShaNi()` holds. Exposed for the certification test, which
/// runs both on the same inputs.
void compressPortable(uint32_t State[8], const uint8_t *Blocks,
                      size_t NumBlocks);
void compressShaNi(uint32_t State[8], const uint8_t *Blocks,
                   size_t NumBlocks);

/// True when the CPU has the SHA extensions and SSE4.1 (checked once).
bool hasShaNi();

} // namespace detail

} // namespace support
} // namespace rocksalt

#endif // ROCKSALT_SUPPORT_SHA256_H
