//===- fuzz/MipsGen.h - Seeded MIPS images for the differential -*- C++ -*-===//
///
/// \file
/// The MIPS half of `fuzz_differential --fused`: a small generator of
/// policy-compliant MIPS images built on `mips::encode`, and the
/// mutations that push them off the compliant set. The generated image
/// is bundle-structured — plain NoControlFlow words with random fields,
/// beq/bne/j/jal aimed at bundle starts, and masked pairs
/// (`and $t9,$t9,$t6; jr $t9`) placed inside a bundle — so the
/// unmutated image is accepted and every mutation starts from code the
/// checker has to walk all the way through.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_FUZZ_MIPSGEN_H
#define ROCKSALT_FUZZ_MIPSGEN_H

#include "support/Oracle.h"

#include <cstdint>
#include <vector>

namespace rocksalt {
namespace fuzz {

/// A compliant MIPS image of \p TargetBytes rounded down to whole
/// 16-byte bundles (at least one), big-endian words.
std::vector<uint8_t> generateMipsImage(uint32_t TargetBytes, Rng &R);

/// One mutation of \p Img: a byte flip, or an insertion or deletion of
/// 1-3 bytes at a random offset (every later word shifts off its
/// alignment).
std::vector<uint8_t> mutateMipsImage(const std::vector<uint8_t> &Img, Rng &R);

} // namespace fuzz
} // namespace rocksalt

#endif // ROCKSALT_FUZZ_MIPSGEN_H
