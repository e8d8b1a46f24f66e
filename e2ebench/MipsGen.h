//===- e2ebench/MipsGen.h - Policy-compliant MIPS modules ------*- C++ -*-===//
///
/// \file
/// Generates MIPS modules that satisfy the NaCl MIPS policy by
/// construction (mips/MipsPolicy.h), built on `mips::encode`: ordinary
/// no-control-flow words, in-range beq/bne/j/jal whose targets are
/// instruction starts, and masked `and $t9,$t9,$t6; jr $t9` pairs placed
/// inside one 16-byte bundle. These give `module_load` its MIPS share.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_MIPSGEN_H
#define E2EBENCH_MIPSGEN_H

#include "support/Oracle.h"

#include <cstdint>
#include <vector>

namespace e2e {

struct MipsModuleOptions {
  uint32_t TargetBytes = 4096; ///< rounded down to whole bundles
  uint32_t BranchRate = 60;    ///< per mille of words: beq/bne/j/jal
  uint32_t PairRate = 100;     ///< per mille of bundles: one masked pair
};

std::vector<uint8_t> generateMipsModule(const MipsModuleOptions &O,
                                        rocksalt::Rng &R);

} // namespace e2e

#endif // E2EBENCH_MIPSGEN_H
