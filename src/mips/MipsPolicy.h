//===- mips/MipsPolicy.h - The NaCl sandbox policy for MIPS ----*- C++ -*-===//
///
/// \file
/// The second tenant of the multi-ISA table registry: the aligned NaCl
/// sandbox policy instantiated for the MIPS-I model (mips/Mips.h). The
/// paper's point — and the registry's — is that the checker core is
/// ISA-generic: the same three-grammar shape (NoControlFlow /
/// DirectJump / MaskedJump), the same derivative → DFA → Hopcroft
/// pipeline, the same 14 audit obligations, the same RSTB blob format
/// (now ISA-tagged), just a different grammar underneath.
///
/// The MIPS instantiation follows the NaCl MIPS ABI conventions:
///
///  * MaskedJump — the two-instruction indirect-jump sequence
///    `and $t9, $t9, $t6` immediately followed by `jr $t9`: indirect
///    control flow goes only through $t9, masked against the code mask
///    held in the reserved register $t6. Eight fixed bytes;
///  * DirectJump — beq / bne (pc-relative) and j / jal (absolute);
///  * NoControlFlow — every other decodable form. A bare `jr` is
///    deliberately absent: naked indirect jumps are exactly what the
///    sandbox forbids.
///
/// Fixed-width 32-bit words make the walk simpler than x86's — every
/// match is 4 bytes (8 for the pair) — but nothing in the chain or the
/// finalize pass changes: `checkMips` is the verify driver x86 uses
/// (core/ChainDriver.h) over the registry's fused MIPS tables, with
/// MIPS traits — a 16-byte bundle, a 4-byte jump half and MIPS target
/// extraction.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_MIPS_MIPSPOLICY_H
#define ROCKSALT_MIPS_MIPSPOLICY_H

#include "core/TableRegistry.h"
#include "core/Verifier.h"
#include "mips/Mips.h"

namespace rocksalt {
namespace mips {

/// The bundle size of the MIPS aligned policy: 16 bytes (four
/// instructions), the NaCl MIPS granularity.
constexpr uint32_t MipsBundleSize = 16;

/// Indirect jumps go only through $t9 (= $25), the NaCl MIPS
/// convention (position-independent calls already route through $t9).
constexpr uint8_t MipsJumpReg = 25;

/// The code mask lives in the reserved register $t6 (= $14).
constexpr uint8_t MipsMaskReg = 14;

/// Byte length of the jump half (`jr $t9`) of a masked-jump pair; the
/// jump half is the last MipsMaskedJumpHalfLen bytes of a match,
/// mirroring core::MaskedJumpHalfLen.
constexpr uint32_t MipsMaskedJumpHalfLen = 4;

/// Exact state counts of the shipped minimized, canonically numbered
/// MIPS tables, pinned the same way core/Policy.h pins x86's;
/// buildMipsPolicyTables() asserts them.
constexpr uint32_t MipsNoControlFlowStates = 9;
constexpr uint32_t MipsDirectJumpStates = 6;
constexpr uint32_t MipsMaskedJumpStates = 10;

/// Compiles the MIPS policy DFAs by raw derivative closure, without
/// minimization (the differential form, like core::buildPolicyTablesRaw).
core::PolicyTables buildMipsPolicyTablesRaw();

/// Compiles the shipped MIPS policy DFAs: derivative closure, Hopcroft
/// minimization, canonical BFS numbering, pinned state counts.
core::PolicyTables buildMipsPolicyTables();

/// The registry entry for (mips, nacl): tables + fused form + canonical
/// ISA-tagged blob + content hash, built and registered on first use.
const core::TableEntry &mipsTableEntry();

/// The stripped one-instruction decoder regex (the union of every MIPS
/// form), interned in \p F — what the audit's decoder-inclusion
/// obligations and the MIPS DecoderDfas are built from.
re::Regex mipsDecoderRegex(re::Factory &F);

/// The reference Figure-5 check over a MIPS image: the literal
/// three-table walk (core::referenceCheck) over \p T with MIPS traits —
/// same chain (MaskedJump, then NoControlFlow, then DirectJump,
/// shortest-match per table), same finalize pass (every branch target
/// and every bundle boundary must be an instruction start), with MIPS
/// target extraction — beq/bne are pc-relative from the following word,
/// j/jal absolute within the image — and the 16-byte bundle. The
/// differential reference for checkMips.
core::CheckResult checkMipsReference(const core::PolicyTables &T,
                                     const uint8_t *Code, uint32_t Size);

/// The production MIPS check: the verify driver over the registry's
/// fused MIPS tables. Bit-identical to checkMipsReference over the
/// registry's tables.
core::CheckResult checkMips(const uint8_t *Code, uint32_t Size);

} // namespace mips
} // namespace rocksalt

#endif // ROCKSALT_MIPS_MIPSPOLICY_H
