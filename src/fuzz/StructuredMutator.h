//===- fuzz/StructuredMutator.h - Grammar-directed mutations ---*- C++ -*-===//
///
/// \file
/// Mutations that know the shape of the policy grammars, extending the
/// blind corruptions of nacl/Mutator. Where mutateRandom flips an
/// arbitrary byte, these aim at the constructs the four verifiers have
/// to agree about byte-for-byte:
///
///  * PrefixInject — splice a prefix byte (0x66/0xF0/0xF2/0xF3/segment)
///    in at an instruction start, shifting everything after it by one so
///    the whole downstream chain re-aligns differently;
///  * ImmWidthFlip — rewrite an opcode to its other-immediate-width
///    sibling (83<->81, 6A<->68, EB<->E9, C6<->C7, A8<->A9) while
///    leaving the operand bytes alone, so the decoded length changes out
///    from under the old encoding;
///  * SeamSplice — overwrite bytes so a multi-byte instruction (or a
///    masked-jump pair) straddles a 32-byte bundle boundary, the exact
///    inputs where the shard merge's seam logic (core/Shard.h, under
///    the incremental verifier and --fused) must match the sequential
///    chain;
///  * MaskedPairCorrupt — find a nacljmp pair and break exactly one of
///    its invariants (register agreement, the mask immediate, the AND
///    digit, jmp/call flavor, register- vs memory-form).
///
/// All mutations are deterministic per Rng state, so a failing image is
/// reproducible from (base seed, iteration) alone.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_FUZZ_STRUCTUREDMUTATOR_H
#define ROCKSALT_FUZZ_STRUCTUREDMUTATOR_H

#include "support/Oracle.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace rocksalt {
namespace fuzz {

enum class GrammarMutation : uint8_t {
  PrefixInject,
  ImmWidthFlip,
  SeamSplice,
  MaskedPairCorrupt,
  RandomSite, ///< nacl::mutateRandom fallback, for coverage of the blind case
};

const char *grammarMutationName(GrammarMutation K);

/// Applies \p Kind at a position chosen through \p R. Returns nullopt
/// when the mutation does not apply (no masked pair to corrupt, image
/// too small to straddle a seam, ...).
std::optional<std::vector<uint8_t>>
applyGrammarMutation(const std::vector<uint8_t> &Code, GrammarMutation Kind,
                     Rng &R);

/// Draws a mutation kind and applies it, falling back to random
/// single-site corruption when the drawn kind does not apply. Never
/// fails on a non-empty image.
std::vector<uint8_t> mutateStructured(const std::vector<uint8_t> &Code,
                                      Rng &R);

/// The positions the Figure-5 chain visits on \p Code, up to the first
/// failing position (inclusive) — the mutation sites grammar-aware
/// mutations aim at. Exposed for tests.
std::vector<uint32_t> chainPositions(const std::vector<uint8_t> &Code);

/// In-place patches for the incremental (JIT) workload: unlike the
/// mutations above, these never change the image size — they model a
/// code cache overwriting previously verified bytes. Kinds target the
/// places the incremental verifier's chunk/seam logic must get right:
enum class PatchKind : uint8_t {
  BundleLocalEdit, ///< rewrite bytes confined to one 32-byte bundle
  SeamStraddle,    ///< overwrite an instruction across a bundle seam
  MaskedPairSplit, ///< break exactly one half of a nacljmp pair
  RandomBytes,     ///< blind overwrite, for coverage of the blind case
  // Lint-directed kinds: each aims to flip a specific diagnostic of
  // analysis/CfgLint, so the lint differential exercises the engines on
  // images whose diagnostic sets actually change between steps instead
  // of only on verdict flips.
  DeadPairRevive,   ///< jmp from live code to a dead masked pair
                    ///< (flips the DeadMaskedPair warning off)
  CallSeamMisalign, ///< plant a direct call whose return point misses
                    ///< the bundle seam (flips CallRetNotSeam on)
  BranchIntoPair,   ///< retarget a direct branch into a masked pair's
                    ///< jump half (flips BranchIntoMaskedPair on)
};

const char *patchKindName(PatchKind K);

/// One overwrite: replace [Offset, Offset+Bytes.size()) of the image.
struct PatchOp {
  uint32_t Offset = 0;
  std::vector<uint8_t> Bytes;
  PatchKind Kind = PatchKind::RandomBytes;
};

/// Draws a patch of \p Kind against \p Code through \p R. Returns
/// nullopt when the kind does not apply (no masked pair to split, image
/// too small to straddle a seam, ...).
std::optional<PatchOp> applyPatchKind(const std::vector<uint8_t> &Code,
                                      PatchKind Kind, Rng &R);

/// Draws a patch kind and applies it, falling back to a random-byte
/// overwrite when the drawn kind does not apply. Never fails on a
/// non-empty image; deterministic per Rng state.
PatchOp nextStructuredPatch(const std::vector<uint8_t> &Code, Rng &R);

} // namespace fuzz
} // namespace rocksalt

#endif // ROCKSALT_FUZZ_STRUCTUREDMUTATOR_H
