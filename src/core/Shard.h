//===- core/Shard.h - Shard scan and concatenating join --------*- C++ -*-===//
///
/// \file
/// The incremental verifier's split and join. The aligned-chunk policy
/// makes the Figure-5 scan splittable: in any *accepted* image every
/// 32-byte boundary is an instruction start (that is exactly the bundle
/// check of Figure 5), so a scan started fresh at a bundle-aligned shard
/// base follows the same match chain the sequential verifier would.
/// Each shard is scanned independently (`scanShard`, the verify driver
/// of core/ChainDriver.h with the shard sink) and the per-shard results
/// are joined sequentially (`mergeShardScans`). incr/ scans each chunk
/// of an image as a shard, keeps the scans, and joins them here.
///
/// The join steps no chain of its own. When every scan succeeded and
/// each began exactly where the previous one stopped, the chain is the
/// concatenation of the scans and the join copies their marks. Any
/// other shard list (a failed scan, a chain that crossed a shard base
/// mid-instruction, a gap, an overlap, a chain that ends short of the
/// image) is answered by `checkImage` over the whole image. Either way
/// the result is *bit-identical* to `RockSalt::check` (same verdict,
/// same Valid/Target/PairJmp bitmaps, same reject reason) on every
/// input, which is what keeps the paper's soundness argument intact:
/// the incremental verifier is an implementation of the same checker
/// function, not a new checker.
///
/// `partitionShards` has no production caller. It stays for the two
/// differential legs that join arbitrary shard counts of mutated
/// images: `fuzz_differential --fused` (the `fused_equivalence` gate)
/// and the shard-derived lint (`analysis::lintImageFromShards`, the
/// `lint_differential` gate).
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_CORE_SHARD_H
#define ROCKSALT_CORE_SHARD_H

#include "core/Verifier.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace rocksalt {
namespace core {

/// The result of scanning one shard [Begin, End) of an image.
/// Instruction starts are a bitmap over [Begin, End), one bit per byte,
/// read through `forEachStart` so no caller depends on the word layout;
/// targets and pair jumps are sparse position lists.
/// Buffers retain capacity across `reset`, so steady-state scans
/// allocate nothing.
struct ShardScan {
  uint32_t Begin = 0; ///< shard base, a multiple of BundleSize
  uint32_t End = 0;   ///< shard limit (next base, or image size)
  /// First chain position >= End; unspecified when Failed.
  uint32_t StopPos = 0;
  bool Failed = false; ///< the chain failed (no grammar matched) below End

  std::vector<uint32_t> TargetPos;  ///< absolute direct-jump targets
  std::vector<uint32_t> PairJmpPos; ///< jump halves of masked pairs

  /// Clears the results and sizes a zeroed start bitmap for [B, E).
  void reset(uint32_t B, uint32_t E) {
    Begin = B;
    End = E;
    StopPos = B;
    Failed = false;
    // One slack word past the last absorbs the sweep's dead (zero)
    // writes for an instruction straddling E: no policy instruction is
    // longer than a bundle (IncrTest.MaxScanReadBytesIsSane pins it).
    StartWords.assign((size_t(E - B) + 63) / 64 + 1, 0);
    TargetPos.clear();
    PairJmpPos.clear();
  }

  /// Calls \p Fn(Q) for every instruction start Q, ascending.
  template <typename Fn> void forEachStart(Fn &&F) const {
    for (size_t W = 0; W < StartWords.size(); ++W)
      for (uint64_t Bits = StartWords[W]; Bits; Bits &= Bits - 1)
        F(Begin + uint32_t(W * 64) + uint32_t(std::countr_zero(Bits)));
  }

private:
  friend void scanShard(const FusedPolicy &, const uint8_t *, uint32_t,
                        ShardScan &);
  std::vector<uint64_t> StartWords; ///< bit Q - Begin set iff Q is a start
};

/// Runs the Figure-5 chain from S.Begin while the position is < S.End
/// over a freshly `reset` \p S; a final match may overrun past End
/// (StopPos records where the chain actually stopped). Marks exactly
/// the starts the sequential scan would mark on the same chain,
/// including the failing position. Both lanes stop at the first
/// instruction start at or past S.End, so what the scan records
/// depends on no byte past the last instruction begun below S.End:
/// that is the scan-window contract the incremental verifier's dirty
/// rule rests on (a patch outside a chunk's window cannot change its
/// scan; incr/IncrementalVerifier.h). The next shard's first line is
/// prefetched across the seam.
void scanShard(const FusedPolicy &P, const uint8_t *Code, uint32_t Size,
               ShardScan &S);

/// Splits [0, Size) into \p NumShards bundle-aligned shards, filling
/// \p Shards (reusing its elements' buffers). The actual count may be
/// lower for small images; every shard is non-empty. The differential
/// legs' partition (see the file comment); incr/ cuts fixed chunks.
void partitionShards(uint32_t Size, uint32_t NumShards,
                     std::vector<ShardScan> &Shards);

/// The sequential join. When no scan failed, each begins where the
/// previous one stopped (the first at 0) and the last stops at \p Size,
/// ORs the scans' marks into the bitmaps and runs the final pass;
/// otherwise returns `checkImage` of the whole image. Bit-identical to
/// `RockSalt::check` either way.
CheckResult mergeShardScans(const FusedPolicy &P, const uint8_t *Code,
                            uint32_t Size, const std::vector<ShardScan> &Shards);

} // namespace core
} // namespace rocksalt

#endif // ROCKSALT_CORE_SHARD_H
